//! `SafetyPattern::decide_batch` under injected channel faults.
//!
//! A batch is semantically a sequential replay: for the same fault seed,
//! the batch path must reproduce the exact decision sequence of
//! one-at-a-time `decide` calls — including every injected fault. This
//! pins down the contract campaigns rely on when they sweep fault classes
//! through the batch API.

use safex_patterns::channel::{ConstantChannel, RuleChannel};
use safex_patterns::fault::{FaultModel, FaultyChannel};
use safex_patterns::pattern::{MonitorActuator, SafetyPattern, TwoOutOfThree};
use safex_patterns::Decision;
use safex_tensor::DetRng;

const CLASSES: usize = 4;
const FAULT: FaultModel = FaultModel {
    wrong_class: 0.15,
    stuck: 0.10,
    crash: 0.05,
    erratic: 0.10,
};

fn faulty(seed: u64) -> FaultyChannel {
    let inner = RuleChannel::new("rule", |x: &[f32]| {
        usize::from(x[0] > 0.25) + 2 * usize::from(x[0] > 0.75)
    });
    FaultyChannel::new(inner, FAULT, CLASSES, DetRng::new(seed)).expect("valid fault model")
}

fn inputs() -> Vec<Vec<f32>> {
    (0..64).map(|i| vec![i as f32 / 64.0]).collect()
}

/// Drives `pattern` one decision at a time — the reference sequence.
fn sequential(mut pattern: impl SafetyPattern, inputs: &[Vec<f32>]) -> Vec<Decision> {
    inputs
        .iter()
        .map(|x| pattern.decide(x).expect("decide"))
        .collect()
}

#[test]
fn two_out_of_three_batch_equals_sequential_fault_sequence() {
    let build = || {
        TwoOutOfThree::new(
            faulty(42),
            ConstantChannel::new("b", 1),
            ConstantChannel::new("c", 1),
        )
        .expect("voter")
    };
    let input_vec = inputs();
    let slices: Vec<&[f32]> = input_vec.iter().map(Vec::as_slice).collect();
    let reference = sequential(build(), &input_vec);
    let batched = build().decide_batch(&slices).expect("batch");
    assert_eq!(
        batched, reference,
        "batch diverged from the sequential fault sequence"
    );
}

#[test]
fn monitor_actuator_batch_equals_sequential_fault_sequence() {
    let build = || {
        MonitorActuator::new(faulty(7), 0.4, 0)
            .expect("pattern")
            .with_monitor_channel(ConstantChannel::new("monitor", 1))
    };
    let input_vec = inputs();
    let slices: Vec<&[f32]> = input_vec.iter().map(Vec::as_slice).collect();
    let reference = sequential(build(), &input_vec);
    let batched = build().decide_batch(&slices).expect("batch");
    assert_eq!(
        batched, reference,
        "batch diverged from the sequential fault sequence"
    );
}

#[test]
fn different_seeds_change_the_fault_sequence() {
    let input_vec = inputs();
    let run = |seed: u64| {
        sequential(
            TwoOutOfThree::new(
                faulty(seed),
                ConstantChannel::new("b", 1),
                ConstantChannel::new("c", 1),
            )
            .expect("voter"),
            &input_vec,
        )
    };
    assert_eq!(run(3), run(3), "same seed must replay identically");
    assert_ne!(run(3), run(4), "fault model must actually bite");
}
