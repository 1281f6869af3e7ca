//! Property test: a hardened decision stream run as batch-major chunks
//! equals the sequential per-item loop over the same global indices —
//! classification bits, health events and injections — for any chunk
//! sizes, fault plan (f32), CRC cadence, repair setting and mid-stream
//! weight strike, on the f32 and the Q16.16 engine alike.

use proptest::prelude::*;
use safex_nn::layer::Layer;
use safex_nn::model::ModelBuilder;
use safex_nn::quant::QLayer;
use safex_nn::{
    ActivationFault, CheckedClassification, EccConfig, FaultPlan, HardenConfig, HardenDomain,
    HardenedEngine, HardenedPool, InputFault, Model, QModel,
};
use safex_tensor::fixed::Q16_16;
use safex_tensor::{DetRng, Shape};

fn model(seed: u64) -> Model {
    let mut rng = DetRng::new(seed);
    ModelBuilder::new(Shape::vector(6))
        .dense(16, &mut rng)
        .unwrap()
        .relu()
        .dense(8, &mut rng)
        .unwrap()
        .relu()
        .dense(3, &mut rng)
        .unwrap()
        .softmax()
        .build()
        .unwrap()
}

fn inputs(seed: u64, n: usize) -> Vec<Vec<f32>> {
    let mut rng = DetRng::new(seed);
    (0..n)
        .map(|_| (0..6).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
        .collect()
}

/// Flips `bit` of weight `word` of dense layer `layer`.
fn strike(model: &mut Model, layer: usize, word: usize, bit: u32) {
    match &mut model.layers_mut()[layer] {
        Layer::Dense(d) => {
            let w = &mut d.weights_mut()[word];
            *w = f32::from_bits(w.to_bits() ^ (1 << bit));
        }
        other => panic!("layer {layer} is not dense: {other:?}"),
    }
}

/// [`strike`] on a quantised model.
fn qstrike(model: &mut QModel, layer: usize, word: usize, bit: u32) {
    match &mut model.layers_mut()[layer] {
        QLayer::Dense { weights, .. } => {
            weights[word] = Q16_16::from_bits(weights[word].to_bits() ^ (1 << bit));
        }
        other => panic!("layer {layer} is not dense: {other:?}"),
    }
}

fn config(repair: bool, cadence: u64) -> HardenConfig {
    HardenConfig {
        crc_cadence: cadence,
        repair: repair.then(EccConfig::default),
        ..HardenConfig::default()
    }
}

/// Runs `all` through `engine` sequentially and through a `workers` pool
/// fed `chunks`, with `strike` landing at the boundary before chunk
/// `strike_before` (past the last chunk: no strike), and asserts both
/// agree.
fn chunked_equals_sequential<M: HardenDomain>(
    engine: &HardenedEngine<M>,
    all: &[Vec<M::Elem>],
    chunks: &[usize],
    workers: usize,
    strike_before: usize,
    strike: impl Fn(&mut M),
) -> Result<(), TestCaseError> {
    let strike_at: usize = chunks.iter().take(strike_before).sum();
    let strikes = strike_before < chunks.len();

    let mut reference = Vec::new();
    let mut seq = engine.clone();
    for (i, input) in all.iter().enumerate() {
        if strikes && i == strike_at {
            strike(seq.model_mut());
        }
        let classification = seq.classify_indexed(i as u64, input).expect("classify");
        reference.push(CheckedClassification {
            classification,
            events: seq.last_events().to_vec(),
            injections: seq.last_injections().to_vec(),
        });
    }

    let mut pool = HardenedPool::new(engine, workers).expect("pool");
    let mut got = Vec::new();
    let mut start = 0;
    for (c, &len) in chunks.iter().enumerate() {
        if strikes && c == strike_before {
            for replica in pool.engines_mut() {
                strike(replica.model_mut());
            }
        }
        got.extend(
            pool.classify_batch(&all[start..start + len])
                .expect("batch"),
        );
        start += len;
    }
    prop_assert_eq!(got, reference);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chunked_decisions_equal_per_item_decisions(
        seed in any::<u64>(),
        chunks in prop::collection::vec(1usize..=16, 1..6),
        workers in 1usize..=3,
        repair in any::<bool>(),
        cadence in 1u64..=3,
        strike_before in 0usize..6,
        strike_slot in 0usize..3,
        strike_bit in 0u32..32,
    ) {
        let mut engine =
            HardenedEngine::new(model(seed), config(repair, cadence)).expect("engine");
        let all = inputs(seed ^ 0xC0FFEE, chunks.iter().sum());
        engine.calibrate(&all).expect("calibrate");
        engine
            .set_plan(FaultPlan {
                seed,
                input: Some(InputFault::Noise { sigma: 0.3, p: 0.3 }),
                activation: Some(ActivationFault { p: 0.2, bits: 2 }),
            })
            .expect("plan");
        let strike_layer = engine.golden_checksums()[strike_slot].0;
        chunked_equals_sequential(&engine, &all, &chunks, workers, strike_before, |m| {
            strike(m, strike_layer, 0, strike_bit)
        })?;
    }

    #[test]
    fn chunked_q16_decisions_equal_per_item_decisions(
        seed in any::<u64>(),
        chunks in prop::collection::vec(1usize..=16, 1..6),
        workers in 1usize..=3,
        repair in any::<bool>(),
        cadence in 1u64..=3,
        strike_before in 0usize..6,
        strike_slot in 0usize..3,
        strike_bit in 0u32..32,
    ) {
        let qmodel = QModel::quantize(&model(seed)).expect("quantize");
        let mut engine =
            HardenedEngine::new(qmodel, config(repair, cadence)).expect("engine");
        let all: Vec<Vec<Q16_16>> = inputs(seed ^ 0xC0FFEE, chunks.iter().sum())
            .iter()
            .map(|x| x.iter().map(|&v| Q16_16::from_f32(v)).collect())
            .collect();
        engine.calibrate(&all).expect("calibrate");
        let strike_layer = engine.golden_checksums()[strike_slot].0;
        chunked_equals_sequential(&engine, &all, &chunks, workers, strike_before, |m| {
            qstrike(m, strike_layer, 0, strike_bit)
        })?;
    }
}
