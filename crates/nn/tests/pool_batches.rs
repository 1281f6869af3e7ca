//! Regression test: a hardened pool fed many small batches after a weight
//! strike equals the sequential `classify_indexed` loop — classifications,
//! health events and injections — for the f32 and the Q16.16 engine and
//! any worker count.
//!
//! The strike (each parametric layer in turn) lands on the engine before
//! the pool clones it, so every replica carries it. With ECC repair on, whichever replica runs the
//! repairing check fixes only its own weights; the others must replay the
//! silent repair before their next decision, or they keep serving the
//! struck weights with no event — a silently wrong answer.

use safex_nn::layer::Layer;
use safex_nn::model::ModelBuilder;
use safex_nn::quant::QLayer;
use safex_nn::{
    CheckedClassification, EccConfig, HardenConfig, HardenedEngine, HardenedPool, HardenedQEngine,
    HardenedQPool, HealthEvent, Model, QModel,
};
use safex_tensor::fixed::Q16_16;
use safex_tensor::{DetRng, Shape};

const DECISIONS: usize = 18;
const BATCH: usize = 2;
const STRIKE_BIT: u32 = 12;

fn model() -> Model {
    let mut rng = DetRng::new(0x5EED);
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

fn inputs() -> Vec<Vec<f32>> {
    let mut rng = DetRng::new(0xFEED);
    (0..DECISIONS)
        .map(|_| (0..6).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
        .collect()
}

fn strike_f32(model: &mut Model, layer: usize) {
    match &mut model.layers_mut()[layer] {
        Layer::Dense(d) => {
            let w = &mut d.weights_mut()[0];
            *w = f32::from_bits(w.to_bits() ^ (1 << STRIKE_BIT));
        }
        other => panic!("layer {layer} is not dense: {other:?}"),
    }
}

fn strike_q16(model: &mut QModel, layer: usize) {
    match &mut model.layers_mut()[layer] {
        QLayer::Dense { weights, .. } => {
            weights[0] = Q16_16::from_bits(weights[0].to_bits() ^ (1 << STRIKE_BIT));
        }
        other => panic!("layer {layer} is not dense: {other:?}"),
    }
}

fn config() -> HardenConfig {
    HardenConfig {
        crc_cadence: 1,
        repair: Some(EccConfig::default()),
        ..HardenConfig::default()
    }
}

/// Strikes each parametric layer of `$engine` in turn, then checks every
/// worker count's small-batch pool against the sequential loop. A macro
/// rather than a generic function so the body reads the same for both
/// engines.
macro_rules! check_small_batches {
    ($engine:expr, $pool:ident, $inputs:expr, $strike:ident, $what:expr) => {{
        let pristine = $engine;
        let inputs = $inputs;
        for &(layer, _) in pristine.golden_checksums() {
            let what = format!("{}, layer {layer} struck", $what);
            let mut engine = pristine.clone();
            $strike(engine.model_mut(), layer);
            let mut seq = engine.clone();
            let reference: Vec<CheckedClassification> = inputs
                .iter()
                .enumerate()
                .map(|(i, x)| CheckedClassification {
                    classification: seq.classify_indexed(i as u64, x).unwrap(),
                    events: seq.last_events().to_vec(),
                    injections: seq.last_injections().to_vec(),
                })
                .collect();
            assert!(
                reference
                    .iter()
                    .flat_map(|c| &c.events)
                    .any(|e| matches!(e, HealthEvent::CorrectedFault { .. })),
                "{what}: the strike must be repaired"
            );
            for workers in [1usize, 2, 4, 8] {
                let mut pool = $pool::new(&engine, workers).unwrap();
                let mut got = Vec::new();
                for batch in inputs.chunks(BATCH) {
                    got.extend(pool.classify_batch(batch).unwrap());
                }
                for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(g, r, "{what}, {workers} workers: decision {i} diverged");
                }
                assert_eq!(got.len(), reference.len());
            }
        }
    }};
}

#[test]
fn f32_pool_fed_small_batches_after_a_strike_matches_sequential() {
    let mut engine = HardenedEngine::new(model(), config()).unwrap();
    engine.calibrate(&inputs()).unwrap();
    check_small_batches!(engine, HardenedPool, inputs(), strike_f32, "f32");
}

#[test]
fn q16_pool_fed_small_batches_after_a_strike_matches_sequential() {
    let qinputs: Vec<Vec<Q16_16>> = inputs()
        .iter()
        .map(|x| x.iter().map(|&v| Q16_16::from_f32(v)).collect())
        .collect();
    let qmodel = QModel::quantize(&model()).unwrap();
    let mut engine = HardenedQEngine::new(qmodel, config()).unwrap();
    engine.calibrate(&qinputs).unwrap();
    check_small_batches!(engine, HardenedQPool, qinputs, strike_q16, "Q16.16");
}
