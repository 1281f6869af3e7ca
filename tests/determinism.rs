//! Experiment E5 support: determinism and reproducibility guarantees of
//! the DL library, measured across crates.

use safexplain::demo;
use safexplain::nn::{Engine, QEngine, QModel};
use safexplain::scenarios::automotive::{self, AutomotiveConfig};
use safexplain::tensor::fixed::Q16_16;
use safexplain::tensor::DetRng;

fn dataset(samples_per_class: usize, seed: u64) -> safexplain::scenarios::Dataset {
    automotive::generate(
        &AutomotiveConfig {
            samples_per_class,
            ..Default::default()
        },
        &mut DetRng::new(seed),
    )
    .expect("generate")
}

#[test]
fn float_inference_bit_identical_across_runs_and_engines() {
    let data = dataset(5, 1);
    let model = demo::convnet_for(&data, 9).expect("model");
    let mut e1 = Engine::new(model.clone());
    let mut e2 = Engine::new(model);
    for s in data.samples() {
        let a = e1.infer(&s.input).expect("infer").to_vec();
        for _ in 0..3 {
            assert_eq!(e1.infer(&s.input).expect("infer"), &a[..]);
        }
        assert_eq!(e2.infer(&s.input).expect("infer"), &a[..]);
    }
}

#[test]
fn training_reproducible_end_to_end() {
    // Same data + same seeds -> bit-identical model, bit-identical outputs.
    let d1 = dataset(10, 2);
    let d2 = dataset(10, 2);
    assert_eq!(d1, d2, "dataset generation must be reproducible");
    let m1 = demo::train_mlp(&d1, 10, 3).expect("train");
    let m2 = demo::train_mlp(&d2, 10, 3).expect("train");
    assert_eq!(m1.digest(), m2.digest(), "training must be reproducible");

    let mut e1 = Engine::new(m1);
    let mut e2 = Engine::new(m2);
    let probe = &d1.samples()[0].input;
    assert_eq!(
        e1.infer(probe).expect("infer"),
        e2.infer(probe).expect("infer")
    );
}

#[test]
fn quantised_engine_bit_exact_and_close_to_float() {
    let data = dataset(10, 4);
    let model = demo::train_mlp(&data, 15, 5).expect("train");
    let qmodel = QModel::quantize(&model).expect("quantize");
    let mut fe = Engine::new(model);
    let mut qe1 = QEngine::new(qmodel.clone());
    let mut qe2 = QEngine::new(qmodel);

    let mut agree = 0usize;
    let mut max_dev = 0.0f32;
    for s in data.samples() {
        let q: Vec<Q16_16> = s.input.iter().map(|&v| Q16_16::from_f32(v)).collect();
        let out1: Vec<Q16_16> = qe1.infer(&q).expect("infer").to_vec();
        let out2: Vec<Q16_16> = qe2.infer(&q).expect("infer").to_vec();
        assert_eq!(out1, out2, "quantised engines must agree bit-exactly");

        let fout = fe.infer(&s.input).expect("infer").to_vec();
        let fclass = argmax(&fout);
        let qclass = argmax(&out1.iter().map(|v| v.to_f32()).collect::<Vec<_>>());
        if fclass == qclass {
            agree += 1;
        }
        for (f, q) in fout.iter().zip(&out1) {
            max_dev = max_dev.max((f - q.to_f32()).abs());
        }
    }
    let rate = agree as f64 / data.len() as f64;
    assert!(rate >= 0.95, "float/quant class agreement {rate}");
    assert!(max_dev < 0.05, "max probability deviation {max_dev}");
}

#[test]
fn quantisation_accuracy_cost_is_small() {
    let mut rng = DetRng::new(6);
    let data = dataset(20, 6);
    let (train, test) = data.split(0.7, &mut rng).expect("split");
    let model = demo::train_mlp(&train, 30, 7).expect("train");
    let mut fe = Engine::new(model.clone());
    let facc = demo::accuracy(&mut fe, &test).expect("accuracy");

    let mut qe = QEngine::new(QModel::quantize(&model).expect("quantize"));
    let mut qcorrect = 0usize;
    for s in test.samples() {
        let q: Vec<Q16_16> = s.input.iter().map(|&v| Q16_16::from_f32(v)).collect();
        if qe.classify(&q).expect("classify").class == s.label {
            qcorrect += 1;
        }
    }
    let qacc = qcorrect as f64 / test.len() as f64;
    assert!(
        (facc - qacc).abs() <= 0.05,
        "quantisation accuracy cost too high: float {facc} vs quant {qacc}"
    );
}

#[test]
fn deterministic_platform_timing_is_constant() {
    use safexplain::platform::platform::{Platform, PlatformConfig};
    use safexplain::platform::TraceProgram;

    let data = dataset(2, 8);
    let model = demo::convnet_for(&data, 11).expect("model");
    let program = TraceProgram::from_model(&model, 256);
    let platform = Platform::new(PlatformConfig::deterministic()).expect("platform");
    let cycles = platform
        .measure(&program, 20, &mut DetRng::new(1))
        .expect("measure");
    assert!(
        cycles.windows(2).all(|w| w[0] == w[1]),
        "deterministic platform must have zero jitter: {cycles:?}"
    );
}

#[test]
fn explanation_deterministic_across_runs() {
    use safexplain::xai::saliency::{occlusion_saliency, OcclusionConfig};

    let data = dataset(3, 9);
    let model = demo::convnet_for(&data, 12).expect("model");
    let mut engine = Engine::new(model);
    let sample = &data.samples()[5];
    let a = occlusion_saliency(&mut engine, &sample.input, 0, &OcclusionConfig::default())
        .expect("saliency");
    let b = occlusion_saliency(&mut engine, &sample.input, 0, &OcclusionConfig::default())
        .expect("saliency");
    assert_eq!(a, b);
}

fn argmax(v: &[f32]) -> usize {
    let mut best = (0usize, f32::NEG_INFINITY);
    for (i, &x) in v.iter().enumerate() {
        if x > best.1 {
            best = (i, x);
        }
    }
    best.0
}

/// The pool determinism matrix: every worker count in {1, 2, 4, 8} must
/// produce byte-identical batch outputs for the float engine.
#[test]
fn float_pool_bit_identical_across_worker_counts() {
    use safexplain::nn::EnginePool;

    let data = dataset(10, 13);
    let model = demo::train_mlp(&data, 10, 3).expect("train");
    let inputs: Vec<Vec<f32>> = data.samples().iter().map(|s| s.input.clone()).collect();

    let mut reference = Engine::new(model.clone());
    let expected: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| reference.infer(x).expect("infer").to_vec())
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let mut pool = EnginePool::new(model.clone(), workers).expect("pool");
        let outputs = pool.infer_batch(&inputs).expect("batch");
        assert_eq!(
            outputs, expected,
            "float pool with {workers} workers diverged from sequential"
        );
        // Byte-identical, not merely numerically equal: compare raw bits.
        for (out, exp) in outputs.iter().zip(&expected) {
            let ob: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = exp.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ob, eb, "float bits diverged at {workers} workers");
        }
    }
}

/// Same matrix for the fixed-point engine: Q16.16 outputs are integers,
/// so equality is already bitwise.
#[test]
fn quant_pool_bit_identical_across_worker_counts() {
    use safexplain::nn::QEnginePool;

    let data = dataset(10, 14);
    let model = demo::train_mlp(&data, 10, 4).expect("train");
    let qmodel = QModel::quantize(&model).expect("quantize");
    let inputs: Vec<Vec<Q16_16>> = data
        .samples()
        .iter()
        .map(|s| s.input.iter().map(|&v| Q16_16::from_f32(v)).collect())
        .collect();

    let mut reference = QEngine::new(qmodel.clone());
    let expected: Vec<Vec<Q16_16>> = inputs
        .iter()
        .map(|x| reference.infer(x).expect("infer").to_vec())
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let mut pool = QEnginePool::new(qmodel.clone(), workers).expect("pool");
        let outputs = pool.infer_batch(&inputs).expect("batch");
        assert_eq!(
            outputs, expected,
            "quant pool with {workers} workers diverged from sequential"
        );
    }
}

/// Pooled classification agrees with pooled inference for every worker
/// count (same argmax over the same bit-identical outputs).
#[test]
fn pool_classification_matrix_consistent() {
    use safexplain::nn::EnginePool;

    let data = dataset(8, 15);
    let model = demo::train_mlp(&data, 10, 5).expect("train");
    let inputs: Vec<Vec<f32>> = data.samples().iter().map(|s| s.input.clone()).collect();

    let mut reference = Engine::new(model.clone());
    let expected: Vec<usize> = inputs
        .iter()
        .map(|x| reference.classify(x).expect("classify").class)
        .collect();

    for workers in [1usize, 2, 4, 8] {
        let mut pool = EnginePool::new(model.clone(), workers).expect("pool");
        let classes: Vec<usize> = pool
            .classify_batch(&inputs)
            .expect("classify")
            .into_iter()
            .map(|c| c.class)
            .collect();
        assert_eq!(classes, expected, "classes diverged at {workers} workers");
    }
}

/// Pool replicas persist across batches, so their state must stay in
/// lockstep: one pool fed several consecutive batches, with a weight
/// strike on every replica between two of them, must match a sequential
/// engine struck at the same decision, for every worker count, for the
/// float pool (CRC every second decision, ECC repair) and the Q16.16
/// pool.
#[test]
fn pool_matrix_holds_across_consecutive_batches_and_strikes() {
    use safexplain::nn::{
        apply_weight_flips, CheckedClassification, EccConfig, FaultInjector, HardenConfig,
        HardenedEngine, HardenedPool, HardenedQEngine, HardenedQPool, HealthEvent,
    };

    let data = dataset(10, 18);
    let model = demo::train_mlp(&data, 10, 8).expect("train");
    let inputs: Vec<Vec<f32>> = data.samples().iter().map(|s| s.input.clone()).collect();
    // Uneven batches: some smaller than the pool, some larger.
    let bounds = [0, 5, 6, 13, 16, inputs.len()];
    let strike_at = 13;
    let flips = FaultInjector::new(0xBAD5EED)
        .flip_weight_bits(&mut model.clone(), 1, 1)
        .expect("draw strike");
    let harden = HardenConfig {
        crc_cadence: 2,
        repair: Some(EccConfig::default()),
        ..HardenConfig::default()
    };
    let mut engine = HardenedEngine::new(model.clone(), harden).expect("harden");
    engine.calibrate(&inputs).expect("calibrate");

    let mut seq = engine.clone();
    let mut expected = Vec::new();
    for (i, x) in inputs.iter().enumerate() {
        if i == strike_at {
            apply_weight_flips(seq.model_mut(), &flips).expect("strike");
        }
        let classification = seq.classify_indexed(i as u64, x).expect("classify");
        expected.push(CheckedClassification {
            classification,
            events: seq.last_events().to_vec(),
            injections: seq.last_injections().to_vec(),
        });
    }
    assert!(
        expected
            .iter()
            .flat_map(|c| &c.events)
            .any(|e| matches!(e, HealthEvent::CorrectedFault { .. })),
        "the strike must be seen and repaired"
    );
    for workers in [1usize, 2, 4, 8] {
        let mut pool = HardenedPool::new(&engine, workers).expect("pool");
        let mut got = Vec::new();
        for span in bounds.windows(2) {
            if span[0] == strike_at {
                for replica in pool.engines_mut() {
                    apply_weight_flips(replica.model_mut(), &flips).expect("strike");
                }
            }
            got.extend(
                pool.classify_batch(&inputs[span[0]..span[1]])
                    .expect("batch"),
            );
        }
        assert_eq!(
            format!("{got:?}"),
            format!("{expected:?}"),
            "float pool diverged at {workers} workers"
        );
    }

    let qmodel = QModel::quantize(&model).expect("quantize");
    let qinputs: Vec<Vec<Q16_16>> = inputs
        .iter()
        .map(|x| x.iter().map(|&v| Q16_16::from_f32(v)).collect())
        .collect();
    let mut qengine = HardenedQEngine::new(qmodel, HardenConfig::default()).expect("harden");
    qengine.calibrate(&qinputs).expect("calibrate");
    let mut qseq = qengine.clone();
    let qexpected: Vec<_> = qinputs
        .iter()
        .enumerate()
        .map(|(i, x)| qseq.classify_indexed(i as u64, x).expect("classify"))
        .collect();
    for workers in [1usize, 2, 4, 8] {
        let mut pool = HardenedQPool::new(&qengine, workers).expect("pool");
        let mut got = Vec::new();
        for span in bounds.windows(2) {
            let batch = pool
                .classify_batch(&qinputs[span[0]..span[1]])
                .expect("batch");
            got.extend(batch.into_iter().map(|c| c.classification));
        }
        assert_eq!(got, qexpected, "quant pool diverged at {workers} workers");
    }
}

/// `SafePipeline::decide_batch` must append evidence records in input
/// order, and its decisions must match one-at-a-time `decide` calls.
#[test]
fn pipeline_batch_evidence_preserves_input_order() {
    use safexplain::core::pipeline::PipelineBuilder;
    use safexplain::patterns::channel::RuleChannel;
    use safexplain::patterns::pattern::Bare;
    use safexplain::patterns::Sil;
    use safexplain::trace::record::Value;

    // A rule channel whose class equals the integer in the input, so the
    // expected evidence sequence is readable from the batch itself.
    let build = || {
        PipelineBuilder::new("order", Sil::Sil1)
            .pattern(Bare::new(RuleChannel::new("id", |x: &[f32]| x[0] as usize)))
            .allow_under_provisioned()
            .evidence("order-campaign")
            .build()
            .expect("build")
    };
    let inputs: Vec<Vec<f32>> = vec![
        vec![3.0],
        vec![0.0],
        vec![2.0],
        vec![5.0],
        vec![1.0],
        vec![4.0],
    ];

    let mut batched = build();
    let decisions = batched.decide_batch(&inputs).expect("batch");
    assert_eq!(decisions.len(), inputs.len());
    assert_eq!(batched.decision_count(), inputs.len() as u64);

    let mut sequential = build();
    for (input, batched_decision) in inputs.iter().zip(&decisions) {
        let d = sequential.decide(input).expect("decide");
        assert_eq!(d, *batched_decision, "batch must equal per-input decide");
    }

    // Evidence records land in input order with the matching class.
    let chain = batched.evidence().expect("chain");
    assert_eq!(chain.len(), inputs.len());
    for (record, input) in chain.records().iter().zip(&inputs) {
        assert_eq!(
            record.field("class"),
            Some(&Value::U64(input[0] as u64)),
            "evidence record out of input order"
        );
    }
    batched.verify_evidence().expect("verify");
}
