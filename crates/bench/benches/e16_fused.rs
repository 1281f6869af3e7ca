//! Experiment E16: the hardening tax and batch-major arenas.
//!
//! Measures what per-decision CRC verification costs over the bare
//! engine (`full_every_decision`, the `scripts/bench.sh` perf gate) and
//! where the batch-major activation arena puts the batch=16 per-request
//! cost relative to batch=1. The group keeps its historical `e16_fused`
//! id so BENCH files stay comparable; the fused verify-on-read strategy
//! it was named after has been deleted.

use criterion::{criterion_group, criterion_main, Criterion};
use safex_bench::workload;
use safex_nn::{Engine, HardenConfig, HardenedEngine};

fn inputs() -> Vec<Vec<f32>> {
    let (_, test, _, _) = workload();
    test.samples().iter().map(|s| s.input.clone()).collect()
}

fn hardened(stream: &[Vec<f32>]) -> HardenedEngine {
    let (_, _, model, _) = workload();
    let mut engine = HardenedEngine::new(model.clone(), HardenConfig::default()).expect("harden");
    engine.calibrate(stream).expect("calibrate");
    engine
}

fn bench(c: &mut Criterion) {
    let (_, _, model, _) = workload();
    let stream = inputs();

    // Per-decision hardened inference cost against the bare engine.
    let mut group = c.benchmark_group("e16_fused");
    group.sample_size(40);
    let mut plain = Engine::new(model.clone());
    group.bench_function("bare_engine", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let x = &stream[i % stream.len()];
            i += 1;
            std::hint::black_box(plain.classify(x).expect("classify"))
        })
    });
    let mut engine = hardened(&stream);
    group.bench_function("full_every_decision", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let x = &stream[i % stream.len()];
            i += 1;
            std::hint::black_box(engine.classify(x).expect("classify"))
        })
    });

    // Batch-major arena: 16 requests served one at a time vs as one
    // batch through the ping-pong slab (same engine, same answers —
    // the arena amortises allocation and streams each dense weight row
    // once per batch instead of once per item).
    let batch: Vec<&[f32]> = stream.iter().take(16).map(Vec::as_slice).collect();
    let mut single = Engine::new(model.clone());
    group.bench_function("requests16_batch1", |b| {
        b.iter(|| {
            for x in &batch {
                std::hint::black_box(single.classify(x).expect("classify"));
            }
        })
    });
    let mut batched = Engine::new(model.clone());
    // Warm the arena once so steady-state cost is measured, matching a
    // serving loop that reuses the engine across batches.
    batched.classify_batch(&batch).expect("classify");
    group.bench_function("requests16_batch16", |b| {
        b.iter(|| std::hint::black_box(batched.classify_batch(&batch).expect("classify")))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
