//! Differential oracles: the same input replayed through pinned pairs
//! of implementations that *promise* identical answers.
//!
//! Fuzzing a single implementation needs an explicit invariant; two
//! implementations of the same contract come with a free one —
//! agreement. Three pairs are pinned here, each an equivalence the
//! workspace already claims elsewhere (golden digests, bench sweeps):
//!
//! 1. A [`CrcStrategy::Rotating`] [`HardenedPool`] at worker counts
//!    {1, 2, 4, 8} — results (outputs *and* health events) must not
//!    depend on scheduling.
//! 2. Detect-only vs ECC-repaired engines on clean weights — the repair
//!    sidecar must be output-invisible until a fault actually fires.
//! 3. f32 vs Q16.16 engines — the class decision must agree wherever
//!    the f32 top-1/top-2 margin clears a quantization guard band.

use safex_nn::{
    CrcStrategy, EccConfig, Engine, HardenConfig, HardenedEngine, HardenedPool, QEngine, QModel,
};
use safex_tensor::DetRng;

use crate::gen;

/// One divergence between a pinned pair.
#[derive(Debug, Clone)]
pub struct DiffFinding {
    /// Which oracle pair diverged.
    pub oracle: String,
    /// Model/input seed that reproduces it.
    pub seed: u64,
    /// Input index within the batch.
    pub case: usize,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

fn engine_with(
    strategy: CrcStrategy,
    cadence: u64,
    repair: bool,
    seed: u64,
) -> (HardenedEngine, Vec<Vec<f32>>) {
    let (model, inputs) = gen::small_model(seed);
    let config = HardenConfig {
        crc_cadence: cadence,
        crc_strategy: strategy,
        repair: repair.then(EccConfig::default),
        ..HardenConfig::default()
    };
    let mut engine = HardenedEngine::new(model, config).expect("engine");
    engine.calibrate(&inputs).expect("calibrate");
    (engine, inputs)
}

fn fuzz_inputs(seed: u64, n: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = DetRng::new(seed ^ 0x5EED_1E55);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.next_f32() * 4.0 - 2.0).collect())
        .collect()
}

/// Rotating-CRC pool at worker counts {1, 2, 4, 8}: the batch report
/// must be independent of the worker count.
pub fn diff_pool_workers(seed: u64, cases: usize) -> (u64, Vec<DiffFinding>) {
    let mut findings = Vec::new();
    let (engine, _) = engine_with(CrcStrategy::Rotating, 2, false, seed);
    let inputs = fuzz_inputs(seed, cases, 6);
    let reference = HardenedPool::new(&engine, 1)
        .expect("pool")
        .classify_batch(&inputs)
        .expect("batch");
    for workers in [2usize, 4, 8] {
        let got = HardenedPool::new(&engine, workers)
            .expect("pool")
            .classify_batch(&inputs)
            .expect("batch");
        for (i, (a, b)) in reference.iter().zip(got.iter()).enumerate() {
            if a.classification != b.classification || a.events != b.events {
                findings.push(DiffFinding {
                    oracle: "pool-workers".into(),
                    seed,
                    case: i,
                    detail: format!(
                        "1 worker {:?} != {workers} workers {:?}",
                        a.classification, b.classification
                    ),
                });
            }
        }
    }
    (cases as u64 * 3, findings)
}

/// Detect-only vs ECC-repaired engines on clean weights.
pub fn diff_plain_vs_repaired(seed: u64, cases: usize) -> (u64, Vec<DiffFinding>) {
    let mut findings = Vec::new();
    let (mut plain, _) = engine_with(CrcStrategy::Full, 1, false, seed);
    let (mut repaired, _) = engine_with(CrcStrategy::Full, 1, true, seed);
    for (i, input) in fuzz_inputs(seed, cases, 6).iter().enumerate() {
        let a = plain.classify_indexed(i as u64, input).expect("plain");
        let b = repaired
            .classify_indexed(i as u64, input)
            .expect("repaired");
        if a != b {
            findings.push(DiffFinding {
                oracle: "plain-vs-ecc".into(),
                seed,
                case: i,
                detail: format!("plain {a:?} != ECC-repaired {b:?}"),
            });
        }
    }
    (cases as u64, findings)
}

/// f32 vs Q16.16 engines: agreement on the class whenever the f32
/// top-1/top-2 margin exceeds `guard` (softmax units).
pub fn diff_f32_vs_q16(seed: u64, cases: usize, guard: f32) -> (u64, Vec<DiffFinding>) {
    let mut findings = Vec::new();
    let (model, _) = gen::small_model(seed);
    let qmodel = QModel::quantize(&model).expect("quantize");
    let mut f32_engine = Engine::new(model);
    let mut q_engine = QEngine::new(qmodel);
    let mut counted = 0u64;
    for (i, input) in fuzz_inputs(seed, cases, 6).iter().enumerate() {
        let out = f32_engine.infer(input).expect("f32 infer").to_vec();
        let mut idx: Vec<usize> = (0..out.len()).collect();
        idx.sort_by(|&a, &b| out[b].partial_cmp(&out[a]).expect("finite softmax"));
        let margin = out[idx[0]] - out[idx[1]];
        if margin <= guard {
            continue; // genuinely ambiguous; quantization may flip it
        }
        counted += 1;
        let q = q_engine.classify_f32(input).expect("q16 classify");
        if q.class != idx[0] {
            findings.push(DiffFinding {
                oracle: "f32-vs-q16".into(),
                seed,
                case: i,
                detail: format!(
                    "f32 class {} (margin {margin:.3}) != Q16.16 class {}",
                    idx[0], q.class
                ),
            });
        }
    }
    (counted, findings)
}

/// Runs all three oracles across `rounds` model seeds; returns
/// `(cases, findings)`.
pub fn fuzz_diff(seed: u64, rounds: u64, cases_per_round: usize) -> (u64, Vec<DiffFinding>) {
    let mut total = 0u64;
    let mut findings = Vec::new();
    for r in 0..rounds {
        let s = seed.wrapping_add(r.wrapping_mul(0x2545_F491_4F6C_DD1D));
        for (cases, found) in [
            diff_pool_workers(s, cases_per_round),
            diff_plain_vs_repaired(s, cases_per_round),
            diff_f32_vs_q16(s, cases_per_round, 0.05),
        ] {
            total += cases;
            findings.extend(found);
        }
    }
    (total, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_pairs_agree() {
        let (cases, findings) = fuzz_diff(7, 2, 12);
        // Per round: 3 worker counts × 12 pool cases, 12 ECC cases, and
        // the f32/Q16.16 cases outside the guard band (not counted here).
        assert!(cases >= 2 * (3 * 12 + 12), "cases: {cases}");
        assert!(findings.is_empty(), "{findings:?}");
    }
}
