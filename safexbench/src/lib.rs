#![forbid(unsafe_code)]
//! # safexbench
//!
//! The serve-path benchmark: four seeded open-loop workloads replayed
//! through `Server::run_soak_with` on the real runtime, timed end to end
//! and split per layer from outside the program.
//!
//! * [`workload`] — the four traffic mixes and their shared set-up
//!   (dataset, training, calibration, pristine labels, trace).
//! * [`observe`] — observation-only instruments: a recording clock and
//!   timed wrappers over the public `Backend` and `RoutingPolicy` traits.
//! * [`mintick`] — the real-time model behind `min_tick_us`.
//! * [`bench`] — reps, the correctness gate, metrics and layer probes.
//! * [`manifest`] — the provenance stamped on every output.
//!
//! `README.md` lists every metric, its unit and bound, and which
//! end-to-end metric each layer metric should move on which workload.

pub mod bench;
pub mod manifest;
pub mod mintick;
pub mod observe;
pub mod workload;

pub use bench::{run, Metric, Options, Report};
pub use workload::{Setup, Workload};

/// Nearest-rank percentile of an ascending slice, `p` in `0..=100`; NaN
/// for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}
