//! Golden snapshot: the campaign report is byte-identical for any
//! worker count, with and without ECC repair —
//! and its canonical digest is pinned so a refactor cannot silently
//! shift the measured numbers.

use safex_core::campaign::{run, CampaignConfig, CampaignPattern, FaultClass};
use safex_core::health::HealthConfig;
use safex_core::CampaignReport;
use safex_nn::model::ModelBuilder;
use safex_nn::{EccConfig, HardenConfig, Model};
use safex_tensor::{DetRng, Shape};

fn fixture() -> (Model, Vec<Vec<f32>>) {
    let mut rng = DetRng::new(77);
    let model = ModelBuilder::new(Shape::vector(8))
        .dense(12, &mut rng)
        .unwrap()
        .relu()
        .dense(4, &mut rng)
        .unwrap()
        .softmax()
        .build()
        .unwrap();
    let inputs: Vec<Vec<f32>> = (0..32)
        .map(|_| (0..8).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
        .collect();
    (model, inputs)
}

fn config(repair: bool, workers: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 9,
        decisions: 120,
        classes: vec![FaultClass::WeightBitFlip, FaultClass::InputNoise],
        rates: vec![0.1],
        patterns: vec![CampaignPattern::MonitorActuator],
        harden: HardenConfig {
            repair: repair.then(EccConfig::default),
            ..HardenConfig::default()
        },
        health: HealthConfig {
            resume_after: 8,
            ..HealthConfig::default()
        },
        supervision: None,
        workers,
    }
}

/// FNV-1a over a canonical little-endian encoding of every report field;
/// floats hash by bit pattern so the digest is exact, not approximate.
fn digest(report: &CampaignReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&report.seed.to_le_bytes());
    for cell in &report.cells {
        eat(cell.pattern.as_bytes());
        eat(cell.class.tag().as_bytes());
        eat(&cell.rate.to_bits().to_le_bytes());
        eat(&cell.decisions.to_le_bytes());
        eat(&cell.faulted.to_le_bytes());
        eat(&cell.detected.to_le_bytes());
        eat(&cell.corrected.to_le_bytes());
        eat(&cell.corrupted.to_le_bytes());
        eat(&cell.silent.to_le_bytes());
        eat(&cell.false_alarms.to_le_bytes());
        eat(&cell.detection_latency.unwrap_or(u64::MAX).to_le_bytes());
        eat(&(cell.transitions as u64).to_le_bytes());
        eat(&cell.time_degraded.to_le_bytes());
        eat(&cell.time_stopped.to_le_bytes());
        eat(&cell.crc_staleness_bound.unwrap_or(u64::MAX).to_le_bytes());
        eat(&cell.repair_latency.unwrap_or(u64::MAX).to_le_bytes());
        eat(&cell.sidecar_overhead_pct.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn campaign_report_is_byte_identical_across_workers_and_pinned() {
    let (model, inputs) = fixture();
    // Golden digests, one without and one with ECC repair, computed from
    // the sequential reference run. These pin the measured campaign
    // numbers: any behavioural drift in injection, detection, repair, or
    // accounting shows up as a digest mismatch here.
    let golden: [(bool, u64); 2] = [
        (false, 0xba02_e9c6_c661_7f2a),
        (true, 0xc04a_974e_e1f8_eda0),
    ];
    for (repair, pinned) in golden {
        let reference = run(&config(repair, 1), &model, &inputs).unwrap();
        assert_eq!(
            digest(&reference),
            pinned,
            "golden digest drifted for repair={repair}: \
             got {:#018x}",
            digest(&reference)
        );
        for workers in [2usize, 4, 8] {
            let parallel = run(&config(repair, workers), &model, &inputs).unwrap();
            assert_eq!(
                parallel, reference,
                "{workers}-worker report diverged from sequential \
                 (repair={repair})"
            );
            assert_eq!(digest(&parallel), pinned);
        }
    }
}
