//! Experiment E13: detect-and-correct weight memory.
//!
//! Re-runs the single-bit weight-SEU campaign with the ECC sidecar
//! enabled and prints the with/without-repair comparison: diagnostic
//! coverage, silent-data-corruption rate, in-place corrections, repair
//! latency, time spent outside Nominal, and the sidecar memory cost —
//! then times the per-decision overhead repair adds on the clean path.

use criterion::{criterion_group, criterion_main, Criterion};
use safex_bench::workload;
use safex_core::campaign::{self, CampaignConfig, CampaignPattern, FaultClass};
use safex_core::health::HealthConfig;
use safex_nn::{EccConfig, HardenConfig, HardenedEngine};

fn inputs() -> Vec<Vec<f32>> {
    let (_, test, _, _) = workload();
    test.samples().iter().map(|s| s.input.clone()).collect()
}

fn campaign_config(repair: bool) -> CampaignConfig {
    CampaignConfig {
        seed: 0xE13,
        decisions: 400,
        classes: vec![FaultClass::WeightBitFlip, FaultClass::WeightMultiBitFlip],
        rates: vec![0.05, 0.15],
        patterns: vec![CampaignPattern::MonitorActuator],
        harden: HardenConfig {
            repair: repair.then(EccConfig::default),
            ..HardenConfig::default()
        },
        health: HealthConfig {
            // Budget sized to the window: corrected faults are warnings
            // and never walk the ladder; uncorrectable damage still does.
            warn_budget: 8,
            resume_after: 8,
            ..HealthConfig::default()
        },
        ..CampaignConfig::default()
    }
}

fn print_table() {
    let (_, _, model, _) = workload();
    let stream = inputs();
    let baseline = campaign::run(&campaign_config(false), model, &stream).expect("campaign");
    let repaired = campaign::run(&campaign_config(true), model, &stream).expect("campaign");

    println!("\n=== E13: weight-SEU campaign, detect-only vs detect-and-correct ===");
    println!(
        "{:<22} {:>6} {:>7} {:<9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "fault class",
        "rate",
        "mode",
        "faulted",
        "coverage",
        "SDC",
        "corrected",
        "rep.lat",
        "degraded",
        "stopped"
    );
    for (mode, report) in [("detect", &baseline), ("repair", &repaired)] {
        for cell in &report.cells {
            println!(
                "{:<22} {:>6.2} {:>7} {:<9} {:>7.1}% {:>8.2}% {:>9} {:>9} {:>9} {:>9}",
                cell.class.tag(),
                cell.rate,
                mode,
                cell.faulted,
                cell.diagnostic_coverage() * 100.0,
                cell.sdc_rate() * 100.0,
                cell.corrected,
                cell.repair_latency.map_or("-".into(), |l| l.to_string()),
                cell.time_degraded,
                cell.time_stopped,
            );
        }
    }
    let overhead = repaired
        .cells
        .first()
        .map_or(0.0, |c| c.sidecar_overhead_pct);
    println!(
        "sidecar memory overhead {overhead:.2}% of protected parameter bits \
         (block = {} words)",
        EccConfig::default().block_words
    );
    // The headline claim: with repair on, single-bit weight SEUs cause
    // zero silent corruption AND zero time outside Nominal.
    for cell in &repaired.cells {
        if cell.class == FaultClass::WeightBitFlip {
            assert_eq!(
                cell.silent, 0,
                "repair must not introduce silent corruption"
            );
            assert_eq!(cell.corrected, cell.faulted, "every single-bit SEU repairs");
            assert_eq!(cell.time_degraded, 0, "corrected faults must not degrade");
            assert_eq!(cell.time_stopped, 0, "corrected faults must not stop");
        }
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_table();
    let (_, _, model, _) = workload();
    let stream = inputs();

    // Clean-path cost of carrying the sidecar: same CRC settings, repair
    // off vs on. No faults are injected, so the delta is pure
    // bookkeeping (sidecar residency + catch-up accounting).
    let mut group = c.benchmark_group("e13_repair_overhead");
    group.sample_size(40);
    for (name, repair) in [("detect_only", false), ("detect_and_correct", true)] {
        let mut engine = HardenedEngine::new(
            model.clone(),
            HardenConfig {
                crc_cadence: 1,
                repair: repair.then(EccConfig::default),
                ..HardenConfig::default()
            },
        )
        .expect("harden");
        engine.calibrate(&stream).expect("calibrate");
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let x = &stream[i % stream.len()];
                i += 1;
                std::hint::black_box(engine.classify(x).expect("classify"))
            })
        });
    }
    group.finish();

    // One full repair campaign cell, end to end.
    let mut group = c.benchmark_group("e13_repair_cell");
    group.sample_size(10);
    group.bench_function("weight_bit_flip_100_decisions_with_repair", |b| {
        let config = CampaignConfig {
            decisions: 100,
            classes: vec![FaultClass::WeightBitFlip],
            rates: vec![0.05],
            ..campaign_config(true)
        };
        b.iter(|| std::hint::black_box(campaign::run(&config, model, &stream).expect("campaign")))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
