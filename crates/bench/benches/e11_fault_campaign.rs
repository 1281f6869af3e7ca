//! Experiment E11: fault-injection campaigns over the hardened runtime.
//!
//! Sweeps the SEU-style fault classes through a hardened pipeline and
//! reports IEC 61508-style diagnostic coverage, silent-data-corruption
//! rate, detection latency, and time spent degraded — then times the
//! per-decision overhead the hardening layer costs.

use criterion::{criterion_group, criterion_main, Criterion};
use safex_bench::workload;
use safex_core::campaign::{self, CampaignConfig, CampaignPattern, FaultClass, InputSupervision};
use safex_nn::{Engine, HardenConfig, HardenedEngine};

fn inputs() -> Vec<Vec<f32>> {
    let (_, test, _, _) = workload();
    test.samples().iter().map(|s| s.input.clone()).collect()
}

fn print_table() {
    let (_, _, model, _) = workload();
    let stream = inputs();
    let config = CampaignConfig {
        seed: 0xE11,
        decisions: 400,
        classes: FaultClass::all().to_vec(),
        rates: vec![0.02, 0.10],
        patterns: vec![CampaignPattern::MonitorActuator],
        ..CampaignConfig::default()
    };
    let report = campaign::run(&config, model, &stream).expect("campaign");
    println!("\n=== E11: fault campaign (400 decisions/cell, monitor_actuator) ===");
    println!(
        "{:<22} {:>6} {:>8} {:>9} {:>8} {:>8} {:>9} {:>9}",
        "fault class", "rate", "faulted", "coverage", "SDC", "latency", "degraded", "stopped"
    );
    for cell in &report.cells {
        println!(
            "{:<22} {:>6.2} {:>8} {:>8.1}% {:>7.2}% {:>8} {:>9} {:>9}",
            cell.class.tag(),
            cell.rate,
            cell.faulted,
            cell.diagnostic_coverage() * 100.0,
            cell.sdc_rate() * 100.0,
            cell.detection_latency.map_or("-".into(), |l| l.to_string()),
            cell.time_degraded,
            cell.time_stopped,
        );
    }
    println!(
        "worst coverage {:.1}%, worst SDC {:.2}%",
        report.worst_coverage() * 100.0,
        report.worst_sdc() * 100.0
    );

    // Re-measure the in-range input-fault cells with the pillar-1 ODD
    // envelope screening every (faulted) input — the gap E11 originally
    // recorded came almost entirely from input faults the engine-level
    // diagnostics cannot see.
    let supervised_config = CampaignConfig {
        supervision: Some(InputSupervision::default()),
        classes: vec![
            FaultClass::InputNoise,
            FaultClass::InputStuck,
            FaultClass::InputDropout,
        ],
        ..config.clone()
    };
    let supervised = campaign::run(&supervised_config, model, &stream).expect("campaign");
    println!("\n=== E11b: input faults with ODD-envelope supervision ===");
    println!(
        "{:<22} {:>6} {:>8} {:>14} {:>14} {:>9} {:>9}",
        "fault class", "rate", "faulted", "coverage", "SDC", "latency", "alarms"
    );
    for cell in &supervised.cells {
        let baseline = report
            .cell(CampaignPattern::MonitorActuator, cell.class, cell.rate)
            .expect("baseline cell");
        println!(
            "{:<22} {:>6.2} {:>8} {:>5.1}% ({:>5.1}%) {:>6.2}% ({:>4.2}%) {:>9} {:>9}",
            cell.class.tag(),
            cell.rate,
            cell.faulted,
            cell.diagnostic_coverage() * 100.0,
            baseline.diagnostic_coverage() * 100.0,
            cell.sdc_rate() * 100.0,
            baseline.sdc_rate() * 100.0,
            cell.detection_latency.map_or("-".into(), |l| l.to_string()),
            cell.false_alarms,
        );
    }
    println!("(parenthesised figures: same cell without supervision)");

    // Diverse 2oo3: independent SEU streams strike both the f32 and the
    // Q16.16 hardened replicas; the voter masks single-channel upsets.
    let diverse_config = CampaignConfig {
        patterns: vec![CampaignPattern::DiverseTwoOutOfThree],
        classes: vec![FaultClass::WeightBitFlip, FaultClass::WeightMultiBitFlip],
        ..config.clone()
    };
    let diverse = campaign::run(&diverse_config, model, &stream).expect("campaign");
    println!("\n=== E11c: diverse 2oo3 (f32 + Q16.16 hardened replicas) ===");
    for cell in &diverse.cells {
        println!(
            "{:<22} rate {:>4.2}: faulted {:>3}, coverage {:>5.1}%, SDC {:>5.2}%, silent {}",
            cell.class.tag(),
            cell.rate,
            cell.faulted,
            cell.diagnostic_coverage() * 100.0,
            cell.sdc_rate() * 100.0,
            cell.silent,
        );
    }

    // Parallel campaign: byte-identical reports, wall-clock comparison.
    let par_config = CampaignConfig {
        decisions: 100,
        ..config
    };
    let t0 = std::time::Instant::now();
    let sequential = campaign::run(&par_config, model, &stream).expect("campaign");
    let seq_elapsed = t0.elapsed();
    println!("\ncampaign workers sweep (12 cells, 100 decisions/cell):");
    println!(
        "  workers=1  {:>10.1} ms (reference)",
        seq_elapsed.as_secs_f64() * 1e3
    );
    for workers in [2usize, 4, 8] {
        let cfg = CampaignConfig {
            workers,
            ..par_config.clone()
        };
        let t0 = std::time::Instant::now();
        let parallel = campaign::run(&cfg, model, &stream).expect("campaign");
        let elapsed = t0.elapsed();
        assert_eq!(parallel, sequential, "parallel campaign diverged");
        println!(
            "  workers={workers}  {:>10.1} ms (speedup {:.2}x, report byte-identical)",
            elapsed.as_secs_f64() * 1e3,
            seq_elapsed.as_secs_f64() / elapsed.as_secs_f64(),
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    print_table();
    let (_, _, model, _) = workload();
    let stream = inputs();

    // Per-decision cost of the hardening layer, by detection setting.
    let mut group = c.benchmark_group("e11_hardened_inference");
    group.sample_size(40);
    let mut plain = Engine::new(model.clone());
    group.bench_function("plain_engine", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let x = &stream[i % stream.len()];
            i += 1;
            std::hint::black_box(plain.classify(x).expect("classify"))
        })
    });
    for (name, cadence) in [
        ("crc_every_decision", 1u64),
        ("crc_cadence_8", 8),
        ("guards_only", 0),
    ] {
        let mut engine = HardenedEngine::new(
            model.clone(),
            HardenConfig {
                crc_cadence: cadence,
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

    // One full weight-flip campaign cell, end to end.
    let mut group = c.benchmark_group("e11_campaign_cell");
    group.sample_size(10);
    group.bench_function("weight_bit_flip_100_decisions", |b| {
        let config = CampaignConfig {
            seed: 0xE11,
            decisions: 100,
            classes: vec![FaultClass::WeightBitFlip],
            rates: vec![0.05],
            patterns: vec![CampaignPattern::MonitorActuator],
            ..CampaignConfig::default()
        };
        b.iter(|| std::hint::black_box(campaign::run(&config, model, &stream).expect("campaign")))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
