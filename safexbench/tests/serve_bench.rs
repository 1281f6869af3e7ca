//! The benchmark's own guarantees: its instruments only observe, every
//! metric `BENCHMARK.json` names is emitted, the correctness gate bites,
//! and the `min_tick_us` model agrees with a real `WallClock`.

use std::collections::HashSet;
use std::time::Duration;

use safex_serve::{Outcome, PoolBackend, Server, SimClock, WallClock};
use safex_tensor::DetRng;
use safexbench::bench::{answers, fingerprint, gate, plain_rep, series, serve, traced_rep};
use safexbench::mintick::{Answer, TickSeries};
use safexbench::{run, Options, Setup, Workload};

const SEED: u64 = 0x5AFE;

#[test]
fn wrapped_traced_rep_replays_the_unwrapped_run() {
    for workload in Workload::ALL {
        let setup = Setup::build(workload, SEED, 256).unwrap();
        let mut server =
            Server::new(setup.config.clone(), setup.fleet(|_, pool| pool).unwrap()).unwrap();
        let plan = setup.plan(PoolBackend::new(&setup.engine, 2).unwrap());
        let bare = server
            .run_soak_with(
                &setup.trace,
                plan,
                &mut SimClock,
                setup.strikes::<PoolBackend>(),
            )
            .unwrap();

        let (traced, recorder) = traced_rep(&setup, SimClock).unwrap();
        let name = workload.name();
        assert_eq!(
            fingerprint(&traced.outcome),
            fingerprint(&bare),
            "{name}: the wrappers changed the replay digest or evidence head"
        );
        assert_eq!(
            traced.server.config_digest(),
            server.config_digest(),
            "{name}"
        );

        // Every computed answer is attributed to a recorded batch.
        let recorder = recorder.borrow();
        assert_eq!(recorder.unidentified, 0, "{name}");
        let batched: HashSet<u64> = recorder
            .batches
            .iter()
            .flat_map(|b| b.requests.iter().copied())
            .collect();
        for r in &traced.outcome.report.responses {
            if let Outcome::Completed { cached: false, .. } = r.outcome {
                assert!(
                    batched.contains(&r.id),
                    "{name}: request {} in no batch",
                    r.id
                );
            }
        }
    }
}

/// The metric names `BENCHMARK.json` lists in `section`.
fn listed(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let body = &text[text.find(&format!("\"{section}\"")).unwrap()..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\":")
        .skip(1)
        .map(|entry| {
            entry.trim_start()[1..]
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn every_listed_metric_is_emitted_and_finite() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in Workload::ALL {
        let opts = Options {
            seconds: 0.0,
            trace: true,
            requests: 1024,
            warmup: 1,
            min_reps: 1,
            setup_runs: 1,
            ..Options::new(workload, SEED)
        };
        let report = run(&opts).unwrap();
        let name = workload.name();
        assert!(report.correct(), "{name}: {:?}", report.errors);
        assert_eq!((report.reps, report.failed), (1, 0), "{name}");
        for (wanted, emitted) in [
            (&end_to_end, &report.end_to_end),
            (&per_layer, &report.per_layer),
        ] {
            let names: Vec<&str> = emitted.iter().map(|m| m.name).collect();
            assert_eq!(names.len(), wanted.len(), "{name}: {names:?}");
            for metric in wanted {
                let m = emitted
                    .iter()
                    .find(|m| m.name == metric)
                    .unwrap_or_else(|| panic!("{name}: {metric} not emitted"));
                assert!(m.value.is_finite(), "{name}: {metric} = {}", m.value);
            }
        }
    }
}

#[test]
fn gate_rejects_a_wrong_answer_and_a_lost_response() {
    let setup = Setup::build(Workload::CacheHot, SEED, 256).unwrap();
    let mut served = plain_rep(&setup).unwrap();
    assert_eq!(gate(&setup, &served), Vec::<String>::new());

    let responses = &mut served.outcome.report.responses;
    let Outcome::Completed { class, .. } = &mut responses[7].outcome else {
        panic!("request 7 completes on cache_hot");
    };
    *class = (*class + 1) % 4;
    let errors = gate(&setup, &served);
    assert!(
        errors.iter().any(|e| e.contains("silent corruption")),
        "{errors:?}"
    );

    served.outcome.report.responses.pop();
    let errors = gate(&setup, &served);
    assert!(
        errors.iter().any(|e| e.contains("exactly one response")),
        "{errors:?}"
    );
}

#[test]
fn hand_built_series_gives_the_known_tick() {
    // Passes at ticks 0 and 10, 30 ns each. Answer a resolves at tick 10
    // with deadline 12: at D >= 3 the second pass starts on time, so it
    // needs 30 <= 2·D, i.e. D = 15. Answer b resolves at tick 0 with
    // deadline 1: it needs 30 <= 1·D.
    let series = TickSeries::new(vec![0, 10], vec![30.0, 30.0]);
    let a = Answer {
        resolved: 10,
        deadline: 12,
    };
    let b = Answer {
        resolved: 0,
        deadline: 1,
    };
    let d = series.min_tick_ns(&[a], 1).unwrap();
    assert!((d - 15.0).abs() < 1e-3, "{d}");
    let d = series.min_tick_ns(&[a, b], 2).unwrap();
    assert!((d - 30.0).abs() < 1e-3, "{d}");
    let d = series.min_tick_ns(&[a, b], 1).unwrap();
    assert!((d - 15.0).abs() < 1e-3, "{d}");
    // Resolved exactly at the deadline: no tick duration is enough.
    let late = Answer {
        resolved: 10,
        deadline: 10,
    };
    assert_eq!(series.min_tick_ns(&[late], 1), None);
}

#[test]
fn met_count_is_monotone_in_the_tick_duration() {
    let mut rng = DetRng::new(11);
    let mut tick = 0u64;
    let mut ticks = Vec::new();
    let mut durations = Vec::new();
    for _ in 0..500 {
        tick += rng.below(4);
        ticks.push(tick);
        durations.push(1.0 + rng.below(1000) as f64);
    }
    let answers: Vec<Answer> = (0..300)
        .map(|_| {
            let resolved = ticks[rng.below_usize(ticks.len())];
            Answer {
                resolved,
                deadline: resolved + rng.below(50),
            }
        })
        .collect();
    let series = TickSeries::new(ticks, durations);
    let mut last = 0;
    let mut d = 1.0;
    while d < 1e6 {
        let met = series.met(&answers, d);
        assert!(met >= last, "met fell from {last} to {met} at D = {d}");
        last = met;
        d *= 1.1;
    }
}

#[test]
fn wall_clock_meets_every_deadline_the_model_predicts() {
    let setup = Setup::build(Workload::CacheHot, SEED, 256).unwrap();
    let sim = plain_rep(&setup).unwrap();
    let answers = answers(&setup, &sim.outcome.report);
    let predicted = series(&sim.clock)
        .min_tick_ns(&answers, answers.len())
        .unwrap();
    // Margin for a colder, sleeping loop and timer slack on wake-up.
    let d = (4.0 * predicted).max(50_000.0);

    let server = Server::new(setup.config.clone(), setup.fleet(|_, pool| pool).unwrap()).unwrap();
    let plan = setup.plan(PoolBackend::new(&setup.engine, 2).unwrap());
    let wall = serve(
        &setup,
        server,
        plan,
        WallClock::new(Duration::from_nanos(d as u64)),
        |_| {},
    )
    .unwrap();
    assert_eq!(fingerprint(&wall.outcome), fingerprint(&sim.outcome));

    let clock = &wall.clock;
    // The run started before the wall clock anchored its tick axis, so
    // timing from it is conservative.
    let anchor = wall.run.start;
    let t0 = clock.ticks()[0];
    let span = (clock.ticks().last().unwrap() - t0) as f64 * d;
    assert!(wall.run.ns() >= span, "the wall clock did not pace the run");
    for a in &answers {
        let pass = clock.ticks().partition_point(|&t| t <= a.resolved) - 1;
        let done = clock.ends()[pass].duration_since(anchor).as_nanos() as f64;
        let due = (a.deadline - t0) as f64 * d;
        assert!(
            done <= due,
            "answer at tick {} done {done} ns after the anchor, due {due} ns (D = {d} ns)",
            a.resolved
        );
    }
}
