//! End-to-end serving-runtime tests: deterministic replay, typed
//! shedding order, deadline semantics, and the health-gated degradation
//! walk under mid-traffic weight strikes.
//!
//! These tests run the single-model shape (`Fleet::single`) — the
//! pre-fleet deployment the fleet redesign had to keep working. The
//! fleet-specific behaviours (routing, per-model ladders, cache,
//! fairness) live in `tests/fleet.rs`.

use safex_core::health::{HealthConfig, HealthState};
use safex_nn::model::ModelBuilder;
use safex_nn::{Engine, HardenConfig, HardenedEngine, Model};
use safex_serve::{
    Arrival, ArrivalTrace, BatchPolicy, Fleet, ModelId, Outcome, PoolBackend, Request, Server,
    ServerConfig, ShedReason, Tier, TrafficConfig,
};
use safex_tensor::{DetRng, Shape};

fn fixture() -> (Model, Vec<Vec<f32>>) {
    let mut rng = DetRng::new(0x5E4E);
    let model = ModelBuilder::new(Shape::vector(6))
        .dense(10, &mut rng)
        .unwrap()
        .relu()
        .dense(4, &mut rng)
        .unwrap()
        .softmax()
        .build()
        .unwrap();
    let inputs: Vec<Vec<f32>> = (0..24)
        .map(|_| (0..6).map(|_| rng.next_f32()).collect())
        .collect();
    (model, inputs)
}

fn hardened(model: &Model, inputs: &[Vec<f32>]) -> HardenedEngine {
    let mut engine = HardenedEngine::new(model.clone(), HardenConfig::default()).unwrap();
    engine.calibrate(inputs).unwrap();
    engine
}

fn strike_health() -> HealthConfig {
    HealthConfig {
        window: 8,
        degrade_events: 2,
        stop_events: 6,
        recover_after: 16,
        resume_after: 0,
        warn_budget: 3,
    }
}

#[test]
fn replay_is_byte_identical_for_any_worker_count() {
    let (model, inputs) = fixture();
    let engine = hardened(&model, &inputs);
    let trace = TrafficConfig {
        seed: 0xABCD,
        requests: 200,
        mean_interarrival: 3.0,
        deadline: 400,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();

    let mut reference_json = None;
    for workers in [1usize, 2, 4, 8] {
        let backend = PoolBackend::new(&engine, workers).unwrap();
        let mut server = Server::new(ServerConfig::default(), Fleet::single(backend)).unwrap();
        let report = server.run_trace(&trace).unwrap();
        let json = report.to_json().to_string_compact();
        match &reference_json {
            None => reference_json = Some((report, json)),
            Some((ref_report, ref_json)) => {
                assert_eq!(
                    &report, ref_report,
                    "{workers} workers diverged from 1 worker"
                );
                assert_eq!(&json, ref_json, "{workers}-worker JSON diverged");
            }
        }
    }
    // And a plain rerun reproduces the artefact byte for byte.
    let backend = PoolBackend::new(&engine, 4).unwrap();
    let mut server = Server::new(ServerConfig::default(), Fleet::single(backend)).unwrap();
    let again = server
        .run_trace(&trace)
        .unwrap()
        .to_json()
        .to_string_compact();
    assert_eq!(again, reference_json.unwrap().1);
}

#[test]
fn overload_sheds_strictly_lowest_criticality_first() {
    let (model, inputs) = fixture();
    let engine = hardened(&model, &inputs);
    // A burst far beyond queue capacity: low/medium flood, then high
    // arrivals landing on the full queue.
    let mut arrivals = Vec::new();
    for i in 0..24u64 {
        let tier = match i % 4 {
            0 | 1 => Tier::Low,
            2 => Tier::Medium,
            _ => Tier::High,
        };
        arrivals.push(Arrival {
            at: 1 + i / 8,
            request: Request::new(i, inputs[i as usize % inputs.len()].clone(), tier, 5_000),
        });
    }
    let trace = ArrivalTrace::from_arrivals(arrivals).unwrap();
    let config = ServerConfig::default().with_policy(
        BatchPolicy::default()
            .with_max_batch(4)
            .with_queue_cap(8)
            .with_flush_slack(10)
            .with_max_linger(10_000),
    );
    let backend = PoolBackend::new(&engine, 2).unwrap();
    let mut server = Server::new(config, Fleet::single(backend)).unwrap();
    let report = server.run_trace(&trace).unwrap();

    let shed: Vec<_> = report
        .responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Shed(_)))
        .collect();
    assert!(!shed.is_empty(), "this burst must overload the queue");
    // Strict criticality order: High is never sacrificed (Low and
    // Medium victims exist throughout the burst), and Low bears the
    // brunt — a Medium is only shed once the queue holds no Low.
    assert!(
        shed.iter().all(|r| r.tier != Tier::High),
        "high-criticality work must never be shed in this mix"
    );
    let low_shed = shed.iter().filter(|r| r.tier == Tier::Low).count();
    let medium_shed = shed.iter().filter(|r| r.tier == Tier::Medium).count();
    assert!(
        low_shed >= medium_shed,
        "low tiers must bear the brunt: {low_shed} low vs {medium_shed} medium"
    );
    assert!(low_shed > 0, "the flood must sacrifice best-effort work");
    for r in &report.responses {
        if r.tier == Tier::High {
            assert!(
                matches!(r.outcome, Outcome::Completed { .. }),
                "high-criticality request {} not served: {:?}",
                r.id,
                r.outcome
            );
        }
    }
    // Displacements name their displacer, and it always outranks the
    // victim.
    for r in &shed {
        if let Outcome::Shed(ShedReason::Displaced { by }) = r.outcome {
            let displacer = &report.responses[by as usize];
            assert!(
                displacer.tier > r.tier,
                "displacer {} must outrank victim {}",
                by,
                r.id
            );
        }
    }
}

#[test]
fn expired_deadlines_produce_timeouts_never_stale_responses() {
    let (model, inputs) = fixture();
    let engine = hardened(&model, &inputs);
    // Deadlines tighter than one batch's service time: with
    // `batch_overhead + per_item` at the defaults (8 + 4), a deadline 5
    // ticks after arrival can never be met.
    let arrivals: Vec<Arrival> = (0..12u64)
        .map(|i| Arrival {
            at: 1 + i,
            request: Request::new(
                i,
                inputs[i as usize % inputs.len()].clone(),
                Tier::High,
                1 + i + 5,
            ),
        })
        .collect();
    let trace = ArrivalTrace::from_arrivals(arrivals).unwrap();
    let backend = PoolBackend::new(&engine, 1).unwrap();
    let mut server = Server::new(ServerConfig::default(), Fleet::single(backend)).unwrap();
    let report = server.run_trace(&trace).unwrap();
    for r in &report.responses {
        assert_eq!(
            r.outcome,
            Outcome::Timeout,
            "request {} should have timed out, got {:?}",
            r.id,
            r.outcome
        );
        assert!(
            r.resolved_at >= r.arrived_at,
            "resolution cannot precede arrival"
        );
    }
    assert_eq!(report.snapshot.total_completed(), 0);
    assert_eq!(report.snapshot.timeout[Tier::High.index()], 12);
}

#[test]
fn weight_strike_walks_the_ladder_with_zero_silent_corruption() {
    let (model, inputs) = fixture();
    let engine = hardened(&model, &inputs);
    let trace = TrafficConfig {
        seed: 0xFA117,
        requests: 160,
        mean_interarrival: 4.0,
        deadline: 500,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();
    let config = ServerConfig::default().with_health(strike_health());
    let backend = PoolBackend::new(&engine, 2).unwrap();
    let mut server = Server::new(config.clone(), Fleet::single(backend)).unwrap();
    // Persistent weight corruption lands just before request 40 is
    // admitted; the CRC flags every subsequent decision, so the ladder
    // must walk Nominal → Degraded → SafeStop.
    let strike = |request: &Request, fleet: &mut safex_serve::Fleet<PoolBackend>| {
        if request.id == 40 {
            fleet
                .backend_mut(ModelId::new(0))
                .unwrap()
                .strike_weights(0xBAD5EED, 1, 2)
                .unwrap();
        }
    };
    let report = server.run_trace_with(&trace, strike).unwrap();

    let walk: Vec<(HealthState, HealthState)> =
        report.transitions.iter().map(|t| (t.from, t.to)).collect();
    assert_eq!(
        walk,
        vec![
            (HealthState::Nominal, HealthState::Degraded),
            (HealthState::Degraded, HealthState::SafeStop),
        ],
        "ladder must walk down exactly once: {:?}",
        report.transitions
    );
    // Transitions name the (single) model.
    assert!(report
        .transitions
        .iter()
        .all(|t| t.model == ModelId::new(0)));
    // Every transition is in the evidence chain and the chain verifies.
    assert!(server.evidence().verify().is_ok());
    assert_eq!(
        server
            .evidence()
            .records_of_kind(safex_trace::RecordKind::HealthTransition)
            .len(),
        2
    );

    // Zero silent corruption: every completed response either matches
    // the pristine reference classification or carries `flagged: true`.
    let mut reference = Engine::new(model.clone());
    let mut silent = 0usize;
    let mut safestopped = 0usize;
    for r in &report.responses {
        match &r.outcome {
            Outcome::Completed { class, flagged, .. } => {
                let truth = reference
                    .classify(&trace.arrivals()[r.id as usize].request.input)
                    .unwrap()
                    .class;
                if *class != truth && !flagged {
                    silent += 1;
                }
            }
            Outcome::SafeStop { .. } => safestopped = safestopped.saturating_add(1),
            _ => {}
        }
    }
    assert_eq!(silent, 0, "no unflagged wrong answer may be released");
    assert!(
        safestopped > 0,
        "requests after the stop transition must fail safe"
    );
    // And the whole faulted run still replays byte-for-byte.
    let backend = PoolBackend::new(&engine, 8).unwrap();
    let mut server2 = Server::new(config, Fleet::single(backend)).unwrap();
    let replay = server2.run_trace_with(&trace, strike).unwrap();
    assert_eq!(replay, report, "faulted replay diverged");
    assert_eq!(
        replay.to_json().to_string_compact(),
        report.to_json().to_string_compact()
    );
}

#[test]
fn safe_stop_fails_all_requests_without_execution() {
    let (model, inputs) = fixture();
    let engine = hardened(&model, &inputs);
    // Stop thresholds so tight the first flagged decision stops the
    // server; strike before the very first request.
    let config = ServerConfig::default().with_health(HealthConfig {
        window: 4,
        degrade_events: 1,
        stop_events: 1,
        recover_after: 16,
        resume_after: 0,
        warn_budget: 3,
    });
    let trace = TrafficConfig {
        seed: 3,
        requests: 30,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();
    let backend = PoolBackend::new(&engine, 1).unwrap();
    let mut server = Server::new(config, Fleet::single(backend)).unwrap();
    let report = server
        .run_trace_with(&trace, |request, fleet| {
            if request.id == 0 {
                fleet
                    .backend_mut(ModelId::new(0))
                    .unwrap()
                    .strike_weights(1, 1, 1)
                    .unwrap();
            }
        })
        .unwrap();
    assert_eq!(server.service_level(), HealthState::SafeStop);
    let after_stop: Vec<_> = report
        .responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::SafeStop { .. }))
        .collect();
    assert!(
        !after_stop.is_empty(),
        "latched safe stop must refuse later traffic"
    );
    // Nothing after the stop completes.
    let stop_tick = report.transitions.last().unwrap().at_tick;
    for r in &report.responses {
        if matches!(r.outcome, Outcome::Completed { .. }) {
            assert!(
                r.resolved_at <= stop_tick,
                "request {} completed after safe stop",
                r.id
            );
        }
    }
}
