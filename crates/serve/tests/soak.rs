//! Soak-runtime end-to-end tests: clock-source equivalence, a seeded
//! multi-hour-equivalent soak campaign with injected SEU faults, one
//! snapshot/restore whose resumed run reproduces the uninterrupted
//! baseline byte-for-byte, one committed and one aborted atomic hot
//! swap, the layered watchdog's escalation ladder, and fail-closed
//! snapshot misuse.

use std::time::Duration;

use safex_core::health::{HealthConfig, HealthState};
use safex_nn::model::ModelBuilder;
use safex_nn::{EccConfig, HardenConfig, HardenedEngine, Model};
use safex_serve::{
    Arrival, ArrivalTrace, Backend, BatchPolicy, CacheConfig, Fleet, ModelId, OpsPlan, Outcome,
    PoolBackend, Request, ServeError, Server, ServerConfig, SimClock, StallOp, SwapOp, Tier,
    TrafficConfig, WallClock, WatchStage, WatchdogConfig,
};
use safex_tensor::{DetRng, Shape};
use safex_trace::RecordKind;

fn fixture(seed: u64) -> (Model, Vec<Vec<f32>>) {
    let mut rng = DetRng::new(seed);
    let model = ModelBuilder::new(Shape::vector(6))
        .dense(10, &mut rng)
        .unwrap()
        .relu()
        .dense(4, &mut rng)
        .unwrap()
        .softmax()
        .build()
        .unwrap();
    let inputs: Vec<Vec<f32>> = (0..16)
        .map(|_| (0..6).map(|_| rng.next_f32()).collect())
        .collect();
    (model, inputs)
}

fn hardened(model: &Model, inputs: &[Vec<f32>]) -> HardenedEngine {
    // ECC repair on: single-bit SEU strikes are corrected in place and
    // surface as warnings, which is the fault model the soak injects.
    let config = HardenConfig {
        repair: Some(EccConfig::default()),
        ..HardenConfig::default()
    };
    let mut engine = HardenedEngine::new(model.clone(), config).unwrap();
    engine.calibrate(inputs).unwrap();
    engine
}

fn three_member_fleet(engine: &HardenedEngine) -> Fleet<PoolBackend> {
    Fleet::builder()
        .register("alpha", PoolBackend::new(engine, 1).unwrap())
        .register("beta", PoolBackend::new(engine, 1).unwrap())
        .register("gamma", PoolBackend::new(engine, 1).unwrap())
        .build()
        .unwrap()
}

fn assert_no_silent_drops(responses: &[safex_serve::Response], total: usize) {
    assert_eq!(responses.len(), total, "one response per request");
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(r.id, i as u64, "response ids dense and sorted");
    }
}

/// The same trace produces a byte-identical report under the sim clock,
/// an empty-plan soak run, and a wall clock — pacing never decides.
#[test]
fn clock_sources_do_not_change_the_report() {
    let (model, inputs) = fixture(0x50AC);
    let engine = hardened(&model, &inputs);
    let trace = TrafficConfig {
        seed: 0x50AC,
        requests: 64,
        mean_interarrival: 3.0,
        deadline: 400,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();
    let config = || ServerConfig::default().with_cache(CacheConfig::enabled(64));

    let mut plain = Server::new(config(), three_member_fleet(&engine)).unwrap();
    let reference = plain.run_trace(&trace).unwrap();

    let mut sim = Server::new(config(), three_member_fleet(&engine)).unwrap();
    let sim_soak = sim
        .run_soak(&trace, OpsPlan::none(), &mut SimClock)
        .unwrap();
    assert_eq!(
        sim_soak.report, reference,
        "empty-plan soak must degenerate"
    );
    assert!(sim_soak.snapshot.is_none());
    assert!(sim_soak.report.soak.is_default());
    assert_eq!(
        sim_soak.report.to_json().to_string_compact(),
        reference.to_json().to_string_compact(),
        "soak stats must stay out of the plain-report JSON"
    );

    let mut wall = Server::new(config(), three_member_fleet(&engine)).unwrap();
    let mut wall_clock = WallClock::new(Duration::from_nanos(200));
    let wall_soak = wall
        .run_soak(&trace, OpsPlan::none(), &mut wall_clock)
        .unwrap();
    assert_eq!(
        wall_soak.report, reference,
        "wall-clock pacing must not change a single byte of the report"
    );
}

/// The acceptance soak: a multi-hour-equivalent seeded campaign (at one
/// second per tick the trace spans ~4 hours) with an ECC-correctable SEU
/// strike repaired in flight, an uncorrectable strike walking a member to
/// SafeStop, one committed and one aborted hot swap, a periodic liveness
/// proof cadence, and a mid-traffic snapshot whose restored continuation
/// reproduces the uninterrupted run's report byte-for-byte.
#[test]
fn soak_campaign_survives_faults_swaps_and_restore() {
    let (model, inputs) = fixture(0xF1EE7);
    // Mostly-distinct inputs (repeats only via the fixture tail): the
    // cache sees real hits without starving the backends — a fully
    // cached stream would never exercise the struck member.
    let mut rng = DetRng::new(0x50A1);
    let mut many: Vec<Vec<f32>> = (0..2_000)
        .map(|_| (0..6).map(|_| rng.next_f32()).collect())
        .collect();
    many.extend(inputs.iter().cloned());
    let engine = hardened(&model, &many);
    // The replacement model for the committed swap: different weights,
    // same shape — a real model update, not a no-op.
    let (model2, _) = fixture(0xB0B2);
    let engine2 = hardened(&model2, &many);
    let good_digest = PoolBackend::new(&engine2, 1)
        .unwrap()
        .swap_digest()
        .unwrap();

    let trace = TrafficConfig {
        seed: 0x50AC50AC,
        requests: 2400,
        mean_interarrival: 3.0,
        deadline: 600,
        ..TrafficConfig::default()
    }
    .synthesize(&many)
    .unwrap();
    let config = || {
        ServerConfig::default()
            // Round-robin keeps routing work onto a Degraded member, so
            // the uncorrectable strike reliably walks the full ladder.
            .with_routing(safex_serve::RoutingKind::RoundRobin)
            .with_health(HealthConfig {
                window: 8,
                degrade_events: 2,
                stop_events: 6,
                recover_after: 16,
                resume_after: 0,
                warn_budget: 3,
            })
            .with_cache(CacheConfig::enabled(256))
            .with_watchdog(WatchdogConfig::enabled(1024).with_proof_cadence(3600))
            .with_campaign("soak-e15")
    };
    let alpha = ModelId::new(0);
    let beta = ModelId::new(1);
    let gamma = ModelId::new(2);
    let plan = |commit_incoming: PoolBackend, abort_incoming: PoolBackend| {
        OpsPlan::none()
            .with_snapshot_at(1200)
            .with_swap(SwapOp {
                at_request: 1440,
                model: beta,
                incoming: commit_incoming,
                expected_digest: Some(good_digest),
            })
            .with_swap(SwapOp {
                at_request: 1680,
                model: gamma,
                incoming: abort_incoming,
                // Deliberately wrong pin: verification must abort the
                // swap and keep the old model serving.
                expected_digest: Some(good_digest ^ 0xDEAD_BEEF),
            })
    };
    let strikes = |request: &Request, fleet: &mut Fleet<PoolBackend>| {
        if request.id == 200 {
            // Single-bit SEU: the ECC sidecar repairs it in place; the
            // ladder sees warnings, not failures.
            fleet
                .backend_mut(alpha)
                .unwrap()
                .strike_weights(0xA11CE, 1, 1)
                .unwrap();
        }
        if request.id == 1920 {
            // Double-bit SEU: uncorrectable, every decision flags, the
            // member walks its ladder to SafeStop.
            fleet
                .backend_mut(alpha)
                .unwrap()
                .strike_weights(0xBAD5EED, 1, 2)
                .unwrap();
        }
    };

    // --- The uninterrupted baseline run. ---
    let mut server = Server::new(config(), three_member_fleet(&engine)).unwrap();
    let base = server
        .run_soak_with(
            &trace,
            plan(
                PoolBackend::new(&engine2, 1).unwrap(),
                PoolBackend::new(&engine, 1).unwrap(),
            ),
            &mut SimClock,
            strikes,
        )
        .unwrap();
    assert_no_silent_drops(&base.report.responses, trace.len());

    // Both swaps resolved: one committed with the pinned digest, one
    // aborted with the old model untouched.
    assert_eq!(
        base.report.soak.swaps.len(),
        2,
        "{:?}",
        base.report.soak.swaps
    );
    let committed = &base.report.soak.swaps[0];
    assert!(committed.committed && committed.model == beta);
    assert_eq!(committed.digest, good_digest);
    let aborted = &base.report.soak.swaps[1];
    assert!(!aborted.committed && aborted.model == gamma);
    assert!(
        aborted.resolved_at >= aborted.requested_at,
        "sane swap latency"
    );
    let evidence = server.evidence();
    assert!(evidence.verify().is_ok());
    assert_eq!(evidence.records_of_kind(RecordKind::ModelSwapped).len(), 1);
    assert_eq!(evidence.records_of_kind(RecordKind::SwapAborted).len(), 1);
    assert!(evidence
        .records_of_kind(RecordKind::RuntimeRestored)
        .is_empty());
    // The aborted member kept serving on its old ladder the whole run.
    assert_eq!(server.model_state(gamma), Some(HealthState::Nominal));
    assert!(base.report.snapshot.models[gamma.index()].batches > 0);

    // The correctable strike surfaced as repaired-fault evidence, not as
    // a stop; the uncorrectable one walked alpha to SafeStop.
    assert!(!evidence
        .records_of_kind(RecordKind::FaultCorrected)
        .is_empty());
    assert_eq!(server.model_state(alpha), Some(HealthState::SafeStop));
    let stop_tick = base
        .report
        .transitions
        .iter()
        .find(|t| t.model == alpha && t.to == HealthState::SafeStop)
        .expect("alpha must reach SafeStop")
        .at_tick;
    // Zero silent corruption: after the stop, nothing serves from
    // alpha — not even its cache entries (purged on the transition).
    for r in &base.report.responses {
        if let Outcome::Completed { model, cached, .. } = &r.outcome {
            if *model == alpha {
                assert!(
                    r.resolved_at <= stop_tick,
                    "request {} served from the stopped member (cached={cached})",
                    r.id
                );
            }
        }
    }
    // The watchdog observed a healthy pipeline: heartbeats and periodic
    // proofs, no alarms.
    assert!(base.report.soak.watchdog_kicks.iter().all(|&k| k > 0));
    assert_eq!(base.report.soak.watchdog_alarms, 0);
    assert_eq!(base.report.soak.watchdog_escalations, 0);
    assert!(base.report.soak.watchdog_proofs > 0);
    assert_eq!(
        evidence.records_of_kind(RecordKind::WatchdogProof).len() as u64,
        base.report.soak.watchdog_proofs
    );

    // --- Snapshot / restore. ---
    let bytes = base.snapshot.as_ref().expect("plan captured a snapshot");
    let mut restored = Server::restore(config(), three_member_fleet(&engine), bytes).unwrap();
    assert!(restored.pending_restore());
    let resumed = restored
        .run_soak_with(
            &trace,
            plan(
                PoolBackend::new(&engine2, 1).unwrap(),
                PoolBackend::new(&engine, 1).unwrap(),
            ),
            &mut SimClock,
            strikes,
        )
        .unwrap();
    assert!(!restored.pending_restore());
    assert_no_silent_drops(&resumed.report.responses, trace.len());

    // Bit-for-bit fidelity: the resumed run's replay artefact is the
    // uninterrupted run's, byte for byte.
    assert_eq!(
        resumed.report.replay_json().to_string_compact(),
        base.report.replay_json().to_string_compact(),
        "restored continuation diverged from the uninterrupted baseline"
    );
    assert_eq!(resumed.report.replay_digest(), base.report.replay_digest());
    // The chains differ by exactly the restore evidence — nothing else.
    assert_ne!(
        resumed.report.chain_head, base.report.chain_head,
        "a restore is evidence; the chain must show it"
    );
    let restored_evidence = restored.evidence();
    assert!(restored_evidence.verify().is_ok());
    assert_eq!(
        restored_evidence
            .records_of_kind(RecordKind::RuntimeRestored)
            .len(),
        1
    );
    assert_eq!(
        restored_evidence.len(),
        server.evidence().len() + 1,
        "restored chain = baseline chain + one runtime_restored record"
    );
}

/// A starved batcher walks the watchdog's full escalation ladder —
/// missed-heartbeat alarm, fleet Degraded, fleet SafeStop — with every
/// step on the evidence chain, and the queued work drains as typed
/// refusals, never silently.
#[test]
fn watchdog_escalates_a_starved_stage_to_fleet_safe_stop() {
    let (model, inputs) = fixture(0xD06);
    let engine = hardened(&model, &inputs);
    let arrivals: Vec<Arrival> = (0..20u64)
        .map(|i| Arrival {
            at: 1 + i,
            request: Request::new(
                i,
                inputs[i as usize % inputs.len()].clone(),
                Tier::High,
                6_000,
            ),
        })
        .collect();
    let trace = ArrivalTrace::from_arrivals(arrivals).unwrap();
    let config = ServerConfig::default()
        .with_watchdog(WatchdogConfig::enabled(64).with_proof_cadence(1_000))
        .with_campaign("soak-watchdog");
    let mut server =
        Server::new(config, Fleet::single(PoolBackend::new(&engine, 1).unwrap())).unwrap();
    let ops = OpsPlan::none().with_stall(StallOp {
        stage: WatchStage::Batcher,
        from: 0,
        until: 5_000,
    });
    let outcome = server.run_soak(&trace, ops, &mut SimClock).unwrap();
    let report = outcome.report;
    assert_no_silent_drops(&report.responses, trace.len());

    // The ladder: one alarm, then two forced escalations.
    assert_eq!(report.soak.watchdog_alarms, 1);
    assert_eq!(report.soak.watchdog_escalations, 2);
    let walk: Vec<(HealthState, HealthState)> =
        report.transitions.iter().map(|t| (t.from, t.to)).collect();
    assert_eq!(
        walk,
        vec![
            (HealthState::Nominal, HealthState::Degraded),
            (HealthState::Degraded, HealthState::SafeStop),
        ],
        "escalation must force the fleet down the ladder: {:?}",
        report.transitions
    );
    assert_eq!(server.service_level(), HealthState::SafeStop);
    // Every queued request resolves as a typed refusal once the fleet is
    // stopped — the watchdog converts a hang into a safe stop, not a loss.
    for r in &report.responses {
        assert!(
            matches!(r.outcome, Outcome::SafeStop { .. }),
            "request {} must fail safe under a stopped fleet: {:?}",
            r.id,
            r.outcome
        );
    }
    // Alarm and escalations are on the chain, with the stage named.
    let evidence = server.evidence();
    assert!(evidence.verify().is_ok());
    let alarms = evidence.records_of_kind(RecordKind::WatchdogAlarm);
    assert_eq!(alarms.len(), 1);
    let escalations = evidence.records_of_kind(RecordKind::WatchdogEscalation);
    assert_eq!(escalations.len(), 2);
    let actions: Vec<&str> = escalations
        .iter()
        .map(|r| {
            r.fields
                .iter()
                .find(|(k, _)| k == "action")
                .map(|(_, v)| match v {
                    safex_trace::Value::Str(s) => s.as_str(),
                    _ => "",
                })
                .unwrap()
        })
        .collect();
    assert_eq!(actions, vec!["degrade_fleet", "safe_stop_fleet"]);
    assert!(report.soak.watchdog_proofs > 0);
    // Admission kept proving liveness throughout (one kick per arrival).
    assert_eq!(
        report.soak.watchdog_kicks[WatchStage::Admission.index()],
        20
    );
}

/// Snapshot misuse fails closed with the typed error: corrupted bytes,
/// truncation, a mismatched configuration, a mismatched trace, and a
/// capture point colliding with a draining hot swap are all rejected
/// without partial state.
#[test]
fn snapshot_misuse_fails_closed() {
    let (model, inputs) = fixture(0xBAD);
    let engine = hardened(&model, &inputs);
    let trace = TrafficConfig {
        seed: 0xBAD,
        requests: 120,
        mean_interarrival: 3.0,
        deadline: 400,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();
    let config = || ServerConfig::default().with_campaign("soak-misuse");
    let mut server = Server::new(config(), three_member_fleet(&engine)).unwrap();
    let outcome = server
        .run_soak(&trace, OpsPlan::none().with_snapshot_at(60), &mut SimClock)
        .unwrap();
    let bytes = outcome.snapshot.unwrap();

    // A valid restore works (sanity for the misuse cases below).
    assert!(Server::restore(config(), three_member_fleet(&engine), &bytes).is_ok());

    // Any flipped byte is caught by the checksum (or a layer above it).
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert!(matches!(
        Server::restore(config(), three_member_fleet(&engine), &corrupt),
        Err(ServeError::BadSnapshot(_))
    ));
    // Truncation fails closed.
    assert!(matches!(
        Server::restore(
            config(),
            three_member_fleet(&engine),
            &bytes[..bytes.len() - 5]
        ),
        Err(ServeError::BadSnapshot(_))
    ));
    // A different configuration must not adopt the state.
    let other = ServerConfig::default().with_campaign("someone-else");
    assert!(matches!(
        Server::restore(other, three_member_fleet(&engine), &bytes),
        Err(ServeError::BadSnapshot(_))
    ));
    // A different fleet shape must not adopt the state.
    assert!(matches!(
        Server::restore(
            config(),
            Fleet::single(PoolBackend::new(&engine, 1).unwrap()),
            &bytes
        ),
        Err(ServeError::BadSnapshot(_))
    ));
    // Running a restored server against the wrong trace is refused.
    let other_trace = TrafficConfig {
        seed: 0xD1FF,
        requests: 120,
        mean_interarrival: 3.0,
        deadline: 400,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();
    let mut restored = Server::restore(config(), three_member_fleet(&engine), &bytes).unwrap();
    assert!(matches!(
        restored.run_trace(&other_trace),
        Err(ServeError::BadSnapshot(_))
    ));

    // A capture point that lands while a hot swap is still draining is
    // refused: a half-performed swap is not a capturable state.
    let arrivals: Vec<Arrival> = (0..3u64)
        .map(|i| Arrival {
            at: 1 + i,
            request: Request::new(i, inputs[0].clone(), Tier::High, 2_000),
        })
        .collect();
    let tiny = ArrivalTrace::from_arrivals(arrivals).unwrap();
    let config = ServerConfig::default()
        .with_policy(BatchPolicy::default().with_max_batch(1).with_queue_cap(8));
    let mut server =
        Server::new(config, Fleet::single(PoolBackend::new(&engine, 1).unwrap())).unwrap();
    let ops = OpsPlan::none()
        .with_stall(StallOp {
            stage: WatchStage::Release,
            from: 0,
            until: 400,
        })
        .with_swap(SwapOp {
            at_request: 1,
            model: ModelId::new(0),
            incoming: PoolBackend::new(&engine, 1).unwrap(),
            expected_digest: None,
        })
        .with_snapshot_at(2);
    let err = server.run_soak(&tiny, ops, &mut SimClock).unwrap_err();
    assert!(
        matches!(err, ServeError::BadSnapshot(ref msg) if msg.contains("hot swap")),
        "expected the draining-swap refusal, got {err}"
    );
}

/// Duplicate member names are rejected with the typed error through
/// every construction path, and an out-of-range swap target is rejected
/// before the run starts.
#[test]
fn duplicate_members_and_bad_swap_targets_are_typed_errors() {
    let (model, inputs) = fixture(0xD0B);
    let engine = hardened(&model, &inputs);
    let dup = Fleet::builder()
        .register("primary", PoolBackend::new(&engine, 1).unwrap())
        .register("primary", PoolBackend::new(&engine, 1).unwrap())
        .build();
    assert!(
        matches!(dup, Err(ServeError::DuplicateMember(ref name)) if name == "primary"),
        "duplicate registration must fail typed, got {dup:?}"
    );
    // Fleet::single always builds the one canonical member.
    let server = Server::new(
        ServerConfig::default(),
        Fleet::single(PoolBackend::new(&engine, 1).unwrap()),
    )
    .unwrap();
    assert_eq!(server.fleet().members()[0].name(), "primary");

    // A swap targeting a member outside the fleet is a config error
    // before any traffic moves.
    let trace = TrafficConfig {
        seed: 1,
        requests: 4,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();
    let mut server = Server::new(
        ServerConfig::default(),
        Fleet::single(PoolBackend::new(&engine, 1).unwrap()),
    )
    .unwrap();
    let ops = OpsPlan::none().with_swap(SwapOp {
        at_request: 0,
        model: ModelId::new(7),
        incoming: PoolBackend::new(&engine, 1).unwrap(),
        expected_digest: None,
    });
    assert!(matches!(
        server.run_soak(&trace, ops, &mut SimClock),
        Err(ServeError::BadConfig(_))
    ));
}

/// A falsifier-found counterexample replays as shaped soak traffic: the
/// witness episode of a temporal-bound violation becomes an ordered
/// request trace via `TrafficShape`, and two soak runs over it are
/// byte-identical — adversarial scenario search feeding the serving
/// evidence chain end to end.
#[test]
fn counterexample_replay_is_deterministic_soak_traffic() {
    use safex_falsify::{
        BackendKind, Falsifier, FalsifyConfig, Specification, TemporalErrorBound, TrajectoryRunner,
    };
    use safex_serve::TrafficShape;

    // Search the trajectory task for an episode that leaves the taxiway.
    let falsify_config = FalsifyConfig {
        workers: 2,
        ..FalsifyConfig::default()
    };
    let runner = TrajectoryRunner::new(BackendKind::F32, 11).unwrap();
    let specs: Vec<Box<dyn Specification>> = vec![Box::new(TemporalErrorBound::new(3.0).unwrap())];
    let report = Falsifier::new(falsify_config)
        .unwrap()
        .falsify(&runner, &specs)
        .unwrap();
    let cell = report
        .cell("temporal_error_bound")
        .expect("the trajectory task must yield a temporal counterexample");

    // Replay the exact witness episode and lift its observation stream.
    let episode = runner
        .episode(&cell.witness, falsify_config.eval_seed(cell.witness_eval))
        .unwrap();
    assert!(
        episode.max_abs_cte() > 3.0,
        "witness episode must actually violate the bound"
    );
    assert!(!episode.observations.is_empty());

    // A server dimensioned for the episode's frames.
    let mut rng = DetRng::new(0x7A11);
    let obs_len = episode.observations[0].len();
    let model = ModelBuilder::new(Shape::vector(obs_len))
        .dense(12, &mut rng)
        .unwrap()
        .relu()
        .dense(3, &mut rng)
        .unwrap()
        .softmax()
        .build()
        .unwrap();
    let engine = hardened(&model, &episode.observations[..8]);

    // Frame order must survive: the shape carries payload i as request i.
    let shape = TrafficShape {
        burst: 4,
        gap: 3,
        ..TrafficShape::default()
    };
    let trace = shape.shape(&episode.observations).unwrap();
    assert_eq!(trace.len(), episode.observations.len());
    for (arrival, obs) in trace.arrivals().iter().zip(&episode.observations) {
        assert_eq!(&arrival.request.input, obs, "payloads must not be cycled");
    }

    let run = || {
        Server::new(ServerConfig::default(), three_member_fleet(&engine))
            .unwrap()
            .run_soak(&trace, OpsPlan::none(), &mut SimClock)
            .unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.report, second.report,
        "counterexample replay must be byte-identical"
    );
    assert_no_silent_drops(&first.report.responses, episode.observations.len());
}
