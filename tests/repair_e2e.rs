//! End-to-end detect-and-correct: a single-bit weight flip struck
//! mid-traffic through the serving runtime is repaired in place by the
//! ECC sidecar — the server never leaves Nominal and records the repair
//! as evidence — while a double-bit (uncorrectable) flip still walks the
//! existing Degraded → SafeStop ladder.

use safex_core::health::{HealthConfig, HealthState};
use safex_nn::model::ModelBuilder;
use safex_nn::{EccConfig, Engine, HardenConfig, HardenedEngine, Model};
use safex_serve::{Fleet, ModelId, Outcome, PoolBackend, Server, ServerConfig, TrafficConfig};
use safex_tensor::{DetRng, Shape};
use safex_trace::RecordKind;

fn fixture() -> (Model, Vec<Vec<f32>>) {
    let mut rng = DetRng::new(0x0E2E);
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

fn repairing_engine(model: &Model, inputs: &[Vec<f32>]) -> HardenedEngine {
    let config = HardenConfig {
        repair: Some(EccConfig::default()),
        ..HardenConfig::default()
    };
    let mut engine = HardenedEngine::new(model.clone(), config).unwrap();
    engine.calibrate(inputs).unwrap();
    engine
}

fn server_config() -> ServerConfig {
    ServerConfig::default().with_health(HealthConfig {
        window: 8,
        degrade_events: 2,
        stop_events: 6,
        recover_after: 16,
        resume_after: 0,
        warn_budget: 3,
    })
}

#[test]
fn single_bit_flip_is_corrected_and_the_server_stays_nominal() {
    let (model, inputs) = fixture();
    let engine = repairing_engine(&model, &inputs);
    let trace = TrafficConfig {
        seed: 0xE13,
        requests: 160,
        mean_interarrival: 4.0,
        deadline: 500,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();
    let backend = PoolBackend::new(&engine, 4).unwrap();
    let mut server = Server::new(server_config(), Fleet::single(backend)).unwrap();
    // One SEU flipping one bit of one weight, landing mid-traffic.
    let report = server
        .run_trace_with(&trace, |request, fleet| {
            if request.id == 40 {
                fleet
                    .backend_mut(ModelId::new(0))
                    .unwrap()
                    .strike_weights(0xBAD5EED, 1, 1)
                    .unwrap();
            }
        })
        .unwrap();

    // The fault was absorbed: no service-level transition ever fired.
    assert_eq!(server.service_level(), HealthState::Nominal);
    assert!(
        report.transitions.is_empty(),
        "a corrected fault must not move the ladder: {:?}",
        report.transitions
    );
    // The repair left evidence behind and the chain verifies.
    assert!(server.evidence().verify().is_ok());
    let corrected = server
        .evidence()
        .records_of_kind(RecordKind::FaultCorrected);
    assert!(
        !corrected.is_empty(),
        "the repair must be recorded as evidence"
    );
    assert!(server
        .evidence()
        .records_of_kind(RecordKind::HealthTransition)
        .is_empty());

    // Every released answer matches the pristine model: the flip was
    // repaired before it could corrupt a classification.
    let mut reference = Engine::new(model.clone());
    let mut completed = 0usize;
    for r in &report.responses {
        if let Outcome::Completed { class, .. } = &r.outcome {
            let truth = reference
                .classify(&trace.arrivals()[r.id as usize].request.input)
                .unwrap()
                .class;
            assert_eq!(*class, truth, "request {} released a wrong answer", r.id);
            completed += 1;
        }
    }
    assert!(completed > 100, "most of the trace must complete normally");
    assert!(
        !report
            .responses
            .iter()
            .any(|r| matches!(r.outcome, Outcome::SafeStop { .. })),
        "nothing may fail safe when the fault is correctable"
    );
}

#[test]
fn double_bit_flip_still_walks_degraded_then_safe_stop() {
    let (model, inputs) = fixture();
    let engine = repairing_engine(&model, &inputs);
    let trace = TrafficConfig {
        seed: 0xE13,
        requests: 160,
        mean_interarrival: 4.0,
        deadline: 500,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();
    let backend = PoolBackend::new(&engine, 4).unwrap();
    let mut server = Server::new(server_config(), Fleet::single(backend)).unwrap();
    // Two bits of the same weight word: beyond single-error correction,
    // so the sidecar must refuse to touch it and escalate as before.
    let report = server
        .run_trace_with(&trace, |request, fleet| {
            if request.id == 40 {
                fleet
                    .backend_mut(ModelId::new(0))
                    .unwrap()
                    .strike_weights(0xBAD5EED, 1, 2)
                    .unwrap();
            }
        })
        .unwrap();

    let walk: Vec<(HealthState, HealthState)> =
        report.transitions.iter().map(|t| (t.from, t.to)).collect();
    assert_eq!(
        walk,
        vec![
            (HealthState::Nominal, HealthState::Degraded),
            (HealthState::Degraded, HealthState::SafeStop),
        ],
        "uncorrectable damage must keep the existing escalation: {:?}",
        report.transitions
    );
    assert_eq!(server.service_level(), HealthState::SafeStop);
    // An uncorrectable fault must never masquerade as a repair.
    assert!(server
        .evidence()
        .records_of_kind(RecordKind::FaultCorrected)
        .is_empty());
    assert!(
        report
            .responses
            .iter()
            .any(|r| matches!(r.outcome, Outcome::SafeStop { .. })),
        "traffic after the stop must fail safe"
    );
}
