//! Property tests for the soak snapshot codec: encode/decode is the
//! identity over arbitrary snapshots (including arbitrary mid-walk
//! ladder states), re-encoding reproduces the exact bytes, and any
//! truncation or byte corruption fails closed with the typed error —
//! never a panic, never partial state.

use proptest::prelude::*;
use safex_core::health::{HealthState, LadderState, Transition};
use safex_nn::model::ModelBuilder;
use safex_nn::{HardenConfig, HardenedEngine};
use safex_serve::{
    BatchVerdict, CacheConfig, CacheEntrySnapshot, ChainEntry, Fleet, InFlightBatch, Metrics,
    ModelId, OpsPlan, Outcome, Pending, PoolBackend, Request, Response, RunSnapshot, ServeError,
    Server, ServerConfig, ServerSnapshot, ServiceTransition, ShedReason, SimClock, SoakStats,
    SwapEvent, Tier, TrafficConfig, WatchdogState,
};
use safex_tensor::{DetRng, Shape};
use safex_trace::{RecordKind, Value};

fn state_of(n: u64) -> HealthState {
    match n % 3 {
        0 => HealthState::Nominal,
        1 => HealthState::Degraded,
        _ => HealthState::SafeStop,
    }
}

fn tier_of(n: u64) -> Tier {
    match n % 3 {
        0 => Tier::Low,
        1 => Tier::Medium,
        _ => Tier::High,
    }
}

fn outcome_of(rng: &mut DetRng) -> Outcome {
    match rng.next_u64() % 6 {
        0 => Outcome::Completed {
            class: (rng.next_u64() % 16) as usize,
            confidence: rng.next_f32(),
            flagged: rng.next_u64() & 1 == 1,
            level: state_of(rng.next_u64()),
            model: ModelId::new((rng.next_u64() % 4) as u16),
            cached: rng.next_u64() & 1 == 1,
        },
        1 => Outcome::Shed(ShedReason::QueueFull),
        2 => Outcome::Shed(ShedReason::Displaced { by: rng.next_u64() }),
        3 => Outcome::Shed(ShedReason::DegradedTier {
            model: ModelId::new((rng.next_u64() % 4) as u16),
        }),
        4 => Outcome::Timeout,
        _ => Outcome::SafeStop {
            model: if rng.next_u64() & 1 == 1 {
                Some(ModelId::new((rng.next_u64() % 4) as u16))
            } else {
                None
            },
        },
    }
}

fn pending_of(rng: &mut DetRng, id: u64) -> Pending {
    let input: Vec<f32> = (0..(rng.next_u64() % 5)).map(|_| rng.next_f32()).collect();
    let mut request = Request::new(id, input, tier_of(rng.next_u64()), rng.next_u64() >> 32);
    if rng.next_u64() & 1 == 1 {
        request = request.pinned(ModelId::new((rng.next_u64() % 4) as u16));
    }
    Pending {
        request,
        queued_at: rng.next_u64() >> 40,
    }
}

const KINDS: [RecordKind; 8] = [
    RecordKind::InferencePerformed,
    RecordKind::HealthTransition,
    RecordKind::FaultCorrected,
    RecordKind::CacheHit,
    RecordKind::RuntimeRestored,
    RecordKind::ModelSwapped,
    RecordKind::SwapAborted,
    RecordKind::WatchdogEscalation,
];

fn value_of(rng: &mut DetRng) -> Value {
    match rng.next_u64() % 4 {
        0 => Value::Str(format!("v{:x}", rng.next_u64() % 4096)),
        1 => Value::U64(rng.next_u64()),
        2 => Value::F64(f64::from(rng.next_f32())),
        _ => Value::Bool(rng.next_u64() & 1 == 1),
    }
}

/// An arbitrary — not necessarily semantically reachable — snapshot.
/// The codec must round-trip anything representable; semantic validation
/// is `Server::restore`'s job, on top of it.
fn arbitrary_snapshot(seed: u64, members: usize) -> ServerSnapshot {
    let mut rng = DetRng::new(seed);
    let monitors: Vec<LadderState> = (0..members)
        .map(|_| LadderState {
            state: state_of(rng.next_u64()),
            history: rng.next_u64(),
            warn_history: rng.next_u64(),
            clean_streak: (rng.next_u64() % 64) as u32,
            decisions: rng.next_u64() >> 16,
            time_in: [
                rng.next_u64() >> 16,
                rng.next_u64() >> 16,
                rng.next_u64() >> 16,
            ],
            transitions: (0..(rng.next_u64() % 4))
                .map(|_| Transition {
                    from: state_of(rng.next_u64()),
                    to: state_of(rng.next_u64()),
                    at_decision: rng.next_u64() >> 32,
                })
                .collect(),
        })
        .collect();
    let cache_entries: Vec<CacheEntrySnapshot> = (0..(rng.next_u64() % 5))
        .map(|_| CacheEntrySnapshot {
            input: (0..(rng.next_u64() % 6)).map(|_| rng.next_f32()).collect(),
            class: (rng.next_u64() % 32) as usize,
            confidence: rng.next_f32(),
            model: ModelId::new((rng.next_u64() % members.max(1) as u64) as u16),
        })
        .collect();
    let chain: Vec<ChainEntry> = (0..(rng.next_u64() % 6))
        .map(|_| ChainEntry {
            kind: KINDS[(rng.next_u64() % KINDS.len() as u64) as usize],
            fields: (0..(rng.next_u64() % 4))
                .map(|i| (format!("k{i}"), value_of(&mut rng)))
                .collect(),
        })
        .collect();
    let responses: Vec<Response> = (0..(rng.next_u64() % 6))
        .map(|i| Response {
            id: i,
            tier: tier_of(rng.next_u64()),
            arrived_at: rng.next_u64() >> 40,
            resolved_at: rng.next_u64() >> 40,
            outcome: outcome_of(&mut rng),
        })
        .collect();
    let transitions: Vec<ServiceTransition> = (0..(rng.next_u64() % 4))
        .map(|_| ServiceTransition {
            model: ModelId::new((rng.next_u64() % members.max(1) as u64) as u16),
            from: state_of(rng.next_u64()),
            to: state_of(rng.next_u64()),
            at_tick: rng.next_u64() >> 40,
            after_request: rng.next_u64() >> 40,
        })
        .collect();
    let inflight: Vec<InFlightBatch> = (0..(rng.next_u64() % 3))
        .map(|_| InFlightBatch {
            model: ModelId::new((rng.next_u64() % members.max(1) as u64) as u16),
            done_at: rng.next_u64() >> 40,
            items: (0..(1 + rng.next_u64() % 3))
                .map(|i| {
                    let verdict = if rng.next_u64().is_multiple_of(4) {
                        BatchVerdict::Stop
                    } else {
                        BatchVerdict::Ok {
                            class: (rng.next_u64() % 8) as usize,
                            confidence: rng.next_f32(),
                            flagged: rng.next_u64() & 1 == 1,
                            corrected: rng.next_u64() & 1 == 1,
                        }
                    };
                    (pending_of(&mut rng, 100 + i), verdict)
                })
                .collect(),
        })
        .collect();
    let mut stats = SoakStats::default();
    for _ in 0..(rng.next_u64() % 3) {
        stats.swaps.push(SwapEvent {
            model: ModelId::new((rng.next_u64() % members.max(1) as u64) as u16),
            requested_at: rng.next_u64() >> 40,
            resolved_at: rng.next_u64() >> 40,
            committed: rng.next_u64() & 1 == 1,
            digest: rng.next_u64(),
        });
    }
    for k in &mut stats.watchdog_kicks {
        *k = rng.next_u64() >> 32;
    }
    stats.watchdog_alarms = rng.next_u64() % 8;
    stats.watchdog_escalations = rng.next_u64() % 8;
    stats.watchdog_proofs = rng.next_u64() % 8;
    ServerSnapshot {
        campaign: format!("campaign-{:x}", rng.next_u64() % 0xFFFF),
        config_digest: rng.next_u64(),
        trace_digest: rng.next_u64(),
        monitors,
        cache_entries,
        chain,
        chain_head: rng.next_u64(),
        backend_clocks: (0..members).map(|_| rng.next_u64() >> 24).collect(),
        run: RunSnapshot {
            responses,
            transitions,
            metrics: Metrics::new(members),
            queue_items: (0..(rng.next_u64() % 4))
                .map(|i| pending_of(&mut rng, 200 + i))
                .collect(),
            queue_cap: 1 + rng.next_u64() % 256,
            queue_peak: rng.next_u64() % 256,
            inflight,
            free_at: (0..members).map(|_| rng.next_u64() >> 40).collect(),
            decisions: rng.next_u64() >> 32,
            next_arrival: rng.next_u64() >> 40,
            now: rng.next_u64() >> 40,
            stalled: rng.next_u64() & 1 == 1,
            watchdog: WatchdogState {
                last_progress: [
                    rng.next_u64() >> 40,
                    rng.next_u64() >> 40,
                    rng.next_u64() >> 40,
                    rng.next_u64() >> 40,
                ],
                strikes: [
                    (rng.next_u64() % 4) as u32,
                    (rng.next_u64() % 4) as u32,
                    (rng.next_u64() % 4) as u32,
                    (rng.next_u64() % 4) as u32,
                ],
                next_proof: rng.next_u64() >> 40,
            },
            stats,
        },
    }
}

/// A snapshot captured from a real mid-traffic run — the codec input
/// that actually matters in production.
fn captured_snapshot(seed: u64, requests: u64, capture_at: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    let model = ModelBuilder::new(Shape::vector(4))
        .dense(6, &mut rng)
        .unwrap()
        .relu()
        .dense(3, &mut rng)
        .unwrap()
        .softmax()
        .build()
        .unwrap();
    let inputs: Vec<Vec<f32>> = (0..12)
        .map(|_| (0..4).map(|_| rng.next_f32()).collect())
        .collect();
    let mut engine = HardenedEngine::new(model, HardenConfig::default()).unwrap();
    engine.calibrate(&inputs).unwrap();
    let fleet = Fleet::builder()
        .register("a", PoolBackend::new(&engine, 1).unwrap())
        .register("b", PoolBackend::new(&engine, 1).unwrap())
        .build()
        .unwrap();
    let config = ServerConfig::default().with_cache(CacheConfig::enabled(32));
    let mut server = Server::new(config, fleet).unwrap();
    let trace = TrafficConfig {
        seed,
        requests: requests as usize,
        mean_interarrival: 3.0,
        deadline: 300,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();
    let outcome = server
        .run_soak(
            &trace,
            OpsPlan::none().with_snapshot_at(capture_at),
            &mut SimClock,
        )
        .unwrap();
    outcome.snapshot.expect("capture point inside the trace")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// decode(encode(s)) == s and encode(decode(bytes)) == bytes for
    /// arbitrary snapshots, including ladder states no live run may
    /// ever have produced.
    #[test]
    fn round_trip_is_identity_over_arbitrary_snapshots(
        seed in any::<u64>(),
        members in 1usize..5,
    ) {
        let snap = arbitrary_snapshot(seed, members);
        let bytes = snap.encode();
        let decoded = ServerSnapshot::decode(&bytes)
            .expect("encoded snapshot must decode");
        prop_assert_eq!(&decoded, &snap, "decode must invert encode");
        prop_assert_eq!(decoded.encode(), bytes, "re-encode must be stable");
    }

    /// Any truncation of a valid snapshot fails closed with the typed
    /// error — a partial snapshot is never accepted.
    #[test]
    fn any_truncation_fails_closed(
        seed in any::<u64>(),
        members in 1usize..4,
        cut_pick in any::<u64>(),
    ) {
        let bytes = arbitrary_snapshot(seed, members).encode();
        let cut = (cut_pick % bytes.len() as u64) as usize;
        let result = ServerSnapshot::decode(&bytes[..cut]);
        prop_assert!(
            matches!(result, Err(ServeError::BadSnapshot(_))),
            "truncation at {} of {} must fail closed, got {:?}",
            cut,
            bytes.len(),
            result.map(|_| "decoded")
        );
    }

    /// Any single corrupted byte fails closed: the checksum (or a layer
    /// above it) catches every flip, including flips inside the
    /// checksum itself.
    #[test]
    fn any_corrupted_byte_fails_closed(
        seed in any::<u64>(),
        members in 1usize..4,
        pos_pick in any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut bytes = arbitrary_snapshot(seed, members).encode();
        let pos = (pos_pick % bytes.len() as u64) as usize;
        bytes[pos] ^= 1u8 << bit;
        let result = ServerSnapshot::decode(&bytes);
        prop_assert!(
            matches!(result, Err(ServeError::BadSnapshot(_))),
            "flip at byte {} bit {} must fail closed, got {:?}",
            pos,
            bit,
            result.map(|_| "decoded")
        );
    }

    /// Arbitrary garbage never panics the decoder and never decodes.
    #[test]
    fn garbage_bytes_never_panic_never_decode(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let result = ServerSnapshot::decode(&bytes);
        prop_assert!(
            matches!(result, Err(ServeError::BadSnapshot(_))),
            "random bytes must be rejected"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshots captured from real mid-traffic runs round-trip exactly,
    /// and survive neither truncation nor corruption.
    #[test]
    fn captured_snapshots_round_trip_and_fail_closed(
        seed in any::<u64>(),
        requests in 24u64..96,
        cut_pick in any::<u64>(),
    ) {
        let capture_at = requests / 2;
        let bytes = captured_snapshot(seed, requests, capture_at);
        let decoded = ServerSnapshot::decode(&bytes).expect("captured snapshot decodes");
        prop_assert_eq!(decoded.encode(), bytes.clone(), "re-encode must be byte-stable");
        prop_assert_eq!(decoded.run.next_arrival, capture_at);
        let cut = (cut_pick % bytes.len() as u64) as usize;
        prop_assert!(ServerSnapshot::decode(&bytes[..cut]).is_err());
        let mut corrupt = bytes;
        let pos = (cut_pick % corrupt.len() as u64) as usize;
        corrupt[pos] ^= 0x01;
        prop_assert!(ServerSnapshot::decode(&corrupt).is_err());
    }
}

/// A fixed mid-run capture from a two-member fleet: a 12-entry cache
/// cycling 24 inputs (so it has evicted and served hits), a 2-bit strike
/// on member 0 that walks its ladder, and batches still in flight at the
/// capture point. Length and CRC are pinned: any change to the field
/// order, widths or content of the encoding fails here.
#[test]
fn fixed_mid_run_capture_known_answer() {
    let mut rng = DetRng::new(0x005E_ED16);
    let model = ModelBuilder::new(Shape::vector(4))
        .dense(6, &mut rng)
        .unwrap()
        .relu()
        .dense(3, &mut rng)
        .unwrap()
        .softmax()
        .build()
        .unwrap();
    let inputs: Vec<Vec<f32>> = (0..24)
        .map(|_| (0..4).map(|_| rng.next_f32()).collect())
        .collect();
    let mut engine = HardenedEngine::new(model, HardenConfig::default()).unwrap();
    engine.calibrate(&inputs).unwrap();
    let fleet = Fleet::builder()
        .register("a", PoolBackend::new(&engine, 1).unwrap())
        .register("b", PoolBackend::new(&engine, 1).unwrap())
        .build()
        .unwrap();
    let config = ServerConfig::default()
        .with_cache(CacheConfig::enabled(12))
        .with_campaign("snapshot-kat");
    let mut server = Server::new(config, fleet).unwrap();
    let trace = TrafficConfig {
        seed: 0x005E_ED16,
        requests: 160,
        mean_interarrival: 2.0,
        deadline: 300,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();
    let outcome = server
        .run_soak_with(
            &trace,
            OpsPlan::none().with_snapshot_at(120),
            &mut SimClock,
            |request, fleet| {
                if request.id == 40 {
                    fleet
                        .backend_mut(ModelId::new(0))
                        .unwrap()
                        .strike_weights(0xBAD5EED, 1, 2)
                        .unwrap();
                }
            },
        )
        .unwrap();
    let bytes = outcome.snapshot.expect("capture point inside the trace");
    assert_eq!(
        (bytes.len(), ServerSnapshot::stored_checksum(&bytes)),
        (17_352, Some(0xb247_1345))
    );
    let snap = ServerSnapshot::decode(&bytes).unwrap();

    // The capture exercises what it claims to.
    assert!(!snap.run.inflight.is_empty(), "batches in flight");
    assert_eq!(snap.cache_entries.len(), 12, "cache full");
    let m = snap.run.metrics.snapshot();
    let computed = m.total_completed() - m.total_cached();
    assert!(
        computed > 24,
        "24 inputs computed {computed} times: the cache has evicted"
    );
    let has = |kind| snap.chain.iter().any(|e| e.kind == kind);
    assert!(has(RecordKind::CacheHit));
    assert!(has(RecordKind::HealthTransition));
    assert!(!snap.run.transitions.is_empty());

    assert_eq!(snap.encode(), bytes, "live capture == decode + encode");
}
