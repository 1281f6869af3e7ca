//! The fleet serving loop: admission → fairness → routing → dispatch →
//! retirement — plus the soak runtime wrapped around it.
//!
//! [`Server::run_trace`] replays an [`ArrivalTrace`] through a
//! discrete-event simulation of a multi-model serving runtime. The clock
//! is a `u64` tick counter advanced only by trace timestamps and the
//! [`ServiceModel`]'s execution cost — never a wall clock — so the entire
//! run, including batch boundaries, routing decisions, shedding, and
//! every member's degradation-ladder walk, is a pure function of its
//! inputs and replays byte-for-byte. [`Server::run_soak`] is the same
//! loop paced by a pluggable [`ClockSource`] (a real soak run uses
//! [`crate::clock::WallClock`]; tests use the free-running sim clock) and
//! driven by an [`OpsPlan`] of scripted operational events.
//!
//! ## The event loop
//!
//! Four event kinds drive the clock, processed in strict time order
//! (and in a fixed order within a tick):
//!
//! 1. **Retirement** — a dispatched batch reaches its completion tick:
//!    its member's monitor absorbs the verdicts, responses are emitted,
//!    verified results enter the cache. Verdicts were *computed* at
//!    dispatch (the batch physically ran then), but their effects land
//!    at the completion tick, so a fault strike that arrives mid-flight
//!    cannot retroactively poison a batch that started before it.
//!    Items withheld because their member's ladder reached `SafeStop`
//!    **fail over**: an unpinned, in-deadline request whose result was
//!    withheld is re-queued and recomputed on a healthy peer — one
//!    member failing costs the fleet latency, not answers.
//! 2. **Arrival** — a request is admitted: fault-injection hook, fleet
//!    health gate, result-cache lookup, bounded queue with tier-ordered
//!    displacement. Scripted soak events (snapshot capture, hot-swap
//!    requests) trigger on request ids, immediately before admission.
//! 3. **Flush** — the batch policy says the queue should dispatch:
//!    fairness selects the round's requests, the routing policy places
//!    each on an eligible member, one batch per idle member starts.
//! 4. **Watchdog** — when enabled, a per-stage liveness deadline or
//!    proof cadence comes due (see [`crate::soak`]). With the watchdog
//!    disabled this source contributes no events and the loop is
//!    tick-for-tick the plain replay loop.
//!
//! ## Soak runtime: snapshot, restore, hot swap
//!
//! A soak run can capture a [`ServerSnapshot`] immediately before a
//! scripted request id: ladder states, queue residue, in-flight batches,
//! metrics counters, the evidence chain, the result cache, and backend
//! work clocks. [`Server::restore`] rebuilds a server from those bytes
//! (failing closed on any corruption) and resumes the same trace
//! mid-stream; the resumed run's [`ServeReport::replay_json`] is
//! byte-identical to the uninterrupted run's. The chains differ by
//! exactly one `runtime_restored` record — restores are themselves
//! evidence — which is why fidelity is defined over `replay_json` (the
//! report minus `chain_head`) rather than the full JSON.
//!
//! A hot swap ([`SwapOp`]) quiesces one member: the member stops taking
//! new batches, its in-flight batches retire, then the incoming backend
//! re-goldens and verifies its weights ([`Backend::prepare_swap`]), the
//! digest gate checks any pinned expectation, and the swap commits —
//! fresh Nominal ladder, member's cache entries purged, `model_swapped`
//! on the chain. Any verification failure aborts the swap with the old
//! model still serving, untouched.

use safex_core::health::{HealthMonitor, HealthState, HealthVerdict};
use safex_trace::json::Json;
use safex_trace::{EvidenceChain, Fnv64, RecordKind, Value};

use crate::backend::{Backend, BatchVerdict};
use crate::batcher::ServiceModel;
use crate::cache::ResultCache;
use crate::clock::{ClockSource, SimClock};
use crate::config::ServerConfig;
use crate::error::ServeError;
use crate::fleet::Fleet;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{Admission, AdmissionQueue, Pending};
use crate::request::{ModelId, Outcome, Request, Response, ShedReason};
use crate::route::{admits, severity, CandidateView, RouteView, RoutingPolicy};
use crate::snapshot::{RunSnapshot, RunView, ServerSnapshot, SnapshotView};
use crate::soak::{
    OpsPlan, SoakOutcome, SoakStats, StallOp, SwapEvent, SwapOp, WatchStage, WatchdogState,
};
use crate::traffic::ArrivalTrace;

/// One recorded service-level change on one fleet member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceTransition {
    /// The member whose ladder moved.
    pub model: ModelId,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Tick at which the triggering batch completed.
    pub at_tick: u64,
    /// The request whose decision fired the transition.
    pub after_request: u64,
}

/// One fleet member's health story over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSummary {
    /// The member's id.
    pub model: ModelId,
    /// The member's registered name.
    pub name: String,
    /// Ladder state at the end of the run.
    pub final_state: HealthState,
    /// Decisions absorbed while `Nominal`.
    pub time_nominal: u64,
    /// Decisions absorbed while `Degraded`.
    pub time_degraded: u64,
    /// Decisions absorbed while `SafeStop`.
    pub time_stopped: u64,
    /// Ladder transitions over the member's lifetime.
    pub transitions: usize,
}

/// The complete, reproducible result of one trace replay.
///
/// `#[non_exhaustive]`: reports are produced by the server and read by
/// callers; new fields (the fleet redesign added `models` and `routing`,
/// the soak runtime added `soak`) append without breaking downstream
/// matches.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServeReport {
    /// One response per request, ordered by request id.
    pub responses: Vec<Response>,
    /// Service-level transitions across the fleet, in occurrence order.
    pub transitions: Vec<ServiceTransition>,
    /// Per-member health summaries, indexed by [`ModelId`].
    pub models: Vec<ModelSummary>,
    /// The routing policy that placed the batches.
    pub routing: String,
    /// Frozen metrics.
    pub snapshot: MetricsSnapshot,
    /// Head hash of the evidence chain after the run (binds the report
    /// to the recorded transition and cache-hit evidence).
    pub chain_head: u64,
    /// Soak-runtime counters (swaps, watchdog activity); stays at
    /// `Default` — and out of the JSON — for plain replay runs.
    pub soak: SoakStats,
}

impl ServeReport {
    /// Serialises the full report (responses, transitions, per-member
    /// summaries, metrics) to deterministic JSON — the byte-for-byte
    /// replay artefact.
    pub fn to_json(&self) -> Json {
        let mut root = self.replay_json();
        root.set("chain_head", Json::Str(format!("{:016x}", self.chain_head)));
        root
    }

    /// The report JSON *minus* `chain_head` — the restore-fidelity
    /// artefact. A restored run's chain carries one extra
    /// `runtime_restored` record (the restore itself is evidence), so its
    /// head hash legitimately differs from the uninterrupted run's; every
    /// observable serving outcome must still match byte-for-byte, and
    /// this projection is what that claim is checked against.
    pub fn replay_json(&self) -> Json {
        let responses: Vec<Json> = self
            .responses
            .iter()
            .map(|r| {
                let mut obj = Json::object();
                obj.set("id", Json::from(r.id))
                    .set("tier", Json::from(r.tier.tag()))
                    .set("arrived", Json::from(r.arrived_at))
                    .set("resolved", Json::from(r.resolved_at))
                    .set("outcome", Json::from(r.outcome.tag()));
                match &r.outcome {
                    Outcome::Completed {
                        class,
                        confidence,
                        flagged,
                        level,
                        model,
                        cached,
                    } => {
                        obj.set("class", Json::from(*class))
                            .set("confidence", Json::from(f64::from(*confidence)))
                            .set("flagged", Json::from(*flagged))
                            .set("level", Json::from(level.tag()))
                            .set("model", Json::from(model.to_string()))
                            .set("cached", Json::from(*cached));
                    }
                    Outcome::Shed(reason) => {
                        obj.set("reason", Json::from(reason.tag()));
                        match reason {
                            ShedReason::Displaced { by } => {
                                obj.set("displaced_by", Json::from(*by));
                            }
                            ShedReason::DegradedTier { model } => {
                                obj.set("model", Json::from(model.to_string()));
                            }
                            ShedReason::QueueFull => {}
                        }
                    }
                    Outcome::SafeStop { model } => {
                        if let Some(model) = model {
                            obj.set("model", Json::from(model.to_string()));
                        }
                    }
                    Outcome::Timeout => {}
                }
                obj
            })
            .collect();
        let transitions: Vec<Json> = self
            .transitions
            .iter()
            .map(|t| {
                let mut obj = Json::object();
                obj.set("model", Json::from(t.model.to_string()))
                    .set("from", Json::from(t.from.tag()))
                    .set("to", Json::from(t.to.tag()))
                    .set("at_tick", Json::from(t.at_tick))
                    .set("after_request", Json::from(t.after_request));
                obj
            })
            .collect();
        let mut models = Json::object();
        for m in &self.models {
            let mut obj = Json::object();
            obj.set("name", Json::from(m.name.as_str()))
                .set("final_state", Json::from(m.final_state.tag()))
                .set("time_nominal", Json::from(m.time_nominal))
                .set("time_degraded", Json::from(m.time_degraded))
                .set("time_stopped", Json::from(m.time_stopped))
                .set("transitions", Json::from(m.transitions));
            models.set(m.model.to_string(), obj);
        }
        let mut root = Json::object();
        root.set("responses", Json::Arr(responses))
            .set("transitions", Json::Arr(transitions))
            .set("models", models)
            .set("routing", Json::from(self.routing.as_str()))
            .set("metrics", self.snapshot.to_json());
        if !self.soak.is_default() {
            root.set("soak", self.soak.to_json());
        }
        root
    }

    /// FNV-1a digest of [`ServeReport::replay_json`] — the compact form
    /// of the restore-fidelity comparison.
    pub fn replay_digest(&self) -> u64 {
        let mut fnv = Fnv64::new();
        fnv.write_bytes(self.replay_json().to_string_compact().as_bytes());
        fnv.finish()
    }
}

/// A batch that has been executed but whose effects have not yet landed:
/// verdicts are computed at dispatch, applied at `done_at`. Public so
/// snapshots can carry mid-flight batches across a restore.
#[derive(Debug, Clone, PartialEq)]
pub struct InFlightBatch {
    /// The member executing the batch.
    pub model: ModelId,
    /// Tick at which the batch's effects land.
    pub done_at: u64,
    /// The batch items with their precomputed verdicts.
    pub items: Vec<(Pending, BatchVerdict)>,
}

/// Everything the event loop mutates while replaying a trace. Factored
/// out of the loop body so a snapshot can freeze it mid-run and a
/// restore can resume from it.
pub(crate) struct RunState {
    responses: Vec<Response>,
    transitions: Vec<ServiceTransition>,
    metrics: Metrics,
    queue: AdmissionQueue,
    inflight: Vec<InFlightBatch>,
    free_at: Vec<u64>,
    decisions: u64,
    next: usize,
    now: u64,
    /// Set when a flush round at the current state cannot place
    /// anything (every target busy); cleared by the next retirement
    /// or arrival, which are the only events that change that state.
    stalled: bool,
    watchdog: WatchdogState,
    stats: SoakStats,
}

impl RunState {
    fn fresh(models: usize, queue_cap: usize, arrivals: usize) -> Self {
        RunState {
            responses: Vec::with_capacity(arrivals),
            transitions: Vec::new(),
            metrics: Metrics::new(models),
            queue: AdmissionQueue::new(queue_cap),
            inflight: Vec::new(),
            free_at: vec![0u64; models],
            decisions: 0,
            next: 0,
            now: 0,
            stalled: false,
            watchdog: WatchdogState::default(),
            stats: SoakStats::default(),
        }
    }

    /// The borrowed view a snapshot capture encodes.
    fn view(&self) -> RunView<'_> {
        RunView {
            responses: &self.responses,
            transitions: &self.transitions,
            metrics: &self.metrics,
            queue_items: self.queue.items(),
            queue_cap: self.queue.cap() as u64,
            queue_peak: self.queue.peak() as u64,
            inflight: &self.inflight,
            free_at: &self.free_at,
            decisions: self.decisions,
            next_arrival: self.next as u64,
            now: self.now,
            stalled: self.stalled,
            watchdog: &self.watchdog,
            stats: &self.stats,
        }
    }

    fn from_snapshot(snap: RunSnapshot) -> Self {
        RunState {
            responses: snap.responses,
            transitions: snap.transitions,
            metrics: snap.metrics,
            queue: AdmissionQueue::from_parts(
                snap.queue_items,
                snap.queue_cap as usize,
                snap.queue_peak as usize,
            ),
            inflight: snap.inflight,
            free_at: snap.free_at,
            decisions: snap.decisions,
            next: snap.next_arrival as usize,
            now: snap.now,
            stalled: snap.stalled,
            watchdog: snap.watchdog,
            stats: snap.stats,
        }
    }
}

/// A hot swap whose member is draining its in-flight batches.
struct DrainingSwap<B> {
    op: SwapOp<B>,
    requested_at: u64,
}

/// Scripted-operations bookkeeping for one soak run.
struct SoakCtx<B> {
    swaps: Vec<SwapOp<B>>,
    stalls: Vec<StallOp>,
    snapshot_at: Option<u64>,
    draining: Vec<DrainingSwap<B>>,
    captured: Option<Vec<u8>>,
}

/// Repeatedly bumps `t` out of any `stage` stall window containing it.
fn stall_clamp(stalls: &[StallOp], stage: WatchStage, mut t: u64) -> u64 {
    loop {
        let mut bumped = false;
        for stall in stalls {
            if stall.stage == stage && stall.from <= t && t < stall.until {
                t = stall.until;
                bumped = true;
            }
        }
        if !bumped {
            return t;
        }
    }
}

/// The deterministic fleet serving runtime.
pub struct Server<B: Backend> {
    fleet: Fleet<B>,
    config: ServerConfig,
    router: Box<dyn RoutingPolicy>,
    monitors: Vec<HealthMonitor>,
    cache: ResultCache,
    chain: EvidenceChain,
    /// Set by [`Server::restore`]: the trace digest the restored state
    /// belongs to, plus the state itself. Consumed by the next run.
    resume: Option<(u64, RunState)>,
}

impl<B: Backend> Server<B> {
    /// Assembles a fleet server with the config's built-in routing
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for an invalid batch policy,
    /// health, cache, or watchdog configuration, and
    /// [`ServeError::DuplicateMember`] when two members share a name.
    pub fn new(config: ServerConfig, fleet: Fleet<B>) -> Result<Self, ServeError> {
        let router = config.routing.policy();
        Server::with_router(config, fleet, router)
    }

    /// Assembles a fleet server with a custom routing policy (which must
    /// be pure in the decision index — see [`crate::route`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] as [`Server::new`] does, and
    /// [`ServeError::DuplicateMember`] for aliased member names (the
    /// builder already rejects them; this guards fleets assembled
    /// through other paths).
    pub fn with_router(
        config: ServerConfig,
        fleet: Fleet<B>,
        router: Box<dyn RoutingPolicy>,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        for (i, member) in fleet.members().iter().enumerate() {
            if fleet.members()[..i]
                .iter()
                .any(|p| p.name() == member.name())
            {
                return Err(ServeError::DuplicateMember(member.name().to_string()));
            }
        }
        let monitors = fleet
            .ids()
            .map(|_| HealthMonitor::new(config.health))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ServeError::BadConfig(e.to_string()))?;
        Ok(Server {
            cache: ResultCache::new(config.cache),
            chain: EvidenceChain::new(config.campaign.clone()),
            fleet,
            config,
            router,
            monitors,
            resume: None,
        })
    }

    /// Rebuilds a server from snapshot bytes and arms it to resume the
    /// interrupted run: the next `run_trace`/`run_soak` against the same
    /// trace continues from the captured tick instead of starting fresh.
    ///
    /// The caller supplies `fleet` with the same weights the snapshot was
    /// captured under (weights live in the backends, not the snapshot);
    /// backend work clocks are resynced from the snapshot. The restore
    /// appends a `runtime_restored` evidence record — restores are
    /// auditable events, not silent ones.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadSnapshot`] on any corruption, version or
    /// checksum mismatch, configuration/fleet-shape mismatch, invalid
    /// ladder state, or evidence-chain head mismatch. Restores fail
    /// closed: on error the snapshot is fully rejected, no partial state
    /// is applied.
    pub fn restore(
        config: ServerConfig,
        fleet: Fleet<B>,
        bytes: &[u8],
    ) -> Result<Self, ServeError> {
        let ServerSnapshot {
            config_digest,
            trace_digest,
            monitors,
            cache_entries,
            chain: records,
            chain_head,
            backend_clocks,
            run,
            ..
        } = ServerSnapshot::decode(bytes)?;
        let mut server = Server::new(config, fleet)?;
        if server.config_digest() != config_digest {
            return Err(ServeError::BadSnapshot(
                "server configuration does not match the snapshot's".into(),
            ));
        }
        let members = server.fleet.len();
        if monitors.len() != members
            || backend_clocks.len() != members
            || run.free_at.len() != members
        {
            return Err(ServeError::BadSnapshot(format!(
                "snapshot shape ({} monitors, {} clocks) does not fit a fleet of {members}",
                monitors.len(),
                backend_clocks.len()
            )));
        }
        // Stage everything fallible before committing any of it. The
        // decoded snapshot is consumed: its ladders, fields and inputs
        // move into the server rather than being copied.
        let monitors = monitors
            .into_iter()
            .map(|ladder| HealthMonitor::restore(server.config.health, ladder))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ServeError::BadSnapshot(e.to_string()))?;
        let restored_records = records.len() as u64;
        let mut chain = EvidenceChain::new(server.config.campaign.clone());
        for entry in records {
            chain.append(entry.kind, entry.fields);
        }
        if chain.head_hash() != chain_head {
            return Err(ServeError::BadSnapshot(
                "re-appended evidence chain does not reproduce the snapshot head".into(),
            ));
        }
        let mut cache = ResultCache::new(server.config.cache);
        for entry in cache_entries {
            cache.insert_owned(entry.input, entry.class, entry.confidence, entry.model);
        }
        // Commit.
        server.monitors = monitors;
        server.chain = chain;
        server.cache = cache;
        for (i, &work) in backend_clocks.iter().enumerate() {
            server
                .fleet
                .backend_mut(ModelId::new(i as u16))
                .expect("shape checked above")
                .resync(work);
        }
        let checksum = ServerSnapshot::stored_checksum(bytes).unwrap_or(0);
        server.chain.append(
            RecordKind::RuntimeRestored,
            vec![
                ("server".into(), Value::Str("safex-serve".into())),
                ("at_tick".into(), Value::U64(run.now)),
                ("checksum".into(), Value::Str(format!("{checksum:08x}"))),
                ("records".into(), Value::U64(restored_records)),
                ("members".into(), Value::U64(members as u64)),
            ],
        );
        server.resume = Some((trace_digest, RunState::from_snapshot(run)));
        Ok(server)
    }

    /// `true` when this server holds restored mid-run state waiting for
    /// its trace to be re-run.
    pub fn pending_restore(&self) -> bool {
        self.resume.is_some()
    }

    /// The fleet-wide service level: the *worst* member state, so a
    /// single-member fleet reports exactly what its one ladder says.
    pub fn service_level(&self) -> HealthState {
        self.monitors
            .iter()
            .map(|m| m.state())
            .max_by_key(|s| severity(*s))
            .unwrap_or(HealthState::Nominal)
    }

    /// One member's current service level.
    pub fn model_state(&self, model: ModelId) -> Option<HealthState> {
        self.monitors.get(model.index()).map(|m| m.state())
    }

    /// The evidence chain accumulated across runs.
    pub fn evidence(&self) -> &EvidenceChain {
        &self.chain
    }

    /// The fleet registry.
    pub fn fleet(&self) -> &Fleet<B> {
        &self.fleet
    }

    /// Member 0's backend — the convenience accessor for single-model
    /// deployments built on [`Fleet::single`].
    pub fn backend(&self) -> &B {
        self.fleet.members()[0].backend()
    }

    /// FNV-1a digest of every behaviour-relevant configuration knob plus
    /// the router name. Snapshots carry it so a restore against a
    /// different configuration fails closed instead of resuming a run
    /// the new configuration would never have produced.
    pub fn config_digest(&self) -> u64 {
        let c = &self.config;
        let mut fnv = Fnv64::new();
        fnv.write_u64(c.policy.max_batch as u64);
        fnv.write_u64(c.policy.flush_slack);
        fnv.write_u64(c.policy.max_linger);
        fnv.write_u64(c.policy.queue_cap as u64);
        fnv.write_u64(c.service.batch_overhead);
        fnv.write_u64(c.service.per_item);
        for v in [
            c.health.window,
            c.health.degrade_events,
            c.health.stop_events,
            c.health.recover_after,
            c.health.resume_after,
            c.health.warn_budget,
        ] {
            fnv.write_u64(u64::from(v));
        }
        fnv.write_u64(c.degraded_floor.index() as u64);
        fnv.write_u64(c.fairness.age_step);
        for r in c.fairness.reserved {
            fnv.write_u64(r as u64);
        }
        fnv.write_u64(u64::from(c.cache.enabled));
        fnv.write_u64(c.cache.capacity as u64);
        fnv.write_u64(u64::from(c.watchdog.enabled));
        for d in c.watchdog.stage_deadline {
            fnv.write_u64(d);
        }
        fnv.write_u64(c.watchdog.proof_cadence);
        fnv.write_bytes(c.campaign.as_bytes());
        fnv.write_bytes(self.router.name().as_bytes());
        fnv.finish()
    }

    /// Replays a trace to completion.
    ///
    /// # Errors
    ///
    /// Propagates backend infrastructure failures; outcome-level
    /// failures (sheds, timeouts, stops) are data, not errors.
    pub fn run_trace(&mut self, trace: &ArrivalTrace) -> Result<ServeReport, ServeError> {
        self.run_trace_with(trace, |_, _| {})
    }

    /// Replays a trace, invoking `on_arrival` for every arrival *before*
    /// admission — the deterministic hook fault-injection harnesses use
    /// to strike fleet members mid-traffic (keyed by request id, not
    /// wall time, so strikes replay exactly).
    ///
    /// # Errors
    ///
    /// Propagates backend infrastructure failures.
    pub fn run_trace_with<F>(
        &mut self,
        trace: &ArrivalTrace,
        on_arrival: F,
    ) -> Result<ServeReport, ServeError>
    where
        F: FnMut(&Request, &mut Fleet<B>),
    {
        let mut clock = SimClock;
        self.run_inner(trace, OpsPlan::none(), &mut clock, on_arrival)
            .map(|outcome| outcome.report)
    }

    /// Runs the trace as a soak: the replay loop paced by `clock` and
    /// driven by the scripted [`OpsPlan`] (hot swaps, stage stalls, a
    /// snapshot capture point). With an empty plan, a disabled watchdog,
    /// and the sim clock, this is byte-identical to [`Server::run_trace`].
    ///
    /// # Errors
    ///
    /// Propagates backend infrastructure failures, an invalid plan, and
    /// [`ServeError::BadSnapshot`] when a capture point lands while a
    /// hot swap is still draining (snapshots of half-performed swaps are
    /// not representable, by design).
    pub fn run_soak(
        &mut self,
        trace: &ArrivalTrace,
        ops: OpsPlan<B>,
        clock: &mut dyn ClockSource,
    ) -> Result<SoakOutcome, ServeError> {
        self.run_inner(trace, ops, clock, |_, _| {})
    }

    /// [`Server::run_soak`] with a fault-injection hook, so soak
    /// campaigns can combine scripted operations with weight strikes.
    ///
    /// # Errors
    ///
    /// As [`Server::run_soak`].
    pub fn run_soak_with<F>(
        &mut self,
        trace: &ArrivalTrace,
        ops: OpsPlan<B>,
        clock: &mut dyn ClockSource,
        on_arrival: F,
    ) -> Result<SoakOutcome, ServeError>
    where
        F: FnMut(&Request, &mut Fleet<B>),
    {
        self.run_inner(trace, ops, clock, on_arrival)
    }

    /// The unified event loop behind both `run_trace` and `run_soak`.
    fn run_inner<F>(
        &mut self,
        trace: &ArrivalTrace,
        ops: OpsPlan<B>,
        clock: &mut dyn ClockSource,
        mut on_arrival: F,
    ) -> Result<SoakOutcome, ServeError>
    where
        F: FnMut(&Request, &mut Fleet<B>),
    {
        ops.validate(self.fleet.len())?;
        let arrivals = trace.arrivals();
        let mut run = match self.resume.take() {
            Some((digest, run)) => {
                if digest != trace.digest() {
                    return Err(ServeError::BadSnapshot(
                        "restored run state belongs to a different arrival trace".into(),
                    ));
                }
                run
            }
            None => {
                let mut fresh = RunState::fresh(
                    self.fleet.len(),
                    self.config.policy.queue_cap,
                    arrivals.len(),
                );
                if self.config.watchdog.enabled && self.config.watchdog.proof_cadence > 0 {
                    fresh.watchdog.next_proof = self.config.watchdog.proof_cadence;
                }
                fresh
            }
        };
        let mut ctx = SoakCtx {
            swaps: ops.swaps,
            stalls: ops.stalls,
            snapshot_at: ops.snapshot_at,
            draining: Vec::new(),
            captured: None,
        };

        while run.next < arrivals.len() || !run.queue.is_empty() || !run.inflight.is_empty() {
            let next_arrival = arrivals.get(run.next).map(|a| a.at);
            let next_retire = run.inflight.iter().map(|b| b.done_at).min();
            let next_flush = self.next_flush_tick(&run, &ctx.stalls);
            let next_watchdog = if self.config.watchdog.enabled {
                self.next_watchdog_tick(&run, arrivals.len())
            } else {
                None
            };
            let Some(tick) = [next_arrival, next_retire, next_flush, next_watchdog]
                .into_iter()
                .flatten()
                .min()
            else {
                unreachable!("loop invariant: pending work implies a pending event");
            };
            run.now = tick;
            clock.pace(tick);

            // 0. Watchdog checks precede the pipeline stages they judge:
            //    a stage is late only relative to the tick being entered.
            if self.config.watchdog.enabled {
                self.watchdog_tick(&mut run, arrivals.len());
            }

            // 1. Retire every batch completing at this tick, in dispatch
            //    order, before anything at this tick observes health.
            if next_retire == Some(run.now) {
                let mut retiring = Vec::new();
                let mut rest = Vec::new();
                for batch in run.inflight.drain(..) {
                    if batch.done_at <= run.now {
                        retiring.push(batch);
                    } else {
                        rest.push(batch);
                    }
                }
                run.inflight = rest;
                let watched = self.config.watchdog.enabled;
                for batch in retiring {
                    self.retire(batch, &mut run);
                    if watched {
                        Self::kick(&mut run, WatchStage::Backend);
                        Self::kick(&mut run, WatchStage::Release);
                    }
                }
                run.stalled = false;
                // A draining member whose last batch just retired is now
                // quiesced: its swap can resolve.
                if !ctx.draining.is_empty() {
                    self.try_commit_swaps(&mut run, &mut ctx);
                }
            }

            // 2. Admit every arrival at this tick; scripted soak events
            //    keyed on a request id fire immediately before it is
            //    admitted.
            while run.next < arrivals.len() && arrivals[run.next].at == run.now {
                let rid = arrivals[run.next].request.id;
                if ctx.snapshot_at == Some(rid) && ctx.captured.is_none() {
                    if !ctx.draining.is_empty() {
                        return Err(ServeError::BadSnapshot(
                            "cannot snapshot during a pending hot swap".into(),
                        ));
                    }
                    ctx.captured = Some(self.capture_snapshot(trace, &run));
                }
                let mut i = 0;
                while i < ctx.swaps.len() {
                    if ctx.swaps[i].at_request == rid {
                        let op = ctx.swaps.remove(i);
                        ctx.draining.push(DrainingSwap {
                            op,
                            requested_at: run.now,
                        });
                    } else {
                        i += 1;
                    }
                }
                if !ctx.draining.is_empty() {
                    // An idle member swaps instantly; a busy one drains.
                    self.try_commit_swaps(&mut run, &mut ctx);
                }
                let arrival = arrivals[run.next].clone();
                run.next += 1;
                self.admit(arrival.request, &mut run, &mut on_arrival);
                if self.config.watchdog.enabled {
                    Self::kick(&mut run, WatchStage::Admission);
                }
                run.stalled = false;
            }

            // 3. Dispatch when the (recomputed) flush tick has come.
            if !run.queue.is_empty() && !run.stalled {
                let due = self
                    .next_flush_tick(&run, &ctx.stalls)
                    .is_some_and(|f| f <= run.now);
                if due {
                    let progressed = self.dispatch_round(&mut run, &ctx.draining, &ctx.stalls)?;
                    if !progressed {
                        run.stalled = true;
                    }
                }
            }
        }

        // Safety net: a swap whose member idled out exactly at trace end.
        if !ctx.draining.is_empty() {
            self.try_commit_swaps(&mut run, &mut ctx);
        }
        debug_assert_eq!(
            run.responses.len(),
            arrivals.len(),
            "one response per request"
        );
        let report = self.finish_report(run);
        Ok(SoakOutcome {
            report,
            snapshot: ctx.captured,
        })
    }

    /// The tick at which the current queue should flush, if any:
    /// `None` while the queue is empty or the last round stalled;
    /// the current tick when the whole fleet is stopped (drain);
    /// otherwise the batch policy's flush tick, clamped forward out of
    /// any scripted batcher stall.
    fn next_flush_tick(&self, run: &RunState, stalls: &[StallOp]) -> Option<u64> {
        if run.queue.is_empty() || run.stalled {
            return None;
        }
        let flush = if self.all_stopped() {
            // Nothing can ever serve the queued work: drain it now.
            run.now
        } else {
            let fleet_free = self
                .monitors
                .iter()
                .enumerate()
                .filter(|(_, m)| m.state() != HealthState::SafeStop)
                .map(|(i, _)| run.free_at[i])
                .min()
                .expect("non-stopped member exists");
            self.config.policy.flush_at(run.queue.items(), fleet_free)?
        };
        Some(stall_clamp(stalls, WatchStage::Batcher, flush.max(run.now)))
    }

    /// Records one stage's liveness heartbeat: progress resets its
    /// strike ladder.
    fn kick(run: &mut RunState, stage: WatchStage) {
        let i = stage.index();
        run.watchdog.last_progress[i] = run.now;
        run.watchdog.strikes[i] = 0;
        run.stats.watchdog_kicks[i] += 1;
    }

    /// Whether a stage currently has work it must be making progress on.
    fn stage_armed(run: &RunState, stage: WatchStage, total_arrivals: usize) -> bool {
        match stage {
            WatchStage::Admission => run.next < total_arrivals,
            WatchStage::Batcher => !run.queue.is_empty(),
            WatchStage::Backend | WatchStage::Release => !run.inflight.is_empty(),
        }
    }

    /// The next tick at which the watchdog itself needs to run: the
    /// earliest stage strike deadline, or the proof cadence.
    fn next_watchdog_tick(&self, run: &RunState, total_arrivals: usize) -> Option<u64> {
        let cfg = &self.config.watchdog;
        let mut next: Option<u64> = None;
        for stage in WatchStage::ALL {
            let i = stage.index();
            if !Self::stage_armed(run, stage, total_arrivals) || run.watchdog.strikes[i] >= 3 {
                continue;
            }
            let due = run.watchdog.last_progress[i]
                + cfg.stage_deadline[i] * (u64::from(run.watchdog.strikes[i]) + 1);
            next = Some(next.map_or(due, |n: u64| n.min(due)));
        }
        if cfg.proof_cadence > 0 {
            next = Some(next.map_or(run.watchdog.next_proof, |n| n.min(run.watchdog.next_proof)));
        }
        next.map(|t| t.max(run.now))
    }

    /// One watchdog pass at the tick being entered: unarmed stages are
    /// refreshed, armed stages past their deadline take a strike, and
    /// strikes walk the escalation ladder — warning alarm, fleet
    /// Degraded, fleet SafeStop — each step on the evidence chain.
    fn watchdog_tick(&mut self, run: &mut RunState, total_arrivals: usize) {
        let cfg = self.config.watchdog;
        let now = run.now;
        for stage in WatchStage::ALL {
            let i = stage.index();
            if !Self::stage_armed(run, stage, total_arrivals) {
                // Nothing to prove: an idle stage is trivially live.
                run.watchdog.last_progress[i] = now;
                run.watchdog.strikes[i] = 0;
                continue;
            }
            if run.watchdog.strikes[i] >= 3 {
                continue;
            }
            let due = run.watchdog.last_progress[i]
                + cfg.stage_deadline[i] * (u64::from(run.watchdog.strikes[i]) + 1);
            if now < due {
                continue;
            }
            run.watchdog.strikes[i] += 1;
            let stalled_for = now - run.watchdog.last_progress[i];
            match run.watchdog.strikes[i] {
                1 => {
                    self.chain.append(
                        RecordKind::WatchdogAlarm,
                        vec![
                            ("server".into(), Value::Str("safex-serve".into())),
                            ("stage".into(), Value::Str(stage.tag().into())),
                            ("at_tick".into(), Value::U64(now)),
                            ("stalled_for".into(), Value::U64(stalled_for)),
                            ("strike".into(), Value::U64(1)),
                        ],
                    );
                    run.stats.watchdog_alarms += 1;
                }
                2 => {
                    self.chain.append(
                        RecordKind::WatchdogEscalation,
                        vec![
                            ("server".into(), Value::Str("safex-serve".into())),
                            ("stage".into(), Value::Str(stage.tag().into())),
                            ("at_tick".into(), Value::U64(now)),
                            ("action".into(), Value::Str("degrade_fleet".into())),
                            ("strike".into(), Value::U64(2)),
                        ],
                    );
                    run.stats.watchdog_escalations += 1;
                    self.force_fleet(run, HealthState::Nominal, HealthState::Degraded);
                }
                _ => {
                    self.chain.append(
                        RecordKind::WatchdogEscalation,
                        vec![
                            ("server".into(), Value::Str("safex-serve".into())),
                            ("stage".into(), Value::Str(stage.tag().into())),
                            ("at_tick".into(), Value::U64(now)),
                            ("action".into(), Value::Str("safe_stop_fleet".into())),
                            ("strike".into(), Value::U64(3)),
                        ],
                    );
                    run.stats.watchdog_escalations += 1;
                    self.force_fleet(run, HealthState::Nominal, HealthState::SafeStop);
                    self.force_fleet(run, HealthState::Degraded, HealthState::SafeStop);
                    // The drain path must run even if the last dispatch
                    // round stalled: everything queued now resolves to a
                    // typed refusal.
                    run.stalled = false;
                }
            }
        }
        if cfg.proof_cadence > 0 && now >= run.watchdog.next_proof {
            while run.watchdog.next_proof <= now {
                run.watchdog.next_proof += cfg.proof_cadence;
            }
            let age = |i: usize| now - run.watchdog.last_progress[i].min(now);
            self.chain.append(
                RecordKind::WatchdogProof,
                vec![
                    ("server".into(), Value::Str("safex-serve".into())),
                    ("at_tick".into(), Value::U64(now)),
                    ("admission_age".into(), Value::U64(age(0))),
                    ("batcher_age".into(), Value::U64(age(1))),
                    ("backend_age".into(), Value::U64(age(2))),
                    ("release_age".into(), Value::U64(age(3))),
                ],
            );
            run.stats.watchdog_proofs += 1;
        }
    }

    /// Forces every member currently in `from` to `to`, recording the
    /// transitions exactly as verdict-driven ones are recorded. Members
    /// forced to SafeStop also lose their cache entries: the ladder no
    /// longer vouches for them.
    fn force_fleet(&mut self, run: &mut RunState, from: HealthState, to: HealthState) {
        let after_request = (run.next as u64).saturating_sub(1);
        for i in 0..self.monitors.len() {
            if self.monitors[i].state() != from {
                continue;
            }
            let model = ModelId::new(i as u16);
            if let Some(t) = self.monitors[i].force(to) {
                run.transitions.push(ServiceTransition {
                    model,
                    from: t.from,
                    to: t.to,
                    at_tick: run.now,
                    after_request,
                });
                self.chain.append(
                    RecordKind::HealthTransition,
                    vec![
                        ("server".into(), Value::Str("safex-serve".into())),
                        ("model".into(), Value::Str(model.to_string())),
                        ("from".into(), Value::Str(t.from.tag().into())),
                        ("to".into(), Value::Str(t.to.tag().into())),
                        ("at_tick".into(), Value::U64(run.now)),
                        ("after_request".into(), Value::U64(after_request)),
                    ],
                );
                if t.to == HealthState::SafeStop {
                    self.cache.purge_model(model);
                }
            }
        }
    }

    /// Resolves every draining swap whose member has quiesced (no batch
    /// in flight): verify the incoming backend, then commit or abort.
    fn try_commit_swaps(&mut self, run: &mut RunState, ctx: &mut SoakCtx<B>) {
        let mut i = 0;
        while i < ctx.draining.len() {
            let member = ctx.draining[i].op.model;
            if run.inflight.iter().any(|b| b.model == member) {
                i += 1;
                continue;
            }
            let draining = ctx.draining.remove(i);
            self.resolve_swap(run, draining);
        }
    }

    /// The commit point of one quiesced hot swap: re-golden and verify
    /// the incoming weights, check the digest gate, then atomically
    /// replace the backend — or abort with the old model untouched.
    fn resolve_swap(&mut self, run: &mut RunState, draining: DrainingSwap<B>) {
        let DrainingSwap { op, requested_at } = draining;
        let SwapOp {
            model,
            mut incoming,
            expected_digest,
            ..
        } = op;
        let now = run.now;
        let verdict: Result<u64, String> = match incoming.prepare_swap() {
            Err(e) => Err(e.to_string()),
            Ok(()) => match (expected_digest, incoming.swap_digest()) {
                (Some(want), Some(got)) if want != got => Err(format!(
                    "weight digest mismatch: expected {want:016x}, got {got:016x}"
                )),
                (Some(_), None) => Err("incoming backend cannot attest its weights".into()),
                (_, got) => Ok(got.unwrap_or(0)),
            },
        };
        match verdict {
            Err(reason) => {
                self.chain.append(
                    RecordKind::SwapAborted,
                    vec![
                        ("server".into(), Value::Str("safex-serve".into())),
                        ("model".into(), Value::Str(model.to_string())),
                        ("at_tick".into(), Value::U64(now)),
                        ("requested_at".into(), Value::U64(requested_at)),
                        ("reason".into(), Value::Str(reason)),
                    ],
                );
                run.stats.swaps.push(SwapEvent {
                    model,
                    requested_at,
                    resolved_at: now,
                    committed: false,
                    digest: 0,
                });
            }
            Ok(digest) => {
                let old_state = self.monitors[model.index()].state();
                self.fleet.replace_backend(model, incoming);
                self.monitors[model.index()] =
                    HealthMonitor::new(self.config.health).expect("config validated at assembly");
                if old_state != HealthState::Nominal {
                    // The ladder was replaced, not stepped: the service
                    // level change is recorded, but it is the swap — not a
                    // health verdict — that explains it.
                    run.transitions.push(ServiceTransition {
                        model,
                        from: old_state,
                        to: HealthState::Nominal,
                        at_tick: now,
                        after_request: (run.next as u64).saturating_sub(1),
                    });
                }
                let purged = self.cache.purge_model(model);
                self.chain.append(
                    RecordKind::ModelSwapped,
                    vec![
                        ("server".into(), Value::Str("safex-serve".into())),
                        ("model".into(), Value::Str(model.to_string())),
                        ("at_tick".into(), Value::U64(now)),
                        ("requested_at".into(), Value::U64(requested_at)),
                        ("digest".into(), Value::Str(format!("{digest:016x}"))),
                        ("purged_cache_entries".into(), Value::U64(purged as u64)),
                        ("ladder_was".into(), Value::Str(old_state.tag().into())),
                    ],
                );
                run.stats.swaps.push(SwapEvent {
                    model,
                    requested_at,
                    resolved_at: now,
                    committed: true,
                    digest,
                });
            }
        }
        // Either way the member serves again (old or new weights), which
        // may unblock a stalled dispatch round.
        run.stalled = false;
    }

    /// Freezes the full runtime — ladders, cache, chain, backend clocks,
    /// mid-run loop state — into versioned, checksummed snapshot bytes.
    /// Encodes straight from the live state: nothing is cloned but the
    /// per-member ladders and clocks, and the trace digest was fixed
    /// when the trace was built.
    fn capture_snapshot(&self, trace: &ArrivalTrace, run: &RunState) -> Vec<u8> {
        let monitors: Vec<_> = self
            .monitors
            .iter()
            .map(HealthMonitor::export_state)
            .collect();
        let backend_clocks: Vec<u64> = self
            .fleet
            .members()
            .iter()
            .map(|m| m.backend().clock())
            .collect();
        SnapshotView {
            campaign: &self.config.campaign,
            config_digest: self.config_digest(),
            trace_digest: trace.digest(),
            monitors: &monitors,
            cache: self
                .cache
                .entries_in_order()
                .into_iter()
                .map(|(input, r)| (input, r.class, r.confidence, r.model))
                .collect(),
            chain: self
                .chain
                .records()
                .iter()
                .map(|r| (r.kind, r.fields.as_slice()))
                .collect(),
            chain_head: self.chain.head_hash(),
            backend_clocks: &backend_clocks,
            run: run.view(),
        }
        .encode()
    }

    /// Seals a finished run into its report.
    fn finish_report(&self, run: RunState) -> ServeReport {
        let RunState {
            mut responses,
            transitions,
            mut metrics,
            queue,
            stats,
            ..
        } = run;
        metrics.record_peak_queue(queue.peak());
        responses.sort_by_key(|r| r.id);
        let summaries = self
            .fleet
            .members()
            .iter()
            .zip(&self.monitors)
            .enumerate()
            .map(|(i, (member, monitor))| ModelSummary {
                model: ModelId::new(i as u16),
                name: member.name().to_string(),
                final_state: monitor.state(),
                time_nominal: monitor.time_in(HealthState::Nominal),
                time_degraded: monitor.time_in(HealthState::Degraded),
                time_stopped: monitor.time_in(HealthState::SafeStop),
                transitions: monitor.transitions().len(),
            })
            .collect();
        ServeReport {
            responses,
            transitions,
            models: summaries,
            routing: self.router.name().to_string(),
            snapshot: metrics.snapshot(),
            chain_head: self.chain.head_hash(),
            soak: stats,
        }
    }

    fn all_stopped(&self) -> bool {
        self.monitors
            .iter()
            .all(|m| m.state() == HealthState::SafeStop)
    }

    /// The representative member for an anonymous refusal: the
    /// least-loaded non-stopped member (ties by id) — the one the router
    /// would most plausibly have chosen had health allowed.
    fn refusing_member(&self, free_at: &[u64]) -> ModelId {
        self.monitors
            .iter()
            .enumerate()
            .filter(|(_, m)| m.state() != HealthState::SafeStop)
            .min_by_key(|(i, _)| (free_at[*i], *i))
            .map(|(i, _)| ModelId::new(i as u16))
            .unwrap_or(ModelId::new(0))
    }

    /// Admits one arrival (hook → fleet health gate → cache → queue).
    fn admit<F>(&mut self, request: Request, run: &mut RunState, on_arrival: &mut F)
    where
        F: FnMut(&Request, &mut Fleet<B>),
    {
        let now = run.now;
        let RunState {
            queue,
            responses,
            metrics,
            ..
        } = run;
        on_arrival(&request, &mut self.fleet);
        let respond = |outcome: Outcome, responses: &mut Vec<Response>, metrics: &mut Metrics| {
            let response = Response {
                id: request.id,
                tier: request.tier,
                arrived_at: now,
                resolved_at: now,
                outcome,
            };
            metrics.record_response(&response);
            responses.push(response);
        };
        // Fleet health gate. A pinned request lives and dies with its
        // pin; a routable one is refused only when *no* member admits
        // its tier.
        if let Some(pin) = request.model {
            match self.monitors.get(pin.index()).map(|m| m.state()) {
                None => {
                    respond(Outcome::SafeStop { model: Some(pin) }, responses, metrics);
                    return;
                }
                Some(HealthState::SafeStop) => {
                    respond(Outcome::SafeStop { model: Some(pin) }, responses, metrics);
                    return;
                }
                Some(state) => {
                    if !admits(state, request.tier, self.config.degraded_floor) {
                        respond(
                            Outcome::Shed(ShedReason::DegradedTier { model: pin }),
                            responses,
                            metrics,
                        );
                        return;
                    }
                }
            }
        } else if self.all_stopped() {
            respond(Outcome::SafeStop { model: None }, responses, metrics);
            return;
        } else if !self
            .monitors
            .iter()
            .any(|m| admits(m.state(), request.tier, self.config.degraded_floor))
        {
            // Some member is still running, but every running member is
            // degraded below this tier's floor.
            let model = self
                .monitors
                .iter()
                .enumerate()
                .filter(|(_, m)| m.state() != HealthState::SafeStop)
                .map(|(i, _)| ModelId::new(i as u16))
                .next()
                .unwrap_or(ModelId::new(0));
            respond(
                Outcome::Shed(ShedReason::DegradedTier { model }),
                responses,
                metrics,
            );
            return;
        }
        // Verified-result cache: a hit answers immediately, on evidence.
        if self.cache.is_enabled() {
            metrics.record_cache_lookup();
            if let Some(hit) = self.cache.lookup(&request.input) {
                let (class, confidence, model, digest) =
                    (hit.class, hit.confidence, hit.model, hit.digest);
                metrics.record_cache_hit();
                self.chain.append(
                    RecordKind::CacheHit,
                    vec![
                        ("server".into(), Value::Str("safex-serve".into())),
                        ("at_tick".into(), Value::U64(now)),
                        ("request".into(), Value::U64(request.id)),
                        ("digest".into(), Value::Str(format!("{digest:016x}"))),
                        ("model".into(), Value::Str(model.to_string())),
                    ],
                );
                respond(
                    Outcome::Completed {
                        class,
                        confidence,
                        flagged: false,
                        level: HealthState::Nominal,
                        model,
                        cached: true,
                    },
                    responses,
                    metrics,
                );
                return;
            }
        }
        let (id, tier) = (request.id, request.tier);
        match queue.offer(request, now) {
            Admission::Accepted => {}
            Admission::Displaced(victim) => {
                let response = Response {
                    id: victim.request.id,
                    tier: victim.request.tier,
                    arrived_at: victim.queued_at,
                    resolved_at: now,
                    outcome: Outcome::Shed(ShedReason::Displaced { by: id }),
                };
                metrics.record_response(&response);
                responses.push(response);
            }
            Admission::Rejected => {
                let response = Response {
                    id,
                    tier,
                    arrived_at: now,
                    resolved_at: now,
                    outcome: Outcome::Shed(ShedReason::QueueFull),
                };
                metrics.record_response(&response);
                responses.push(response);
            }
        }
        metrics.record_peak_queue(queue.len());
    }

    /// Runs one dispatch round at the current tick: fairness selects,
    /// gates refuse, the routing policy places, one batch per idle
    /// member executes. Draining members (mid hot swap) take no new
    /// batches; release stalls push completion ticks forward. Returns
    /// `false` when the round made no progress (everything selected was
    /// put back).
    fn dispatch_round(
        &mut self,
        run: &mut RunState,
        draining: &[DrainingSwap<B>],
        stalls: &[StallOp],
    ) -> Result<bool, ServeError> {
        let now = run.now;
        let models = self.fleet.len();
        let service: ServiceModel = self.config.service;
        let max_batch = self.config.policy.max_batch;
        let RunState {
            queue,
            inflight,
            free_at,
            decisions,
            responses,
            metrics,
            ..
        } = run;
        // Members that can *start* a batch this round: running, idle, and
        // not quiescing for a swap.
        let idle: Vec<bool> = (0..models)
            .map(|i| {
                self.monitors[i].state() != HealthState::SafeStop
                    && free_at[i] <= now
                    && !draining.iter().any(|d| d.op.model.index() == i)
            })
            .collect();
        let capacity: usize = idle.iter().filter(|&&b| b).count() * max_batch;
        let selected = if self.all_stopped() {
            // Drain: every queued entry resolves to a typed refusal.
            queue.take(queue.len())
        } else {
            queue.select(capacity.max(1), now, &self.config.fairness)
        };
        if selected.is_empty() {
            return Ok(false);
        }
        let mut assigned: Vec<Vec<Pending>> = vec![Vec::new(); models];
        let mut put_back: Vec<Pending> = Vec::new();
        let mut progressed = false;
        for pending in selected {
            let request = &pending.request;
            let mut respond = |outcome: Outcome, pending: &Pending| {
                let response = Response {
                    id: pending.request.id,
                    tier: pending.request.tier,
                    arrived_at: pending.queued_at,
                    resolved_at: now,
                    outcome,
                };
                metrics.record_response(&response);
                responses.push(response);
            };
            if self.all_stopped() {
                respond(Outcome::SafeStop { model: None }, &pending);
                progressed = true;
                continue;
            }
            if request.deadline <= now {
                // Expired at batch formation: the result could only be
                // stale, so it is never computed.
                respond(Outcome::Timeout, &pending);
                progressed = true;
                continue;
            }
            if let Some(pin) = request.model {
                // Pinned: the pin's fate is the request's fate.
                match self.monitors.get(pin.index()).map(|m| m.state()) {
                    None | Some(HealthState::SafeStop) => {
                        respond(Outcome::SafeStop { model: Some(pin) }, &pending);
                        progressed = true;
                    }
                    Some(state) if !admits(state, request.tier, self.config.degraded_floor) => {
                        respond(
                            Outcome::Shed(ShedReason::DegradedTier { model: pin }),
                            &pending,
                        );
                        progressed = true;
                    }
                    Some(_) => {
                        if idle[pin.index()] && assigned[pin.index()].len() < max_batch {
                            assigned[pin.index()].push(pending);
                        } else {
                            put_back.push(pending);
                        }
                    }
                }
                continue;
            }
            // Routable: build the candidate view (health-admitting, idle,
            // with batch capacity) and let the policy pick.
            let candidates: Vec<CandidateView> = (0..models)
                .filter(|&i| {
                    idle[i]
                        && assigned[i].len() < max_batch
                        && admits(
                            self.monitors[i].state(),
                            request.tier,
                            self.config.degraded_floor,
                        )
                })
                .map(|i| CandidateView {
                    id: ModelId::new(i as u16),
                    state: self.monitors[i].state(),
                    free_at: now + service.duration(assigned[i].len() + 1),
                    assigned: assigned[i].len(),
                })
                .collect();
            if candidates.is_empty() {
                // No member can take it *now*. If some running member
                // admits the tier (just busy or full), the request waits;
                // otherwise every running member refuses it by health.
                let eventually = (0..models).any(|i| {
                    self.monitors[i].state() != HealthState::SafeStop
                        && admits(
                            self.monitors[i].state(),
                            request.tier,
                            self.config.degraded_floor,
                        )
                });
                if eventually {
                    put_back.push(pending);
                } else {
                    respond(
                        Outcome::Shed(ShedReason::DegradedTier {
                            model: self.refusing_member(free_at),
                        }),
                        &pending,
                    );
                    progressed = true;
                }
                continue;
            }
            let view = RouteView {
                request,
                decision: *decisions,
                now,
                candidates: &candidates,
            };
            *decisions += 1;
            let choice = self.router.route(&view);
            // A policy returning a non-candidate is a bug; fall back to
            // the first candidate rather than violate the health gate.
            let target = if candidates.iter().any(|c| c.id == choice) {
                choice
            } else {
                candidates[0].id
            };
            assigned[target.index()].push(pending);
        }
        // Execute one batch per member, in member order. Verdicts are
        // computed now (the batch runs now); effects land at retirement.
        let mut batches_launched = 0u32;
        for (i, batch) in assigned.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            progressed = true;
            batches_launched += 1;
            let model = ModelId::new(i as u16);
            let done_at = stall_clamp(
                stalls,
                WatchStage::Release,
                now + service.duration(batch.len()),
            );
            free_at[i] = done_at;
            metrics.record_batch(model, batch.len());
            let inputs: Vec<&[f32]> = batch.iter().map(|p| p.request.input.as_slice()).collect();
            let backend = self
                .fleet
                .backend_mut(model)
                .expect("assigned member exists");
            let verdicts = backend.serve(&inputs)?;
            debug_assert_eq!(verdicts.len(), batch.len(), "backend verdict count");
            inflight.push(InFlightBatch {
                model,
                done_at,
                items: batch.into_iter().zip(verdicts).collect(),
            });
        }
        queue.put_back(put_back);
        if self.config.watchdog.enabled && batches_launched > 0 {
            for _ in 0..batches_launched {
                Self::kick(run, WatchStage::Backend);
            }
            Self::kick(run, WatchStage::Batcher);
        }
        Ok(progressed)
    }

    /// Applies one completed batch's effects at its completion tick:
    /// monitor stepping, evidence, response release (or fail-over),
    /// cache insertion — and, when a ladder reaches SafeStop, the purge
    /// of that member's cache entries.
    fn retire(&mut self, batch: InFlightBatch, run: &mut RunState) {
        let InFlightBatch {
            model,
            done_at,
            items,
        } = batch;
        let RunState {
            queue,
            responses,
            transitions,
            metrics,
            ..
        } = run;
        let mut failover: Vec<Pending> = Vec::new();
        for (pending, verdict) in items {
            let (stop, flagged, corrected, class, confidence) = match verdict {
                BatchVerdict::Stop => (true, true, false, 0, 0.0),
                BatchVerdict::Ok {
                    class,
                    confidence,
                    flagged,
                    corrected,
                } => (false, flagged, corrected, class, confidence),
            };
            // Corrected faults are warnings: the ladder only walks when
            // the bounded warning budget is exhausted.
            let health = if stop || flagged {
                HealthVerdict::Unhealthy
            } else if corrected {
                HealthVerdict::Warning
            } else {
                HealthVerdict::Clean
            };
            if corrected && !flagged && !stop {
                self.chain.append(
                    RecordKind::FaultCorrected,
                    vec![
                        ("server".into(), Value::Str("safex-serve".into())),
                        ("model".into(), Value::Str(model.to_string())),
                        ("at_tick".into(), Value::U64(done_at)),
                        ("request".into(), Value::U64(pending.request.id)),
                    ],
                );
            }
            let monitor = &mut self.monitors[model.index()];
            if let Some(t) = monitor.step_verdict(health) {
                let transition = ServiceTransition {
                    model,
                    from: t.from,
                    to: t.to,
                    at_tick: done_at,
                    after_request: pending.request.id,
                };
                transitions.push(transition);
                self.chain.append(
                    RecordKind::HealthTransition,
                    vec![
                        ("server".into(), Value::Str("safex-serve".into())),
                        ("model".into(), Value::Str(model.to_string())),
                        ("from".into(), Value::Str(t.from.tag().into())),
                        ("to".into(), Value::Str(t.to.tag().into())),
                        ("at_tick".into(), Value::U64(done_at)),
                        ("after_request".into(), Value::U64(pending.request.id)),
                    ],
                );
                if t.to == HealthState::SafeStop {
                    // A stopped ladder no longer vouches for the results
                    // its member computed: they must not serve hits.
                    self.cache.purge_model(model);
                }
            }
            // Release gate: a result is returned only when (a) the
            // backend did not demand a stop, (b) the member's ladder has
            // not reached safe stop, and (c) the deadline still holds.
            // Anything else is a typed non-answer — a stale or suspect
            // result is never released.
            let state = self.monitors[model.index()].state();
            let outcome = if stop || state == HealthState::SafeStop {
                // Fail-over: when the *ladder* (not the backend verdict
                // for this very item) withheld the result, an unpinned
                // request whose deadline still holds is recomputed on a
                // healthy peer rather than failed — one stopping member
                // costs the fleet latency, not answers. A pinned request
                // dies with its pin, and a backend-demanded stop is
                // honoured as a per-item safety verdict.
                let ladder_only = !stop && state == HealthState::SafeStop;
                let peer_alive = self
                    .monitors
                    .iter()
                    .enumerate()
                    .any(|(i, m)| i != model.index() && m.state() != HealthState::SafeStop);
                if ladder_only
                    && pending.request.model.is_none()
                    && pending.request.deadline > done_at
                    && peer_alive
                {
                    failover.push(pending);
                    continue;
                }
                Outcome::SafeStop { model: Some(model) }
            } else if pending.request.deadline < done_at {
                Outcome::Timeout
            } else {
                // A fully verified decision — unflagged, uncorrected,
                // released at Nominal — is the only thing the result
                // cache may learn.
                if !flagged && !corrected && state == HealthState::Nominal {
                    self.cache
                        .insert(&pending.request.input, class, confidence, model);
                }
                Outcome::Completed {
                    class,
                    confidence,
                    flagged,
                    level: state,
                    model,
                    cached: false,
                }
            };
            let response = Response {
                id: pending.request.id,
                tier: pending.request.tier,
                arrived_at: pending.queued_at,
                resolved_at: done_at,
                outcome,
            };
            metrics.record_response(&response);
            responses.push(response);
        }
        if !failover.is_empty() {
            queue.put_back(failover);
        }
    }
}
