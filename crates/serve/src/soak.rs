//! Soak-runtime operations: hot swaps, stall injection, and the layered
//! watchdog.
//!
//! A soak run ([`crate::Server::run_soak`]) is the plain deterministic
//! replay loop plus an [`OpsPlan`]: scripted operational events (an atomic
//! hot model swap, injected stage stalls, a snapshot capture point) that
//! exercise the runtime's robustness machinery. With an empty plan and the
//! watchdog disabled, a soak run is byte-identical to
//! [`crate::Server::run_trace`].
//!
//! ## The layered watchdog
//!
//! Four pipeline stages each prove liveness by *kicking* the watchdog when
//! they make progress:
//!
//! | stage       | armed while                | kicks on                     |
//! |-------------|----------------------------|------------------------------|
//! | `admission` | arrivals remain             | each admitted request        |
//! | `batcher`   | the queue is non-empty      | each dispatch round w/ batch |
//! | `backend`   | batches are in flight       | batch launch and completion  |
//! | `release`   | batches are in flight       | each retired batch           |
//!
//! A stage that stays armed past its deadline takes a *strike*; strikes
//! escalate on a ladder — warning alarm, fleet Degraded, fleet SafeStop —
//! and every alarm, escalation, and periodic liveness proof lands on the
//! evidence chain. Progress resets a stage's strikes.

use crate::error::ServeError;
use crate::request::ModelId;
use safex_trace::json::Json;

/// The four watched pipeline stages, in escalation-report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WatchStage {
    /// Admission control: arrivals entering the queue.
    Admission,
    /// Micro-batcher: queue entries forming batches.
    Batcher,
    /// Backend step: batches executing on a fleet member.
    Backend,
    /// Release gate: completed batches retiring into responses.
    Release,
}

impl WatchStage {
    /// All stages, indexable by [`WatchStage::index`].
    pub const ALL: [WatchStage; 4] = [
        WatchStage::Admission,
        WatchStage::Batcher,
        WatchStage::Backend,
        WatchStage::Release,
    ];

    /// Dense index into per-stage arrays.
    pub fn index(self) -> usize {
        match self {
            WatchStage::Admission => 0,
            WatchStage::Batcher => 1,
            WatchStage::Backend => 2,
            WatchStage::Release => 3,
        }
    }

    /// Stable tag used in evidence records and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            WatchStage::Admission => "admission",
            WatchStage::Batcher => "batcher",
            WatchStage::Backend => "backend",
            WatchStage::Release => "release",
        }
    }
}

/// Watchdog knobs. Disabled by default so the plain replay path stays
/// byte-identical; enable it for soak deployments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct WatchdogConfig {
    /// Master switch. When `false` the watchdog contributes no events.
    pub enabled: bool,
    /// Per-stage liveness deadline in ticks, indexed by
    /// [`WatchStage::index`]. A stage armed for longer than its deadline
    /// without a kick takes a strike.
    pub stage_deadline: [u64; 4],
    /// Emit a `watchdog_proof` evidence record every this many ticks
    /// (0 disables proofs).
    pub proof_cadence: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: false,
            stage_deadline: [256; 4],
            proof_cadence: 0,
        }
    }
}

impl WatchdogConfig {
    /// An enabled watchdog with a uniform per-stage deadline.
    pub fn enabled(deadline: u64) -> Self {
        WatchdogConfig {
            enabled: true,
            stage_deadline: [deadline; 4],
            ..WatchdogConfig::default()
        }
    }

    /// Set the liveness-proof cadence.
    pub fn with_proof_cadence(mut self, cadence: u64) -> Self {
        self.proof_cadence = cadence;
        self
    }

    /// Validate the knobs.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.enabled && self.stage_deadline.contains(&0) {
            return Err(ServeError::BadConfig(
                "watchdog stage deadlines must be at least one tick".into(),
            ));
        }
        Ok(())
    }
}

/// Mutable watchdog bookkeeping, serialized into snapshots so a restored
/// run escalates exactly like the uninterrupted one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogState {
    /// Last tick each stage kicked (or was observed unarmed).
    pub last_progress: [u64; 4],
    /// Consecutive missed deadlines per stage; reset by a kick.
    pub strikes: [u32; 4],
    /// Next tick at which a liveness proof is due (when cadence > 0).
    pub next_proof: u64,
}

/// A scripted stage stall: while `from <= tick < until`, the stage makes
/// no progress. Batcher stalls push flushes to `until`; release stalls
/// push batch retirements to `until`. Used to provoke the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallOp {
    /// Which stage is starved. Only `Batcher` and `Release` stalls have an
    /// effect; the other stages cannot stall in the simulated pipeline.
    pub stage: WatchStage,
    /// First stalled tick (inclusive).
    pub from: u64,
    /// First tick at which the stage runs again (exclusive end).
    pub until: u64,
}

/// A scripted atomic hot swap of one fleet member's model.
#[derive(Debug)]
pub struct SwapOp<B> {
    /// The swap is requested immediately before admitting this request id.
    pub at_request: u64,
    /// Which member to swap.
    pub model: ModelId,
    /// The replacement backend. Re-goldened and verified before commit.
    pub incoming: B,
    /// If set, the incoming backend's post-re-golden digest must equal
    /// this value or the swap aborts with the old model untouched.
    pub expected_digest: Option<u64>,
}

/// Scripted operational events for one soak run.
#[derive(Debug)]
pub struct OpsPlan<B> {
    /// Hot swaps, triggered by request id.
    pub swaps: Vec<SwapOp<B>>,
    /// Stage stalls, on the tick axis.
    pub stalls: Vec<StallOp>,
    /// Capture a snapshot immediately before admitting this request id.
    pub snapshot_at: Option<u64>,
}

impl<B> Default for OpsPlan<B> {
    fn default() -> Self {
        OpsPlan {
            swaps: Vec::new(),
            stalls: Vec::new(),
            snapshot_at: None,
        }
    }
}

impl<B> OpsPlan<B> {
    /// An empty plan: the soak run degenerates to a plain replay.
    pub fn none() -> Self {
        OpsPlan::default()
    }

    /// Schedule a hot swap.
    pub fn with_swap(mut self, swap: SwapOp<B>) -> Self {
        self.swaps.push(swap);
        self
    }

    /// Schedule a stage stall.
    pub fn with_stall(mut self, stall: StallOp) -> Self {
        self.stalls.push(stall);
        self
    }

    /// Capture a snapshot immediately before admitting `request`.
    pub fn with_snapshot_at(mut self, request: u64) -> Self {
        self.snapshot_at = Some(request);
        self
    }

    /// Validate the plan against a fleet of `members` members.
    pub fn validate(&self, members: usize) -> Result<(), ServeError> {
        for swap in &self.swaps {
            if swap.model.index() >= members {
                return Err(ServeError::BadConfig(format!(
                    "swap targets member {} but the fleet has {members}",
                    swap.model
                )));
            }
        }
        for stall in &self.stalls {
            if stall.from >= stall.until {
                return Err(ServeError::BadConfig(format!(
                    "stall window [{}, {}) is empty",
                    stall.from, stall.until
                )));
            }
        }
        Ok(())
    }
}

/// One resolved hot-swap attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapEvent {
    /// The member that was (to be) swapped.
    pub model: ModelId,
    /// Tick at which the swap was requested and the member began draining.
    pub requested_at: u64,
    /// Tick at which the swap committed or aborted.
    pub resolved_at: u64,
    /// Whether the swap committed (`false`: aborted, old model kept).
    pub committed: bool,
    /// Post-re-golden weight digest of the incoming model (0 on abort).
    pub digest: u64,
}

impl SwapEvent {
    /// Drain latency in ticks: request to resolution.
    pub fn latency(&self) -> u64 {
        self.resolved_at - self.requested_at
    }

    fn to_json(self) -> Json {
        let mut obj = Json::object();
        obj.set("model", Json::from(self.model.to_string()));
        obj.set("requested_at", Json::from(self.requested_at));
        obj.set("resolved_at", Json::from(self.resolved_at));
        obj.set("committed", Json::from(self.committed));
        obj.set("digest", Json::from(format!("{:016x}", self.digest)));
        obj
    }
}

/// Soak-runtime counters carried on [`crate::ServeReport`].
///
/// Stays at `Default` for plain replay runs and is then omitted from the
/// report JSON, so pre-soak golden digests are unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SoakStats {
    /// Every resolved hot-swap attempt, in resolution order.
    pub swaps: Vec<SwapEvent>,
    /// Watchdog kicks per stage (liveness heartbeats observed).
    pub watchdog_kicks: [u64; 4],
    /// Missed-deadline warning alarms raised.
    pub watchdog_alarms: u64,
    /// Ladder escalations forced (Degraded or SafeStop).
    pub watchdog_escalations: u64,
    /// Periodic liveness proofs recorded.
    pub watchdog_proofs: u64,
}

impl SoakStats {
    /// True when no soak machinery left a trace (plain replay runs).
    pub fn is_default(&self) -> bool {
        *self == SoakStats::default()
    }

    /// JSON projection, emitted under the report's `soak` key.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set(
            "swaps",
            Json::Arr(self.swaps.iter().map(|s| s.to_json()).collect()),
        );
        let mut kicks = Json::object();
        for stage in WatchStage::ALL {
            kicks.set(stage.tag(), Json::from(self.watchdog_kicks[stage.index()]));
        }
        let mut watchdog = Json::object();
        watchdog.set("kicks", kicks);
        watchdog.set("alarms", Json::from(self.watchdog_alarms));
        watchdog.set("escalations", Json::from(self.watchdog_escalations));
        watchdog.set("proofs", Json::from(self.watchdog_proofs));
        obj.set("watchdog", watchdog);
        obj
    }
}

/// Result of a soak run: the usual report plus any snapshot captured by
/// the plan's `snapshot_at` trigger.
#[derive(Debug)]
pub struct SoakOutcome {
    /// The deterministic serve report (with `soak` stats populated).
    pub report: crate::server::ServeReport,
    /// Encoded snapshot bytes, when the plan requested a capture and the
    /// trigger request was reached.
    pub snapshot: Option<Vec<u8>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_ordered() {
        for (i, stage) in WatchStage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        let tags: Vec<_> = WatchStage::ALL.iter().map(|s| s.tag()).collect();
        assert_eq!(tags, ["admission", "batcher", "backend", "release"]);
    }

    #[test]
    fn watchdog_config_validates_deadlines() {
        assert!(WatchdogConfig::default().validate().is_ok());
        assert!(WatchdogConfig::enabled(64).validate().is_ok());
        let mut bad = WatchdogConfig::enabled(64);
        bad.stage_deadline[WatchStage::Batcher.index()] = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn default_stats_are_omittable() {
        assert!(SoakStats::default().is_default());
        let mut stats = SoakStats::default();
        stats.watchdog_kicks[0] = 1;
        assert!(!stats.is_default());
    }

    #[test]
    fn ops_plan_validation_catches_bad_targets_and_windows() {
        let plan: OpsPlan<()> = OpsPlan::none().with_stall(StallOp {
            stage: WatchStage::Batcher,
            from: 10,
            until: 5,
        });
        assert!(plan.validate(1).is_err());
        let plan: OpsPlan<()> = OpsPlan::none().with_swap(SwapOp {
            at_request: 0,
            model: ModelId::new(3),
            incoming: (),
            expected_digest: None,
        });
        assert!(plan.validate(2).is_err());
        assert!(OpsPlan::<()>::none().validate(1).is_ok());
    }
}
