//! Runtime health monitoring and graceful degradation.
//!
//! Detection alone does not make a system safe — the pipeline must *act*
//! on what the hardened engines report. [`HealthMonitor`] is the
//! degradation ladder: a small, fully deterministic state machine that
//! folds per-decision health verdicts (any
//! [`HealthEvent`](safex_nn::HealthEvent) seen this decision?) into one of
//! three operating states:
//!
//! * [`HealthState::Nominal`] — decisions pass through unchanged.
//! * [`HealthState::Degraded`] — the pipeline forces conservative
//!   behaviour (proceeds become fallbacks) while the fault picture
//!   clarifies.
//! * [`HealthState::SafeStop`] — persistent faults; every decision is
//!   forced to a safe stop until (optionally) a long clean streak earns
//!   the system back one rung.
//!
//! Escalation is *windowed* (N unhealthy decisions among the last W),
//! which makes it robust to detectors that only run on a cadence (e.g. a
//! weight CRC re-checked every Kth decision). De-escalation is
//! *streak-based* (N consecutive clean decisions), which gives hysteresis:
//! one lucky clean frame never un-degrades a sick system.

use std::fmt;

use crate::error::CoreError;

/// The pipeline-level operating state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// No concerning fault activity; decisions pass through.
    Nominal,
    /// Fault activity above the degrade threshold; conservative actions
    /// are forced (proceed → fallback).
    Degraded,
    /// Fault activity above the stop threshold; every decision becomes a
    /// safe stop.
    SafeStop,
}

impl HealthState {
    /// Stable tag for evidence records.
    pub fn tag(&self) -> &'static str {
        match self {
            HealthState::Nominal => "nominal",
            HealthState::Degraded => "degraded",
            HealthState::SafeStop => "safe_stop",
        }
    }

    fn index(self) -> usize {
        match self {
            HealthState::Nominal => 0,
            HealthState::Degraded => 1,
            HealthState::SafeStop => 2,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One decision's health classification, as fed to
/// [`HealthMonitor::step_verdict`].
///
/// [`HealthVerdict::Warning`] is the middle ground the ECC repair path
/// needs: the fault *happened* (the memory took a hit) but it is *gone*
/// (corrected in place, CRC re-verified). Warnings spend from a bounded
/// budget ([`HealthConfig::warn_budget`]) instead of escalating outright —
/// a trickle of corrected upsets keeps the system Nominal, while a storm
/// of them still walks the ladder down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthVerdict {
    /// Nothing observed; counts toward recovery streaks.
    Clean,
    /// A fault was observed *and repaired* (e.g.
    /// `HealthEvent::CorrectedFault`); tolerated up to
    /// [`HealthConfig::warn_budget`] per window, unhealthy beyond it.
    Warning,
    /// An unrepaired fault was observed; escalates as before.
    Unhealthy,
}

/// Thresholds for the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Size of the sliding window of recent decisions considered for
    /// escalation (1..=64; the window is a u64 bitmask).
    pub window: u32,
    /// Unhealthy decisions within the window that trigger
    /// Nominal → Degraded.
    pub degrade_events: u32,
    /// Unhealthy decisions within the window that trigger → SafeStop.
    /// Must be ≥ `degrade_events`.
    pub stop_events: u32,
    /// Consecutive clean decisions required for Degraded → Nominal.
    pub recover_after: u32,
    /// Consecutive clean decisions required for SafeStop → Degraded
    /// (one rung at a time). `0` latches SafeStop permanently — the
    /// conservative default for real deployments, where leaving a safe
    /// stop should take maintenance action, not luck.
    pub resume_after: u32,
    /// How many [`HealthVerdict::Warning`] decisions (corrected faults)
    /// the window tolerates before a further warning is treated as
    /// unhealthy. Warnings at or under budget count as clean — they
    /// neither fill the escalation window nor break recovery streaks.
    /// Setting it `>= window` makes warnings never escalate.
    pub warn_budget: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window: 8,
            degrade_events: 2,
            stop_events: 4,
            recover_after: 16,
            resume_after: 0,
            warn_budget: 3,
        }
    }
}

impl HealthConfig {
    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadAssembly`] when the window is outside
    /// 1..=64, a threshold is zero, a threshold exceeds the window, or
    /// `stop_events < degrade_events`.
    pub fn validate(&self) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::BadAssembly(msg));
        if self.window == 0 || self.window > 64 {
            return bad(format!("health window {} outside 1..=64", self.window));
        }
        if self.degrade_events == 0 {
            return bad("degrade_events must be >= 1".into());
        }
        if self.stop_events < self.degrade_events {
            return bad(format!(
                "stop_events {} below degrade_events {}",
                self.stop_events, self.degrade_events
            ));
        }
        if self.degrade_events > self.window {
            return bad(format!(
                "degrade_events {} can never fire within window {}",
                self.degrade_events, self.window
            ));
        }
        if self.recover_after == 0 {
            return bad("recover_after must be >= 1".into());
        }
        Ok(())
    }
}

/// One recorded state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// 1-based decision count at which the transition fired.
    pub at_decision: u64,
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} @ {}", self.from, self.to, self.at_decision)
    }
}

/// The degradation-ladder state machine.
///
/// Feed it one boolean per decision via [`HealthMonitor::step`]; it
/// reports transitions as they happen and keeps time-in-state counters
/// for campaign reporting. Everything is integer state — stepping is
/// deterministic and allocation-free outside the transition log.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    config: HealthConfig,
    state: HealthState,
    /// Ring of recent unhealthy flags, newest in bit 0.
    history: u64,
    /// Ring of recent warning (corrected-fault) flags, newest in bit 0 —
    /// the budget [`HealthConfig::warn_budget`] is spent against this.
    warn_history: u64,
    clean_streak: u32,
    decisions: u64,
    time_in: [u64; 3],
    transitions: Vec<Transition>,
}

impl HealthMonitor {
    /// Creates a monitor in the nominal state.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadAssembly`] for inconsistent thresholds
    /// (see [`HealthConfig::validate`]).
    pub fn new(config: HealthConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(HealthMonitor {
            config,
            state: HealthState::Nominal,
            history: 0,
            warn_history: 0,
            clean_streak: 0,
            decisions: 0,
            time_in: [0; 3],
            transitions: Vec::new(),
        })
    }

    /// Folds one decision's boolean health verdict into the ladder —
    /// [`HealthMonitor::step_verdict`] without the warning tier.
    pub fn step(&mut self, unhealthy: bool) -> Option<Transition> {
        self.step_verdict(if unhealthy {
            HealthVerdict::Unhealthy
        } else {
            HealthVerdict::Clean
        })
    }

    /// Folds one decision's three-way verdict into the ladder, returning
    /// the transition if the state changed.
    ///
    /// A [`HealthVerdict::Warning`] spends one unit of
    /// [`HealthConfig::warn_budget`]: while the window holds at most
    /// `warn_budget` warnings it behaves like a clean decision; the
    /// warning that exceeds the budget is folded in as unhealthy.
    pub fn step_verdict(&mut self, verdict: HealthVerdict) -> Option<Transition> {
        self.decisions += 1;
        let mask = if self.config.window == 64 {
            u64::MAX
        } else {
            (1u64 << self.config.window) - 1
        };
        self.warn_history =
            ((self.warn_history << 1) | u64::from(verdict == HealthVerdict::Warning)) & mask;
        let unhealthy = match verdict {
            HealthVerdict::Clean => false,
            HealthVerdict::Unhealthy => true,
            HealthVerdict::Warning => self.warn_history.count_ones() > self.config.warn_budget,
        };
        self.history = ((self.history << 1) | u64::from(unhealthy)) & mask;
        // Saturates: a Nominal run passes 2³² clean decisions, and any
        // streak that long is past every `recover_after`.
        self.clean_streak = if unhealthy {
            0
        } else {
            self.clean_streak.saturating_add(1)
        };
        let count = self.history.count_ones();

        let next = match self.state {
            HealthState::Nominal => {
                if count >= self.config.stop_events {
                    HealthState::SafeStop
                } else if count >= self.config.degrade_events {
                    HealthState::Degraded
                } else {
                    HealthState::Nominal
                }
            }
            HealthState::Degraded => {
                if count >= self.config.stop_events {
                    HealthState::SafeStop
                } else if self.clean_streak >= self.config.recover_after {
                    HealthState::Nominal
                } else {
                    HealthState::Degraded
                }
            }
            HealthState::SafeStop => {
                if self.config.resume_after > 0 && self.clean_streak >= self.config.resume_after {
                    // One rung at a time: a safe stop resumes into
                    // degraded operation, never straight to nominal.
                    HealthState::Degraded
                } else {
                    HealthState::SafeStop
                }
            }
        };

        self.time_in[next.index()] += 1;
        if next == self.state {
            return None;
        }
        // De-escalation clears the window so stale fault bits cannot
        // immediately re-trigger the threshold that was just left behind,
        // and resets the streak so every rung of the way back up must be
        // earned with its own run of clean decisions.
        if next.index() < self.state.index() {
            self.history = 0;
            self.warn_history = 0;
            self.clean_streak = 0;
        }
        let t = Transition {
            from: self.state,
            to: next,
            at_decision: self.decisions,
        };
        self.state = next;
        self.transitions.push(t);
        Some(t)
    }

    /// Current operating state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The configured thresholds.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Decisions stepped so far.
    pub fn decision_count(&self) -> u64 {
        self.decisions
    }

    /// Unhealthy decisions currently inside the window.
    pub fn unhealthy_in_window(&self) -> u32 {
        self.history.count_ones()
    }

    /// Warning (corrected-fault) decisions currently inside the window.
    pub fn warnings_in_window(&self) -> u32 {
        self.warn_history.count_ones()
    }

    /// Current run of consecutive clean decisions.
    pub fn clean_streak(&self) -> u32 {
        self.clean_streak
    }

    /// Decisions spent in `state` so far.
    pub fn time_in(&self, state: HealthState) -> u64 {
        self.time_in[state.index()]
    }

    /// All transitions, in order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Exports the complete ladder state — rung, windows, streak,
    /// counters, and the transition log — for a process snapshot.
    ///
    /// [`HealthMonitor::restore`] is the inverse; together they let a
    /// restarted runtime resume the ladder exactly where it left off
    /// instead of silently resetting to Nominal.
    pub fn export_state(&self) -> LadderState {
        LadderState {
            state: self.state,
            history: self.history,
            warn_history: self.warn_history,
            clean_streak: self.clean_streak,
            decisions: self.decisions,
            time_in: self.time_in,
            transitions: self.transitions.clone(),
        }
    }

    /// Rebuilds a monitor from an exported [`LadderState`], validating
    /// the state against `config` so a corrupted or mismatched snapshot
    /// fails closed instead of resuming a ladder the thresholds cannot
    /// have produced.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadAssembly`] when `config` itself is
    /// invalid, a history window holds bits outside the configured
    /// window, the transition log is inconsistent with the final state,
    /// or counters disagree with the decision count.
    pub fn restore(config: HealthConfig, ladder: LadderState) -> Result<Self, CoreError> {
        config.validate()?;
        let bad = |msg: String| Err(CoreError::BadAssembly(msg));
        let mask = if config.window == 64 {
            u64::MAX
        } else {
            (1u64 << config.window) - 1
        };
        if ladder.history & !mask != 0 || ladder.warn_history & !mask != 0 {
            return bad(format!(
                "ladder history extends beyond the {}-decision window",
                config.window
            ));
        }
        if let Some(last) = ladder.transitions.last() {
            if last.to != ladder.state {
                return bad(format!(
                    "ladder state {} disagrees with last logged transition to {}",
                    ladder.state, last.to
                ));
            }
        } else if ladder.state != HealthState::Nominal {
            return bad(format!(
                "ladder state {} with an empty transition log",
                ladder.state
            ));
        }
        let mut prev = HealthState::Nominal;
        for t in &ladder.transitions {
            if t.from != prev {
                return bad(format!(
                    "transition log breaks continuity at {} -> {}",
                    t.from, t.to
                ));
            }
            if t.at_decision > ladder.decisions {
                return bad(format!(
                    "transition at decision {} beyond decision count {}",
                    t.at_decision, ladder.decisions
                ));
            }
            prev = t.to;
        }
        if ladder.time_in.iter().sum::<u64>() != ladder.decisions {
            return bad(format!(
                "time-in-state counters sum to {}, expected the decision count {}",
                ladder.time_in.iter().sum::<u64>(),
                ladder.decisions
            ));
        }
        // Producibility: every transition leaves the streak at 0 (an
        // escalating decision is unhealthy; de-escalation and `force`
        // reset it), so the streak counts at most the decisions since the
        // last one.
        let since = ladder.decisions - ladder.transitions.last().map_or(0, |t| t.at_decision);
        if u64::from(ladder.clean_streak) > since {
            return bad(format!(
                "clean streak {} exceeds the {since} decisions since the last transition",
                ladder.clean_streak
            ));
        }
        // Producibility: after d decisions only the low min(d, window)
        // history bits can be set — each decision shifts exactly one bit
        // in, and nothing else ever sets one.
        let lived_bits = ladder.decisions.min(u64::from(config.window)) as u32;
        if lived_bits < 64
            && (ladder.history >> lived_bits != 0 || ladder.warn_history >> lived_bits != 0)
        {
            return bad(format!(
                "history bits set beyond the {} decisions stepped",
                ladder.decisions
            ));
        }
        // Producibility: the clean streak counts decisions since the most
        // recent unhealthy one, and an unhealthy decision both sets
        // history bit 0 and zeroes the streak — so while any unhealthy
        // bit remains in the window the streak equals the distance to the
        // nearest one. (Paths that clear the streak — de-escalation,
        // `force` — clear the history with it, so `history != 0` always
        // pins the streak exactly.)
        if ladder.history != 0 && ladder.clean_streak != ladder.history.trailing_zeros() {
            return bad(format!(
                "clean streak {} disagrees with the unhealthy history (last unhealthy {} decisions ago)",
                ladder.clean_streak,
                ladder.history.trailing_zeros()
            ));
        }
        // Producibility: a resting state never sits at or above the
        // threshold that would have moved it — the decision that reached
        // the threshold (unhealthy count or clean streak) transitioned
        // then and there, and de-escalation clears the window on the way
        // down.
        let count = ladder.history.count_ones();
        match ladder.state {
            HealthState::Nominal if count >= config.degrade_events => {
                return bad(format!(
                    "nominal ladder with {count} unhealthy decisions in window (degrades at {})",
                    config.degrade_events
                ));
            }
            HealthState::Degraded if count >= config.stop_events => {
                return bad(format!(
                    "degraded ladder with {count} unhealthy decisions in window (stops at {})",
                    config.stop_events
                ));
            }
            HealthState::Degraded if ladder.clean_streak >= config.recover_after => {
                return bad(format!(
                    "degraded ladder with a clean streak of {} (recovers at {})",
                    ladder.clean_streak, config.recover_after
                ));
            }
            HealthState::SafeStop
                if config.resume_after > 0 && ladder.clean_streak >= config.resume_after =>
            {
                return bad(format!(
                    "safe-stopped ladder with a clean streak of {} (resumes at {})",
                    ladder.clean_streak, config.resume_after
                ));
            }
            _ => {}
        }
        Ok(HealthMonitor {
            config,
            state: ladder.state,
            history: ladder.history,
            warn_history: ladder.warn_history,
            clean_streak: ladder.clean_streak,
            decisions: ladder.decisions,
            time_in: ladder.time_in,
            transitions: ladder.transitions,
        })
    }

    /// Forces the ladder to `to` by supervisory action (watchdog
    /// escalation, maintenance override), bypassing the windowed verdict
    /// path. The windows and streak are cleared — the declared rung
    /// starts from scratch — and the transition is logged like any
    /// other. Returns `None` when already at `to`.
    pub fn force(&mut self, to: HealthState) -> Option<Transition> {
        if to == self.state {
            return None;
        }
        self.history = 0;
        self.warn_history = 0;
        self.clean_streak = 0;
        let t = Transition {
            from: self.state,
            to,
            at_decision: self.decisions,
        };
        self.state = to;
        self.transitions.push(t);
        Some(t)
    }
}

/// The complete internal state of a [`HealthMonitor`] ladder, as
/// exported by [`HealthMonitor::export_state`] for snapshotting. Plain
/// data: every field is what the monitor tracks, nothing derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderState {
    /// Current rung.
    pub state: HealthState,
    /// Recent-unhealthy window bitmask (newest in bit 0).
    pub history: u64,
    /// Recent-warning window bitmask (warn-budget consumption).
    pub warn_history: u64,
    /// Consecutive clean decisions so far.
    pub clean_streak: u32,
    /// Decisions stepped so far.
    pub decisions: u64,
    /// Decisions spent in each state `[nominal, degraded, safe_stop]`.
    pub time_in: [u64; 3],
    /// Transition log, in order.
    pub transitions: Vec<Transition>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(config: HealthConfig) -> HealthMonitor {
        HealthMonitor::new(config).expect("valid config")
    }

    fn quick() -> HealthConfig {
        HealthConfig {
            window: 8,
            degrade_events: 2,
            stop_events: 4,
            recover_after: 3,
            resume_after: 5,
            warn_budget: 3,
        }
    }

    #[test]
    fn validation_rejects_inconsistent_thresholds() {
        for bad in [
            HealthConfig {
                window: 0,
                ..Default::default()
            },
            HealthConfig {
                window: 65,
                ..Default::default()
            },
            HealthConfig {
                degrade_events: 0,
                ..Default::default()
            },
            HealthConfig {
                degrade_events: 5,
                stop_events: 3,
                ..Default::default()
            },
            HealthConfig {
                window: 4,
                degrade_events: 5,
                stop_events: 6,
                ..Default::default()
            },
            HealthConfig {
                recover_after: 0,
                ..Default::default()
            },
        ] {
            assert!(HealthMonitor::new(bad).is_err(), "accepted {bad:?}");
        }
        assert!(HealthMonitor::new(HealthConfig::default()).is_ok());
    }

    #[test]
    fn stays_nominal_on_clean_stream() {
        let mut m = monitor(quick());
        for _ in 0..100 {
            assert_eq!(m.step(false), None);
        }
        assert_eq!(m.state(), HealthState::Nominal);
        assert_eq!(m.time_in(HealthState::Nominal), 100);
        assert!(m.transitions().is_empty());
    }

    #[test]
    fn isolated_events_do_not_degrade() {
        // One unhealthy decision every 10 frames: the window (8) never
        // holds two at once, so the ladder never moves.
        let mut m = monitor(quick());
        for i in 0..100u64 {
            assert_eq!(m.step(i % 10 == 0), None);
        }
        assert_eq!(m.state(), HealthState::Nominal);
    }

    #[test]
    fn clustered_events_degrade_then_stop() {
        let mut m = monitor(quick());
        m.step(false);
        m.step(true);
        let t = m.step(true).expect("second event in window degrades");
        assert_eq!(
            (t.from, t.to),
            (HealthState::Nominal, HealthState::Degraded)
        );
        assert_eq!(t.at_decision, 3);
        m.step(true);
        let t = m.step(true).expect("fourth event in window stops");
        assert_eq!(
            (t.from, t.to),
            (HealthState::Degraded, HealthState::SafeStop)
        );
        assert_eq!(m.state(), HealthState::SafeStop);
    }

    #[test]
    fn burst_jumps_straight_to_safe_stop() {
        // Nominal can escalate directly to SafeStop if the window fills
        // fast enough — the ladder must not under-react to a burst.
        let mut m = monitor(HealthConfig {
            degrade_events: 4,
            stop_events: 4,
            ..quick()
        });
        m.step(true);
        m.step(true);
        m.step(true);
        let t = m.step(true).expect("burst transitions");
        assert_eq!(
            (t.from, t.to),
            (HealthState::Nominal, HealthState::SafeStop)
        );
    }

    #[test]
    fn windowed_counting_survives_detection_cadence() {
        // Events arriving every other decision (a CRC on cadence 2) still
        // accumulate within the window even with clean frames between.
        let mut m = monitor(quick());
        let mut degraded_at = None;
        for i in 1..=8u64 {
            if let Some(t) = m.step(i % 2 == 1) {
                degraded_at.get_or_insert(t.at_decision);
            }
        }
        assert_eq!(degraded_at, Some(3), "1 event at d1 + 1 at d3 degrades");
    }

    #[test]
    fn recovery_needs_a_full_clean_streak() {
        let mut m = monitor(quick());
        m.step(true);
        m.step(true); // degraded
        assert_eq!(m.state(), HealthState::Degraded);
        m.step(false);
        m.step(false);
        assert_eq!(m.state(), HealthState::Degraded, "streak of 2 < 3");
        let t = m.step(false).expect("third clean decision recovers");
        assert_eq!(
            (t.from, t.to),
            (HealthState::Degraded, HealthState::Nominal)
        );
        // The window was cleared: the two old events are forgotten and a
        // single fresh one does not instantly re-degrade.
        assert_eq!(m.unhealthy_in_window(), 0);
        assert_eq!(m.step(true), None);
    }

    #[test]
    fn clean_streak_saturates_instead_of_overflowing() {
        let decisions = (1u64 << 32) + 4;
        let ladder = LadderState {
            state: HealthState::Nominal,
            history: 0,
            warn_history: 0,
            clean_streak: u32::MAX,
            decisions,
            time_in: [decisions, 0, 0],
            transitions: Vec::new(),
        };
        let mut m = HealthMonitor::restore(quick(), ladder).expect("a producible ladder");
        assert_eq!(m.step(false), None);
        assert_eq!(m.clean_streak(), u32::MAX);
        assert_eq!(m.decision_count(), decisions + 1);
    }

    #[test]
    fn unhealthy_decision_resets_the_streak() {
        let mut m = monitor(quick());
        m.step(true);
        m.step(true); // degraded
        m.step(false);
        m.step(false);
        m.step(true); // streak broken (and window at 3 events, below stop)
        assert_eq!(m.state(), HealthState::Degraded);
        m.step(false);
        m.step(false);
        assert_eq!(m.state(), HealthState::Degraded);
        assert!(m.step(false).is_some(), "fresh streak of 3 recovers");
    }

    #[test]
    fn safe_stop_latches_by_default() {
        let mut m = monitor(HealthConfig {
            resume_after: 0,
            ..quick()
        });
        for _ in 0..4 {
            m.step(true);
        }
        assert_eq!(m.state(), HealthState::SafeStop);
        for _ in 0..1000 {
            assert_eq!(m.step(false), None);
        }
        assert_eq!(m.state(), HealthState::SafeStop, "latched");
    }

    #[test]
    fn safe_stop_resumes_one_rung_when_allowed() {
        let mut m = monitor(quick()); // resume_after: 5
        for _ in 0..4 {
            m.step(true);
        }
        assert_eq!(m.state(), HealthState::SafeStop);
        for _ in 0..4 {
            assert_eq!(m.step(false), None);
        }
        let t = m.step(false).expect("fifth clean decision resumes");
        assert_eq!(
            (t.from, t.to),
            (HealthState::SafeStop, HealthState::Degraded)
        );
        // And a further clean streak walks it back to nominal.
        m.step(false);
        m.step(false);
        let t = m.step(false).expect("recover to nominal");
        assert_eq!(t.to, HealthState::Nominal);
        assert_eq!(m.transitions().len(), 4);
    }

    #[test]
    fn time_in_state_accounts_every_decision() {
        let mut m = monitor(quick());
        m.step(true);
        m.step(true); // decision 2 lands in Degraded
        m.step(false);
        m.step(false);
        m.step(false); // decision 5 lands back in Nominal
        let total = m.time_in(HealthState::Nominal)
            + m.time_in(HealthState::Degraded)
            + m.time_in(HealthState::SafeStop);
        assert_eq!(total, m.decision_count());
        assert_eq!(m.time_in(HealthState::Degraded), 3);
    }

    #[test]
    fn window_of_64_is_valid() {
        let mut m = monitor(HealthConfig {
            window: 64,
            degrade_events: 64,
            stop_events: 64,
            ..quick()
        });
        for _ in 0..63 {
            assert_eq!(m.step(true), None);
        }
        assert!(m.step(true).is_some(), "64th event fills the full window");
    }

    #[test]
    fn warnings_within_budget_behave_like_clean() {
        // warn_budget 3: a trickle of corrected faults neither degrades
        // the ladder nor breaks recovery streaks.
        let mut m = monitor(quick());
        for i in 0..24u64 {
            let verdict = if i % 8 == 0 {
                HealthVerdict::Warning
            } else {
                HealthVerdict::Clean
            };
            assert_eq!(m.step_verdict(verdict), None, "decision {i}");
        }
        assert_eq!(m.state(), HealthState::Nominal);
        assert_eq!(m.unhealthy_in_window(), 0);

        // Streak test: degrade, then recover across a within-budget
        // warning — the warning must not reset the clean streak.
        let mut m = monitor(quick());
        m.step(true);
        m.step(true);
        assert_eq!(m.state(), HealthState::Degraded);
        m.step_verdict(HealthVerdict::Clean);
        m.step_verdict(HealthVerdict::Warning);
        assert!(
            m.step_verdict(HealthVerdict::Clean).is_some(),
            "a budgeted warning counts toward the recovery streak"
        );
        assert_eq!(m.state(), HealthState::Nominal);
    }

    #[test]
    fn warnings_beyond_budget_escalate() {
        // Five warnings inside one window against a budget of 3: the 4th
        // and 5th fold in as unhealthy and the ladder degrades.
        let mut m = monitor(quick());
        let mut transition = None;
        for _ in 0..5 {
            if let Some(t) = m.step_verdict(HealthVerdict::Warning) {
                transition.get_or_insert(t);
            }
        }
        let t = transition.expect("budget exhaustion must degrade");
        assert_eq!(
            (t.from, t.to),
            (HealthState::Nominal, HealthState::Degraded)
        );
        assert_eq!(t.at_decision, 5, "warnings 1–3 spend budget, 4–5 count");
        assert_eq!(m.warnings_in_window(), 5);
        assert_eq!(m.unhealthy_in_window(), 2);
    }

    #[test]
    fn warnings_age_out_of_the_window() {
        // 4 warnings, then a long clean stretch, then 3 more: the old
        // warnings have left the window, so the budget is fresh.
        let mut m = monitor(quick());
        for _ in 0..3 {
            assert_eq!(m.step_verdict(HealthVerdict::Warning), None);
        }
        for _ in 0..8 {
            assert_eq!(m.step_verdict(HealthVerdict::Clean), None);
        }
        for _ in 0..3 {
            assert_eq!(m.step_verdict(HealthVerdict::Warning), None);
        }
        assert_eq!(m.state(), HealthState::Nominal);
        assert_eq!(m.warnings_in_window(), 3);
    }

    #[test]
    fn zero_warn_budget_treats_every_warning_as_unhealthy() {
        let mut m = monitor(HealthConfig {
            warn_budget: 0,
            ..quick()
        });
        m.step_verdict(HealthVerdict::Warning);
        let t = m
            .step_verdict(HealthVerdict::Warning)
            .expect("two unhealthy-equivalent decisions degrade");
        assert_eq!(t.to, HealthState::Degraded);
    }

    #[test]
    fn display_and_tags() {
        assert_eq!(HealthState::Nominal.to_string(), "nominal");
        assert_eq!(HealthState::SafeStop.tag(), "safe_stop");
        let t = Transition {
            from: HealthState::Nominal,
            to: HealthState::Degraded,
            at_decision: 7,
        };
        assert_eq!(t.to_string(), "nominal -> degraded @ 7");
    }

    #[test]
    fn export_restore_round_trips_mid_walk() {
        // Walk a ladder into Degraded with a live window and a partial
        // streak, export, restore, and check both monitors step
        // identically from there on.
        let mut m = monitor(quick());
        m.step(true);
        m.step(true); // degraded
        m.step(false);
        m.step_verdict(HealthVerdict::Warning);
        let exported = m.export_state();
        let mut restored = HealthMonitor::restore(quick(), exported.clone()).expect("restore");
        assert_eq!(restored.state(), m.state());
        assert_eq!(restored.decision_count(), m.decision_count());
        assert_eq!(restored.clean_streak(), m.clean_streak());
        assert_eq!(restored.unhealthy_in_window(), m.unhealthy_in_window());
        assert_eq!(restored.warnings_in_window(), m.warnings_in_window());
        assert_eq!(restored.export_state(), exported);
        for verdict in [
            HealthVerdict::Clean,
            HealthVerdict::Warning,
            HealthVerdict::Unhealthy,
            HealthVerdict::Clean,
            HealthVerdict::Clean,
            HealthVerdict::Clean,
            HealthVerdict::Clean,
        ] {
            assert_eq!(m.step_verdict(verdict), restored.step_verdict(verdict));
            assert_eq!(m.state(), restored.state());
        }
    }

    #[test]
    fn restore_fails_closed_on_inconsistent_state() {
        let mut m = monitor(quick());
        m.step(true);
        m.step(true); // degraded
        let good = m.export_state();

        // History bits outside the window.
        let mut bad = good.clone();
        bad.history |= 1 << 60;
        assert!(HealthMonitor::restore(quick(), bad).is_err());

        // State disagreeing with the transition log.
        let mut bad = good.clone();
        bad.state = HealthState::SafeStop;
        assert!(HealthMonitor::restore(quick(), bad).is_err());

        // Non-nominal state with no transitions at all.
        let bad = LadderState {
            state: HealthState::Degraded,
            history: 0,
            warn_history: 0,
            clean_streak: 0,
            decisions: 5,
            time_in: [5, 0, 0],
            transitions: Vec::new(),
        };
        assert!(HealthMonitor::restore(quick(), bad).is_err());

        // Broken transition continuity.
        let mut bad = good.clone();
        bad.transitions.insert(
            0,
            Transition {
                from: HealthState::Degraded,
                to: HealthState::SafeStop,
                at_decision: 1,
            },
        );
        assert!(HealthMonitor::restore(quick(), bad).is_err());

        // Counters beyond the decision count.
        let mut bad = good.clone();
        bad.time_in = [100, 100, 100];
        assert!(HealthMonitor::restore(quick(), bad).is_err());
        let mut bad = good.clone();
        bad.clean_streak = 99;
        assert!(HealthMonitor::restore(quick(), bad).is_err());

        // A transition stamped after the decision count.
        let mut bad = good.clone();
        bad.transitions[0].at_decision = 50;
        assert!(HealthMonitor::restore(quick(), bad).is_err());

        // The untouched export still restores.
        assert!(HealthMonitor::restore(quick(), good).is_ok());
    }

    #[test]
    fn restore_rejects_unproducible_states() {
        // Found by the structure-aware fuzz harness (safex-fuzz, ladder
        // surface): the pre-hardening validator accepted exported states
        // no sequence of verdicts can produce, letting a tampered
        // snapshot resume a ladder with forged recovery credit.
        let mut m = monitor(quick());
        m.step(true);
        m.step(true); // degraded
        let good = m.export_state();

        // (a) History bits claiming more decisions than were stepped.
        let bad_state = LadderState {
            state: HealthState::Nominal,
            history: 0b1,
            warn_history: 0,
            clean_streak: 0,
            decisions: 0,
            time_in: [0, 0, 0],
            transitions: Vec::new(),
        };
        assert!(HealthMonitor::restore(quick(), bad_state).is_err());

        // (b) A clean streak coexisting with an unhealthy bit at the
        // newest window position — stepping unhealthy always zeroes the
        // streak, so this pair is forged recovery credit.
        let mut forged = good.clone();
        assert_eq!(forged.history & 1, 1, "last decision was unhealthy");
        forged.clean_streak = 1;
        forged.time_in = [1, 1, 0];
        forged.decisions = 2;
        assert!(HealthMonitor::restore(quick(), forged).is_err());

        // (c) Time-in-state counters that undercount decisions (the old
        // check only rejected overcounts).
        let mut skewed = good.clone();
        skewed.time_in = [0, 0, 0];
        assert!(HealthMonitor::restore(quick(), skewed).is_err());

        // (d) A resting state at or above its own escalation threshold.
        let nominal_over = LadderState {
            state: HealthState::Nominal,
            history: 0b11,
            warn_history: 0,
            clean_streak: 0,
            decisions: 2,
            time_in: [2, 0, 0],
            transitions: Vec::new(),
        };
        assert!(HealthMonitor::restore(quick(), nominal_over).is_err());

        // The genuine export still restores after all added checks.
        assert!(HealthMonitor::restore(quick(), good).is_ok());
    }

    #[test]
    fn restore_refuses_a_resting_rung_whose_streak_has_reached_its_threshold() {
        // A saturated streak (2³² clean decisions) is producible only on
        // a rung it cannot move: Nominal, or a latched SafeStop.
        let decisions = (1u64 << 32) + 4;
        let probe = |state: HealthState, transitions: Vec<Transition>| LadderState {
            state,
            history: 0,
            warn_history: 0,
            clean_streak: u32::MAX,
            decisions,
            time_in: [decisions - 4, 2, 2],
            transitions,
        };
        let to_degraded = Transition {
            from: HealthState::Nominal,
            to: HealthState::Degraded,
            at_decision: 2,
        };
        let to_stop = Transition {
            from: HealthState::Degraded,
            to: HealthState::SafeStop,
            at_decision: 4,
        };

        let mut nominal = HealthMonitor::restore(quick(), probe(HealthState::Nominal, Vec::new()))
            .expect("a saturated nominal streak is producible");
        assert_eq!(nominal.step(false), None);
        assert_eq!(nominal.clean_streak(), u32::MAX, "the streak saturates");

        let degraded = probe(HealthState::Degraded, vec![to_degraded]);
        assert!(HealthMonitor::restore(quick(), degraded).is_err());
        let stopped = probe(HealthState::SafeStop, vec![to_degraded, to_stop]);
        assert!(HealthMonitor::restore(quick(), stopped.clone()).is_err());
        let latched = HealthConfig {
            resume_after: 0,
            ..quick()
        };
        assert!(HealthMonitor::restore(latched, stopped).is_ok());

        // The threshold itself is the first unproducible streak.
        let at = |state, streak, transitions| LadderState {
            clean_streak: streak,
            decisions: 20,
            time_in: [2, 2, 16],
            ..probe(state, transitions)
        };
        let config = quick();
        let cases = [
            (
                HealthState::Degraded,
                config.recover_after,
                vec![to_degraded],
            ),
            (
                HealthState::SafeStop,
                config.resume_after,
                vec![to_degraded, to_stop],
            ),
        ];
        for (state, threshold, transitions) in cases {
            let below = at(state, threshold - 1, transitions.clone());
            assert!(HealthMonitor::restore(config, below).is_ok(), "{state}");
            let reached = at(state, threshold, transitions);
            assert!(HealthMonitor::restore(config, reached).is_err(), "{state}");
        }
    }

    #[test]
    fn restore_bounds_the_streak_by_the_decisions_since_the_last_transition() {
        // Degraded at decision 2, recovered at decision 6: four clean
        // decisions later the streak is 4, never more.
        let ladder = |clean_streak| LadderState {
            state: HealthState::Nominal,
            history: 0,
            warn_history: 0,
            clean_streak,
            decisions: 10,
            time_in: [6, 4, 0],
            transitions: vec![
                Transition {
                    from: HealthState::Nominal,
                    to: HealthState::Degraded,
                    at_decision: 2,
                },
                Transition {
                    from: HealthState::Degraded,
                    to: HealthState::Nominal,
                    at_decision: 6,
                },
            ],
        };
        assert!(HealthMonitor::restore(quick(), ladder(4)).is_ok());
        assert!(HealthMonitor::restore(quick(), ladder(5)).is_err());

        // The same walk, stepped for real, exports exactly that bound.
        let mut m = monitor(quick());
        m.step(true);
        m.step(true); // degraded at 2
        for _ in 0..7 {
            m.step(false); // recovers at 5
        }
        let exported = m.export_state();
        let last = exported.transitions.last().expect("recovered").at_decision;
        assert_eq!(u64::from(exported.clean_streak), exported.decisions - last);
        assert!(HealthMonitor::restore(quick(), exported).is_ok());
    }

    #[test]
    fn force_walks_the_ladder_and_logs_like_any_transition() {
        let mut m = monitor(quick());
        m.step(false);
        assert_eq!(m.force(HealthState::Nominal), None, "no-op force");
        let t = m.force(HealthState::Degraded).expect("forced degrade");
        assert_eq!(
            (t.from, t.to),
            (HealthState::Nominal, HealthState::Degraded)
        );
        assert_eq!(t.at_decision, 1);
        let t = m.force(HealthState::SafeStop).expect("forced stop");
        assert_eq!(
            (t.from, t.to),
            (HealthState::Degraded, HealthState::SafeStop)
        );
        assert_eq!(m.transitions().len(), 2);
        assert_eq!(m.state(), HealthState::SafeStop);
        // Forcing cleared the windows: the exported state restores.
        let restored = HealthMonitor::restore(quick(), m.export_state()).expect("restorable");
        assert_eq!(restored.state(), HealthState::SafeStop);
    }
}
