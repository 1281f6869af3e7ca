//! The safety patterns: bare, monitor-actuator, simplex, safety bag,
//! 2-out-of-3, degraded-mode cascade.

use safex_supervision::{CalibratedMonitor, Verdict};

use crate::channel::Channel;
use crate::decision::{Decision, FallbackReason};
use crate::error::PatternError;

/// A composed safety architecture that turns inputs into [`Decision`]s.
///
/// All patterns are object-safe so pipelines and cascades can hold
/// heterogeneous `Box<dyn SafetyPattern>` ladders.
pub trait SafetyPattern {
    /// Stable pattern name for evidence records.
    fn name(&self) -> &'static str;

    /// Decides an action for one input.
    ///
    /// Channel faults are *handled* (they produce conservative decisions),
    /// not propagated; only infrastructure failures (wrong input size,
    /// unfitted monitors) surface as errors.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError`] for infrastructure failures.
    fn decide(&mut self, input: &[f32]) -> Result<Decision, PatternError>;

    /// Decides a batch of inputs in order, returning one decision per
    /// input.
    ///
    /// The default drives [`SafetyPattern::decide`] sequentially: patterns
    /// are stateful (temporal consistency, cascade hysteresis), so batch
    /// semantics must equal feeding the inputs one at a time. Parallelism
    /// belongs *inside* a decision (redundant channels, engine pools),
    /// never across decisions, or state updates would become
    /// scheduling-dependent.
    ///
    /// # Errors
    ///
    /// Returns the first infrastructure failure; decisions already made
    /// are discarded (no partial batches).
    fn decide_batch(&mut self, inputs: &[&[f32]]) -> Result<Vec<Decision>, PatternError> {
        inputs.iter().map(|input| self.decide(input)).collect()
    }
}

/// The unprotected baseline: one DL channel, its word is final.
///
/// Exists so experiments can quantify what the other patterns buy.
pub struct Bare {
    channel: Box<dyn Channel>,
}

impl Bare {
    /// Wraps a single channel (boxed internally).
    pub fn new(channel: impl Channel + 'static) -> Self {
        Bare {
            channel: Box::new(channel),
        }
    }
}

impl SafetyPattern for Bare {
    fn name(&self) -> &'static str {
        "bare"
    }

    fn decide(&mut self, input: &[f32]) -> Result<Decision, PatternError> {
        match self.channel.decide(input) {
            Ok(v) => Ok(Decision::proceed(v.class, v.confidence, 1, 0)),
            Err(PatternError::ChannelFault(_)) => {
                // Even the bare pattern cannot act on garbage; emergency stop.
                Ok(Decision::safe_stop(FallbackReason::ChannelFault, 1, 0))
            }
            Err(e) => Err(e),
        }
    }
}

/// Monitor-actuator: the channel's *output* must satisfy a plausibility
/// envelope (confidence floor + temporal consistency) or the actuator is
/// sent to the safe state.
///
/// The monitor here is intentionally non-ML: it is the independent, simple,
/// verifiable component the pattern's safety argument rests on. An
/// optional *monitor channel* ([`Self::with_monitor_channel`]) adds a
/// second, independently developed channel whose class must agree with
/// the primary's.
pub struct MonitorActuator {
    channel: Box<dyn Channel>,
    monitor: Option<Box<dyn Channel>>,
    confidence_floor: f32,
    /// A new class must persist this many consecutive frames before it is
    /// acted on (0 = no temporal filtering).
    consistency_frames: u32,
    last_class: Option<usize>,
    streak: u32,
}

impl MonitorActuator {
    /// Creates the pattern (channel boxed internally, no monitor channel).
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::BadConfig`] if `confidence_floor` is not in
    /// `[0, 1]`.
    pub fn new(
        channel: impl Channel + 'static,
        confidence_floor: f32,
        consistency_frames: u32,
    ) -> Result<Self, PatternError> {
        if !(0.0..=1.0).contains(&confidence_floor) || !confidence_floor.is_finite() {
            return Err(PatternError::BadConfig(format!(
                "confidence floor {confidence_floor} outside [0, 1]"
            )));
        }
        Ok(MonitorActuator {
            channel: Box::new(channel),
            monitor: None,
            confidence_floor,
            consistency_frames,
            last_class: None,
            streak: 0,
        })
    }

    /// Adds an independent monitor channel that must agree with the
    /// primary's class, or the actuator is sent to the safe state.
    #[must_use]
    pub fn with_monitor_channel(mut self, monitor: impl Channel + 'static) -> Self {
        self.monitor = Some(Box::new(monitor));
        self
    }
}

impl SafetyPattern for MonitorActuator {
    fn name(&self) -> &'static str {
        "monitor_actuator"
    }

    fn decide(&mut self, input: &[f32]) -> Result<Decision, PatternError> {
        let has_monitor = self.monitor.is_some();
        let (evals, checks) = if has_monitor { (2, 2) } else { (1, 1) };
        let primary_outcome = self.channel.decide(input);
        let monitor_outcome = self.monitor.as_mut().map(|m| m.decide(input));
        let verdict = match primary_outcome {
            Ok(v) => v,
            Err(PatternError::ChannelFault(_)) => {
                return Ok(Decision::safe_stop(
                    FallbackReason::ChannelFault,
                    evals,
                    checks,
                ));
            }
            Err(e) => return Err(e),
        };
        if let Some(outcome) = monitor_outcome {
            // A dead monitor voids the safety argument just as surely as a
            // dead primary; a disagreeing one flags an implausible output.
            let monitor_verdict = match outcome {
                Ok(v) => v,
                Err(PatternError::ChannelFault(_)) => {
                    return Ok(Decision::safe_stop(
                        FallbackReason::ChannelFault,
                        evals,
                        checks,
                    ));
                }
                Err(e) => return Err(e),
            };
            if monitor_verdict.class != verdict.class {
                return Ok(Decision::safe_stop(
                    FallbackReason::ImplausibleOutput,
                    evals,
                    checks,
                ));
            }
        }
        if verdict.confidence < self.confidence_floor {
            return Ok(Decision::safe_stop(
                FallbackReason::ImplausibleOutput,
                evals,
                checks,
            ));
        }
        // Temporal consistency: require the class to persist.
        if self.consistency_frames > 0 {
            match self.last_class {
                Some(last) if last == verdict.class => {
                    self.streak = self.streak.saturating_add(1);
                }
                _ => {
                    self.last_class = Some(verdict.class);
                    self.streak = 1;
                }
            }
            if self.streak < self.consistency_frames {
                return Ok(Decision::safe_stop(
                    FallbackReason::ImplausibleOutput,
                    evals,
                    checks,
                ));
            }
        }
        Ok(Decision::proceed(
            verdict.class,
            verdict.confidence,
            evals,
            checks,
        ))
    }
}

/// Simplex / supervised channel: an OOD supervisor gates the DL channel;
/// rejected inputs are handled by an independently developed fallback
/// channel.
///
/// This is the pattern the SAFEXPLAIN abstract's "strategies to reach (and
/// prove) correct operation" most directly names: the complex component is
/// allowed to be complex because a simple component bounds it.
pub struct Simplex {
    primary: safex_nn::Engine,
    monitor: CalibratedMonitor,
    fallback: Box<dyn Channel>,
}

impl Simplex {
    /// Creates the pattern from a primary engine, a calibrated monitor,
    /// and a fallback channel (boxed internally).
    pub fn new(
        primary: safex_nn::Engine,
        monitor: CalibratedMonitor,
        fallback: impl Channel + 'static,
    ) -> Self {
        Simplex {
            primary,
            monitor,
            fallback: Box::new(fallback),
        }
    }
}

impl SafetyPattern for Simplex {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn decide(&mut self, input: &[f32]) -> Result<Decision, PatternError> {
        let obs = match safex_supervision::observe(&mut self.primary, input) {
            Ok(o) => o,
            Err(safex_supervision::SupervisionError::Nn(e)) => return Err(PatternError::Nn(e)),
            Err(e) => return Err(PatternError::Supervision(e)),
        };
        // A non-finite observation is a channel fault, not a monitor call.
        if obs.validate().is_err() {
            let fb = self.fallback.decide(input)?;
            return Ok(Decision::fallback(
                fb.class,
                FallbackReason::ChannelFault,
                2,
                0,
            ));
        }
        let (verdict, _score) = self.monitor.check(&obs)?;
        match verdict {
            Verdict::Accept => Ok(Decision::proceed(
                obs.predicted_class(),
                obs.confidence(),
                1,
                1,
            )),
            Verdict::Reject => {
                let fb = self.fallback.decide(input)?;
                Ok(Decision::fallback(
                    fb.class,
                    FallbackReason::MonitorReject,
                    2,
                    1,
                ))
            }
        }
    }
}

/// Boxed veto rule for [`SafetyBag`]:
/// `check(input, proposed_class) -> permitted?`.
pub type VetoRule = Box<dyn FnMut(&[f32], usize) -> bool>;

/// Boxed acceptance test for [`RecoveryBlock`]:
/// `accept(input, proposed_class, confidence) -> acceptable?`.
pub type AcceptanceTest = Box<dyn FnMut(&[f32], usize, f32) -> bool>;

/// Safety bag: the DL channel proposes, an independent rule-based checker
/// can veto. A vetoed proposal becomes a safe stop.
pub struct SafetyBag {
    proposer: Box<dyn Channel>,
    checker: VetoRule,
}

impl SafetyBag {
    /// Creates the pattern from a proposing channel and a veto rule (both
    /// boxed internally).
    pub fn new(
        proposer: impl Channel + 'static,
        checker: impl FnMut(&[f32], usize) -> bool + 'static,
    ) -> Self {
        SafetyBag {
            proposer: Box::new(proposer),
            checker: Box::new(checker),
        }
    }
}

impl SafetyPattern for SafetyBag {
    fn name(&self) -> &'static str {
        "safety_bag"
    }

    fn decide(&mut self, input: &[f32]) -> Result<Decision, PatternError> {
        let verdict = match self.proposer.decide(input) {
            Ok(v) => v,
            Err(PatternError::ChannelFault(_)) => {
                return Ok(Decision::safe_stop(FallbackReason::ChannelFault, 1, 1));
            }
            Err(e) => return Err(e),
        };
        if (self.checker)(input, verdict.class) {
            Ok(Decision::proceed(verdict.class, verdict.confidence, 1, 1))
        } else {
            Ok(Decision::safe_stop(FallbackReason::EnvelopeViolation, 1, 1))
        }
    }
}

/// Recovery block (Randell's classic): the primary channel proposes; an
/// acceptance test judges the proposal; on rejection the *alternate*
/// channel proposes, subject to the same test; if both fail, safe stop.
///
/// Differs from [`SafetyBag`] (which stops on veto) by retrying with a
/// diverse alternate before giving up — buying availability at the price
/// of a second evaluation on the failure path.
pub struct RecoveryBlock {
    primary: Box<dyn Channel>,
    alternate: Box<dyn Channel>,
    acceptance: AcceptanceTest,
}

impl RecoveryBlock {
    /// Creates the pattern from primary, alternate, and acceptance test
    /// (all boxed internally).
    pub fn new(
        primary: impl Channel + 'static,
        alternate: impl Channel + 'static,
        acceptance: impl FnMut(&[f32], usize, f32) -> bool + 'static,
    ) -> Self {
        RecoveryBlock {
            primary: Box::new(primary),
            alternate: Box::new(alternate),
            acceptance: Box::new(acceptance),
        }
    }
}

impl SafetyPattern for RecoveryBlock {
    fn name(&self) -> &'static str {
        "recovery_block"
    }

    fn decide(&mut self, input: &[f32]) -> Result<Decision, PatternError> {
        let mut evals = 0u32;
        let mut checks = 0u32;
        // Try primary, then alternate.
        for (which, channel) in [&mut self.primary, &mut self.alternate]
            .into_iter()
            .enumerate()
        {
            evals += 1;
            let verdict = match channel.decide(input) {
                Ok(v) => v,
                Err(PatternError::ChannelFault(_)) => continue,
                Err(e) => return Err(e),
            };
            checks += 1;
            if (self.acceptance)(input, verdict.class, verdict.confidence) {
                return Ok(if which == 0 {
                    Decision::proceed(verdict.class, verdict.confidence, evals, checks)
                } else {
                    Decision::fallback(
                        verdict.class,
                        FallbackReason::ImplausibleOutput,
                        evals,
                        checks,
                    )
                });
            }
        }
        Ok(Decision::safe_stop(
            FallbackReason::ImplausibleOutput,
            evals,
            checks,
        ))
    }
}

/// 2-out-of-3 diverse redundancy: three channels vote; a majority class
/// proceeds, full disagreement stops.
///
/// Diversity is the caller's job (different seeds, float vs quantised
/// builds, DL vs classical) — the voter only assumes failure
/// independence.
pub struct TwoOutOfThree {
    channels: [Box<dyn Channel>; 3],
}

impl TwoOutOfThree {
    /// Creates the voter (channels boxed internally).
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` keeps room for diversity checks
    /// without breaking the signature.
    pub fn new(
        a: impl Channel + 'static,
        b: impl Channel + 'static,
        c: impl Channel + 'static,
    ) -> Result<Self, PatternError> {
        Ok(TwoOutOfThree {
            channels: [Box::new(a), Box::new(b), Box::new(c)],
        })
    }
}

impl SafetyPattern for TwoOutOfThree {
    fn name(&self) -> &'static str {
        "two_out_of_three"
    }

    fn decide(&mut self, input: &[f32]) -> Result<Decision, PatternError> {
        let mut verdicts = Vec::with_capacity(3);
        let mut faults = 0u32;
        // Every voter decides before any vote is tallied, in declared
        // order.
        let outcomes: Vec<_> = self.channels.iter_mut().map(|c| c.decide(input)).collect();
        for outcome in outcomes {
            match outcome {
                Ok(v) => verdicts.push(v),
                Err(PatternError::ChannelFault(_)) => faults += 1,
                Err(e) => return Err(e),
            }
        }
        // Majority among the surviving channels.
        let mut best: Option<(usize, u32, f32)> = None; // class, votes, conf sum
        for v in &verdicts {
            let votes = verdicts.iter().filter(|o| o.class == v.class).count() as u32;
            let conf: f32 = verdicts
                .iter()
                .filter(|o| o.class == v.class)
                .map(|o| o.confidence)
                .sum();
            match best {
                None => best = Some((v.class, votes, conf)),
                Some((_, bv, _)) if votes > bv => best = Some((v.class, votes, conf)),
                _ => {}
            }
        }
        match best {
            Some((class, votes, conf_sum)) if votes >= 2 => {
                Ok(Decision::proceed(class, conf_sum / votes as f32, 3, 0))
            }
            _ => {
                // No majority (disagreement) or too many faults.
                let reason = if faults > 0 {
                    FallbackReason::ChannelFault
                } else {
                    FallbackReason::ChannelDisagreement
                };
                Ok(Decision::safe_stop(reason, 3, 0))
            }
        }
    }
}

/// Degraded-mode cascade: an ordered ladder of patterns, most capable
/// first. Repeated conservative decisions trip the system one rung down;
/// a long healthy streak recovers one rung up.
pub struct Cascade {
    levels: Vec<Box<dyn SafetyPattern>>,
    current: usize,
    trip_threshold: u32,
    recover_threshold: u32,
    conservative_streak: u32,
    healthy_streak: u32,
}

impl Cascade {
    /// Creates a cascade.
    ///
    /// `trip_threshold` consecutive conservative decisions demote one
    /// level; `recover_threshold` consecutive proceeds promote one level.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::BadConfig`] for an empty ladder or zero
    /// thresholds.
    pub fn new(
        levels: Vec<Box<dyn SafetyPattern>>,
        trip_threshold: u32,
        recover_threshold: u32,
    ) -> Result<Self, PatternError> {
        if levels.is_empty() {
            return Err(PatternError::BadConfig("cascade needs levels".into()));
        }
        if trip_threshold == 0 || recover_threshold == 0 {
            return Err(PatternError::BadConfig(
                "cascade thresholds must be non-zero".into(),
            ));
        }
        Ok(Cascade {
            levels,
            current: 0,
            trip_threshold,
            recover_threshold,
            conservative_streak: 0,
            healthy_streak: 0,
        })
    }

    /// The active level (0 = most capable).
    pub fn current_level(&self) -> usize {
        self.current
    }

    /// Number of levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }
}

impl SafetyPattern for Cascade {
    fn name(&self) -> &'static str {
        "cascade"
    }

    fn decide(&mut self, input: &[f32]) -> Result<Decision, PatternError> {
        let decision = self.levels[self.current].decide(input)?;
        if decision.action.is_conservative() {
            self.conservative_streak += 1;
            self.healthy_streak = 0;
            if self.conservative_streak >= self.trip_threshold
                && self.current + 1 < self.levels.len()
            {
                self.current += 1;
                self.conservative_streak = 0;
            }
        } else {
            self.healthy_streak += 1;
            self.conservative_streak = 0;
            if self.healthy_streak >= self.recover_threshold && self.current > 0 {
                self.current -= 1;
                self.healthy_streak = 0;
            }
        }
        Ok(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelVerdict, ConstantChannel, RuleChannel};

    /// A channel scripted to return a fixed sequence of outcomes.
    struct Scripted {
        outcomes: Vec<Result<ChannelVerdict, ()>>,
        pos: usize,
    }

    impl Scripted {
        fn new(outcomes: Vec<Result<ChannelVerdict, ()>>) -> Self {
            Scripted { outcomes, pos: 0 }
        }

        fn ok(class: usize, confidence: f32) -> Result<ChannelVerdict, ()> {
            Ok(ChannelVerdict { class, confidence })
        }
    }

    impl Channel for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }

        fn decide(&mut self, _input: &[f32]) -> Result<ChannelVerdict, PatternError> {
            let out = self.outcomes[self.pos % self.outcomes.len()];
            self.pos += 1;
            out.map_err(|()| PatternError::ChannelFault("scripted fault".into()))
        }
    }

    #[test]
    fn bare_passes_through_and_stops_on_fault() {
        let mut p = Bare::new(Scripted::new(vec![Scripted::ok(1, 0.9), Err(())]));
        let d = p.decide(&[0.0]).unwrap();
        assert_eq!(d.action.class(), Some(1));
        assert!(d.action.is_proceed());
        let d = p.decide(&[0.0]).unwrap();
        assert_eq!(d.action.reason(), Some(FallbackReason::ChannelFault));
    }

    #[test]
    fn monitor_actuator_enforces_confidence_floor() {
        let mut p = MonitorActuator::new(
            Scripted::new(vec![Scripted::ok(0, 0.95), Scripted::ok(0, 0.3)]),
            0.5,
            0,
        )
        .unwrap();
        assert!(p.decide(&[0.0]).unwrap().action.is_proceed());
        let d = p.decide(&[0.0]).unwrap();
        assert_eq!(d.action.reason(), Some(FallbackReason::ImplausibleOutput));
    }

    #[test]
    fn monitor_actuator_temporal_consistency() {
        // New class must persist 2 frames.
        let mut p = MonitorActuator::new(
            Scripted::new(vec![
                Scripted::ok(0, 0.9),
                Scripted::ok(0, 0.9),
                Scripted::ok(1, 0.9), // class change: held back
                Scripted::ok(1, 0.9), // second frame: accepted
            ]),
            0.5,
            2,
        )
        .unwrap();
        assert!(!p.decide(&[0.0]).unwrap().action.is_proceed()); // streak 1
        assert!(p.decide(&[0.0]).unwrap().action.is_proceed()); // streak 2
        assert!(!p.decide(&[0.0]).unwrap().action.is_proceed()); // new class, streak 1
        assert!(p.decide(&[0.0]).unwrap().action.is_proceed()); // streak 2
    }

    #[test]
    fn monitor_actuator_config_validation() {
        let ch = ConstantChannel::new("c", 0);
        assert!(MonitorActuator::new(ch, 1.5, 0).is_err());
    }

    #[test]
    fn safety_bag_vetoes() {
        let proposer = Scripted::new(vec![Scripted::ok(1, 0.9), Scripted::ok(2, 0.9)]);
        // Veto class 2 regardless of input.
        let mut p = SafetyBag::new(proposer, |_x: &[f32], class| class != 2);
        assert!(p.decide(&[0.0]).unwrap().action.is_proceed());
        let d = p.decide(&[0.0]).unwrap();
        assert_eq!(d.action.reason(), Some(FallbackReason::EnvelopeViolation));
    }

    #[test]
    fn two_out_of_three_majority() {
        let mk = |class: usize| ConstantChannel::new("c", class);
        let mut p = TwoOutOfThree::new(mk(1), mk(1), mk(0)).unwrap();
        let d = p.decide(&[0.0]).unwrap();
        assert_eq!(d.action.class(), Some(1));
        assert_eq!(d.channel_evals, 3);
    }

    #[test]
    fn two_out_of_three_disagreement_stops() {
        let mk = |class: usize| ConstantChannel::new("c", class);
        let mut p = TwoOutOfThree::new(mk(0), mk(1), mk(2)).unwrap();
        let d = p.decide(&[0.0]).unwrap();
        assert_eq!(d.action.reason(), Some(FallbackReason::ChannelDisagreement));
    }

    #[test]
    fn two_out_of_three_survives_one_fault() {
        let faulty = Scripted::new(vec![Err(())]);
        let mk = |class: usize| ConstantChannel::new("c", class);
        let mut p = TwoOutOfThree::new(faulty, mk(1), mk(1)).unwrap();
        let d = p.decide(&[0.0]).unwrap();
        assert_eq!(d.action.class(), Some(1));
        assert!(d.action.is_proceed());
    }

    #[test]
    fn two_out_of_three_two_faults_stop() {
        let mut p = TwoOutOfThree::new(
            Scripted::new(vec![Err(())]),
            Scripted::new(vec![Err(())]),
            ConstantChannel::new("c", 1),
        )
        .unwrap();
        let d = p.decide(&[0.0]).unwrap();
        assert_eq!(d.action.reason(), Some(FallbackReason::ChannelFault));
    }

    #[test]
    fn cascade_trips_and_recovers() {
        // Level 0 always stops; level 1 always proceeds. With
        // trip_threshold 2 the cascade demotes after two stops, then the
        // healthy streak promotes it back after 3 proceeds — where it
        // starts tripping again.
        let stopper = Bare::new(Scripted::new(vec![Err(())]));
        let procer = Bare::new(ConstantChannel::new("ok", 0));
        let mut c = Cascade::new(vec![Box::new(stopper), Box::new(procer)], 2, 3).unwrap();
        assert_eq!(c.current_level(), 0);
        c.decide(&[0.0]).unwrap();
        assert_eq!(c.current_level(), 0);
        c.decide(&[0.0]).unwrap();
        assert_eq!(c.current_level(), 1, "tripped after 2 conservative");
        for _ in 0..2 {
            assert!(c.decide(&[0.0]).unwrap().action.is_proceed());
        }
        assert_eq!(c.current_level(), 1);
        c.decide(&[0.0]).unwrap(); // third healthy decision
        assert_eq!(c.current_level(), 0, "recovered after 3 healthy");
    }

    #[test]
    fn cascade_validation() {
        assert!(Cascade::new(vec![], 1, 1).is_err());
        let p = Bare::new(ConstantChannel::new("c", 0));
        assert!(Cascade::new(vec![Box::new(p)], 0, 1).is_err());
    }

    #[test]
    fn rule_channel_in_safety_bag() {
        // End-to-end: rule proposer + envelope over raw input.
        let proposer = RuleChannel::new("r", |x: &[f32]| usize::from(x[0] > 0.5));
        let mut bag = SafetyBag::new(proposer, |x: &[f32], _class| {
            x.iter().all(|v| v.is_finite())
        });
        assert!(bag.decide(&[0.7]).unwrap().action.is_proceed());
        let d = bag.decide(&[f32::NAN]).unwrap();
        assert!(d.action.is_conservative());
    }

    #[test]
    fn recovery_block_accepts_primary() {
        let mut rb = RecoveryBlock::new(
            ConstantChannel::new("primary", 1),
            ConstantChannel::new("alternate", 2),
            |_x: &[f32], _class, conf| conf >= 0.5,
        );
        let d = rb.decide(&[0.0]).unwrap();
        assert!(d.action.is_proceed());
        assert_eq!(d.action.class(), Some(1));
        assert_eq!(d.channel_evals, 1);
    }

    #[test]
    fn recovery_block_falls_to_alternate() {
        // Acceptance rejects class 1 (primary) but accepts class 2.
        let mut rb = RecoveryBlock::new(
            ConstantChannel::new("primary", 1),
            ConstantChannel::new("alternate", 2),
            |_x: &[f32], class, _conf| class != 1,
        );
        let d = rb.decide(&[0.0]).unwrap();
        assert_eq!(d.action.class(), Some(2));
        assert!(d.action.is_conservative());
        assert_eq!(d.channel_evals, 2);
    }

    #[test]
    fn recovery_block_stops_when_both_rejected() {
        let mut rb = RecoveryBlock::new(
            ConstantChannel::new("primary", 1),
            ConstantChannel::new("alternate", 2),
            |_x: &[f32], _class, _conf| false,
        );
        let d = rb.decide(&[0.0]).unwrap();
        assert_eq!(d.action.class(), None);
        assert_eq!(d.action.reason(), Some(FallbackReason::ImplausibleOutput));
    }

    #[test]
    fn monitor_channel_agreement_proceeds() {
        let mut p = MonitorActuator::new(ConstantChannel::new("primary", 1), 0.5, 0)
            .unwrap()
            .with_monitor_channel(ConstantChannel::new("monitor", 1));
        let d = p.decide(&[0.0]).unwrap();
        assert!(d.action.is_proceed());
        assert_eq!(d.channel_evals, 2);
    }

    #[test]
    fn monitor_channel_disagreement_stops() {
        let mut p = MonitorActuator::new(ConstantChannel::new("primary", 1), 0.5, 0)
            .unwrap()
            .with_monitor_channel(ConstantChannel::new("monitor", 2));
        let d = p.decide(&[0.0]).unwrap();
        assert_eq!(d.action.reason(), Some(FallbackReason::ImplausibleOutput));
    }

    #[test]
    fn monitor_channel_fault_stops() {
        let mut p = MonitorActuator::new(ConstantChannel::new("primary", 1), 0.5, 0)
            .unwrap()
            .with_monitor_channel(Scripted::new(vec![Err(())]));
        let d = p.decide(&[0.0]).unwrap();
        assert_eq!(d.action.reason(), Some(FallbackReason::ChannelFault));
    }

    #[test]
    fn decide_batch_matches_sequential_decides() {
        // Stateful pattern (temporal consistency): batch must replay the
        // same state trajectory as one-at-a-time decides.
        let script = vec![
            Scripted::ok(0, 0.9),
            Scripted::ok(0, 0.9),
            Scripted::ok(1, 0.9),
            Scripted::ok(1, 0.9),
        ];
        let mut one = MonitorActuator::new(Scripted::new(script.clone()), 0.5, 2).unwrap();
        let mut batch = MonitorActuator::new(Scripted::new(script), 0.5, 2).unwrap();
        let inputs: Vec<&[f32]> = vec![&[0.0]; 4];
        let batched = batch.decide_batch(&inputs).unwrap();
        for (i, d) in batched.iter().enumerate() {
            assert_eq!(*d, one.decide(inputs[i]).unwrap(), "input {i}");
        }
    }

    #[test]
    fn recovery_block_survives_primary_crash() {
        let mut rb = RecoveryBlock::new(
            Scripted::new(vec![Err(())]),
            ConstantChannel::new("alternate", 3),
            |_x: &[f32], _class, _conf| true,
        );
        let d = rb.decide(&[0.0]).unwrap();
        assert_eq!(d.action.class(), Some(3));
    }
}
