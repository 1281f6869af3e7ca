//! Supervisor ensembles.
//!
//! Different supervisors see different failure modes (softmax saturation
//! vs feature-space drift vs raw covariate shift), so combining them is
//! standard practice. [`ScoreEnsemble`] z-normalises each member's score
//! against its in-distribution calibration statistics and averages;
//! [`VoteEnsemble`] thresholds each member and takes a k-of-n vote.

use crate::error::SupervisionError;
use crate::monitor::{CalibratedMonitor, Verdict};
use crate::observation::Observation;
use crate::supervisor::Supervisor;

/// Mean-of-z-scores ensemble.
///
/// Each member is calibrated with the mean and standard deviation of its
/// scores on in-distribution data; at runtime the ensemble score is the
/// average of the members' z-scores, which is itself a supervisor score
/// (higher = more anomalous).
pub struct ScoreEnsemble {
    members: Vec<Box<dyn Supervisor>>,
    /// Per-member `(mean, std)` of in-distribution scores.
    calibration: Vec<(f64, f64)>,
}

impl std::fmt::Debug for ScoreEnsemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.members.iter().map(|m| m.name()).collect();
        f.debug_struct("ScoreEnsemble")
            .field("members", &names)
            .field("calibration", &self.calibration)
            .finish()
    }
}

impl ScoreEnsemble {
    /// Builds an ensemble and calibrates it on in-distribution
    /// observations (members must already be fitted).
    ///
    /// # Errors
    ///
    /// Returns [`SupervisionError::InvalidData`] for an empty member list
    /// or empty calibration set, and propagates member scoring failures.
    pub fn fit(
        members: Vec<Box<dyn Supervisor>>,
        id_observations: &[Observation],
    ) -> Result<Self, SupervisionError> {
        if members.is_empty() {
            return Err(SupervisionError::InvalidData(
                "ensemble needs at least one member".into(),
            ));
        }
        if id_observations.is_empty() {
            return Err(SupervisionError::InvalidData(
                "ensemble calibration needs observations".into(),
            ));
        }
        let mut calibration = Vec::with_capacity(members.len());
        for member in &members {
            let scores: Result<Vec<f64>, _> =
                id_observations.iter().map(|o| member.score(o)).collect();
            let scores = scores?;
            let n = scores.len() as f64;
            let mean = scores.iter().sum::<f64>() / n;
            let var = scores.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
            // Floor the std so constant scorers contribute zero, not NaN.
            calibration.push((mean, var.sqrt().max(1e-12)));
        }
        Ok(ScoreEnsemble {
            members,
            calibration,
        })
    }
}

impl Supervisor for ScoreEnsemble {
    fn name(&self) -> &'static str {
        "score_ensemble"
    }

    fn score(&self, obs: &Observation) -> Result<f64, SupervisionError> {
        let mut total = 0.0f64;
        for (member, (mean, std)) in self.members.iter().zip(&self.calibration) {
            let s = member.score(obs)?;
            total += (s - mean) / std;
        }
        Ok(total / self.members.len() as f64)
    }
}

/// k-of-n voting ensemble over calibrated monitors.
///
/// Rejects when at least `quorum` members reject. With `quorum = 1` the
/// ensemble is maximally sensitive (union of detectors); with
/// `quorum = n` it is maximally specific (intersection).
#[derive(Debug)]
pub struct VoteEnsemble {
    monitors: Vec<CalibratedMonitor>,
    quorum: usize,
}

impl VoteEnsemble {
    /// Creates a voting ensemble.
    ///
    /// # Errors
    ///
    /// Returns [`SupervisionError::InvalidData`] for an empty monitor list
    /// or a quorum of zero or above the member count.
    pub fn new(monitors: Vec<CalibratedMonitor>, quorum: usize) -> Result<Self, SupervisionError> {
        if monitors.is_empty() {
            return Err(SupervisionError::InvalidData(
                "vote ensemble needs monitors".into(),
            ));
        }
        if quorum == 0 || quorum > monitors.len() {
            return Err(SupervisionError::InvalidData(format!(
                "quorum {quorum} invalid for {} monitors",
                monitors.len()
            )));
        }
        Ok(VoteEnsemble { monitors, quorum })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Whether the ensemble has no members (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// The reject quorum.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Checks an observation; returns the verdict and the number of
    /// members that voted to reject.
    ///
    /// # Errors
    ///
    /// Propagates member failures.
    pub fn check(&self, obs: &Observation) -> Result<(Verdict, usize), SupervisionError> {
        let mut rejects = 0usize;
        for m in &self.monitors {
            if let (Verdict::Reject, _) = m.check(obs)? {
                rejects += 1;
            }
        }
        let verdict = if rejects >= self.quorum {
            Verdict::Reject
        } else {
            Verdict::Accept
        };
        Ok((verdict, rejects))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{LogitMargin, SoftmaxThreshold};

    fn obs(conf: f32, margin: f32) -> Observation {
        Observation {
            input: vec![0.0],
            logits: vec![margin, 0.0],
            probs: vec![conf, 1.0 - conf],
            features: vec![0.0],
        }
    }

    fn id_observations() -> Vec<Observation> {
        (0..20)
            .map(|i| obs(0.9 + (i % 5) as f32 * 0.01, 4.0))
            .collect()
    }

    #[test]
    fn score_ensemble_scores_anomalies_higher() {
        let e = ScoreEnsemble::fit(
            vec![
                Box::new(SoftmaxThreshold::new()),
                Box::new(LogitMargin::new()),
            ],
            &id_observations(),
        )
        .unwrap();
        let normal = obs(0.92, 4.0);
        let weird = obs(0.5, 0.1);
        assert!(e.score(&weird).unwrap() > e.score(&normal).unwrap() + 1.0);
        assert_eq!(e.name(), "score_ensemble");
    }

    #[test]
    fn score_ensemble_validation() {
        assert!(ScoreEnsemble::fit(vec![], &id_observations()).is_err());
        assert!(ScoreEnsemble::fit(vec![Box::new(SoftmaxThreshold::new())], &[]).is_err());
    }

    #[test]
    fn vote_ensemble_quorum_semantics() {
        let strict = CalibratedMonitor::with_threshold(
            Box::new(SoftmaxThreshold::new()),
            0.05, // rejects anything below 95 % confidence
        )
        .unwrap();
        let lax = CalibratedMonitor::with_threshold(
            Box::new(SoftmaxThreshold::new()),
            0.45, // rejects only below 55 % confidence
        )
        .unwrap();

        let borderline = obs(0.8, 1.0); // score 0.2: strict rejects, lax accepts

        let any = VoteEnsemble::new(
            vec![
                CalibratedMonitor::with_threshold(Box::new(SoftmaxThreshold::new()), 0.05).unwrap(),
                CalibratedMonitor::with_threshold(Box::new(SoftmaxThreshold::new()), 0.45).unwrap(),
            ],
            1,
        )
        .unwrap();
        let (v, rejects) = any.check(&borderline).unwrap();
        assert_eq!(v, Verdict::Reject);
        assert_eq!(rejects, 1);

        let all = VoteEnsemble::new(vec![strict, lax], 2).unwrap();
        let (v, rejects) = all.check(&borderline).unwrap();
        assert_eq!(v, Verdict::Accept);
        assert_eq!(rejects, 1);
    }

    #[test]
    fn vote_ensemble_validation() {
        assert!(VoteEnsemble::new(vec![], 1).is_err());
        let m = CalibratedMonitor::with_threshold(Box::new(SoftmaxThreshold::new()), 0.5).unwrap();
        assert!(VoteEnsemble::new(vec![m], 0).is_err());
        let m = CalibratedMonitor::with_threshold(Box::new(SoftmaxThreshold::new()), 0.5).unwrap();
        assert!(VoteEnsemble::new(vec![m], 2).is_err());
    }

    #[test]
    fn vote_ensemble_accessors() {
        let m = CalibratedMonitor::with_threshold(Box::new(SoftmaxThreshold::new()), 0.5).unwrap();
        let e = VoteEnsemble::new(vec![m], 1).unwrap();
        assert_eq!(e.len(), 1);
        assert!(!e.is_empty());
        assert_eq!(e.quorum(), 1);
    }

    #[test]
    fn ensemble_is_a_supervisor() {
        // ScoreEnsemble itself can be wrapped in a CalibratedMonitor.
        let e = ScoreEnsemble::fit(vec![Box::new(SoftmaxThreshold::new())], &id_observations())
            .unwrap();
        let m = CalibratedMonitor::with_threshold(Box::new(e), 3.0).unwrap();
        let (v, _) = m.check(&obs(0.91, 4.0)).unwrap();
        assert_eq!(v, Verdict::Accept);
    }
}
