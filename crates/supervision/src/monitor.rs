//! Calibrated accept/reject monitors built on supervisors.

use crate::error::SupervisionError;
use crate::observation::Observation;
use crate::supervisor::Supervisor;

/// The decision a monitor renders for one inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The observation looks in-distribution; the prediction may be used.
    Accept,
    /// The observation is anomalous; the pipeline must fall back.
    Reject,
}

/// A supervisor plus a threshold calibrated to a target false-positive
/// rate on in-distribution data.
///
/// Calibration picks the `(1 - target_fpr)` quantile of in-distribution
/// scores: by construction roughly `target_fpr` of good inputs will be
/// rejected (availability cost), which is the dial FUSA engineers trade
/// against hazard coverage.
///
/// # Examples
///
/// ```
/// use safex_supervision::monitor::CalibratedMonitor;
/// use safex_supervision::supervisor::SoftmaxThreshold;
///
/// let id_scores = vec![0.01, 0.02, 0.05, 0.04, 0.03];
/// let monitor = CalibratedMonitor::fit(
///     Box::new(SoftmaxThreshold::new()),
///     &id_scores,
///     0.05,
/// ).unwrap();
/// assert!(monitor.threshold() >= 0.04);
/// ```
pub struct CalibratedMonitor {
    supervisor: Box<dyn Supervisor>,
    threshold: f64,
    target_fpr: f64,
}

impl std::fmt::Debug for CalibratedMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalibratedMonitor")
            .field("supervisor", &self.supervisor.name())
            .field("threshold", &self.threshold)
            .field("target_fpr", &self.target_fpr)
            .finish()
    }
}

impl CalibratedMonitor {
    /// Calibrates a threshold from in-distribution scores.
    ///
    /// # Errors
    ///
    /// Returns [`SupervisionError::InvalidData`] for empty scores,
    /// non-finite scores, or a target FPR outside `(0, 1)`.
    pub fn fit(
        supervisor: Box<dyn Supervisor>,
        id_scores: &[f64],
        target_fpr: f64,
    ) -> Result<Self, SupervisionError> {
        if id_scores.is_empty() {
            return Err(SupervisionError::InvalidData(
                "cannot calibrate on empty scores".into(),
            ));
        }
        if !(target_fpr > 0.0 && target_fpr < 1.0) {
            return Err(SupervisionError::InvalidData(format!(
                "target FPR {target_fpr} outside (0, 1)"
            )));
        }
        let threshold = safex_tensor::stats::quantile(id_scores, 1.0 - target_fpr)
            .map_err(|e| SupervisionError::InvalidData(e.to_string()))?;
        Ok(CalibratedMonitor {
            supervisor,
            threshold,
            target_fpr,
        })
    }

    /// Creates a monitor with an explicit threshold (no calibration).
    ///
    /// # Errors
    ///
    /// Returns [`SupervisionError::InvalidData`] for a non-finite
    /// threshold.
    pub fn with_threshold(
        supervisor: Box<dyn Supervisor>,
        threshold: f64,
    ) -> Result<Self, SupervisionError> {
        if !threshold.is_finite() {
            return Err(SupervisionError::InvalidData(
                "threshold must be finite".into(),
            ));
        }
        Ok(CalibratedMonitor {
            supervisor,
            threshold,
            target_fpr: f64::NAN,
        })
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The target FPR used at calibration (NaN for explicit thresholds).
    pub fn target_fpr(&self) -> f64 {
        self.target_fpr
    }

    /// The wrapped supervisor's name.
    pub fn supervisor_name(&self) -> &'static str {
        self.supervisor.name()
    }

    /// Scores and thresholds an observation.
    ///
    /// Scores **strictly above** the threshold reject; the calibration
    /// quantile itself still accepts.
    ///
    /// # Errors
    ///
    /// Propagates supervisor scoring failures.
    pub fn check(&self, obs: &Observation) -> Result<(Verdict, f64), SupervisionError> {
        let score = self.supervisor.score(obs)?;
        let verdict = if score > self.threshold {
            Verdict::Reject
        } else {
            Verdict::Accept
        };
        Ok((verdict, score))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::SoftmaxThreshold;

    fn obs(conf: f32) -> Observation {
        Observation {
            input: vec![0.0],
            logits: vec![0.0, 0.0],
            probs: vec![conf, 1.0 - conf],
            features: vec![0.0],
        }
    }

    #[test]
    fn fit_sets_quantile_threshold() {
        let scores: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let m = CalibratedMonitor::fit(Box::new(SoftmaxThreshold::new()), &scores, 0.05).unwrap();
        assert!((m.threshold() - 0.9405).abs() < 0.01, "{}", m.threshold());
        assert_eq!(m.target_fpr(), 0.05);
        assert_eq!(m.supervisor_name(), "softmax_threshold");
    }

    #[test]
    fn fit_validation() {
        assert!(CalibratedMonitor::fit(Box::new(SoftmaxThreshold::new()), &[], 0.05).is_err());
        assert!(CalibratedMonitor::fit(Box::new(SoftmaxThreshold::new()), &[0.1], 0.0).is_err());
        assert!(CalibratedMonitor::fit(Box::new(SoftmaxThreshold::new()), &[0.1], 1.0).is_err());
        assert!(
            CalibratedMonitor::fit(Box::new(SoftmaxThreshold::new()), &[f64::NAN], 0.05).is_err()
        );
    }

    #[test]
    fn check_thresholds_scores() {
        let m = CalibratedMonitor::with_threshold(Box::new(SoftmaxThreshold::new()), 0.3).unwrap();
        // Confident input: score = 1 - 0.9 = 0.1 -> accept.
        let (v, s) = m.check(&obs(0.9)).unwrap();
        assert_eq!(v, Verdict::Accept);
        assert!((s - 0.1).abs() < 1e-6);
        // Unsure input: score = 0.5 -> reject.
        let (v, _) = m.check(&obs(0.5)).unwrap();
        assert_eq!(v, Verdict::Reject);
    }

    #[test]
    fn boundary_score_accepts() {
        let m = CalibratedMonitor::with_threshold(Box::new(SoftmaxThreshold::new()), 0.5).unwrap();
        let (v, s) = m.check(&obs(0.5)).unwrap();
        assert_eq!(s, 0.5);
        assert_eq!(v, Verdict::Accept);
    }

    #[test]
    fn with_threshold_rejects_nan() {
        assert!(
            CalibratedMonitor::with_threshold(Box::new(SoftmaxThreshold::new()), f64::NAN).is_err()
        );
    }

    #[test]
    fn debug_shows_supervisor() {
        let m = CalibratedMonitor::with_threshold(Box::new(SoftmaxThreshold::new()), 0.5).unwrap();
        assert!(format!("{m:?}").contains("softmax_threshold"));
    }
}
