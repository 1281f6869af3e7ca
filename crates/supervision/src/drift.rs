//! Streaming drift detection over supervisor scores.
//!
//! Per-frame supervisors ([`crate::supervisor`]) catch *individually*
//! anomalous inputs; slow environmental drift (gradual sensor
//! degradation, seasonal change, lens fouling) can stay under every
//! per-frame threshold while the *distribution* of scores creeps upward.
//! The classic runtime answer is a CUSUM chart: accumulate evidence of a
//! mean shift and alarm when it crosses a decision interval.
//!
//! [`CusumDetector`] implements the standardised two-sided CUSUM with the
//! usual `(k, h)` parametrisation: `k` is the slack (in reference standard
//! deviations) that absorbs noise, `h` is the decision interval. With
//! `k = 0.5, h = 5` the chart detects a 1σ mean shift in ~10 observations
//! while keeping the in-control false-alarm run length very long.

use crate::error::SupervisionError;

/// The state a CUSUM update reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriftState {
    /// No evidence of drift.
    InControl,
    /// The score mean has drifted upward (more anomalous) past `h`.
    DriftedUp,
    /// The score mean has drifted downward past `h` (scores collapsing —
    /// e.g. a stuck sensor feeding constant frames).
    DriftedDown,
}

impl DriftState {
    /// Whether either direction has alarmed.
    pub fn is_drifted(self) -> bool {
        self != DriftState::InControl
    }
}

/// Two-sided standardised CUSUM detector over a scalar stream.
///
/// # Examples
///
/// ```
/// use safex_supervision::drift::CusumDetector;
///
/// // Reference: supervisor scores on validation data.
/// let reference: Vec<f64> = (0..100).map(|i| 1.0 + (i % 10) as f64 * 0.01).collect();
/// let mut detector = CusumDetector::fit(&reference, 0.5, 5.0).unwrap();
/// // A sustained upward shift alarms within a handful of frames.
/// let mut alarmed = false;
/// for _ in 0..30 {
///     if detector.update(2.0).unwrap().is_drifted() {
///         alarmed = true;
///         break;
///     }
/// }
/// assert!(alarmed);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CusumDetector {
    mean: f64,
    std: f64,
    k: f64,
    h: f64,
    s_hi: f64,
    s_lo: f64,
    observations: u64,
    alarms: u64,
}

impl CusumDetector {
    /// Fits the reference mean/std from in-control scores and sets the
    /// slack `k` and decision interval `h` (both in reference standard
    /// deviations).
    ///
    /// # Errors
    ///
    /// Returns [`SupervisionError::InvalidData`] for fewer than 10
    /// reference scores, non-finite scores, a degenerate (zero-variance)
    /// reference, or non-positive `k`/`h`.
    pub fn fit(reference: &[f64], k: f64, h: f64) -> Result<Self, SupervisionError> {
        if reference.len() < 10 {
            return Err(SupervisionError::InvalidData(format!(
                "need at least 10 reference scores, got {}",
                reference.len()
            )));
        }
        if reference.iter().any(|x| !x.is_finite()) {
            return Err(SupervisionError::InvalidData(
                "non-finite reference scores".into(),
            ));
        }
        if !(k > 0.0 && k.is_finite() && h > 0.0 && h.is_finite()) {
            return Err(SupervisionError::InvalidData(
                "k and h must be positive".into(),
            ));
        }
        let n = reference.len() as f64;
        let mean = reference.iter().sum::<f64>() / n;
        let var = reference.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        if var <= 0.0 {
            return Err(SupervisionError::InvalidData(
                "reference scores have zero variance".into(),
            ));
        }
        Ok(CusumDetector {
            mean,
            std: var.sqrt(),
            k,
            h,
            s_hi: 0.0,
            s_lo: 0.0,
            observations: 0,
            alarms: 0,
        })
    }

    /// Feeds one score and returns the current state.
    ///
    /// After an alarm the accumulators reset (restart chart), so
    /// persistent drift produces repeated alarms rather than one.
    ///
    /// # Errors
    ///
    /// Returns [`SupervisionError::InvalidData`] for a non-finite score.
    pub fn update(&mut self, score: f64) -> Result<DriftState, SupervisionError> {
        if !score.is_finite() {
            return Err(SupervisionError::InvalidData("non-finite score".into()));
        }
        self.observations += 1;
        let z = (score - self.mean) / self.std;
        self.s_hi = (self.s_hi + z - self.k).max(0.0);
        self.s_lo = (self.s_lo - z - self.k).max(0.0);
        if self.s_hi > self.h {
            self.s_hi = 0.0;
            self.s_lo = 0.0;
            self.alarms += 1;
            return Ok(DriftState::DriftedUp);
        }
        if self.s_lo > self.h {
            self.s_hi = 0.0;
            self.s_lo = 0.0;
            self.alarms += 1;
            return Ok(DriftState::DriftedDown);
        }
        Ok(DriftState::InControl)
    }

    /// `(observations, alarms)` since fitting.
    pub fn stats(&self) -> (u64, u64) {
        (self.observations, self.alarms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safex_tensor::DetRng;

    fn reference(seed: u64) -> Vec<f64> {
        let mut rng = DetRng::new(seed);
        (0..200).map(|_| rng.gaussian(10.0, 1.0)).collect()
    }

    #[test]
    fn in_control_stream_rarely_alarms() {
        let mut det = CusumDetector::fit(&reference(1), 0.5, 5.0).unwrap();
        let mut rng = DetRng::new(2);
        let mut alarms = 0usize;
        for _ in 0..2000 {
            if det.update(rng.gaussian(10.0, 1.0)).unwrap().is_drifted() {
                alarms += 1;
            }
        }
        // In-control ARL at (0.5, 5) is ~900+; a couple of alarms over
        // 2000 frames is acceptable, frequent alarming is a bug.
        assert!(alarms <= 5, "false alarms: {alarms}");
    }

    #[test]
    fn one_sigma_shift_detected_quickly() {
        let mut det = CusumDetector::fit(&reference(3), 0.5, 5.0).unwrap();
        let mut rng = DetRng::new(4);
        let mut first_alarm = None;
        for i in 0..100 {
            if det.update(rng.gaussian(11.0, 1.0)).unwrap() == DriftState::DriftedUp {
                first_alarm = Some(i);
                break;
            }
        }
        let at = first_alarm.expect("must alarm");
        assert!(at < 30, "detection delay {at} too long for a 1-sigma shift");
    }

    #[test]
    fn downward_collapse_detected() {
        let mut det = CusumDetector::fit(&reference(5), 0.5, 5.0).unwrap();
        let mut state = DriftState::InControl;
        for _ in 0..50 {
            state = det.update(7.0).unwrap(); // 3 sigma below
            if state.is_drifted() {
                break;
            }
        }
        assert_eq!(state, DriftState::DriftedDown);
    }

    #[test]
    fn persistent_drift_realarms_after_reset() {
        let mut det = CusumDetector::fit(&reference(6), 0.5, 5.0).unwrap();
        let mut alarms = 0usize;
        for _ in 0..200 {
            if det.update(12.0).unwrap().is_drifted() {
                alarms += 1;
            }
        }
        assert!(alarms >= 2, "persistent drift must re-alarm: {alarms}");
        assert_eq!(det.stats().1 as usize, alarms);
        assert_eq!(det.stats().0, 200);
    }

    #[test]
    fn fit_validation() {
        assert!(CusumDetector::fit(&[1.0; 5], 0.5, 5.0).is_err());
        assert!(CusumDetector::fit(&[1.0; 20], 0.5, 5.0).is_err()); // zero variance
        assert!(CusumDetector::fit(&reference(7), 0.0, 5.0).is_err());
        assert!(CusumDetector::fit(&reference(7), 0.5, 0.0).is_err());
        let mut bad = reference(7);
        bad[0] = f64::NAN;
        assert!(CusumDetector::fit(&bad, 0.5, 5.0).is_err());
    }

    #[test]
    fn update_rejects_nan() {
        let mut det = CusumDetector::fit(&reference(8), 0.5, 5.0).unwrap();
        assert!(det.update(f64::NAN).is_err());
    }
}
