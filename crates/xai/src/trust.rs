//! Trust models: per-prediction correctness probability.
//!
//! The paper's pillar 1 asks for *"specific approaches to explain whether
//! predictions can be trusted"*. A [`TrustModel`] is that approach made
//! concrete: a small logistic model mapping per-inference signals
//! (calibrated confidence, logit margin, supervisor anomaly score, ...) to
//! the probability that the prediction is correct. Because the model is a
//! linear scorer over named features, the resulting trust value is itself
//! explainable — each feature's signed contribution is reportable.

use crate::error::XaiError;

/// A logistic trust model over a fixed feature vector.
///
/// Fit with deterministic full-batch gradient descent (fixed iteration
/// count, fixed order — bit-reproducible).
///
/// # Examples
///
/// ```
/// use safex_xai::trust::TrustModel;
///
/// // One feature: confidence. Correctness correlates with it.
/// let features = vec![vec![0.95], vec![0.9], vec![0.55], vec![0.5], vec![0.92], vec![0.45]];
/// let correct = vec![true, true, false, false, true, false];
/// let model = TrustModel::fit(&features, &correct, 500, 0.5).unwrap();
/// let high = model.trust(&[0.95]).unwrap();
/// let low = model.trust(&[0.5]).unwrap();
/// assert!(high > low);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrustModel {
    /// Per-feature weights.
    weights: Vec<f64>,
    /// Intercept.
    bias: f64,
    /// Per-feature standardisation: (mean, std).
    scaling: Vec<(f64, f64)>,
}

impl TrustModel {
    /// Fits a logistic model on `(features, correct)` pairs.
    ///
    /// Features are standardised internally; `iterations` full-batch
    /// gradient steps with the given `learning_rate` are applied.
    ///
    /// # Errors
    ///
    /// Returns [`XaiError::BadInput`] on empty data, inconsistent
    /// dimensions, or non-finite features, and [`XaiError::BadConfig`] on
    /// a non-positive learning rate or zero iterations.
    pub fn fit(
        features: &[Vec<f64>],
        correct: &[bool],
        iterations: usize,
        learning_rate: f64,
    ) -> Result<Self, XaiError> {
        if features.is_empty() {
            return Err(XaiError::BadInput("empty trust training set".into()));
        }
        if features.len() != correct.len() {
            return Err(XaiError::BadInput(format!(
                "{} feature rows but {} outcomes",
                features.len(),
                correct.len()
            )));
        }
        let d = features[0].len();
        if d == 0 || features.iter().any(|f| f.len() != d) {
            return Err(XaiError::BadInput(
                "feature rows must be non-empty and consistent".into(),
            ));
        }
        if features.iter().flatten().any(|x| !x.is_finite()) {
            return Err(XaiError::BadInput("non-finite features".into()));
        }
        if iterations == 0 || !(learning_rate.is_finite() && learning_rate > 0.0) {
            return Err(XaiError::BadConfig(
                "iterations and learning rate must be positive".into(),
            ));
        }
        let n = features.len();
        // Standardise.
        let mut scaling = Vec::with_capacity(d);
        for j in 0..d {
            let mean = features.iter().map(|f| f[j]).sum::<f64>() / n as f64;
            let var = features.iter().map(|f| (f[j] - mean).powi(2)).sum::<f64>() / n as f64;
            scaling.push((mean, var.sqrt().max(1e-9)));
        }
        let x: Vec<Vec<f64>> = features
            .iter()
            .map(|f| {
                f.iter()
                    .zip(&scaling)
                    .map(|(v, (m, s))| (v - m) / s)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = correct.iter().map(|&c| c as u8 as f64).collect();

        let mut weights = vec![0.0f64; d];
        let mut bias = 0.0f64;
        for _ in 0..iterations {
            let mut grad_w = vec![0.0f64; d];
            let mut grad_b = 0.0f64;
            for (xi, &yi) in x.iter().zip(&y) {
                let z = bias + weights.iter().zip(xi).map(|(w, v)| w * v).sum::<f64>();
                let p = sigmoid(z);
                let err = p - yi;
                grad_b += err;
                for (g, &v) in grad_w.iter_mut().zip(xi) {
                    *g += err * v;
                }
            }
            bias -= learning_rate * grad_b / n as f64;
            for (w, g) in weights.iter_mut().zip(&grad_w) {
                *w -= learning_rate * g / n as f64;
            }
        }
        Ok(TrustModel {
            weights,
            bias,
            scaling,
        })
    }

    /// Probability in `[0, 1]` that a prediction with these features is
    /// correct.
    ///
    /// # Errors
    ///
    /// Returns [`XaiError::BadInput`] on a dimension mismatch or
    /// non-finite features.
    pub fn trust(&self, features: &[f64]) -> Result<f64, XaiError> {
        if features.len() != self.weights.len() {
            return Err(XaiError::BadInput(format!(
                "expected {} features, got {}",
                self.weights.len(),
                features.len()
            )));
        }
        if features.iter().any(|x| !x.is_finite()) {
            return Err(XaiError::BadInput("non-finite features".into()));
        }
        let z = self.bias
            + self
                .weights
                .iter()
                .zip(features)
                .zip(&self.scaling)
                .map(|((w, v), (m, s))| w * ((v - m) / s))
                .sum::<f64>();
        Ok(sigmoid(z))
    }

    /// Per-feature signed contributions to the trust logit for one input —
    /// the model's own explanation of its verdict.
    ///
    /// # Errors
    ///
    /// Returns [`XaiError::BadInput`] on a dimension mismatch.
    pub fn contributions(&self, features: &[f64]) -> Result<Vec<f64>, XaiError> {
        if features.len() != self.weights.len() {
            return Err(XaiError::BadInput(format!(
                "expected {} features, got {}",
                self.weights.len(),
                features.len()
            )));
        }
        Ok(self
            .weights
            .iter()
            .zip(features)
            .zip(&self.scaling)
            .map(|((w, v), (m, s))| w * ((v - m) / s))
            .collect())
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut features = Vec::new();
        let mut correct = Vec::new();
        for i in 0..50 {
            let jitter = (i % 7) as f64 * 0.01;
            features.push(vec![0.9 + jitter, 3.0 + jitter]);
            correct.push(true);
            features.push(vec![0.5 + jitter, 0.5 - jitter]);
            correct.push(false);
        }
        (features, correct)
    }

    #[test]
    fn learns_separable_data() {
        let (f, c) = separable();
        let m = TrustModel::fit(&f, &c, 400, 0.5).unwrap();
        assert!(m.trust(&[0.92, 3.1]).unwrap() > 0.85);
        assert!(m.trust(&[0.52, 0.4]).unwrap() < 0.15);
    }

    #[test]
    fn fit_is_deterministic() {
        let (f, c) = separable();
        let a = TrustModel::fit(&f, &c, 100, 0.5).unwrap();
        let b = TrustModel::fit(&f, &c, 100, 0.5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn contributions_sum_to_logit_direction() {
        let (f, c) = separable();
        let m = TrustModel::fit(&f, &c, 200, 0.5).unwrap();
        let contribs = m.contributions(&[0.92, 3.1]).unwrap();
        assert_eq!(contribs.len(), 2);
        // Good features push positive for this model.
        assert!(contribs.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn validation() {
        assert!(TrustModel::fit(&[], &[], 10, 0.1).is_err());
        assert!(TrustModel::fit(&[vec![1.0]], &[true, false], 10, 0.1).is_err());
        assert!(TrustModel::fit(&[vec![]], &[true], 10, 0.1).is_err());
        assert!(TrustModel::fit(&[vec![1.0], vec![1.0, 2.0]], &[true, false], 10, 0.1).is_err());
        assert!(TrustModel::fit(&[vec![f64::NAN]], &[true], 10, 0.1).is_err());
        assert!(TrustModel::fit(&[vec![1.0]], &[true], 0, 0.1).is_err());
        assert!(TrustModel::fit(&[vec![1.0]], &[true], 10, 0.0).is_err());
    }

    #[test]
    fn trust_input_validation() {
        let (f, c) = separable();
        let m = TrustModel::fit(&f, &c, 50, 0.5).unwrap();
        assert!(m.trust(&[1.0]).is_err());
        assert!(m.trust(&[1.0, f64::INFINITY]).is_err());
        assert!(m.contributions(&[1.0]).is_err());
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_feature_does_not_nan() {
        let f = vec![
            vec![1.0, 5.0],
            vec![1.0, 0.0],
            vec![1.0, 5.1],
            vec![1.0, -0.1],
        ];
        let c = vec![true, false, true, false];
        let m = TrustModel::fit(&f, &c, 100, 0.5).unwrap();
        let t = m.trust(&[1.0, 5.0]).unwrap();
        assert!(t.is_finite());
        assert!(t > 0.5);
    }
}
