//! Evaluation metrics: accuracy, confusion matrices, cross-entropy.

use crate::engine::Engine;
use crate::error::NnError;

/// A square confusion matrix (`rows = true class`, `cols = predicted`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `classes` classes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Training`] if `classes` is zero.
    pub fn new(classes: usize) -> Result<Self, NnError> {
        if classes == 0 {
            return Err(NnError::Training("confusion matrix needs classes".into()));
        }
        Ok(ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
        })
    }

    /// Records one observation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Training`] for out-of-range classes.
    pub fn record(&mut self, truth: usize, predicted: usize) -> Result<(), NnError> {
        if truth >= self.classes || predicted >= self.classes {
            return Err(NnError::Training(format!(
                "class out of range: truth {truth}, predicted {predicted}, classes {}",
                self.classes
            )));
        }
        self.counts[truth * self.classes + predicted] += 1;
        Ok(())
    }

    /// Count for `(truth, predicted)`, or 0 if out of range.
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        if truth >= self.classes || predicted >= self.classes {
            return 0;
        }
        self.counts[truth * self.classes + predicted]
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (diagonal mass / total); 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.classes).map(|i| self.count(i, i)).sum();
        diag as f64 / total as f64
    }

    /// Per-class recall (`diag / row sum`); `None` for a class with no
    /// observations.
    pub fn recall(&self, class: usize) -> Option<f64> {
        if class >= self.classes {
            return None;
        }
        let row: u64 = (0..self.classes).map(|j| self.count(class, j)).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f64 / row as f64)
        }
    }

    /// Per-class precision (`diag / column sum`); `None` for a class never
    /// predicted.
    pub fn precision(&self, class: usize) -> Option<f64> {
        if class >= self.classes {
            return None;
        }
        let col: u64 = (0..self.classes).map(|i| self.count(i, class)).sum();
        if col == 0 {
            None
        } else {
            Some(self.count(class, class) as f64 / col as f64)
        }
    }
}

/// Runs the engine over a labelled set and returns `(accuracy, matrix)`.
///
/// # Errors
///
/// Returns [`NnError::Training`] on data length mismatch or an empty set,
/// and propagates inference errors.
pub fn evaluate(
    engine: &mut Engine,
    inputs: &[Vec<f32>],
    labels: &[usize],
) -> Result<(f64, ConfusionMatrix), NnError> {
    if inputs.is_empty() {
        return Err(NnError::Training("empty evaluation set".into()));
    }
    if inputs.len() != labels.len() {
        return Err(NnError::Training(format!(
            "{} inputs but {} labels",
            inputs.len(),
            labels.len()
        )));
    }
    let classes = engine.model().output_shape().len();
    let mut cm = ConfusionMatrix::new(classes)?;
    for (x, &y) in inputs.iter().zip(labels) {
        let pred = engine.classify(x)?.class;
        cm.record(y, pred)?;
    }
    Ok((cm.accuracy(), cm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{ConstantFill, Init};
    use crate::layer::Layer;
    use crate::model::ModelBuilder;
    use safex_tensor::{DetRng, Shape};

    #[test]
    fn confusion_matrix_counts() {
        let mut cm = ConfusionMatrix::new(2).unwrap();
        cm.record(0, 0).unwrap();
        cm.record(0, 0).unwrap();
        cm.record(0, 1).unwrap();
        cm.record(1, 1).unwrap();
        assert_eq!(cm.count(0, 0), 2);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.total(), 4);
        assert_eq!(cm.accuracy(), 0.75);
        assert!((cm.recall(0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cm.recall(1), Some(1.0));
        assert_eq!(cm.precision(1), Some(0.5));
    }

    #[test]
    fn confusion_matrix_edges() {
        assert!(ConfusionMatrix::new(0).is_err());
        let mut cm = ConfusionMatrix::new(2).unwrap();
        assert!(cm.record(2, 0).is_err());
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.recall(0), None);
        assert_eq!(cm.recall(5), None);
        assert_eq!(cm.precision(0), None);
        assert_eq!(cm.count(9, 9), 0);
    }

    #[test]
    fn evaluate_engine() {
        // Bias-only model always predicts class 1.
        let mut rng = DetRng::new(0);
        let mut m = ModelBuilder::new(Shape::vector(2))
            .dense_with_init(2, Init::Constant(ConstantFill::new(0.0)), &mut rng)
            .unwrap()
            .build()
            .unwrap();
        if let Layer::Dense(d) = &mut m.layers_mut()[0] {
            d.bias_mut().copy_from_slice(&[0.0, 1.0]);
        }
        let mut e = Engine::new(m);
        let inputs = vec![vec![0.0, 0.0]; 4];
        let labels = vec![1, 1, 0, 0];
        let (acc, cm) = evaluate(&mut e, &inputs, &labels).unwrap();
        assert_eq!(acc, 0.5);
        assert_eq!(cm.count(0, 1), 2);
        assert!(evaluate(&mut e, &[], &[]).is_err());
        assert!(evaluate(&mut e, &inputs, &labels[..2]).is_err());
    }
}
