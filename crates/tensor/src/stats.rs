//! Descriptive statistics over `f64` samples.
//!
//! Shared by the timing-analysis crate (execution-time distributions), the
//! supervision crate (score distributions), and the benchmark harness. All
//! routines use fixed evaluation order so repeated analyses of the same
//! sample vector produce identical results.

use crate::error::TensorError;

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased (n-1) standard deviation; 0 for a single sample.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
}

/// Computes summary statistics.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] for an empty sample and
/// [`TensorError::InvalidArgument`] if any value is non-finite.
pub fn summary(samples: &[f64]) -> Result<Summary, TensorError> {
    if samples.is_empty() {
        return Err(TensorError::EmptyInput);
    }
    if samples.iter().any(|x| !x.is_finite()) {
        return Err(TensorError::InvalidArgument(
            "samples must be finite".into(),
        ));
    }
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    let min = samples.iter().fold(f64::INFINITY, |m, &x| m.min(x));
    let max = samples.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
    Ok(Summary {
        count: n,
        mean,
        std_dev: var.sqrt(),
        min,
        max,
        median: quantile(samples, 0.5)?,
    })
}

/// The `q`-quantile (`0 <= q <= 1`) with linear interpolation between order
/// statistics (type-7, the R/numpy default).
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] for an empty sample or
/// [`TensorError::InvalidArgument`] for `q` outside `[0, 1]` or non-finite
/// samples.
pub fn quantile(samples: &[f64], q: f64) -> Result<f64, TensorError> {
    if samples.is_empty() {
        return Err(TensorError::EmptyInput);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(TensorError::InvalidArgument(format!(
            "quantile {q} outside [0, 1]"
        )));
    }
    if samples.iter().any(|x| !x.is_finite()) {
        return Err(TensorError::InvalidArgument(
            "samples must be finite".into(),
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Histogram with equal-width bins over `[lo, hi)`; the final bin is
/// closed on the right so `hi` itself is counted.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Samples below `lo` or above `hi`.
    outliers: u64,
}

impl Histogram {
    /// Builds a histogram of `samples` over `[lo, hi]` with `bins` bins.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for `bins == 0`, a
    /// degenerate range, or non-finite bounds.
    pub fn new(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Result<Self, TensorError> {
        if bins == 0 {
            return Err(TensorError::InvalidArgument("bins must be non-zero".into()));
        }
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(TensorError::InvalidArgument(format!(
                "invalid histogram range [{lo}, {hi}]"
            )));
        }
        let mut counts = vec![0u64; bins];
        let mut outliers = 0u64;
        let width = (hi - lo) / bins as f64;
        for &x in samples {
            if !x.is_finite() || x < lo || x > hi {
                outliers += 1;
                continue;
            }
            let mut bin = ((x - lo) / width) as usize;
            if bin >= bins {
                bin = bins - 1; // x == hi lands in the last bin
            }
            counts[bin] += 1;
        }
        Ok(Histogram {
            lo,
            hi,
            counts,
            outliers,
        })
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of samples outside the histogram range.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Total in-range sample count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns 0 when either sample has zero variance.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] on length disagreement and
/// [`TensorError::EmptyInput`] for empty samples.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, TensorError> {
    if x.is_empty() {
        return Err(TensorError::EmptyInput);
    }
    if x.len() != y.len() {
        return Err(TensorError::LengthMismatch {
            expected: x.len(),
            actual: y.len(),
        });
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx).powi(2);
        vy += (b - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        return Ok(0.0);
    }
    Ok(cov / (vx.sqrt() * vy.sqrt()))
}

/// Empirical exceedance probability: fraction of samples strictly greater
/// than `threshold`.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] for an empty sample.
pub fn exceedance(samples: &[f64], threshold: f64) -> Result<f64, TensorError> {
    if samples.is_empty() {
        return Err(TensorError::EmptyInput);
    }
    let count = samples.iter().filter(|&&x| x > threshold).count();
    Ok(count as f64 / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_single_sample() {
        let s = summary(&[7.0]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert_eq!(summary(&[]), Err(TensorError::EmptyInput));
        assert!(summary(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 10.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 40.0);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 25.0);
        assert!((quantile(&xs, 0.25).unwrap() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_handles_unsorted() {
        let xs = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(quantile(&xs, 0.5).unwrap(), 25.0);
    }

    #[test]
    fn quantile_rejects_bad_q() {
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(quantile(&[1.0], -0.1).is_err());
    }

    #[test]
    fn histogram_bins_and_edges() {
        let xs = [0.5, 1.5, 1.6, 2.5, 3.0];
        let h = Histogram::new(&xs, 0.0, 3.0, 3).unwrap();
        assert_eq!(h.counts(), &[1, 2, 2]); // 3.0 lands in last bin
        assert_eq!(h.outliers(), 0);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_counts_outliers() {
        let xs = [-1.0, 0.5, 10.0, f64::NAN];
        let h = Histogram::new(&xs, 0.0, 1.0, 2).unwrap();
        assert_eq!(h.outliers(), 3);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn histogram_rejects_bad_args() {
        assert!(Histogram::new(&[], 0.0, 1.0, 0).is_err());
        assert!(Histogram::new(&[], 1.0, 1.0, 4).is_err());
        assert!(Histogram::new(&[], 0.0, f64::INFINITY, 4).is_err());
    }

    #[test]
    fn pearson_perfect_correlation() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 4.0, 6.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z = [6.0, 4.0, 2.0];
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn pearson_length_mismatch() {
        assert!(pearson(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn exceedance_fraction() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(exceedance(&xs, 2.5).unwrap(), 0.5);
        assert_eq!(exceedance(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(exceedance(&xs, 4.0).unwrap(), 0.0);
    }
}
