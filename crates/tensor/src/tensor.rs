//! The dense `f32` tensor type.

use std::fmt;

use crate::error::TensorError;
use crate::rng::DetRng;
use crate::shape::Shape;

/// A dense, row-major, heap-backed `f32` tensor.
///
/// `Tensor` is the exchange type of the SAFEXPLAIN stack: scenario
/// generators produce them, the DL engine consumes them, explainers perturb
/// them. All arithmetic is deterministic (fixed left-to-right evaluation
/// order) and all fallible operations return [`TensorError`] rather than
/// panicking.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), safex_tensor::TensorError> {
/// use safex_tensor::{Shape, Tensor};
///
/// let t = Tensor::zeros(Shape::matrix(2, 2));
/// let u = t.map(|x| x + 1.0);
/// assert_eq!(u.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and a data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// `shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: Shape, value: f32) -> Self {
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates a 1-D tensor from a slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyShape`] if `data` is empty.
    pub fn from_slice_1d(data: &[f32]) -> Result<Self, TensorError> {
        if data.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        Ok(Tensor {
            shape: Shape::vector(data.len()),
            data: data.to_vec(),
        })
    }

    /// Creates a tensor of i.i.d. uniform values in `[lo, hi)` drawn from a
    /// deterministic generator.
    ///
    /// # Panics
    ///
    /// Panics if the range bounds are invalid (see [`DetRng::range_f64`]).
    pub fn uniform(shape: Shape, lo: f32, hi: f32, rng: &mut DetRng) -> Self {
        let data = (0..shape.len())
            .map(|_| rng.range_f64(lo as f64, hi as f64) as f32)
            .collect();
        Tensor { shape, data }
    }

    /// Creates a tensor of i.i.d. normal values.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative (see [`DetRng::gaussian`]).
    pub fn gaussian(shape: Shape, mean: f32, std_dev: f32, rng: &mut DetRng) -> Self {
        let data = (0..shape.len())
            .map(|_| rng.gaussian(mean as f64, std_dev as f64) as f32)
            .collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true; shapes with zero
    /// dimensions cannot be constructed).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on a bad index.
    pub fn at(&self, index: &[usize]) -> Result<f32, TensorError> {
        let flat = self.shape.flat_index(index)?;
        Ok(self.data[flat])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on a bad index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let flat = self.shape.flat_index(index)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor, TensorError> {
        Tensor::from_vec(shape, self.data.clone())
    }

    /// Applies a function to every element, producing a new tensor.
    pub fn map<F: FnMut(f32) -> f32>(&self, mut f: F) -> Tensor {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise combination with an arbitrary function.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_with<F: FnMut(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        mut f: F,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape,
                right: other.shape,
            });
        }
        Ok(Tensor {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, factor: f32) -> Tensor {
        self.map(|x| x * factor)
    }

    /// Sum of all elements, accumulated left-to-right in `f64`.
    ///
    /// The widened accumulator plus fixed order makes the result
    /// deterministic and accurate independent of element count.
    pub fn sum(&self) -> f64 {
        self.data.iter().fold(0.0f64, |acc, &x| acc + x as f64)
    }

    /// Arithmetic mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.sum() / self.data.len() as f64
    }

    /// Index and value of the maximum element (first occurrence wins,
    /// making the result deterministic under ties).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] if the tensor is empty.
    pub fn argmax(&self) -> Result<(usize, f32), TensorError> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in self.data.iter().enumerate() {
            match best {
                None => best = Some((i, v)),
                Some((_, bv)) if v > bv => best = Some((i, v)),
                _ => {}
            }
        }
        best.ok_or(TensorError::EmptyInput)
    }

    /// Matrix product of two rank-2 tensors.
    ///
    /// Inner loops accumulate in `f64`, left-to-right, for deterministic
    /// and well-conditioned results.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulIncompatible`] unless `self` is
    /// `m x k` and `other` is `k x n`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let incompat = || TensorError::MatmulIncompatible {
            left: self.shape,
            right: other.shape,
        };
        if self.shape.rank() != 2 || other.shape.rank() != 2 {
            return Err(incompat());
        }
        let (m, k1) = (self.shape.dims()[0], self.shape.dims()[1]);
        let (k2, n) = (other.shape.dims()[0], other.shape.dims()[1]);
        if k1 != k2 {
            return Err(incompat());
        }
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for k in 0..k1 {
                    acc += self.data[i * k1 + k] as f64 * other.data[k * n + j] as f64;
                }
                out[i * n + j] = acc as f32;
            }
        }
        Tensor::from_vec(Shape::matrix(m, n), out)
    }

    /// Dot product of two equal-length tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the lengths differ.
    pub fn dot(&self, other: &Tensor) -> Result<f64, TensorError> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape,
                right: other.shape,
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |acc, (&a, &b)| acc + a as f64 * b as f64))
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn norm_l2(&self) -> f64 {
        self.data
            .iter()
            .fold(0.0f64, |acc, &x| acc + (x as f64) * (x as f64))
            .sqrt()
    }

    /// Maximum absolute difference between two tensors of equal shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f64, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape,
                right: other.shape,
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |acc, (&a, &b)| acc.max((a as f64 - b as f64).abs())))
    }

    /// Whether every element is finite (no NaN or infinity).
    ///
    /// The runtime supervisors use this as a cheap plausibility check on
    /// activations.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}]", self.shape)?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, ... {:.4}] ({} elements)",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1],
                self.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2x2(vals: [f32; 4]) -> Tensor {
        Tensor::from_vec(Shape::matrix(2, 2), vals.to_vec()).unwrap()
    }

    #[test]
    fn from_vec_checks_length() {
        let err = Tensor::from_vec(Shape::matrix(2, 3), vec![1.0; 5]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn zeros_and_full() {
        assert!(Tensor::zeros(Shape::vector(4))
            .as_slice()
            .iter()
            .all(|&x| x == 0.0));
        assert!(Tensor::full(Shape::vector(4), 2.5)
            .as_slice()
            .iter()
            .all(|&x| x == 2.5));
    }

    #[test]
    fn elementwise_ops() {
        let a = t2x2([1.0, 2.0, 3.0, 4.0]);
        let b = t2x2([10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[9.0, 18.0, 27.0, 36.0]);
        assert_eq!(a.mul(&a).unwrap().as_slice(), &[1.0, 4.0, 9.0, 16.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn shape_mismatch_detected() {
        let a = Tensor::zeros(Shape::matrix(2, 2));
        let b = Tensor::zeros(Shape::matrix(2, 3));
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn matmul_identity() {
        let a = t2x2([1.0, 2.0, 3.0, 4.0]);
        let id = t2x2([1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id).unwrap(), a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(Shape::matrix(1, 3), vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(Shape::matrix(3, 1), vec![4.0, 5.0, 6.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[1, 1]);
        assert_eq!(c.as_slice(), &[32.0]);
    }

    #[test]
    fn matmul_incompatible() {
        let a = Tensor::zeros(Shape::matrix(2, 3));
        let b = Tensor::zeros(Shape::matrix(2, 3));
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulIncompatible { .. })
        ));
        let v = Tensor::zeros(Shape::vector(3));
        assert!(a.matmul(&v).is_err());
    }

    #[test]
    fn sum_mean() {
        let a = t2x2([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn argmax_first_tie_wins() {
        let t = Tensor::from_slice_1d(&[1.0, 5.0, 5.0, 2.0]).unwrap();
        assert_eq!(t.argmax().unwrap(), (1, 5.0));
    }

    #[test]
    fn dot_and_norm() {
        let a = Tensor::from_slice_1d(&[3.0, 4.0]).unwrap();
        assert_eq!(a.norm_l2(), 5.0);
        let b = Tensor::from_slice_1d(&[1.0, 1.0]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 7.0);
    }

    #[test]
    fn indexing() {
        let mut t = Tensor::zeros(Shape::matrix(2, 3));
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.at(&[0, 0]).unwrap(), 0.0);
        assert!(t.at(&[2, 0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice_1d(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let r = t.reshape(Shape::matrix(2, 2)).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(Shape::matrix(3, 2)).is_err());
    }

    #[test]
    fn deterministic_random_tensors() {
        let mut r1 = DetRng::new(99);
        let mut r2 = DetRng::new(99);
        let a = Tensor::gaussian(Shape::vector(16), 0.0, 1.0, &mut r1);
        let b = Tensor::gaussian(Shape::vector(16), 0.0, 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::zeros(Shape::vector(3));
        assert!(t.all_finite());
        t.as_mut_slice()[1] = f32::NAN;
        assert!(!t.all_finite());
        t.as_mut_slice()[1] = f32::INFINITY;
        assert!(!t.all_finite());
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_slice_1d(&[1.0, 2.0]).unwrap();
        let b = Tensor::from_slice_1d(&[1.5, -1.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 3.0);
    }

    #[test]
    fn display_compact_and_truncated() {
        let small = Tensor::from_slice_1d(&[1.0, 2.0]).unwrap();
        assert!(small.to_string().contains("Tensor[2]"));
        let big = Tensor::zeros(Shape::vector(100));
        assert!(big.to_string().contains("100 elements"));
    }
}
