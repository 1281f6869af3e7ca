//! Tensor shapes: dimension lists with row-major strides.

use std::fmt;

use crate::error::TensorError;

/// Maximum number of dimensions supported.
///
/// Four dimensions cover everything the SAFEXPLAIN DL stack needs
/// (`[batch, channels, height, width]` for images, `[rows, cols]` for
/// dense layers). Bounding the rank lets [`Shape`] live entirely on the
/// stack — no allocation, `Copy`, cheap to compare — which matters for the
/// statically-allocated inference engine.
pub const MAX_RANK: usize = 4;

/// A tensor shape: an ordered list of 1 to [`MAX_RANK`] dimension sizes.
///
/// Shapes are laid out row-major (C order): the last dimension is
/// contiguous in memory. A `Shape` is a small `Copy` value; it never
/// allocates.
///
/// # Examples
///
/// ```
/// use safex_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]).unwrap();
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.dims(), &[2, 3, 4]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyShape`] if `dims` is empty, has more
    /// than [`MAX_RANK`] entries, or contains a zero dimension.
    pub fn new(dims: &[usize]) -> Result<Self, TensorError> {
        if dims.is_empty() || dims.len() > MAX_RANK || dims.contains(&0) {
            return Err(TensorError::EmptyShape);
        }
        let mut d = [1usize; MAX_RANK];
        d[..dims.len()].copy_from_slice(dims);
        Ok(Shape {
            dims: d,
            rank: dims.len(),
        })
    }

    /// Creates a 1-D shape of `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn vector(n: usize) -> Self {
        Shape::new(&[n]).expect("vector length must be non-zero")
    }

    /// Creates a 2-D `rows x cols` shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape::new(&[rows, cols]).expect("matrix dimensions must be non-zero")
    }

    /// Creates a 3-D `channels x height x width` image shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn chw(channels: usize, height: usize, width: usize) -> Self {
        Shape::new(&[channels, height, width]).expect("image dimensions must be non-zero")
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The dimension sizes as a slice of length [`Self::rank`].
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Size of dimension `axis`, or `None` if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Option<usize> {
        self.dims().get(axis).copied()
    }

    /// Total number of elements (product of all dimensions).
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Always false: shapes with zero-sized dimensions cannot be built.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Row-major strides for this shape.
    ///
    /// `strides()[i]` is the flat-index distance between consecutive
    /// elements along axis `i`.
    ///
    /// # Examples
    ///
    /// ```
    /// use safex_tensor::Shape;
    /// let s = Shape::new(&[2, 3, 4]).unwrap();
    /// assert_eq!(&s.strides()[..3], &[12, 4, 1]);
    /// ```
    pub fn strides(&self) -> [usize; MAX_RANK] {
        let mut strides = [1usize; MAX_RANK];
        for i in (0..self.rank.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `index` has the wrong
    /// rank or any coordinate exceeds its dimension.
    pub fn flat_index(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.rank {
            return Err(TensorError::IndexOutOfBounds {
                index: index.len(),
                len: self.rank,
            });
        }
        let strides = self.strides();
        let mut flat = 0usize;
        for (axis, (&i, &d)) in index.iter().zip(self.dims()).enumerate() {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, len: d });
            }
            flat += i * strides[axis];
        }
        Ok(flat)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for d in self.dims() {
            if !first {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
            first = false;
        }
        Ok(())
    }
}

impl TryFrom<&[usize]> for Shape {
    type Error = TensorError;

    fn try_from(dims: &[usize]) -> Result<Self, Self::Error> {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty() {
        assert_eq!(Shape::new(&[]), Err(TensorError::EmptyShape));
    }

    #[test]
    fn new_rejects_zero_dim() {
        assert_eq!(Shape::new(&[2, 0, 3]), Err(TensorError::EmptyShape));
    }

    #[test]
    fn new_rejects_over_rank() {
        assert_eq!(Shape::new(&[1, 2, 3, 4, 5]), Err(TensorError::EmptyShape));
    }

    #[test]
    fn len_is_product() {
        let s = Shape::new(&[2, 3, 4]).unwrap();
        assert_eq!(s.len(), 24);
        assert_eq!(Shape::vector(7).len(), 7);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4, 5]).unwrap();
        assert_eq!(s.strides(), [60, 20, 5, 1]);
    }

    #[test]
    fn strides_vector() {
        assert_eq!(Shape::vector(9).strides()[0], 1);
    }

    #[test]
    fn flat_index_round_trip() {
        let s = Shape::new(&[2, 3, 4]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let flat = s.flat_index(&[i, j, k]).unwrap();
                    assert!(flat < s.len());
                    assert!(seen.insert(flat), "flat index collision");
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn flat_index_bounds_checked() {
        let s = Shape::matrix(2, 3);
        assert!(s.flat_index(&[2, 0]).is_err());
        assert!(s.flat_index(&[0, 3]).is_err());
        assert!(s.flat_index(&[0]).is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3, 4]).unwrap().to_string(), "2x3x4");
        assert_eq!(Shape::vector(5).to_string(), "5");
    }

    #[test]
    fn chw_constructor() {
        let s = Shape::chw(3, 8, 8);
        assert_eq!(s.dims(), &[3, 8, 8]);
        assert_eq!(s.len(), 192);
    }

    #[test]
    fn try_from_slice() {
        let s: Shape = (&[2usize, 2][..]).try_into().unwrap();
        assert_eq!(s, Shape::matrix(2, 2));
    }

    #[test]
    fn dim_accessor() {
        let s = Shape::new(&[5, 6]).unwrap();
        assert_eq!(s.dim(0), Some(5));
        assert_eq!(s.dim(1), Some(6));
        assert_eq!(s.dim(2), None);
    }
}
