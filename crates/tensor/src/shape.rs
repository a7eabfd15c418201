use std::fmt;

use crate::TensorError;

/// A row-major tensor shape.
///
/// `Shape` stores the dimension sizes of a tensor. Indexing is row-major:
/// the last dimension varies fastest.
///
/// # Example
///
/// ```
/// use taamr_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape { dims: dims.to_vec() }
    }

    /// Overwrites the dimension sizes in place, reusing the allocation when
    /// the rank does not grow.
    pub(crate) fn set(&mut self, dims: &[usize]) {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of dimensions; 1 for a scalar shape).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of dimension `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> Result<usize, TensorError> {
        self.dims
            .get(axis)
            .copied()
            .ok_or(TensorError::AxisOutOfRange { axis, rank: self.rank() })
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flattens a multi-dimensional index into a linear offset.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `index` has the wrong rank or is out of
    /// bounds; release builds produce an unspecified offset.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for (i, (&ix, &d)) in index.iter().zip(&self.dims).enumerate().rev() {
            debug_assert!(ix < d, "index {ix} out of bounds for dim {i} of size {d}");
            let _ = i;
            off += ix * stride;
            stride *= d;
        }
        off
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_round_trips_all_indices() {
        let s = Shape::new(&[2, 3, 4]);
        let mut seen = vec![false; s.len()];
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]);
                    assert!(!seen[off], "duplicate offset {off}");
                    seen[off] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(&[]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn dim_out_of_range_errors() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.dim(1).unwrap(), 3);
        assert!(matches!(s.dim(2), Err(TensorError::AxisOutOfRange { axis: 2, rank: 2 })));
    }

    #[test]
    fn display_formats_like_a_list() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::new(&[]).to_string(), "[]");
    }

    #[test]
    fn zero_dim_is_empty() {
        assert!(Shape::new(&[2, 0, 3]).is_empty());
        assert!(!Shape::new(&[2, 1, 3]).is_empty());
    }
}
