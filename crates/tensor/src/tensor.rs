use std::fmt;

use crate::{Shape, TensorError};

/// A dense, row-major, contiguous `f32` tensor.
///
/// Every `Tensor` owns its storage; there are no views or non-contiguous
/// strides. This keeps every operation's memory behaviour obvious, which is
/// what we want when auditing hand-written backward passes.
///
/// # Example
///
/// ```
/// use taamr_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    pub(crate) data: Vec<f32>,
    pub(crate) shape: Shape,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![0.0; shape.len()], shape }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: vec![value; shape.len()], shape }
    }

    /// Reshapes this tensor in place to `dims` and fills it with zeros,
    /// reusing the existing allocation whenever it is large enough.
    ///
    /// This is the allocation-free counterpart of [`Tensor::zeros`] used by
    /// the reusable convolution/GEMM scratch buffers: a steady-state
    /// workload that cycles through the same shapes stops allocating after
    /// the first pass. Reuse vs. growth is recorded in the
    /// `scratch_reuse_hits` / `scratch_grows` telemetry counters.
    pub fn reset_to_zeros(&mut self, dims: &[usize]) {
        let len = self.reshape_for_reuse(dims);
        self.data.clear();
        self.data.resize(len, 0.0);
    }

    /// Sets the shape to `dims` in place (no allocation when the rank does
    /// not grow), records reuse vs. growth of the data buffer, and returns
    /// the new element count.
    fn reshape_for_reuse(&mut self, dims: &[usize]) -> usize {
        self.shape.set(dims);
        let len = self.shape.len();
        crate::scratch::count_reuse(len > self.data.capacity());
        len
    }

    /// Reshapes this tensor in place to `dims` *without* clearing retained
    /// contents, reusing the existing allocation whenever it is large
    /// enough.
    ///
    /// For fills that write every element anyway (e.g. the single-pass
    /// `im2col` lowering), the memset [`Tensor::reset_to_zeros`] performs is
    /// pure overhead; this variant skips it. Elements carried over from a
    /// previous use hold stale values until the caller overwrites them, so
    /// call it only ahead of a fill that writes every element (a layer's
    /// output or gradient buffer, a GEMM with `beta = 0`). Newly grown
    /// elements are zeroed (Vec growth), keeping the method free of
    /// `unsafe`.
    pub fn reset_for_overwrite(&mut self, dims: &[usize]) {
        let len = self.reshape_for_reuse(dims);
        self.data.resize(len, 0.0);
    }

    /// Reshapes this tensor in place to `dims` and copies `src` into it,
    /// reusing the existing allocation whenever it is large enough.
    ///
    /// The copy-in counterpart of [`Tensor::reset_to_zeros`], used by
    /// batched-scoring staging buffers that repeatedly load row blocks of a
    /// larger matrix. Reuse vs. growth is recorded in the same scratch
    /// telemetry counters.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` does not equal the product of `dims`.
    pub fn reset_to_copy(&mut self, dims: &[usize], src: &[f32]) {
        assert_eq!(src.len(), dims.iter().product::<usize>(), "reset_to_copy source length mismatch");
        self.reshape_for_reuse(dims);
        self.data.clear();
        self.data.extend_from_slice(src);
    }

    /// Reshapes this tensor in place to `dims` and copies `row` into every
    /// row (every run along the last axis), reusing the existing allocation
    /// whenever it is large enough.
    ///
    /// Each element is written once, so a matrix that starts from a shared
    /// row (the static item term of batched scoring) costs one pass rather
    /// than [`Tensor::reset_to_zeros`] followed by a copy per row. Reuse vs.
    /// growth is recorded in the same scratch telemetry counters.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or `row.len()` differs from its last entry.
    pub fn reset_to_tiled_rows(&mut self, dims: &[usize], row: &[f32]) {
        assert_eq!(dims.last(), Some(&row.len()), "reset_to_tiled_rows row length mismatch");
        let len = self.reshape_for_reuse(dims);
        self.data.clear();
        let rows = if row.is_empty() { 0 } else { len / row.len() };
        for _ in 0..rows {
            self.data.extend_from_slice(row);
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: data.len() });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { data: data.to_vec(), shape: Shape::new(&[data.len()]) }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: vec![value], shape: Shape::new(&[]) }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Immutable view of the underlying data, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index rank or bounds are wrong.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index rank or bounds are wrong.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Returns a copy with a new shape over the same data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshaped(&self, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if shape.len() != self.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: self.len() });
        }
        Ok(Tensor { data: self.data.clone(), shape })
    }

    /// Reinterprets the tensor in place with a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&mut self, dims: &[usize]) -> Result<(), TensorError> {
        let shape = Shape::new(dims);
        if shape.len() != self.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: self.len() });
        }
        self.shape = shape;
        Ok(())
    }

    /// Consuming variant of [`Tensor::reshape`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn into_reshaped(mut self, dims: &[usize]) -> Result<Self, TensorError> {
        self.reshape(dims)?;
        Ok(self)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn transposed(&self) -> Result<Self, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "row() requires a matrix");
        let c = self.dims()[1];
        Tensor::from_slice(&self.data[i * c..(i + 1) * c])
    }

    /// Iterates over the elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutable iteration over the elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Whether every element is finite (no NaN / ±inf).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> =
            self.data.iter().take(8).map(|v| format!("{v:.4}")).collect();
        write!(f, "[{}", preview.join(", "))?;
        if self.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl<'a> IntoIterator for &'a Tensor {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_contents() {
        assert!(Tensor::zeros(&[3]).iter().all(|&v| v == 0.0));
        assert!(Tensor::ones(&[3]).iter().all(|&v| v == 1.0));
        assert!(Tensor::full(&[2, 2], 7.5).iter().all(|&v| v == 7.5));
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        assert_eq!(i.at(&[2, 2]), 1.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[2]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0, 2.0], &[3]),
            Err(TensorError::LengthMismatch { expected: 3, actual: 2 })
        ));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let r = t.reshaped(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.dims(), &[3, 2]);
        assert!(t.reshaped(&[4, 2]).is_err());
    }

    #[test]
    fn transpose_is_involutive() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transposed().unwrap().transposed().unwrap();
        assert_eq!(tt, t);
        assert_eq!(t.transposed().unwrap().at(&[2, 1]), t.at(&[1, 2]));
    }

    #[test]
    fn transpose_rejects_non_matrices() {
        assert!(Tensor::zeros(&[2, 2, 2]).transposed().is_err());
    }

    #[test]
    fn row_extracts_contiguous_slice() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.row(1).as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn at_mut_writes_through() {
        let mut t = Tensor::zeros(&[2, 2]);
        *t.at_mut(&[1, 0]) = 9.0;
        assert_eq!(t.as_slice(), &[0.0, 0.0, 9.0, 0.0]);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        let mut t = Tensor::ones(&[3]);
        assert!(t.all_finite());
        t.as_mut_slice()[1] = f32::NAN;
        assert!(!t.all_finite());
        t.as_mut_slice()[1] = f32::INFINITY;
        assert!(!t.all_finite());
    }

    #[test]
    fn reset_to_tiled_rows_copies_the_row_into_every_row() {
        let mut t = Tensor::full(&[4, 4], 9.0);
        t.reset_to_tiled_rows(&[3, 2], &[1.0, -0.0]);
        assert_eq!(t.dims(), &[3, 2]);
        let bits: Vec<u32> = t.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [1.0f32, -0.0].repeat(3).iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        t.reset_to_tiled_rows(&[0, 5], &[1.0; 5]);
        assert!(t.as_slice().is_empty());
        t.reset_to_tiled_rows(&[2, 0], &[]);
        assert_eq!(t.dims(), &[2, 0]);
    }

    #[test]
    #[should_panic(expected = "reset_to_tiled_rows row length mismatch")]
    fn reset_to_tiled_rows_rejects_a_mis_sized_row() {
        Tensor::zeros(&[1]).reset_to_tiled_rows(&[2, 3], &[1.0, 2.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(&[16]);
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(!Tensor::scalar(1.0).to_string().is_empty());
    }
}
