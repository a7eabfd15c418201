//! Elementwise and scalar operations on [`Tensor`].

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::{Tensor, TensorError};

/// Sign of one element: −1, 0, or 1, with 0 (and NaN) mapping to 0 — unlike
/// [`f32::signum`], which maps ±0 to ±1. The signed-gradient attacks step by
/// `α · signum(∇)`, so a zero gradient component leaves its pixel alone.
#[inline]
pub fn signum(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else if v < 0.0 {
        -1.0
    } else {
        0.0
    }
}

impl Tensor {
    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Elementwise sum, checked.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn checked_add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "add")?;
        Ok(self.zip_with(other, |a, b| a + b))
    }

    /// Elementwise difference, checked.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn checked_sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "sub")?;
        Ok(self.zip_with(other, |a, b| a - b))
    }

    /// Elementwise (Hadamard) product, checked.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn checked_mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other, "mul")?;
        Ok(self.zip_with(other, |a, b| a * b))
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&v| f(v)).collect(), shape: self.shape.clone() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ. Use the `checked_*` methods for fallible
    /// variants.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip_with shape mismatch");
        Tensor {
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// In-place elementwise combine: `self[i] = f(self[i], other[i])`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_with_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape, other.shape, "zip_with_inplace shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// `self += alpha * other` (BLAS `axpy`), in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `s`, producing a new tensor.
    pub fn scaled(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        self.map_inplace(|v| v * s);
    }

    /// Clamps every element into `[lo, hi]`, producing a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamped(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
        self.map(|v| v.clamp(lo, hi))
    }

    /// Clamps every element into `[lo, hi]` in place.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp_inplace(&mut self, lo: f32, hi: f32) {
        assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
        self.map_inplace(|v| v.clamp(lo, hi));
    }

    /// Elementwise sign: −1, 0, or 1 (see [`signum`]).
    pub fn signum(&self) -> Tensor {
        self.map(signum)
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Dot product of two same-shaped tensors viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum()
    }

    /// Euclidean (L2) norm of the tensor viewed as a flat vector.
    pub fn norm_l2(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element (L∞ norm); 0 for an empty tensor.
    pub fn norm_linf(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &v| m.max(v.abs()))
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_with(rhs, |a, b| a $op b)
            }
        }
        impl $trait<f32> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: f32) -> Tensor {
                self.map(|a| a $op rhs)
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|v| -v)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.zip_with_inplace(rhs, |a, b| a + b);
    }
}

impl SubAssign<&Tensor> for Tensor {
    fn sub_assign(&mut self, rhs: &Tensor) {
        self.zip_with_inplace(rhs, |a, b| a - b);
    }
}

impl MulAssign<f32> for Tensor {
    fn mul_assign(&mut self, rhs: f32) {
        self.scale(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn arithmetic_operators() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * &b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!((&b / &a).as_slice(), &[4.0, 2.5, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    fn assign_operators() {
        let mut a = t(&[1.0, 2.0]);
        a += &t(&[1.0, 1.0]);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
        a -= &t(&[2.0, 2.0]);
        assert_eq!(a.as_slice(), &[0.0, 1.0]);
        a *= 3.0;
        assert_eq!(a.as_slice(), &[0.0, 3.0]);
    }

    #[test]
    fn checked_ops_reject_shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(a.checked_add(&b).is_err());
        assert!(a.checked_sub(&b).is_err());
        assert!(a.checked_mul(&b).is_err());
        assert!(a.checked_add(&Tensor::zeros(&[2, 3])).is_ok());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0]);
        a.axpy(0.5, &t(&[2.0, 4.0]));
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn clamp_and_sign() {
        let a = t(&[-2.0, 0.0, 0.5, 3.0]);
        assert_eq!(a.clamped(0.0, 1.0).as_slice(), &[0.0, 0.0, 0.5, 1.0]);
        assert_eq!(a.signum().as_slice(), &[-1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn clamp_panics_on_inverted_bounds() {
        t(&[1.0]).clamped(1.0, 0.0);
    }

    #[test]
    fn norms_and_dot() {
        let a = t(&[3.0, 4.0]);
        assert_eq!(a.norm_l2(), 5.0);
        assert_eq!(a.norm_linf(), 4.0);
        assert_eq!(a.dot(&t(&[1.0, 2.0])), 11.0);
        assert_eq!(Tensor::zeros(&[0]).norm_linf(), 0.0);
    }

    #[test]
    fn fill_zero_keeps_shape() {
        let mut a = Tensor::ones(&[2, 2]);
        a.fill_zero();
        assert_eq!(a.dims(), &[2, 2]);
        assert!(a.iter().all(|&v| v == 0.0));
    }
}
