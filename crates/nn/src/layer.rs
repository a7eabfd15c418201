//! The [`Layer`] trait and trainable [`Param`] container.

use taamr_tensor::Tensor;

/// Whether a forward pass runs in training or inference mode.
///
/// Batch normalisation uses batch statistics in [`Mode::Train`] and running
/// statistics in [`Mode::Eval`]; attacks always run in [`Mode::Eval`] because
/// the adversary perturbs a *deployed* model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training: batch statistics, running-stat updates.
    Train,
    /// Inference: frozen statistics, no side effects.
    #[default]
    Eval,
}

impl Mode {
    /// Whether this is [`Mode::Train`].
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// A trainable parameter: value, accumulated gradient, and optional
/// optimiser state (momentum buffer).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es).
    pub grad: Tensor,
    /// Momentum buffer, lazily created by the optimiser.
    pub momentum: Option<Tensor>,
    /// Whether weight decay applies (disabled for biases and norm scales).
    pub decay: bool,
}

impl Param {
    /// Wraps an initial value as a decayed (regularised) parameter.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param { value, grad, momentum: None, decay: true }
    }

    /// Wraps an initial value as a non-decayed parameter (bias, BN scale).
    pub fn new_no_decay(value: Tensor) -> Self {
        Param { decay: false, ..Param::new(value) }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable network layer.
///
/// Layers cache whatever they need during [`Layer::forward`] so that
/// [`Layer::backward`] can compute the gradient with respect to the input and
/// accumulate gradients into their [`Param`]s. `backward` must be called with
/// the gradient of the loss with respect to the layer's most recent output.
///
/// # Contract
///
/// * `backward` may only be called after `forward`.
/// * Parameter gradients *accumulate*; callers zero them via
///   [`Layer::zero_grads`] between optimiser steps.
/// * [`Layer::backward_input`] returns the same input gradient as
///   `backward`, bit for bit, and leaves every [`Param::grad`] untouched:
///   it runs the same input-gradient arithmetic (same GEMM calls, shapes and
///   order) and skips only the parameter-gradient work. Attacks, which need
///   `∇ₓL` alone, use it; training uses `backward`.
///
/// Layers are plain data (`Send + Sync`), and [`Layer::boxed_clone`] deep-
/// copies one so each worker thread can own private forward/backward caches
/// when a batch is evaluated in parallel.
pub trait Layer: Send + Sync {
    /// Computes the layer output for `input`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Propagates `grad_output` backwards, returning the gradient with
    /// respect to the layer's input and accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Layer::forward`] or with a gradient whose
    /// shape does not match the most recent output.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Propagates `grad_output` backwards and returns only the gradient with
    /// respect to the layer's input; parameter gradients are left as they
    /// were. The result is bitwise equal to [`Layer::backward`]'s.
    ///
    /// The default calls `backward`, which is exact for layers without
    /// parameters; layers that own a [`Param`] must override it.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_input(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward(grad_output)
    }

    /// Mutable access to the layer's trainable parameters (empty by default).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Mutable views of every tensor defining the layer's persistent state:
    /// trainable parameter values plus any non-trainable buffers (batch-norm
    /// running statistics). Checkpointing flattens these in order, so the
    /// order must be stable across calls. The default covers layers whose
    /// state is exactly their parameters.
    fn state_tensors(&mut self) -> Vec<&mut Tensor> {
        self.params_mut().into_iter().map(|p| &mut p.value).collect()
    }

    /// A short human-readable layer name for debugging.
    fn name(&self) -> &'static str;

    /// Deep copy as a boxed trait object (parameters *and* caches), so a
    /// worker thread can run forward/backward without touching the original.
    fn boxed_clone(&self) -> Box<dyn Layer>;

    /// Zeroes all parameter gradients.
    fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of scalar trainable parameters.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_starts_with_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 2]));
        assert!(p.grad.iter().all(|&v| v == 0.0));
        assert!(p.decay);
        assert!(p.momentum.is_none());
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn no_decay_constructor_flags_off() {
        let p = Param::new_no_decay(Tensor::ones(&[3]));
        assert!(!p.decay);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad = Tensor::ones(&[2]);
        p.zero_grad();
        assert!(p.grad.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mode_default_is_eval() {
        assert_eq!(Mode::default(), Mode::Eval);
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
    }
}
