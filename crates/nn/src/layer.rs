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
/// * `forward`, `backward` and `backward_input` write into buffers the layer
///   owns and return borrows of them: the output, or the gradient with
///   respect to the input. The buffers are rewritten in place by the next
///   call, so a pass over same-shaped batches — a training epoch, an
///   attack's gradient steps — stops asking the allocator for memory after
///   the first one.
/// * `backward` may only be called after `forward`.
/// * Parameter gradients *accumulate*; callers zero them via
///   [`Layer::zero_grads`] between optimiser steps.
/// * [`Layer::backward_input`] returns the same input gradient as
///   `backward`, bit for bit, and leaves every [`Param::grad`] untouched:
///   it runs the same input-gradient arithmetic (same GEMM calls, shapes and
///   order) and skips only the parameter-gradient work. Attacks, which need
///   `∇ₓL` alone, use it; training uses `backward`.
///
/// Layers are plain data (`Send + Sync`). [`Layer::boxed_clone`] copies the
/// persistent state only — parameter values, gradients and momentum, and
/// batch-norm running statistics — and leaves every forward cache and
/// workspace buffer empty, so each worker thread gets a cheap private copy
/// whose next `forward` rebuilds them.
pub trait Layer: Send + Sync {
    /// Computes the layer output for `input`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> &Tensor;

    /// Propagates `grad_output` backwards, returning the gradient with
    /// respect to the layer's input and accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Layer::forward`] or with a gradient whose
    /// shape does not match the most recent output.
    fn backward(&mut self, grad_output: &Tensor) -> &Tensor;

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
    fn backward_input(&mut self, grad_output: &Tensor) -> &Tensor {
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

    /// Copy as a boxed trait object carrying the persistent state
    /// (parameters with their gradients and momentum, running statistics)
    /// but no forward cache or workspace, so a worker thread can run
    /// forward/backward without touching the original.
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

/// A layer's forward caches and output/gradient buffers: rebuilt in place by
/// every pass, never part of its persistent state.
///
/// Cloning yields an empty workspace (`T::default()`), so a layer can
/// `#[derive(Clone)]` and still copy parameters only — cloning a network
/// that just ran a training batch costs the same as cloning a fresh one.
#[derive(Debug, Default)]
pub(crate) struct Workspace<T>(T);

impl<T: Default> Clone for Workspace<T> {
    fn clone(&self) -> Self {
        Workspace(T::default())
    }
}

impl<T> std::ops::Deref for Workspace<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Workspace<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
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
