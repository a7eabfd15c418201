//! Ordered composition of layers.

use taamr_tensor::Tensor;

use crate::layers::BackwardStep;
use crate::{Layer, Mode, Param, Workspace};

/// A stack of layers applied in order; backward runs them in reverse.
///
/// Each layer reads the previous layer's output buffer in place: the stack
/// itself copies nothing (an empty stack copies its input through).
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// The identity's output when the stack is empty.
    passthrough: Workspace<Tensor>,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential {
            layers: self.layers.iter().map(|l| l.boxed_clone()).collect(),
            passthrough: Workspace::default(),
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential").field("layers", &names).finish()
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer, returning `self` for chaining.
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs `step` through the layers in reverse order.
    fn backprop(&mut self, grad_output: &Tensor, step: BackwardStep) -> &Tensor {
        let Some((last, init)) = self.layers.split_last_mut() else {
            return identity(&mut self.passthrough, grad_output);
        };
        let mut g = step(last.as_mut(), grad_output);
        for layer in init.iter_mut().rev() {
            g = step(layer.as_mut(), g);
        }
        g
    }
}

/// Copies `t` into `buf`: the empty stack's output and input gradient.
fn identity<'a>(buf: &'a mut Tensor, t: &Tensor) -> &'a Tensor {
    buf.reset_to_copy(t.dims(), t.as_slice());
    buf
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> &Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return identity(&mut self.passthrough, input);
        };
        let mut x = first.forward(input, mode);
        for layer in rest {
            x = layer.forward(x, mode);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> &Tensor {
        self.backprop(grad_output, |l, g| l.backward(g))
    }

    fn backward_input(&mut self, grad_output: &Tensor) -> &Tensor {
        self.backprop(grad_output, |l, g| l.backward_input(g))
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn state_tensors(&mut self) -> Vec<&mut Tensor> {
        self.layers.iter_mut().flat_map(|l| l.state_tensors()).collect()
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, ReLU};
    use taamr_tensor::seeded_rng;

    #[test]
    fn chains_forward_and_backward() {
        let mut rng = seeded_rng(0);
        let mut net = Sequential::new()
            .with(Dense::new(4, 8, &mut rng))
            .with(ReLU::new())
            .with(Dense::new(8, 2, &mut rng));
        let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut rng);
        assert_eq!(net.forward(&x, Mode::Train).dims(), &[3, 2]);
        let g = net.backward(&Tensor::ones(&[3, 2]));
        assert_eq!(g.dims(), &[3, 4]);
    }

    #[test]
    fn collects_all_params() {
        let mut rng = seeded_rng(1);
        let mut net =
            Sequential::new().with(Dense::new(4, 8, &mut rng)).with(Dense::new(8, 2, &mut rng));
        assert_eq!(net.params_mut().len(), 4); // two weights + two biases
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        assert!(net.is_empty());
        let x = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(net.forward(&x, Mode::Eval), &x);
        assert_eq!(net.backward(&x), &x);
    }

    #[test]
    fn debug_lists_layer_names() {
        let mut rng = seeded_rng(2);
        let net = Sequential::new().with(Dense::new(2, 2, &mut rng)).with(ReLU::new());
        let s = format!("{net:?}");
        assert!(s.contains("Dense") && s.contains("ReLU"));
    }
}
