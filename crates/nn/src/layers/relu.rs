//! Rectified linear activation.

use taamr_tensor::Tensor;

use crate::{Layer, Mode, Workspace};

/// Elementwise `max(0, x)` with the standard subgradient (0 at 0).
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    ws: Workspace<Work>,
}

#[derive(Debug, Default)]
struct Work {
    /// Output of the last forward; `y > 0` exactly where `x > 0`, so it is
    /// also the backward mask.
    out: Tensor,
    dx: Tensor,
    ready: bool,
}

impl ReLU {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `dx = dy` where `y > 0`, else 0: the ReLU backward, reading the mask off
/// the forward output `y` (`y > 0` exactly where the input was positive).
pub(crate) fn relu_backward_into(y: &Tensor, dy: &Tensor, dx: &mut Tensor) {
    assert_eq!(dy.dims(), y.dims(), "ReLU gradient shape mismatch");
    dx.reset_for_overwrite(y.dims());
    for ((d, &g), &o) in dx.iter_mut().zip(dy.iter()).zip(y.iter()) {
        *d = if o > 0.0 { g } else { 0.0 };
    }
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> &Tensor {
        let ws = &mut *self.ws;
        ws.out.reset_for_overwrite(input.dims());
        for (o, &v) in ws.out.iter_mut().zip(input.iter()) {
            *o = v.max(0.0);
        }
        ws.ready = true;
        &ws.out
    }

    fn backward(&mut self, grad_output: &Tensor) -> &Tensor {
        let ws = &mut *self.ws;
        assert!(ws.ready, "backward before forward");
        relu_backward_into(&ws.out, grad_output, &mut ws.dx);
        &ws.dx
    }

    fn name(&self) -> &'static str {
        "ReLU"
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn forward_clips_negatives() {
        let mut r = ReLU::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        assert_eq!(r.forward(&x, Mode::Eval).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = ReLU::new();
        let x = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
        r.forward(&x, Mode::Eval);
        let g = r.backward(&Tensor::from_slice(&[10.0, 10.0, 10.0]));
        assert_eq!(g.as_slice(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn gradient_matches_finite_differences_away_from_kink() {
        let mut r = ReLU::new();
        // Stay away from 0 so finite differences are valid.
        let x = Tensor::from_slice(&[-2.0, -1.0, 1.0, 2.0, 0.7, -0.7]);
        gradcheck::check_input_gradient(&mut r, &x, 1e-3);
    }

    #[test]
    fn has_no_params() {
        let mut r = ReLU::new();
        assert_eq!(r.param_count(), 0);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        ReLU::new().backward(&Tensor::zeros(&[1]));
    }
}
