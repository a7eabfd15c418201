//! Residual (skip-connection) block.

use rand::Rng;
use taamr_tensor::Tensor;

use crate::layers::relu::relu_backward_into;
use crate::layers::{BackwardStep, BatchNorm2d, Conv2d, ReLU};
use crate::{Layer, Mode, Param, Workspace};

/// A basic ResNet block: `ReLU(BN(conv(ReLU(BN(conv(x))))) + shortcut(x))`.
///
/// When `stride > 1` or the channel count changes, the shortcut is a
/// 1×1 strided convolution followed by batch-norm (projection shortcut);
/// otherwise it is the identity.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: ReLU,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    ws: Workspace<Work>,
}

#[derive(Debug, Default)]
struct Work {
    /// Output of the final ReLU (applied after the addition); its positive
    /// entries are the backward mask.
    out: Tensor,
    /// `grad_output` masked by the final ReLU: the gradient both branches
    /// start from.
    grad_sum: Tensor,
    dx: Tensor,
    ready: bool,
}

impl ResidualBlock {
    /// Creates a block mapping `in_channels → out_channels` with the given
    /// stride on the first convolution.
    ///
    /// # Panics
    ///
    /// Panics if any channel count or the stride is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let conv1 = Conv2d::new(in_channels, out_channels, 3, stride, 1, rng);
        let bn1 = BatchNorm2d::new(out_channels);
        let conv2 = Conv2d::new(out_channels, out_channels, 3, 1, 1, rng);
        let bn2 = BatchNorm2d::new(out_channels);
        let shortcut = if stride != 1 || in_channels != out_channels {
            Some((
                Conv2d::new(in_channels, out_channels, 1, stride, 0, rng),
                BatchNorm2d::new(out_channels),
            ))
        } else {
            None
        };
        ResidualBlock {
            conv1,
            bn1,
            relu1: ReLU::new(),
            conv2,
            bn2,
            shortcut,
            ws: Workspace::default(),
        }
    }

    /// Whether this block uses a projection shortcut.
    pub fn has_projection(&self) -> bool {
        self.shortcut.is_some()
    }

    /// The block's backward wiring: output-ReLU mask, main branch, shortcut
    /// branch, sum. Every child step goes through `step`.
    fn backprop(&mut self, grad_output: &Tensor, step: BackwardStep) -> &Tensor {
        let ws = &mut *self.ws;
        assert!(ws.ready, "backward before forward");
        relu_backward_into(&ws.out, grad_output, &mut ws.grad_sum);
        let g = &ws.grad_sum;
        // Main branch.
        let mut gm = step(&mut self.bn2, g);
        gm = step(&mut self.conv2, gm);
        gm = step(&mut self.relu1, gm);
        gm = step(&mut self.bn1, gm);
        gm = step(&mut self.conv1, gm);
        // Shortcut branch.
        let gs = match &mut self.shortcut {
            Some((conv, bn)) => {
                let t = step(bn, g);
                step(conv, t)
            }
            None => g,
        };
        assert_eq!(gm.dims(), gs.dims(), "ResidualBlock branch gradient shapes differ");
        ws.dx.reset_for_overwrite(gm.dims());
        for ((d, &a), &b) in ws.dx.iter_mut().zip(gm.iter()).zip(gs.iter()) {
            *d = a + b;
        }
        &ws.dx
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> &Tensor {
        let mut main = self.conv1.forward(input, mode);
        main = self.bn1.forward(main, mode);
        main = self.relu1.forward(main, mode);
        main = self.conv2.forward(main, mode);
        main = self.bn2.forward(main, mode);

        let skip = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(input, mode);
                bn.forward(s, mode)
            }
            None => input,
        };
        assert_eq!(main.dims(), skip.dims(), "ResidualBlock branch shapes differ");
        let ws = &mut *self.ws;
        ws.out.reset_for_overwrite(main.dims());
        for ((o, &m), &s) in ws.out.iter_mut().zip(main.iter()).zip(skip.iter()) {
            *o = (m + s).max(0.0);
        }
        ws.ready = true;
        &ws.out
    }

    fn backward(&mut self, grad_output: &Tensor) -> &Tensor {
        self.backprop(grad_output, |l, g| l.backward(g))
    }

    fn backward_input(&mut self, grad_output: &Tensor) -> &Tensor {
        self.backprop(grad_output, |l, g| l.backward_input(g))
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.conv1.params_mut();
        p.extend(self.bn1.params_mut());
        p.extend(self.conv2.params_mut());
        p.extend(self.bn2.params_mut());
        if let Some((conv, bn)) = &mut self.shortcut {
            p.extend(conv.params_mut());
            p.extend(bn.params_mut());
        }
        p
    }

    fn state_tensors(&mut self) -> Vec<&mut Tensor> {
        let mut t = self.conv1.state_tensors();
        t.extend(self.bn1.state_tensors());
        t.extend(self.conv2.state_tensors());
        t.extend(self.bn2.state_tensors());
        if let Some((conv, bn)) = &mut self.shortcut {
            t.extend(conv.state_tensors());
            t.extend(bn.state_tensors());
        }
        t
    }

    fn name(&self) -> &'static str {
        "ResidualBlock"
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use taamr_tensor::seeded_rng;

    #[test]
    fn identity_block_preserves_shape() {
        let mut rng = seeded_rng(0);
        let mut b = ResidualBlock::new(4, 4, 1, &mut rng);
        assert!(!b.has_projection());
        let x = Tensor::randn(&[2, 4, 6, 6], 0.0, 1.0, &mut rng);
        assert_eq!(b.forward(&x, Mode::Train).dims(), &[2, 4, 6, 6]);
    }

    #[test]
    fn strided_block_downsamples_and_projects() {
        let mut rng = seeded_rng(1);
        let mut b = ResidualBlock::new(4, 8, 2, &mut rng);
        assert!(b.has_projection());
        let x = Tensor::randn(&[1, 4, 8, 8], 0.0, 1.0, &mut rng);
        assert_eq!(b.forward(&x, Mode::Train).dims(), &[1, 8, 4, 4]);
    }

    #[test]
    fn input_gradient_matches_finite_differences_identity() {
        let mut rng = seeded_rng(2);
        let mut b = ResidualBlock::new(2, 2, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        gradcheck::check_input_gradient_cosine(&mut b, &x, 0.98);
    }

    #[test]
    fn input_gradient_matches_finite_differences_projection() {
        let mut rng = seeded_rng(3);
        let mut b = ResidualBlock::new(2, 4, 2, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        gradcheck::check_input_gradient_cosine(&mut b, &x, 0.98);
    }

    #[test]
    fn param_lists_cover_both_branches() {
        let mut rng = seeded_rng(4);
        let mut plain = ResidualBlock::new(4, 4, 1, &mut rng);
        let mut proj = ResidualBlock::new(4, 8, 2, &mut rng);
        assert_eq!(plain.params_mut().len(), 8); // 2 convs + 2 bns, 2 params each
        assert_eq!(proj.params_mut().len(), 12);
    }
}
