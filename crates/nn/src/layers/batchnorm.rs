//! 2-D batch normalisation.

use taamr_tensor::Tensor;

use crate::{Layer, Mode, Param, Workspace};

/// Per-channel batch normalisation over `N × C × H × W` inputs.
///
/// In [`Mode::Train`] the layer normalises with batch statistics and updates
/// exponential running statistics; in [`Mode::Eval`] it applies the frozen
/// running statistics, making it a per-channel affine map (which is the mode
/// adversarial attacks differentiate through).
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    channels: usize,
    ws: Workspace<Work>,
}

/// Forward cache and buffers, all rewritten in place by every pass.
#[derive(Debug, Default)]
struct Work {
    x_hat: Tensor,
    /// Per-channel statistics of the last forward: mean, variance, 1/σ.
    mean: Vec<f32>,
    var: Vec<f32>,
    inv_std: Vec<f32>,
    /// Per-channel `Σdy·x̂` and `Σdy` of the last backward (dγ, dβ).
    dgamma: Vec<f32>,
    dbeta: Vec<f32>,
    /// Mode and input dims of the last forward (`None` before the first).
    last: Option<(Mode, [usize; 4])>,
    out: Tensor,
    dx: Tensor,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channel count must be positive");
        BatchNorm2d {
            gamma: Param::new_no_decay(Tensor::ones(&[channels])),
            beta: Param::new_no_decay(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            ws: Workspace::default(),
        }
    }

    /// The running (inference-time) mean per channel.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// The running (inference-time) variance per channel.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// Shared backward. The per-channel sums `Σdy` and `Σdy·x̂` are dβ and
    /// dγ; they are formed when `accumulate_params` is set (and then added
    /// to the parameter gradients) or when train-mode `dx` needs them.
    fn backprop(&mut self, grad_output: &Tensor, accumulate_params: bool) -> &Tensor {
        let ws = &mut *self.ws;
        let (mode, [n, c, h, w]) = ws.last.expect("backward before forward");
        assert_eq!(grad_output.dims(), &[n, c, h, w], "BatchNorm2d gradient shape mismatch");
        let m = (n * h * w) as f32;
        let dy = grad_output.as_slice();
        let xh = ws.x_hat.as_slice();
        let g = self.gamma.value.as_slice();

        let (dgamma, dbeta) = (&mut ws.dgamma, &mut ws.dbeta);
        dgamma.clear();
        dgamma.resize(c, 0.0);
        dbeta.clear();
        dbeta.resize(c, 0.0);
        if accumulate_params || mode.is_train() {
            for ni in 0..n {
                for ci in 0..c {
                    let plane = (ni * c + ci) * h * w;
                    for i in plane..plane + h * w {
                        dgamma[ci] += dy[i] * xh[i];
                        dbeta[ci] += dy[i];
                    }
                }
            }
        }
        if accumulate_params {
            for ci in 0..c {
                self.gamma.grad.as_mut_slice()[ci] += dgamma[ci];
                self.beta.grad.as_mut_slice()[ci] += dbeta[ci];
            }
        }

        ws.dx.reset_for_overwrite(&[n, c, h, w]);
        let gi = ws.dx.as_mut_slice();
        if mode.is_train() {
            // dx = (γ·inv_std / M) · (M·dy − Σdy − x̂·Σ(dy·x̂))
            for ci in 0..c {
                let coeff = g[ci] * ws.inv_std[ci] / m;
                let (sum_dy, sum_dy_xh) = (dbeta[ci], dgamma[ci]);
                for ni in 0..n {
                    let plane = (ni * c + ci) * h * w;
                    for i in plane..plane + h * w {
                        gi[i] = coeff * (m * dy[i] - sum_dy - xh[i] * sum_dy_xh);
                    }
                }
            }
        } else {
            // Eval mode is a frozen affine map: dx = dy · γ · inv_std.
            for (ci, &gamma) in g.iter().enumerate().take(c) {
                let coeff = gamma * ws.inv_std[ci];
                for ni in 0..n {
                    let plane = (ni * c + ci) * h * w;
                    for i in plane..plane + h * w {
                        gi[i] = coeff * dy[i];
                    }
                }
            }
        }
        &ws.dx
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> &Tensor {
        assert_eq!(input.rank(), 4, "BatchNorm2d expects NCHW input");
        assert_eq!(input.dims()[1], self.channels, "BatchNorm2d channel mismatch");
        let [n, c, h, w] = [input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]];
        let m = (n * h * w) as f32;
        let src = input.as_slice();
        let ws = &mut *self.ws;

        let (mean, var) = (&mut ws.mean, &mut ws.var);
        mean.clear();
        var.clear();
        if mode.is_train() {
            mean.resize(c, 0.0);
            var.resize(c, 0.0);
            for (ci, mean_c) in mean.iter_mut().enumerate() {
                let mut s = 0.0;
                for ni in 0..n {
                    let plane = (ni * c + ci) * h * w;
                    s += src[plane..plane + h * w].iter().sum::<f32>();
                }
                *mean_c = s / m;
            }
            for ci in 0..c {
                let mu = mean[ci];
                let mut s = 0.0;
                for ni in 0..n {
                    let plane = (ni * c + ci) * h * w;
                    s += src[plane..plane + h * w].iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>();
                }
                var[ci] = s / m;
            }
            // Exponential running-stat update.
            for ci in 0..c {
                let rm = &mut self.running_mean.as_mut_slice()[ci];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mean[ci];
                let rv = &mut self.running_var.as_mut_slice()[ci];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * var[ci];
            }
        } else {
            mean.extend_from_slice(self.running_mean.as_slice());
            var.extend_from_slice(self.running_var.as_slice());
        }

        ws.inv_std.clear();
        ws.inv_std.extend(var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()));
        ws.x_hat.reset_for_overwrite(input.dims());
        ws.out.reset_for_overwrite(input.dims());
        {
            let xh = ws.x_hat.as_mut_slice();
            let o = ws.out.as_mut_slice();
            let g = self.gamma.value.as_slice();
            let b = self.beta.value.as_slice();
            for ni in 0..n {
                for ci in 0..c {
                    let plane = (ni * c + ci) * h * w;
                    let (mu, is, gc, bc) = (mean[ci], ws.inv_std[ci], g[ci], b[ci]);
                    for i in plane..plane + h * w {
                        let xn = (src[i] - mu) * is;
                        xh[i] = xn;
                        o[i] = gc * xn + bc;
                    }
                }
            }
        }
        ws.last = Some((mode, [n, c, h, w]));
        &ws.out
    }

    fn backward(&mut self, grad_output: &Tensor) -> &Tensor {
        self.backprop(grad_output, true)
    }

    fn backward_input(&mut self, grad_output: &Tensor) -> &Tensor {
        self.backprop(grad_output, false)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn state_tensors(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.gamma.value,
            &mut self.beta.value,
            &mut self.running_mean,
            &mut self.running_var,
        ]
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
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
    fn train_forward_normalises_batch() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = bn.forward(&x, Mode::Train);
        assert!(y.mean().abs() < 1e-5);
        let var = y.iter().map(|&v| v * v).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-3, "var {var}");
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        // Fresh layer: running mean 0, var 1 => eval is near-identity.
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5, 0.0], &[1, 1, 2, 2]).unwrap();
        let y = bn.forward(&x, Mode::Eval);
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn running_stats_track_batches() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[4, 1, 2, 2], 10.0);
        for _ in 0..200 {
            bn.forward(&x, Mode::Train);
        }
        assert!((bn.running_mean().as_slice()[0] - 10.0).abs() < 0.1);
        assert!(bn.running_var().as_slice()[0] < 0.1);
    }

    #[test]
    fn train_input_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(0);
        let mut bn = BatchNorm2d::new(2);
        // Scale/shift params away from identity for a stronger test.
        bn.params_mut()[0].value = Tensor::from_slice(&[1.5, 0.7]);
        bn.params_mut()[1].value = Tensor::from_slice(&[0.3, -0.2]);
        let x = Tensor::randn(&[2, 2, 3, 3], 0.0, 2.0, &mut rng);
        gradcheck::check_input_gradient(&mut bn, &x, 3e-2);
    }

    #[test]
    fn train_param_gradients_match_finite_differences() {
        let mut rng = seeded_rng(1);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[2, 2, 2, 2], 0.5, 1.5, &mut rng);
        gradcheck::check_param_gradients(&mut bn, &x, 3e-2);
    }

    #[test]
    fn eval_backward_is_frozen_affine() {
        let mut bn = BatchNorm2d::new(1);
        bn.params_mut()[0].value = Tensor::from_slice(&[2.0]);
        // Running stats: mean 0, var 1 => inv_std ≈ 1, so dx = 2·dy.
        let x = Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4], &[1, 1, 2, 2]).unwrap();
        bn.forward(&x, Mode::Eval);
        let g = bn.backward(&Tensor::ones(&[1, 1, 2, 2]));
        for &v in g.iter() {
            assert!((v - 2.0).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_wrong_channels() {
        BatchNorm2d::new(3).forward(&Tensor::zeros(&[1, 2, 2, 2]), Mode::Train);
    }
}
