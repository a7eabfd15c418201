//! GEMM-based 2-D convolution.

use rand::Rng;
use taamr_tensor::{
    col2im_into, gemm, im2col_into, with_conv_scratch, Conv2dGeometry, Tensor, Transpose,
};

use crate::{Layer, Mode, Param, Workspace};

/// A 2-D convolution layer over `N × C × H × W` inputs.
///
/// The convolution is lowered to a matrix product via `im2col`. Weights are
/// stored as an `OC × (C·KH·KW)` matrix plus an `OC` bias vector and are
/// He-initialised.
///
/// The lowering path is allocation-free in steady state: a copy of the
/// input, the output and the input gradient live in the layer's workspace
/// and are rebuilt in place each pass, and the lowering and the transient
/// matrices (GEMM output, permuted gradient, column gradient) live in the
/// calling thread's reusable [`taamr_tensor::ConvScratch`], so repeated
/// passes over same-shaped batches — a training epoch, PGD's ten gradient
/// steps — stop touching the allocator entirely.
///
/// The layer keeps its input rather than its `im2col` lowering, which is
/// `KH·KW` times larger: the input gradient needs only the input's shape,
/// and the weight gradient re-lowers the kept input (bit for bit the
/// forward's lowering) in the scratch.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    geom: Conv2dGeometry,
    in_channels: usize,
    out_channels: usize,
    ws: Workspace<Work>,
}

#[derive(Debug, Default)]
struct Work {
    /// Copy of the last forward's input.
    input: Tensor,
    ready: bool,
    out: Tensor,
    dx: Tensor,
}

impl Conv2d {
    /// Creates a convolution with a square `kernel × kernel` filter.
    ///
    /// # Panics
    ///
    /// Panics if `in_channels`, `out_channels`, `kernel`, or `stride` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0, "channel counts must be positive");
        let geom = Conv2dGeometry::new(kernel, kernel, stride, padding);
        let fan_in = in_channels * kernel * kernel;
        let weight = Param::new(Tensor::he_normal(&[out_channels, fan_in], fan_in, rng));
        let bias = Param::new_no_decay(Tensor::zeros(&[out_channels]));
        Conv2d { weight, bias, geom, in_channels, out_channels, ws: Workspace::default() }
    }

    /// The convolution geometry (kernel, stride, padding).
    pub fn geometry(&self) -> Conv2dGeometry {
        self.geom
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Permutes a `[OC, N·OH·OW]` GEMM output into the NCHW buffer `out`,
    /// adding each channel's non-zero bias on the way.
    fn to_nchw_into(mat: &Tensor, bias: &[f32], dims: [usize; 4], out: &mut Tensor) {
        let [n, oc, oh, ow] = dims;
        out.reset_for_overwrite(&dims);
        let src = mat.as_slice();
        let dst = out.as_mut_slice();
        let spatial = oh * ow;
        for (o, &b) in bias.iter().enumerate().take(oc) {
            let row = &src[o * n * spatial..(o + 1) * n * spatial];
            for ni in 0..n {
                let dst_base = (ni * oc + o) * spatial;
                let from = &row[ni * spatial..(ni + 1) * spatial];
                let to = &mut dst[dst_base..dst_base + spatial];
                if b != 0.0 {
                    for (d, &v) in to.iter_mut().zip(from) {
                        *d = v + b;
                    }
                } else {
                    to.copy_from_slice(from);
                }
            }
        }
    }

    /// Inverse of [`Conv2d::to_nchw_into`] (without the bias): permutes an
    /// NCHW tensor into a reusable `[OC, N·OH·OW]` matrix.
    fn from_nchw_into(t: &Tensor, out: &mut Tensor) {
        let [n, oc, oh, ow] = [t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]];
        out.reset_for_overwrite(&[oc, n * oh * ow]);
        let src = t.as_slice();
        let dst = out.as_mut_slice();
        let spatial = oh * ow;
        for o in 0..oc {
            let row = &mut dst[o * n * spatial..(o + 1) * n * spatial];
            for ni in 0..n {
                let src_base = (ni * oc + o) * spatial;
                row[ni * spatial..(ni + 1) * spatial]
                    .copy_from_slice(&src[src_base..src_base + spatial]);
            }
        }
    }

    /// Shared backward: `dX = col2im(Wᵀ · dY)`, plus `dW += dY · colsᵀ` and
    /// `db += row sums of dY` when `accumulate_params` is set. The input
    /// gradient does not depend on the flag.
    fn backprop(&mut self, grad_output: &Tensor, accumulate_params: bool) -> &Tensor {
        let ws = &mut *self.ws;
        assert!(ws.ready, "backward before forward");
        let input = &ws.input;
        let dims = [input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]];
        let dx = &mut ws.dx;
        with_conv_scratch(|scratch| {
            Self::from_nchw_into(grad_output, &mut scratch.grad_mat);
            let grad_mat = &scratch.grad_mat;

            if accumulate_params {
                // dW += dY · colsᵀ, over the forward's lowering rebuilt.
                let cols = &mut scratch.cols;
                im2col_into(input, &self.geom, cols).expect("im2col on validated input");
                gemm(1.0, grad_mat, Transpose::No, cols, Transpose::Yes, 1.0, &mut self.weight.grad)
                    .expect("conv weight-grad gemm");
                // db += row sums of dY
                let row_len = grad_mat.dims()[1];
                let g = grad_mat.as_slice();
                for o in 0..self.out_channels {
                    self.bias.grad.as_mut_slice()[o] +=
                        g[o * row_len..(o + 1) * row_len].iter().sum::<f32>();
                }
            }
            // dX = col2im(Wᵀ · dY); the beta = 0 GEMM overwrites grad_cols.
            let grad_cols = &mut scratch.grad_cols;
            grad_cols.reset_for_overwrite(&[self.weight.value.dims()[1], grad_mat.dims()[1]]);
            gemm(
                1.0,
                &self.weight.value,
                Transpose::Yes,
                grad_mat,
                Transpose::No,
                0.0,
                grad_cols,
            )
            .expect("conv input-grad gemm");
            col2im_into(grad_cols, &dims, &self.geom, dx).expect("col2im on validated shapes");
        });
        &ws.dx
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> &Tensor {
        assert_eq!(input.rank(), 4, "Conv2d expects NCHW input");
        assert_eq!(input.dims()[1], self.in_channels, "Conv2d channel mismatch");
        let [n, _, h, w] = [input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]];
        let (oh, ow) = self.geom.output_hw(h, w);
        let ws = &mut *self.ws;

        with_conv_scratch(|scratch| {
            let cols = &mut scratch.cols;
            im2col_into(input, &self.geom, cols).expect("im2col on validated input");
            // The beta = 0 GEMM overwrites out_mat.
            let out_mat = &mut scratch.out_mat;
            out_mat.reset_for_overwrite(&[self.out_channels, n * oh * ow]);
            gemm(1.0, &self.weight.value, Transpose::No, cols, Transpose::No, 0.0, out_mat)
                .expect("conv gemm shapes are consistent by construction");
            let dims = [n, self.out_channels, oh, ow];
            Self::to_nchw_into(out_mat, self.bias.value.as_slice(), dims, &mut ws.out);
        });
        ws.input.reset_to_copy(input.dims(), input.as_slice());
        ws.ready = true;
        &ws.out
    }

    fn backward(&mut self, grad_output: &Tensor) -> &Tensor {
        self.backprop(grad_output, true)
    }

    fn backward_input(&mut self, grad_output: &Tensor) -> &Tensor {
        self.backprop(grad_output, false)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "Conv2d"
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
    fn forward_shape() {
        let mut rng = seeded_rng(0);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn bias_shifts_every_output() {
        let mut rng = seeded_rng(1);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        let x = Tensor::zeros(&[1, 1, 3, 3]);
        let y0 = conv.forward(&x, Mode::Train);
        assert!(y0.iter().all(|&v| v == 0.0));
        conv.params_mut()[1].value = Tensor::from_slice(&[1.5, -0.5]);
        let y1 = conv.forward(&x, Mode::Train);
        for i in 0..9 {
            assert_eq!(y1.as_slice()[i], 1.5);
            assert_eq!(y1.as_slice()[9 + i], -0.5);
        }
    }

    #[test]
    fn nchw_permutation_round_trips() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let mut mat = Tensor::default();
        Conv2d::from_nchw_into(&t, &mut mat);
        let mut back = Tensor::default();
        Conv2d::to_nchw_into(&mat, &[0.0; 3], [2, 3, 2, 2], &mut back);
        assert_eq!(back, t);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(2);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        gradcheck::check_input_gradient(&mut conv, &x, 2e-2);
    }

    #[test]
    fn param_gradients_match_finite_differences() {
        let mut rng = seeded_rng(3);
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 4, 4], 0.0, 1.0, &mut rng);
        gradcheck::check_param_gradients(&mut conv, &x, 2e-2);
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = seeded_rng(4);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = Tensor::ones(&[1, 1, 2, 2]);
        conv.forward(&x, Mode::Train);
        conv.backward(&g);
        let g1 = conv.params_mut()[0].grad.as_slice()[0];
        conv.forward(&x, Mode::Train);
        conv.backward(&g);
        let g2 = conv.params_mut()[0].grad.as_slice()[0];
        assert!((g2 - 2.0 * g1).abs() < 1e-5);
        conv.zero_grads();
        assert_eq!(conv.params_mut()[0].grad.as_slice()[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_wrong_channel_count() {
        let mut rng = seeded_rng(5);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        conv.forward(&Tensor::zeros(&[1, 2, 8, 8]), Mode::Train);
    }

    #[test]
    fn param_count_is_weights_plus_bias() {
        let mut rng = seeded_rng(6);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        assert_eq!(conv.param_count(), 8 * 3 * 9 + 8);
    }
}
