//! Fully-connected layer.

use rand::Rng;
use taamr_tensor::{gemm, Tensor, Transpose};

use crate::{Layer, Mode, Param, Workspace};

/// A fully-connected layer: `y = x · Wᵀ + b` over `N × in` batches.
///
/// Weights are stored `out × in` and Xavier-initialised.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    ws: Workspace<Work>,
}

#[derive(Debug, Default)]
struct Work {
    /// Copy of the last forward's input (`dW = dYᵀ · X` reads it).
    input: Tensor,
    ready: bool,
    out: Tensor,
    dx: Tensor,
}

impl Dense {
    /// Creates a dense layer mapping `in_features` to `out_features`.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        assert!(in_features > 0 && out_features > 0, "feature counts must be positive");
        let weight = Param::new(Tensor::xavier_uniform(
            &[out_features, in_features],
            in_features,
            out_features,
            rng,
        ));
        let bias = Param::new_no_decay(Tensor::zeros(&[out_features]));
        Dense { weight, bias, in_features, out_features, ws: Workspace::default() }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Shared backward: `dX = dY · W`, plus `dW += dYᵀ · X` and `db +=`
    /// column sums of `dY` when `accumulate_params` is set. The input
    /// gradient does not depend on the flag.
    fn backprop(&mut self, grad_output: &Tensor, accumulate_params: bool) -> &Tensor {
        let ws = &mut *self.ws;
        assert!(ws.ready, "backward before forward");
        let input = &ws.input;
        if accumulate_params {
            // dW += dYᵀ · X
            gemm(1.0, grad_output, Transpose::Yes, input, Transpose::No, 1.0, &mut self.weight.grad)
                .expect("dense weight-grad gemm");
            // db += column sums of dY
            let col_sums = grad_output.sum_axis0().expect("grad_output is a matrix");
            self.bias.grad.axpy(1.0, &col_sums);
        }
        // dX = dY · W; the beta = 0 GEMM overwrites dx.
        ws.dx.reset_for_overwrite(input.dims());
        gemm(
            1.0,
            grad_output,
            Transpose::No,
            &self.weight.value,
            Transpose::No,
            0.0,
            &mut ws.dx,
        )
        .expect("dense input-grad gemm");
        &ws.dx
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> &Tensor {
        assert_eq!(input.rank(), 2, "Dense expects a [batch, features] input");
        assert_eq!(input.dims()[1], self.in_features, "Dense feature mismatch");
        let n = input.dims()[0];
        let ws = &mut *self.ws;
        // The beta = 0 GEMM overwrites out.
        ws.out.reset_for_overwrite(&[n, self.out_features]);
        gemm(1.0, input, Transpose::No, &self.weight.value, Transpose::Yes, 0.0, &mut ws.out)
            .expect("dense gemm shapes validated");
        let b = self.bias.value.as_slice();
        for row in ws.out.as_mut_slice().chunks_exact_mut(self.out_features) {
            for (v, &bj) in row.iter_mut().zip(b) {
                *v += bj;
            }
        }
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
        "Dense"
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
    fn forward_matches_manual_affine() {
        let mut rng = seeded_rng(0);
        let mut d = Dense::new(2, 3, &mut rng);
        d.params_mut()[0].value =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        d.params_mut()[1].value = Tensor::from_slice(&[0.5, -0.5, 1.0]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = d.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[3.5, 6.5, 12.0]);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(1);
        let mut d = Dense::new(5, 4, &mut rng);
        let x = Tensor::randn(&[3, 5], 0.0, 1.0, &mut rng);
        gradcheck::check_input_gradient(&mut d, &x, 1e-2);
    }

    #[test]
    fn param_gradients_match_finite_differences() {
        let mut rng = seeded_rng(2);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], 0.0, 1.0, &mut rng);
        gradcheck::check_param_gradients(&mut d, &x, 1e-2);
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn rejects_wrong_width() {
        let mut rng = seeded_rng(3);
        let mut d = Dense::new(4, 3, &mut rng);
        d.forward(&Tensor::zeros(&[1, 5]), Mode::Train);
    }

    #[test]
    fn param_count() {
        let mut rng = seeded_rng(4);
        let mut d = Dense::new(10, 7, &mut rng);
        assert_eq!(d.param_count(), 77);
    }
}
