//! Network layers: convolution, normalisation, activation, global pooling,
//! fully-connected, residual composition.

use taamr_tensor::Tensor;

use crate::Layer;

mod batchnorm;
mod conv2d;
mod dense;
mod pool;
mod relu;
mod residual;
mod sequential;

pub use batchnorm::BatchNorm2d;
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use pool::GlobalAvgPool;
pub use relu::ReLU;
pub use residual::ResidualBlock;
pub use sequential::Sequential;

/// One layer's backward step as a container routes it to a child: either
/// [`Layer::backward`] or [`Layer::backward_input`]. Containers write their
/// wiring once, over this step.
pub(crate) type BackwardStep = for<'a> fn(&'a mut dyn Layer, &Tensor) -> &'a Tensor;

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests.

    use crate::{Layer, Mode};
    use taamr_tensor::Tensor;

    /// Checks `layer.backward` against central finite differences of a
    /// scalar loss `L = sum(forward(x) * w)` for fixed random weights `w`.
    pub fn check_input_gradient(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let y = layer.forward(x, Mode::Train);
        // Fixed pseudo-random weights so L is a generic linear functional.
        let w = Tensor::from_vec(
            (0..y.len()).map(|i| ((i * 2654435761) % 97) as f32 / 97.0 - 0.5).collect(),
            y.dims(),
        )
        .unwrap();
        let analytic = layer.backward(&w).clone();
        assert_eq!(analytic.dims(), x.dims());

        let eps = 1e-2f32;
        let mut max_err = 0.0f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = layer.forward(&xp, Mode::Train).dot(&w);
            let lm = layer.forward(&xm, Mode::Train).dot(&w);
            let numeric = (lp - lm) / (2.0 * eps);
            let err = (analytic.as_slice()[i] - numeric).abs()
                / analytic.as_slice()[i].abs().max(numeric.abs()).max(1.0);
            max_err = max_err.max(err);
        }
        assert!(max_err < tol, "max relative input-gradient error {max_err} exceeds {tol}");
    }

    /// Checks `layer.backward` against finite differences by cosine
    /// similarity over the whole gradient. Composite blocks stack several
    /// ReLU kinks, so per-element checks are noisy there; direction
    /// agreement over all inputs is the meaningful invariant.
    pub fn check_input_gradient_cosine(layer: &mut dyn Layer, x: &Tensor, min_cosine: f32) {
        // Eval mode: frozen batch-norm statistics, exactly the regime an
        // adversary differentiates through. Train-mode batch statistics over
        // tiny test batches shift under ±eps and flip downstream ReLU masks,
        // which breaks finite differences without indicating a bug.
        let y = layer.forward(x, Mode::Eval);
        let w = Tensor::from_vec(
            (0..y.len()).map(|i| ((i * 2654435761) % 97) as f32 / 97.0 - 0.5).collect(),
            y.dims(),
        )
        .unwrap();
        let analytic = layer.backward(&w).clone();
        let eps = 1e-2f32;
        let mut numeric = Tensor::zeros(x.dims());
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = layer.forward(&xp, Mode::Eval).dot(&w);
            let lm = layer.forward(&xm, Mode::Eval).dot(&w);
            numeric.as_mut_slice()[i] = (lp - lm) / (2.0 * eps);
        }
        let cosine =
            analytic.dot(&numeric) / (analytic.norm_l2() * numeric.norm_l2()).max(1e-12);
        assert!(cosine > min_cosine, "gradient cosine similarity {cosine} below {min_cosine}");
    }

    /// Checks parameter gradients of `layer` by finite differences.
    pub fn check_param_gradients(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let y = layer.forward(x, Mode::Train);
        let w = Tensor::from_vec(
            (0..y.len()).map(|i| ((i * 40503) % 89) as f32 / 89.0 - 0.5).collect(),
            y.dims(),
        )
        .unwrap();
        layer.zero_grads();
        let _ = layer.forward(x, Mode::Train);
        let _ = layer.backward(&w);
        let analytic: Vec<Tensor> = layer.params_mut().iter().map(|p| p.grad.clone()).collect();

        let eps = 1e-2f32;
        let n_params = analytic.len();
        #[allow(clippy::needless_range_loop)] // `pi` also indexes `params_mut()` below
        for pi in 0..n_params {
            for i in 0..analytic[pi].len() {
                let orig = layer.params_mut()[pi].value.as_slice()[i];
                layer.params_mut()[pi].value.as_mut_slice()[i] = orig + eps;
                let lp = layer.forward(x, Mode::Train).dot(&w);
                layer.params_mut()[pi].value.as_mut_slice()[i] = orig - eps;
                let lm = layer.forward(x, Mode::Train).dot(&w);
                layer.params_mut()[pi].value.as_mut_slice()[i] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let a = analytic[pi].as_slice()[i];
                let err = (a - numeric).abs() / a.abs().max(numeric.abs()).max(1.0);
                assert!(
                    err < tol,
                    "param {pi} element {i}: analytic {a} vs numeric {numeric} (err {err})"
                );
            }
        }
    }
}
