//! Global average pooling.

use taamr_tensor::Tensor;

use crate::{Layer, Mode, Workspace};

/// Global average pooling: `N × C × H × W → N × C`.
///
/// This is the paper's feature layer `e`: "the output of the global average
/// pooling right after the convolutional part".
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    ws: Workspace<Work>,
}

#[derive(Debug, Default)]
struct Work {
    /// Input dims of the last forward pass (`None` before the first).
    input_dims: Option<[usize; 4]>,
    out: Tensor,
    dx: Tensor,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> &Tensor {
        assert_eq!(input.rank(), 4, "GlobalAvgPool expects NCHW input");
        let [n, c, h, w] = [input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]];
        let spatial = (h * w) as f32;
        let ws = &mut *self.ws;
        ws.out.reset_for_overwrite(&[n, c]);
        let src = input.as_slice();
        let dst = ws.out.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let plane = (ni * c + ci) * h * w;
                dst[ni * c + ci] = src[plane..plane + h * w].iter().sum::<f32>() / spatial;
            }
        }
        ws.input_dims = Some([n, c, h, w]);
        &ws.out
    }

    fn backward(&mut self, grad_output: &Tensor) -> &Tensor {
        let ws = &mut *self.ws;
        let dims = ws.input_dims.expect("backward before forward");
        let [n, c, h, w] = dims;
        assert_eq!(grad_output.dims(), &[n, c], "GlobalAvgPool gradient shape mismatch");
        let scale = 1.0 / (h * w) as f32;
        ws.dx.reset_for_overwrite(&dims);
        let gi = ws.dx.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let g = grad_output.as_slice()[ni * c + ci] * scale;
                let plane = (ni * c + ci) * h * w;
                gi[plane..plane + h * w].fill(g);
            }
        }
        &ws.dx
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
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
    fn gap_averages_planes() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0], &[1, 2, 2, 2])
            .unwrap();
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
    }

    #[test]
    fn gap_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(1);
        let mut p = GlobalAvgPool::new();
        let x = Tensor::randn(&[2, 3, 3, 3], 0.0, 1.0, &mut rng);
        gradcheck::check_input_gradient(&mut p, &x, 1e-3);
    }

    #[test]
    fn gap_backward_spreads_uniformly() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        p.forward(&x, Mode::Eval);
        let g = p.backward(&Tensor::from_vec(vec![8.0], &[1, 1]).unwrap());
        assert_eq!(g.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }
}
