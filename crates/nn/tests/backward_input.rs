//! Differential tests of `Layer::backward_input` against `Layer::backward`.
//!
//! For every layer that owns parameters, and for the containers that route
//! to them, the input-only backward must return the same `dX` as the full
//! backward bit for bit, and must leave every `Param::grad` exactly as it
//! found it. The whole `TinyResNet` (`loss_input_grad`,
//! `feature_loss_input_grad`) is checked the same way by the unit tests in
//! `src/resnet.rs`.

use taamr_nn::{
    BatchNorm2d, Conv2d, Dense, GlobalAvgPool, Layer, Mode, ReLU, ResidualBlock, Sequential,
};
use taamr_tensor::{seeded_rng, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
    layer.params_mut().iter().map(|p| bits(&p.grad)).collect()
}

/// Fills every parameter gradient with a non-zero pattern, so "untouched"
/// cannot pass by both sides being zero.
fn seed_grads(layer: &mut dyn Layer) {
    for (k, p) in layer.params_mut().into_iter().enumerate() {
        for (i, g) in p.grad.iter_mut().enumerate() {
            *g = 0.25 + (k * 31 + i) as f32 * 1e-3;
        }
    }
}

/// Runs the same forward on two copies of `layer`, then `backward` on one
/// and `backward_input` on the other with the same upstream gradient.
fn assert_input_only_backward_matches(layer: &mut dyn Layer, x: &Tensor, mode: Mode, seed: u64) {
    let mut full = layer.boxed_clone();
    let y = layer.forward(x, mode);
    let y_full = full.forward(x, mode);
    assert_eq!(bits(y), bits(y_full), "the two copies must run the same forward");
    let gy = Tensor::randn(y.dims(), 0.0, 1.0, &mut seeded_rng(seed));

    seed_grads(full.as_mut());
    let dx_full = full.backward(&gy);

    seed_grads(layer);
    let grads_before = grad_bits(layer);
    let dx = layer.backward_input(&gy);

    assert_eq!(dx.dims(), x.dims());
    assert_eq!(bits(dx), bits(dx_full), "{}: backward_input dX != backward dX", layer.name());
    assert_eq!(grad_bits(layer), grads_before, "{}: backward_input moved a Param::grad", layer.name());
    if !grads_before.is_empty() {
        assert_ne!(
            grad_bits(full.as_mut()),
            grads_before,
            "{}: the full backward should accumulate parameter gradients",
            layer.name()
        );
    }
}

#[test]
fn conv2d_input_only_backward_is_exact() {
    let mut rng = seeded_rng(0);
    for (stride, padding) in [(1, 1), (2, 1), (1, 0)] {
        let mut conv = Conv2d::new(3, 5, 3, stride, padding, &mut rng);
        let x = Tensor::randn(&[2, 3, 9, 9], 0.0, 1.0, &mut rng);
        assert_input_only_backward_matches(&mut conv, &x, Mode::Eval, 1);
    }
}

#[test]
fn dense_input_only_backward_is_exact() {
    let mut rng = seeded_rng(2);
    let mut dense = Dense::new(7, 4, &mut rng);
    let x = Tensor::randn(&[5, 7], 0.0, 1.0, &mut rng);
    assert_input_only_backward_matches(&mut dense, &x, Mode::Eval, 3);
}

#[test]
fn batchnorm_input_only_backward_is_exact_in_both_modes() {
    let mut rng = seeded_rng(4);
    for mode in [Mode::Train, Mode::Eval] {
        let mut bn = BatchNorm2d::new(3);
        bn.params_mut()[0].value = Tensor::from_slice(&[1.5, 0.7, -0.4]);
        bn.params_mut()[1].value = Tensor::from_slice(&[0.3, -0.2, 0.1]);
        // Move the running statistics off their initial values.
        bn.forward(&Tensor::randn(&[4, 3, 5, 5], 0.5, 2.0, &mut rng), Mode::Train);
        let x = Tensor::randn(&[2, 3, 5, 5], 0.0, 1.5, &mut rng);
        assert_input_only_backward_matches(&mut bn, &x, mode, 5);
    }
}

#[test]
fn residual_block_input_only_backward_is_exact() {
    let mut rng = seeded_rng(6);
    // (in, out, stride): identity shortcut, then projection shortcut.
    for (cin, cout, stride) in [(4, 4, 1), (4, 8, 2)] {
        let mut block = ResidualBlock::new(cin, cout, stride, &mut rng);
        assert_eq!(block.has_projection(), cin != cout);
        let x = Tensor::randn(&[2, cin, 8, 8], 0.0, 1.0, &mut rng);
        for mode in [Mode::Train, Mode::Eval] {
            assert_input_only_backward_matches(&mut block, &x, mode, 7);
        }
    }
}

#[test]
fn sequential_input_only_backward_is_exact() {
    let mut rng = seeded_rng(8);
    let mut net = Sequential::new()
        .with(Conv2d::new(3, 4, 3, 1, 1, &mut rng))
        .with(BatchNorm2d::new(4))
        .with(ReLU::new())
        .with(ResidualBlock::new(4, 8, 2, &mut rng))
        .with(GlobalAvgPool::new());
    let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
    for mode in [Mode::Train, Mode::Eval] {
        assert_input_only_backward_matches(&mut net, &x, mode, 9);
    }
}
