//! Property-based tests of the CNN framework: shape laws, eval-mode purity,
//! and loss-function invariants over fuzzed architectures.

use proptest::prelude::*;
use taamr_nn::loss::{softmax, softmax_cross_entropy};
use taamr_nn::{ImageClassifier, Layer, Mode, TinyResNet, TinyResNetConfig};
use taamr_nn::{Conv2d, Dense, GlobalAvgPool, ReLU};
use taamr_tensor::{seeded_rng, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn conv_output_shape_law(
        in_ch in 1usize..4,
        out_ch in 1usize..6,
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..3,
        hw in 6usize..14,
        seed in 0u64..100
    ) {
        let padding = kernel / 2;
        let mut conv = Conv2d::new(in_ch, out_ch, kernel, stride, padding, &mut seeded_rng(seed));
        let x = Tensor::rand_uniform(&[2, in_ch, hw, hw], 0.0, 1.0, &mut seeded_rng(seed + 1));
        let y_dims = conv.forward(&x, Mode::Eval).dims().to_vec();
        let expect = (hw + 2 * padding - kernel) / stride + 1;
        prop_assert_eq!(&y_dims, &[2, out_ch, expect, expect]);
        // Backward returns the input shape.
        let g = conv.backward(&Tensor::ones(&y_dims));
        prop_assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn eval_mode_forward_is_pure(seed in 0u64..50, classes in 2usize..6) {
        // Two eval-mode passes with the same input produce identical
        // results (no hidden state mutation).
        let cfg = TinyResNetConfig::tiny_for_tests(classes);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(seed));
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(seed + 1));
        let a = net.logits(&x);
        let b = net.logits(&x);
        prop_assert_eq!(a, b);
        let fa = net.features(&x);
        let fb = net.features(&x);
        prop_assert_eq!(fa, fb);
    }

    #[test]
    fn batch_rows_are_independent_in_eval(seed in 0u64..30) {
        // Eval-mode logits of a sample must not depend on its batch peers.
        let cfg = TinyResNetConfig::tiny_for_tests(3);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(seed));
        let a = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(seed + 1));
        let b = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(seed + 2));
        let solo = net.logits(&a);
        // Stack a and b.
        let mut stacked = Tensor::zeros(&[2, 3, 16, 16]);
        stacked.as_mut_slice()[..a.len()].copy_from_slice(a.as_slice());
        stacked.as_mut_slice()[a.len()..].copy_from_slice(b.as_slice());
        let joint = net.logits(&stacked);
        for j in 0..3 {
            prop_assert!((solo.at(&[0, j]) - joint.at(&[0, j])).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_is_shift_invariant(
        logits in proptest::collection::vec(-5.0f32..5.0, 6),
        shift in -10.0f32..10.0
    ) {
        let t = Tensor::from_vec(logits.clone(), &[2, 3]).unwrap();
        let shifted = t.map(|v| v + shift);
        let a = softmax(&t);
        let b = softmax(&shifted);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_matches_softmax(
        logits in proptest::collection::vec(-5.0f32..5.0, 8),
        label in 0usize..4
    ) {
        let t = Tensor::from_vec(logits, &[2, 4]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&t, &[label, (label + 1) % 4]);
        prop_assert!(loss >= 0.0);
        prop_assert!(grad.all_finite());
        // loss == −mean log p_label.
        let p = softmax(&t);
        let expect = -(p.at(&[0, label]).ln() + p.at(&[1, (label + 1) % 4]).ln()) / 2.0;
        prop_assert!((loss - expect).abs() < 1e-4);
    }

    #[test]
    fn global_avg_pool_preserves_the_mean(hw in 2usize..9, seed in 0u64..50) {
        let x = Tensor::rand_uniform(&[1, 2, hw, hw], 0.0, 1.0, &mut seeded_rng(seed));
        let mut gap = GlobalAvgPool::new();
        let z = gap.forward(&x, Mode::Eval);
        prop_assert!((x.mean() - z.mean()).abs() < 1e-5);
    }

    #[test]
    fn relu_then_dense_gradients_are_finite(seed in 0u64..50) {
        let mut relu = ReLU::new();
        let mut dense = Dense::new(6, 4, &mut seeded_rng(seed));
        let x = Tensor::randn(&[3, 6], 0.0, 2.0, &mut seeded_rng(seed + 1));
        let h = relu.forward(&x, Mode::Train);
        let y = dense.forward(h, Mode::Train);
        let gy = Tensor::ones(y.dims());
        let gh = dense.backward(&gy);
        let gx = relu.backward(gh);
        prop_assert!(gx.all_finite());
        prop_assert_eq!(gx.dims(), x.dims());
    }
}
