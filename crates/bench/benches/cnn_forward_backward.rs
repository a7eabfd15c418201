//! Benchmarks of the CNN substrate: forward pass (feature extraction is the
//! pipeline's per-item cost), input-gradient pass (the attacks' inner loop,
//! an input-only backward) beside the full backward it replaced (weight
//! gradients included) on the same net and batch, and a full training step.

use criterion::{criterion_group, criterion_main, Criterion};
use taamr_nn::loss::softmax_cross_entropy;
use taamr_nn::{ImageClassifier, Mode, TinyResNet, TinyResNetConfig};
use taamr_tensor::{seeded_rng, Tensor};

fn catalog_net() -> TinyResNet {
    // The Medium-scale architecture used by the table binaries.
    let cfg = TinyResNetConfig {
        in_channels: 3,
        base_channels: 12,
        blocks_per_stage: 1,
        stages: 3,
        num_classes: 12,
    };
    TinyResNet::new(&cfg, &mut seeded_rng(0))
}

fn bench_forward(c: &mut Criterion) {
    let mut net = catalog_net();
    let x = Tensor::rand_uniform(&[8, 3, 32, 32], 0.0, 1.0, &mut seeded_rng(1));
    c.bench_function("cnn_features_batch8_32px", |b| {
        b.iter(|| std::hint::black_box(net.features(&x).len()));
    });
    c.bench_function("cnn_logits_batch8_32px", |b| {
        b.iter(|| std::hint::black_box(net.logits(&x).len()));
    });
}

fn bench_input_gradient(c: &mut Criterion) {
    // The shape the paper reproduction runs: one PGD step on one 16 px
    // image through the Tiny-scale net (base 4, two stages, 12 classes).
    let mut tiny = TinyResNet::new(&TinyResNetConfig::tiny_for_tests(12), &mut seeded_rng(4));
    let x1 = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(5));
    c.bench_function("cnn_input_grad_batch1_16px_tiny", |b| {
        b.iter(|| std::hint::black_box(tiny.loss_input_grad(&x1, &[2]).0));
    });

    let mut net = catalog_net();
    let x = Tensor::rand_uniform(&[8, 3, 32, 32], 0.0, 1.0, &mut seeded_rng(2));
    let labels = vec![1usize; 8];
    c.bench_function("cnn_input_grad_batch8_32px", |b| {
        b.iter(|| std::hint::black_box(net.loss_input_grad(&x, &labels).0));
    });
    // The same forward (eval mode) and loss, then the training backward:
    // the ratio to the row above is what skipping weight gradients saves.
    c.bench_function("cnn_full_backward_batch8_32px", |b| {
        b.iter(|| {
            let (_, logits) = net.forward_full(&x, Mode::Eval);
            let (loss, grad_logits) = softmax_cross_entropy(logits, &labels);
            net.backward_from_logits(&grad_logits);
            std::hint::black_box(loss)
        });
    });
}

fn bench_train_step(c: &mut Criterion) {
    let mut net = catalog_net();
    let x = Tensor::rand_uniform(&[16, 3, 32, 32], 0.0, 1.0, &mut seeded_rng(3));
    let labels: Vec<usize> = (0..16).map(|i| i % 12).collect();
    c.bench_function("cnn_train_step_batch16_32px", |b| {
        b.iter(|| {
            net.zero_grads();
            std::hint::black_box(net.train_backward(&x, &labels))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_forward, bench_input_gradient, bench_train_step
}
criterion_main!(benches);
