//! Microbenchmarks of the tensor substrate: SGEMM, im2col and col2im, the
//! kernels every CNN forward/backward pass is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use taamr_tensor::{
    col2im_into, gemm, im2col, seeded_rng, Conv2dGeometry, Tensor, Transpose,
};

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &n in &[32usize, 64, 128] {
        let mut rng = seeded_rng(0);
        let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        let mut out = Tensor::zeros(&[n, n]);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut out).unwrap();
                std::hint::black_box(out.as_slice()[0])
            });
        });
    }
    group.finish();
}

fn bench_gemm_transposed(c: &mut Criterion) {
    let n = 64usize;
    let mut rng = seeded_rng(1);
    let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
    let mut out = Tensor::zeros(&[n, n]);
    c.bench_function("gemm_64_bt", |bench| {
        bench.iter(|| {
            gemm(1.0, &a, Transpose::No, &b, Transpose::Yes, 0.0, &mut out).unwrap();
            std::hint::black_box(out.as_slice()[0])
        });
    });
}

fn bench_gemm_conv_shaped(c: &mut Criterion) {
    // The shape conv lowering actually produces at tiny scale: a short-wide
    // product of an `OC × C·KH·KW` weight against an im2col matrix. Packing
    // pays off differently here than on cubes, so it gets its own number.
    let mut rng = seeded_rng(4);
    let w = Tensor::rand_uniform(&[16, 144], -1.0, 1.0, &mut rng);
    let cols = Tensor::rand_uniform(&[144, 4096], -1.0, 1.0, &mut rng);
    let mut out = Tensor::zeros(&[16, 4096]);
    c.bench_function("gemm_conv_16x144x4096", |bench| {
        bench.iter(|| {
            gemm(1.0, &w, Transpose::No, &cols, Transpose::No, 0.0, &mut out).unwrap();
            std::hint::black_box(out.as_slice()[0])
        });
    });
}

fn bench_im2col(c: &mut Criterion) {
    let mut rng = seeded_rng(2);
    let input = Tensor::rand_uniform(&[8, 16, 32, 32], 0.0, 1.0, &mut rng);
    let geom = Conv2dGeometry::new(3, 3, 1, 1);
    c.bench_function("im2col_8x16x32x32_k3", |bench| {
        bench.iter(|| std::hint::black_box(im2col(&input, &geom).unwrap().len()));
    });
}

fn bench_col2im(c: &mut Criterion) {
    // The input-gradient scatter of the Tiny net's stage-1 3×3 convs at
    // batch 1 — the shape a PGD step runs.
    let dims = [1usize, 4, 16, 16];
    let geom = Conv2dGeometry::new(3, 3, 1, 1);
    let cols = Tensor::rand_uniform(&[4 * 9, 16 * 16], -1.0, 1.0, &mut seeded_rng(5));
    let mut out = Tensor::zeros(&[0]);
    c.bench_function("col2im_4x16x16_k3", |bench| {
        bench.iter(|| {
            col2im_into(&cols, &dims, &geom, &mut out).unwrap();
            std::hint::black_box(out.as_slice()[0])
        });
    });
}

fn bench_elementwise(c: &mut Criterion) {
    let mut rng = seeded_rng(3);
    let a = Tensor::rand_uniform(&[65536], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[65536], -1.0, 1.0, &mut rng);
    c.bench_function("axpy_64k", |bench| {
        bench.iter(|| {
            let mut x = a.clone();
            x.axpy(0.5, &b);
            std::hint::black_box(x.as_slice()[0])
        });
    });
    c.bench_function("signum_64k", |bench| {
        bench.iter(|| std::hint::black_box(a.signum().as_slice()[0]));
    });
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemm_transposed,
    bench_gemm_conv_shaped,
    bench_im2col,
    bench_col2im,
    bench_elementwise
);
criterion_main!(benches);
