//! Serial-vs-parallel throughput of the three workloads the thread pool was
//! built for: GEMM, a PGD attack batch, and CHR evaluation.
//!
//! Every workload runs twice — pinned to one thread via
//! `rayon::with_threads(1, ..)` and on the ambient pool — under names
//! `<workload>/serial` and `<workload>/parallel`; their ratio is the
//! speedup.
//! On a single-core machine the two run the *identical* code path (the
//! ambient pool resolves to one thread), so any measured "speedup" away
//! from 1× — in either direction — is pure timer noise, not a regression;
//! the ≥2× targets apply to multi-core runners. `tests/perf_kernel.rs`
//! holds the `#[ignore]`d assertion form of this contract.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use taamr_attack::{Attack, AttackGoal, Epsilon, Pgd, WhiteBoxTarget};
use taamr_metrics::category_hit_ratio_all;
use taamr_nn::{TinyResNet, TinyResNetConfig};
use taamr_tensor::{seeded_rng, Tensor};

/// Runs `f` serially (one thread) or on the ambient pool.
fn at(parallel: bool, f: impl FnOnce() -> f64) -> f64 {
    if parallel {
        f()
    } else {
        rayon::with_threads(1, f)
    }
}

fn bench_gemm(c: &mut Criterion) {
    // 256³ ≈ 16.8M multiply-adds, well past the 128Ki parallel gate.
    let a = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut seeded_rng(0));
    let b = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut seeded_rng(1));
    let mut group = c.benchmark_group("gemm_256");
    for parallel in [false, true] {
        let mode = if parallel { "parallel" } else { "serial" };
        group.bench_function(BenchmarkId::from_parameter(mode), |bench| {
            bench.iter(|| at(parallel, || a.matmul(&b).unwrap().at(&[0, 0]) as f64));
        });
    }
    group.finish();
}

fn bench_pgd_batch(c: &mut Criterion) {
    let cfg = TinyResNetConfig {
        in_channels: 3,
        base_channels: 8,
        blocks_per_stage: 1,
        stages: 2,
        num_classes: 12,
    };
    let net = TinyResNet::new(&cfg, &mut seeded_rng(2));
    let images = Tensor::rand_uniform(&[8, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(3));
    let items: Vec<u64> = (0..8).collect();
    let pgd = Pgd::new(Epsilon::from_255(8.0));
    let goal = AttackGoal::Targeted(1);
    let target = WhiteBoxTarget::new(&net);

    let mut group = c.benchmark_group("pgd10_batch8");
    for parallel in [false, true] {
        let mode = if parallel { "parallel" } else { "serial" };
        group.bench_function(BenchmarkId::from_parameter(mode), |bench| {
            bench.iter(|| {
                at(parallel, || {
                    pgd.perturb_batch(&target, &images, goal, 42, &items, 1)
                        .expect("white-box attack cannot fail")
                        .success_rate()
                })
            });
        });
    }
    group.finish();
}

fn bench_chr(c: &mut Criterion) {
    // 4096 users × top-20 lists over 2000 items in 12 categories — the shape
    // of a Medium-scale CHR evaluation, past the 256-user parallel gate.
    let num_items = 2000;
    let num_categories = 12;
    let item_categories: Vec<usize> = (0..num_items).map(|i| i % num_categories).collect();
    let lists: Vec<Vec<usize>> = (0..4096)
        .map(|u: usize| (0..20).map(|k| (u * 37 + k * 211) % num_items).collect())
        .collect();

    let mut group = c.benchmark_group("chr_4096users");
    for parallel in [false, true] {
        let mode = if parallel { "parallel" } else { "serial" };
        group.bench_function(BenchmarkId::from_parameter(mode), |bench| {
            bench.iter(|| {
                at(parallel, || {
                    category_hit_ratio_all(&lists, &item_categories, num_categories, 20)[0]
                })
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gemm, bench_pgd_batch, bench_chr
}
criterion_main!(benches);
