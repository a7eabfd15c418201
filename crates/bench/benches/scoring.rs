//! Scoring-engine benchmarks: full-catalog evaluation through the GEMM-backed
//! [`taamr_recsys::ScoringEngine`] versus the scalar per-(user,item) path.
//!
//! All engine measurements pin the pool to one thread so the reported
//! speedups isolate the *algorithmic* win (cached `V = F·E` embeddings plus
//! cache-blocked GEMM) from thread-level parallelism; results are bitwise
//! identical between the paths, so the comparison is exact like-for-like.
//! Each workload runs as a `<workload>/pointwise` vs `<workload>/engine`
//! pair; their ratio is the engine's speedup. The `select/*` rows time
//! top-K selection alone on one `catalog_sweep`-shaped row: K = 100, the
//! whole catalog, and K = 100 of a row in ascending order; and on one
//! `recommend_churn`-shaped row, K = 20 of 10 000 items. The
//! `gather/one_user_of_10000` and `score_block/<SCORE_BLOCK_USERS>_users_of_20000`
//! rows time the engine's two scoring calls alone at the serving shapes
//! (VBPR, feature and factor dims 16): a `recommend_churn` cache miss and
//! one user block of a `catalog_sweep`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use taamr_data::{SyntheticConfig, SyntheticDataset};
use taamr_recsys::{
    top_n_with, Recommender, ScoreBlock, ScoringEngine, SelectionScratch, Vbpr, VbprConfig,
    VisualRecommender, SCORE_BLOCK_USERS,
};

fn dataset() -> SyntheticDataset {
    let mut cfg = SyntheticConfig::amazon_men_like();
    cfg.num_users = 200;
    cfg.num_items = 600;
    SyntheticDataset::generate(&cfg)
}

fn fake_features(num_items: usize, d: usize) -> Vec<f32> {
    (0..num_items * d).map(|i| ((i * 37 % 101) as f32 / 101.0) - 0.5).collect()
}

fn model(data: &SyntheticDataset) -> Vbpr {
    let d = 48;
    let mut rng = StdRng::seed_from_u64(3);
    Vbpr::new(
        data.dataset.num_users(),
        data.dataset.num_items(),
        d,
        fake_features(data.dataset.num_items(), d),
        VbprConfig::default(),
        &mut rng,
    )
}

/// Scores every (user, item) pair, returning a checksum so the work cannot
/// be optimised away.
fn score_catalog_pointwise(model: &Vbpr) -> f32 {
    let (nu, ni) = (model.num_users(), model.num_items());
    let mut acc = 0.0f32;
    for u in 0..nu {
        for i in 0..ni {
            acc += model.score(u, i);
        }
    }
    acc
}

fn bench_score_catalog(c: &mut Criterion) {
    let data = dataset();
    let m = model(&data);
    let nu = m.num_users();

    c.bench_function("score_catalog/pointwise", |b| {
        rayon::with_threads(1, || {
            b.iter(|| std::hint::black_box(score_catalog_pointwise(&m)));
        });
    });
    c.bench_function("score_catalog/engine", |b| {
        rayon::with_threads(1, || {
            let engine = ScoringEngine::for_model(&m);
            let mut block = ScoreBlock::new();
            b.iter(|| {
                let mut acc = 0.0f32;
                let mut start = 0;
                while start < nu {
                    let end = (start + SCORE_BLOCK_USERS).min(nu);
                    engine.score_block(&m, start..end, &mut block).unwrap();
                    for (_, row) in block.rows() {
                        acc += row.iter().sum::<f32>();
                    }
                    start = end;
                }
                std::hint::black_box(acc)
            });
        });
    });
}

fn bench_top_n(c: &mut Criterion) {
    let data = dataset();
    let m = model(&data);
    let nu = m.num_users();

    c.bench_function("top100_all_users/pointwise", |b| {
        rayon::with_threads(1, || {
            b.iter(|| {
                let total: usize = (0..nu)
                    .map(|u| m.top_n(u, 100, data.dataset.user_items(u)).len())
                    .sum();
                std::hint::black_box(total)
            });
        });
    });
    c.bench_function("top100_all_users/engine", |b| {
        rayon::with_threads(1, || {
            let engine = ScoringEngine::for_model(&m);
            b.iter(|| {
                let lists =
                    engine.par_top_n_all(&m, 100, |u| data.dataset.user_items(u)).unwrap();
                std::hint::black_box(lists.len())
            });
        });
    });
}

fn bench_select(c: &mut Criterion) {
    // One VBPR score row over the `catalog_sweep` catalog (20 000 items)
    // with a user's handful of sorted seen items excluded.
    let (ni, d) = (20_000, 48);
    let mut rng = StdRng::seed_from_u64(5);
    let m = Vbpr::new(2, ni, d, fake_features(ni, d), VbprConfig::default(), &mut rng);
    let row = m.score_all(0);
    let seen = [17, 2_311, 4_096, 9_999, 15_000, 19_998];
    let mut scratch = SelectionScratch::new();
    c.bench_function("select/top100_of_20000", |b| {
        b.iter(|| std::hint::black_box(top_n_with(&row, 100, &seen, &mut scratch)));
    });
    // The whole catalog: `n` at least the number of candidates.
    c.bench_function("select/top20000_of_20000", |b| {
        b.iter(|| std::hint::black_box(top_n_with(&row, 20_000, &seen, &mut scratch)));
    });
    // Scores in ascending order: every score beats the ones before it.
    let ascending: Vec<f32> = (0..ni).map(|i| i as f32).collect();
    c.bench_function("select/top100_of_20000_ascending", |b| {
        b.iter(|| std::hint::black_box(top_n_with(&ascending, 100, &seen, &mut scratch)));
    });
    // A `recommend_churn` miss: the top 20 of one serving-shaped row.
    let row = serving_model(2, 10_000).score_all(0);
    c.bench_function("select/top20_of_10000", |b| {
        b.iter(|| std::hint::black_box(top_n_with(&row, 20, &seen[..4], &mut scratch)));
    });
}

/// A VBPR model of the serving workloads' shape: feature dim 16 and the
/// default 16 + 16 factors.
fn serving_model(users: usize, items: usize) -> Vbpr {
    let d = 16;
    let mut rng = StdRng::seed_from_u64(7);
    Vbpr::new(users, items, d, fake_features(items, d), VbprConfig::default(), &mut rng)
}

fn bench_serving_shapes(c: &mut Criterion) {
    let m = serving_model(2_000, 10_000);
    c.bench_function("gather/one_user_of_10000", |b| {
        rayon::with_threads(1, || {
            let engine = ScoringEngine::for_model(&m);
            let mut block = ScoreBlock::new();
            let mut user = 0;
            b.iter(|| {
                user = (user + 7) % m.num_users();
                engine.score_gather(&m, &[user], &mut block).unwrap();
                std::hint::black_box(block.row(0)[0])
            });
        });
    });
    let m = serving_model(2_048, 20_000);
    c.bench_function(&format!("score_block/{SCORE_BLOCK_USERS}_users_of_20000"), |b| {
        rayon::with_threads(1, || {
            let engine = ScoringEngine::for_model(&m);
            let mut block = ScoreBlock::new();
            let mut start = 0;
            b.iter(|| {
                start = (start + SCORE_BLOCK_USERS) % m.num_users();
                engine.score_block(&m, start..start + SCORE_BLOCK_USERS, &mut block).unwrap();
                std::hint::black_box(block.row(start)[0])
            });
        });
    });
}

fn bench_cache_rebuild(c: &mut Criterion) {
    let data = dataset();
    let mut m = model(&data);
    let d = m.feature_dim();
    let feature = vec![0.125f32; d];

    // Cost of one full item-embedding cache rebuild (the `V = F·E` and
    // `b_vis = F·β` GEMMs), as triggered by any model mutation.
    c.bench_function("embed_cache/rebuild", |b| {
        rayon::with_threads(1, || {
            let mut engine = ScoringEngine::new();
            b.iter(|| {
                m.set_item_feature(0, &feature); // bump the version
                std::hint::black_box(engine.ensure(&m))
            });
        });
    });
    // Cache-hit cost for contrast: a version comparison.
    c.bench_function("embed_cache/hit", |b| {
        rayon::with_threads(1, || {
            let mut engine = ScoringEngine::new();
            engine.ensure(&m);
            b.iter(|| std::hint::black_box(engine.ensure(&m)));
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_score_catalog, bench_top_n, bench_select, bench_serving_shapes, bench_cache_rebuild
}
criterion_main!(benches);
