//! Differential tests of the GEMM-backed scoring engine.
//!
//! The engine's contract is *bitwise* agreement with the scalar scoring
//! path: for every model family, `ScoringEngine::score_block` must
//! reproduce `Recommender::score(u, i)` / `score_all(u)` bit-for-bit at
//! every thread count, and the derived top-N / rank paths must match the
//! trait entry points exactly. These tests drive that contract over random
//! shapes and seeds, plus the cache-invalidation rules (feature swaps and
//! training epochs must rebuild; stale reads must be impossible).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use taamr_data::{ImplicitDataset, Triplet, TripletSampler};
use taamr_recsys::{
    Amr, AmrConfig, BprMf, PairwiseConfig, PairwiseModel, PairwiseTrainer, Popularity,
    Recommender, ScoreBlock, ScoringEngine, StaleEngine, Vbpr, VbprConfig, VisualRecommender,
    SCORE_BLOCK_USERS,
};

/// A small dataset whose item count we can vary.
fn dataset(num_users: usize, num_items: usize) -> ImplicitDataset {
    let users: Vec<Vec<usize>> = (0..num_users)
        .map(|u| vec![u % num_items, (u * 3 + 1) % num_items])
        .collect();
    ImplicitDataset::new(users, vec![0; num_items], 1)
}

fn vbpr(num_users: usize, num_items: usize, seed: u64) -> Vbpr {
    let d = 6;
    let features: Vec<f32> = (0..num_items * d).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Vbpr::new(
        num_users,
        num_items,
        d,
        features,
        VbprConfig { factors: 5, visual_factors: 3, reg: 1e-4 },
        &mut rng,
    );
    // A few SGD steps so biases and β are non-zero.
    let data = dataset(num_users, num_items);
    let sampler = TripletSampler::new(&data);
    for _ in 0..30 {
        model.sgd_step(&sampler.sample(&mut rng), 0.05);
    }
    model
}

/// Asserts bitwise equality between the batched engine and the scalar trait
/// path for one model, across thread counts and odd block boundaries.
fn assert_engine_matches_scalar<M: Recommender>(model: &M) {
    let engine = ScoringEngine::for_model(model);
    let nu = model.num_users();

    // Scalar references: pointwise score and score_all agree first.
    let reference: Vec<Vec<f32>> = (0..nu).map(|u| model.score_all(u)).collect();
    for (u, row) in reference.iter().enumerate() {
        for (i, &s) in row.iter().enumerate() {
            assert_eq!(s.to_bits(), model.score(u, i).to_bits(), "score_all vs score ({u},{i})");
        }
    }

    // Batched blocks, including ragged ones, at several thread counts.
    let mut block = ScoreBlock::new();
    for threads in [1usize, 2, 8] {
        rayon::with_threads(threads, || {
            for start in [0, 1, nu / 2] {
                for len in [1, 3, nu - start] {
                    let end = (start + len).min(nu);
                    engine.score_block(model, start..end, &mut block).unwrap();
                    for (u, row) in block.rows() {
                        for (i, &s) in row.iter().enumerate() {
                            assert_eq!(
                                s.to_bits(),
                                reference[u][i].to_bits(),
                                "engine vs scalar ({u},{i}) at {threads} threads"
                            );
                        }
                    }
                }
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_is_bitwise_identical_for_every_model_family(
        seed in 0u64..1000,
        num_users in 3usize..20,
        num_items in 4usize..40,
    ) {
        let data = dataset(num_users, num_items);

        let v = vbpr(num_users, num_items, seed);
        assert_engine_matches_scalar(&v);

        let a = Amr::from_vbpr(v, AmrConfig::default());
        assert_engine_matches_scalar(&a);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xb5);
        let b = BprMf::new(num_users, num_items, 4, &mut rng);
        assert_engine_matches_scalar(&b);

        let p = Popularity::from_dataset(&data);
        assert_engine_matches_scalar(&p);
    }

    #[test]
    fn engine_top_n_and_ranks_match_trait_paths(
        seed in 0u64..1000,
        num_users in 3usize..16,
        num_items in 6usize..30,
        n in 1usize..6,
    ) {
        let data = dataset(num_users, num_items);
        let model = vbpr(num_users, num_items, seed);
        let engine = ScoringEngine::for_model(&model);
        let serial_lists: Vec<Vec<usize>> =
            (0..num_users).map(|u| model.top_n(u, n, data.user_items(u))).collect();
        let serial_ranks: Vec<Option<usize>> = (0..num_users)
            .map(|u| taamr_recsys::item_rank(&model.score_all(u), 2, data.user_items(u)))
            .collect();
        for threads in [1usize, 2, 8] {
            let (lists, ranks) = rayon::with_threads(threads, || {
                (
                    engine.par_top_n_all(&model, n, |u| data.user_items(u)).unwrap(),
                    engine.par_item_ranks(&model, 2, |u| data.user_items(u)).unwrap(),
                )
            });
            assert_eq!(&lists, &serial_lists, "top-n at {threads} threads");
            assert_eq!(&ranks, &serial_ranks, "ranks at {threads} threads");
        }
    }
}

#[test]
fn engine_spans_multiple_user_blocks() {
    // More users than SCORE_BLOCK_USERS so par_top_n_all exercises several
    // blocks (and block boundaries) per call.
    let nu = SCORE_BLOCK_USERS + 17;
    let ni = 25;
    let data = dataset(nu, ni);
    let model = vbpr(nu, ni, 11);
    let engine = ScoringEngine::for_model(&model);
    let serial: Vec<Vec<usize>> =
        (0..nu).map(|u| model.top_n(u, 5, data.user_items(u))).collect();
    for threads in [1usize, 2, 8] {
        let lists = rayon::with_threads(threads, || {
            engine.par_top_n_all(&model, 5, |u| data.user_items(u)).unwrap()
        });
        assert_eq!(lists, serial, "thread count {threads}");
    }
}

#[test]
fn feature_swap_invalidates_the_cache() {
    let mut model = vbpr(8, 20, 3);
    let mut engine = ScoringEngine::new();
    assert!(engine.ensure(&model), "first ensure builds the cache");
    assert!(!engine.ensure(&model), "fresh model is a cache hit");

    let before = model.score_all(0);
    let new_feature = vec![0.25f32; model.feature_dim()];
    model.set_item_feature(4, &new_feature);
    assert!(!engine.is_fresh(&model), "feature swap must invalidate");
    assert!(engine.ensure(&model), "ensure rebuilds after the swap");

    // The rebuilt cache serves the *new* scores, bitwise.
    let mut block = ScoreBlock::new();
    engine.score_block(&model, 0..model.num_users(), &mut block).unwrap();
    let after = model.score_all(0);
    assert_ne!(
        before[4].to_bits(),
        after[4].to_bits(),
        "swap should change the swapped item's score"
    );
    for (u, row) in block.rows() {
        let scalar = model.score_all(u);
        for (i, &s) in row.iter().enumerate() {
            assert_eq!(s.to_bits(), scalar[i].to_bits(), "({u},{i}) after swap");
        }
    }
}

#[test]
fn training_epoch_invalidates_the_cache() {
    let data = dataset(8, 20);
    let mut model = vbpr(8, 20, 7);
    let mut engine = ScoringEngine::new();
    engine.ensure(&model);

    let trainer = PairwiseTrainer::new(PairwiseConfig {
        epochs: 1,
        triplets_per_epoch: Some(10),
        lr: 0.05,
    });
    let mut rng = StdRng::seed_from_u64(1);
    trainer.fit(&mut model, &data, &mut rng).unwrap();
    assert!(!engine.is_fresh(&model), "a training epoch must invalidate");
    assert!(engine.ensure(&model));
    let mut block = ScoreBlock::new();
    engine.score_block(&model, 0..8, &mut block).unwrap();
    for (u, row) in block.rows() {
        let scalar = model.score_all(u);
        for (i, &s) in row.iter().enumerate() {
            assert_eq!(s.to_bits(), scalar[i].to_bits(), "({u},{i}) after training");
        }
    }
}

#[test]
fn stale_engine_cannot_serve_scores() {
    // A feature swap after ensure() surfaces as a typed StaleEngine error —
    // the refresh signal a serving actor turns into ensure()-and-retry —
    // never as silently stale scores (and, since PR 7, never as a panic).
    let mut model = vbpr(4, 10, 5);
    let mut engine = ScoringEngine::for_model(&model);
    let built_at = model.scoring_version();
    model.set_item_feature(0, &vec![1.0; model.feature_dim()]);
    let mut block = ScoreBlock::new();
    let err = engine.score_block(&model, 0..4, &mut block).unwrap_err();
    assert_eq!(err, StaleEngine { cached: Some(built_at), live: model.scoring_version() });
    assert!(engine.par_top_n_all(&model, 3, |_| &[][..]).is_err());
    assert!(engine.par_item_ranks(&model, 0, |_| &[][..]).is_err());
    // Refresh-and-retry: after ensure() the same calls serve fresh scores.
    assert!(engine.ensure(&model), "stale engine rebuilds");
    engine.score_block(&model, 0..4, &mut block).unwrap();
    for (u, row) in block.rows() {
        for (i, &sc) in row.iter().enumerate() {
            assert_eq!(sc.to_bits(), model.score(u, i).to_bits(), "({u},{i})");
        }
    }
}

#[test]
fn zero_item_catalog_yields_empty_lists_without_panicking() {
    // A 5-core-filtered dataset can never be empty in production, but the
    // engine API accepts any Recommender — an empty catalog must degrade
    // to empty lists, not assert somewhere inside the GEMM plan.
    let data = ImplicitDataset::new(vec![Vec::new(); 5], Vec::new(), 0);
    assert_eq!(data.num_items(), 0);
    let model = Popularity::from_dataset(&data);
    let engine = ScoringEngine::for_model(&model);
    for threads in [1usize, 2, 8] {
        let lists = rayon::with_threads(threads, || {
            engine.par_top_n_all(&model, 3, |u| data.user_items(u)).unwrap()
        });
        assert_eq!(lists.len(), 5, "one (empty) list per user");
        assert!(lists.iter().all(|l| l.is_empty()), "no items means empty lists");
    }
}

#[test]
fn single_user_block_smaller_than_the_block_size() {
    // One user is the extreme ragged block: far below SCORE_BLOCK_USERS,
    // so the engine must not assume a full block anywhere.
    const { assert!(SCORE_BLOCK_USERS > 1) };
    let data = dataset(1, 12);
    let model = vbpr(1, 12, 21);
    let engine = ScoringEngine::for_model(&model);

    let mut block = ScoreBlock::new();
    engine.score_block(&model, 0..1, &mut block).unwrap();
    let scalar = model.score_all(0);
    let rows: Vec<_> = block.rows().collect();
    assert_eq!(rows.len(), 1);
    for (i, &s) in rows[0].1.iter().enumerate() {
        assert_eq!(s.to_bits(), scalar[i].to_bits(), "item {i}");
    }

    let serial = vec![model.top_n(0, 4, data.user_items(0))];
    for threads in [1usize, 2, 8] {
        let lists = rayon::with_threads(threads, || {
            engine.par_top_n_all(&model, 4, |u| data.user_items(u)).unwrap()
        });
        assert_eq!(lists, serial, "single user at {threads} threads");
    }
}

#[test]
fn par_top_n_all_replay_hash_is_stable_across_thread_counts() {
    // The replay harness pins recommendation lists by content hash; this is
    // the engine-level version of that contract: the FNV digest of
    // par_top_n_all output must be one number regardless of the thread
    // count, across several user-block shapes.
    for (nu, ni, n) in [(3usize, 10usize, 3usize), (SCORE_BLOCK_USERS, 20, 5), (SCORE_BLOCK_USERS + 9, 31, 4)] {
        let data = dataset(nu, ni);
        let model = vbpr(nu, ni, 0xC0FFEE ^ nu as u64);
        let engine = ScoringEngine::for_model(&model);
        let hashes: Vec<u64> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                rayon::with_threads(t, || {
                    taamr_replay::hash_lists(&engine.par_top_n_all(&model, n, |u| data.user_items(u)).unwrap())
                })
            })
            .collect();
        assert_eq!(hashes[0], hashes[1], "1 vs 2 threads ({nu}x{ni})");
        assert_eq!(hashes[0], hashes[2], "1 vs 8 threads ({nu}x{ni})");
        // And re-running at the same thread count is hash-stable too.
        let again = rayon::with_threads(2, || {
            taamr_replay::hash_lists(&engine.par_top_n_all(&model, n, |u| data.user_items(u)).unwrap())
        });
        assert_eq!(hashes[0], again, "repeat run must not drift ({nu}x{ni})");
    }
}

#[test]
fn amr_training_invalidates_through_the_wrapper() {
    let mut amr = Amr::from_vbpr(vbpr(6, 15, 9), AmrConfig::default());
    let mut engine = ScoringEngine::new();
    engine.ensure(&amr);
    amr.sgd_step(&Triplet { user: 0, positive: 1, negative: 2 }, 0.05);
    assert!(!engine.is_fresh(&amr), "AMR steps mutate the inner VBPR");
}

#[test]
fn score_gather_matches_per_user_blocks_bitwise() {
    // The gathered entry point (serving's request-coalescing path) must
    // reproduce the per-user score_block rows bit-for-bit for arbitrary
    // batch compositions: unsorted, duplicated, singleton, full-range —
    // at every thread count.
    let nu = 14;
    let ni = 33;
    let model = vbpr(nu, ni, 0xBA7C4);
    let engine = ScoringEngine::for_model(&model);

    // Per-user reference rows via the contiguous block path.
    let mut reference_block = ScoreBlock::new();
    let reference: Vec<Vec<u32>> = (0..nu)
        .map(|u| {
            engine.score_block(&model, u..u + 1, &mut reference_block).unwrap();
            reference_block.row(u).iter().map(|s| s.to_bits()).collect()
        })
        .collect();

    let batches: Vec<Vec<usize>> = vec![
        vec![3],
        vec![0, 1, 2, 3],
        vec![13, 0, 7, 7, 2, 13],
        (0..nu).rev().collect(),
        vec![5; 9],
    ];
    let mut block = ScoreBlock::new();
    for threads in [1usize, 2, 8] {
        rayon::with_threads(threads, || {
            for users in &batches {
                engine.score_gather(&model, users, &mut block).unwrap();
                for (row_idx, &u) in users.iter().enumerate() {
                    let got: Vec<u32> =
                        block.row(row_idx).iter().map(|s| s.to_bits()).collect();
                    assert_eq!(
                        got, reference[u],
                        "gathered row {row_idx} (user {u}) at {threads} threads"
                    );
                }
            }
        });
    }

    // The scalar-plan path (Popularity has no factor terms) agrees too.
    let data = dataset(nu, ni);
    let pop = Popularity::from_dataset(&data);
    let pop_engine = ScoringEngine::for_model(&pop);
    let users = vec![9, 0, 9, 4];
    pop_engine.score_gather(&pop, &users, &mut block).unwrap();
    for (row_idx, &u) in users.iter().enumerate() {
        let want = pop.score_all(u);
        let got = block.row(row_idx);
        assert_eq!(got.len(), want.len());
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "popularity gathered ({u},{i})");
        }
    }
}

#[test]
fn score_gather_empty_batch_is_a_no_op() {
    let model = vbpr(5, 12, 3);
    let engine = ScoringEngine::for_model(&model);
    let mut block = ScoreBlock::new();
    engine.score_gather(&model, &[], &mut block).unwrap();
    assert_eq!(block.users(), 0..0);
}

#[test]
fn score_gather_respects_the_version_gate() {
    let mut model = vbpr(6, 15, 11);
    let mut engine = ScoringEngine::for_model(&model);
    let mut block = ScoreBlock::new();
    engine.score_gather(&model, &[1, 4], &mut block).unwrap();

    // A training step bumps the scoring version: the gathered path must
    // refuse with the typed StaleEngine error until re-ensured, exactly
    // like score_block.
    model.sgd_step(&Triplet { user: 0, positive: 1, negative: 2 }, 0.05);
    assert!(matches!(engine.score_gather(&model, &[1, 4], &mut block), Err(StaleEngine { .. })));
    engine.ensure(&model);
    engine.score_gather(&model, &[1, 4], &mut block).unwrap();
    let fresh: Vec<u32> = model.score_all(1).iter().map(|s| s.to_bits()).collect();
    let got: Vec<u32> = block.row(0).iter().map(|s| s.to_bits()).collect();
    assert_eq!(got, fresh, "post-refresh gathered row is the new model's row");
}

#[test]
#[should_panic(expected = "out of range")]
fn score_gather_panics_on_an_out_of_range_user() {
    let model = vbpr(4, 10, 2);
    let engine = ScoringEngine::for_model(&model);
    let mut block = ScoreBlock::new();
    let _ = engine.score_gather(&model, &[4], &mut block);
}
