//! Scale-grid differential suite: sharded scoring is bitwise invisible.
//!
//! The sharded drivers ([`ScoringEngine::par_top_n_all_sharded`] /
//! [`ScoringEngine::par_item_ranks_sharded`]) exist to bound memory at
//! million-user scale; this suite pins down that they change *nothing
//! else*. For every model family (popularity, BPR-MF, VBPR, AMR), every
//! ragged shard height (1, primes, taller than the user set), and 1/2/8
//! threads, the sharded results must be identical — element for element —
//! to the default-plan driver and to the serial per-user trait calls.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use taamr::parallel::with_threads;
use taamr_data::ImplicitDataset;
use taamr_recsys::{
    Amr, AmrConfig, BprMf, Popularity, Recommender, ScoringEngine, ShardPlan, Vbpr, VbprConfig,
};

/// Telemetry counters are process-global and tests in one binary run
/// concurrently, so every test here that scores or reads counters holds
/// this gate — otherwise sibling sweeps leak into counter deltas.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn fake_features(num_items: usize, d: usize, seed: u64) -> Vec<f32> {
    let shift = (seed % 89) as usize;
    (0..num_items * d).map(|i| (((i + shift) * 37 % 101) as f32 / 101.0) - 0.5).collect()
}

/// One instance of each model family at the given size, seeded.
fn families(users: usize, items: usize, seed: u64) -> Vec<(&'static str, Box<dyn Recommender>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let user_items: Vec<Vec<usize>> =
        (0..users).map(|u| vec![u % items, (u * 7 + 1) % items]).collect();
    let data = ImplicitDataset::new(user_items, vec![0; items], 1);
    let d = 12;
    let vbpr = Vbpr::new(users, items, d, fake_features(items, d, seed), VbprConfig::default(), &mut rng);
    vec![
        ("popularity", Box::new(Popularity::from_dataset(&data))),
        ("bpr_mf", Box::new(BprMf::new(users, items, 8, &mut rng))),
        ("vbpr", Box::new(vbpr.clone())),
        ("amr", Box::new(Amr::from_vbpr(vbpr, AmrConfig::default()))),
    ]
}

/// Shard heights that stress the ragged edges: single-user shards, primes
/// that misalign with `SCORE_BLOCK_USERS`, heights one below and one above
/// it, and a shard taller than the whole user set (one-shot streaming, up
/// to three score blocks for the users drawn below).
fn ragged_shards(users: usize) -> Vec<usize> {
    vec![1, 7, 13, 15, 17, users.max(1), users + 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole pin: for all four model families, sharded top-N and
    /// item-rank results are identical to the default-plan driver and the
    /// serial per-user trait calls, for every ragged shard height at
    /// 1/2/8 threads.
    #[test]
    fn sharded_scoring_is_bitwise_invisible(
        users in 1usize..40,
        items in 2usize..30,
        seed in 0u64..1000,
    ) {
        let _gate = gate();
        let probe_item = seed as usize % items;
        for (name, model) in families(users, items, seed) {
            let model = model.as_ref();
            let engine = ScoringEngine::for_model(model);
            let seen: Vec<Vec<usize>> = (0..users).map(|u| vec![u % items]).collect();
            let seen_of = |u: usize| seen[u].as_slice();
            // Serial ground truth through the trait.
            let expect_lists: Vec<Vec<usize>> =
                (0..users).map(|u| model.top_n(u, 5, &seen[u])).collect();
            let base_lists = engine.par_top_n_all(model, 5, seen_of).unwrap();
            prop_assert!(base_lists == expect_lists, "{}: default plan vs trait", name);
            let base_ranks = engine.par_item_ranks(model, probe_item, seen_of).unwrap();
            for shard in ragged_shards(users) {
                let plan = ShardPlan::new(users, shard);
                for threads in [1usize, 2, 8] {
                    let (lists, ranks) = with_threads(threads, || {
                        (
                            engine.par_top_n_all_sharded(model, 5, seen_of, &plan).unwrap(),
                            engine.par_item_ranks_sharded(model, probe_item, seen_of, &plan).unwrap(),
                        )
                    });
                    prop_assert!(
                        lists == base_lists,
                        "{}: lists diverged at shard={} threads={}", name, shard, threads
                    );
                    prop_assert!(
                        ranks == base_ranks,
                        "{}: ranks diverged at shard={} threads={}", name, shard, threads
                    );
                }
            }
        }
    }
}

/// The shard counter is a pure function of the plan: the same sweeps at
/// any thread count stream the same number of shards.
#[test]
fn shard_telemetry_is_thread_invariant() {
    let _gate = gate();
    taamr_obs::set_enabled(true);
    let counted = || taamr_obs::snapshot().counter("scoring_shards").unwrap_or(0);
    let model = BprMf::new(130, 20, 4, &mut StdRng::seed_from_u64(5));
    let engine = ScoringEngine::for_model(&model);
    let plan = ShardPlan::new(130, 48);
    let mut shard_counts = Vec::new();
    for threads in [1usize, 2, 8] {
        let before = counted();
        with_threads(threads, || {
            engine.par_top_n_all_sharded(&model, 3, |_| &[][..], &plan).unwrap();
            engine.par_item_ranks_sharded(&model, 7, |_| &[][..], &plan).unwrap();
        });
        shard_counts.push(counted() - before);
    }
    // ceil(130/48) = 3 shards per driver, two drivers per round.
    assert_eq!(shard_counts, vec![6, 6, 6], "shards streamed at every thread count");
}
