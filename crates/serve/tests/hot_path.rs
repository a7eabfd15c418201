//! The serving hot path: request coalescing and the per-incarnation top-N
//! result cache.
//!
//! The contracts under test are exactness contracts, not latency claims:
//! coalesced batches and cache hits must be *bitwise identical* to
//! serial, uncached per-request scoring at every thread count, and a
//! model swap must make every cached entry unreachable (the new
//! incarnation recomputes) — never silently served stale.

mod common;

use std::sync::{Arc, Barrier};
use std::time::Duration;

use taamr_recsys::Recommender;
use taamr_serve::{Supervisor, SupervisorConfig, TopNResponse};

/// The uncached per-request reference: items from the trait's own top-N,
/// scores read straight off `score_all`, bit-exact.
fn reference(model: &taamr_recsys::BprMf, user: usize, n: usize) -> (Vec<usize>, Vec<u32>) {
    let seen = common::seen_lists();
    let exclude = seen.get(user).map_or(&[][..], |s| s.as_slice());
    let items = model.top_n(user, n, exclude);
    let row = model.score_all(user);
    let scores = items.iter().map(|&i| row[i].to_bits()).collect();
    (items, scores)
}

fn assert_matches_reference(resp: &TopNResponse, model: &taamr_recsys::BprMf, n: usize) {
    let (items, score_bits) = reference(model, resp.user, n);
    assert_eq!(resp.items, items, "items for user {}", resp.user);
    assert_eq!(common::score_bits(resp), score_bits, "score bits for user {}", resp.user);
}

#[test]
fn coalesced_batches_are_bitwise_identical_to_serial_answers() {
    // A wide-open coalescing window plus a barrier-aligned burst of
    // concurrent requests forces genuine multi-user batches; with the
    // cache disabled, every answer flows through score_gather. Run the
    // whole exercise at 1 and 8 scoring threads: the payload may not
    // change by a single bit.
    for threads in [1usize, 8] {
        rayon::with_threads(threads, || {
            let dir = common::fresh_dir(&format!("hot-coalesce-{threads}"));
            let mut config = SupervisorConfig::new(&dir);
            config.coalesce_window = Duration::from_millis(300);
            config.cache_capacity = 0;
            let sup = Arc::new(Supervisor::new(config));
            let model = common::model(3);
            sup.add_slot("bpr", model.clone(), common::seen_lists()).unwrap();

            let clients = 8;
            let barrier = Arc::new(Barrier::new(clients));
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let sup = Arc::clone(&sup);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        // Two users repeat across clients: batches may
                        // contain duplicate users.
                        let user = c % 6;
                        sup.top_n("bpr", user, 5, Duration::from_secs(10)).unwrap()
                    })
                })
                .collect();
            let responses: Vec<TopNResponse> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();

            for resp in &responses {
                assert_eq!(resp.model_version, 1);
                assert_eq!(resp.incarnation, 1);
                assert_matches_reference(resp, &model, 5);
            }

            // The burst arrived inside one window, so at least one real
            // multi-request batch was drained.
            let ledger = sup.accountant().snapshot();
            assert!(
                ledger.coalesced_batches >= 1,
                "no batch coalesced at {threads} threads: {ledger:?}"
            );
            assert!(ledger.coalesced_requests >= 2);
            assert_eq!(ledger.ok, clients as u64);
        });
    }
}

#[test]
fn cache_hits_are_bitwise_identical_and_counted() {
    for threads in [1usize, 8] {
        rayon::with_threads(threads, || {
            let dir = common::fresh_dir(&format!("hot-cache-{threads}"));
            let sup = Supervisor::new(SupervisorConfig::new(&dir));
            let model = common::model(9);
            sup.add_slot("bpr", model.clone(), common::seen_lists()).unwrap();
            let deadline = Duration::from_secs(5);

            // First pass: all misses, computed and inserted.
            let cold: Vec<TopNResponse> =
                (0..6).map(|u| sup.top_n("bpr", u, 7, deadline).unwrap()).collect();
            // Second pass: all hits, straight from the cache.
            let warm: Vec<TopNResponse> =
                (0..6).map(|u| sup.top_n("bpr", u, 7, deadline).unwrap()).collect();

            for (cold_resp, warm_resp) in cold.iter().zip(&warm) {
                assert_eq!(cold_resp, warm_resp, "hit must replay the miss bit-for-bit");
                assert_matches_reference(warm_resp, &model, 7);
            }
            // A different n is a different cache line, not a hit.
            let other_n = sup.top_n("bpr", 0, 3, deadline).unwrap();
            assert_matches_reference(&other_n, &model, 3);

            let ledger = sup.accountant().snapshot();
            assert_eq!(ledger.cache_misses, 7, "6 cold users + 1 fresh n: {ledger:?}");
            assert_eq!(ledger.cache_hits, 6, "the warm pass hits all 6: {ledger:?}");
            assert_eq!(ledger.cache_evictions, 0);
        });
    }
}

#[test]
fn lru_capacity_bound_evicts_and_recomputes() {
    let dir = common::fresh_dir("hot-evict");
    let mut config = SupervisorConfig::new(&dir);
    config.cache_capacity = 2;
    let sup = Supervisor::new(config);
    let model = common::model(5);
    sup.add_slot("bpr", model.clone(), common::seen_lists()).unwrap();
    let deadline = Duration::from_secs(5);

    // Fill the 2-entry cache, then push a third user: the coldest entry
    // (user 0) is evicted, and re-requesting it recomputes correctly.
    for u in [0usize, 1, 2, 0] {
        let resp = sup.top_n("bpr", u, 5, deadline).unwrap();
        assert_matches_reference(&resp, &model, 5);
    }
    let ledger = sup.accountant().snapshot();
    assert_eq!(ledger.cache_evictions, 2, "users 0 then 1 were evicted: {ledger:?}");
    assert_eq!(ledger.cache_misses, 4, "the re-request of user 0 missed: {ledger:?}");
    assert_eq!(ledger.cache_hits, 0);
}

#[test]
fn swap_makes_every_cached_answer_unreachable() {
    let dir = common::fresh_dir("hot-swap-invalidate");
    let sup = Supervisor::new(SupervisorConfig::new(&dir));
    let old_model = common::model(1);
    let new_model = common::model(2);
    sup.add_slot("bpr", old_model.clone(), common::seen_lists()).unwrap();
    let deadline = Duration::from_secs(5);

    // Warm the cache on the old model, prove it hits.
    let cold = sup.top_n("bpr", 4, 6, deadline).unwrap();
    let warm = sup.top_n("bpr", 4, 6, deadline).unwrap();
    assert_eq!(cold, warm);
    assert_matches_reference(&warm, &old_model, 6);
    assert_eq!(sup.accountant().snapshot().cache_hits, 1);

    // Swap. The same request must now be answered by the new model —
    // a cached old-model list would be bitwise wrong here.
    assert_eq!(sup.swap("bpr", new_model.clone()).unwrap(), 2);
    let fresh = sup.top_n("bpr", 4, 6, deadline).unwrap();
    assert_eq!(fresh.model_version, 2);
    assert_eq!(fresh.incarnation, 2);
    assert_matches_reference(&fresh, &new_model, 6);
    assert_ne!(
        common::score_bits(&fresh),
        common::score_bits(&warm),
        "different models must score differently for this to prove anything"
    );

    // The post-swap request was a miss (recompute), not a hit.
    let ledger = sup.accountant().snapshot();
    assert_eq!(ledger.cache_hits, 1, "no hit crossed the swap: {ledger:?}");
    assert_eq!(ledger.cache_misses, 2);

    // And the new entry now hits at the new version.
    let again = sup.top_n("bpr", 4, 6, deadline).unwrap();
    assert_eq!(again, fresh);
    assert_eq!(sup.accountant().snapshot().cache_hits, 2);
}

#[test]
fn crash_during_a_batch_retries_every_request_to_the_right_answer() {
    // An injected actor panic mid-stream kills whatever batch it lands
    // in; every affected sender observes the disconnect and retries
    // through the supervisor, landing on the restarted incarnation with
    // byte-identical scores.
    let dir = common::fresh_dir("hot-batch-crash");
    let mut config = SupervisorConfig::new(&dir);
    config.coalesce_window = Duration::from_millis(150);
    let sup = Arc::new(Supervisor::new(config));
    let model = common::model(11);
    sup.add_slot("bpr", model.clone(), common::seen_lists()).unwrap();

    let plan = taamr_fault::FaultPlan::new().with(taamr_fault::FaultSite::ServeActorPanic, 2);
    let (responses, unfired) = taamr_fault::with_shared_plan(plan, || {
        let clients = 6;
        let barrier = Arc::new(Barrier::new(clients));
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let sup = Arc::clone(&sup);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    sup.top_n("bpr", c, 5, Duration::from_secs(10)).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });
    assert_eq!(unfired, 0, "the injected panic must actually fire");

    for resp in &responses {
        assert_matches_reference(resp, &model, 5);
    }
    let ledger = sup.accountant().snapshot();
    assert_eq!(ledger.restarts, 1, "one crash, one restart: {ledger:?}");
    assert_eq!(ledger.ok, 6, "every request was eventually answered: {ledger:?}");
    assert!(ledger.retries >= 1);
}
