//! Shared fixtures for the serving integration tests.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::SeedableRng;
use taamr_recsys::BprMf;
use taamr_serve::TopNResponse;

pub const USERS: usize = 16;
pub const ITEMS: usize = 40;
pub const FACTORS: usize = 8;

/// A fresh, empty scratch directory unique to `name`, this process and this
/// call: tests sharing a fixture name run concurrently, and one must not
/// wipe a directory another is writing snapshots into.
pub fn fresh_dir(name: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("taamr-serve-{name}-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A small deterministic model; different seeds give different scores.
pub fn model(seed: u64) -> BprMf {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    BprMf::new(USERS, ITEMS, FACTORS, &mut rng)
}

/// Deterministic per-user seen lists (sorted, duplicate-free).
pub fn seen_lists() -> Vec<Vec<usize>> {
    (0..USERS).map(|u| vec![u % ITEMS, (u + 7) % ITEMS]).map(sorted).collect()
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Bit-exact view of a score vector, for byte-identical assertions.
pub fn score_bits(resp: &TopNResponse) -> Vec<u32> {
    resp.scores.iter().map(|s| s.to_bits()).collect()
}
