//! User-shard streaming plans for full-catalog scoring.
//!
//! A million-user catalog evaluation cannot hold every score in memory —
//! `users × items` floats is ~400 GB at the 1M × 100k scale the serving
//! roadmap targets. A [`ShardPlan`] bounds that: the scoring engine streams
//! over contiguous user shards, running one parallel region per shard, so
//! peak resident score memory is `O(min(shard, threads · SCORE_BLOCK_USERS)
//! × items)` no matter how many users the model has.
//!
//! Sharding is **bitwise invisible**: each user's score row is computed by
//! one [`ScoreBlock`](crate::ScoreBlock) whose GEMM walks the same absolute
//! K blocks in the same order for any block or shard boundary, and
//! selections are pure functions of one row. The `tests/scale_grid.rs`
//! differential suite pins this down across ragged shard sizes (1, primes,
//! > users) at 1/2/8 threads.

use std::ops::Range;

/// A streaming partition of `num_users` into contiguous, bounded shards.
///
/// Shard boundaries depend only on the two fields — never on the thread
/// count — so every derived quantity (block pattern, telemetry counters)
/// is thread-invariant for a fixed plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    num_users: usize,
    shard_users: usize,
}

impl ShardPlan {
    /// Default shard height. A multiple of
    /// [`SCORE_BLOCK_USERS`](crate::SCORE_BLOCK_USERS), so the default plan
    /// produces *exactly* the same score-block pattern (and thus the same
    /// `scoring_gemm_calls` telemetry) as the historical unsharded driver.
    pub const DEFAULT_SHARD_USERS: usize = 8192;

    /// A plan over `num_users` with the given shard height.
    ///
    /// # Panics
    ///
    /// Panics if `shard_users == 0`.
    pub fn new(num_users: usize, shard_users: usize) -> Self {
        assert!(shard_users > 0, "shard height must be positive");
        ShardPlan { num_users, shard_users }
    }

    /// The default plan for `num_users`
    /// ([`DEFAULT_SHARD_USERS`](Self::DEFAULT_SHARD_USERS)-high shards).
    pub fn default_for(num_users: usize) -> Self {
        Self::new(num_users, Self::DEFAULT_SHARD_USERS)
    }

    /// Total users the plan covers.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Users per shard (the last shard may be shorter).
    pub fn shard_users(&self) -> usize {
        self.shard_users
    }

    /// Number of shards (`0` for an empty user set).
    pub fn num_shards(&self) -> usize {
        self.num_users.div_ceil(self.shard_users)
    }

    /// Iterates the shards as contiguous user ranges, in user order.
    pub fn shards(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let (total, per) = (self.num_users, self.shard_users);
        (0..self.num_shards()).map(move |s| s * per..((s + 1) * per).min(total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_users_exactly_once() {
        for (users, shard) in [(0usize, 5usize), (1, 1), (10, 3), (10, 10), (10, 100), (8200, 8192)]
        {
            let plan = ShardPlan::new(users, shard);
            let mut next = 0;
            for r in plan.shards() {
                assert_eq!(r.start, next);
                assert!(r.len() <= shard);
                assert!(!r.is_empty());
                next = r.end;
            }
            assert_eq!(next, users, "users={users} shard={shard}");
            assert_eq!(plan.num_shards(), users.div_ceil(shard));
        }
    }

    #[test]
    fn default_plan_is_block_aligned() {
        assert_eq!(ShardPlan::DEFAULT_SHARD_USERS % crate::SCORE_BLOCK_USERS, 0);
        let plan = ShardPlan::default_for(20_000);
        assert_eq!(plan.shard_users(), ShardPlan::DEFAULT_SHARD_USERS);
        // Block pattern equals the unsharded driver's: every shard except the
        // last starts on a SCORE_BLOCK_USERS boundary.
        for r in plan.shards() {
            assert_eq!(r.start % crate::SCORE_BLOCK_USERS, 0);
        }
    }

    #[test]
    #[should_panic(expected = "shard height must be positive")]
    fn zero_shard_height_rejected() {
        ShardPlan::new(10, 0);
    }
}
