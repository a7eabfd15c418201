//! The serving accountant: an always-on ledger of request outcomes.
//!
//! The [`Accountant`] is the serving layer's source of truth for `/stats`:
//! every request, timeout, shed, retry, restart, swap, and snapshot write is
//! recorded on relaxed atomics owned by the supervisor. Each event is also
//! mirrored into the process-global [`taamr_obs`] counters (schema v5), so
//! telemetry snapshots taken by benches and the checkpointed
//! `telemetry.json` carry the same story — but the ledger itself works even
//! when global telemetry is disabled. Schema v8 added the hot-path events:
//! top-N result-cache hits/misses/evictions and request-coalescing batch
//! counts. Each valid top-N request counts exactly one cache hit or one
//! cache miss: the supervisor counts a hit it answers on the request
//! thread, and the actor counts a miss for each request it receives.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};
use taamr_obs::Counter;

/// Monotone event counters for one supervisor. Cheap enough to bump on
/// every request (one relaxed `fetch_add` per event, two when global
/// telemetry is enabled).
#[derive(Debug, Default)]
pub struct Accountant {
    requests: AtomicU64,
    ok: AtomicU64,
    timeouts: AtomicU64,
    sheds: AtomicU64,
    retries: AtomicU64,
    restarts: AtomicU64,
    swaps: AtomicU64,
    snapshot_writes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    coalesced_batches: AtomicU64,
    coalesced_requests: AtomicU64,
}

/// A point-in-time copy of an [`Accountant`], serialisable for `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerSnapshot {
    /// Requests accepted by the supervisor (sheds are not requests).
    pub requests: u64,
    /// Requests answered with a recommendation list.
    pub ok: u64,
    /// Requests that missed their deadline and got a typed timeout.
    pub timeouts: u64,
    /// Connections rejected with 429 because the queue was full.
    pub sheds: u64,
    /// Request retries after an actor crash.
    pub retries: u64,
    /// Actor restarts performed by the supervisor.
    pub restarts: u64,
    /// Zero-downtime model swaps completed.
    pub swaps: u64,
    /// Actor-state snapshots written to the store.
    pub snapshot_writes: u64,
    /// Requests answered from the live actor incarnation's top-N result
    /// cache.
    pub cache_hits: u64,
    /// Requests that missed the result cache (no entry for the live
    /// incarnation) and were recomputed.
    pub cache_misses: u64,
    /// Result-cache entries evicted by the LRU capacity bound.
    pub cache_evictions: u64,
    /// Coalesced scoring batches (two or more requests merged) drained by
    /// the actors.
    pub coalesced_batches: u64,
    /// Requests answered as part of a coalesced batch.
    pub coalesced_requests: u64,
}

fn bump(cell: &AtomicU64, counter: Counter) {
    cell.fetch_add(1, Ordering::Relaxed);
    taamr_obs::incr(counter);
}

impl Accountant {
    /// A request entered the supervisor.
    pub fn request(&self) {
        bump(&self.requests, Counter::ServeRequests);
    }

    /// A request was answered with a recommendation list.
    pub fn ok(&self) {
        bump(&self.ok, Counter::ServeOk);
    }

    /// A request missed its deadline.
    pub fn timeout(&self) {
        bump(&self.timeouts, Counter::ServeTimeouts);
    }

    /// A connection was shed because the queue was full.
    pub fn shed(&self) {
        bump(&self.sheds, Counter::ServeSheds);
    }

    /// A request was retried after an actor crash.
    pub fn retry(&self) {
        bump(&self.retries, Counter::ServeRetries);
    }

    /// The supervisor restarted a crashed actor.
    pub fn restart(&self) {
        bump(&self.restarts, Counter::ServeRestarts);
    }

    /// The supervisor completed a model swap.
    pub fn swap(&self) {
        bump(&self.swaps, Counter::ServeSwaps);
    }

    /// A snapshot was written to the store.
    pub fn snapshot_write(&self) {
        bump(&self.snapshot_writes, Counter::ServeSnapshotWrites);
    }

    /// A request was answered from the top-N result cache.
    pub fn cache_hit(&self) {
        bump(&self.cache_hits, Counter::ServeCacheHits);
    }

    /// A request missed the top-N result cache and was recomputed.
    pub fn cache_miss(&self) {
        bump(&self.cache_misses, Counter::ServeCacheMisses);
    }

    /// The LRU capacity bound evicted a result-cache entry.
    pub fn cache_eviction(&self) {
        bump(&self.cache_evictions, Counter::ServeCacheEvictions);
    }

    /// An actor drained a coalesced batch of `size >= 2` requests.
    pub fn coalesced(&self, size: u64) {
        bump(&self.coalesced_batches, Counter::ServeCoalescedBatches);
        self.coalesced_requests.fetch_add(size, Ordering::Relaxed);
        taamr_obs::add(Counter::ServeCoalescedRequests, size);
    }

    /// A consistent-enough point-in-time copy (each field individually
    /// exact; cross-field skew bounded by in-flight requests).
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            snapshot_writes: self.snapshot_writes.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_the_snapshot() {
        let a = Accountant::default();
        a.request();
        a.request();
        a.ok();
        a.timeout();
        a.shed();
        a.retry();
        a.restart();
        a.swap();
        a.snapshot_write();
        a.cache_hit();
        a.cache_miss();
        a.cache_miss();
        a.cache_eviction();
        a.coalesced(3);
        let snap = a.snapshot();
        assert_eq!(
            snap,
            LedgerSnapshot {
                requests: 2,
                ok: 1,
                timeouts: 1,
                sheds: 1,
                retries: 1,
                restarts: 1,
                swaps: 1,
                snapshot_writes: 1,
                cache_hits: 1,
                cache_misses: 2,
                cache_evictions: 1,
                coalesced_batches: 1,
                coalesced_requests: 3,
            }
        );
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let a = Accountant::default();
        a.request();
        a.ok();
        a.cache_hit();
        a.coalesced(2);
        let snap = a.snapshot();
        let json = serde_json::to_string(&snap).expect("ledger serialises");
        let back: LedgerSnapshot = serde_json::from_str(&json).expect("ledger parses");
        assert_eq!(back, snap);
    }

}
