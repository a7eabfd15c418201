//! The version-keyed top-N result cache.
//!
//! Each actor incarnation owns one [`TopNCache`]: an LRU of `(user, n) →`
//! [`TopNResponse`] where every entry also records the
//! [`scoring_version`](taamr_recsys::Recommender::scoring_version) of the
//! model that produced it. Lookups pass the *live* version; an entry
//! stored under any other version is removed on contact and reported as a
//! typed stale miss — it is structurally unreachable as a served answer,
//! never filtered "later". Combined with the engine's monotone version
//! counter (every `sgd_step`/feature swap bumps it) this is an exact
//! invalidation rule, not a TTL heuristic: a hit is *proof* the model has
//! not changed since the entry was computed.
//!
//! The slot shares the incarnation's cache with its request threads as a
//! [`SharedCache`]: the cache behind a mutex, next to the incarnation's
//! fixed scoring version. A request thread answers a hit itself, with no
//! mailbox round trip; the actor stays the only writer (it inserts what it
//! computes). Closing the shared cache — on a kill, or when the actor exits
//! for any reason — drops its entries, so a dead incarnation's lists are
//! unreachable from that moment on, and the next request reaches the dead
//! mailbox and triggers the restart.
//!
//! Eviction is plain LRU over successful lookups and inserts, bounded by
//! a fixed capacity so a hostile scan of the user space cannot grow actor
//! memory without bound. Recency is tracked with a lazy queue: each
//! `(key, tick)` touch is appended, and eviction pops queue entries whose
//! tick no longer matches the entry's current tick until it finds a live
//! victim.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::actor::TopNResponse;

/// Cache key: the request coordinates. The model version is deliberately
/// *not* part of the key — it is checked, so a version mismatch is
/// detected (and reported as [`CacheMiss::Stale`]) instead of silently
/// leaving dead entries behind under old-version keys.
type Key = (usize, usize);

#[derive(Debug)]
struct Entry {
    version: u64,
    tick: u64,
    response: TopNResponse,
}

/// Why a lookup missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMiss {
    /// No entry for this `(user, n)` at all.
    Absent,
    /// An entry existed but was computed at an older model version; it has
    /// been removed and must be recomputed.
    Stale {
        /// The version the now-removed entry was computed at.
        cached_version: u64,
    },
}

/// Outcome of a cache lookup.
#[derive(Debug)]
pub enum CacheLookup {
    /// The cached response, proven current for the version passed in.
    Hit(TopNResponse),
    /// No serviceable entry; the caller recomputes and
    /// [`TopNCache::insert`]s.
    Miss(CacheMiss),
}

/// An LRU cache of top-N responses keyed by `(user, n)` and guarded by
/// the model's scoring version. Capacity 0 disables caching entirely
/// (every lookup is [`CacheMiss::Absent`], every insert a no-op).
#[derive(Debug, Default)]
pub struct TopNCache {
    capacity: usize,
    entries: HashMap<Key, Entry>,
    /// Lazy recency queue of `(key, tick)` touches; stale pairs (tick no
    /// longer current for the key) are skipped during eviction.
    recency: VecDeque<(Key, u64)>,
    clock: u64,
    evictions: u64,
}

impl TopNCache {
    /// A cache holding at most `capacity` responses.
    pub fn new(capacity: usize) -> Self {
        TopNCache { capacity, ..TopNCache::default() }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted by the capacity bound since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `(user, n)` at the live model `version`. A stored entry
    /// from any other version is removed and reported as a typed stale
    /// miss; it can never be returned as a hit.
    pub fn get(&mut self, version: u64, user: usize, n: usize) -> CacheLookup {
        let key = (user, n);
        let Some(entry) = self.entries.get_mut(&key) else {
            return CacheLookup::Miss(CacheMiss::Absent);
        };
        if entry.version != version {
            let cached_version = entry.version;
            self.entries.remove(&key);
            return CacheLookup::Miss(CacheMiss::Stale { cached_version });
        }
        self.clock += 1;
        entry.tick = self.clock;
        let response = entry.response.clone();
        self.recency.push_back((key, self.clock));
        CacheLookup::Hit(response)
    }

    /// Stores a freshly computed response under the version that produced
    /// it, keyed by the *requested* `n` (the response may legitimately hold
    /// fewer items when the unseen catalog is smaller than `n`), evicting
    /// the least-recently-used entry if the capacity bound is hit. Returns
    /// the number of evictions this insert performed (0 or 1).
    pub fn insert(&mut self, version: u64, n: usize, response: TopNResponse) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let key = (response.user, n);
        self.clock += 1;
        let tick = self.clock;
        let fresh_insert = !self.entries.contains_key(&key);
        self.entries.insert(key, Entry { version, tick, response });
        self.recency.push_back((key, tick));
        let mut evicted = 0;
        if fresh_insert && self.entries.len() > self.capacity {
            while let Some((victim, victim_tick)) = self.recency.pop_front() {
                let live = self
                    .entries
                    .get(&victim)
                    .map(|e| e.tick == victim_tick)
                    .unwrap_or(false);
                if live {
                    self.entries.remove(&victim);
                    self.evictions += 1;
                    evicted += 1;
                    break;
                }
            }
        }
        evicted
    }
}

/// One actor incarnation's [`TopNCache`] as its slot shares it: the cache
/// behind a mutex, keyed by the incarnation's scoring version, which never
/// changes (the actor owns its model and never mutates it). Request threads
/// read through [`SharedCache::hit`]; only the actor inserts. Once
/// [`closed`](SharedCache::close) every lookup misses and every insert is
/// dropped.
pub(crate) struct SharedCache {
    version: u64,
    /// `None` once the incarnation is gone.
    cache: Mutex<Option<TopNCache>>,
}

impl SharedCache {
    /// An open cache of `capacity` responses for a model at `version`.
    pub(crate) fn new(capacity: usize, version: u64) -> Self {
        SharedCache { version, cache: Mutex::new(Some(TopNCache::new(capacity))) }
    }

    fn lock(&self) -> MutexGuard<'_, Option<TopNCache>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached response for `(user, n)`, or `None` on a miss or a
    /// closed cache. Counts nothing: the caller records the hit, and a
    /// miss is counted where it is computed.
    pub(crate) fn hit(&self, user: usize, n: usize) -> Option<TopNResponse> {
        match self.lock().as_mut()?.get(self.version, user, n) {
            CacheLookup::Hit(response) => Some(response),
            CacheLookup::Miss(_) => None,
        }
    }

    /// [`TopNCache::insert`] at the incarnation's version; a closed cache
    /// drops the response and evicts nothing.
    pub(crate) fn insert(&self, n: usize, response: TopNResponse) -> u64 {
        self.lock().as_mut().map_or(0, |cache| cache.insert(self.version, n, response))
    }

    /// Drops every entry and makes every later lookup miss.
    pub(crate) fn close(&self) {
        *self.lock() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(user: usize, n: usize, version: u64) -> TopNResponse {
        TopNResponse {
            slot: "s".to_owned(),
            model_version: version,
            incarnation: 0,
            user,
            items: (0..n).collect(),
            scores: vec![1.0; n],
        }
    }

    fn assert_hit(lookup: CacheLookup, user: usize) {
        match lookup {
            CacheLookup::Hit(r) => assert_eq!(r.user, user),
            CacheLookup::Miss(m) => panic!("expected hit for user {user}, got miss {m:?}"),
        }
    }

    #[test]
    fn hit_requires_exact_version_match() {
        let mut c = TopNCache::new(8);
        c.insert(3, 5, resp(1, 5, 3));
        assert_hit(c.get(3, 1, 5), 1);

        // The same entry at a newer live version is a typed stale miss and
        // is gone afterwards — a stale answer is unreachable.
        match c.get(4, 1, 5) {
            CacheLookup::Miss(CacheMiss::Stale { cached_version }) => {
                assert_eq!(cached_version, 3)
            }
            other => panic!("expected stale miss, got {other:?}"),
        }
        match c.get(4, 1, 5) {
            CacheLookup::Miss(CacheMiss::Absent) => {}
            other => panic!("stale entry must have been removed, got {other:?}"),
        }
        assert!(c.is_empty());
    }

    #[test]
    fn distinct_n_values_are_distinct_entries() {
        let mut c = TopNCache::new(8);
        c.insert(1, 5, resp(2, 5, 1));
        c.insert(1, 10, resp(2, 10, 1));
        assert_hit(c.get(1, 2, 5), 2);
        assert_hit(c.get(1, 2, 10), 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = TopNCache::new(2);
        c.insert(1, 5, resp(0, 5, 1));
        c.insert(1, 5, resp(1, 5, 1));
        // Touch user 0 so user 1 is the LRU victim.
        assert_hit(c.get(1, 0, 5), 0);
        let evicted = c.insert(1, 5, resp(2, 5, 1));
        assert_eq!(evicted, 1);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 2);
        assert_hit(c.get(1, 0, 5), 0);
        assert_hit(c.get(1, 2, 5), 2);
        match c.get(1, 1, 5) {
            CacheLookup::Miss(CacheMiss::Absent) => {}
            other => panic!("user 1 should have been evicted, got {other:?}"),
        }
    }

    #[test]
    fn reinsert_does_not_evict_and_zero_capacity_disables() {
        let mut c = TopNCache::new(2);
        c.insert(1, 5, resp(0, 5, 1));
        c.insert(1, 5, resp(1, 5, 1));
        // Overwriting a live key is not growth: nothing is evicted.
        assert_eq!(c.insert(2, 5, resp(0, 5, 2)), 0);
        assert_eq!(c.len(), 2);
        assert_hit(c.get(2, 0, 5), 0);

        let mut off = TopNCache::new(0);
        assert_eq!(off.insert(1, 5, resp(0, 5, 1)), 0);
        match off.get(1, 0, 5) {
            CacheLookup::Miss(CacheMiss::Absent) => {}
            other => panic!("capacity-0 cache must never hit, got {other:?}"),
        }
    }

    #[test]
    fn shared_cache_keys_on_its_version_and_misses_once_closed() {
        let shared = SharedCache::new(8, 3);
        assert_eq!(shared.hit(1, 5), None);
        assert_eq!(shared.insert(5, resp(1, 5, 3)), 0);
        assert_eq!(shared.hit(1, 5), Some(resp(1, 5, 3)));

        shared.close();
        assert_eq!(shared.hit(1, 5), None, "a closed cache never hits");
        assert_eq!(shared.insert(5, resp(2, 5, 3)), 0);
        assert_eq!(shared.hit(2, 5), None, "a closed cache drops inserts");
    }
}
