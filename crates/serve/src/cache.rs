//! The per-incarnation top-N result cache.
//!
//! Each actor incarnation owns one [`TopNCache`]: an LRU of `(user, n) →`
//! [`TopNResponse`]. The incarnation is the cache's one invalidation rule,
//! and no entry carries a model version, because nothing can make an entry
//! stale while its cache is open:
//!
//! * the incarnation's model is immutable — the actor owns it, and its
//!   mailbox carries no message that changes it;
//! * a swap or a restart spawns a new incarnation with a new, empty cache;
//! * a kill, or any exit of the actor, closes the old cache.
//!
//! A hit is therefore always the answer of the model the slot serves.
//!
//! The slot shares the incarnation's cache with its request threads as a
//! [`SharedCache`]: the cache behind a mutex. A request thread answers a
//! hit itself, with no mailbox round trip; the actor stays the only writer
//! (it inserts what it computes). Closing the shared cache — on a kill, or
//! when the actor exits for any reason — drops its entries, so a dead
//! incarnation's lists are unreachable from that moment on, and the next
//! request reaches the dead mailbox and triggers the restart.
//!
//! Eviction is plain LRU over hits and inserts, bounded by a fixed capacity
//! so a hostile scan of the user space cannot grow actor memory without
//! bound. Recency is a doubly linked list threaded through the entries, one
//! node per entry: a hit relinks its node at the front, and an insert into
//! a full cache reuses the node at the back. A hit allocates nothing, and
//! memory stays `O(capacity)` however many hits arrive.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::actor::TopNResponse;

/// Cache key: the request coordinates `(user, n)`.
type Key = (usize, usize);

/// No neighbour: an end of the recency list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    key: Key,
    response: TopNResponse,
    /// Neighbour on the more recently used side.
    prev: usize,
    /// Neighbour on the less recently used side.
    next: usize,
}

/// An LRU cache of top-N responses keyed by `(user, n)`. Capacity 0
/// disables caching entirely (every lookup misses, every insert is a
/// no-op).
#[derive(Debug)]
pub(crate) struct TopNCache {
    capacity: usize,
    /// Each key's node in `nodes`.
    index: HashMap<Key, usize>,
    /// One node per live entry, never more than `capacity`.
    nodes: Vec<Node>,
    /// Most recently used node.
    head: usize,
    /// Least recently used node: the next eviction victim.
    tail: usize,
}

impl TopNCache {
    /// A cache holding at most `capacity` responses.
    pub(crate) fn new(capacity: usize) -> Self {
        TopNCache { capacity, index: HashMap::new(), nodes: Vec::new(), head: NIL, tail: NIL }
    }

    /// The cached response for `(user, n)`, marked most recently used.
    pub(crate) fn get(&mut self, user: usize, n: usize) -> Option<TopNResponse> {
        let i = *self.index.get(&(user, n))?;
        self.touch(i);
        Some(self.nodes[i].response.clone())
    }

    /// Stores a freshly computed response, keyed by the *requested* `n`
    /// (the response may legitimately hold fewer items when the unseen
    /// catalog is smaller than `n`), evicting the least-recently-used entry
    /// if the capacity bound is hit. Returns the number of evictions this
    /// insert performed (0 or 1).
    pub(crate) fn insert(&mut self, n: usize, response: TopNResponse) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let key = (response.user, n);
        if let Some(&i) = self.index.get(&key) {
            self.nodes[i].response = response;
            self.touch(i);
            return 0;
        }
        if self.nodes.len() < self.capacity {
            let i = self.nodes.len();
            self.nodes.push(Node { key, response, prev: NIL, next: NIL });
            self.index.insert(key, i);
            self.push_front(i);
            return 0;
        }
        // Full: the least recently used node takes the new entry.
        let i = self.tail;
        self.index.remove(&self.nodes[i].key);
        self.index.insert(key, i);
        self.nodes[i].key = key;
        self.nodes[i].response = response;
        self.touch(i);
        1
    }

    /// Moves node `i` to the front of the recency list.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn unlink(&mut self, i: usize) {
        let Node { prev, next, .. } = self.nodes[i];
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head == NIL {
            self.tail = i;
        } else {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
    }
}

/// One actor incarnation's [`TopNCache`] as its slot shares it: the cache
/// behind a mutex. Request threads read through [`SharedCache::hit`]; only
/// the actor inserts. Once [`closed`](SharedCache::close) every lookup
/// misses and every insert is dropped.
pub(crate) struct SharedCache {
    /// `None` once the incarnation is gone.
    cache: Mutex<Option<TopNCache>>,
}

impl SharedCache {
    /// An open cache of `capacity` responses.
    pub(crate) fn new(capacity: usize) -> Self {
        SharedCache { cache: Mutex::new(Some(TopNCache::new(capacity))) }
    }

    fn lock(&self) -> MutexGuard<'_, Option<TopNCache>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached response for `(user, n)`, or `None` on a miss or a
    /// closed cache. Counts nothing: the caller records the hit, and a
    /// miss is counted where it is computed.
    pub(crate) fn hit(&self, user: usize, n: usize) -> Option<TopNResponse> {
        self.lock().as_mut()?.get(user, n)
    }

    /// [`TopNCache::insert`]; a closed cache drops the response and evicts
    /// nothing.
    pub(crate) fn insert(&self, n: usize, response: TopNResponse) -> u64 {
        self.lock().as_mut().map_or(0, |cache| cache.insert(n, response))
    }

    /// Drops every entry and makes every later lookup miss.
    pub(crate) fn close(&self) {
        *self.lock() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(user: usize, n: usize) -> TopNResponse {
        TopNResponse {
            slot: "s".to_owned(),
            model_version: 1,
            incarnation: 0,
            user,
            items: (0..n).collect(),
            scores: vec![1.0; n],
        }
    }

    fn assert_hit(c: &mut TopNCache, user: usize, n: usize) {
        match c.get(user, n) {
            Some(r) => assert_eq!(r.user, user),
            None => panic!("expected hit for user {user}, n {n}"),
        }
    }

    /// The recency list's keys, most recently used first, after checking
    /// that its backward links mirror its forward ones.
    fn recency(c: &TopNCache) -> Vec<Key> {
        let mut order = Vec::new();
        let (mut i, mut prev) = (c.head, NIL);
        while i != NIL {
            assert_eq!(c.nodes[i].prev, prev, "backward link of node {i}");
            order.push(c.nodes[i].key);
            (prev, i) = (i, c.nodes[i].next);
        }
        assert_eq!(c.tail, prev);
        order
    }

    #[test]
    fn distinct_n_values_are_distinct_entries() {
        let mut c = TopNCache::new(8);
        c.insert(5, resp(2, 5));
        c.insert(10, resp(2, 10));
        assert_hit(&mut c, 2, 5);
        assert_hit(&mut c, 2, 10);
        assert_eq!(recency(&c), [(2, 10), (2, 5)]);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = TopNCache::new(2);
        c.insert(5, resp(0, 5));
        c.insert(5, resp(1, 5));
        // Touch user 0 so user 1 is the LRU victim.
        assert_hit(&mut c, 0, 5);
        assert_eq!(c.insert(5, resp(2, 5)), 1);
        assert_eq!(recency(&c), [(2, 5), (0, 5)]);
        assert_hit(&mut c, 0, 5);
        assert_hit(&mut c, 2, 5);
        assert_eq!(c.get(1, 5), None, "user 1 should have been evicted");
        assert_eq!(c.index.len(), 2);
        assert_eq!(c.nodes.len(), 2);
    }

    #[test]
    fn reinsert_does_not_evict_and_zero_capacity_disables() {
        let mut c = TopNCache::new(2);
        c.insert(5, resp(0, 5));
        c.insert(5, resp(1, 5));
        // Overwriting a live key is not growth: nothing is evicted.
        assert_eq!(c.insert(5, resp(0, 5)), 0);
        assert_eq!(recency(&c), [(0, 5), (1, 5)]);
        assert_hit(&mut c, 1, 5);

        let mut off = TopNCache::new(0);
        assert_eq!(off.insert(5, resp(0, 5)), 0);
        assert_eq!(off.get(0, 5), None, "a capacity-0 cache never hits");
    }

    #[test]
    fn repeated_hits_keep_one_recency_record_per_entry() {
        let mut c = TopNCache::new(8);
        c.insert(5, resp(1, 5));
        for _ in 0..10_000 {
            assert_hit(&mut c, 1, 5);
        }
        assert_eq!(c.index.len(), 1);
        assert_eq!(c.nodes.len(), 1, "hits must not grow the recency records");
        assert_eq!(recency(&c), [(1, 5)]);
    }

    #[test]
    fn matches_a_reference_lru_over_mixed_hits_and_inserts() {
        // Reference: keys ordered most recently used first.
        let mut reference: Vec<Key> = Vec::new();
        let mut c = TopNCache::new(4);
        let mut state: u64 = 7;
        for _ in 0..2_000 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let (user, n) = ((state >> 33) as usize % 8, 5 + (state >> 40) as usize % 2);
            let position = reference.iter().position(|&k| k == (user, n));
            if state >> 62 == 0 {
                let evicts = position.is_none() && reference.len() == 4;
                assert_eq!(c.insert(n, resp(user, n)), u64::from(evicts));
                if let Some(p) = position {
                    reference.remove(p);
                } else if evicts {
                    reference.pop();
                }
                reference.insert(0, (user, n));
            } else {
                assert_eq!(c.get(user, n).is_some(), position.is_some());
                if let Some(p) = position {
                    reference.remove(p);
                    reference.insert(0, (user, n));
                }
            }
            assert_eq!(recency(&c), reference);
        }
    }

    #[test]
    fn shared_cache_serves_hits_and_misses_once_closed() {
        let shared = SharedCache::new(8);
        assert_eq!(shared.hit(1, 5), None);
        assert_eq!(shared.insert(5, resp(1, 5)), 0);
        assert_eq!(shared.hit(1, 5), Some(resp(1, 5)));

        shared.close();
        assert_eq!(shared.hit(1, 5), None, "a closed cache never hits");
        assert_eq!(shared.insert(5, resp(2, 5)), 0);
        assert_eq!(shared.hit(2, 5), None, "a closed cache drops inserts");
    }
}
