//! The supervisor: owns slots, restarts crashed actors, swaps models.
//!
//! One [`Supervisor`] owns a set of named model slots. Each slot is an
//! actor ([`crate::actor`]) behind a version gate: requests clone the
//! current mailbox sender under a brief lock, so replacing the sender —
//! a restart or a zero-downtime swap — is atomic with respect to the
//! request path. The slot also holds the live incarnation's result cache,
//! so a cache hit is answered on the calling thread without touching the
//! mailbox; everything else goes to the actor. Crash handling is
//! supervision, not avoidance: a dead mailbox triggers
//! restart-from-snapshot plus a bounded, deterministic backoff retry of
//! the request itself; only an exhausted retry budget or an unrecoverable
//! store surfaces as a typed 503.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::actor::{self, ActorMsg, ActorSpec, Spawned, SweepResponse, TopNResponse};
use crate::cache::SharedCache;
use crate::error::ServeError;
use crate::ledger::Accountant;
use crate::snapshot::SnapshotStore;
use crate::ServeModel;

/// Supervision policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Root directory for per-slot snapshot stores.
    pub snapshot_dir: PathBuf,
    /// How many times a request is retried across actor restarts before it
    /// gives up with a typed 503.
    pub max_retries: u32,
    /// Base of the deterministic exponential backoff between retries
    /// (attempt `k` sleeps `backoff_base * 2^k`).
    pub backoff_base: Duration,
    /// How long an injected [`taamr_fault::FaultSite::ServeStall`] sleeps.
    /// Production leaves this at a value larger than any sane deadline;
    /// tests shrink it alongside their deadlines.
    pub stall: Duration,
    /// How long an actor waits for more top-N requests to join a scoring
    /// batch after the first arrives. Zero (the default) coalesces only
    /// requests already queued in the mailbox — amortisation under load
    /// with no added latency when idle.
    pub coalesce_window: Duration,
    /// Most top-N requests merged into one gathered scoring pass.
    pub max_coalesce: usize,
    /// Per-actor top-N result-cache capacity, in responses (0 disables
    /// the cache).
    pub cache_capacity: usize,
}

impl SupervisorConfig {
    /// A policy rooted at `snapshot_dir` with defaults sized for tests and
    /// benches: 2 retries, 10 ms backoff base, 200 ms injected stall,
    /// drain-only coalescing capped at 64 requests per batch, and a
    /// 4096-entry result cache.
    pub fn new(snapshot_dir: impl Into<PathBuf>) -> Self {
        SupervisorConfig {
            snapshot_dir: snapshot_dir.into(),
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            stall: Duration::from_millis(200),
            coalesce_window: Duration::ZERO,
            max_coalesce: 64,
            cache_capacity: 4096,
        }
    }
}

/// Mutable half of a slot, guarded by one mutex: the live mailbox sender,
/// the live incarnation's result cache, and the version gate.
struct SlotState {
    tx: Sender<ActorMsg>,
    cache: Arc<SharedCache>,
    join: Option<JoinHandle<()>>,
    /// Bumps on every restart and swap; used to deduplicate concurrent
    /// restart attempts (first observer wins, later ones no-op).
    incarnation: u64,
    /// The version gate: which model version this slot currently serves.
    model_version: u64,
    /// Set once recovery fails for good; all requests then 503 fast.
    failed: Option<String>,
}

struct Slot<M> {
    name: String,
    seen: Arc<Vec<Vec<usize>>>,
    store: Mutex<SnapshotStore>,
    state: Mutex<SlotState>,
    _marker: std::marker::PhantomData<fn() -> M>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Supervises a set of named model slots. See the module docs.
pub struct Supervisor<M: ServeModel> {
    config: SupervisorConfig,
    slots: Mutex<HashMap<String, Arc<Slot<M>>>>,
    accountant: Arc<Accountant>,
}

impl<M: ServeModel> Supervisor<M> {
    /// An empty supervisor with the given policy.
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor {
            config,
            slots: Mutex::new(HashMap::new()),
            accountant: Arc::new(Accountant::default()),
        }
    }

    /// The supervisor's event ledger (shared with the HTTP server).
    pub fn accountant(&self) -> Arc<Accountant> {
        Arc::clone(&self.accountant)
    }

    /// Creates a slot serving `model` at version 1: snapshots the model
    /// (generation 0) and spawns its first actor incarnation.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a duplicate name,
    /// [`ServeError::Snapshot`] when the initial snapshot cannot be
    /// written (the slot is not created).
    pub fn add_slot(&self, name: &str, model: M, seen: Vec<Vec<usize>>) -> Result<(), ServeError> {
        let mut slots = lock(&self.slots);
        if slots.contains_key(name) {
            return Err(ServeError::BadRequest { reason: format!("duplicate slot `{name}`") });
        }
        let mut store = SnapshotStore::open(&self.config.snapshot_dir, name)?;
        store.save(&model, 1)?;
        self.accountant.snapshot_write();
        let seen = Arc::new(seen);
        let Spawned { tx, cache, join } = self.spawn_actor(name, &seen, model, 1, 1);
        slots.insert(
            name.to_owned(),
            Arc::new(Slot {
                name: name.to_owned(),
                seen,
                store: Mutex::new(store),
                state: Mutex::new(SlotState {
                    tx,
                    cache,
                    join: Some(join),
                    incarnation: 1,
                    model_version: 1,
                    failed: None,
                }),
                _marker: std::marker::PhantomData,
            }),
        );
        Ok(())
    }

    /// Spawns an actor incarnation of `slot` serving `model` at
    /// `model_version`, with the supervisor's stall, coalescing and cache
    /// policy.
    fn spawn_actor(
        &self,
        slot: &str,
        seen: &Arc<Vec<Vec<usize>>>,
        model: M,
        model_version: u64,
        incarnation: u64,
    ) -> Spawned {
        actor::spawn(ActorSpec {
            slot: slot.to_owned(),
            model,
            model_version,
            incarnation,
            seen: Arc::clone(seen),
            stall: self.config.stall,
            accountant: Arc::clone(&self.accountant),
            coalesce_window: self.config.coalesce_window,
            max_coalesce: self.config.max_coalesce,
            cache_capacity: self.config.cache_capacity,
        })
    }

    fn slot(&self, name: &str) -> Result<Arc<Slot<M>>, ServeError> {
        lock(&self.slots)
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::SlotNotFound { slot: name.to_owned() })
    }

    /// Serves a top-`n` request against `slot` within `deadline`.
    ///
    /// A result-cache hit is answered on the calling thread; a miss goes to
    /// the slot's actor, which computes and caches the list. An actor crash
    /// mid-request is absorbed: the supervisor restarts the slot from its
    /// newest usable snapshot and retries, sleeping the deterministic
    /// backoff between attempts, until the retry budget or the deadline
    /// runs out.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] past the deadline,
    /// [`ServeError::SlotNotFound`] / [`ServeError::SlotUnavailable`] /
    /// [`ServeError::BadRequest`] as named, [`ServeError::Snapshot`] when
    /// recovery itself fails.
    pub fn top_n(
        &self,
        slot_name: &str,
        user: usize,
        n: usize,
        deadline: Duration,
    ) -> Result<TopNResponse, ServeError> {
        self.request(
            slot_name,
            deadline,
            |cache| cache.hit(user, n),
            |reply| ActorMsg::TopN { user, n, reply },
        )
    }

    /// Serves a sharded full-catalog sweep against `slot`: top-`n` lists for
    /// every user, streamed over `shard_users`-high user shards (`None` uses
    /// the default [`taamr_recsys::ShardPlan`] height) so the actor's peak
    /// score memory stays `O(shard × items)`. Same crash-recovery and retry
    /// semantics as [`Supervisor::top_n`]; size the deadline for a
    /// full-catalog evaluation, not a point lookup.
    ///
    /// # Errors
    ///
    /// As for [`Supervisor::top_n`], plus [`ServeError::BadRequest`] when
    /// `n` or `shard_users` is zero.
    pub fn sweep_top_n(
        &self,
        slot_name: &str,
        n: usize,
        shard_users: Option<usize>,
        deadline: Duration,
    ) -> Result<SweepResponse, ServeError> {
        self.request(
            slot_name,
            deadline,
            |_| None,
            |reply| ActorMsg::Sweep { n, shard_users, reply },
        )
    }

    /// The shared request loop: live-incarnation cache lookup or send,
    /// deadline-bounded reply wait, restart-and-retry on actor death.
    /// `cached` answers from the live incarnation's result cache (a hit is
    /// counted here); `make_msg` packages the reply sender into the actor
    /// message for the concrete request kind.
    fn request<T>(
        &self,
        slot_name: &str,
        deadline: Duration,
        cached: impl Fn(&SharedCache) -> Option<T>,
        make_msg: impl Fn(Sender<Result<T, ServeError>>) -> ActorMsg,
    ) -> Result<T, ServeError> {
        self.accountant.request();
        let slot = self.slot(slot_name)?;
        let start = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            let (tx, incarnation) = {
                let st = lock(&slot.state);
                if let Some(reason) = &st.failed {
                    return Err(ServeError::SlotUnavailable {
                        slot: slot.name.clone(),
                        reason: reason.clone(),
                    });
                }
                // Under the slot lock, so a hit is on the incarnation the
                // gate serves right now: a swap or kill that returned
                // earlier has already replaced or closed this cache.
                if let Some(resp) = cached(&st.cache) {
                    drop(st);
                    self.accountant.cache_hit();
                    self.accountant.ok();
                    return Ok(resp);
                }
                (st.tx.clone(), st.incarnation)
            };
            let (reply_tx, reply_rx) = mpsc::channel();
            let delivered = tx.send(make_msg(reply_tx)).is_ok();
            if delivered {
                let Some(remaining) = deadline.checked_sub(start.elapsed()).filter(|d| !d.is_zero())
                else {
                    return Err(self.timed_out(&slot.name, deadline));
                };
                match reply_rx.recv_timeout(remaining) {
                    Ok(Ok(resp)) => {
                        self.accountant.ok();
                        return Ok(resp);
                    }
                    Ok(Err(e)) => return Err(e),
                    Err(RecvTimeoutError::Timeout) => {
                        return Err(self.timed_out(&slot.name, deadline));
                    }
                    // The actor died mid-request; fall through to restart.
                    Err(RecvTimeoutError::Disconnected) => {}
                }
            }
            // The actor is dead (send failed, or it dropped our reply).
            // Heal the slot first — supervision is independent of this
            // request's retry budget — then decide whether to retry.
            self.restart(&slot, incarnation)?;
            if attempt >= self.config.max_retries {
                return Err(ServeError::SlotUnavailable {
                    slot: slot.name.clone(),
                    reason: format!("actor crashed; {attempt} retries exhausted"),
                });
            }
            self.accountant.retry();
            let backoff = self.config.backoff_base * (1u32 << attempt.min(16));
            if start.elapsed() + backoff >= deadline {
                return Err(self.timed_out(&slot.name, deadline));
            }
            std::thread::sleep(backoff);
            attempt += 1;
        }
    }

    fn timed_out(&self, slot: &str, deadline: Duration) -> ServeError {
        self.accountant.timeout();
        ServeError::Timeout { slot: slot.to_owned(), deadline_ms: deadline.as_millis() as u64 }
    }

    /// Restarts a slot whose actor died, restoring the model from the
    /// newest usable snapshot generation. Concurrent observers of the same
    /// crash deduplicate on `observed_incarnation`: only the first one
    /// actually restarts, the rest return immediately and re-send.
    fn restart(&self, slot: &Arc<Slot<M>>, observed_incarnation: u64) -> Result<(), ServeError> {
        let mut st = lock(&slot.state);
        if let Some(reason) = &st.failed {
            return Err(ServeError::SlotUnavailable {
                slot: slot.name.clone(),
                reason: reason.clone(),
            });
        }
        if st.incarnation != observed_incarnation {
            // Someone else already restarted (or swapped) this slot.
            return Ok(());
        }
        let restored = match lock(&slot.store).restore::<M>() {
            Ok(r) => r,
            Err(e) => {
                // Recovery is impossible; fail the slot for good so every
                // request gets a fast typed 503 instead of a retry storm.
                st.failed = Some(format!("restore failed: {e}"));
                return Err(ServeError::SlotUnavailable {
                    slot: slot.name.clone(),
                    reason: format!("restore failed: {e}"),
                });
            }
        };
        // Reap the dead thread; it already exited, so this cannot block.
        if let Some(handle) = st.join.take() {
            let _ = handle.join();
        }
        let incarnation = observed_incarnation + 1;
        let Spawned { tx, cache, join } =
            self.spawn_actor(&slot.name, &slot.seen, restored.model, restored.version, incarnation);
        st.tx = tx;
        st.cache = cache;
        st.join = Some(join);
        st.incarnation = incarnation;
        st.model_version = restored.version;
        drop(st);
        self.accountant.restart();
        Ok(())
    }

    /// Swaps `slot` to `model` with zero downtime: the replacement actor is
    /// spawned and warmed, the new model is snapshotted, and only then is
    /// the mailbox sender replaced — requests either land on the old actor
    /// (which drains) or the new one, never on nothing. Returns the new
    /// model version.
    ///
    /// # Errors
    ///
    /// [`ServeError::SlotNotFound`] for an unknown slot;
    /// [`ServeError::Snapshot`] when the new model cannot be snapshotted
    /// (the swap is refused and the old actor keeps serving).
    pub fn swap(&self, slot_name: &str, model: M) -> Result<u64, ServeError> {
        let slot = self.slot(slot_name)?;
        let (version, incarnation) = {
            let st = lock(&slot.state);
            (st.model_version + 1, st.incarnation + 1)
        };
        // Warm the replacement before touching the live sender.
        let Spawned { tx, cache, join } =
            self.spawn_actor(&slot.name, &slot.seen, model.clone(), version, incarnation);
        // Snapshot first: if the store is broken we refuse the swap and the
        // old actor keeps serving.
        lock(&slot.store).save(&model, version)?;
        self.accountant.snapshot_write();
        let (old_tx, old_join) = {
            let mut st = lock(&slot.state);
            let old_tx = std::mem::replace(&mut st.tx, tx);
            st.cache = cache;
            let old_join = st.join.replace(join);
            st.incarnation = incarnation;
            st.model_version = version;
            st.failed = None;
            (old_tx, old_join)
        };
        // Drain the old actor: everything already queued is still served.
        let _ = old_tx.send(ActorMsg::Drain);
        drop(old_tx);
        if let Some(handle) = old_join {
            let _ = handle.join();
        }
        self.accountant.swap();
        Ok(version)
    }

    /// Chaos hook: asks a slot's actor to die immediately (queued requests
    /// included). Its result cache closes before this returns, so the next
    /// request cannot hit it: it observes the crash and triggers recovery —
    /// this is what the bench's crash storm calls.
    ///
    /// # Errors
    ///
    /// [`ServeError::SlotNotFound`] for an unknown slot.
    pub fn kill(&self, slot_name: &str) -> Result<(), ServeError> {
        let slot = self.slot(slot_name)?;
        let st = lock(&slot.state);
        st.cache.close();
        let _ = st.tx.send(ActorMsg::Crash);
        Ok(())
    }

    /// The model version a slot currently serves.
    ///
    /// # Errors
    ///
    /// [`ServeError::SlotNotFound`] for an unknown slot.
    pub fn slot_version(&self, slot_name: &str) -> Result<u64, ServeError> {
        Ok(lock(&self.slot(slot_name)?.state).model_version)
    }

    /// The actor incarnation a slot is on (1 = never crashed or swapped).
    ///
    /// # Errors
    ///
    /// [`ServeError::SlotNotFound`] for an unknown slot.
    pub fn slot_incarnation(&self, slot_name: &str) -> Result<u64, ServeError> {
        Ok(lock(&self.slot(slot_name)?.state).incarnation)
    }

    /// Where a slot's snapshot generation lives (tests corrupt these).
    ///
    /// # Errors
    ///
    /// [`ServeError::SlotNotFound`] for an unknown slot.
    pub fn snapshot_path(&self, slot_name: &str, generation: u64) -> Result<PathBuf, ServeError> {
        Ok(lock(&self.slot(slot_name)?.store).generation_path(generation))
    }

    /// Drains every actor and joins their threads.
    pub fn shutdown(&self) {
        let slots: Vec<Arc<Slot<M>>> = lock(&self.slots).values().cloned().collect();
        for slot in slots {
            let (tx, join) = {
                let mut st = lock(&slot.state);
                (st.tx.clone(), st.join.take())
            };
            let _ = tx.send(ActorMsg::Drain);
            drop(tx);
            if let Some(handle) = join {
                let _ = handle.join();
            }
        }
    }
}

impl<M: ServeModel> Drop for Supervisor<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
