//! Model-slot actors: one thread, one model, one scoring engine.
//!
//! An actor owns a model plus its warmed [`ScoringEngine`] and serves
//! requests from an mpsc mailbox. Crashing is part of the protocol: a panic
//! mid-request (injected via [`FaultSite::ServeActorPanic`] or real) is
//! caught at the loop boundary, the mailbox is dropped, and every sender —
//! the supervisor's request path — observes a disconnect and triggers
//! restart-from-snapshot. Stalls ([`FaultSite::ServeStall`]) sleep through
//! the caller's deadline; the late reply lands in a dropped channel.
//!
//! # The hot path: coalescing and the result cache
//!
//! Cache hits never reach the actor. Each incarnation shares its result
//! cache (`(user, n) →` response) with its slot as a [`SharedCache`], and
//! the supervisor answers a hit on the request thread. Every valid top-N
//! request the actor receives has therefore missed: the actor counts the
//! miss, scores it and inserts the list — it is the cache's only writer.
//! Two concurrent requests for the same list may both miss and both be
//! scored; the second insert replaces the first with identical bytes. The
//! actor closes the cache on any exit — a caught panic, `Crash` or
//! `Drain` — so a dead incarnation's lists are unreachable; see the
//! [`crate::cache`] docs for the invalidation argument.
//!
//! Top-N requests that do reach the mailbox are drained as *batches*: when
//! one arrives, the actor keeps pulling queued `TopN` messages (and, with a
//! positive coalescing window, waits out the window for more) up to the
//! batch cap, then answers the whole batch from one
//! [`ScoringEngine::score_gather`] call — one GEMM pass amortised across
//! every user in the batch. The GEMM per-element contract makes each
//! response bitwise identical to the serial per-request answer, so
//! coalescing is purely a throughput optimisation, invisible in the
//! payload. Per-request fault ordinals (stall/panic injection) count the
//! requests the actor receives, in arrival order, before scoring — a hit
//! answered on the request thread takes no ordinal. A mid-batch panic
//! drops every unanswered reply in the batch, and each sender retries
//! through the supervisor exactly as if its own request had crashed.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use taamr_fault::FaultSite;
use taamr_recsys::{top_n_with, ScoreBlock, ScoringEngine, SelectionScratch, ShardPlan};

use crate::cache::SharedCache;
use crate::error::ServeError;
use crate::ledger::Accountant;
use crate::ServeModel;

/// A served recommendation list, annotated with where it came from: the
/// slot, the model version behind the gate, and the actor incarnation that
/// computed it. Tests read the version/incarnation fields to prove swap
/// cliffs are clean and restarts actually happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopNResponse {
    /// Slot that served the request.
    pub slot: String,
    /// Model version behind the slot's version gate.
    pub model_version: u64,
    /// Actor incarnation (bumps on every restart and swap).
    pub incarnation: u64,
    /// The user the list is for.
    pub user: usize,
    /// Recommended item indices, best first.
    pub items: Vec<usize>,
    /// Scores aligned with `items` (bit-exact across restarts).
    pub scores: Vec<f32>,
}

/// A full-catalog sweep: top-`n` lists for *every* user of a slot's model,
/// streamed over bounded user shards so peak score memory is
/// `O(shard × items)` regardless of the user count. This is the serving-side
/// twin of the offline CHR@N evaluation — the route an operator hits to
/// audit what a deployed (possibly attacked) model would recommend to the
/// whole user base.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResponse {
    /// Slot that served the sweep.
    pub slot: String,
    /// Model version behind the slot's version gate.
    pub model_version: u64,
    /// Actor incarnation that computed the sweep.
    pub incarnation: u64,
    /// Shard height the sweep streamed with.
    pub shard_users: usize,
    /// Number of shards streamed (`ceil(users / shard_users)`).
    pub num_shards: usize,
    /// Per-user recommendation lists, indexed by user, best first.
    pub lists: Vec<Vec<usize>>,
}

/// Mailbox protocol between supervisor and actor.
pub(crate) enum ActorMsg {
    /// Serve a top-`n` request; the answer goes to `reply`.
    TopN { user: usize, n: usize, reply: Sender<Result<TopNResponse, ServeError>> },
    /// Serve a sharded full-catalog sweep; the answer goes to `reply`.
    Sweep {
        n: usize,
        shard_users: Option<usize>,
        reply: Sender<Result<SweepResponse, ServeError>>,
    },
    /// Chaos: die immediately, dropping everything still queued.
    Crash,
    /// Finish the messages already queued ahead of this one, then exit.
    Drain,
}

/// Everything an actor needs to start serving.
pub(crate) struct ActorSpec<M> {
    pub slot: String,
    pub model: M,
    pub model_version: u64,
    pub incarnation: u64,
    pub seen: Arc<Vec<Vec<usize>>>,
    pub stall: Duration,
    /// The supervisor's accountant, for cache/coalescing events.
    pub accountant: Arc<Accountant>,
    /// How long the actor waits for more `TopN` requests to join a batch
    /// after the first arrives. Zero (the default) drains only requests
    /// already queued — no added latency.
    pub coalesce_window: Duration,
    /// Most `TopN` requests merged into one scoring batch.
    pub max_coalesce: usize,
    /// Top-N result-cache capacity (0 disables caching).
    pub cache_capacity: usize,
}

/// A spawned actor incarnation: its mailbox, the result cache it shares
/// with the slot, and its thread.
pub(crate) struct Spawned {
    /// The only mailbox handle; when the actor dies (crash or drain) the
    /// channel disconnects.
    pub tx: Sender<ActorMsg>,
    /// The incarnation's result cache, closed when the actor exits.
    pub cache: Arc<SharedCache>,
    /// The actor thread.
    pub join: JoinHandle<()>,
}

/// Spawns the actor thread with a warm scoring engine.
pub(crate) fn spawn<M: ServeModel>(spec: ActorSpec<M>) -> Spawned {
    let (tx, rx) = mpsc::channel();
    let cache = Arc::new(SharedCache::new(spec.cache_capacity));
    let actor_cache = Arc::clone(&cache);
    let join = std::thread::spawn(move || run(spec, rx, actor_cache));
    Spawned { tx, cache, join }
}

/// Closes the incarnation's shared cache when the actor thread leaves
/// [`run`], however it leaves.
struct CloseOnExit(Arc<SharedCache>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One queued top-N request awaiting a batched answer.
struct PendingTopN {
    user: usize,
    n: usize,
    reply: Sender<Result<TopNResponse, ServeError>>,
}

fn run<M: ServeModel>(spec: ActorSpec<M>, rx: Receiver<ActorMsg>, cache: Arc<SharedCache>) {
    let cache = CloseOnExit(cache);
    let ActorSpec {
        slot,
        model,
        model_version,
        incarnation,
        seen,
        stall,
        accountant,
        coalesce_window,
        max_coalesce,
        cache_capacity: _,
    } = spec;
    let mut engine = ScoringEngine::for_model(&model);
    let mut block = ScoreBlock::new();
    let mut scratch = SelectionScratch::new();
    let max_coalesce = max_coalesce.max(1);
    // Per-actor request ordinal: the fault index for ServeActorPanic and
    // ServeStall, assigned in arrival order to the requests this actor
    // receives (a hit answered on a request thread takes none).
    let mut served: u64 = 0;
    // A non-TopN message pulled off the mailbox while collecting a batch;
    // processed before the next receive.
    let mut pending: Option<ActorMsg> = None;
    loop {
        let msg = match pending.take() {
            Some(msg) => msg,
            None => match rx.recv() {
                Ok(msg) => msg,
                // Every sender gone: the supervisor dropped this slot.
                Err(_) => return,
            },
        };
        match msg {
            ActorMsg::TopN { user, n, reply } => {
                let mut batch = vec![PendingTopN { user, n, reply }];
                pending = collect_batch(&rx, &mut batch, coalesce_window, max_coalesce);
                if batch.len() > 1 {
                    accountant.coalesced(batch.len() as u64);
                }
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    serve_batch(
                        &slot,
                        &model,
                        &mut engine,
                        &mut block,
                        &mut scratch,
                        &cache.0,
                        &accountant,
                        &seen,
                        model_version,
                        incarnation,
                        stall,
                        &mut served,
                        &batch,
                    )
                }));
                match outcome {
                    Ok(()) => {}
                    // Crash mid-batch: every unanswered `reply` in the
                    // batch drops; each sender sees a disconnect and the
                    // supervisor restarts us, then retries per request.
                    Err(_) => return,
                }
            }
            ActorMsg::Sweep { n, shard_users, reply } => {
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    serve_sweep(
                        &slot,
                        &model,
                        &mut engine,
                        &seen,
                        model_version,
                        incarnation,
                        n,
                        shard_users,
                    )
                }));
                match outcome {
                    Ok(result) => {
                        let _ = reply.send(result);
                    }
                    // Same crash protocol as TopN: die, let supervision heal.
                    Err(_) => return,
                }
            }
            ActorMsg::Crash => return,
            ActorMsg::Drain => return,
        }
    }
}

/// Pulls additional `TopN` messages into `batch`, up to `max_coalesce`,
/// draining what is already queued and — with a positive window — waiting
/// out the window for stragglers. A non-`TopN` message ends collection and
/// is returned for the main loop to process next.
fn collect_batch(
    rx: &Receiver<ActorMsg>,
    batch: &mut Vec<PendingTopN>,
    window: Duration,
    max_coalesce: usize,
) -> Option<ActorMsg> {
    let deadline =
        if window.is_zero() { None } else { Some(std::time::Instant::now() + window) };
    while batch.len() < max_coalesce {
        let next = match deadline {
            None => match rx.try_recv() {
                Ok(msg) => msg,
                Err(_) => return None,
            },
            Some(deadline) => {
                let now = std::time::Instant::now();
                if now >= deadline {
                    return None;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(msg) => msg,
                    Err(_) => return None,
                }
            }
        };
        match next {
            ActorMsg::TopN { user, n, reply } => batch.push(PendingTopN { user, n, reply }),
            other => return Some(other),
        }
    }
    None
}

/// Serves one drained batch: per-request fault ordinals in arrival order,
/// validation, then a single [`ScoringEngine::score_gather`] over every
/// valid request (each one a cache miss).
#[allow(clippy::too_many_arguments)]
fn serve_batch<M: ServeModel>(
    slot: &str,
    model: &M,
    engine: &mut ScoringEngine,
    block: &mut ScoreBlock,
    scratch: &mut SelectionScratch,
    cache: &SharedCache,
    accountant: &Accountant,
    seen: &[Vec<usize>],
    model_version: u64,
    incarnation: u64,
    stall: Duration,
    served: &mut u64,
    batch: &[PendingTopN],
) {
    // Fault checks first, one ordinal per request in arrival order —
    // exactly the sequence a serial loop would produce, so stall/crash
    // injection tests see the same indices regardless of batching.
    for _req in batch {
        let ordinal = *served;
        *served += 1;
        if taamr_fault::fire(FaultSite::ServeStall, ordinal) {
            std::thread::sleep(stall);
        }
        if taamr_fault::fire(FaultSite::ServeActorPanic, ordinal) {
            panic!("injected serving-actor crash (ServeActorPanic #{ordinal})");
        }
    }

    // Validation. A valid request reached the actor because it missed the
    // cache on its request thread; it queues for the gathered scoring pass.
    let mut compute: Vec<&PendingTopN> = Vec::with_capacity(batch.len());
    for req in batch {
        if req.user >= model.num_users() {
            let err = ServeError::BadRequest {
                reason: format!(
                    "user {} out of range ({} users)",
                    req.user,
                    model.num_users()
                ),
            };
            let _ = req.reply.send(Err(err));
            continue;
        }
        if req.n == 0 {
            let err = ServeError::BadRequest { reason: "n must be positive".to_owned() };
            let _ = req.reply.send(Err(err));
            continue;
        }
        accountant.cache_miss();
        compute.push(req);
    }
    if compute.is_empty() {
        return;
    }

    // One gathered scoring pass for every miss. Duplicate users (same user,
    // different n) are allowed; each request reads its own row.
    let users: Vec<usize> = compute.iter().map(|req| req.user).collect();
    if engine.score_gather(model, &users, block).is_err() {
        // The typed StaleEngine path: refresh the plan cache and retry.
        engine.ensure(model);
        if let Err(e) = engine.score_gather(model, &users, block) {
            // The actor owns the model exclusively, so a just-ensured
            // engine cannot be stale again.
            unreachable!("scoring engine stale immediately after refresh: {e}");
        }
    }
    for (row_idx, req) in compute.iter().enumerate() {
        let row = block.row(row_idx);
        let exclude = seen.get(req.user).map_or(&[][..], |s| s.as_slice());
        let items = top_n_with(row, req.n, exclude, scratch);
        let scores = items.iter().map(|&i| row[i]).collect();
        let response = TopNResponse {
            slot: slot.to_owned(),
            model_version,
            incarnation,
            user: req.user,
            items,
            scores,
        };
        for _ in 0..cache.insert(req.n, response.clone()) {
            accountant.cache_eviction();
        }
        let _ = req.reply.send(Ok(response));
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_sweep<M: ServeModel>(
    slot: &str,
    model: &M,
    engine: &mut ScoringEngine,
    seen: &[Vec<usize>],
    model_version: u64,
    incarnation: u64,
    n: usize,
    shard_users: Option<usize>,
) -> Result<SweepResponse, ServeError> {
    if n == 0 {
        return Err(ServeError::BadRequest { reason: "n must be positive".to_owned() });
    }
    if shard_users == Some(0) {
        return Err(ServeError::BadRequest { reason: "shard must be positive".to_owned() });
    }
    let plan = match shard_users {
        Some(s) => ShardPlan::new(model.num_users(), s),
        None => ShardPlan::default_for(model.num_users()),
    };
    let seen_of = |u: usize| seen.get(u).map_or(&[][..], |s| s.as_slice());
    let lists = match engine.par_top_n_all_sharded(model, n, seen_of, &plan) {
        Ok(lists) => lists,
        Err(_stale) => {
            // Same typed-StaleEngine protocol as the single-user path:
            // refresh the plan cache and retry once.
            engine.ensure(model);
            match engine.par_top_n_all_sharded(model, n, seen_of, &plan) {
                Ok(lists) => lists,
                // The actor owns the model exclusively, so a just-ensured
                // engine cannot be stale again.
                Err(e) => unreachable!("scoring engine stale immediately after refresh: {e}"),
            }
        }
    };
    Ok(SweepResponse {
        slot: slot.to_owned(),
        model_version,
        incarnation,
        shard_users: plan.shard_users(),
        num_shards: plan.num_shards(),
        lists,
    })
}
