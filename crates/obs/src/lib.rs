//! Spans, counters and run telemetry for the TAaMR pipeline.
//!
//! This crate is the reproduction's observability layer: lightweight enough
//! to stay compiled into every build, and carefully designed so that turning
//! it on cannot change a single bit of any scientific output.
//!
//! # The determinism contract
//!
//! Instrumented runs are **bitwise identical** to uninstrumented runs. That
//! holds because of three rules, in decreasing order of subtlety:
//!
//! 1. **Counters are order-independent integer sums.** Every counter is a
//!    process-global [`AtomicU64`] bumped with relaxed ordering; per-thread
//!    increments merge through the atomic regardless of interleaving, so the
//!    final value depends only on *how many* events happened — which the
//!    deterministic parallel contract (see `taamr::parallel`) already pins
//!    down — never on thread count or scheduling.
//! 2. **Counting sites are thread-invariant.** Instrumentation hooks sit at
//!    semantic API entry points (one bump per `gemm` call, per sampled
//!    triplet, per attack gradient step), not at implementation artifacts
//!    like "per worker" or "per model clone" whose multiplicity varies with
//!    the thread count. Even derived kernel counters obey this: the GEMM
//!    panel-pack counter records the *canonical serial schedule's* pack
//!    count at the `gemm` entry point, not the packs each thread actually
//!    performed.
//!
//!    There are two documented carve-outs. The allocator-health counters
//!    ([`Counter::ScratchReuseHits`] / [`Counter::ScratchGrows`]): scratch
//!    arenas are per-thread, so how often a buffer grows versus gets reused
//!    genuinely depends on how work was scheduled. And the serving
//!    accountant counters (`serve_*`): they meter a live service — external
//!    request load, deadline expiries, queue pressure and crash recovery —
//!    so their values follow wall-clock behaviour, not the deterministic
//!    parallel contract. Both classes count operational behaviour, not
//!    scientific events; [`Counter::thread_invariant`] separates the
//!    classes so invariance checks can filter them.
//! 3. **Timing lives only in the telemetry export.** Span wall-times are
//!    recorded into the telemetry registry and written to `telemetry.json`;
//!    they are never folded into reports, seeds, or control flow.
//!
//! # Usage
//!
//! Observability is off by default and costs one relaxed atomic load per
//! hook when disabled. Enable it programmatically with [`set_enabled`] or
//! from the environment with [`init_from_env`] (`TAAMR_OBS=1`, or
//! `TAAMR_OBS=2` for a stderr summary at exit of the bench binaries):
//!
//! ```
//! taamr_obs::reset();
//! taamr_obs::set_enabled(true);
//! {
//!     let _guard = taamr_obs::span("stage:demo");
//!     taamr_obs::incr(taamr_obs::Counter::GemmCalls);
//! }
//! let telemetry = taamr_obs::snapshot();
//! assert_eq!(telemetry.counter("gemm_calls"), Some(1));
//! assert!(telemetry.spans.iter().any(|s| s.name == "stage:demo"));
//! taamr_obs::set_enabled(false);
//! ```

#![deny(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Version of the `telemetry.json` layout; bump on any schema change so
/// downstream tooling can reject files it does not understand.
///
/// v4 added the replay counters (`replay_commands`,
/// `replay_record_writes`, `replay_record_reads`). v5 added the serving
/// accountant counters (`serve_requests`, `serve_ok`, `serve_timeouts`,
/// `serve_sheds`, `serve_retries`, `serve_restarts`, `serve_swaps`,
/// `serve_snapshot_writes`). v6 added the attack-suite counters
/// (`attack_queries`, `attack_oracle_cache_hits`, `embed_attack_steps`),
/// all thread-invariant. v7 added the sharded-scoring counters
/// (`scoring_shards` and an i8-path score-block counter), both
/// thread-invariant — shard and block patterns are pure functions of the
/// shard plan. v8 added the serving hot-path counters (`serve_cache_hits`,
/// `serve_cache_misses`, `serve_cache_evictions`, `serve_coalesced_batches`,
/// `serve_coalesced_requests`), all scheduling-dependent like the rest of
/// the serve accountant family — hit rates and batch shapes depend on
/// request arrival timing. v9 removed the i8-path score-block counter
/// together with the i8 scoring path it counted.
pub const TELEMETRY_SCHEMA: u32 = 9;

/// Declares [`Counter`], [`COUNTERS`], [`Counter::name`] and
/// [`Counter::thread_invariant`] from one table, so the four cannot drift
/// apart. Each row is `Variant => "snake_case_name", invariant: bool;`, in
/// export order; `invariant` says whether the count is pinned by the
/// deterministic parallel contract (see the crate docs carve-outs).
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $variant:ident => $name:literal, invariant: $invariant:literal;)+) => {
        /// The process-wide monotonic counters.
        ///
        /// Every variant is a semantic event whose multiplicity is pinned by
        /// the deterministic parallel contract, so counts are invariant under
        /// the thread count (see the crate docs). The discriminant indexes the
        /// backing atomic.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[doc = $doc])+ $variant,)+
        }

        /// All counters, in export order.
        pub const COUNTERS: [Counter; [$(Counter::$variant),+].len()] = [$(Counter::$variant),+];

        impl Counter {
            /// The stable snake_case name used in `telemetry.json`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }

            /// Whether this counter's value is pinned by the deterministic
            /// parallel contract (`true` for every semantic event counter), or
            /// may legitimately differ across runs at different thread counts
            /// (`false`): the scratch allocator-health counters reflect
            /// per-thread memory behaviour, and the serving accountant counters
            /// reflect external load and wall-clock effects (timeouts, queue
            /// pressure, crash recovery).
            pub fn thread_invariant(self) -> bool {
                match self {
                    $(Counter::$variant => $invariant,)+
                }
            }
        }
    };
}

counters! {
    /// General matrix-matrix multiplications entering `taamr_tensor::gemm`.
    GemmCalls => "gemm_calls", invariant: true;
    /// `im2col` buffer materialisations in the convolution lowering.
    Im2colCalls => "im2col_calls", invariant: true;
    /// `col2im` scatter passes in the convolution backward lowering.
    Col2imCalls => "col2im_calls", invariant: true;
    /// Triplets drawn by the BPR `TripletSampler` (one per (u, i, j) draw).
    SamplerDraws => "sampler_draws", invariant: true;
    /// Gradient steps taken inside iterative attacks (FGSM counts 1).
    AttackGradSteps => "attack_grad_steps", invariant: true;
    /// Items perturbed by an attack batch (one per attacked image).
    AttackItems => "attack_items", invariant: true;
    /// Stage or cell checkpoints restored from a valid file.
    CheckpointHits => "checkpoint_hits", invariant: true;
    /// Stage or cell checkpoints that were absent or invalid and re-ran.
    CheckpointMisses => "checkpoint_misses", invariant: true;
    /// Dataset reports served from the on-disk report cache.
    ReportCacheHits => "report_cache_hits", invariant: true;
    /// Dataset reports recomputed because no valid cache entry existed.
    ReportCacheMisses => "report_cache_misses", invariant: true;
    /// CNN training epochs rolled back by the divergence guard.
    CnnRollbacks => "cnn_rollbacks", invariant: true;
    /// Pairwise (VBPR/AMR) epochs rolled back by the divergence guard.
    PairwiseRollbacks => "pairwise_rollbacks", invariant: true;
    /// CNN training epochs completed (retries included).
    CnnEpochs => "cnn_epochs", invariant: true;
    /// Pairwise (VBPR/AMR) training epochs completed (retries included).
    PairwiseEpochs => "pairwise_epochs", invariant: true;
    /// Operand panels packed by the GEMM kernel, counted as the canonical
    /// serial schedule's pack count at the `gemm` entry point (so the value
    /// is thread-invariant even though parallel tasks re-pack B slivers).
    GemmPanelPacks => "gemm_panel_packs", invariant: true;
    /// Scratch-arena requests satisfied by an existing allocation.
    /// Scheduling-dependent — see the crate docs carve-out.
    ScratchReuseHits => "scratch_reuse_hits", invariant: false;
    /// Scratch-arena requests that had to grow the allocation.
    /// Scheduling-dependent — see the crate docs carve-out.
    ScratchGrows => "scratch_grows", invariant: false;
    /// GEMMs issued by the recsys scoring engine (batched score blocks and
    /// item-embedding cache rebuilds). Counted at the engine entry points
    /// with a fixed user-block size, so the value is thread-invariant.
    ScoringGemmCalls => "scoring_gemm_calls", invariant: true;
    /// Scoring-engine `ensure` calls satisfied by a fresh item-embedding
    /// cache (model version unchanged since the last rebuild).
    EmbedCacheHits => "embed_cache_hits", invariant: true;
    /// Scoring-engine item-embedding cache (re)builds: first use, or the
    /// model's scoring version moved (training step / feature swap).
    EmbedCacheRebuilds => "embed_cache_rebuilds", invariant: true;
    /// Pipeline-level commands captured by an installed replay recorder.
    ReplayCommands => "replay_commands", invariant: true;
    /// Experiment record files written (atomic header+payload saves).
    ReplayRecordWrites => "replay_record_writes", invariant: true;
    /// Experiment record files read and fully validated.
    ReplayRecordReads => "replay_record_reads", invariant: true;
    /// Recommendation requests accepted by the serving layer (after load
    /// shedding). Driven by external load — see the serve carve-out in the
    /// crate docs.
    ServeRequests => "serve_requests", invariant: false;
    /// Serving requests answered with a recommendation list.
    ServeOk => "serve_ok", invariant: false;
    /// Serving requests that hit their deadline and were answered with a
    /// typed timeout instead of hanging.
    ServeTimeouts => "serve_timeouts", invariant: false;
    /// Connections rejected with 429 because the request queue was full.
    ServeSheds => "serve_sheds", invariant: false;
    /// Request retries after an actor crash (deterministic backoff path).
    ServeRetries => "serve_retries", invariant: false;
    /// Actor restarts performed by the supervisor (crash recovery).
    ServeRestarts => "serve_restarts", invariant: false;
    /// Zero-downtime model swaps completed by the supervisor.
    ServeSwaps => "serve_swaps", invariant: false;
    /// Actor-state snapshots written to the serving snapshot store.
    ServeSnapshotWrites => "serve_snapshot_writes", invariant: false;
    /// Score-oracle queries debited against a black-box attacker's query
    /// ledger (cache hits are free and counted separately). Counted per
    /// (item, query) at the oracle entry point, so the value is
    /// thread-invariant.
    AttackQueries => "attack_queries", invariant: true;
    /// Score-oracle queries answered from the per-item memo cache without
    /// touching the ledger (e.g. the attacker's final validation re-query).
    AttackOracleCacheHits => "attack_oracle_cache_hits", invariant: true;
    /// Gradient steps taken by embedding-space attackers, counted per
    /// attacked item at the attack entry point.
    EmbedAttackSteps => "embed_attack_steps", invariant: true;
    /// User shards streamed by the recsys sharded scoring driver (one per
    /// shard of a `par_top_n_all` / `par_item_ranks` call). Shard boundaries
    /// are a pure function of the `ShardPlan`, so the value is
    /// thread-invariant.
    ScoringShards => "scoring_shards", invariant: true;
    /// `/recommend` requests answered from an actor's version-keyed top-N
    /// result cache. Driven by request timing — see the serve carve-out.
    ServeCacheHits => "serve_cache_hits", invariant: false;
    /// `/recommend` requests that missed the top-N result cache (absent
    /// entry or version-stale entry) and were recomputed.
    ServeCacheMisses => "serve_cache_misses", invariant: false;
    /// Top-N cache entries evicted by the LRU capacity bound.
    ServeCacheEvictions => "serve_cache_evictions", invariant: false;
    /// Coalesced scoring batches drained by actors (only batches that
    /// merged two or more requests are counted).
    ServeCoalescedBatches => "serve_coalesced_batches", invariant: false;
    /// Requests answered as part of a coalesced batch (the sum of the
    /// sizes of the batches counted by `serve_coalesced_batches`).
    ServeCoalescedRequests => "serve_coalesced_requests", invariant: false;
}

const N_COUNTERS: usize = COUNTERS.len();

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTS: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];
static ENABLED: AtomicBool = AtomicBool::new(false);
static VERBOSE: AtomicBool = AtomicBool::new(false);

/// Aggregated wall-time per span name. Kept sorted by name so exports are
/// deterministic regardless of completion order.
static SPANS: Mutex<Vec<(String, SpanAgg)>> = Mutex::new(Vec::new());

/// Per-epoch training telemetry, appended by the trainers in epoch order.
static EPOCHS: Mutex<Vec<EpochRecord>> = Mutex::new(Vec::new());

#[derive(Debug, Clone, Copy, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
}

/// Turns telemetry collection on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry collection is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether verbose mode (`TAAMR_OBS=2`) was requested: bench binaries print
/// a stderr summary at exit when set.
pub fn verbose() -> bool {
    VERBOSE.load(Ordering::Relaxed)
}

/// Applies the `TAAMR_OBS` environment switch and reports whether telemetry
/// ended up enabled.
///
/// * unset, `0`, `off`, `false` — disabled;
/// * `1`, `on`, `true` — enabled;
/// * `2`, `verbose` — enabled, plus [`verbose`] for a stderr summary.
pub fn init_from_env() -> bool {
    let raw = std::env::var("TAAMR_OBS").unwrap_or_default();
    let (on, loud) = match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "on" | "true" => (true, false),
        "2" | "verbose" => (true, true),
        _ => (false, false),
    };
    set_enabled(on);
    VERBOSE.store(loud, Ordering::Relaxed);
    on
}

/// Bumps a counter by one. A no-op (one relaxed load) when disabled.
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Bumps a counter by `n`. A no-op (one relaxed load) when disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        COUNTS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of a counter.
pub fn counter_value(counter: Counter) -> u64 {
    COUNTS[counter as usize].load(Ordering::Relaxed)
}

/// Clears every counter, span aggregate and epoch record. Intended for tests
/// and for bench binaries that time several configurations in one process.
pub fn reset() {
    for c in &COUNTS {
        c.store(0, Ordering::Relaxed);
    }
    SPANS.lock().expect("span registry poisoned").clear();
    EPOCHS.lock().expect("epoch registry poisoned").clear();
}

/// A scoped RAII timer: created by [`span`], records its wall-time into the
/// registry under its name when dropped. Inert when telemetry is disabled.
#[must_use = "a span measures the scope it is alive in; bind it to a guard variable"]
pub struct Span {
    name: Option<String>,
    start: Instant,
}

impl Span {
    /// Discards the span without recording it.
    pub fn cancel(mut self) {
        self.name = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else { return };
        let elapsed_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut spans = SPANS.lock().expect("span registry poisoned");
        match spans.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
            Ok(i) => {
                spans[i].1.count += 1;
                spans[i].1.total_ns += elapsed_ns;
            }
            Err(i) => spans.insert(i, (name, SpanAgg { count: 1, total_ns: elapsed_ns })),
        }
    }
}

/// Opens a named span covering the guard's lifetime. Repeated spans with the
/// same name aggregate (count + total wall-time). When telemetry is disabled
/// the guard is inert and records nothing.
pub fn span(name: impl Into<String>) -> Span {
    Span {
        name: if enabled() { Some(name.into()) } else { None },
        start: Instant::now(),
    }
}

/// One training epoch as reported by a trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// The pipeline stage the trainer ran under (e.g. `"cnn"`, `"amr"`).
    pub stage: String,
    /// Zero-based epoch index.
    pub epoch: u32,
    /// Mean training loss over the epoch.
    pub loss: f64,
    /// Stage-specific secondary metric (accuracy for the CNN, retry count
    /// for pairwise trainers).
    pub metric: f64,
}

/// Appends a per-epoch record to the telemetry sink. A no-op when disabled.
pub fn record_epoch(stage: &str, epoch: usize, loss: f64, metric: f64) {
    if !enabled() {
        return;
    }
    let record = EpochRecord {
        stage: stage.to_owned(),
        epoch: u32::try_from(epoch).unwrap_or(u32::MAX),
        loss,
        metric,
    };
    EPOCHS.lock().expect("epoch registry poisoned").push(record);
}

/// Aggregated wall-time for one span name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanStat {
    /// The span name passed to [`span`].
    pub name: String,
    /// How many spans with this name completed.
    pub count: u64,
    /// Total wall-time across those spans, in nanoseconds.
    pub total_ns: u64,
}

/// One exported counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterStat {
    /// The counter's stable name ([`Counter::name`]).
    pub name: String,
    /// Its value at snapshot time.
    pub value: u64,
}

/// A point-in-time export of the whole telemetry registry — the payload of
/// `telemetry.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Layout version ([`TELEMETRY_SCHEMA`]).
    pub schema: u32,
    /// Span aggregates, sorted by name.
    pub spans: Vec<SpanStat>,
    /// Every counter (zeros included), in [`COUNTERS`] order.
    pub counters: Vec<CounterStat>,
    /// Per-epoch training records, in completion order.
    pub epochs: Vec<EpochRecord>,
}

impl Telemetry {
    /// Looks up a counter by its stable name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Looks up a span aggregate by name.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// A compact human-readable summary (used by `TAAMR_OBS=2`).
    pub fn summary(&self) -> String {
        let mut out = String::from("telemetry summary\n");
        for s in &self.spans {
            let ms = s.total_ns as f64 / 1e6;
            out.push_str(&format!("  span {:<24} x{:<5} {ms:>10.1} ms\n", s.name, s.count));
        }
        for c in self.counters.iter().filter(|c| c.value > 0) {
            out.push_str(&format!("  counter {:<21} {}\n", c.name, c.value));
        }
        out
    }
}

/// Exports the current telemetry state. Counters are read individually with
/// relaxed ordering; concurrent increments may or may not be included, so
/// snapshot after the instrumented work completes.
pub fn snapshot() -> Telemetry {
    let spans = SPANS
        .lock()
        .expect("span registry poisoned")
        .iter()
        .map(|(name, agg)| SpanStat { name: name.clone(), count: agg.count, total_ns: agg.total_ns })
        .collect();
    let counters = COUNTERS
        .iter()
        .map(|&c| CounterStat { name: c.name().to_owned(), value: counter_value(c) })
        .collect();
    let epochs = EPOCHS.lock().expect("epoch registry poisoned").clone();
    Telemetry { schema: TELEMETRY_SCHEMA, spans, counters, epochs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The registry is process-global and Rust runs tests concurrently, so
    /// every test that touches it holds this lock.
    static GATE: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        guard
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = exclusive();
        incr(Counter::GemmCalls);
        add(Counter::GemmCalls, 4);
        incr(Counter::AttackItems);
        assert_eq!(counter_value(Counter::GemmCalls), 5);
        assert_eq!(counter_value(Counter::AttackItems), 1);
        reset();
        assert_eq!(counter_value(Counter::GemmCalls), 0);
        set_enabled(false);
    }

    #[test]
    fn disabled_hooks_are_inert() {
        let _g = exclusive();
        set_enabled(false);
        incr(Counter::GemmCalls);
        record_epoch("cnn", 0, 1.0, 0.5);
        drop(span("stage:noop"));
        let t = snapshot();
        assert_eq!(t.counter("gemm_calls"), Some(0));
        assert!(t.spans.is_empty());
        assert!(t.epochs.is_empty());
    }

    #[test]
    fn spans_aggregate_by_name_in_sorted_order() {
        let _g = exclusive();
        drop(span("b"));
        drop(span("a"));
        drop(span("b"));
        let t = snapshot();
        let names: Vec<_> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(t.span("b").unwrap().count, 2);
        set_enabled(false);
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let _g = exclusive();
        span("cancelled").cancel();
        assert!(snapshot().spans.is_empty());
        set_enabled(false);
    }

    #[test]
    fn snapshot_exports_every_counter_even_zeros() {
        let _g = exclusive();
        let t = snapshot();
        assert_eq!(t.counters.len(), COUNTERS.len());
        assert!(t.counters.len() >= 8, "the telemetry contract promises >= 8 counters");
        for (stat, c) in t.counters.iter().zip(COUNTERS) {
            assert_eq!(stat.name, c.name());
        }
        set_enabled(false);
    }

    #[test]
    fn scratch_and_serve_counters_are_the_only_scheduling_dependent_ones() {
        let variant: Vec<_> = COUNTERS.iter().filter(|c| !c.thread_invariant()).collect();
        assert_eq!(
            variant,
            [
                &Counter::ScratchReuseHits,
                &Counter::ScratchGrows,
                &Counter::ServeRequests,
                &Counter::ServeOk,
                &Counter::ServeTimeouts,
                &Counter::ServeSheds,
                &Counter::ServeRetries,
                &Counter::ServeRestarts,
                &Counter::ServeSwaps,
                &Counter::ServeSnapshotWrites,
                &Counter::ServeCacheHits,
                &Counter::ServeCacheMisses,
                &Counter::ServeCacheEvictions,
                &Counter::ServeCoalescedBatches,
                &Counter::ServeCoalescedRequests,
            ]
        );
        assert!(Counter::GemmPanelPacks.thread_invariant());
        assert_eq!(Counter::GemmPanelPacks.name(), "gemm_panel_packs");
        assert_eq!(Counter::ScratchReuseHits.name(), "scratch_reuse_hits");
        assert_eq!(Counter::ScratchGrows.name(), "scratch_grows");
        // The scoring-engine counters sit at fixed-block semantic entry
        // points and therefore promise thread invariance.
        assert!(Counter::ScoringGemmCalls.thread_invariant());
        assert!(Counter::EmbedCacheHits.thread_invariant());
        assert!(Counter::EmbedCacheRebuilds.thread_invariant());
        assert_eq!(Counter::ScoringGemmCalls.name(), "scoring_gemm_calls");
        assert_eq!(Counter::EmbedCacheHits.name(), "embed_cache_hits");
        assert_eq!(Counter::EmbedCacheRebuilds.name(), "embed_cache_rebuilds");
        // Replay counters count semantic command/file events recorded on
        // the orchestrating thread, so they are thread-invariant too.
        assert!(Counter::ReplayCommands.thread_invariant());
        assert_eq!(Counter::ReplayCommands.name(), "replay_commands");
        assert_eq!(Counter::ReplayRecordWrites.name(), "replay_record_writes");
        assert_eq!(Counter::ReplayRecordReads.name(), "replay_record_reads");
        // The serving accountant meters live-service behaviour (load,
        // deadlines, recovery), so none of its counters promise invariance.
        assert!(!Counter::ServeRequests.thread_invariant());
        assert_eq!(Counter::ServeRequests.name(), "serve_requests");
        assert_eq!(Counter::ServeSnapshotWrites.name(), "serve_snapshot_writes");
        // The hot-path additions (result cache, coalescing) are timing
        // artefacts of request arrival, so they join the serve carve-out.
        assert!(!Counter::ServeCacheHits.thread_invariant());
        assert!(!Counter::ServeCoalescedBatches.thread_invariant());
        assert_eq!(Counter::ServeCacheHits.name(), "serve_cache_hits");
        assert_eq!(Counter::ServeCacheMisses.name(), "serve_cache_misses");
        assert_eq!(Counter::ServeCacheEvictions.name(), "serve_cache_evictions");
        assert_eq!(Counter::ServeCoalescedBatches.name(), "serve_coalesced_batches");
        assert_eq!(Counter::ServeCoalescedRequests.name(), "serve_coalesced_requests");
    }

    #[test]
    fn counter_names_are_unique_snake_case() {
        let mut names: Vec<_> = COUNTERS.iter().map(|c| c.name()).collect();
        for name in &names {
            let snake = !name.is_empty()
                && name.starts_with(|c: char| c.is_ascii_lowercase())
                && !name.ends_with('_')
                && !name.contains("__")
                && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            assert!(snake, "counter name {name:?} is not snake_case");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTERS.len(), "counter names must be unique");
    }

    #[test]
    fn telemetry_round_trips_through_json() {
        let _g = exclusive();
        incr(Counter::SamplerDraws);
        record_epoch("vbpr", 3, 0.25, 1.0);
        drop(span("stage:cnn"));
        let t = snapshot();
        let json = serde_json::to_string(&t).expect("telemetry serialises");
        let back: Telemetry = serde_json::from_str(&json).expect("telemetry deserialises");
        assert_eq!(back, t);
        set_enabled(false);
    }
}
