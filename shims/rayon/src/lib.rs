//! Minimal, dependency-free stand-in for `rayon`.
//!
//! The build environment has no network access, so the workspace vendors the
//! exact surface it uses: `into_par_iter` on ranges and vectors,
//! `par_chunks` / `par_chunks_mut` on slices, and `map` / `map_init` /
//! `enumerate` / `for_each` / `collect` on the resulting iterator.
//!
//! # Execution model
//!
//! Parallel calls run on a **persistent worker pool**: worker threads are
//! spawned once (lazily, up to the highest thread count ever requested) and
//! then sleep on a condition variable between parallel regions, so the
//! per-region cost is a mutex push + wakeup instead of a `thread::spawn` +
//! join round trip. That fixed cost is what used to cap the packed-panel
//! GEMM at ~1.0× parallel/serial: spawning scoped threads per call costs
//! hundreds of microseconds, which is the entire runtime of a 256³ product.
//!
//! Within a region, items are split into more contiguous, ordered chunks
//! than workers (up to [`CHUNKS_PER_WORKER`] per thread) and workers *steal*
//! chunks off a shared atomic counter — a work-stealing-friendly block
//! partition: a worker that finishes early takes the next unclaimed chunk
//! instead of idling behind a static assignment. The calling thread
//! participates in the stealing too, so a region can always finish even if
//! every pool worker is busy serving some other region.
//!
//! Scheduling can never reorder results: outputs are reassembled by chunk
//! index, so a `map` over N items returns exactly the Vec the serial loop
//! would produce. Combined with the per-item seed derivation used by the
//! attack layer, this is what makes every parallel path in the workspace
//! bitwise-independent of thread count *and* of which worker ran which
//! chunk.
//!
//! # Thread policy
//!
//! The effective thread count is resolved, in priority order, from:
//! 1. the innermost active [`with_threads`] override (used by tests/benches),
//! 2. the `TAAMR_THREADS` environment variable,
//! 3. the `RAYON_NUM_THREADS` environment variable (upstream compat),
//! 4. `std::thread::available_parallelism()`.
//!
//! Building with `--features serial` pins the count to 1 everywhere, and
//! nested parallel calls always run inline on the calling thread so a
//! parallel attack batch that calls into parallel gemm cannot explode the
//! thread count.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Thread policy
// ---------------------------------------------------------------------------

/// Stack of `with_threads` overrides; the top entry wins.
static OVERRIDES: Mutex<Vec<usize>> = Mutex::new(Vec::new());
/// Cheap mirror of `OVERRIDES.last()` so the hot path skips the lock.
static OVERRIDE_TOP: AtomicUsize = AtomicUsize::new(0);

fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        let parse = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        };
        parse("TAAMR_THREADS")
            .or_else(|| parse("RAYON_NUM_THREADS"))
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            })
    })
}

thread_local! {
    /// Set while a thread is executing chunks of a parallel region (pool
    /// workers and the participating caller alike); nested parallel calls on
    /// such a thread run inline.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// The number of threads parallel constructs will use right now.
pub fn current_num_threads() -> usize {
    if cfg!(feature = "serial") {
        return 1;
    }
    if IN_PARALLEL_REGION.with(|f| f.get()) {
        return 1;
    }
    match OVERRIDE_TOP.load(Ordering::Acquire) {
        0 => env_threads(),
        n => n,
    }
}

/// True when the `serial` cargo feature pinned everything to one thread.
pub fn serial_feature_enabled() -> bool {
    cfg!(feature = "serial")
}

/// Runs `f` with the thread count pinned to `n` (process-wide), restoring the
/// previous policy afterwards — including on panic. Overrides nest; the
/// innermost wins. The `serial` feature still takes precedence.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            let mut stack = OVERRIDES.lock().unwrap_or_else(|e| e.into_inner());
            stack.pop();
            OVERRIDE_TOP.store(stack.last().copied().unwrap_or(0), Ordering::Release);
        }
    }
    let n = n.max(1);
    {
        let mut stack = OVERRIDES.lock().unwrap_or_else(|e| e.into_inner());
        stack.push(n);
        OVERRIDE_TOP.store(n, Ordering::Release);
    }
    let _guard = Guard;
    f()
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// Upper bound on chunks per participating thread. More chunks than threads
/// is what makes the partition work-stealing-friendly: a straggler holds up
/// at most `1/CHUNKS_PER_WORKER` of one thread's share instead of a whole
/// static chunk.
pub const CHUNKS_PER_WORKER: usize = 4;

/// Hard cap on pool workers, a backstop against pathological
/// `with_threads(huge)` calls. Regions still complete above the cap — the
/// caller and however many workers exist steal every chunk.
const MAX_POOL_WORKERS: usize = 128;

/// A type-erased reference to a live [`Region`] on some caller's stack.
///
/// Soundness: the caller that posted this job blocks until every popped copy
/// has retired (see `run_region`) and revokes unpopped copies from the queue
/// before returning, so the pointee strictly outlives every dereference.
#[derive(Clone, Copy)]
struct Job {
    region: *const (),
    run: unsafe fn(*const ()),
}

// SAFETY: the region behind the pointer is Sync (all shared state is atomics,
// mutexes, or index-claimed UnsafeCells) and outlives the job per the
// contract above.
unsafe impl Send for Job {}

struct PoolState {
    queue: VecDeque<Job>,
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { queue: VecDeque::new(), workers: 0 }),
        work_cv: Condvar::new(),
    })
}

impl Pool {
    /// Grows the pool to at least `want` workers (capped). Workers are
    /// detached daemon threads that live for the rest of the process.
    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_POOL_WORKERS);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.workers < want {
            st.workers += 1;
            let name = format!("taamr-par-{}", st.workers);
            // Spawn failure is unrecoverable resource exhaustion; the region
            // still completes on the caller thread, so just stop growing.
            if std::thread::Builder::new().name(name).spawn(worker_main).is_err() {
                st.workers -= 1;
                break;
            }
        }
    }

    /// Posts `copies` references to `job` and wakes workers.
    fn post(&self, job: Job, copies: usize) {
        if copies == 0 {
            return;
        }
        {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            for _ in 0..copies {
                st.queue.push_back(job);
            }
        }
        if copies == 1 {
            self.work_cv.notify_one();
        } else {
            self.work_cv.notify_all();
        }
    }

    /// Removes every queued copy pointing at `region`; returns how many were
    /// removed (i.e. never popped by a worker).
    fn revoke(&self, region: *const ()) -> usize {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let before = st.queue.len();
        st.queue.retain(|j| !std::ptr::eq(j.region, region));
        before - st.queue.len()
    }
}

fn worker_main() {
    let pool = pool();
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                st = pool.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        IN_PARALLEL_REGION.with(|flag| flag.set(true));
        // Worker-side panics are captured inside the region (per chunk), so
        // this unwinding is a defensive impossibility guard: a worker thread
        // must never die, or queued jobs could strand.
        let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.region) }));
        IN_PARALLEL_REGION.with(|flag| flag.set(false));
    }
}

// ---------------------------------------------------------------------------
// Fork-join region
// ---------------------------------------------------------------------------

struct RegionStatus {
    /// Popped job copies that have finished touching the region.
    retired: usize,
}

/// One parallel call's shared state, living on the caller's stack for the
/// duration of `run_chunked`.
struct Region<'env, I, O, S, INIT, F> {
    /// Chunk payloads: `(start index, items)`, claimed exactly once via
    /// `next` so each cell is read by one thread.
    #[allow(clippy::type_complexity)]
    chunks: Vec<UnsafeCell<Option<(usize, Vec<I>)>>>,
    /// Per-chunk outputs, written by whichever thread claimed the chunk and
    /// read by the caller after the completion barrier.
    results: Vec<UnsafeCell<Option<Vec<O>>>>,
    /// The steal counter: `fetch_add` hands out chunk indices.
    next: AtomicUsize,
    init: &'env INIT,
    f: &'env F,
    status: Mutex<RegionStatus>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// `S` only appears inside the worker bodies; anchor it for inference.
    _state: std::marker::PhantomData<fn() -> S>,
}

// SAFETY: chunk/result cells are accessed under the exclusive-claim protocol
// (unique index from `next`, completion barrier before the caller reads);
// everything else is Sync by construction. `S` never crosses threads — each
// worker builds its own via `init`.
unsafe impl<I: Send, O: Send, S, INIT: Sync, F: Sync> Sync for Region<'_, I, O, S, INIT, F> {}

impl<I, O, S, INIT, F> Region<'_, I, O, S, INIT, F>
where
    I: Send,
    O: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, usize, I) -> O + Sync,
{
    /// Steals and runs chunks until the counter is exhausted. Panics from
    /// `init`/`f` are recorded (first wins) and the loop continues, so every
    /// chunk is always claimed and the caller's completion barrier cannot
    /// hang; the caller re-raises after the barrier.
    fn work(&self) {
        let mut state: Option<S> = None;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks.len() {
                break;
            }
            // SAFETY: `i` came from the shared counter exactly once, so this
            // thread has exclusive access to cell `i`; the payload was
            // written before the job was posted (release via the pool/status
            // mutexes).
            let (start, items) = unsafe { (*self.chunks[i].get()).take() }
                .expect("chunk claimed twice");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let st = match &mut state {
                    Some(st) => st,
                    none => none.insert((self.init)()),
                };
                items
                    .into_iter()
                    .enumerate()
                    .map(|(d, item)| (self.f)(st, start + d, item))
                    .collect::<Vec<O>>()
            }));
            match outcome {
                // SAFETY: same exclusive claim as above.
                Ok(out) => unsafe { *self.results[i].get() = Some(out) },
                Err(payload) => {
                    let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    slot.get_or_insert(payload);
                    // The per-worker state may be mid-mutation; rebuild it.
                    state = None;
                }
            }
        }
    }
}

/// The type-erased entry a pool worker runs. Retirement is counted in a drop
/// guard so the caller's barrier advances even on (impossible) unwinds.
unsafe fn run_region<I, O, S, INIT, F>(ptr: *const ())
where
    I: Send,
    O: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, usize, I) -> O + Sync,
{
    let region = unsafe { &*(ptr as *const Region<'_, I, O, S, INIT, F>) };
    struct Retire<'a> {
        status: &'a Mutex<RegionStatus>,
        cv: &'a Condvar,
    }
    impl Drop for Retire<'_> {
        fn drop(&mut self) {
            let mut st = self.status.lock().unwrap_or_else(|e| e.into_inner());
            st.retired += 1;
            // Notify before unlocking. Once the lock is released the caller
            // can see the final count (woken by an earlier retire's notify)
            // and return, freeing the region and its condvar on its stack;
            // a notify after that would write into the caller's reused
            // stack.
            self.cv.notify_all();
            drop(st);
        }
    }
    let _retire = Retire { status: &region.status, cv: &region.done_cv };
    region.work();
}

/// Splits `items` into contiguous, ordered chunks (up to
/// [`CHUNKS_PER_WORKER`] per participating thread), runs them across the
/// persistent pool plus the calling thread, and reassembles outputs in input
/// order. `init` runs at most once per participating thread.
fn run_chunked<I, O, S, INIT, F>(items: Vec<I>, init: INIT, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, usize, I) -> O + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        let mut state = init();
        return items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| f(&mut state, idx, item))
            .collect();
    }

    // Contiguous ordered partition into more chunks than threads, so early
    // finishers steal the remainder. The first `rem` chunks get one extra
    // item; boundaries depend only on `n` and the thread policy, never on
    // scheduling.
    let num_chunks = n.min(threads * CHUNKS_PER_WORKER);
    let base = n / num_chunks;
    let rem = n % num_chunks;
    let mut chunks = Vec::with_capacity(num_chunks);
    let mut it = items.into_iter();
    let mut start = 0;
    for c in 0..num_chunks {
        let size = base + usize::from(c < rem);
        chunks.push(UnsafeCell::new(Some((start, it.by_ref().take(size).collect::<Vec<I>>()))));
        start += size;
    }

    let region = Region {
        chunks,
        results: (0..num_chunks).map(|_| UnsafeCell::new(None)).collect(),
        next: AtomicUsize::new(0),
        init: &init,
        f: &f,
        status: Mutex::new(RegionStatus { retired: 0 }),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
        _state: std::marker::PhantomData,
    };

    let pool = pool();
    let helpers = threads - 1;
    pool.ensure_workers(helpers);
    let job = Job {
        region: &region as *const _ as *const (),
        run: run_region::<I, O, S, INIT, F>,
    };
    pool.post(job, helpers);

    // The caller participates in the steal loop; nested parallel calls made
    // by `f` on this thread must run inline, exactly as they do on workers.
    let was_in_region = IN_PARALLEL_REGION.with(|flag| flag.replace(true));
    region.work();
    IN_PARALLEL_REGION.with(|flag| flag.set(was_in_region));

    // Completion barrier: drop the queue copies no worker ever picked up,
    // then wait for every picked-up copy to retire. After this, no other
    // thread holds a reference into `region`.
    let revoked = pool.revoke(job.region);
    let expected = helpers - revoked;
    {
        let mut st = region.status.lock().unwrap_or_else(|e| e.into_inner());
        while st.retired < expected {
            st = region.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    if let Some(payload) = region.panic.lock().unwrap_or_else(|e| e.into_inner()).take() {
        std::panic::resume_unwind(payload);
    }

    let mut flat = Vec::with_capacity(n);
    for cell in region.results {
        flat.extend(cell.into_inner().expect("all chunks completed"));
    }
    flat
}

// ---------------------------------------------------------------------------
// Parallel iterator (eager, materialized, order-preserving)
// ---------------------------------------------------------------------------

/// An ordered collection of items about to be processed in parallel.
///
/// Every adapter is eager: `map` runs the closure across threads immediately
/// and materializes the outputs in input order.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn map<O, F>(self, f: F) -> ParIter<O>
    where
        O: Send,
        F: Fn(T) -> O + Sync,
    {
        ParIter {
            items: run_chunked(self.items, || (), |_, _, item| f(item)),
        }
    }

    /// `map` with per-thread scratch state, created once per worker thread.
    pub fn map_init<S, O, INIT, F>(self, init: INIT, f: F) -> ParIter<O>
    where
        O: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> O + Sync,
    {
        ParIter {
            items: run_chunked(self.items, init, |state, _, item| f(state, item)),
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run_chunked(self.items, || (), |_, _, item| f(item));
    }

    /// `for_each` with per-thread scratch state.
    pub fn for_each_init<S, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) + Sync,
    {
        run_chunked(self.items, init, |state, _, item| f(state, item));
    }

    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    pub fn collect<C: FromParallelIterator<T>>(self) -> C {
        C::from_par_iter(self.items)
    }

    /// Upstream-compat no-op: chunk boundaries here are already derived from
    /// the item count and thread policy alone.
    pub fn with_min_len(self, _min: usize) -> Self {
        self
    }
}

/// Collections buildable from an ordered parallel iterator.
pub trait FromParallelIterator<T> {
    fn from_par_iter(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter(items: Vec<T>) -> Self {
        items
    }
}

/// Fallible collection: `Ok` of the collected successes, or the first error
/// in input order. (Upstream rayon short-circuits; this eager shim evaluates
/// every item first, which only costs wasted work, never a different
/// result.)
impl<T, E, C: FromParallelIterator<T>> FromParallelIterator<Result<T, E>> for Result<C, E> {
    fn from_par_iter(items: Vec<Result<T, E>>) -> Self {
        let mut ok = Vec::with_capacity(items.len());
        for item in items {
            ok.push(item?);
        }
        Ok(C::from_par_iter(ok))
    }
}

/// Conversion into a [`ParIter`].
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for Range<u64> {
    type Item = u64;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Parallel views over shared slices.
pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
    fn par_iter(&self) -> ParIter<&T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "par_chunks: chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }

    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Parallel views over mutable slices (disjoint chunks, so no locking).
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "par_chunks_mut: chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }

    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn order_is_thread_count_invariant() {
        let serial: Vec<usize> = with_threads(1, || {
            (0..257usize).into_par_iter().map(|i| i * i).collect()
        });
        for threads in [2, 3, 8] {
            let par: Vec<usize> = with_threads(threads, || {
                (0..257usize).into_par_iter().map(|i| i * i).collect()
            });
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_regions() {
        let mut data = vec![0u64; 100];
        data.par_chunks_mut(7).enumerate().for_each(|(ci, chunk)| {
            for v in chunk.iter_mut() {
                *v = ci as u64;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / 7) as u64);
        }
    }

    #[test]
    fn map_init_runs_init_once_per_thread() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out: Vec<usize> = with_threads(4, || {
            (0..64usize)
                .into_par_iter()
                .map_init(
                    || {
                        inits.fetch_add(1, Ordering::SeqCst);
                        0usize
                    },
                    |_, i| i,
                )
                .collect()
        });
        assert_eq!(out.len(), 64);
        assert!(inits.load(Ordering::SeqCst) <= 4);
    }

    #[test]
    fn with_threads_restores_policy() {
        let outer = current_num_threads();
        with_threads(3, || {
            if !serial_feature_enabled() {
                assert_eq!(current_num_threads(), 3);
            }
            with_threads(2, || {
                if !serial_feature_enabled() {
                    assert_eq!(current_num_threads(), 2);
                }
            });
        });
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                (0..16usize).into_par_iter().for_each(|i| {
                    if i == 11 {
                        panic!("boom");
                    }
                });
            })
        });
        assert!(result.is_err());
        assert_eq!(current_num_threads(), current_num_threads());
    }

    #[test]
    fn pool_survives_a_panicking_region() {
        // A panic in one region must not kill pool workers: the next region
        // still completes and returns ordered results.
        let _ = std::panic::catch_unwind(|| {
            with_threads(4, || {
                (0..32usize).into_par_iter().for_each(|i| {
                    if i % 7 == 3 {
                        panic!("recoverable");
                    }
                });
            })
        });
        let out: Vec<usize> = with_threads(4, || {
            (0..128usize).into_par_iter().map(|i| i + 1).collect()
        });
        assert_eq!(out, (1..=128).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallelism_runs_inline() {
        with_threads(4, || {
            (0..8usize).into_par_iter().for_each(|_| {
                // Inside a worker, further parallel calls must not spawn.
                assert_eq!(current_num_threads(), 1);
            });
        });
    }

    #[test]
    fn concurrent_regions_from_many_threads_complete() {
        // Several OS threads each drive their own regions through the one
        // shared pool; every region must finish with correct, ordered output
        // even when workers are busy serving someone else.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for round in 0..8 {
                        let out: Vec<usize> = with_threads(4, || {
                            (0..200usize).into_par_iter().map(|i| i * 3 + t + round).collect()
                        });
                        assert_eq!(
                            out,
                            (0..200).map(|i| i * 3 + t + round).collect::<Vec<_>>()
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("concurrent region thread");
        }
    }

    #[test]
    fn results_are_identical_regardless_of_chunk_count() {
        // Chunk boundaries vary with the thread policy; outputs must not.
        let expect: Vec<u64> = (0..997u64).map(|i| i.wrapping_mul(2654435761)).collect();
        for threads in [1, 2, 3, 5, 8, 16] {
            let got: Vec<u64> = with_threads(threads, || {
                (0..997u64).into_par_iter().map(|i| i.wrapping_mul(2654435761)).collect()
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }
}
