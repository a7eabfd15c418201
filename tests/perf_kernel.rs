//! Perf regression guards for the packed GEMM kernel.
//!
//! Wall-clock assertions are hostile to loaded CI boxes, so these tests
//! self-skip unless `TAAMR_PERF_TESTS=1` is set (verify.sh sets it for its
//! perf-smoke step). When enabled they run in smoke form: a handful of
//! median-of-5 samples with generous headroom, tuned to catch order-of-
//! magnitude scheduling regressions rather than percent-level drift.
//!
//! Two contracts, gated on the host's actual core count:
//!
//! - **Single-core hosts** (`available_parallelism() < 2`): the ambient
//!   pool resolves to one worker and the parallel entry point runs the
//!   identical serial schedule, so parallel dispatch must not *cost*
//!   anything beyond noise. The scaling smoke self-skips with a printed
//!   reason — a speedup assertion on one core measures only overhead.
//! - **Multi-core hosts**: an 8-thread gemm_256 must be at least 1.5×
//!   faster than serial. The shared-pack schedule packs each `op(B)`
//!   sliver once regardless of worker count, so anything below 1.5× on
//!   real cores means the partition or the pack-reuse path regressed.

use std::time::Instant;

use taamr::parallel::with_threads;
use taamr_tensor::{gemm, seeded_rng, Tensor, Transpose};

/// True unless the caller opted in via `TAAMR_PERF_TESTS=1`.
fn perf_tests_disabled() -> bool {
    if std::env::var("TAAMR_PERF_TESTS").as_deref() == Ok("1") {
        return false;
    }
    eprintln!("perf_kernel: skipped (set TAAMR_PERF_TESTS=1 to enable)");
    true
}

/// Cores the OS will actually give us; 1 when the query fails.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median-of-5 wall time of one 256³ GEMM, in nanoseconds.
fn time_gemm_256(threads: Option<usize>) -> u128 {
    let a = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut seeded_rng(0));
    let b = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut seeded_rng(1));
    let mut c = Tensor::zeros(&[256, 256]);
    let mut run = || {
        let t0 = Instant::now();
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c).unwrap();
        t0.elapsed().as_nanos()
    };
    let mut timed = || match threads {
        Some(t) => with_threads(t, &mut run),
        None => run(),
    };
    timed(); // warm the scratch arena and caches
    let mut samples: Vec<u128> = (0..5).map(|_| timed()).collect();
    samples.sort_unstable();
    samples[2]
}

/// Single-core contract: parallel dispatch is free (within noise) when the
/// pool has one worker. Doubles as the only wall-clock gate available on
/// one-core CI hosts, where a scaling assertion would be meaningless.
#[test]
fn gemm_256_parallel_dispatch_is_not_slower_than_serial() {
    if perf_tests_disabled() {
        return;
    }
    // Best-of-3 medians: the smoke form retries the whole measurement so a
    // single scheduler hiccup on a shared box cannot fail the gate.
    let mut best_ratio = f64::INFINITY;
    for attempt in 0..3 {
        let serial = time_gemm_256(Some(1));
        let parallel = time_gemm_256(None); // ambient pool, as the pipeline runs it
        let ratio = parallel as f64 / serial as f64;
        eprintln!(
            "gemm_256 attempt {attempt}: serial {serial} ns, parallel {parallel} ns, \
             parallel/serial {ratio:.3}"
        );
        best_ratio = best_ratio.min(ratio);
        if best_ratio <= 1.25 {
            return;
        }
    }
    // 25% headroom absorbs timer noise and, on single-core hosts, the cost
    // of resolving the (empty) parallel dispatch. A real scheduling
    // regression — like the historical 0.851 "speedup" would have implied
    // if it had been signal — blows well past this on all three attempts.
    panic!("parallel gemm_256 is {best_ratio:.3}x serial; dispatch overhead regressed");
}

/// Multi-core contract: gemm_256 at 8 threads is ≥ 1.5× serial. This is
/// the scaling smoke the sharded-scoring work targets — the shared-pack
/// schedule keeps packing cost flat across workers, so the 8-thread run
/// should comfortably clear half of ideal 2-core scaling even on busy
/// boxes. Self-skips (with the reason printed) when the host cannot
/// schedule two threads at once: measured "speedup" there is pure
/// coordination overhead, not kernel behaviour.
#[test]
fn gemm_256_parallel_scales_on_multicore_hosts() {
    if perf_tests_disabled() {
        return;
    }
    let cores = host_cores();
    if cores < 2 {
        eprintln!(
            "perf_kernel: scaling smoke skipped — available_parallelism()={cores}; \
             a single core cannot exhibit parallel speedup, only scheduling overhead"
        );
        return;
    }
    let mut best_speedup = 0.0f64;
    for attempt in 0..3 {
        let serial = time_gemm_256(Some(1));
        let parallel = time_gemm_256(Some(8));
        let speedup = serial as f64 / parallel as f64;
        eprintln!(
            "gemm_256 attempt {attempt}: serial {serial} ns, 8-thread {parallel} ns, \
             speedup {speedup:.3}"
        );
        best_speedup = best_speedup.max(speedup);
        if best_speedup >= 1.5 {
            return;
        }
    }
    panic!(
        "gemm_256 8-thread speedup is {best_speedup:.3}x on a {cores}-core host; \
         parallel schedule stopped scaling"
    );
}
