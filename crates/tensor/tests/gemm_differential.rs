//! Differential harness: packed-panel GEMM vs a canonical-order scalar model.
//!
//! The packed kernel in `taamr_tensor::gemm` promises more than approximate
//! correctness — it promises an exact, *fixed summation order*: for every
//! element `C[i,j]`, beta-scale first, then for each `GEMM_KC`-aligned block
//! of the shared dimension in ascending order, add a block partial sum
//! accumulated from zero over `p` ascending as `(alpha·op(A)[i,p])·op(B)[p,j]`.
//! That order depends only on `GEMM_KC` — never on the cache blocking, the
//! micro-tile, or the thread count.
//!
//! The reference model below replicates that contract with three nested
//! scalar loops and nothing else. If the two ever differ by a single bit on
//! any shape, transpose combination, or alpha/beta, either the kernel's
//! packing or its dispatch (including the AVX2 clone) broke the contract.

use proptest::prelude::*;
use taamr_tensor::{
    gemm, gemm_blocked_scheduled, seeded_rng, GemmSchedule, GemmScratch, Tensor, Transpose,
    GEMM_BLOCKING, GEMM_KC,
};

/// Scalar model of the kernel's summation-order contract.
///
/// Deliberately mirrors the public semantics, not the implementation: beta
/// pre-scale (exact zero fill when `beta == 0`), early-out when
/// `alpha == 0` or any dimension is empty, then KC-blocked ascending
/// accumulation with alpha folded into the A operand.
fn reference_gemm(
    alpha: f32,
    a: &Tensor,
    ta: Transpose,
    b: &Tensor,
    tb: Transpose,
    beta: f32,
    c: &mut Tensor,
) {
    let (m, k) = match ta {
        Transpose::No => (a.dims()[0], a.dims()[1]),
        Transpose::Yes => (a.dims()[1], a.dims()[0]),
    };
    let n = match tb {
        Transpose::No => b.dims()[1],
        Transpose::Yes => b.dims()[0],
    };
    let at = |i: usize, p: usize| match ta {
        Transpose::No => a.at(&[i, p]),
        Transpose::Yes => a.at(&[p, i]),
    };
    let bt = |p: usize, j: usize| match tb {
        Transpose::No => b.at(&[p, j]),
        Transpose::Yes => b.at(&[j, p]),
    };

    if beta == 0.0 {
        for v in c.as_mut_slice() {
            *v = 0.0;
        }
    } else if beta != 1.0 {
        for v in c.as_mut_slice() {
            *v *= beta;
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    for i in 0..m {
        for j in 0..n {
            for p0 in (0..k).step_by(GEMM_KC) {
                let mut block = 0.0f32;
                for p in p0..(p0 + GEMM_KC).min(k) {
                    block += (alpha * at(i, p)) * bt(p, j);
                }
                let slot = i * n + j;
                c.as_mut_slice()[slot] += block;
            }
        }
    }
}

fn operand(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::rand_uniform(&[rows, cols], -2.0, 2.0, &mut seeded_rng(seed))
}

/// Bit patterns of a tensor's elements, for exact comparison with NaN safety.
fn bits(t: &Tensor) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Dimension pool stressing every boundary the blocking can mishandle:
/// empty, single, primes straddling `MR`/`NR`/`MC`, and sizes past `KC`.
const DIMS: &[usize] = &[0, 1, 2, 3, 5, 7, 8, 13, 16, 17, 31, 33, 64, 65, 131, 257];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_kernel_is_bitwise_identical_to_reference(
        m in proptest::sample::select(DIMS.to_vec()),
        k in proptest::sample::select(DIMS.to_vec()),
        n in proptest::sample::select(DIMS.to_vec()),
        ta in proptest::sample::select(vec![Transpose::No, Transpose::Yes]),
        tb in proptest::sample::select(vec![Transpose::No, Transpose::Yes]),
        alpha in proptest::sample::select(vec![0.0f32, 1.0, 0.5, -1.25]),
        beta in proptest::sample::select(vec![0.0f32, 1.0, 0.375, -0.5]),
        seed in 0u64..1000,
    ) {
        let a = match ta {
            Transpose::No => operand(m, k, seed),
            Transpose::Yes => operand(k, m, seed),
        };
        let b = match tb {
            Transpose::No => operand(k, n, seed + 1),
            Transpose::Yes => operand(n, k, seed + 1),
        };
        let c0 = operand(m, n, seed + 2);

        let mut got = c0.clone();
        gemm(alpha, &a, ta, &b, tb, beta, &mut got).expect("shapes are consistent");
        let mut want = c0.clone();
        reference_gemm(alpha, &a, ta, &b, tb, beta, &mut want);

        prop_assert!(
            bits(&got) == bits(&want),
            "kernel diverged from canonical order: m={} k={} n={} ta={:?} tb={:?} alpha={} beta={}",
            m, k, n, ta, tb, alpha, beta
        );
    }
}

/// The parallel schedules (row panels and column stripes) must also land on
/// the reference bits — partitioning may only move *where* work happens,
/// never the per-element accumulation sequence.
#[test]
fn parallel_schedules_match_reference_bitwise() {
    // (m, k, n): a cube that takes the row-panel path at 2 threads, and a
    // short-wide product that forces the column-stripe path at 8.
    for &(m, k, n) in &[(256usize, 256usize, 256usize), (16, 144, 4096)] {
        for &(ta, tb) in
            &[(Transpose::No, Transpose::No), (Transpose::Yes, Transpose::No), (Transpose::No, Transpose::Yes)]
        {
            let a = match ta {
                Transpose::No => operand(m, k, 11),
                Transpose::Yes => operand(k, m, 11),
            };
            let b = match tb {
                Transpose::No => operand(k, n, 12),
                Transpose::Yes => operand(n, k, 12),
            };
            let c0 = operand(m, n, 13);

            let mut want = c0.clone();
            reference_gemm(0.75, &a, ta, &b, tb, 0.25, &mut want);

            for threads in [1usize, 2, 5, 8] {
                let mut got = c0.clone();
                rayon::with_threads(threads, || {
                    gemm(0.75, &a, ta, &b, tb, 0.25, &mut got).expect("shapes are consistent");
                });
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "threads={threads} m={m} k={k} n={n} ta={ta:?} tb={tb:?}"
                );
            }
        }
    }
}

/// The explicit packing schedules — shared `op(B)` arena vs per-task
/// packing — are pure work-placement choices. Both must land on the
/// reference bits for every shape, transpose combination, and thread
/// count, with and without a warm reused scratch.
#[test]
fn explicit_pack_schedules_match_reference_bitwise() {
    for &(m, k, n) in &[(256usize, 256usize, 256usize), (16, 144, 4096)] {
        for &(ta, tb) in
            &[(Transpose::No, Transpose::No), (Transpose::Yes, Transpose::No), (Transpose::No, Transpose::Yes)]
        {
            let a = match ta {
                Transpose::No => operand(m, k, 21),
                Transpose::Yes => operand(k, m, 21),
            };
            let b = match tb {
                Transpose::No => operand(k, n, 22),
                Transpose::Yes => operand(n, k, 22),
            };
            let c0 = operand(m, n, 23);

            let mut want = c0.clone();
            reference_gemm(0.75, &a, ta, &b, tb, 0.25, &mut want);

            for schedule in [GemmSchedule::Auto, GemmSchedule::SharedPack, GemmSchedule::PerTaskPack] {
                // One scratch per schedule: the second thread count below
                // reuses a warm (already-grown) arena, pinning that reuse
                // never leaks stale panel data into the product.
                let mut scratch = GemmScratch::new();
                for threads in [1usize, 2, 8] {
                    let mut got = c0.clone();
                    rayon::with_threads(threads, || {
                        gemm_blocked_scheduled(
                            0.75, &a, ta, &b, tb, 0.25, &mut got, GEMM_BLOCKING, &mut scratch,
                            schedule,
                        )
                        .expect("shapes are consistent");
                    });
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "schedule={schedule:?} threads={threads} m={m} k={k} n={n} ta={ta:?} tb={tb:?}"
                    );
                }
            }
        }
    }
}

use taamr_tensor::{gemm_blocked, gemm_packed, PackedB};

/// `n` on both sides of `NR` (16) and of `GEMM_BLOCKING.nc` (256).
const PACKED_NS: &[usize] = &[0, 1, 15, 16, 17, 255, 256, 257, 600];
/// `k` from empty to more than one `GEMM_KC` block.
const PACKED_KS: &[usize] = &[0, 1, 16, 255, 256, 257, 520];

/// One pre-packed `B` multiplied by every `(m, ta)` operand in `ms`, at 1
/// and 8 threads, against `gemm_blocked` on the unpacked `B`: returns the
/// first mismatch as a message.
fn packed_mismatch(ms: &[usize], k: usize, n: usize, tb: Transpose, beta: f32, seed: u64) -> Option<String> {
    let b = match tb {
        Transpose::No => operand(k, n, seed),
        Transpose::Yes => operand(n, k, seed),
    };
    let packed =
        PackedB::new(b.as_slice(), [b.dims()[0], b.dims()[1]], tb).expect("length matches dims");
    assert_eq!((packed.k(), packed.n()), (k, n));
    let mut scratch = GemmScratch::new();
    for (i, &m) in ms.iter().enumerate() {
        for ta in [Transpose::No, Transpose::Yes] {
            let a = match ta {
                Transpose::No => operand(m, k, seed + 1 + i as u64),
                Transpose::Yes => operand(k, m, seed + 1 + i as u64),
            };
            let c0 = operand(m, n, seed + 100 + i as u64);
            let mut want = c0.clone();
            gemm_blocked(0.75, &a, ta, &b, tb, beta, &mut want, GEMM_BLOCKING, &mut GemmScratch::new())
                .expect("shapes are consistent");
            for threads in [1usize, 8] {
                let mut got = c0.clone();
                rayon::with_threads(threads, || {
                    gemm_packed(0.75, &a, ta, &packed, beta, &mut got, &mut scratch)
                        .expect("shapes are consistent");
                });
                if bits(&got) != bits(&want) {
                    return Some(format!(
                        "m={m} k={k} n={n} ta={ta:?} tb={tb:?} beta={beta} threads={threads}"
                    ));
                }
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pre-packed entry lands on `gemm_blocked`'s bits for every shape
    /// around the blocking edges, both transposes of `B`, every `beta`, and
    /// at 1 and 8 threads — with one packed matrix reused across several
    /// `A` operands (`m` of 0, 1 and two drawn from 2..=70) and a warm
    /// scratch.
    #[test]
    fn packed_entry_is_bitwise_identical_to_gemm_blocked(
        rows in proptest::collection::vec(2usize..=70, 2),
        k in proptest::sample::select(PACKED_KS.to_vec()),
        n in proptest::sample::select(PACKED_NS.to_vec()),
        tb in proptest::sample::select(vec![Transpose::No, Transpose::Yes]),
        beta in proptest::sample::select(vec![0.0f32, 1.0, 0.5]),
        seed in 0u64..1000,
    ) {
        // Every case also runs the empty and the one-row product.
        let ms = [0, 1, rows[0], rows[1]];
        let mismatch = packed_mismatch(&ms, k, n, tb, beta, seed);
        prop_assert!(mismatch.is_none(), "packed entry diverged: {}", mismatch.unwrap_or_default());
    }
}

/// Shapes big enough that 8 threads split the packed product into a grid:
/// tall (row panels), the scoring block (column stripes) and a one-row miss.
#[test]
fn packed_entry_parallel_grid_matches_gemm_blocked() {
    let shapes: [(&[usize], usize, usize); 2] = [(&[70, 64], 520, 600), (&[64, 1], 16, 20_000)];
    for (ms, k, n) in shapes {
        for tb in [Transpose::No, Transpose::Yes] {
            let mismatch = packed_mismatch(ms, k, n, tb, 1.0, 7);
            assert!(mismatch.is_none(), "packed entry diverged: {}", mismatch.unwrap_or_default());
        }
    }
}
