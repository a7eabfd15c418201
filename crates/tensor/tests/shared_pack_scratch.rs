//! Scratch bound of the shared-pack schedule: the arena holds the packed
//! `op(B)` in its compact sliver layout plus one `op(A)` panel per task, not
//! a `GEMM_KC × NC` slot for every sliver whatever the depth.

use taamr_tensor::{
    gemm, gemm_blocked_scheduled, seeded_rng, GemmSchedule, GemmScratch, Tensor, Transpose,
    GEMM_BLOCKING, MR, NR,
};

#[test]
fn shared_pack_scratch_is_the_compact_b_plus_per_task_a_panels() {
    // One score block of a full-catalog sweep: 64 users × 20 000 items at
    // dim 16, the item matrix used transposed.
    let (m, k, n) = (64usize, 16usize, 20_000usize);
    let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut seeded_rng(1));
    let b = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut seeded_rng(2));
    let threads = 2;
    let mut scratch = GemmScratch::new();
    let mut got = Tensor::zeros(&[m, n]);
    rayon::with_threads(threads, || {
        gemm_blocked_scheduled(
            1.0,
            &a,
            Transpose::No,
            &b,
            Transpose::Yes,
            0.0,
            &mut got,
            GEMM_BLOCKING,
            &mut scratch,
            GemmSchedule::SharedPack,
        )
        .expect("shapes are consistent");
    });

    let compact_b = k * n.div_ceil(NR) * NR;
    let tasks = threads * rayon::CHUNKS_PER_WORKER;
    let a_panel = k * m.min(GEMM_BLOCKING.mc).div_ceil(MR) * MR;
    let bound = compact_b + tasks * a_panel;
    assert!(
        scratch.capacity() <= bound,
        "shared-pack scratch holds {} floats, over the compact bound {bound} \
         ({compact_b} for B + {tasks} × {a_panel} for A)",
        scratch.capacity()
    );

    let mut want = Tensor::zeros(&[m, n]);
    gemm(1.0, &a, Transpose::No, &b, Transpose::Yes, 0.0, &mut want)
        .expect("shapes are consistent");
    assert!(got
        .iter()
        .zip(want.iter())
        .all(|(x, y)| x.to_bits() == y.to_bits()));
}
