//! Packed-panel single-precision general matrix multiply.
//!
//! This is the workhorse behind dense layers and `im2col`-lowered
//! convolutions. The kernel is a cache-blocked, register-tiled design in the
//! BLIS mould: operand panels are packed into contiguous,
//! transpose-normalized scratch buffers ([`BlockSizes`]: `MC × KC` slivers of
//! `op(A)` with `alpha` folded in, `KC × NC` slivers of `op(B)`), and an
//! inner [`MR`]`×`[`NR`] micro-kernel accumulates a register tile over one
//! `KC` block before adding it into `C`. Packing normalises both transpose
//! cases into the same unit-stride layout, so all four `op` combinations run
//! the identical inner loop.
//!
//! # Fixed summation order
//!
//! Results are **bitwise identical at every thread count and for every
//! row/column partition**. The canonical accumulation sequence for one
//! output element `C[i, j]` is:
//!
//! 1. scale by `beta` (exact zero fill when `beta == 0`), then
//! 2. for each `KC`-aligned block of the shared dimension, in ascending
//!    order: add the block's partial sum, itself accumulated from zero over
//!    `p` ascending as `((alpha · op(A)[i, p]) · op(B)[p, j])`.
//!
//! That sequence depends only on [`GEMM_KC`] and the ascending `p` loops —
//! never on `MC`/`NC`, the micro-tile shape, or how rows/columns were
//! handed to threads, because parallelism only ever splits the `m` and `n`
//! dimensions (each output element is owned by exactly one task) and every
//! task walks the *absolute* `K` blocks in the same order. Packing is a pure
//! copy and bit-preserving. The differential and golden-fixture tests lock
//! this contract down; changing `GEMM_KC` is a semantic change that must
//! regenerate the golden digests.
//!
//! Scratch for the packed panels comes from a caller-supplied
//! [`GemmScratch`] (or the calling thread's, via [`gemm`]), so steady-state
//! workloads never allocate here.
//!
//! # Pre-packed `op(B)`
//!
//! A `B` operand that many products share — the item matrices of a
//! recommender's scoring cache — can be packed once into a [`PackedB`] and
//! multiplied by [`gemm_packed`], which then packs only `op(A)`. The
//! cooperative [`GemmSchedule::SharedPack`] schedule packs into the same
//! sliver layout in scratch and runs the same driver, so a pre-packed
//! product is the shared-pack product with the packing hoisted out. Packing
//! is a pure copy, so both are bitwise identical to [`gemm`].

use std::ops::Range;

use rayon::prelude::*;

use crate::partition::{block_grid, GridTask};
use crate::{with_gemm_scratch, GemmScratch, Tensor, TensorError};

/// Whether an operand of [`gemm`] is used as-is or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transpose {
    /// Use the matrix as stored.
    #[default]
    No,
    /// Use the matrix transposed (without materialising the transpose).
    Yes,
}

impl Transpose {
    fn is_yes(self) -> bool {
        matches!(self, Transpose::Yes)
    }
}

/// Micro-tile rows: each inner-kernel invocation produces an `MR × NR`
/// register accumulator. Perf knobs only — they never change results.
pub const MR: usize = 4;
/// Micro-tile columns. See [`MR`].
pub const NR: usize = 16;

/// The `K`-dimension block length of the canonical summation order.
///
/// This is the one blocking parameter that is *semantic*: partial sums
/// restart at every `GEMM_KC` boundary, so a different value produces
/// different (equally valid) floating-point results. It is re-exported so
/// tests and docs can state the contract explicitly.
pub const GEMM_KC: usize = 256;

/// Cache-blocking parameters for the packed kernel.
///
/// `mc × kc` is one packed sliver of `op(A)` (sized for L2), `kc × nc` one
/// packed sliver of `op(B)` (sized for L1-friendly panel reuse). `mc` and
/// `nc` are pure performance knobs; `kc` participates in the summation-order
/// contract (see [`GEMM_KC`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// Row-block length of packed `op(A)` slivers.
    pub mc: usize,
    /// Column-block length of packed `op(B)` slivers.
    pub nc: usize,
    /// Shared-dimension block length (summation-order sensitive).
    pub kc: usize,
}

/// The production blocking: `64 × 256` A-slivers (64 KiB) and `256 × 256`
/// B-slivers (256 KiB), tuned by the `gemm_blocking` ablation bench.
pub const GEMM_BLOCKING: BlockSizes = BlockSizes { mc: 64, nc: 256, kc: GEMM_KC };

impl BlockSizes {
    /// Packed `op(B)` sliver length in floats, padded to whole `NR` panels.
    fn b_pack_len(&self) -> usize {
        self.kc * self.nc.div_ceil(NR) * NR
    }

    /// Packed `op(A)` sliver length in floats, padded to whole `MR` panels.
    fn a_pack_len(&self) -> usize {
        self.kc * self.mc.div_ceil(MR) * MR
    }

    /// Scratch floats one task needs for its packing buffers.
    fn pack_len(&self) -> usize {
        self.b_pack_len() + self.a_pack_len()
    }

    /// Packed `op(A)` sliver length in floats for a product with at most
    /// `m` rows per task and shared dimension `k`: no padding past `k` or
    /// past the rows a task can own.
    fn a_pack_len_for(&self, m: usize, k: usize) -> usize {
        self.kc.min(k) * self.mc.min(m).div_ceil(MR) * MR
    }
}

/// Minimum `m * n * k` before gemm fans out across threads. The rayon shim
/// dispatches onto a persistent worker pool (a mutex push + wakeup, not a
/// thread spawn), so even mid-sized products amortise the fork-join cost.
const PAR_MIN_WORK: usize = 256 * 1024;

/// Ceiling, in floats, on the shared packed-`op(B)` arena the cooperative
/// schedule pre-builds (128 MiB), measured on the compact sliver layout
/// (`k × ⌈n/NR⌉·NR` floats). Above this the kernel falls back to per-task
/// packing rather than ballooning scratch; the catalog-scoring shapes
/// (100k items × 256-dim) sit comfortably below it.
const SHARED_PACK_CAP: usize = 32 * 1024 * 1024;

/// How a parallel GEMM divides packing work between tasks.
///
/// Every schedule produces **bitwise identical** results (packing is a pure
/// copy and each output element is owned by one task walking the absolute
/// `KC` blocks in ascending order); the choice only moves wall-clock time.
/// The differential tests exercise each variant explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GemmSchedule {
    /// Pick per call: shared packing when the packed `op(B)` arena fits the
    /// cap, per-task packing otherwise.
    #[default]
    Auto,
    /// Pack each `KC × NC` sliver of `op(B)` exactly once into a shared
    /// arena that every task reads — packing cost matches the serial
    /// schedule no matter how many threads run.
    SharedPack,
    /// Each task packs the slivers its own output rectangle needs (the
    /// pre-pool schedule): duplicated `op(B)` packing across row panels,
    /// but zero shared state and O(1) extra scratch per task.
    PerTaskPack,
}

/// An unchecked, shareable handle to the output matrix.
///
/// Parallel tasks own disjoint `(row, col)` rectangles of `C` but those
/// rectangles interleave in memory, so tasks cannot hold `&mut` slices;
/// they write through this raw pointer instead.
///
/// Safety contract: the grid partition hands every output element to exactly
/// one task, the buffer outlives the parallel region (the shim's completion
/// barrier), and the caller finishes all `&mut c` access before tasks start.
#[derive(Clone, Copy)]
struct COut {
    ptr: *mut f32,
    ldc: usize,
}

unsafe impl Send for COut {}
unsafe impl Sync for COut {}

impl COut {
    /// Accumulates `vals` into `C[row, col..col + vals.len()]`.
    ///
    /// # Safety
    ///
    /// The caller must own that element range per the struct contract and
    /// stay in bounds.
    #[inline(always)]
    unsafe fn accumulate(&self, row: usize, col: usize, vals: &[f32]) {
        let dst = unsafe { self.ptr.add(row * self.ldc + col) };
        for (j, &v) in vals.iter().enumerate() {
            unsafe { *dst.add(j) += v };
        }
    }
}

/// A borrowed matrix with its transpose normalised away: `at(i, j)` is
/// `op(M)[i, j]` regardless of storage order.
#[derive(Clone, Copy)]
struct MatRef<'a> {
    data: &'a [f32],
    ld: usize,
    trans: bool,
}

impl MatRef<'_> {
    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        if self.trans {
            self.data[j * self.ld + i]
        } else {
            self.data[i * self.ld + j]
        }
    }
}

/// Packs the `rows × kc` sliver of `op(A)` starting at `(row0, p0)` into
/// `MR`-row panels: `dst[ir][p * MR + r] = alpha · op(A)[row0 + ir·MR + r,
/// p0 + p]`, zero-padded past `rows`. Folding `alpha` here keeps the inner
/// kernel multiply-add only and matches the canonical `(alpha·a)·b` order.
fn pack_a(dst: &mut [f32], a: MatRef<'_>, row0: usize, rows: usize, p0: usize, kc: usize, alpha: f32) {
    for (ir, panel) in dst.chunks_mut(kc * MR).take(rows.div_ceil(MR)).enumerate() {
        let base = row0 + ir * MR;
        let live = MR.min(rows - ir * MR);
        for p in 0..kc {
            let out = &mut panel[p * MR..(p + 1) * MR];
            for (r, slot) in out.iter_mut().enumerate() {
                *slot = if r < live { alpha * a.at(base + r, p0 + p) } else { 0.0 };
            }
        }
    }
}

/// Packs the `kc × cols` sliver of `op(B)` starting at `(p0, col0)` into
/// `NR`-column panels: `dst[jr][p * NR + j] = op(B)[p0 + p, col0 + jr·NR +
/// j]`, zero-padded past `cols`.
fn pack_b(dst: &mut [f32], b: MatRef<'_>, p0: usize, kc: usize, col0: usize, cols: usize) {
    for (jr, panel) in dst.chunks_mut(kc * NR).take(cols.div_ceil(NR)).enumerate() {
        let base = col0 + jr * NR;
        let live = NR.min(cols - jr * NR);
        for p in 0..kc {
            let out = &mut panel[p * NR..(p + 1) * NR];
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = if j < live { b.at(p0 + p, base + j) } else { 0.0 };
            }
        }
    }
}

/// Where each `KC × NC` sliver of a packed `op(B)` sits in one flat buffer.
///
/// Slivers are stored column block by column block (`jc` ascending) and,
/// inside a column block, `K` block by `K` block (`pc` ascending). A sliver
/// holds `kcb × ⌈ncb/NR⌉·NR` floats for its own depth `kcb` and width
/// `ncb`: its panels are zero-padded to whole `NR` columns, and nothing is
/// padded past `k` or past `n`. [`PackedB`] and the shared-pack schedule of
/// [`gemm_blocked_scheduled`] both use this layout; [`region_shared_b`]
/// reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SliverLayout {
    k: usize,
    n: usize,
    /// The blocking every product reading this layout runs on.
    bs: BlockSizes,
}

impl SliverLayout {

    /// Floats of one column block `ncb` wide, every `K` block included.
    fn column_block_len(&self, ncb: usize) -> usize {
        self.k * ncb.div_ceil(NR) * NR
    }

    /// Floats of the whole packed matrix.
    fn len(&self) -> usize {
        (self.n / self.bs.nc) * self.column_block_len(self.bs.nc)
            + self.column_block_len(self.n % self.bs.nc)
    }

    /// Number of slivers (the packs that build the matrix).
    fn count(&self) -> usize {
        self.n.div_ceil(self.bs.nc) * self.k.div_ceil(self.bs.kc)
    }

    /// Position of the sliver whose column block starts at `jc` and whose
    /// `K` block starts at `pc` (both block-aligned).
    #[inline(always)]
    fn sliver(&self, jc: usize, pc: usize) -> Range<usize> {
        let panels = self.panels(jc);
        let start = (jc / self.bs.nc) * self.column_block_len(self.bs.nc) + pc * panels;
        start..start + self.bs.kc.min(self.k - pc) * panels
    }

    /// Panel-padded width of the column block starting at `jc`.
    #[inline(always)]
    fn panels(&self, jc: usize) -> usize {
        self.bs.nc.min(self.n - jc).div_ceil(NR) * NR
    }

    /// Packs every sliver of `op(B)` into `dst` (`self.len()` floats).
    /// Slivers are disjoint and packing is a pure copy, so they are packed
    /// in parallel, every `K` block of a column block included.
    fn pack(&self, dst: &mut [f32], b: MatRef<'_>) {
        let (k, n, bs) = (self.k, self.n, self.bs);
        if k == 0 || n == 0 {
            return;
        }
        let slivers: Vec<(usize, usize, &mut [f32])> = dst
            .chunks_mut(self.column_block_len(bs.nc))
            .zip((0..n).step_by(bs.nc))
            .flat_map(|(block, jc)| {
                let pcs = (0..k).step_by(bs.kc);
                block.chunks_mut(bs.kc * self.panels(jc)).zip(pcs).map(move |(s, pc)| (jc, pc, s))
            })
            .collect();
        slivers.into_par_iter().for_each(|(jc, pc, s)| {
            pack_b(s, b, pc, bs.kc.min(k - pc), jc, bs.nc.min(n - jc));
        });
    }
}

/// The register-tile inner kernel: accumulates one `MR × NR` tile over a
/// full `kc` block, `p` ascending, starting from zero. Padding lanes in the
/// panels are zero so edge tiles compute harmless extra zeros that are never
/// stored.
///
/// The tile is a local returned by value, so the optimiser keeps it in
/// registers for the whole `p` loop instead of storing it back through a
/// reference on every step; both panels are cut to exactly `kc` steps up
/// front, so the zipped loop has one trip count and one exit.
#[inline(always)]
fn micro_kernel(kc: usize, a_panel: &[f32], b_panel: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    let (a_steps, _) = a_panel[..kc * MR].as_chunks::<MR>();
    let (b_steps, _) = b_panel[..kc * NR].as_chunks::<NR>();
    for (ap, bp) in a_steps.iter().zip(b_steps) {
        for (acc_row, &ar) in acc.iter_mut().zip(ap) {
            for (slot, &bv) in acc_row.iter_mut().zip(bp) {
                *slot += ar * bv;
            }
        }
    }
    acc
}

/// Packed-panel driver over one rectangular region of `C`, packing both
/// operands itself (`pack` must hold `bs.pack_len()` floats; prior contents
/// are irrelevant — packing fully overwrites each sliver).
///
/// Writes the update for global rows `[row0, row0 + m)` and columns
/// `[col0, col0 + n)` through `c` (see [`COut`] for the aliasing contract).
///
/// This wrapper only picks a code-generation flavour of the one driver body:
/// on x86-64 CPUs reporting AVX2 it calls the AVX2-compiled clone, otherwise
/// the baseline build. Both are the *same Rust function* compiled twice —
/// identical IEEE-754 multiply/add sequence per element, no fused
/// multiply-add (Rust never enables floating-point contraction) — so the
/// dispatch is bitwise invisible; the differential and golden tests would
/// fail on any machine where it were not.
#[allow(clippy::too_many_arguments)]
fn region_per_task(
    c: COut,
    row0: usize,
    m: usize,
    col0: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: MatRef<'_>,
    b: MatRef<'_>,
    bs: BlockSizes,
    pack: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the callee only requires AVX2, which the runtime check
        // just confirmed this CPU supports.
        unsafe { region_per_task_avx2(c, row0, m, col0, n, k, alpha, a, b, bs, pack) };
        return;
    }
    region_per_task_impl(c, row0, m, col0, n, k, alpha, a, b, bs, pack);
}

/// The AVX2-compiled clone of [`region_per_task_impl`]. The 8-wide registers
/// roughly double the no-FMA mul/add throughput the baseline x86-64 (SSE2)
/// build is capped at, without touching the operation order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn region_per_task_avx2(
    c: COut,
    row0: usize,
    m: usize,
    col0: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: MatRef<'_>,
    b: MatRef<'_>,
    bs: BlockSizes,
    pack: &mut [f32],
) {
    region_per_task_impl(c, row0, m, col0, n, k, alpha, a, b, bs, pack);
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn region_per_task_impl(
    c: COut,
    row0: usize,
    m: usize,
    col0: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: MatRef<'_>,
    b: MatRef<'_>,
    bs: BlockSizes,
    pack: &mut [f32],
) {
    let (b_pack, a_pack) = pack[..bs.pack_len()].split_at_mut(bs.b_pack_len());
    for jc in (0..n).step_by(bs.nc) {
        let ncb = bs.nc.min(n - jc);
        // Absolute, ascending K blocks: the summation-order anchor.
        for pc in (0..k).step_by(bs.kc) {
            let kcb = bs.kc.min(k - pc);
            pack_b(b_pack, b, pc, kcb, col0 + jc, ncb);
            for ic in (0..m).step_by(bs.mc) {
                let mcb = bs.mc.min(m - ic);
                pack_a(a_pack, a, row0 + ic, mcb, pc, kcb, alpha);
                micro_sweep(c, row0 + ic, mcb, col0 + jc, ncb, kcb, a_pack, b_pack);
            }
        }
    }
}

/// Driver over one rectangular region of `C` that reads `op(B)` slivers
/// already packed in `layout`, on `layout`'s blocking, and packs only its
/// own `op(A)` rows (`a_pack` must hold `layout.bs.a_pack_len_for(m, k)`
/// floats).
///
/// `col0` must be a multiple of the layout's `nc` (the grid partition guarantees it),
/// so every column block maps onto exactly one sliver of the *global*
/// column/K space. The loop nest here differs from [`region_per_task_impl`]
/// (`pc` outermost so each packed `op(A)` sliver is reused across every
/// column block), which is invisible to results: each output element still
/// accumulates its `KC` blocks in ascending order.
#[allow(clippy::too_many_arguments)]
fn region_shared_b(
    c: COut,
    row0: usize,
    m: usize,
    col0: usize,
    n: usize,
    alpha: f32,
    a: MatRef<'_>,
    layout: SliverLayout,
    slivers: &[f32],
    a_pack: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: as for `region_per_task_avx2`.
        unsafe { region_shared_b_avx2(c, row0, m, col0, n, alpha, a, layout, slivers, a_pack) };
        return;
    }
    region_shared_b_impl(c, row0, m, col0, n, alpha, a, layout, slivers, a_pack);
}

/// AVX2-compiled clone of [`region_shared_b_impl`]; see
/// [`region_per_task_avx2`] for why the dispatch is bitwise invisible.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn region_shared_b_avx2(
    c: COut,
    row0: usize,
    m: usize,
    col0: usize,
    n: usize,
    alpha: f32,
    a: MatRef<'_>,
    layout: SliverLayout,
    slivers: &[f32],
    a_pack: &mut [f32],
) {
    region_shared_b_impl(c, row0, m, col0, n, alpha, a, layout, slivers, a_pack);
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn region_shared_b_impl(
    c: COut,
    row0: usize,
    m: usize,
    col0: usize,
    n: usize,
    alpha: f32,
    a: MatRef<'_>,
    layout: SliverLayout,
    slivers: &[f32],
    a_pack: &mut [f32],
) {
    let (k, bs) = (layout.k, layout.bs);
    debug_assert_eq!(col0 % bs.nc, 0, "column stripes must start on an NC boundary");
    // Absolute, ascending K blocks outermost: the summation-order anchor.
    for pc in (0..k).step_by(bs.kc) {
        let kcb = bs.kc.min(k - pc);
        for ic in (0..m).step_by(bs.mc) {
            let mcb = bs.mc.min(m - ic);
            pack_a(a_pack, a, row0 + ic, mcb, pc, kcb, alpha);
            for jc in (0..n).step_by(bs.nc) {
                let ncb = bs.nc.min(n - jc);
                let sliver = &slivers[layout.sliver(col0 + jc, pc)];
                micro_sweep(c, row0 + ic, mcb, col0 + jc, ncb, kcb, a_pack, sliver);
            }
        }
    }
}

/// Runs [`region_shared_b`] once per grid task, in parallel; each task
/// packs its `op(A)` rows into its own `a_len`-float chunk of `a_buf`.
#[allow(clippy::too_many_arguments)]
fn shared_b_tasks(
    c: COut,
    tasks: Vec<GridTask>,
    alpha: f32,
    a: MatRef<'_>,
    layout: SliverLayout,
    slivers: &[f32],
    a_buf: &mut [f32],
    a_len: usize,
) {
    let work: Vec<(GridTask, &mut [f32])> = tasks.into_iter().zip(a_buf.chunks_mut(a_len)).collect();
    work.into_par_iter().for_each(|(t, a_pack)| {
        region_shared_b(
            c,
            t.rows.start,
            t.rows.len(),
            t.cols.start,
            t.cols.len(),
            alpha,
            a,
            layout,
            slivers,
            a_pack,
        );
    });
}

/// Sweeps the micro-kernel over one packed `mcb × ncb` block pair and
/// accumulates the register tiles into `C` at absolute origin `(i_abs,
/// j_abs)`. Shared by both region drivers so the write sequence is
/// literally the same code.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_sweep(
    c: COut,
    i_abs: usize,
    mcb: usize,
    j_abs: usize,
    ncb: usize,
    kcb: usize,
    a_pack: &[f32],
    b_pack: &[f32],
) {
    for jr in 0..ncb.div_ceil(NR) {
        let j0 = jr * NR;
        let cols = NR.min(ncb - j0);
        let b_panel = &b_pack[jr * kcb * NR..(jr + 1) * kcb * NR];
        for ir in 0..mcb.div_ceil(MR) {
            let i0 = ir * MR;
            let rows = MR.min(mcb - i0);
            let a_panel = &a_pack[ir * kcb * MR..(ir + 1) * kcb * MR];
            let acc = micro_kernel(kcb, a_panel, b_panel);
            for (r, acc_row) in acc.iter().enumerate().take(rows) {
                // SAFETY: this task owns rows `[row0, row0 + m)` × cols
                // `[col0, col0 + n)` of `C` exclusively (grid partition),
                // and `i_abs + i0 + r < row0 + m`, `j_abs + j0 + cols ≤
                // col0 + n` keep the write inside that rectangle.
                unsafe { c.accumulate(i_abs + i0 + r, j_abs + j0, &acc_row[..cols]) };
            }
        }
    }
}

/// Computes `C = alpha * op(A) · op(B) + beta * C` using the calling
/// thread's reusable [`GemmScratch`].
///
/// `a` must have logical shape `m × k` after `ta` is applied and `b` must
/// have logical shape `k × n` after `tb` is applied; `c` must be `m × n`.
/// Results are bitwise identical at every thread count (see the module docs
/// for the exact summation-order contract).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if any operand is not rank-2 and
/// [`TensorError::ShapeMismatch`] if inner or output dimensions disagree.
///
/// # Example
///
/// ```
/// use taamr_tensor::{gemm, Tensor, Transpose};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::eye(2);
/// let mut c = Tensor::zeros(&[2, 2]);
/// gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c)?;
/// assert_eq!(c.as_slice(), a.as_slice());
/// # Ok::<(), taamr_tensor::TensorError>(())
/// ```
pub fn gemm(
    alpha: f32,
    a: &Tensor,
    ta: Transpose,
    b: &Tensor,
    tb: Transpose,
    beta: f32,
    c: &mut Tensor,
) -> Result<(), TensorError> {
    with_gemm_scratch(|scratch| gemm_with_scratch(alpha, a, ta, b, tb, beta, c, scratch))
}

/// The scalar reference for one GEMM output element: `acc + x · y`,
/// accumulated in the kernel's canonical [`GEMM_KC`]-blocked order.
///
/// Per block of the shared dimension (ascending), a partial sum is folded
/// from zero over ascending indices, then added to the running value —
/// exactly the per-element sequence the module docs pin down for
/// `alpha == 1`. A scalar scoring path built on this helper is therefore
/// **bitwise identical** to materialising the same products through
/// [`gemm`] with `beta == 1` into an `acc`-initialised output (or
/// `beta == 0` when `acc == 0.0`, which replicates the exact zero-fill).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_blocked(acc: f32, x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot_blocked operand length mismatch");
    let mut acc = acc;
    let mut p0 = 0;
    while p0 < x.len() {
        let p1 = (p0 + GEMM_KC).min(x.len());
        let mut partial = 0.0f32;
        for p in p0..p1 {
            partial += x[p] * y[p];
        }
        acc += partial;
        p0 = p1;
    }
    acc
}

/// [`gemm`] with an explicit scratch arena instead of the thread-local one.
///
/// Useful when the caller manages workspace lifetimes itself (e.g. one arena
/// per worker state). Identical results and errors.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_scratch(
    alpha: f32,
    a: &Tensor,
    ta: Transpose,
    b: &Tensor,
    tb: Transpose,
    beta: f32,
    c: &mut Tensor,
    scratch: &mut GemmScratch,
) -> Result<(), TensorError> {
    gemm_blocked(alpha, a, ta, b, tb, beta, c, GEMM_BLOCKING, scratch)
}

/// [`gemm`] with explicit cache-blocking parameters — the ablation entry
/// point behind the `gemm_blocking` bench.
///
/// `blocking.mc` / `blocking.nc` only change performance. `blocking.kc`
/// changes the summation order: results are bitwise identical to [`gemm`]
/// **only** when `blocking.kc == GEMM_KC` (they remain correct to rounding
/// error otherwise).
///
/// # Errors
///
/// Returns the same shape errors as [`gemm`].
///
/// # Panics
///
/// Panics if any field of `blocking` is zero.
#[allow(clippy::too_many_arguments)]
pub fn gemm_blocked(
    alpha: f32,
    a: &Tensor,
    ta: Transpose,
    b: &Tensor,
    tb: Transpose,
    beta: f32,
    c: &mut Tensor,
    blocking: BlockSizes,
    scratch: &mut GemmScratch,
) -> Result<(), TensorError> {
    gemm_blocked_scheduled(alpha, a, ta, b, tb, beta, c, blocking, scratch, GemmSchedule::Auto)
}

/// [`gemm_blocked`] with an explicit parallel [`GemmSchedule`] — the ablation
/// entry point behind the schedule differential tests. Bitwise identical
/// results for every schedule.
///
/// # Errors
///
/// Returns the same shape errors as [`gemm`].
///
/// # Panics
///
/// Panics if any field of `blocking` is zero.
#[allow(clippy::too_many_arguments)]
pub fn gemm_blocked_scheduled(
    alpha: f32,
    a: &Tensor,
    ta: Transpose,
    b: &Tensor,
    tb: Transpose,
    beta: f32,
    c: &mut Tensor,
    blocking: BlockSizes,
    scratch: &mut GemmScratch,
    schedule: GemmSchedule,
) -> Result<(), TensorError> {
    assert_positive(blocking);
    taamr_obs::incr(taamr_obs::Counter::GemmCalls);
    let (m, k, n) = prepare(a, ta, b.dims(), tb, beta, c)?;
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return Ok(());
    }

    // Canonical pack count (the serial schedule's): counted here, at the
    // semantic entry point, so the telemetry value is invariant under thread
    // count even though parallel tasks re-pack B slivers per row range.
    let (jcs, kbs, ics) =
        (n.div_ceil(blocking.nc) as u64, k.div_ceil(blocking.kc) as u64, m.div_ceil(blocking.mc) as u64);
    taamr_obs::add(taamr_obs::Counter::GemmPanelPacks, jcs * kbs * (1 + ics));

    let a_ref = MatRef { data: a.as_slice(), ld: a.dims()[1], trans: ta.is_yes() };
    let b_ref = MatRef { data: b.as_slice(), ld: b.dims()[1], trans: tb.is_yes() };
    let c_out = COut { ptr: c.as_mut_slice().as_mut_ptr(), ldc: n };
    let per_task = blocking.pack_len();

    let tasks = parallel_tasks(m, n, k, blocking);
    if tasks.len() <= 1 {
        let buf = scratch.ensure(per_task);
        region_per_task(c_out, 0, m, 0, n, k, alpha, a_ref, b_ref, blocking, buf);
        return Ok(());
    }

    let layout = SliverLayout { k, n, bs: blocking };
    let use_shared = match schedule {
        GemmSchedule::Auto => layout.len() <= SHARED_PACK_CAP,
        GemmSchedule::SharedPack => true,
        GemmSchedule::PerTaskPack => false,
    };
    if use_shared {
        // Cooperative schedule: every KC × NC sliver of op(B) is packed
        // exactly once (in parallel — slivers are disjoint and packing is a
        // pure copy) into the compact `PackedB` layout, then all tasks read
        // it while packing only their own op(A) rows. Total packing work
        // thus matches the serial schedule instead of scaling with the task
        // count.
        let a_len = blocking.a_pack_len_for(m, k);
        let buf = scratch.ensure(layout.len() + tasks.len() * a_len);
        let (b_buf, a_buf) = buf.split_at_mut(layout.len());
        layout.pack(b_buf, b_ref);
        shared_b_tasks(c_out, tasks, alpha, a_ref, layout, b_buf, a_buf, a_len);
    } else {
        let buf = scratch.ensure(per_task * tasks.len());
        let work: Vec<(GridTask, &mut [f32])> =
            tasks.into_iter().zip(buf.chunks_mut(per_task)).collect();
        work.into_par_iter().for_each(|(t, pack)| {
            region_per_task(
                c_out,
                t.rows.start,
                t.rows.len(),
                t.cols.start,
                t.cols.len(),
                k,
                alpha,
                a_ref,
                b_ref,
                blocking,
                pack,
            );
        });
    }
    Ok(())
}

/// Panics unless every block size is positive.
fn assert_positive(blocking: BlockSizes) {
    assert!(
        blocking.mc > 0 && blocking.nc > 0 && blocking.kc > 0,
        "gemm block sizes must be positive"
    );
}

/// Checks the shapes of `C = alpha·op(A)·op(B) + beta·C`, with `B` given by
/// its stored dims, then applies `beta` to `C` (an exact zero fill when
/// `beta == 0`). Returns `(m, k, n)`.
fn prepare(
    a: &Tensor,
    ta: Transpose,
    b_dims: &[usize],
    tb: Transpose,
    beta: f32,
    c: &mut Tensor,
) -> Result<(usize, usize, usize), TensorError> {
    for rank in [a.rank(), b_dims.len(), c.rank()] {
        if rank != 2 {
            return Err(TensorError::RankMismatch { op: "gemm", expected: 2, actual: rank });
        }
    }
    let (m, ka) = if ta.is_yes() {
        (a.dims()[1], a.dims()[0])
    } else {
        (a.dims()[0], a.dims()[1])
    };
    let (kb, n) = if tb.is_yes() { (b_dims[1], b_dims[0]) } else { (b_dims[0], b_dims[1]) };
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "gemm",
            lhs: a.dims().to_vec(),
            rhs: b_dims.to_vec(),
        });
    }
    if c.dims() != [m, n] {
        return Err(TensorError::ShapeMismatch {
            op: "gemm",
            lhs: vec![m, n],
            rhs: c.dims().to_vec(),
        });
    }
    if beta != 1.0 {
        if beta == 0.0 {
            c.fill_zero();
        } else {
            c.scale(beta);
        }
    }
    Ok((m, ka, n))
}

/// The parallel grid of an `m × n × k` product: NC-aligned column stripes ×
/// MR-aligned row blocks, oversubscribed so early finishers steal the tail.
/// Empty when the product runs serially (one thread, or too little work).
///
/// The partition depends only on shape and thread policy and is invisible
/// to the summation order — every output element is owned by exactly one
/// task walking the absolute K blocks ascending.
fn parallel_tasks(m: usize, n: usize, k: usize, blocking: BlockSizes) -> Vec<GridTask> {
    let threads = rayon::current_num_threads();
    if threads > 1 && m * n * k >= PAR_MIN_WORK {
        block_grid(m, n, MR, blocking.nc, threads * rayon::CHUNKS_PER_WORKER)
    } else {
        Vec::new()
    }
}

/// `op(B)` packed once, for reuse as the `B` operand of many
/// [`gemm_packed`] products.
///
/// The `k × n` matrix `op(B)` is stored as `KC × NC` slivers of
/// [`NR`]-column panels — the layout the kernel packs into on every
/// [`gemm`] call — holding `kcb × ⌈ncb/NR⌉·NR` floats per sliver with no
/// padding past `k` and at most `NR − 1` padding columns per column block.
/// Building one counts its slivers in the `gemm_panel_packs` telemetry once;
/// the products that read it count only their `op(A)` packs.
///
/// # Example
///
/// ```
/// use taamr_tensor::{gemm, gemm_packed, GemmScratch, PackedB, Tensor, Transpose};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let packed = PackedB::new(b.as_slice(), [2, 2], Transpose::Yes)?;
/// let (mut c, mut want) = (Tensor::zeros(&[2, 2]), Tensor::zeros(&[2, 2]));
/// gemm_packed(1.0, &a, Transpose::No, &packed, 0.0, &mut c, &mut GemmScratch::new())?;
/// gemm(1.0, &a, Transpose::No, &b, Transpose::Yes, 0.0, &mut want)?;
/// assert_eq!(c, want);
/// # Ok::<(), taamr_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedB {
    data: Vec<f32>,
    /// `B` as stored, for the shape errors of [`gemm_packed`].
    dims: [usize; 2],
    trans: Transpose,
    layout: SliverLayout,
}

impl PackedB {
    /// Packs `op(B)`, where `b` is a row-major matrix of shape `dims` and
    /// `tb` says whether the product uses it transposed. The slivers are cut
    /// on [`GEMM_BLOCKING`], the blocking of [`gemm`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `b.len()` is not
    /// `dims[0] * dims[1]`.
    pub fn new(b: &[f32], dims: [usize; 2], tb: Transpose) -> Result<Self, TensorError> {
        if b.len() != dims[0] * dims[1] {
            return Err(TensorError::LengthMismatch { expected: dims[0] * dims[1], actual: b.len() });
        }
        let (k, n) = if tb.is_yes() { (dims[1], dims[0]) } else { (dims[0], dims[1]) };
        let layout = SliverLayout { k, n, bs: GEMM_BLOCKING };
        let mut data = vec![0.0; layout.len()];
        layout.pack(&mut data, MatRef { data: b, ld: dims[1], trans: tb.is_yes() });
        taamr_obs::add(taamr_obs::Counter::GemmPanelPacks, layout.count() as u64);
        Ok(PackedB { data, dims, trans: tb, layout })
    }

    /// Rows of `op(B)`: the shared dimension of every product.
    pub fn k(&self) -> usize {
        self.layout.k
    }

    /// Columns of `op(B)`: the column count of every product.
    pub fn n(&self) -> usize {
        self.layout.n
    }
}

/// Computes `C = alpha * op(A) · op(B) + beta * C` against a pre-packed
/// `op(B)`, using `scratch` for the `op(A)` packs only.
///
/// Results are **bitwise identical** to [`gemm`] on the unpacked `B`, at
/// every thread count: the same `beta`
/// handling, the same parallel grid (above the same work threshold), and
/// the same absolute, ascending `KC` blocks per element. The
/// `gemm_panel_packs` telemetry counts the `op(A)` packs of the serial
/// schedule, `⌈k/KC⌉ · ⌈m/MC⌉`, per call.
///
/// # Errors
///
/// Returns the same shape errors as [`gemm`], naming `B` by its stored dims.
pub fn gemm_packed(
    alpha: f32,
    a: &Tensor,
    ta: Transpose,
    b: &PackedB,
    beta: f32,
    c: &mut Tensor,
    scratch: &mut GemmScratch,
) -> Result<(), TensorError> {
    taamr_obs::incr(taamr_obs::Counter::GemmCalls);
    let (m, k, n) = prepare(a, ta, &b.dims, b.trans, beta, c)?;
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return Ok(());
    }
    let bs = b.layout.bs;
    taamr_obs::add(
        taamr_obs::Counter::GemmPanelPacks,
        (k.div_ceil(bs.kc) * m.div_ceil(bs.mc)) as u64,
    );

    let a_ref = MatRef { data: a.as_slice(), ld: a.dims()[1], trans: ta.is_yes() };
    let c_out = COut { ptr: c.as_mut_slice().as_mut_ptr(), ldc: n };
    let a_len = bs.a_pack_len_for(m, k);
    let tasks = parallel_tasks(m, n, k, bs);
    if tasks.len() <= 1 {
        let a_pack = scratch.ensure(a_len);
        region_shared_b(c_out, 0, m, 0, n, alpha, a_ref, b.layout, &b.data, a_pack);
    } else {
        let a_buf = scratch.ensure(tasks.len() * a_len);
        shared_b_tasks(c_out, tasks, alpha, a_ref, b.layout, &b.data, a_buf, a_len);
    }
    Ok(())
}

impl Tensor {
    /// Matrix product `self · rhs` of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`gemm`].
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: self.rank(),
            });
        }
        if rhs.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: rhs.rank(),
            });
        }
        let mut out = Tensor::zeros(&[self.dims()[0], rhs.dims()[1]]);
        gemm(1.0, self, Transpose::No, rhs, Transpose::No, 0.0, &mut out)?;
        Ok(out)
    }

    /// Matrix–vector product of a rank-2 tensor with a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols != v.len()`.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matvec",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        if v.len() != c {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.dims().to_vec(),
                rhs: v.dims().to_vec(),
            });
        }
        let mut out = Tensor::zeros(&[r]);
        for i in 0..r {
            out.data[i] = self.data[i * c..(i + 1) * c]
                .iter()
                .zip(v.as_slice())
                .map(|(&a, &b)| a * b)
                .sum();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference used to validate the blocked kernel.
    fn naive(a: &Tensor, ta: Transpose, b: &Tensor, tb: Transpose) -> Tensor {
        let (m, k) = if ta.is_yes() {
            (a.dims()[1], a.dims()[0])
        } else {
            (a.dims()[0], a.dims()[1])
        };
        let n = if tb.is_yes() { b.dims()[0] } else { b.dims()[1] };
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    let av = if ta.is_yes() { a.at(&[p, i]) } else { a.at(&[i, p]) };
                    let bv = if tb.is_yes() { b.at(&[j, p]) } else { b.at(&[p, j]) };
                    s += av * bv;
                }
                *c.at_mut(&[i, j]) = s;
            }
        }
        c
    }

    fn seq(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|i| (i as f32 * 0.37).sin()).collect(), dims).unwrap()
    }

    fn assert_close(a: &Tensor, b: &Tensor) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = seq(&[3, 4]);
        let b = seq(&[4, 5]);
        assert_close(&a.matmul(&b).unwrap(), &naive(&a, Transpose::No, &b, Transpose::No));
    }

    #[test]
    fn matmul_matches_naive_larger_than_block() {
        let a = seq(&[70, 65]);
        let b = seq(&[65, 90]);
        assert_close(&a.matmul(&b).unwrap(), &naive(&a, Transpose::No, &b, Transpose::No));
    }

    #[test]
    fn all_transpose_combinations_match_naive() {
        let cases = [
            (Transpose::No, Transpose::No, [7usize, 5], [5usize, 9]),
            (Transpose::Yes, Transpose::No, [5, 7], [5, 9]),
            (Transpose::No, Transpose::Yes, [7, 5], [9, 5]),
            (Transpose::Yes, Transpose::Yes, [5, 7], [9, 5]),
        ];
        for (ta, tb, da, db) in cases {
            let a = seq(&da);
            let b = seq(&db);
            let mut c = Tensor::zeros(&[7, 9]);
            gemm(1.0, &a, ta, &b, tb, 0.0, &mut c).unwrap();
            assert_close(&c, &naive(&a, ta, &b, tb));
        }
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = seq(&[4, 4]);
        let b = seq(&[4, 4]);
        let mut c = Tensor::ones(&[4, 4]);
        gemm(2.0, &a, Transpose::No, &b, Transpose::No, 3.0, &mut c).unwrap();
        let expected =
            &naive(&a, Transpose::No, &b, Transpose::No).scaled(2.0) + &Tensor::full(&[4, 4], 3.0);
        assert_close(&c, &expected);
    }

    #[test]
    fn identity_is_neutral() {
        let a = seq(&[6, 6]);
        assert_close(&a.matmul(&Tensor::eye(6)).unwrap(), &a);
        assert_close(&Tensor::eye(6).matmul(&a).unwrap(), &a);
    }

    #[test]
    fn dimension_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(a.matmul(&b).is_err());
        let mut c = Tensor::zeros(&[2, 2]);
        assert!(gemm(1.0, &a, Transpose::No, &Tensor::zeros(&[3, 5]), Transpose::No, 0.0, &mut c)
            .is_err());
        assert!(Tensor::zeros(&[2]).matmul(&b).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = seq(&[5, 7]);
        let v = seq(&[7]);
        let mv = a.matvec(&v).unwrap();
        let mm = a.matmul(&v.reshaped(&[7, 1]).unwrap()).unwrap();
        for i in 0..5 {
            assert!((mv.as_slice()[i] - mm.as_slice()[i]).abs() < 1e-5);
        }
        assert!(a.matvec(&seq(&[6])).is_err());
    }

    #[test]
    fn zero_k_dimension_yields_beta_c() {
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 2]);
        let mut c = Tensor::ones(&[3, 2]);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c).unwrap();
        assert!(c.iter().all(|&v| v == 0.5));
    }

    #[test]
    fn explicit_scratch_matches_thread_local_path_bitwise() {
        let a = seq(&[37, 53]);
        let b = seq(&[53, 29]);
        let mut c1 = Tensor::zeros(&[37, 29]);
        gemm(0.7, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c1).unwrap();
        let mut scratch = GemmScratch::new();
        let mut c2 = Tensor::zeros(&[37, 29]);
        gemm_with_scratch(0.7, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c2, &mut scratch)
            .unwrap();
        assert_eq!(c1, c2);
        assert!(scratch.capacity() >= GEMM_BLOCKING.pack_len());
    }

    #[test]
    fn custom_mc_nc_blocking_is_bitwise_neutral() {
        // mc/nc are pure perf knobs; only kc participates in the summation
        // order. Same kc => same bits, for sizes straddling block edges.
        let a = seq(&[67, 130]);
        let b = seq(&[130, 71]);
        let mut base = Tensor::zeros(&[67, 71]);
        gemm(1.3, &a, Transpose::No, &b, Transpose::No, 0.0, &mut base).unwrap();
        for bs in [
            BlockSizes { mc: 8, nc: 16, kc: GEMM_KC },
            BlockSizes { mc: 3, nc: 5, kc: GEMM_KC },
            BlockSizes { mc: 256, nc: 1024, kc: GEMM_KC },
        ] {
            let mut c = Tensor::zeros(&[67, 71]);
            let mut scratch = GemmScratch::new();
            gemm_blocked(1.3, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c, bs, &mut scratch)
                .unwrap();
            let same = base.iter().zip(c.iter()).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "blocking {bs:?} changed bits");
        }
    }

    #[test]
    fn smaller_kc_still_correct_to_rounding() {
        let a = seq(&[20, 300]);
        let b = seq(&[300, 20]);
        let mut c = Tensor::zeros(&[20, 20]);
        let mut scratch = GemmScratch::new();
        let bs = BlockSizes { mc: 64, nc: 64, kc: 32 };
        gemm_blocked(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c, bs, &mut scratch)
            .unwrap();
        assert_close(&c, &naive(&a, Transpose::No, &b, Transpose::No));
    }

    #[test]
    fn packed_entry_keeps_the_gemm_shape_errors() {
        let b = seq(&[5, 3]);
        let packed = PackedB::new(b.as_slice(), [5, 3], Transpose::Yes).unwrap();
        assert_eq!((packed.k(), packed.n()), (3, 5));
        let mut scratch = GemmScratch::new();
        for (a, c) in [
            (seq(&[2, 4]), Tensor::zeros(&[2, 5])),
            (seq(&[2, 3]), Tensor::zeros(&[2, 4])),
            (seq(&[6]), Tensor::zeros(&[2, 5])),
            (seq(&[2, 3]), Tensor::zeros(&[10])),
        ] {
            let (mut c1, mut c2) = (c.clone(), c);
            let want = gemm_blocked(
                1.0, &a, Transpose::No, &b, Transpose::Yes, 0.0, &mut c1, GEMM_BLOCKING, &mut scratch,
            );
            let got = gemm_packed(1.0, &a, Transpose::No, &packed, 0.0, &mut c2, &mut scratch);
            assert!(want.is_err());
            assert_eq!(got, want);
        }
        assert_eq!(
            PackedB::new(&[0.0; 4], [2, 3], Transpose::No).unwrap_err(),
            TensorError::LengthMismatch { expected: 6, actual: 4 }
        );
    }

    #[test]
    #[should_panic(expected = "block sizes must be positive")]
    fn zero_block_size_rejected() {
        let a = seq(&[2, 2]);
        let b = seq(&[2, 2]);
        let mut c = Tensor::zeros(&[2, 2]);
        let _ = gemm_blocked(
            1.0,
            &a,
            Transpose::No,
            &b,
            Transpose::No,
            0.0,
            &mut c,
            BlockSizes { mc: 0, nc: 64, kc: 64 },
            &mut GemmScratch::new(),
        );
    }
}
