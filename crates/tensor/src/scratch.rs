//! Reusable workspace buffers for the GEMM and convolution hot paths.
//!
//! The packed-panel GEMM kernel needs contiguous scratch for its A/B panels,
//! and the `im2col`-lowered convolution path materialises several
//! multi-megabyte intermediates (`cols`, the GEMM output matrix, the column
//! gradient) on every forward/backward call. Allocating those afresh per
//! call dominates the attack loop's runtime with page faults, so this module
//! provides two reusable arenas:
//!
//! * [`GemmScratch`] — a flat `f32` buffer the kernel partitions into per-task
//!   A/B packing panels (and, on the column-parallel path, per-stripe output
//!   staging). Pass one explicitly to
//!   [`gemm_with_scratch`](crate::gemm_with_scratch), or let
//!   [`gemm`](crate::gemm) borrow the calling thread's.
//! * [`ConvScratch`] — the convolution lowering and its reusable
//!   intermediates, lent out per call through [`with_conv_scratch`].
//!
//! Both default to **thread-local** storage: a thread that runs many GEMMs or
//! conv layers (the trainer loop, a PGD attack worker iterating ten gradient
//! steps) allocates once and reuses the high-water-mark buffer thereafter.
//! Worker threads spawned by a parallel region get their own arenas that live
//! for the whole region, so a worker attacking a chunk of items still reuses
//! its buffers across every item and every gradient step.
//!
//! Reuse is observable two ways: the process-global
//! [`Counter::ScratchReuseHits`](taamr_obs::Counter::ScratchReuseHits) /
//! [`Counter::ScratchGrows`](taamr_obs::Counter::ScratchGrows) telemetry
//! counters (scheduling-dependent — see the `taamr-obs` docs), and the
//! per-thread [`conv_scratch_footprint`] / [`gemm_scratch_footprint`] probes
//! used by the regression tests, which are exact for single-threaded runs.
//!
//! Scratch contents never influence results: every buffer is fully
//! overwritten (or explicitly zeroed) before it is read, so a reused arena is
//! bitwise indistinguishable from a fresh allocation.

use std::cell::RefCell;

use crate::Tensor;

/// Records whether an `ensure`/reset reused the existing allocation or had
/// to grow it, in the global telemetry counters.
pub(crate) fn count_reuse(grew: bool) {
    taamr_obs::incr(if grew {
        taamr_obs::Counter::ScratchGrows
    } else {
        taamr_obs::Counter::ScratchReuseHits
    });
}

/// A reusable flat workspace for the packed-panel GEMM kernel.
///
/// The kernel calls [`GemmScratch::ensure`] once per `gemm` and carves the
/// returned slice into per-task packing panels. The buffer only ever grows
/// (to the high-water mark of the shapes seen), so steady-state workloads —
/// repeated attack steps, training epochs — stop allocating entirely.
///
/// # Example
///
/// ```
/// use taamr_tensor::{gemm_with_scratch, GemmScratch, Tensor, Transpose};
///
/// let a = Tensor::eye(8);
/// let b = Tensor::eye(8);
/// let mut c = Tensor::zeros(&[8, 8]);
/// let mut scratch = GemmScratch::new();
/// gemm_with_scratch(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c, &mut scratch)?;
/// assert!(scratch.capacity() > 0);
/// # Ok::<(), taamr_tensor::TensorError>(())
/// ```
#[derive(Debug, Default)]
pub struct GemmScratch {
    buf: Vec<f32>,
}

impl GemmScratch {
    /// Creates an empty scratch; the first use sizes it.
    pub const fn new() -> Self {
        GemmScratch { buf: Vec::new() }
    }

    /// Current capacity in `f32` elements (the high-water mark).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Returns a slice of at least `len` floats, growing only when the
    /// current allocation cannot hold it. Contents are unspecified; callers
    /// must overwrite before reading.
    pub(crate) fn ensure(&mut self, len: usize) -> &mut [f32] {
        count_reuse(len > self.buf.capacity());
        if self.buf.len() < len {
            self.buf.resize(len, 0.0);
        }
        &mut self.buf[..len]
    }
}

/// Reusable intermediates for the `im2col`-lowered convolution path.
///
/// These are pure workspaces — fully rewritten by every forward/backward
/// call. A layer keeps its (much smaller) input, not its lowering, and
/// re-lowers into `cols` when a backward needs it. Borrow the calling
/// thread's instance with [`with_conv_scratch`].
#[derive(Debug)]
pub struct ConvScratch {
    /// The `im2col` lowering (`C·KH·KW × N·OH·OW`) of the current input.
    pub cols: Tensor,
    /// Forward GEMM output (`OC × N·OH·OW`) before the NCHW permute.
    pub out_mat: Tensor,
    /// Backward: `grad_output` permuted to `OC × N·OH·OW`.
    pub grad_mat: Tensor,
    /// Backward: column-space input gradient fed to `col2im`.
    pub grad_cols: Tensor,
}

impl ConvScratch {
    fn new() -> Self {
        ConvScratch {
            cols: Tensor::zeros(&[0]),
            out_mat: Tensor::zeros(&[0]),
            grad_mat: Tensor::zeros(&[0]),
            grad_cols: Tensor::zeros(&[0]),
        }
    }

    /// Total capacity of the held buffers, in `f32` elements.
    pub fn footprint(&self) -> usize {
        [&self.cols, &self.out_mat, &self.grad_mat, &self.grad_cols]
            .iter()
            .map(|t| t.data.capacity())
            .sum()
    }
}

thread_local! {
    static GEMM_SCRATCH: RefCell<GemmScratch> = const { RefCell::new(GemmScratch::new()) };
    static CONV_SCRATCH: RefCell<ConvScratch> = RefCell::new(ConvScratch::new());
}

/// Runs `f` with the calling thread's [`GemmScratch`].
///
/// Falls back to a fresh temporary if the thread-local is already borrowed
/// (a re-entrant kernel call), so this can never panic.
pub fn with_gemm_scratch<R>(f: impl FnOnce(&mut GemmScratch) -> R) -> R {
    GEMM_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut GemmScratch::new()),
    })
}

/// Runs `f` with the calling thread's [`ConvScratch`].
///
/// Falls back to a fresh temporary if the thread-local is already borrowed
/// (nested convolution lowering), so this can never panic.
pub fn with_conv_scratch<R>(f: impl FnOnce(&mut ConvScratch) -> R) -> R {
    CONV_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut ConvScratch::new()),
    })
}

/// Capacity (in `f32`s) of the calling thread's conv scratch — the
/// regression probe proving repeated pipeline calls reuse rather than regrow.
pub fn conv_scratch_footprint() -> usize {
    CONV_SCRATCH.with(|cell| cell.borrow().footprint())
}

/// Capacity (in `f32`s) of the calling thread's GEMM packing scratch.
pub fn gemm_scratch_footprint() -> usize {
    GEMM_SCRATCH.with(|cell| cell.borrow().capacity())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_grows_then_reuses() {
        let mut s = GemmScratch::new();
        assert_eq!(s.capacity(), 0);
        s.ensure(100)[0] = 1.0;
        let cap = s.capacity();
        assert!(cap >= 100);
        s.ensure(50);
        s.ensure(100);
        assert_eq!(s.capacity(), cap, "smaller requests must not reallocate");
    }

    #[test]
    fn thread_local_scratch_persists_across_calls() {
        with_gemm_scratch(|s| {
            s.ensure(64);
        });
        assert!(gemm_scratch_footprint() >= 64);
        let before = gemm_scratch_footprint();
        with_gemm_scratch(|s| {
            s.ensure(32);
        });
        assert_eq!(gemm_scratch_footprint(), before);
    }

    #[test]
    fn conv_scratch_footprint_tracks_buffers() {
        with_conv_scratch(|s| {
            s.out_mat.reset_to_zeros(&[4, 9]);
            s.grad_cols.reset_to_zeros(&[10, 10]);
        });
        assert!(conv_scratch_footprint() >= 136);
    }

    #[test]
    fn reentrant_borrow_falls_back_to_temporary() {
        with_gemm_scratch(|outer| {
            outer.ensure(16);
            // A nested borrow must not panic; it sees a fresh scratch.
            with_gemm_scratch(|inner| {
                assert_eq!(inner.capacity(), 0);
            });
        });
    }
}
