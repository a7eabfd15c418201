//! Deterministic fault injection for the TAaMR pipeline.
//!
//! Fault tolerance that is never exercised is fault tolerance that does not
//! exist. This crate lets tests inject failures at well-defined *sites* in
//! the production code — a NaN loss in a chosen training epoch, a failing
//! attack-grid cell, a simulated kill between grid cells — without changing
//! any production signature: the plan is installed thread-locally with
//! [`with_plan`], and instrumented code polls [`fire`] at its site.
//!
//! Every fault is **one-shot**: once it fires it is consumed, so a retry or
//! a resumed run proceeds cleanly. With no plan installed (the production
//! default), [`fire`] is a single thread-local read returning `false`.
//!
//! The crate also ships the file-corruption helpers ([`flip_bit`],
//! [`truncate_file`]) used to verify that checkpoint checksums actually
//! catch corrupt state.

#![deny(missing_docs)]

use std::cell::RefCell;
use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A production code location where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// CNN trainer: poison the epoch given by the fault index with a
    /// non-finite loss and corrupted parameters.
    CnnEpochLoss,
    /// Pairwise (recommender) trainer: poison the epoch given by the index.
    PairwiseEpochLoss,
    /// Attack grid: the cell given by the index fails with an error instead
    /// of producing an outcome.
    AttackCell,
    /// Attack grid: simulate a kill immediately before computing the cell
    /// given by the index (completed cells keep their checkpoints).
    GridInterrupt,
    /// Pipeline build: simulate a kill immediately after the stage whose
    /// ordinal is the index (0 = CNN, 1 = VBPR warm-up, 2 = VBPR fine-tune,
    /// 3 = AMR).
    StageInterrupt,
    /// Replay recorder: silently corrupt (bit-flip) the recorded output
    /// hash of the command whose ordinal is the index, so replay-diff
    /// tests can prove a divergence is localised to the right stage.
    ReplayHash,
    /// Serving actor: panic while handling the request whose per-actor
    /// ordinal is the index, so supervision tests can prove the supervisor
    /// restarts the slot from its last snapshot. The ordinal counts only
    /// the requests the actor receives: a result-cache hit, answered on the
    /// request thread, takes none.
    ServeActorPanic,
    /// Serving snapshot store: silently corrupt (bit-flip) the snapshot
    /// file whose per-slot write ordinal is the index immediately after it
    /// is written, so recovery tests can prove restore falls back to the
    /// previous good generation.
    ServeSnapshotCorrupt,
    /// Serving actor: stall (sleep past the request deadline) while
    /// handling the request whose per-actor ordinal is the index, so
    /// deadline tests can prove a slow handler becomes a typed timeout
    /// response instead of a hang. Ordinals count as for
    /// [`FaultSite::ServeActorPanic`].
    ServeStall,
    /// Black-box attack oracle: the query ledger of the item whose id is
    /// the index reports exhaustion on its next debit, so degradation
    /// tests can prove an oracle failure becomes a typed error (and a
    /// marked grid gap), never a panic.
    AttackOracle,
}

/// A deterministic schedule of one-shot faults, keyed by `(site, index)`.
///
/// The index disambiguates repeated visits to one site: the epoch number
/// for trainer sites, the cell ordinal for grid sites.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pending: HashSet<(FaultSite, u64)>,
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a one-shot fault at `(site, index)` and returns the plan.
    pub fn with(mut self, site: FaultSite, index: u64) -> Self {
        self.pending.insert((site, index));
        self
    }

    /// Number of faults that have not fired yet.
    pub fn remaining(&self) -> usize {
        self.pending.len()
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<FaultPlan>> = const { RefCell::new(None) };
}

/// Fast flag guarding the process-global plan: with no shared plan
/// installed (the production default) [`fire`] pays one relaxed load for
/// it, never a lock.
static SHARED_ACTIVE: AtomicBool = AtomicBool::new(false);
static SHARED: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Installs `plan` for the current thread, runs `f`, and restores the
/// previous plan (if any). Returns `f`'s result plus the number of faults
/// that never fired — tests assert it is zero to prove every injected fault
/// was actually reached.
pub fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> (T, usize) {
    let previous = ACTIVE.with(|a| a.borrow_mut().replace(plan));
    let result = f();
    let finished = ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let finished = slot.take();
        *slot = previous;
        finished
    });
    (result, finished.map_or(0, |p| p.remaining()))
}

/// Installs `plan` **process-globally**, runs `f`, and uninstalls it.
///
/// The thread-local [`with_plan`] cannot reach code running on threads the
/// test did not start — a serving actor polls its fault sites on its own
/// supervisor-spawned thread. A shared plan is visible to [`fire`] on
/// *every* thread. Like the thread-local variant, each fault is one-shot
/// and the second tuple element reports how many faults never fired.
///
/// Shared plans do not nest: only one can be installed at a time, and tests
/// in one binary that install them must serialise themselves (integration
/// test files are separate processes, so cross-file interference is
/// impossible).
///
/// # Panics
///
/// Panics if a shared plan is already installed.
pub fn with_shared_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> (T, usize) {
    /// Uninstalls the shared plan even when `f` panics, so one failing
    /// test cannot leave the plan stuck for the whole process.
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            let mut slot = SHARED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            SHARED_ACTIVE.store(false, Ordering::SeqCst);
            *slot = None;
        }
    }
    {
        let mut slot = SHARED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(slot.is_none(), "a shared fault plan is already installed");
        *slot = Some(plan);
        SHARED_ACTIVE.store(true, Ordering::SeqCst);
    }
    let uninstall = Uninstall;
    let result = f();
    let finished = {
        let mut slot = SHARED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        SHARED_ACTIVE.store(false, Ordering::SeqCst);
        slot.take()
    };
    std::mem::forget(uninstall);
    (result, finished.map_or(0, |p| p.remaining()))
}

/// Polls the fault at `(site, index)`. Returns `true` (and consumes the
/// fault) if the calling thread's plan — or the process-global shared plan
/// (see [`with_shared_plan`]) — scheduled it; `false` otherwise, including
/// when no plan is installed.
pub fn fire(site: FaultSite, index: u64) -> bool {
    let local = ACTIVE.with(|a| {
        a.borrow_mut()
            .as_mut()
            .map(|plan| plan.pending.remove(&(site, index)))
            .unwrap_or(false)
    });
    if local {
        return true;
    }
    if SHARED_ACTIVE.load(Ordering::SeqCst) {
        return SHARED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_mut()
            .map(|plan| plan.pending.remove(&(site, index)))
            .unwrap_or(false);
    }
    false
}

/// Whether any fault plan is installed on this thread (or shared with it).
pub fn plan_installed() -> bool {
    ACTIVE.with(|a| a.borrow().is_some()) || SHARED_ACTIVE.load(Ordering::SeqCst)
}

/// Flips one bit of the file at `path` (byte `byte_index`, bit `bit`),
/// simulating silent on-disk corruption.
///
/// # Errors
///
/// Returns an error if the file cannot be read or written, or if
/// `byte_index` is out of range.
pub fn flip_bit(path: impl AsRef<Path>, byte_index: usize, bit: u8) -> io::Result<()> {
    let path = path.as_ref();
    let mut bytes = fs::read(path)?;
    let byte = bytes.get_mut(byte_index).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("byte {byte_index} out of range"))
    })?;
    *byte ^= 1u8 << (bit % 8);
    fs::write(path, bytes)
}

/// Truncates the file at `path` to its first `keep` bytes, simulating a
/// write interrupted by a crash.
///
/// # Errors
///
/// Returns an error if the file cannot be read or written.
pub fn truncate_file(path: impl AsRef<Path>, keep: usize) -> io::Result<()> {
    let path = path.as_ref();
    let bytes = fs::read(path)?;
    fs::write(path, &bytes[..keep.min(bytes.len())])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared plan is process-global and tests run concurrently, so
    /// every test that installs one holds this lock.
    static SHARED_GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn no_plan_never_fires() {
        assert!(!plan_installed());
        assert!(!fire(FaultSite::CnnEpochLoss, 0));
    }

    #[test]
    fn faults_fire_exactly_once() {
        let ((), unfired) = with_plan(
            FaultPlan::new().with(FaultSite::CnnEpochLoss, 2),
            || {
                assert!(!fire(FaultSite::CnnEpochLoss, 1), "wrong index must not fire");
                assert!(!fire(FaultSite::PairwiseEpochLoss, 2), "wrong site must not fire");
                assert!(fire(FaultSite::CnnEpochLoss, 2), "scheduled fault fires");
                assert!(!fire(FaultSite::CnnEpochLoss, 2), "one-shot: consumed after firing");
            },
        );
        assert_eq!(unfired, 0);
    }

    #[test]
    fn unfired_faults_are_reported() {
        let ((), unfired) =
            with_plan(FaultPlan::new().with(FaultSite::AttackCell, 7), || {});
        assert_eq!(unfired, 1);
    }

    #[test]
    fn plans_nest_and_restore() {
        let outer = FaultPlan::new().with(FaultSite::GridInterrupt, 1);
        with_plan(outer, || {
            with_plan(FaultPlan::new().with(FaultSite::GridInterrupt, 9), || {
                assert!(fire(FaultSite::GridInterrupt, 9));
                assert!(!fire(FaultSite::GridInterrupt, 1), "outer plan is shadowed");
            });
            assert!(fire(FaultSite::GridInterrupt, 1), "outer plan restored");
        });
        assert!(!plan_installed());
    }

    #[test]
    fn shared_plan_fires_on_other_threads() {
        let _g = SHARED_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let ((), unfired) = with_shared_plan(
            FaultPlan::new().with(FaultSite::ServeActorPanic, 3),
            || {
                let seen = std::thread::spawn(|| {
                    assert!(!fire(FaultSite::ServeActorPanic, 0), "wrong index must not fire");
                    fire(FaultSite::ServeActorPanic, 3)
                })
                .join()
                .expect("poller thread");
                assert!(seen, "shared fault fires on a foreign thread");
                assert!(!fire(FaultSite::ServeActorPanic, 3), "one-shot: consumed");
            },
        );
        assert_eq!(unfired, 0);
        assert!(!plan_installed());
    }

    #[test]
    fn shared_plan_reports_unfired_faults() {
        let _g = SHARED_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let ((), unfired) = with_shared_plan(
            FaultPlan::new().with(FaultSite::ServeStall, 1).with(FaultSite::ServeSnapshotCorrupt, 0),
            || {
                assert!(plan_installed(), "shared plan counts as installed");
                assert!(fire(FaultSite::ServeStall, 1));
            },
        );
        assert_eq!(unfired, 1);
    }

    #[test]
    fn local_plan_shadows_shared_for_the_same_key() {
        let _g = SHARED_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // A thread-local fault consumes first; the shared copy stays pending.
        let ((), unfired) = with_shared_plan(
            FaultPlan::new().with(FaultSite::ServeStall, 7),
            || {
                with_plan(FaultPlan::new().with(FaultSite::ServeStall, 7), || {
                    assert!(fire(FaultSite::ServeStall, 7), "local copy fires first");
                });
                assert!(fire(FaultSite::ServeStall, 7), "shared copy still pending");
            },
        );
        assert_eq!(unfired, 0);
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let dir = std::env::temp_dir().join("taamr-fault-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flip.bin");
        fs::write(&path, [0b1010_1010u8, 0xFF]).unwrap();
        flip_bit(&path, 0, 0).unwrap();
        assert_eq!(fs::read(&path).unwrap(), [0b1010_1011u8, 0xFF]);
        flip_bit(&path, 0, 0).unwrap();
        assert_eq!(fs::read(&path).unwrap(), [0b1010_1010u8, 0xFF]);
        assert!(flip_bit(&path, 99, 0).is_err());
        fs::remove_file(path).ok();
    }

    #[test]
    fn truncate_keeps_prefix() {
        let dir = std::env::temp_dir().join("taamr-fault-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.bin");
        fs::write(&path, b"checkpoint-payload").unwrap();
        truncate_file(&path, 10).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"checkpoin\x74");
        truncate_file(&path, 1000).unwrap();
        assert_eq!(fs::read(&path).unwrap().len(), 10);
        fs::remove_file(path).ok();
    }
}
