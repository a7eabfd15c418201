//! Peak heap usage of the program, counted by a wrapper around the system
//! allocator.
//!
//! The peak resident set size of the serving workloads moved by several
//! MiB between identical runs, with the reuse of glibc's per-thread
//! arenas. The bytes the program holds allocated at once do not depend on
//! the allocator's bookkeeping, so the benchmark reports their peak.
//!
//! What the benchmark's own client allocates is not the program's memory:
//! the reference answers its checks compare against, the requests it
//! sends and the responses it parses. Code that runs inside [`uncounted`]
//! allocates outside the count. Each allocation carries a one-byte tag,
//! in a header in front of it, that says whether it was counted, so it
//! leaves the count exactly as it entered, whichever thread frees it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their peak.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(true) };
}

/// Runs `f` with the current thread's allocations left out of the count.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = COUNTING.with(|c| c.replace(false));
    let out = f();
    COUNTING.with(|c| c.set(was));
    out
}

fn counting_here() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(true)
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Bytes in front of an allocation: room for the tag, keeping the
/// caller's alignment.
fn header(layout: Layout) -> usize {
    layout.align().max(16)
}

/// The layout handed to the system allocator for `size` caller bytes.
fn full(layout: Layout, size: usize) -> Option<Layout> {
    Layout::from_size_align(size.checked_add(header(layout))?, layout.align()).ok()
}

impl Counting {
    /// Tags a fresh system block and returns the caller's pointer.
    ///
    /// # Safety
    ///
    /// `base` must be null or a block of `full(layout, layout.size())`.
    unsafe fn tag(base: *mut u8, layout: Layout) -> *mut u8 {
        if base.is_null() {
            return base;
        }
        let counted = counting_here();
        if counted {
            grow(layout.size());
        }
        let h = header(layout);
        // SAFETY: the block is at least `h` bytes longer than the caller's
        // size, so the tag byte and the returned pointer lie inside it.
        unsafe {
            base.add(h - 1).write(u8::from(counted));
            base.add(h)
        }
    }

    /// The system block behind a caller's pointer, and its tag.
    ///
    /// # Safety
    ///
    /// `ptr` must come from this allocator with `layout`.
    unsafe fn untag(ptr: *mut u8, layout: Layout) -> (*mut u8, bool) {
        let h = header(layout);
        // SAFETY: `tag` returned `ptr` as `h` bytes past the block's start
        // and wrote the tag just before it.
        unsafe {
            let base = ptr.sub(h);
            (base, base.add(h - 1).read() != 0)
        }
    }
}

// SAFETY: every block comes from `System` with the caller's alignment and
// room for the header in front; the pointer handed out is the block's
// start plus the header, which keeps the alignment because the header is
// a multiple of it. The counters are statistics no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some(full) = full(layout, layout.size()) else {
            return std::ptr::null_mut();
        };
        // SAFETY: `full` has a non-zero size; the block has its layout.
        unsafe { Self::tag(System.alloc(full), layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let Some(full) = full(layout, layout.size()) else {
            return std::ptr::null_mut();
        };
        // SAFETY: as in `alloc`.
        unsafe { Self::tag(System.alloc_zeroed(full), layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a pointer of this allocator and its
        // layout, which `alloc` extended to `full` without overflow.
        unsafe {
            let (base, counted) = Self::untag(ptr, layout);
            let full =
                Layout::from_size_align_unchecked(layout.size() + header(layout), layout.align());
            System.dealloc(base, full);
            if counted {
                shrink(layout.size());
            }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let Some(new_full) = full(layout, new_size) else {
            return std::ptr::null_mut();
        };
        // SAFETY: as in `dealloc`; `realloc` keeps the header's bytes,
        // tag included, at the front of the moved block.
        unsafe {
            let (base, counted) = Self::untag(ptr, layout);
            let old_full =
                Layout::from_size_align_unchecked(layout.size() + header(layout), layout.align());
            let new = System.realloc(base, old_full, new_full.size());
            if new.is_null() {
                return new;
            }
            if counted {
                shrink(layout.size());
                grow(new_size);
            }
            new.add(header(layout))
        }
    }
}

/// Most bytes the program held allocated at once so far, in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Bytes the program holds allocated now.
#[cfg(test)]
fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncounted_allocations_leave_the_count_alone() {
        // Other tests of this binary allocate concurrently, so compare
        // against a block far larger than their noise.
        const BIG: usize = 64 << 20;
        let before = live();
        let counted = vec![1u8; BIG];
        assert!(live() >= before + BIG / 2, "a counted block is counted");
        let mut hidden = uncounted(|| vec![1u8; BIG]);
        drop(counted);
        assert!(live() < before + BIG / 2, "an uncounted block is not");
        hidden.resize(2 * BIG, 0);
        assert!(live() < before + BIG / 2, "nor is its growth");
        drop(hidden);
        assert!(live() < before + BIG / 2);
    }
}
