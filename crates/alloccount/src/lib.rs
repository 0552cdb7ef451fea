//! Counting global allocator (audited unsafe).
//!
//! Wraps [`std::alloc::System`] and counts every allocation and
//! reallocation, so the root `tests/zero_alloc.rs` test and the
//! benchmark's `gan.allocs_per_step` metric can check the workspace
//! training path's defining property: **allocs/step == 0 after
//! warm-up**. Install it per binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ltfb_alloccount::CountingAlloc = ltfb_alloccount::CountingAlloc;
//!
//! let before = ltfb_alloccount::counts();
//! run_steady_state_step();
//! let after = ltfb_alloccount::counts();
//! assert_eq!(after.allocs - before.allocs, 0);
//! ```
//!
//! Counters are process-global atomics; attribute deltas to a region
//! only when no other thread allocates concurrently (the test runs the
//! training step single-threaded — matrices stay under the rayon shim's
//! inline threshold — so deltas are exact).
//!
//! This is the one crate in the workspace that needs `unsafe`: a
//! [`GlobalAlloc`] impl cannot be written without it. The impl only
//! increments atomics and forwards to `System`; lint LA006's
//! `#![forbid(unsafe_code)]` requirement is waived for this crate in
//! `crates/analyze/lint.allow`.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocation counters at one instant (monotonic; subtract snapshots to
/// measure a region).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`/`alloc_zeroed`, plus growing `realloc`s.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl Counts {
    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Current process-wide totals (valid whether or not [`CountingAlloc`]
/// is installed; all-zero without it).
pub fn counts() -> Counts {
    Counts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// The counting allocator: forwards to [`System`], tallying as it goes.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not installed as the test binary's global allocator here (that
    // would perturb every other test); the GlobalAlloc impl itself is
    // exercised via raw calls.
    #[test]
    fn counts_increment_and_subtract() {
        let a = counts();
        let layout = Layout::from_size_align(64, 8).unwrap();
        unsafe {
            let p = CountingAlloc.alloc(layout);
            assert!(!p.is_null());
            CountingAlloc.dealloc(p, layout);
        }
        let b = counts();
        let d = b.since(a);
        assert_eq!(d.allocs, 1);
        assert_eq!(d.bytes, 64);
    }

    #[test]
    fn shrinking_realloc_is_free_growing_counts() {
        let layout = Layout::from_size_align(128, 8).unwrap();
        unsafe {
            let p = CountingAlloc.alloc(layout);
            let before = counts();
            let p2 = CountingAlloc.realloc(p, layout, 64);
            assert_eq!(counts().since(before).allocs, 0, "shrink is free");
            let l64 = Layout::from_size_align(64, 8).unwrap();
            let p3 = CountingAlloc.realloc(p2, l64, 256);
            assert_eq!(counts().since(before).allocs, 1, "growth counts");
            CountingAlloc.dealloc(p3, Layout::from_size_align(256, 8).unwrap());
        }
    }
}
