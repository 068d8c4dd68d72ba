//! Counting global allocator: the system allocator plus three
//! counters — heap acquisitions, bytes acquired and bytes released —
//! so both allocations per event and net live heap bytes are exact.
//!
//! This is the counter of the `dataplane` criterion bench, extended to
//! count bytes. The counts are statistics that publish no other data,
//! hence `Relaxed`; the benchmark is single-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ACQUIRED: AtomicU64 = AtomicU64::new(0);
static RELEASED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates touch
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ACQUIRED.fetch_add(l.size() as u64, Relaxed);
        // SAFETY: the caller's layout contract is passed through as is.
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        RELEASED.fetch_add(l.size() as u64, Relaxed);
        // SAFETY: `p` came from this allocator (hence `System`) with `l`.
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ACQUIRED.fetch_add(l.size() as u64, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ACQUIRED.fetch_add(new_size as u64, Relaxed);
        RELEASED.fetch_add(l.size() as u64, Relaxed);
        // SAFETY: `p` came from `System` with layout `l`; the caller
        // guarantees `new_size` is valid for `l.align()`.
        unsafe { System.realloc(p, l, new_size) }
    }
}

/// Heap acquisitions so far (alloc, alloc_zeroed and realloc).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Net live heap bytes: acquired minus released.
pub fn live_bytes() -> i64 {
    ACQUIRED.load(Relaxed) as i64 - RELEASED.load(Relaxed) as i64
}
