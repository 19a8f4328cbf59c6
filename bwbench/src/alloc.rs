//! Counting global allocator with per-thread attribution.
//!
//! Every allocation (and reallocation) is counted against the calling
//! thread's tag. Threads the benchmark starts itself call [`tag_bench`]; all
//! other threads — the server's acceptor and event loops — keep the default
//! tag and are counted as server work. Counts are exact, so a change that
//! removes an allocation from the request path shows as a count, not as a
//! timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

const SERVER: usize = 0;
const BENCH: usize = 1;

#[repr(align(64))]
struct Counter(AtomicU64);

static COUNTS: [Counter; 2] = [Counter(AtomicU64::new(0)), Counter(AtomicU64::new(0))];

thread_local! {
    static TAG: Cell<usize> = const { Cell::new(SERVER) };
}

/// The process allocator: `System`, plus one relaxed counter bump.
pub struct Counting;

fn count() {
    let tag = TAG.try_with(Cell::get).unwrap_or(SERVER);
    // A statistic only: it publishes no other data.
    COUNTS[tag].0.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter bump touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Mark the calling thread as the benchmark's own (generator, replays).
pub fn tag_bench() {
    TAG.with(|t| t.set(BENCH));
}

/// Allocations made so far by threads the benchmark did not tag.
pub fn server() -> u64 {
    COUNTS[SERVER].0.load(Ordering::Relaxed)
}

/// Allocations made so far by the benchmark's own threads.
pub fn bench() -> u64 {
    COUNTS[BENCH].0.load(Ordering::Relaxed)
}
