//! A counting allocator for `allocs_per_tx`.
//!
//! Installed as the global allocator by the binary target only; the count
//! is per thread, so the single-threaded in-memory replay reads its own
//! allocations and nothing the other threads do. The cost on every other
//! path is one thread-local increment per allocation, the same on every
//! commit the benchmark compares.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of `alloc`/`realloc` calls.
pub struct CountingAllocator;

fn bump() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those calls go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, which always delegates
        // to `System`, with this `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations the calling thread has made so far (0 forever when the
/// counting allocator is not installed, as in the library's unit tests).
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
