//! A counting global allocator owned by the benchmark.
//!
//! Each thread counts its own allocations, so the span tracer can read
//! the counter before and after a wrapped call and charge the difference
//! to that call's layer without any cross-thread interference.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is tearing down its TLS; an
    // allocation made then is simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations (including reallocations) made so far on this thread.
pub fn count() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// [`System`] plus a per-thread allocation counter.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no heap memory
// (a const-initialised `Cell<u64>` has no destructor and never allocates).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation of this allocator is a `System` allocation).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
