//! A counting global allocator for the allocation tests. Tests run on
//! parallel threads, so each thread keeps its own counts: a test reads
//! only what its own thread allocated.
//!
//! A test binary installs it with
//! `#[global_allocator] static ALLOCATOR: Counting = Counting;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub allocations: u64,
    /// Bytes allocated minus bytes freed: negative when the thread frees
    /// memory that another thread allocated.
    pub live_bytes: i64,
    /// The largest single request, in bytes.
    pub largest: usize,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            allocations: 0,
            live_bytes: 0,
            largest: 0,
        })
    };
}

fn record(grown: usize, freed: usize, is_request: bool) {
    // A thread being torn down has no counter left to bump.
    let _ = COUNTS.try_with(|cell| {
        let mut counts = cell.get();
        if is_request {
            counts.allocations += 1;
            counts.largest = counts.largest.max(grown);
        }
        counts.live_bytes += grown as i64 - freed as i64;
        cell.set(counts);
    });
}

/// Forwards to [`System`], counting every request on the calling thread.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0, true);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0, true);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size(), true);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size(), false);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f`, returning its output and what this thread allocated meanwhile
/// (`largest`: the largest request made during `f`).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = COUNTS.with(Cell::get);
    COUNTS.with(|cell| {
        cell.set(Counts {
            largest: 0,
            ..before
        })
    });
    let out = f();
    let after = COUNTS.with(Cell::get);
    let counts = Counts {
        allocations: after.allocations - before.allocations,
        live_bytes: after.live_bytes - before.live_bytes,
        largest: after.largest,
    };
    (out, counts)
}
