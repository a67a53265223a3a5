//! The counting global allocator of the allocation tests, shared by every
//! test binary that pins an allocation count. Include it as a module
//! carrying the one `unsafe_code` waiver:
//!
//! ```text
//! #[allow(unsafe_code, reason = "a counting GlobalAlloc")]
//! #[path = "../../../tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! Counts are kept per thread, so tests of one binary running side by side
//! do not perturb each other, and work a test hands to another thread is
//! not counted.

#![allow(dead_code, reason = "each test binary reads the counters it needs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without destructors: touching them never
    // allocates, so the allocator may use them.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<u64> = const { Cell::new(0) };
}

/// Counts one request of `size` bytes on the calling thread (nothing while
/// the thread's locals are being torn down).
fn count(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size as u64)));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// meets `GlobalAlloc`'s contract, and returns what `System` returned. The
// counting beside it only sets const-initialised thread-locals, which
// neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocator calls (alloc + realloc) the calling thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocator calls `f` makes on the calling thread, and its result.
pub fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocs();
    let out = f();
    (allocs() - before, out)
}

/// The largest single alloc/realloc request, in bytes, the calling thread
/// has made since the last call; reading it starts a new window.
pub fn take_largest_request() -> u64 {
    LARGEST.with(|m| m.replace(0))
}
