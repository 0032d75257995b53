//! Counting global allocator shared by the zero-allocation tests
//! (`lbq-obs/tests/zero_alloc.rs`, `lbq-core/tests/zero_alloc.rs`,
//! `lbq-serve/tests/inline_alloc.rs`),
//! pulled in with `#[path]` — one copy of the one `unsafe` shim.
//!
//! Implementing `GlobalAlloc` requires `unsafe`; the workspace denies
//! `unsafe_code` via a Cargo lint (a CLI `-D`), which this module-level
//! `expect` overrides for the including test binaries only. Counts are
//! **per thread**: cargo runs the tests of one binary on parallel
//! threads, pool workers allocate on their own, and each measured
//! window must see only its own thread's allocations.
#![expect(unsafe_code, reason = "implementing GlobalAlloc requires unsafe")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and destructor-free, so touching it from the
    // allocator neither allocates nor recurses.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread tearing down its TLS may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
pub(crate) fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: defers every operation to `System` unchanged; the only
// addition is a thread-local counter bump that cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
