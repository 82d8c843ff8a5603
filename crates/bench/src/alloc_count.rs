//! A counting global allocator, so experiments can report *exact*
//! heap-allocation counts per inference — the metric the memory planner
//! is supposed to drive to ~zero on the steady-state serve path.
//!
//! Counting is a single relaxed atomic increment on top of the system
//! allocator; the perf experiments in this crate stay meaningful with
//! it enabled. Only `duet-bench` binaries/benches link this, so the
//! rest of the workspace keeps the plain system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator that counts every `alloc`/`realloc` call.
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Total allocation calls since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Run `f` and return `(allocation calls it made, its result)`.
///
/// The count is process-wide: keep other threads quiet while measuring.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocations();
    let result = f();
    (allocations() - before, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_heap_allocation() {
        let (n, v) = count_allocs(|| Vec::<u64>::with_capacity(32));
        assert!(n >= 1, "Vec::with_capacity must hit the allocator");
        drop(v);
    }

    // Counting zero allocations needs a process with no other test
    // threads allocating: see `tests/alloc_count.rs`.
}
