//! The harness's counting allocator: every `allocs` metric is an exact
//! count of heap allocations and reallocations made by the calling thread
//! (frees are free passes — reuse is the point), the same rule as
//! `tests/alloc_budget.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator can neither allocate nor run after teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no slot any more; its last frees and
    // allocations are not ours to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `work` and returns how many allocations it made.
pub fn count<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let value = work();
    (value, allocations() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_boxed_values_are_n_allocations() {
        let mut keep = Vec::with_capacity(100);
        let ((), spent) = count(|| {
            for i in 0..100u64 {
                keep.push(Box::new(i));
            }
        });
        assert_eq!(spent, 100, "the pre-sized Vec must not count");
        assert_eq!(keep.len(), 100);
    }

    #[test]
    fn frees_and_allocation_free_work_count_nothing() {
        let boxed = Box::new(7u64);
        let (sum, spent) = count(|| {
            let sum = (0..1000u64).sum::<u64>() + *boxed;
            drop(boxed);
            sum
        });
        assert_eq!(sum, 499_507);
        assert_eq!(spent, 0);
    }

    #[test]
    fn growth_by_reallocation_counts() {
        let mut v: Vec<u8> = Vec::with_capacity(1);
        let ((), spent) = count(|| v.extend_from_slice(&[0; 4096]));
        assert_eq!(spent, 1, "one realloc to grow the buffer");
    }
}
