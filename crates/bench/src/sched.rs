//! Work claiming, result collection, and the worker fan-out for every
//! population sweep of the crate (scan, serve, push study, abuse).
//!
//! The original scan loop gave worker `w` the arithmetic stride `w, w+T,
//! w+2T, …` and funneled every finished record through an unbounded
//! channel, then sorted the whole campaign by site index afterwards. Both
//! halves cost more than they need to:
//!
//! * static striding load-balances badly when per-site cost varies (mute
//!   sites finish in microseconds, retry-burning flaky sites take orders
//!   of magnitude longer), and
//! * the channel allocates per record and the final sort is an
//!   O(n log n) pass over data whose order was known all along.
//!
//! [`WorkQueue`] replaces the stride with chunked atomic claiming: a
//! worker grabs the next chunk-sized index range with one compare-exchange,
//! so contention is one atomic per chunk instead of any per-site
//! coordination, and a slow site only delays its own chunk. The chunk
//! size adapts to the population/thread ratio (see [`chunk_size`]) so
//! small populations still fan out across every worker. [`Slots`]
//! replaces the channel + sort: results are written directly into a
//! pre-sized slot addressed by site index, so collection is O(n) and
//! allocation-free per record.
//!
//! [`run_workers`] is the one place threads are spawned: a scoped
//! fan-out whose workers borrow the queue, the slots and whatever else
//! the campaign shares, so no sweep needs channels or reference-counted
//! copies of its state to get work in and results out.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Upper bound on indices claimed per atomic operation. Small enough
/// that an unlucky worker stuck behind a pathological chunk strands at
/// most `MAX_CHUNK - 1` cheap sites, large enough that the claim counter
/// never becomes a contended cache line.
pub const MAX_CHUNK: u64 = 16;

/// The claim granularity for `total` indices split across `threads`
/// workers: `clamp(total / (threads * 8), 1, MAX_CHUNK)`.
///
/// The old fixed chunk of 16 capped parallelism at `⌈total / 16⌉`
/// workers — a 105-site benchmark population had 7 claimable chunks, so
/// an 8-thread scan structurally idled a worker. Adapting to the ratio
/// guarantees at least `8 × threads` chunks whenever the population is
/// large enough to split that far (and one-index chunks below that), so
/// every worker claims work whenever `total ≥ threads`.
pub fn chunk_size(total: u64, threads: usize) -> u64 {
    let threads = threads.max(1) as u64;
    (total / (threads * 8)).clamp(1, MAX_CHUNK)
}

/// A shared counter handing out disjoint index ranges `[0, total)`.
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicU64,
    total: u64,
    chunk: u64,
}

impl WorkQueue {
    /// A queue over the index space `0..total`, with claim granularity
    /// adapted to `threads` (see [`chunk_size`]).
    pub fn new(total: u64, threads: usize) -> WorkQueue {
        WorkQueue {
            next: AtomicU64::new(0),
            total,
            chunk: chunk_size(total, threads),
        }
    }

    /// Claims the next unclaimed chunk, or `None` when the index space is
    /// exhausted. Ranges returned to different callers never overlap,
    /// which is what makes the per-index [`Slots::put`] writes race-free.
    ///
    /// An exhausted claim is non-mutating: the counter saturates at
    /// `total` instead of creeping upward with every poll, so it can
    /// never wrap around, and workers polling an exhausted queue stop
    /// dirtying the shared cache line.
    pub fn claim(&self) -> Option<Range<u64>> {
        let mut start = self.next.load(Ordering::Relaxed);
        loop {
            if start >= self.total {
                return None;
            }
            let end = (start + self.chunk).min(self.total);
            match self
                .next
                .compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(start..end),
                Err(observed) => start = observed,
            }
        }
    }

    /// Indices not yet handed out (0 once exhausted).
    pub fn remaining(&self) -> u64 {
        self.total.saturating_sub(self.next.load(Ordering::Relaxed))
    }
}

/// Pre-sized, index-addressed result collection.
///
/// Each slot is a [`OnceLock`], so concurrent workers can fill disjoint
/// indices through a shared reference without locks or channels; the
/// scan's claim discipline guarantees each index is written exactly once.
#[derive(Debug)]
pub struct Slots<T> {
    slots: Vec<OnceLock<T>>,
}

impl<T> Slots<T> {
    /// `len` empty slots.
    pub fn new(len: usize) -> Slots<T> {
        let mut slots = Vec::with_capacity(len);
        slots.resize_with(len, OnceLock::new);
        Slots { slots }
    }

    /// Fills slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already filled — that would mean two
    /// workers claimed the same index, which the queue's claim discipline
    /// rules out.
    pub fn put(&self, index: usize, value: T) {
        if self.slots[index].set(value).is_err() {
            panic!("slot {index} filled twice");
        }
    }

    /// Unwraps the collection into index order.
    ///
    /// # Panics
    ///
    /// Panics if any slot is empty (a worker exited without finishing its
    /// claimed range, which only happens via a worker panic — already
    /// propagated by [`run_workers`]).
    pub fn into_vec(self) -> Vec<T> {
        self.slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot.into_inner() {
                Some(value) => value,
                None => panic!("slot {i} never filled"),
            })
            .collect()
    }
}

/// Runs `work(worker)` on `threads.max(1)` scoped threads named
/// `scan-0…` and returns their results in worker order.
///
/// Workers may borrow anything that outlives the call (the queue, the
/// slots, the population, a record writer): the scope joins every one
/// of them before returning.
///
/// # Panics
///
/// Re-raises the first worker panic, but only after every worker has
/// stopped, so tearing down borrowed state never races a live worker.
pub fn run_workers<R, F>(threads: usize, work: F) -> Vec<R>
where
    F: Fn(usize) -> R + Sync,
    R: Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|worker| {
                let work = &work;
                std::thread::Builder::new()
                    .name(format!("scan-{worker}"))
                    .spawn_scoped(scope, move || work(worker))
                    .expect("spawn scan worker")
            })
            .collect();
        let mut results = Vec::with_capacity(handles.len());
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(result) => results.push(result),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn claims_cover_the_index_space_exactly_once() {
        let queue = WorkQueue::new(103, 4);
        let mut seen = vec![0u32; 103];
        while let Some(range) = queue.claim() {
            for i in range {
                seen[i as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let queue = WorkQueue::new(0, 4);
        assert_eq!(queue.claim(), None);
    }

    #[test]
    fn chunk_adapts_to_population_and_thread_count() {
        // Huge population: chunk saturates at MAX_CHUNK.
        assert_eq!(chunk_size(1_000_000, 8), MAX_CHUNK);
        // 105 sites / 8 threads must not leave a worker without a
        // claimable chunk (105/64 = 1-index chunks).
        assert_eq!(chunk_size(105, 8), 1);
        // Mid-size: total/(threads*8), between the clamps.
        assert_eq!(chunk_size(320, 8), 5);
        // Degenerate inputs stay sane.
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(10, 0), 1);
    }

    #[test]
    fn every_worker_claims_work_when_total_is_at_least_threads() {
        // The structural guarantee behind the adaptive chunk: whenever
        // total >= threads there are at least `threads` chunks, so no
        // worker can be idled by the claim granularity alone.
        for threads in [1usize, 2, 3, 4, 8, 16, 32] {
            for total in [threads as u64, 105, 1000, 52_471] {
                if total < threads as u64 {
                    continue;
                }
                let chunk = chunk_size(total, threads);
                let chunks = total.div_ceil(chunk);
                assert!(
                    chunks >= threads as u64,
                    "total={total} threads={threads}: only {chunks} chunks"
                );
            }
        }
        // And dynamically: with each of 8 workers claiming exactly once
        // from a 105-site queue (the shape that idled the 8th worker
        // under the fixed chunk), every claim must succeed.
        let queue = WorkQueue::new(105, 8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    assert!(queue.claim().is_some(), "worker starved of a first chunk");
                });
            }
        });
    }

    #[test]
    fn exhausted_claims_do_not_mutate_the_counter() {
        let queue = WorkQueue::new(100, 4);
        while queue.claim().is_some() {}
        let settled = queue.next.load(Ordering::Relaxed);
        assert!(settled >= 100);
        for _ in 0..1000 {
            assert_eq!(queue.claim(), None);
        }
        assert_eq!(
            queue.next.load(Ordering::Relaxed),
            settled,
            "post-exhaustion claims crept the counter"
        );
        assert_eq!(queue.remaining(), 0);
    }

    #[test]
    fn claimed_positions_cover_a_sparse_list_exactly_once() {
        // The resume path's shape: a queue over positions of a sparse
        // `missing` list, mapped back through the list.
        let missing: Vec<u64> = (0..217).filter(|i| i % 3 != 0).collect();
        let queue = WorkQueue::new(missing.len() as u64, 4);
        let mut claimed = Vec::new();
        while let Some(range) = queue.claim() {
            claimed.extend(range.map(|pos| missing[pos as usize]));
        }
        assert_eq!(claimed, missing);
        let settled = queue.next.load(Ordering::Relaxed);
        for _ in 0..1000 {
            assert_eq!(queue.claim(), None);
        }
        assert_eq!(
            queue.next.load(Ordering::Relaxed),
            settled,
            "post-exhaustion claims crept the counter"
        );
    }

    #[test]
    fn slots_collect_in_index_order_regardless_of_fill_order() {
        let slots = Slots::new(5);
        for i in [3usize, 0, 4, 1, 2] {
            slots.put(i, i * 10);
        }
        assert_eq!(slots.into_vec(), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn concurrent_workers_partition_the_space() {
        let queue = WorkQueue::new(1000, 4);
        let slots = Slots::new(1000);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(range) = queue.claim() {
                        for i in range {
                            slots.put(i as usize, i * 2);
                        }
                    }
                });
            }
        });
        let collected = slots.into_vec();
        assert!(collected
            .iter()
            .enumerate()
            .all(|(i, &v)| v == i as u64 * 2));
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn double_fill_panics() {
        let slots = Slots::new(1);
        slots.put(0, 1);
        slots.put(0, 2);
    }

    #[test]
    fn run_workers_runs_each_index_once_in_worker_order() {
        let seen = Slots::new(4);
        let results = run_workers(4, |worker| {
            seen.put(worker, std::thread::current().name().map(str::to_owned));
            worker * 10
        });
        assert_eq!(results, vec![0, 10, 20, 30]);
        let names: Vec<String> = seen.into_vec().into_iter().flatten().collect();
        assert_eq!(names, ["scan-0", "scan-1", "scan-2", "scan-3"]);
    }

    #[test]
    fn zero_threads_runs_one_worker() {
        assert_eq!(run_workers(0, |worker| worker), vec![0]);
    }

    #[test]
    fn worker_panic_propagates_after_the_others_finish() {
        // The barrier holds the survivors back until worker 0 is about
        // to panic, so their bumps happen while (or after) it unwinds.
        let about_to_panic = Barrier::new(3);
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_workers(3, |worker| {
                about_to_panic.wait();
                if worker == 0 {
                    panic!("deliberate test panic");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = caught.expect_err("worker panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"deliberate test panic"),
            "the worker's own payload is re-raised"
        );
        assert_eq!(finished.load(Ordering::Relaxed), 2);
        // Nothing persists between calls, so the next one just works.
        assert_eq!(run_workers(3, |worker| worker), vec![0, 1, 2]);
    }
}
