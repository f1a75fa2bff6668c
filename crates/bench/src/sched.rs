//! The one fan-out behind every population sweep of the crate (scan,
//! serve, push study): the paper's "thread pool with configurable
//! number of threads, each of which will test a web site" (§IV-B).
//!
//! [`sweep`] is the only place the crate spawns threads. Workers share
//! exactly one thing, the cursor that hands out indices, and claim one
//! index per `fetch_add`: an item is a site survey or a page-load cell
//! costing hundreds of microseconds of CPU, so one uncontended atomic
//! per item is noise, and handing out single indices keeps every worker
//! busy until the last item whatever the per-item cost spread (mute
//! sites finish in microseconds, retry-burning flaky sites take orders
//! of magnitude longer). Each worker keeps its results locally and hands
//! them back through the join, so nothing else is shared or locked.
//!
//! Concurrency rules for everything a worker touches:
//!
//! - Every atomic in the workspace uses `Ordering::Relaxed` (the root
//!   `tests/repository.rs` rejects any other ordering). Each one is a
//!   `fetch_add` counter, a `fetch_min`/`fetch_max` lattice join, this
//!   cursor or a monotonic latch; none orders other memory, and the join
//!   publishes every result.
//! - Every `Mutex` is a leaf lock: no code acquires a second lock while
//!   holding one, so there is no lock order to violate. The six are
//!   the record writer's file, `Obs`'s trace list and per-site event
//!   ring, the serve path's per-shard query cache, the
//!   resilient prober's `FaultLog`, and the worker-count check in this
//!   module's tests.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};

/// Runs `work(i)` once for every `i` in `0..n` on `threads.max(1)`
/// scoped threads named `scan-0…` and returns the results in index
/// order.
///
/// `make_worker(worker)` runs once on each thread to build that
/// thread's private state and returns the `work` closure that owns it;
/// both may borrow anything that outlives the call, because the scope
/// joins every thread before returning. Which thread runs which index
/// is scheduling-dependent, so `work(i)` must depend on `i` alone.
///
/// # Panics
///
/// Re-raises the first worker panic, but only after every worker has
/// stopped, so tearing down borrowed state never races a live worker.
pub fn sweep<T, W, F>(threads: usize, n: u64, make_worker: F) -> Vec<T>
where
    F: Fn(usize) -> W + Sync,
    W: FnMut(u64) -> T,
    T: Send,
{
    // Every worker stops at its first index >= n, so the cursor ends at
    // most `threads` past `n` and cannot wrap. `Relaxed` suffices: each
    // value `fetch_add` returns goes to exactly one worker, and results
    // come back through the join.
    let next = AtomicU64::new(0);
    let threads = threads.max(1);
    let parts: Vec<Vec<(u64, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let (next, make_worker) = (&next, &make_worker);
                std::thread::Builder::new()
                    .name(format!("scan-{worker}"))
                    .spawn_scoped(scope, move || {
                        let mut work = make_worker(worker);
                        // Room for an even share; a faster worker grows it.
                        let mut done = Vec::with_capacity(n as usize / threads);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return done;
                            }
                            done.push((i, work(i)));
                        }
                    })
                    .expect("spawn scan worker")
            })
            .collect();
        let mut parts = Vec::with_capacity(handles.len());
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => parts.push(done),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        parts
    });
    // Each worker's indices ascend, so index `i` is at the head of
    // exactly one part.
    let mut parts: Vec<_> = parts
        .into_iter()
        .map(|part| part.into_iter().peekable())
        .collect();
    (0..n)
        .map(|i| {
            let (_, result) = parts
                .iter_mut()
                .find_map(|part| part.next_if(|(claimed, _)| *claimed == i))
                .expect("every index is claimed by exactly one worker");
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Barrier, Mutex};

    #[test]
    fn every_index_runs_once_and_results_come_back_in_index_order() {
        let runs: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let runs = &runs;
        let results = sweep(4, 1000, |_worker| {
            move |i| {
                runs[i as usize].fetch_add(1, Ordering::Relaxed);
                i * 2
            }
        });
        assert!(runs.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        assert_eq!(results, (0..1000).map(|i| i * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_sweep_yields_nothing() {
        assert_eq!(sweep(4, 0, |_worker| |i| i), Vec::<u64>::new());
    }

    #[test]
    fn make_worker_runs_once_per_thread_on_named_threads() {
        // The barrier keeps all four threads alive at once, so each of
        // them must have built its own worker.
        let all_built = Barrier::new(4);
        let built = Mutex::new(Vec::new());
        sweep(4, 64, |worker| {
            let name = std::thread::current().name().map(str::to_owned);
            built.lock().expect("built").push((worker, name));
            all_built.wait();
            |i| i
        });
        let mut built = built.into_inner().expect("built");
        built.sort();
        let expected: Vec<_> = (0..4).map(|w| (w, Some(format!("scan-{w}")))).collect();
        assert_eq!(built, expected);
    }

    #[test]
    fn zero_threads_runs_one_worker() {
        let built = AtomicUsize::new(0);
        let results = sweep(0, 5, |_worker| {
            built.fetch_add(1, Ordering::Relaxed);
            |i| i
        });
        assert_eq!(results, vec![0, 1, 2, 3, 4]);
        assert_eq!(built.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_panic_propagates_after_the_others_finish() {
        // The barrier holds every worker back until all three run, so
        // two of them are live while the one that drew index 0 unwinds;
        // they must still finish the other 99 items.
        let all_running = Barrier::new(3);
        let (all_running, finished) = (&all_running, &AtomicUsize::new(0));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            sweep(3, 100, |_worker| {
                all_running.wait();
                move |i| {
                    if i == 0 {
                        panic!("deliberate test panic");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                }
            });
        }));
        let payload = caught.expect_err("worker panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"deliberate test panic"),
            "the worker's own payload is re-raised"
        );
        assert_eq!(finished.load(Ordering::Relaxed), 99);
        // Nothing persists between calls, so the next one just works.
        assert_eq!(sweep(3, 3, |_worker| |i| i), vec![0, 1, 2]);
    }
}
