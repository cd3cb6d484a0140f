//! Scoped worker pool for deterministic fan-out of independent simulations.
//!
//! The registry is unreachable in this build environment, so the pool is
//! hand-rolled on [`std::thread::scope`] instead of pulling in rayon. It is
//! deliberately minimal: a shared atomic work index hands out job indices to
//! `jobs` worker threads, every worker buffers `(index, result)` pairs
//! locally, and the buffers are merged and sorted by index after the scope
//! joins. Because each job is a pure function of its index and results are
//! returned in input order, the output is **bit-identical for every `jobs`
//! value** — OS scheduling decides only *when* a job runs, never what it
//! computes or where its result lands.
//!
//! This file is the one sanctioned thread-spawning site in the workspace:
//! the determinism lint's `wallclock`/ambient-entropy rule (d2) flags
//! `thread::spawn` / `thread::scope` / `available_parallelism` everywhere
//! else, because ad-hoc concurrency is the easiest way to let scheduling
//! nondeterminism leak into model state. See DESIGN.md §9.
//!
//! # Example
//!
//! ```
//! use wsg_sim::pool;
//!
//! let squares = pool::run_indexed(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Input order is preserved regardless of the worker count:
//! assert_eq!(squares, pool::run_indexed(1, 8, |i| i * i));
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the host's available parallelism, or 1 when it
/// cannot be determined. This is the only machine-dependent input to the
/// pool, and it only ever changes wall-clock time, never results.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(0), f(1), …, f(n - 1)` across up to `jobs` worker threads and
/// returns the results **in index order**.
///
/// With `jobs <= 1` (or fewer than two items) everything runs on the calling
/// thread in index order — byte-for-byte the serial path, with no threads
/// spawned at all. `f` must be safe to call concurrently from multiple
/// threads; each index is handed to exactly one worker.
///
/// # Panics
///
/// Propagates the first panic raised by `f`. A panicking job aborts the
/// pool promptly: the other workers stop at their next job boundary
/// instead of draining the remaining indices, so a failure in run 2 of a
/// 500-run sweep does not surface minutes later.
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(jobs, n, f, |_| {})
}

/// [`run_indexed`] with a completion observer: `on_done(i)` runs after job
/// `i` finishes (on the worker thread that ran it, in completion — not
/// index — order). The observer exists for live progress reporting; it must
/// not influence results.
pub fn run_indexed_with<T, F, O>(jobs: usize, n: usize, f: F, on_done: O) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    O: Fn(usize) + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n)
            .map(|i| {
                let r = f(i);
                on_done(i);
                r
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let merged: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    while !aborted.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // Catch the payload here rather than letting it
                        // unwind the worker, so the abort flag is raised the
                        // moment the panic happens and the other workers cut
                        // their job loops short.
                        match catch_unwind(AssertUnwindSafe(|| f(i))) {
                            Ok(r) => {
                                local.push((i, r));
                                on_done(i);
                            }
                            Err(payload) => {
                                aborted.store(true, Ordering::Relaxed);
                                if let Ok(mut slot) = first_panic.lock() {
                                    slot.get_or_insert(payload);
                                }
                                break;
                            }
                        }
                    }
                    // A poisoned mutex means another worker panicked while
                    // merging; that panic is about to be propagated below,
                    // so this worker's results are moot.
                    if let Ok(mut out) = merged.lock() {
                        out.extend(local);
                    }
                })
            })
            .collect();
        // Join every worker before re-raising, so the scope never has to
        // auto-join a panicked thread (which would mask the payload). Only
        // an observer panic can reach join() now; keep its payload too.
        for worker in workers {
            if let Err(payload) = worker.join() {
                aborted.store(true, Ordering::Relaxed);
                if let Ok(mut slot) = first_panic.lock() {
                    slot.get_or_insert(payload);
                }
            }
        }
    });
    let payload = match first_panic.into_inner() {
        Ok(slot) => slot,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
    let mut pairs = match merged.into_inner() {
        Ok(pairs) => pairs,
        Err(poisoned) => poisoned.into_inner(),
    };
    pairs.sort_by_key(|&(i, _)| i);
    assert_eq!(pairs.len(), n, "worker pool lost results");
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// A boxed unit of work for a [`TaskPool`] worker.
pub type Task = Box<dyn FnOnce() + Send>;

/// A long-lived service worker pool: `jobs` threads repeatedly ask a
/// caller-supplied `fetch` closure for the next task and run it.
///
/// Where [`run_indexed`] fans a *fixed batch* of independent jobs out and
/// joins, `TaskPool` serves an *open-ended stream* — the request scheduler of
/// the `hdpat-sim serve` daemon feeds it submissions as clients produce
/// them. Scheduling policy lives entirely in `fetch` (the pool imposes no
/// queue of its own), so fairness and priority decisions stay with the
/// caller; the pool only owns the threads. `fetch` may block (e.g. on a
/// condvar) until work is available and returns `None` to tell the calling
/// worker to exit — once every worker has seen `None`, [`TaskPool::join`]
/// returns.
///
/// Like the batch pool, this type never touches model state: tasks are
/// host-side harness work, and determinism of simulation outputs is owned by
/// the tasks themselves (each simulation is a pure function of its config).
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::{Arc, Mutex};
/// use wsg_sim::pool::{Task, TaskPool};
///
/// let done = Arc::new(AtomicUsize::new(0));
/// let queue = Arc::new(Mutex::new(vec![1u32, 2, 3]));
/// let pool = TaskPool::new(2, {
///     let (queue, done) = (queue.clone(), done.clone());
///     move || -> Option<Task> {
///         let item = queue.lock().ok()?.pop()?;
///         let done = done.clone();
///         Some(Box::new(move || {
///             done.fetch_add(item as usize, Ordering::Relaxed);
///         }))
///     }
/// });
/// pool.join();
/// assert_eq!(done.load(Ordering::Relaxed), 6);
/// ```
#[derive(Debug)]
pub struct TaskPool {
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl TaskPool {
    /// Spawns `jobs` worker threads (at least one), each looping
    /// `while let Some(task) = fetch() { task() }`.
    ///
    /// A panicking task takes its worker down but leaves the others running;
    /// [`TaskPool::join`] reports how many workers died that way.
    pub fn new<F>(jobs: usize, fetch: F) -> Self
    where
        F: Fn() -> Option<Task> + Send + Sync + 'static,
    {
        let fetch = std::sync::Arc::new(fetch);
        let workers = (0..jobs.max(1))
            .map(|i| {
                let fetch = fetch.clone();
                std::thread::Builder::new()
                    .name(format!("wsg-task-{i}"))
                    .spawn(move || {
                        while let Some(task) = fetch() {
                            // Isolate task panics so one bad request cannot
                            // silently wedge the scheduler: the worker keeps
                            // serving, the panic is reported on join.
                            if catch_unwind(AssertUnwindSafe(task)).is_err() {
                                // Payload already printed by the default
                                // panic hook; nothing model-visible here.
                            }
                        }
                    })
                    .unwrap_or_else(|e| panic!("cannot spawn task-pool worker: {e}"))
            })
            .collect();
        Self { workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Waits for every worker to exit (i.e. for `fetch` to have returned
    /// `None` to each of them). The caller is responsible for making `fetch`
    /// terminate — typically by flipping a shutdown flag and notifying the
    /// condvar `fetch` blocks on.
    pub fn join(self) {
        for w in self.workers {
            // Worker bodies catch task panics, so join errors are
            // unreachable in practice; swallow defensively.
            let _ = w.join();
        }
    }
}

/// Spawns one named detached harness thread. This is the sanctioned wrapper
/// for service-side threads that do not fit the indexed-batch model — e.g.
/// the per-connection reader loops of the `hdpat-sim serve` daemon. The
/// handle may be joined or dropped; the thread must never touch simulator
/// model state (the same contract as the worker pools in this module).
pub fn spawn_detached<F>(name: &str, f: F) -> std::thread::JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .unwrap_or_else(|e| panic!("cannot spawn harness thread `{name}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_indexed(1, 100, |i| i as u64 * 3 + 1);
        for jobs in [2, 4, 7] {
            assert_eq!(serial, run_indexed(jobs, 100, |i| i as u64 * 3 + 1));
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = run_indexed(4, 0, |_| 1);
        assert!(empty.is_empty());
        assert_eq!(run_indexed(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_jobs_than_items() {
        assert_eq!(run_indexed(16, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn results_keep_input_order_under_skew() {
        // Early indices do the most work, so late indices finish first on a
        // multi-core host; order must still be by index.
        let out = run_indexed(4, 32, |i| {
            let spin = (32 - i) * 10_000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = run_indexed(2, 8, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn worker_panic_aborts_remaining_jobs_promptly() {
        use std::sync::atomic::AtomicUsize;
        // Job 0 panics immediately; every other job takes ~2 ms. Without
        // the abort flag the surviving worker would drain all remaining
        // indices before the panic resurfaces; with it, only the handful of
        // jobs already in flight run to completion.
        let executed = AtomicUsize::new(0);
        let n = 256;
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(2, n, |i| {
                if i == 0 {
                    panic!("early failure");
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                executed.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "early failure");
        assert!(
            executed.load(Ordering::Relaxed) < n / 2,
            "pool drained {} of {n} jobs after a panic",
            executed.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn observer_sees_every_completed_job() {
        use std::sync::atomic::AtomicUsize;
        for jobs in [1, 4] {
            let done = AtomicUsize::new(0);
            let out = run_indexed_with(
                jobs,
                50,
                |i| i * 2,
                |_| {
                    done.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(out.len(), 50);
            assert_eq!(done.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn task_pool_drains_queue_and_joins() {
        use std::sync::Arc;
        for jobs in [1, 3] {
            let queue = Arc::new(Mutex::new((0u32..40).collect::<Vec<_>>()));
            let sum = Arc::new(AtomicUsize::new(0));
            let pool = TaskPool::new(jobs, {
                let (queue, sum) = (queue.clone(), sum.clone());
                move || -> Option<Task> {
                    let item = queue.lock().ok()?.pop()?;
                    let sum = sum.clone();
                    Some(Box::new(move || {
                        sum.fetch_add(item as usize, Ordering::Relaxed);
                    }))
                }
            });
            assert_eq!(pool.workers(), jobs.max(1));
            pool.join();
            assert_eq!(sum.load(Ordering::Relaxed), (0..40).sum::<usize>());
        }
    }

    #[test]
    fn task_pool_survives_panicking_task() {
        use std::sync::Arc;
        // One of four tasks panics; the worker must keep serving the rest.
        let queue = Arc::new(Mutex::new(vec![0u32, 1, 2, 3]));
        let ok = Arc::new(AtomicUsize::new(0));
        let pool = TaskPool::new(1, {
            let (queue, ok) = (queue.clone(), ok.clone());
            move || -> Option<Task> {
                let item = queue.lock().ok()?.pop()?;
                let ok = ok.clone();
                Some(Box::new(move || {
                    assert_ne!(item, 2, "injected task failure");
                    ok.fetch_add(1, Ordering::Relaxed);
                }))
            }
        });
        pool.join();
        assert_eq!(ok.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn spawn_detached_runs_and_joins() {
        use std::sync::Arc;
        let hit = Arc::new(AtomicBool::new(false));
        let handle = spawn_detached("pool-test", {
            let hit = hit.clone();
            move || hit.store(true, Ordering::Relaxed)
        });
        handle.join().expect("detached thread panicked");
        assert!(hit.load(Ordering::Relaxed));
    }
}
