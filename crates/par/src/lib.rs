//! `emod-par`: a zero-dependency, deterministic work-stealing thread pool.
//!
//! The measurement campaigns and model fits in this workspace are
//! *embarrassingly parallel over an indexed list of pure tasks*: hundreds
//! of D-optimal design points to simulate, dozens of candidate
//! hidden-layer sizes or hinge knots to score. Each task costs
//! milliseconds, which is what pays for handing it to a worker; model
//! predictions (well under a microsecond each, in the GA and in
//! `predict_batch`) run inline instead. [`Pool`] parallelizes exactly that
//! shape while keeping a hard **determinism contract**:
//!
//! * Results are returned **by task index**, never by completion order.
//! * Each task sees only its own index and item; tasks that need randomness
//!   derive a per-task seed with [`task_seed`] instead of sharing a stream.
//! * A task panic is re-raised on the caller thread, and when several tasks
//!   panic the one with the **lowest index** wins — the same panic the
//!   sequential loop would have surfaced first.
//!
//! Under this contract `pool.map(items, f)` returns bit-identical results
//! for every worker count and every interleaving, so `EMOD_THREADS=1` and
//! `EMOD_THREADS=64` produce the same campaign responses, model artifacts
//! and predictions — only the wall time differs.
//!
//! # Scheduling
//!
//! Workers are **scoped threads** ([`std::thread::scope`]) over a **chunked
//! injector queue**: the task list is split into fixed-size chunks behind an
//! atomic cursor, and every idle worker *steals the next chunk* from the
//! shared injector until the queue drains. Because tasks never spawn
//! subtasks there is nothing to re-steal from sibling deques, so the
//! injector alone gives full work-stealing load balance (a worker stuck on
//! one slow simulation simply stops claiming chunks while the others drain
//! the rest) without any unsafe code or channel machinery.
//!
//! With one worker (or one task) the pool runs **inline** on the caller's
//! thread, reproducing today's sequential execution order exactly — no
//! threads are spawned at all.
//!
//! # Examples
//!
//! ```
//! use emod_par::Pool;
//!
//! let squares = Pool::new(4).map(&[1u64, 2, 3, 4, 5], |_i, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//!
//! // Bit-identical across worker counts: the determinism contract.
//! let seq = Pool::new(1).map(&[0.1f64, 0.2, 0.3], |i, &x| (x * i as f64).sin());
//! let par = Pool::new(8).map(&[0.1f64, 0.2, 0.3], |i, &x| (x * i as f64).sin());
//! assert!(seq.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits()));
//! ```

#![warn(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable selecting the worker count for every pool built
/// with [`Pool::from_env`] (measurement campaigns, the RBF and MARS fits).
/// Unset or unparsable means "available parallelism"; `1` forces the
/// sequential inline path. No serving request reads it.
pub const THREADS_ENV: &str = "EMOD_THREADS";

/// The worker count [`Pool::from_env`] resolves to: `EMOD_THREADS` if it
/// parses to a positive integer, otherwise the machine's available
/// parallelism (and `1` if even that is unknown).
pub fn threads_from_env() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available_parallelism(),
        },
        Err(_) => available_parallelism(),
    }
}

/// The machine's available parallelism (`1` when unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derives a decorrelated per-task RNG seed from a base seed and a task
/// index (splitmix64 finalizer). Tasks that need randomness must seed from
/// their *index*, never pull from a shared stream — sharing a stream would
/// make the draw order depend on the interleaving and break the
/// determinism contract.
///
/// # Examples
///
/// ```
/// let seeds: Vec<u64> = (0..4).map(|i| emod_par::task_seed(42, i)).collect();
/// assert_eq!(seeds.len(), 4);
/// assert!(seeds.windows(2).all(|w| w[0] != w[1]));
/// ```
pub fn task_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic work-stealing pool: a fixed worker count and the
/// [`Pool::map`]/[`Pool::map_with`] entry points. Creating a `Pool` is
/// cheap — workers are scoped to each call, not kept alive between calls —
/// so callers construct one per batch and the `EMOD_THREADS` knob takes
/// effect immediately. With `EMOD_THREADS` unset, [`Pool::from_env`] asks
/// the OS for [`available_parallelism`], which on Linux reads cgroup files
/// (tens of microseconds), so it belongs on millisecond stages only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by `EMOD_THREADS` (default: available parallelism) —
    /// see [`threads_from_env`].
    pub fn from_env() -> Pool {
        Pool::new(threads_from_env())
    }

    /// The worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, in parallel, returning results in item order.
    ///
    /// `f` receives `(index, &item)` and must be a pure function of them
    /// (telemetry side effects excepted) for the determinism contract to
    /// hold. With one worker or at most one item the call runs inline on
    /// the caller's thread in index order.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest-index panicking task after all
    /// workers have stopped.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_with(items, |_| (), |(), i, item| f(i, item))
    }

    /// [`Pool::map`] with per-worker state: `init` runs once on each worker
    /// thread (receiving the worker index) before it claims its first
    /// chunk, and the state is passed mutably to every task the worker
    /// runs. Use it for per-worker telemetry spans or scratch buffers;
    /// task *results* must not depend on it.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest-index panicking task after all
    /// workers have stopped. A panic in `init` propagates as-is.
    pub fn map_with<T, R, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            // Inline sequential path: exact legacy execution order, no
            // spawned threads, panics propagate from the failing task
            // directly.
            let mut state = init(0);
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(&mut state, i, item))
                .collect();
        }

        // Chunked injector: workers steal `chunk`-sized index ranges from a
        // shared atomic cursor until the queue drains. Small chunks keep
        // heterogeneous task times balanced; the clamp bounds cursor
        // contention for huge batches.
        let chunk = (n / (workers * 8)).clamp(1, 64);
        let injector = AtomicUsize::new(0);
        type TaskResult<R> = (usize, Result<R, Box<dyn std::any::Any + Send>>);
        let mut slots: Vec<Option<Result<R, Box<dyn std::any::Any + Send>>>> = Vec::new();
        slots.resize_with(n, || None);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let injector = &injector;
                    let init = &init;
                    let f = &f;
                    scope.spawn(move || {
                        let mut out: Vec<TaskResult<R>> = Vec::new();
                        let mut state = init(w);
                        loop {
                            let start = injector.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            for (i, item) in items
                                .iter()
                                .enumerate()
                                .take((start + chunk).min(n))
                                .skip(start)
                            {
                                let r = catch_unwind(AssertUnwindSafe(|| f(&mut state, i, item)));
                                out.push((i, r));
                            }
                        }
                        out
                    })
                })
                .collect();
            for handle in handles {
                // Workers never unwind (tasks are caught), so join only
                // fails if a worker was killed externally.
                let results = handle.join().expect("pool worker died outside a task");
                for (i, r) in results {
                    slots[i] = Some(r);
                }
            }
        });

        let mut out = Vec::with_capacity(n);
        let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
        for (i, slot) in slots.into_iter().enumerate() {
            match slot.expect("every task index was claimed exactly once") {
                Ok(r) => out.push(r),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some((i, payload));
                    }
                }
            }
        }
        if let Some((_, payload)) = first_panic {
            resume_unwind(payload);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let out = Pool::new(threads).map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn results_bit_identical_across_worker_counts() {
        let items: Vec<f64> = (0..100).map(|i| 0.01 * i as f64).collect();
        let work = |i: usize, x: &f64| (x.sin() * task_seed(7, i as u64) as f64).sqrt();
        let seq: Vec<u64> = Pool::new(1)
            .map(&items, work)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        for threads in [2, 4, 16] {
            let par: Vec<u64> = Pool::new(threads)
                .map(&items, work)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(seq, par, "threads={}", threads);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let out = Pool::new(7).map(&items, |_, &x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(Pool::new(8).map(&empty, |_, &x| x).is_empty());
        assert_eq!(Pool::new(8).map(&[9u8], |_, &x| x), vec![9]);
    }

    #[test]
    fn lowest_index_panic_wins() {
        for threads in [1, 4] {
            let items: Vec<usize> = (0..64).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                Pool::new(threads).map(&items, |i, _| {
                    if i == 13 || i == 50 {
                        panic!("task {} failed", i);
                    }
                    i
                })
            }))
            .expect_err("must panic");
            let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            assert_eq!(msg, "task 13 failed", "threads={}", threads);
        }
    }

    #[test]
    fn map_with_initializes_once_per_worker() {
        let inits = AtomicU64::new(0);
        let items: Vec<u32> = (0..200).collect();
        let threads = 4;
        let out = Pool::new(threads).map_with(
            &items,
            |w| {
                inits.fetch_add(1, Ordering::Relaxed);
                w
            },
            |_, i, &x| {
                assert_eq!(i as u32, x);
                x
            },
        );
        assert_eq!(out.len(), 200);
        let n = inits.load(Ordering::Relaxed);
        assert!(
            (1..=threads as u64).contains(&n),
            "init ran {} times for {} workers",
            n,
            threads
        );
    }

    #[test]
    fn task_seeds_are_decorrelated() {
        let seeds: HashSet<u64> = (0..10_000).map(|i| task_seed(1234, i)).collect();
        assert_eq!(seeds.len(), 10_000, "seed collisions");
        // Different base seeds give different streams.
        assert_ne!(task_seed(1, 0), task_seed(2, 0));
    }

    #[test]
    fn pool_clamps_to_one_thread() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(threads_from_env() >= 1);
        assert!(available_parallelism() >= 1);
    }
}
