//! Deterministic fan-out over scoped threads.
//!
//! Everything parallel in this workspace goes through
//! [`par_map_indexed`]: the index space `0..n` is split into contiguous
//! chunks, one `std::thread::scope` worker maps each chunk, and the
//! per-chunk outputs are concatenated **in chunk order**. Because every
//! output lands at the slot of its input index, the result is the same
//! `Vec` a serial `(0..n).map(f).collect()` would produce — bit-identical,
//! for any thread count. Callers must only pass an `f` whose output
//! depends on nothing but its index (no shared mutable state), which is
//! what makes the equality guarantee hold; the sweep and instance-build
//! determinism tests at the workspace root enforce it end to end.
//!
//! The worker count comes from a [`Threads`] knob: an explicit
//! [`Threads::Fixed`], or [`Threads::Auto`] which honours the
//! `DMRA_THREADS` environment variable and falls back to
//! [`std::thread::available_parallelism`] (queried once per process).
//! Nested calls (a parallel instance build inside an already-parallel
//! sweep replication) detect that they are running on a fan-out worker
//! and degrade to serial execution instead of oversubscribing the
//! machine.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;

/// Name of the environment variable [`Threads::Auto`] consults.
pub const THREADS_ENV: &str = "DMRA_THREADS";

/// How many worker threads a fan-out may use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Threads {
    /// Use `DMRA_THREADS` if set to a positive integer, otherwise the
    /// machine's available parallelism.
    #[default]
    Auto,
    /// Use exactly this many workers (`0` is clamped to `1`).
    Fixed(usize),
}

impl Threads {
    /// A knob that forces serial execution.
    #[must_use]
    pub const fn serial() -> Self {
        Threads::Fixed(1)
    }

    /// Resolves the knob to a concrete worker count (always ≥ 1).
    ///
    /// An unset, empty or unparsable `DMRA_THREADS` falls back to the
    /// machine default ([`available_threads`]); `DMRA_THREADS=0` is
    /// treated as unset so scripts can force the default explicitly. The
    /// variable is read on every call, so a process may change it at run
    /// time.
    #[must_use]
    pub fn resolve(self) -> usize {
        match self {
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => env_threads().unwrap_or_else(available_threads),
        }
    }
}

fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

/// The machine's available parallelism (1 when it cannot be queried),
/// queried once per process: on Linux each query reads cgroup files,
/// which costs tens of microseconds, and [`Threads::Auto`] resolves on
/// every fan-out.
#[must_use]
pub fn available_threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

thread_local! {
    /// Set on fan-out workers so nested fan-outs run serially.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Maps `f` over `0..n`, returning the outputs in index order.
///
/// Splits the index space into one contiguous chunk per worker; with one
/// worker (or `n ≤ 1`, or when called from inside another fan-out) it is
/// exactly `(0..n).map(f).collect()`. The output is identical for every
/// thread count as long as `f(i)` depends only on `i`.
///
/// # Panics
///
/// Propagates panics from `f` (the first panicking chunk in index order).
pub fn par_map_indexed<T, F>(threads: Threads, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.resolve().min(n.max(1));
    if workers <= 1 || ON_WORKER.with(Cell::get) {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let start = w * chunk;
                let end = n.min(start + chunk);
                scope.spawn(move || {
                    ON_WORKER.with(|flag| flag.set(true));
                    (start..end).map(f).collect::<Vec<T>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// [`par_map_indexed`] with per-worker scratch state.
///
/// `init` builds one scratch value per worker (per chunk) and `f` maps
/// each index with mutable access to its worker's scratch — the pattern
/// for hot loops that reuse buffers (a candidate batch, a neighbour
/// list) instead of allocating per item. The serial path builds a single
/// scratch and reuses it across all indices, so an item's output must
/// not depend on what earlier items left in the scratch (`f` should
/// overwrite/clear what it reads). Under that contract the result is the
/// same `Vec` a serial run produces, bit-identical for any thread count,
/// exactly like [`par_map_indexed`].
///
/// # Panics
///
/// Propagates panics from `init`/`f` (the first panicking chunk in index
/// order).
pub fn par_map_indexed_scratch<S, T, I, F>(threads: Threads, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.resolve().min(n.max(1));
    if workers <= 1 || ON_WORKER.with(Cell::get) {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    let chunk = n.div_ceil(workers);
    let init = &init;
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let start = w * chunk;
                let end = n.min(start + chunk);
                scope.spawn(move || {
                    ON_WORKER.with(|flag| flag.set(true));
                    let mut scratch = init();
                    (start..end).map(|i| f(&mut scratch, i)).collect::<Vec<T>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// A job shipped to a worker: borrows the worker's state, runs, and
/// reports back through the per-call result channel.
type Job<S> = Box<dyn FnOnce(&mut S) + Send>;

/// A pool of long-lived worker threads, each owning one state value.
///
/// Where [`par_map_indexed`] spawns scoped threads per call, a
/// `WorkerPool` spawns its workers **once** and feeds them jobs over
/// channels — the shape the region-sharded online engines need, where
/// each worker owns a shard's `DeploymentContext` and row cache across
/// thousands of epochs and a per-call spawn would throw that state away.
///
/// [`WorkerPool::run`] is the epoch barrier: it ships one job per state,
/// blocks until every worker has answered, and returns the outputs in
/// state order — the same `Vec` a serial loop over the states would
/// produce. Workers mark themselves as fan-out workers, so nested
/// [`par_map_indexed`] calls inside a job degrade to serial instead of
/// oversubscribing the machine. Dropping the pool closes the channels
/// and joins every thread.
pub struct WorkerPool<S> {
    senders: Vec<mpsc::Sender<Job<S>>>,
    handles: Vec<JoinHandle<()>>,
}

impl<S: Send + 'static> WorkerPool<S> {
    /// Spawns one named worker thread per state value; worker `w` owns
    /// `states[w]` for the pool's lifetime.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a thread.
    #[must_use]
    pub fn new(states: Vec<S>) -> Self {
        let mut senders = Vec::with_capacity(states.len());
        let mut handles = Vec::with_capacity(states.len());
        for (w, mut state) in states.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Job<S>>();
            let handle = std::thread::Builder::new()
                .name(format!("dmra-shard-{w}"))
                .spawn(move || {
                    ON_WORKER.with(|flag| flag.set(true));
                    while let Ok(job) = rx.recv() {
                        job(&mut state);
                    }
                })
                .expect("spawn shard worker");
            senders.push(tx);
            handles.push(handle);
        }
        Self { senders, handles }
    }

    /// Number of workers (= number of states).
    #[must_use]
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Returns `true` if the pool has no workers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Runs `f(worker_index, &mut state, input)` on every worker — one
    /// input per worker, `inputs.len()` must equal [`WorkerPool::len`] —
    /// and blocks until all have finished (the epoch barrier). Outputs
    /// come back in worker order, so for a pure `f` the result equals
    /// the serial `states.iter_mut().zip(inputs).map(f).collect()`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.len()`, if a worker has died, or
    /// to propagate the first panicking job in worker order.
    pub fn run<In, Out, F>(&self, inputs: Vec<In>, f: F) -> Vec<Out>
    where
        In: Send + 'static,
        Out: Send + 'static,
        F: Fn(usize, &mut S, In) -> Out + Send + Sync + 'static,
    {
        assert_eq!(inputs.len(), self.senders.len(), "one input per worker");
        let f = Arc::new(f);
        let (result_tx, result_rx) = mpsc::channel::<(usize, std::thread::Result<Out>)>();
        for (w, (sender, input)) in self.senders.iter().zip(inputs).enumerate() {
            let f = Arc::clone(&f);
            let result_tx = result_tx.clone();
            let job: Job<S> = Box::new(move |state: &mut S| {
                let outcome = catch_unwind(AssertUnwindSafe(|| f(w, state, input)));
                // A dropped receiver means the caller already panicked;
                // nothing useful to do with the result then.
                let _ = result_tx.send((w, outcome));
            });
            sender.send(job).expect("worker thread is alive");
        }
        drop(result_tx);
        let mut slots: Vec<Option<std::thread::Result<Out>>> =
            (0..self.senders.len()).map(|_| None).collect();
        for _ in 0..self.senders.len() {
            let (w, outcome) = result_rx.recv().expect("worker answers the barrier");
            slots[w] = Some(outcome);
        }
        // Propagate the first panic in worker order, like the scoped
        // fan-outs above do in chunk order.
        let mut out = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot.expect("every worker reported") {
                Ok(value) => out.push(value),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    }
}

impl<S> Drop for WorkerPool<S> {
    fn drop(&mut self) {
        self.senders.clear(); // close the channels → workers exit their loops
        for handle in self.handles.drain(..) {
            // A worker that panicked outside a job already delivered its
            // payload through the result channel; ignore the join error.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_for_every_thread_count() {
        let serial: Vec<u64> = (0..103).map(|i| (i as u64) * 3 + 1).collect();
        for workers in [1, 2, 3, 4, 7, 64, 200] {
            let par = par_map_indexed(Threads::Fixed(workers), 103, |i| (i as u64) * 3 + 1);
            assert_eq!(par, serial, "workers = {workers}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert_eq!(
            par_map_indexed(Threads::Fixed(4), 0, |i| i),
            Vec::<usize>::new()
        );
        assert_eq!(par_map_indexed(Threads::Fixed(4), 1, |i| i), vec![0]);
        assert_eq!(par_map_indexed(Threads::Fixed(8), 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn nested_fanout_degrades_to_serial_and_stays_correct() {
        let out = par_map_indexed(Threads::Fixed(4), 8, |i| {
            // Inner call runs on a worker thread → serial path.
            par_map_indexed(Threads::Fixed(4), 4, move |j| i * 10 + j)
        });
        let expect: Vec<Vec<usize>> = (0..8)
            .map(|i| (0..4).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn fixed_zero_clamps_to_one() {
        assert_eq!(Threads::Fixed(0).resolve(), 1);
    }

    #[test]
    fn auto_resolves_positive() {
        // Whatever the environment says, the answer is a usable count.
        assert!(Threads::Auto.resolve() >= 1);
    }

    #[test]
    fn scratch_variant_matches_serial_for_every_thread_count() {
        // The scratch is a reusable buffer; each item overwrites what it
        // reads, per the contract.
        let map = |scratch: &mut Vec<u64>, i: usize| {
            scratch.clear();
            scratch.extend((0..=i as u64).map(|x| x * 2));
            scratch.iter().sum::<u64>()
        };
        let mut serial_scratch = Vec::new();
        let serial: Vec<u64> = (0..57).map(|i| map(&mut serial_scratch, i)).collect();
        for workers in [1, 2, 3, 4, 16, 100] {
            let par = par_map_indexed_scratch(Threads::Fixed(workers), 57, Vec::new, map);
            assert_eq!(par, serial, "workers = {workers}");
        }
    }

    #[test]
    fn scratch_variant_builds_one_scratch_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out = par_map_indexed_scratch(
            Threads::Fixed(4),
            8,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
            },
            |(), i| i,
        );
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn scratch_variant_handles_empty_input() {
        assert_eq!(
            par_map_indexed_scratch(Threads::Fixed(4), 0, || 0u8, |_, i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn worker_pool_runs_jobs_in_worker_order_and_keeps_state() {
        let pool = WorkerPool::new(vec![0u64, 100, 200, 300]);
        assert_eq!(pool.len(), 4);
        for round in 1..=5u64 {
            let inputs: Vec<u64> = (0..4).map(|w| w as u64 + round).collect();
            let out = pool.run(inputs, |w, state, input| {
                *state += input;
                (w, *state)
            });
            let expect: Vec<(usize, u64)> = (0..4)
                .map(|w| {
                    let base = w as u64 * 100;
                    let gained: u64 = (1..=round).map(|r| w as u64 + r).sum();
                    (w, base + gained)
                })
                .collect();
            assert_eq!(out, expect, "round {round}");
        }
    }

    #[test]
    fn worker_pool_barrier_returns_every_output() {
        // Stagger the per-worker work so the fast workers answer first;
        // the barrier must still return outputs in worker order.
        let pool = WorkerPool::new(vec![(); 3]);
        let out = pool.run(vec![30u64, 1, 10], |w, (), ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            w
        });
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn worker_pool_marks_workers_so_nested_fanouts_serialize() {
        let pool = WorkerPool::new(vec![(); 2]);
        let out = pool.run(vec![(), ()], |w, (), ()| {
            assert!(ON_WORKER.with(Cell::get), "pool worker is marked");
            par_map_indexed(Threads::Fixed(4), 3, move |j| w * 10 + j)
        });
        assert_eq!(out, vec![vec![0, 1, 2], vec![10, 11, 12]]);
    }

    #[test]
    fn worker_pool_propagates_job_panics_and_stays_usable() {
        let pool = WorkerPool::new(vec![0u32, 0]);
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![true, false], |_, state, explode| {
                *state += 1;
                assert!(!explode, "job exploded");
                *state
            })
        }));
        assert!(boom.is_err(), "panic propagates to the caller");
        // The surviving workers still answer the next barrier.
        let out = pool.run(vec![false, false], |_, state, _| *state);
        assert_eq!(out, vec![1, 1], "state survived the panicking round");
    }

    #[test]
    fn empty_worker_pool_is_fine() {
        let pool = WorkerPool::new(Vec::<u8>::new());
        assert!(pool.is_empty());
        let out: Vec<u8> = pool.run(Vec::new(), |_, s, ()| *s);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "one input per worker")]
    fn worker_pool_rejects_mismatched_inputs() {
        let pool = WorkerPool::new(vec![(), ()]);
        let _ = pool.run(vec![()], |_, (), ()| ());
    }

    #[test]
    fn workers_actually_run_concurrently_when_asked() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let max_seen = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        par_map_indexed(Threads::Fixed(4), 4, |i| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            max_seen.fetch_max(now, Ordering::SeqCst);
            // Hold the slot long enough for the other workers to start.
            std::thread::sleep(std::time::Duration::from_millis(30));
            live.fetch_sub(1, Ordering::SeqCst);
            i
        });
        // On a single-core host the scheduler may still serialize the
        // workers, so only assert that nothing deadlocked and at least
        // one worker ran.
        assert!(max_seen.load(Ordering::SeqCst) >= 1);
    }
}
