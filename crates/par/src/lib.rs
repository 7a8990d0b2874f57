//! Deterministic fan-out over scoped threads.
//!
//! The one parallel site in this workspace, the sweep runner's
//! (point, replication) grid, goes through [`par_map_indexed`]: the index
//! space `0..n` is split into contiguous chunks, one `std::thread::scope`
//! worker maps each chunk, and the per-chunk outputs are concatenated
//! **in chunk order**. Because every output lands at the slot of its
//! input index, the result is the same `Vec` a serial
//! `(0..n).map(f).collect()` would produce — bit-identical, for any
//! thread count. Callers must only pass an `f` whose output depends on
//! nothing but its index (no shared mutable state), which is what makes
//! the equality guarantee hold; the sweep determinism tests at the
//! workspace root enforce it end to end.
//!
//! The worker count comes from a [`Threads`] knob: an explicit
//! [`Threads::Fixed`], or [`Threads::Auto`] which honours the
//! `DMRA_THREADS` environment variable and falls back to
//! [`std::thread::available_parallelism`] (queried once per process).
//! A sweep cell builds and solves serially, so fan-outs never nest.

#![forbid(unsafe_code)]

use std::sync::OnceLock;

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

/// Maps `f` over `0..n`, returning the outputs in index order.
///
/// Splits the index space into one contiguous chunk per worker; with one
/// worker (or `n ≤ 1`) it is exactly `(0..n).map(f).collect()`. The
/// output is identical for every thread count as long as `f(i)` depends
/// only on `i`.
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
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let start = w * chunk;
                let end = n.min(start + chunk);
                scope.spawn(move || (start..end).map(f).collect::<Vec<T>>())
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
    fn fixed_zero_clamps_to_one() {
        assert_eq!(Threads::Fixed(0).resolve(), 1);
    }

    #[test]
    fn auto_resolves_positive() {
        // Whatever the environment says, the answer is a usable count.
        assert!(Threads::Auto.resolve() >= 1);
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
