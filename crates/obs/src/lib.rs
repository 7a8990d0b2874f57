//! `dmra-obs` — zero-dependency telemetry for the DMRA workspace.
//!
//! The matcher, the incremental online engine and the parallel sweep
//! runner are all argued about in terms of *trajectories* — proposal
//! rounds, candidate prunes, per-epoch rebuild costs — yet the rest of
//! the workspace only reports final outcomes. This crate provides the
//! missing instrumentation layer with **no external dependencies**
//! (crates.io is unreachable in the build environment; everything here
//! is `std`-only):
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic scalars,
//! * [`Histogram`] — fixed power-of-two-bucket latency histogram,
//! * [`SpanTimer`] — RAII wall-clock span recorder,
//! * [`Registry`] — a named, thread-safe collection of the above, with
//!   [`Snapshot`]s for export and per-run deltas,
//! * [`TraceLog`] — a bounded, append-only event log for convergence
//!   traces (`trace.json`),
//! * a logging facade ([`Level`], [`obs_error!`], [`obs_warn!`],
//!   [`obs_info!`], [`obs_debug!`]) replacing ad-hoc `eprintln!` lines.
//!
//! # Cost model
//!
//! Telemetry is **off by default**. Every instrumentation site in the
//! workspace is guarded by [`enabled()`], which reads one relaxed
//! atomic when the `telemetry` cargo feature (default on) is present
//! and is a compile-time `false` when it is not — so a
//! `--no-default-features` build deletes the branches entirely.
//! Instrumented code records once per *solve/epoch/cell*, never inside
//! inner matcher loops; measured overhead when enabled is <2%
//! (see `BENCH_obs_overhead.json` and DESIGN.md §10).
//!
//! # Determinism
//!
//! Everything in this crate is observe-only: no instrumentation path
//! feeds back into allocation decisions, RNG draws or iteration order,
//! so the workspace's bit-identical equality tests hold with telemetry
//! enabled or disabled.

#![forbid(unsafe_code)]

mod expose;
mod handles;
mod log;
mod metrics;
mod observer;
mod recorder;
mod registry;
mod span;
mod timeseries;
mod trace;

pub use crate::expose::{render_prometheus, sanitize_metric_name, MetricsServer};
pub use crate::handles::{LazyCounter, LazyGauge, LazyHistogram};
pub use crate::log::{
    capture_start, capture_take, level, log_at, set_level, Level, ParseLevelError,
};
pub use crate::metrics::{Counter, Gauge, Histogram, HistogramSummary, HISTOGRAM_BUCKETS};
pub use crate::observer::{
    det_projection, epoch_observer, set_epoch_observer, EpochObserver, EpochRecord, FanoutObserver,
    FieldValue,
};
pub use crate::recorder::{Recorder, SharedBuf};
pub use crate::registry::{global, Registry, Snapshot};
pub use crate::span::SpanTimer;
pub use crate::timeseries::{Sample, TimeSeries, TimeSeriesCollector};
pub use crate::trace::{global_trace, TraceEvent, TraceLog};

use std::sync::atomic::{AtomicBool, Ordering};

/// Runtime master switch. Default off; flipped by [`set_enabled`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns `true` when telemetry should be recorded.
///
/// Compiled to a constant `false` without the `telemetry` feature; with
/// it, a single relaxed atomic load. Instrumentation sites branch on
/// this before touching any registry or clock.
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    cfg!(feature = "telemetry") && ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry recording on or off at runtime.
///
/// A no-op (telemetry stays off) when the crate was built without the
/// `telemetry` feature.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Starts a [`SpanTimer`] recording into `hist` — or an inert timer
/// when telemetry is disabled (no clock read, no record on drop).
#[must_use]
pub fn time(hist: &std::sync::Arc<Histogram>) -> SpanTimer {
    if enabled() {
        SpanTimer::start(std::sync::Arc::clone(hist))
    } else {
        SpanTimer::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_time_records_nothing() {
        let hist = std::sync::Arc::new(Histogram::new());
        drop(SpanTimer::disabled());
        {
            let _t = if false {
                SpanTimer::start(std::sync::Arc::clone(&hist))
            } else {
                SpanTimer::disabled()
            };
        }
        assert_eq!(hist.count(), 0);
    }
}
