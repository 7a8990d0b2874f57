//! The named metric registry, snapshots, and their JSON / table
//! renderers.
//!
//! Lookup (`counter`/`gauge`/`histogram`) takes a short mutex on a
//! `BTreeMap` and hands back an `Arc` handle; recording through the
//! handle is lock-free. Instrumented code looks a handle up once per
//! solve/epoch/cell — never inside inner loops — so the mutex is cold.
//! Parallel workers record straight into the global registry (atomics
//! scale fine at per-cell granularity).

use crate::metrics::{Counter, Gauge, Histogram, HistogramSummary};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A thread-safe collection of named counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating on first use) the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("obs registry poisoned");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Returns (creating on first use) the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("obs registry poisoned");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Returns (creating on first use) the histogram named `name`.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("obs registry poisoned");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Resets every registered metric to its empty state (names are
    /// kept so existing handles stay live).
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .expect("obs registry poisoned")
            .values()
        {
            c.reset();
        }
        for g in self.gauges.lock().expect("obs registry poisoned").values() {
            g.reset();
        }
        for h in self
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .values()
        {
            h.reset();
        }
    }

    /// Takes a point-in-time snapshot of every metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("obs registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("obs registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("obs registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }
}

/// The process-wide registry used by workspace instrumentation.
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Held by this crate's unit tests that reset [`global`] or assert exact
/// values in it: `cargo test` runs tests on parallel threads, and a reset
/// in one test would otherwise zero what another just recorded.
#[cfg(test)]
pub(crate) fn global_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that panicked while holding the lock leaves nothing to repair.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A point-in-time copy of a [`Registry`]'s metrics, sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
}

/// Formats an `f64` for JSON output (finite values only; anything else
/// becomes `null`, which keeps the document parseable).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for embedding in a JSON document.
#[must_use]
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// Looks up a counter's value by name (`None` if it was never
    /// touched). The vectors are sorted by name, so this is a binary
    /// search — cheap enough for report code that reads a handful of
    /// counters out of a large snapshot.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Looks up a gauge's value by name (`None` if it was never set).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// Looks up a histogram's summary by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// The per-window difference `self - prev`: counters subtract by
    /// name (a counter absent from `prev` keeps its current value),
    /// gauges keep their current reading (they are levels, not flows),
    /// and histograms subtract bucket-wise with window percentiles
    /// recomputed from the bucket difference. This is the primitive the
    /// flight recorder's time series is built from — each per-epoch
    /// [`crate::Sample`] is `snapshot.delta(&previous_snapshot)`.
    #[must_use]
    pub fn delta(&self, prev: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(prev.counter(k).unwrap_or(0))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, s)| match prev.histogram(k) {
                    Some(p) => (k.clone(), s.delta(p)),
                    None => (k.clone(), *s),
                })
                .collect(),
        }
    }

    /// Renders the snapshot as a JSON object (hand-rolled: the
    /// workspace's vendored serde stub cannot derive serialization).
    /// Schema: `{"counters": {name: u64, ...}, "gauges": {...},
    /// "histograms": {name: {count,sum,min,max,mean,p50,p90,p99}}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", json_escape(k)))
            .collect::<Vec<_>>()
            .join(", ");
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", json_escape(k)))
            .collect::<Vec<_>>()
            .join(", ");
        let histograms = self
            .histograms
            .iter()
            .map(|(k, s)| {
                format!(
                    "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                    json_escape(k),
                    s.count,
                    s.sum,
                    s.min,
                    s.max,
                    json_f64(s.mean),
                    s.p50,
                    s.p90,
                    s.p99
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"counters\": {{{counters}}}, \"gauges\": {{{gauges}}}, \
             \"histograms\": {{{histograms}}}}}"
        )
    }

    /// Renders the snapshot as an aligned human-readable table.
    /// Histogram values are assumed to be nanoseconds and printed in
    /// adaptive units.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0)
            .max(6);
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str(&format!("{:<width$}  {:>14}\n", "metric", "value"));
            for (k, v) in &self.counters {
                out.push_str(&format!("{k:<width$}  {v:>14}\n"));
            }
            for (k, v) in &self.gauges {
                out.push_str(&format!("{k:<width$}  {v:>14} (gauge)\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "{:<width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                "span", "count", "mean", "p50", "p99", "total"
            ));
            for (k, s) in &self.histograms {
                out.push_str(&format!(
                    "{:<width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                    k,
                    s.count,
                    fmt_ns(s.mean),
                    fmt_ns(s.p50 as f64),
                    fmt_ns(s.p99 as f64),
                    fmt_ns(s.sum as f64),
                ));
            }
        }
        out
    }
}

/// Formats a nanosecond quantity with an adaptive unit.
#[must_use]
pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_handles_are_shared() {
        let reg = Registry::new();
        reg.counter("x").add(2);
        reg.counter("x").add(3);
        assert_eq!(reg.counter("x").get(), 5);
    }

    #[test]
    fn snapshot_counter_lookup_finds_by_name() {
        let reg = Registry::new();
        reg.counter("b.hits").add(7);
        reg.counter("a.misses").add(2);
        reg.counter("c.evictions").add(1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.misses"), Some(2));
        assert_eq!(snap.counter("b.hits"), Some(7));
        assert_eq!(snap.counter("c.evictions"), Some(1));
        assert_eq!(snap.counter("never.touched"), None);
    }

    #[test]
    fn reset_clears_values_but_keeps_handles() {
        let reg = Registry::new();
        let c = reg.counter("a");
        c.add(7);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.counter("a").get(), 1);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_histograms() {
        let reg = Registry::new();
        reg.counter("sim.arrivals").add(5);
        reg.gauge("sim.in_service").set(3);
        reg.histogram("sim.solve_ns").record(100);
        let prev = reg.snapshot();
        reg.counter("sim.arrivals").add(7);
        reg.counter("cache.hits").add(2);
        reg.gauge("sim.in_service").set(9);
        reg.histogram("sim.solve_ns").record(4000);
        let d = reg.snapshot().delta(&prev);
        assert_eq!(d.counter("sim.arrivals"), Some(7));
        assert_eq!(d.counter("cache.hits"), Some(2), "new counter kept");
        assert_eq!(d.gauge("sim.in_service"), Some(9), "gauges stay levels");
        let h = d.histogram("sim.solve_ns").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 4000);
        assert!(h.p50 >= 4000, "window p50 = {}", h.p50);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let reg = Registry::new();
        reg.counter("dmra.rounds").add(4);
        reg.gauge("sweep.workers").set(8);
        reg.histogram("sim.epoch_ns").record(1500);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"dmra.rounds\": 4"));
        assert!(json.contains("\"sweep.workers\": 8"));
        assert!(json.contains("\"sim.epoch_ns\": {\"count\": 1"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn table_renders_all_sections() {
        let reg = Registry::new();
        reg.counter("c").add(1);
        reg.gauge("g").set(2);
        reg.histogram("h").record(2_500_000);
        let table = reg.snapshot().render_table();
        assert!(table.contains("metric"));
        assert!(table.contains("span"));
        assert!(table.contains("2.50ms"), "table was:\n{table}");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12.0), "12ns");
        assert_eq!(fmt_ns(1500.0), "1.50us");
        assert_eq!(fmt_ns(2.5e6), "2.50ms");
        assert_eq!(fmt_ns(3.2e9), "3.20s");
    }
}
