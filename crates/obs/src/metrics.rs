//! Atomic metric primitives: counters, gauges and fixed-bucket
//! histograms. All operations are lock-free and safe to call from any
//! thread.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value / high-water-mark gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the gauge with `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the gauge to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets. Bucket `i` counts observations `v`
/// with `2^(i-1) ≤ v < 2^i` (bucket 0 holds `v == 0`), so the range
/// spans `[0, 2^46)` — about 20 hours when observations are
/// nanoseconds.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A fixed power-of-two-bucket histogram for latency-style values.
///
/// Recording is a handful of relaxed atomic RMWs: one bucket
/// increment plus count/sum/min/max updates. Bucket boundaries are
/// powers of two, which is plenty of resolution for wall-clock spans
/// and makes a per-run delta a plain element-wise subtraction.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Index of the bucket that holds `v`.
    #[inline]
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Resets the histogram to empty.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Summarizes the histogram (count, sum, min/mean/max, bucket
    /// percentiles). Percentiles are bucket upper bounds, i.e. exact to
    /// within a factor of two — enough to rank phases and spot
    /// regressions without per-observation storage.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum = self.sum();
        HistogramSummary {
            count,
            sum,
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// observation (0 when empty).
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket i: 2^i - 1 (bucket 0 is {0}).
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        self.max.load(Ordering::Relaxed)
    }
}

/// A point-in-time digest of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Median bucket upper bound.
    pub p50: u64,
    /// 90th-percentile bucket upper bound.
    pub p90: u64,
    /// 99th-percentile bucket upper bound.
    pub p99: u64,
    /// Raw per-bucket observation counts. Carrying these in the
    /// summary lets downstream code subtract two snapshots
    /// ([`crate::Snapshot::delta`]) and recompute windowed percentiles,
    /// and lets the Prometheus exposition emit cumulative buckets.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSummary {
    /// Upper bound of the bucket holding the `q`-quantile observation
    /// according to this summary's bucket counts (0 when empty).
    /// Mirrors [`Histogram::percentile`] but works on an immutable
    /// summary — including one produced by bucket-wise subtraction.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        self.max
    }

    /// Bucket-wise difference `self - prev`, summarizing only the
    /// observations recorded after `prev` was taken. Saturates to an
    /// empty summary if `prev` is not actually an earlier snapshot of
    /// the same histogram. `min` is unrecoverable from cumulative
    /// buckets, so the window's min is approximated by the lower bound
    /// of the window's lowest occupied bucket.
    #[must_use]
    pub fn delta(&self, prev: &HistogramSummary) -> HistogramSummary {
        let count = self.count.saturating_sub(prev.count);
        let sum = self.sum.saturating_sub(prev.sum);
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].saturating_sub(prev.buckets[i]));
        let lowest = buckets.iter().position(|&b| b > 0);
        let mut out = HistogramSummary {
            count,
            sum,
            min: match lowest {
                Some(0) | None => 0,
                Some(i) => 1u64 << (i - 1),
            },
            max: self.max,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: 0,
            p90: 0,
            p99: 0,
            buckets,
        };
        if count == 0 {
            out.max = 0;
            return out;
        }
        out.p50 = out.percentile(0.50);
        out.p90 = out.percentile(0.90);
        out.p99 = out.percentile(0.99);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_get_reset() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_set_max_keeps_the_high_water() {
        let g = Gauge::new();
        g.set(10);
        g.set_max(3);
        assert_eq!(g.get(), 10);
        g.set_max(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_summary_tracks_min_mean_max() {
        let h = Histogram::new();
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 100);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 40);
        assert!((s.mean - 25.0).abs() < 1e-9);
        assert!(s.p50 >= 20 && s.p50 <= 31, "p50 = {}", s.p50);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let s = Histogram::new().summary();
        assert_eq!(
            s,
            HistogramSummary {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                p50: 0,
                p90: 0,
                p99: 0,
                buckets: [0; HISTOGRAM_BUCKETS],
            }
        );
    }

    #[test]
    fn summary_delta_isolates_the_window() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        let before = h.summary();
        h.record(1000);
        h.record(2000);
        h.record(3000);
        let d = h.summary().delta(&before);
        assert_eq!(d.count, 3);
        assert_eq!(d.sum, 6000);
        assert!(d.min >= 512 && d.min <= 1000, "window min = {}", d.min);
        assert!(d.p50 >= 1000, "window p50 = {}", d.p50);
        assert_eq!(d.percentile(0.99), d.p99);
        let empty = before.delta(&before);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max, 0);
        assert_eq!(empty.p99, 0);
    }
}
