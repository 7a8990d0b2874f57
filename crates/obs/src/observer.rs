//! The per-epoch observation hook: a structured [`EpochRecord`] built
//! by an engine at the end of each epoch (or protocol round, or sweep
//! cell) and handed to whatever [`EpochObserver`]s are attached — the
//! JSONL flight recorder, the in-memory time series collector, or
//! both via [`FanoutObserver`].
//!
//! Records split their fields into two sections:
//!
//! * **det** — deterministic, engine-independent quantities (epoch
//!   index, arrivals, admissions, occupancy, outcome digest). The
//!   workspace's engine-equality contract guarantees these are
//!   bit-identical across each simulator's epoch loop, its
//!   rebuild-from-scratch specification and the fault-free protocol
//!   matcher, and across thread counts, so their serialized projection
//!   can be byte-compared in tests.
//! * **aux** — timing and engine-specific quantities (wall-clock
//!   spans, cache hit deltas, protocol degradation) that legitimately
//!   vary run to run and are excluded from determinism checks.
//!
//! Engines hold an optional observer directly (`with_observer`); code
//! that cannot be reached through a constructor — the proto round
//! engine deep inside `run_decentralized` — falls back to the
//! process-wide slot installed by [`set_epoch_observer`].

use crate::registry::json_escape;
use std::sync::{Arc, RwLock};

/// A single record field value. `u64` keeps exact integers (digests do
/// not survive an `f64` round-trip); `f64` carries ratios and
/// occupancies and serializes via Rust's shortest-round-trip `Display`,
/// so bit-identical values produce byte-identical text. The sequence
/// variants carry small per-entity vectors (per-cell output rows, for
/// example) as JSON arrays.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An exact unsigned integer.
    U64(u64),
    /// A floating-point quantity.
    F64(f64),
    /// A vector of exact unsigned integers.
    U64Seq(Vec<u64>),
    /// A vector of floating-point quantities.
    F64Seq(Vec<f64>),
}

/// Appends `s` JSON-escaped, without allocating when no character
/// needs escaping — the common case: field keys and stream names are
/// static ASCII identifiers, and the recorder renders one record per
/// epoch on the engines' accounting path.
fn escape_into(s: &str, out: &mut String) {
    if s.bytes().all(|b| b != b'"' && b != b'\\' && b >= 0x20) {
        out.push_str(s);
    } else {
        out.push_str(&json_escape(s));
    }
}

fn render_f64(v: f64, out: &mut String) {
    use std::fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

impl FieldValue {
    fn render(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) => render_f64(*v, out),
            FieldValue::U64Seq(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(']');
            }
            FieldValue::F64Seq(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_f64(*v, out);
                }
                out.push(']');
            }
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<Vec<u64>> for FieldValue {
    fn from(v: Vec<u64>) -> Self {
        FieldValue::U64Seq(v)
    }
}

impl From<Vec<f64>> for FieldValue {
    fn from(v: Vec<f64>) -> Self {
        FieldValue::F64Seq(v)
    }
}

/// One structured observation: a record stream name (`"sim.epoch"`,
/// `"proto.round"`, `"sweep.cell"`), a monotone index within that
/// stream, and the det/aux field sections. Field order is insertion
/// order and is part of the serialized format, so producers of the
/// same stream must build fields in the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Which record stream this belongs to.
    pub stream: &'static str,
    /// Monotone index within the stream (epoch, round or cell number).
    pub index: u64,
    /// Deterministic fields — byte-stable across engines and threads.
    pub det: Vec<(&'static str, FieldValue)>,
    /// Timing / engine-specific fields — excluded from determinism.
    pub aux: Vec<(&'static str, FieldValue)>,
}

impl EpochRecord {
    /// Starts an empty record for `stream` at `index`.
    #[must_use]
    pub fn new(stream: &'static str, index: u64) -> Self {
        Self {
            stream,
            index,
            det: Vec::new(),
            aux: Vec::new(),
        }
    }

    /// Appends a deterministic field (builder style).
    #[must_use]
    pub fn det(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.det.push((key, value.into()));
        self
    }

    /// Appends an auxiliary (timing / engine-specific) field.
    #[must_use]
    pub fn aux(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.aux.push((key, value.into()));
        self
    }

    fn render_section(fields: &[(&'static str, FieldValue)], out: &mut String) {
        out.push('{');
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_into(k, out);
            out.push_str("\": ");
            v.render(out);
        }
        out.push('}');
    }

    /// Serializes the record as one JSON line (no trailing newline).
    /// The `aux` object is always last, which is what lets
    /// [`det_projection`] strip it with plain string handling.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(192);
        self.render_into(&mut out);
        out
    }

    /// Serializes the record into `out` (same format as
    /// [`Self::to_json_line`], no trailing newline). The recorder
    /// serializes whole batches through one reused buffer with this.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("{\"schema\": \"dmra-flight/1\", \"stream\": \"");
        escape_into(self.stream, out);
        out.push_str("\", \"index\": ");
        let _ = write!(out, "{}", self.index);
        out.push_str(", \"det\": ");
        Self::render_section(&self.det, out);
        out.push_str(", \"aux\": ");
        Self::render_section(&self.aux, out);
        out.push('}');
    }
}

/// Reduces a flight-recorder JSONL document to its deterministic
/// projection: every line keeps `schema`, `stream`, `index` and `det`
/// and drops the `aux` object. Byte-comparing two projections is the
/// workspace's recorder-determinism check.
#[must_use]
pub fn det_projection(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        if line.is_empty() {
            continue;
        }
        match line.rfind(", \"aux\": ") {
            Some(pos) => {
                out.push_str(&line[..pos]);
                out.push('}');
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// A sink for [`EpochRecord`]s. Implementations must be cheap and
/// non-blocking-ish: engines call `on_record` once per epoch on the
/// simulation thread. `&self` because the process-wide slot hands one
/// shared observer to every thread that runs an engine; implementors
/// serialize internally.
pub trait EpochObserver: Send + Sync {
    /// Receives one record. Implementations must not panic.
    fn on_record(&self, record: &EpochRecord);
}

/// Broadcasts each record to several observers in order — e.g. a
/// [`crate::Recorder`] and a [`crate::TimeSeriesCollector`] at once.
pub struct FanoutObserver {
    sinks: Vec<Arc<dyn EpochObserver>>,
}

impl FanoutObserver {
    /// Builds a fanout over `sinks`.
    #[must_use]
    pub fn new(sinks: Vec<Arc<dyn EpochObserver>>) -> Self {
        Self { sinks }
    }
}

impl EpochObserver for FanoutObserver {
    fn on_record(&self, record: &EpochRecord) {
        for s in &self.sinks {
            s.on_record(record);
        }
    }
}

/// Process-wide observer slot (`None` by default).
static OBSERVER: RwLock<Option<Arc<dyn EpochObserver>>> = RwLock::new(None);

/// Installs (or clears, with `None`) the process-wide epoch observer.
/// Engines consult their own `with_observer` attachment first and fall
/// back to this slot, which is how the CLI attaches the flight
/// recorder to everything — including the proto round engine — with a
/// single call. No-op without the `telemetry` feature.
pub fn set_epoch_observer(observer: Option<Arc<dyn EpochObserver>>) {
    if cfg!(feature = "telemetry") {
        *OBSERVER.write().expect("observer slot poisoned") = observer;
    }
}

/// The currently installed process-wide observer, if any. Always
/// `None` without the `telemetry` feature, so instrumentation guarded
/// by `if let Some(..)` compiles out.
#[must_use]
pub fn epoch_observer() -> Option<Arc<dyn EpochObserver>> {
    if cfg!(feature = "telemetry") {
        OBSERVER.read().expect("observer slot poisoned").clone()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn record_renders_det_before_aux() {
        let r = EpochRecord::new("sim.epoch", 3)
            .det("arrivals", 7u64)
            .det("occupancy", 0.25)
            .aux("wall_ns", 1234u64);
        let line = r.to_json_line();
        assert_eq!(
            line,
            "{\"schema\": \"dmra-flight/1\", \"stream\": \"sim.epoch\", \"index\": 3, \
             \"det\": {\"arrivals\": 7, \"occupancy\": 0.25}, \"aux\": {\"wall_ns\": 1234}}"
        );
    }

    #[test]
    fn sequence_fields_render_as_arrays() {
        let r = EpochRecord::new("sim.epoch", 0)
            .aux("loads", vec![3u64, 0, 5])
            .aux("values", vec![1.5f64, 2.0]);
        let line = r.to_json_line();
        assert!(line.contains("\"loads\": [3, 0, 5]"), "{line}");
        assert!(line.contains("\"values\": [1.5, 2]"), "{line}");
    }

    #[test]
    fn det_projection_strips_only_aux() {
        let a = EpochRecord::new("sim.epoch", 0)
            .det("arrivals", 1u64)
            .aux("wall_ns", 10u64);
        let b = EpochRecord::new("sim.epoch", 0)
            .det("arrivals", 1u64)
            .aux("wall_ns", 99_999u64);
        let doc_a = format!("{}\n", a.to_json_line());
        let doc_b = format!("{}\n", b.to_json_line());
        assert_ne!(doc_a, doc_b);
        assert_eq!(det_projection(&doc_a), det_projection(&doc_b));
        assert!(det_projection(&doc_a).contains("\"arrivals\": 1"));
        assert!(!det_projection(&doc_a).contains("wall_ns"));
    }

    #[test]
    fn fanout_delivers_in_order() {
        struct Tally(Mutex<Vec<u64>>);
        impl EpochObserver for Tally {
            fn on_record(&self, r: &EpochRecord) {
                self.0.lock().unwrap().push(r.index);
            }
        }
        let a = Arc::new(Tally(Mutex::new(Vec::new())));
        let b = Arc::new(Tally(Mutex::new(Vec::new())));
        let fan = FanoutObserver::new(vec![
            Arc::clone(&a) as Arc<dyn EpochObserver>,
            Arc::clone(&b) as Arc<dyn EpochObserver>,
        ]);
        fan.on_record(&EpochRecord::new("s", 5));
        fan.on_record(&EpochRecord::new("s", 6));
        assert_eq!(*a.0.lock().unwrap(), vec![5, 6]);
        assert_eq!(*b.0.lock().unwrap(), vec![5, 6]);
    }
}
