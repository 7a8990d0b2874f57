//! The benchmark's only contact points with a running engine: a wrapping
//! [`Allocator`] whose session timestamps every solve, and an
//! [`EpochObserver`] that timestamps every epoch record and folds its
//! deterministic fields.

use crate::gate::Gate;
use crate::replay::Replayer;
use crate::stats::Mark;
use dmra_core::{Allocation, Allocator, AllocatorSession, Dmra, ProblemInstance};
use dmra_obs::{EpochObserver, EpochRecord, FieldValue};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Extra per-solve work a repetition may carry, run after the solve's
/// exit mark so it never lands inside the timed solve slice.
pub enum Hook {
    /// Timing only.
    None,
    /// The correctness gate.
    Gate(Box<Gate>),
    /// Layer replay of each solved instance.
    Replay(Box<Replayer>),
}

/// State shared by the wrapper allocator, its sessions and the observer.
pub struct Probe {
    base: Instant,
    state: Mutex<State>,
}

struct State {
    marks: Vec<Mark>,
    det_fold: u64,
    hook: Hook,
}

/// Seed of the det-field fold (FNV-1a offset basis).
const FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;

impl Probe {
    /// A probe with an empty timeline.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            base: Instant::now(),
            state: Mutex::new(State {
                marks: Vec::new(),
                det_fold: FOLD_SEED,
                hook: Hook::None,
            }),
        })
    }

    /// Nanoseconds since the probe was created, on the same clock as
    /// every mark.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("probe state poisoned by a panicking engine")
    }

    /// Clears the timeline and det fold and installs `hook` for the next
    /// repetition.
    pub fn reset(&self, hook: Hook) {
        let mut st = self.lock();
        st.marks.clear();
        st.det_fold = FOLD_SEED;
        st.hook = hook;
    }

    /// Takes the finished repetition's marks, det fold and hook.
    pub fn take(&self) -> (Vec<Mark>, u64, Hook) {
        let mut st = self.lock();
        let marks = std::mem::take(&mut st.marks);
        let hook = std::mem::replace(&mut st.hook, Hook::None);
        (marks, st.det_fold, hook)
    }
}

impl EpochObserver for Probe {
    fn on_record(&self, record: &EpochRecord) {
        let t = self.now();
        let mut st = self.lock();
        st.marks.push(Mark::Record(t));
        st.det_fold = fold_det(st.det_fold, record);
    }
}

/// Folds a record's stream index and every det field (key and value
/// bits) into `h`.
#[must_use]
pub fn fold_det(mut h: u64, record: &EpochRecord) -> u64 {
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    };
    mix(record.index);
    for (key, value) in &record.det {
        key.bytes().for_each(|b| mix(u64::from(b)));
        match value {
            FieldValue::U64(v) => mix(*v),
            FieldValue::F64(v) => mix(v.to_bits()),
            FieldValue::U64Seq(vs) => vs.iter().for_each(|v| mix(*v)),
            FieldValue::F64Seq(vs) => vs.iter().for_each(|v| mix(v.to_bits())),
        }
    }
    h
}

/// The shipped default matcher behind a timing wrapper.
pub struct ProbedDmra {
    inner: Dmra,
    probe: Arc<Probe>,
}

impl ProbedDmra {
    /// Wraps `Dmra::default()`.
    #[must_use]
    pub fn new(probe: Arc<Probe>) -> Self {
        Self {
            inner: Dmra::default(),
            probe,
        }
    }
}

impl Allocator for ProbedDmra {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocate(&self, instance: &ProblemInstance) -> Allocation {
        self.inner.allocate(instance)
    }

    fn session(&self) -> Box<dyn AllocatorSession + '_> {
        let t = self.probe.now();
        self.probe.lock().marks.push(Mark::Session(t));
        Box::new(ProbedSession {
            inner: self.inner.session(),
            probe: &self.probe,
        })
    }
}

struct ProbedSession<'a> {
    inner: Box<dyn AllocatorSession + 'a>,
    probe: &'a Probe,
}

impl AllocatorSession for ProbedSession<'_> {
    fn allocate(&mut self, instance: &ProblemInstance) -> Allocation {
        let entry = self.probe.now();
        let allocation = self.inner.allocate(instance);
        let exit = self.probe.now();
        let mut st = self.probe.lock();
        st.marks.push(Mark::Entry(entry));
        st.marks.push(Mark::Exit(exit));
        match &mut st.hook {
            Hook::None => {}
            Hook::Gate(gate) => gate.check(instance, &allocation),
            Hook::Replay(replayer) => replayer.replay(instance),
        }
        allocation
    }
}
