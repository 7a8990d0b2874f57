//! Telemetry is observe-only: enabling it must not change any result.
//!
//! These tests run with `dmra_obs::set_enabled(true)` (their own test
//! binary, so the global flag never leaks into other suites) and pin the
//! two equalities the instrumentation could most plausibly break — the
//! dense solver against its line-by-line reference, and the incremental
//! online engine against the scratch rebuild — then check that the
//! counters and trace events the instrumentation promises are actually
//! populated.

use dmra_core::{DeploymentContext, Dmra, Threads};
use dmra_obs::{EpochObserver, EpochRecord, FieldValue};
use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};
use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};
use dmra_sim::{ScenarioConfig, SweepRunner};
use dmra_types::{Point, UeId};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Held by the tests that read an `online.*` or `dmra.*` counter's delta
/// or drain the trace, and by every other test that builds epochs or
/// solves, so that no concurrent test moves what they read.
static ONLINE_TELEMETRY: Mutex<()> = Mutex::new(());

/// Takes [`ONLINE_TELEMETRY`]. It guards no data, so a test that
/// panicked holding it leaves nothing to repair.
fn serialize_online() -> MutexGuard<'static, ()> {
    ONLINE_TELEMETRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn instance(ues: usize, seed: u64) -> dmra_core::ProblemInstance {
    ScenarioConfig::paper_defaults()
        .with_ues(ues)
        .with_seed(seed)
        .build()
        .unwrap()
}

#[test]
fn solver_equality_holds_with_telemetry_enabled() {
    let _online = serialize_online();
    dmra_obs::set_enabled(true);
    let dmra = Dmra::default();
    for &(ues, seed) in &[(300usize, 5u64), (900, 17)] {
        let inst = instance(ues, seed);
        let fast = dmra.solve(&inst).unwrap();
        let reference = dmra.solve_reference(&inst).unwrap();
        // Full-outcome equality: allocation, rounds, proposals, and the
        // per-round acceptance/unmatched trajectories, prunes, evictions.
        assert_eq!(
            fast, reference,
            "telemetry perturbed the solver at {ues} UEs"
        );
    }
    let reg = dmra_obs::global();
    assert!(reg.counter("dmra.solves").get() >= 2);
    assert!(reg.counter("dmra.rounds").get() > 0);
    assert!(reg.counter("dmra.proposals").get() > 0);
    assert!(reg.histogram("dmra.solve_ns").count() >= 2);
}

#[test]
fn online_engines_identical_with_telemetry_enabled() {
    let _online = serialize_online();
    dmra_obs::set_enabled(true);
    let config = DynamicConfig {
        scenario: ScenarioConfig::paper_defaults(),
        arrival_rate: 60.0,
        mean_holding: 4.0,
        holding: HoldingDistribution::Geometric,
        epochs: 25,
        seed: 9,
    };
    let sim = DynamicSimulator::new(config);
    let incremental = sim.run().unwrap();
    let scratch = sim.run_scratch().unwrap();
    assert_eq!(
        incremental, scratch,
        "telemetry perturbed the incremental engine"
    );
    let reg = dmra_obs::global();
    assert!(reg.counter("sim.epochs").get() >= 25);
    assert!(reg.counter("online.epoch_builds").get() >= 25);
    assert!(
        reg.counter("online.precull_rejected").get() > 0,
        "spatial pre-cull never rejected a candidate at paper scale"
    );
    assert!(reg.histogram("sim.epoch_ns").count() >= 25);
    assert!(reg.histogram("online.epoch_build_ns").count() >= 25);
}

#[test]
fn sweep_tables_thread_independent_with_telemetry_enabled() {
    let _online = serialize_online();
    dmra_obs::set_enabled(true);
    let points: Vec<(f64, ScenarioConfig)> = [120usize, 240]
        .iter()
        .map(|&n| (n as f64, ScenarioConfig::paper_defaults().with_ues(n)))
        .collect();
    let dmra = Dmra::default();
    let algos: Vec<&dyn dmra_core::Allocator> = vec![&dmra];
    let run = |threads: Threads| {
        SweepRunner::new(2, 42)
            .with_threads(threads)
            .run_profit("obs", "#UEs", &points, &algos)
            .unwrap()
    };
    assert_eq!(
        run(Threads::serial()),
        run(Threads::Fixed(3)),
        "telemetry perturbed the threaded sweep"
    );
    let reg = dmra_obs::global();
    assert!(
        reg.counter("sweep.cells").get() >= 8,
        "2 points x 2 reps x 2 runs"
    );
    assert!(reg.histogram("sweep.cell_ns").count() >= 8);
}

#[test]
fn trace_records_convergence_trajectory() {
    let _online = serialize_online();
    dmra_obs::set_enabled(true);
    // A UE count no other test in this binary uses, so the trace event is
    // uniquely ours even though the suites share the global trace log.
    let inst = instance(1234, 23);
    let outcome = Dmra::default().solve(&inst).unwrap();
    let events = dmra_obs::global_trace().drain();
    let solve = events
        .iter()
        .find(|e| {
            e.name == "dmra.solve" && e.fields.iter().any(|&(k, v)| k == "ues" && v == 1234.0)
        })
        .expect("a dmra.solve trace event for the 1234-UE instance");
    let field = |key: &str| {
        solve
            .fields
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap()
    };
    assert_eq!(field("rounds"), outcome.iterations as f64);
    assert!(field("proposals") >= field("accepted"));
    assert_eq!(
        field("accepted") + field("cloud"),
        1234.0,
        "every UE ends either edge-served or cloud-forwarded"
    );
}

#[test]
fn links_kept_counts_the_live_links_of_a_cached_build() {
    // A row-cached context keeps dead spans in its link buffer: the rows
    // of UEs that left the batch, and rows that outgrew their span. The
    // `online.links_kept` counter and the build's trace event count only
    // the links of the batch's rows.
    let _online = serialize_online();
    dmra_obs::set_enabled(true);
    let full = instance(333, 29);
    let mut ctx = DeploymentContext::new(&full).with_row_cache();
    let kept = dmra_obs::global().counter("online.links_kept");
    let mut ues = full.ues().to_vec();
    for epoch in 0..4 {
        if epoch == 1 {
            // A third of the population leaves; its spans go dead.
            ues.truncate(222);
        }
        if epoch >= 2 {
            for ue in ues.iter_mut().step_by(7) {
                ue.position = Point::new(ue.position.y, ue.position.x);
            }
        }
        let before = kept.get();
        let built = ctx.build_epoch(full.budgets(), &ues).unwrap();
        let live: usize = (0..built.n_ues())
            .map(|u| built.candidates(UeId::new(u as u32)).len())
            .sum();
        assert_eq!(kept.get() - before, live as u64, "epoch {epoch}");
        let events = dmra_obs::global_trace().drain();
        let build = events
            .iter()
            .rfind(|e| e.name == "online.epoch_build")
            .expect("a trace event per build");
        let field = |key: &str| build.fields.iter().find(|&&(k, _)| k == key).unwrap().1;
        assert_eq!(field("ues"), ues.len() as f64, "epoch {epoch}");
        assert_eq!(field("links"), live as f64, "epoch {epoch}");
    }
}

/// One mobility epoch's work: the deltas of `online.rows_rebuilt`,
/// `online.row_cache_misses`, `dmra.windows_loaded` and
/// `dmra.first_proposals_scored`, and the record's `row_cache_misses`,
/// `ues_changed` and `price_lookups` aux fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EpochWork {
    rows_rebuilt: u64,
    cache_misses: u64,
    windows_loaded: u64,
    first_scored: u64,
    aux_misses: u64,
    ues_changed: u64,
    price_lookups: u64,
}

/// Reads the counters at every record; each epoch's deltas are taken
/// against the reading of the record before it.
struct WorkLog {
    last: Mutex<[u64; 4]>,
    epochs: Mutex<Vec<EpochWork>>,
}

fn work_counters() -> [u64; 4] {
    let reg = dmra_obs::global();
    [
        reg.counter("online.rows_rebuilt").get(),
        reg.counter("online.row_cache_misses").get(),
        reg.counter("dmra.windows_loaded").get(),
        reg.counter("dmra.first_proposals_scored").get(),
    ]
}

impl EpochObserver for WorkLog {
    fn on_record(&self, record: &EpochRecord) {
        let aux = |key: &str| match record.aux.iter().find(|(k, _)| *k == key) {
            Some((_, FieldValue::U64(v))) => *v,
            other => panic!("{key}: {other:?}"),
        };
        let now = work_counters();
        let mut last = self.last.lock().unwrap();
        self.epochs.lock().unwrap().push(EpochWork {
            rows_rebuilt: now[0] - last[0],
            cache_misses: now[1] - last[1],
            windows_loaded: now[2] - last[2],
            first_scored: now[3] - last[3],
            aux_misses: aux("row_cache_misses"),
            ues_changed: aux("ues_changed"),
            price_lookups: aux("price_lookups"),
        });
        *last = now;
    }
}

/// Runs a 300-UE, 8-epoch DMRA mobility simulation with telemetry on and
/// returns each epoch's work.
fn mobility_work(stationary_fraction: f64) -> Vec<EpochWork> {
    dmra_obs::set_enabled(true);
    let log = Arc::new(WorkLog {
        last: Mutex::new(work_counters()),
        epochs: Mutex::new(Vec::new()),
    });
    let config = MobilityConfig {
        scenario: ScenarioConfig::paper_defaults().with_ues(300),
        speed_mps: (8.0, 16.0),
        epoch_seconds: 10.0,
        epochs: 8,
        seed: 31,
        policy: MobilityPolicy::FullReallocation,
        stationary_fraction,
    };
    MobilitySimulator::new(config)
        .with_observer(Arc::clone(&log) as Arc<dyn EpochObserver>)
        .run()
        .unwrap();
    let epochs = log.epochs.lock().unwrap().clone();
    assert_eq!(epochs.len(), 8);
    epochs
}

#[test]
fn rows_rebuilt_counts_the_rows_a_cached_build_scanned() {
    // A cached mobility build scans exactly its cache misses, so each
    // epoch's `online.rows_rebuilt` delta is its `online.row_cache_misses`
    // delta (the record's own miss count): every row on the cold first
    // epoch, the moved UEs' rows after it. After the first epoch the
    // solver scores round 1 only for UEs whose window it reloaded.
    let _online = serialize_online();
    let epochs = mobility_work(0.5);
    for (e, w) in epochs.iter().enumerate() {
        assert_eq!(w.rows_rebuilt, w.cache_misses, "epoch {e}: {w:?}");
        assert_eq!(w.cache_misses, w.aux_misses, "epoch {e}: {w:?}");
        assert_eq!(w.rows_rebuilt, w.ues_changed, "epoch {e}: {w:?}");
    }
    assert_eq!(epochs[0].rows_rebuilt, 300);
    assert!(
        epochs[1..]
            .iter()
            .all(|w| w.rows_rebuilt > 0 && w.rows_rebuilt < 300),
        "{epochs:?}"
    );
    assert!(
        epochs[1..]
            .iter()
            .all(|w| w.first_scored > 0 && w.first_scored <= w.windows_loaded),
        "{epochs:?}"
    );
}

#[test]
fn an_unchanged_mobility_epoch_does_no_per_row_work() {
    // Every UE pinned: after the first epoch each batch equals the last
    // one bit for bit, so the build validates, copies and rescans no UE,
    // the solver copies no candidate window and computes no round-1
    // arg-min, and the profit ledger looks up no price.
    let _online = serialize_online();
    let epochs = mobility_work(1.0);
    let first = epochs[0];
    assert_eq!(
        (first.rows_rebuilt, first.ues_changed, first.windows_loaded),
        (300, 300, 300)
    );
    assert!(first.price_lookups > 0 && first.first_scored > 0);
    let idle = EpochWork {
        rows_rebuilt: 0,
        cache_misses: 0,
        windows_loaded: 0,
        first_scored: 0,
        aux_misses: 0,
        ues_changed: 0,
        price_lookups: 0,
    };
    for (e, w) in epochs.iter().enumerate().skip(1) {
        assert_eq!(*w, idle, "epoch {e}");
    }
}
