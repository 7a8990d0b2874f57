//! Telemetry is observe-only: enabling it must not change any result.
//!
//! These tests run with `dmra_obs::set_enabled(true)` (their own test
//! binary, so the global flag never leaks into other suites) and pin the
//! two equalities the instrumentation could most plausibly break — the
//! dense solver against its line-by-line reference, and the incremental
//! online engine against the scratch rebuild — then check that the
//! counters and trace events the instrumentation promises are actually
//! populated.

use dmra_core::{Dmra, Threads};
use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};
use dmra_sim::{ScenarioConfig, SweepRunner};

fn instance(ues: usize, seed: u64) -> dmra_core::ProblemInstance {
    ScenarioConfig::paper_defaults()
        .with_ues(ues)
        .with_seed(seed)
        .build()
        .unwrap()
}

#[test]
fn solver_equality_holds_with_telemetry_enabled() {
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
