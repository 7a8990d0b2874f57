//! Bit-identical parallel execution.
//!
//! The fan-out layer (`dmra-par`) only ever reorders *work*, never
//! results: sweep grid cells derive independent seeds and build and solve
//! serially, so every thread count must produce exactly the same bytes.
//! These tests pin that guarantee at paper scale, for the thread counts a
//! laptop and a CI runner would use.

use dmra_core::{Allocator, Dmra, Threads};
use dmra_sim::{ScenarioConfig, SweepRunner};

fn points(ue_counts: &[usize]) -> Vec<(f64, ScenarioConfig)> {
    ue_counts
        .iter()
        .map(|&n| (n as f64, ScenarioConfig::paper_defaults().with_ues(n)))
        .collect()
}

#[test]
fn parallel_sweep_tables_are_bit_identical_to_serial() {
    let points = points(&[150, 300]);
    let dmra = Dmra::default();
    let nonco = dmra_baselines::NonCo::default();
    let algos: Vec<&dyn Allocator> = vec![&dmra, &nonco];
    let runner = SweepRunner::new(3, 42);
    let serial = runner
        .with_threads(Threads::serial())
        .run_profit("t", "#UEs", &points, &algos)
        .unwrap();
    for threads in [2usize, 4, 7] {
        let par = runner
            .with_threads(Threads::Fixed(threads))
            .run_profit("t", "#UEs", &points, &algos)
            .unwrap();
        assert_eq!(par, serial, "table diverged at {threads} threads");
    }
}

#[test]
fn parallel_sweep_matches_serial_for_custom_metrics_too() {
    // A different metric closure (forwarded load) and a different grid
    // shape, to make sure the equality is not specific to run_profit.
    let points = points(&[200]);
    let dmra = Dmra::default();
    let algos: Vec<&dyn Allocator> = vec![&dmra];
    let runner = SweepRunner::new(4, 7);
    let serial = runner
        .with_threads(Threads::serial())
        .run_forwarded_load("t", "#UEs", &points, &algos)
        .unwrap();
    let par = runner
        .with_threads(Threads::Fixed(3))
        .run_forwarded_load("t", "#UEs", &points, &algos)
        .unwrap();
    assert_eq!(par, serial);
}

#[test]
fn dense_solver_matches_reference_at_paper_scale() {
    // The dense-state rewrite of Algorithm 1 must reproduce the full
    // outcome (allocation, iterations, proposals, acceptance timeline) of
    // the line-by-line transcription it replaced.
    for (n_ues, seed, rho) in [(400usize, 1u64, 100.0), (900, 5, 0.0), (900, 5, 1000.0)] {
        let instance = ScenarioConfig::paper_defaults()
            .with_ues(n_ues)
            .with_seed(seed)
            .build()
            .unwrap();
        let dmra = Dmra::new(dmra_core::DmraConfig::paper_defaults().with_rho(rho));
        let fast = dmra.solve(&instance).unwrap();
        let reference = dmra.solve_reference(&instance).unwrap();
        assert_eq!(fast, reference, "n_ues={n_ues} seed={seed} rho={rho}");
    }
}

#[test]
fn dmra_threads_env_is_honored_by_auto() {
    // Benign to run alongside the other tests: the knob only moves work
    // across threads, never results.
    std::env::set_var("DMRA_THREADS", "3");
    assert_eq!(Threads::Auto.resolve(), 3);
    std::env::set_var("DMRA_THREADS", "not-a-number");
    assert!(Threads::Auto.resolve() >= 1, "garbage falls back to auto");
    std::env::remove_var("DMRA_THREADS");
    assert!(Threads::Auto.resolve() >= 1);
}
