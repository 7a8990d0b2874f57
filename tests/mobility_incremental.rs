//! The incremental mobility engine is bit-identical to rebuild-from-scratch.
//!
//! `MobilitySimulator::run` drives the epoch-persistent
//! [`dmra_core::DeploymentContext`] with the cross-epoch candidate-row
//! cache and the batched link kernel; `run_scratch` rebuilds a full
//! exhaustive-scan [`dmra_core::ProblemInstance`] every epoch with the
//! scalar evaluator. These tests pin their equality — identical
//! `MobilityOutcome`s, byte for byte — across reallocation policies,
//! allocators, seeds and stationary fractions, including a 1400-UE
//! population and a 60-epoch horizon long enough for the row cache's
//! buffer to fill with dead spans and compact.

use dmra_core::{Allocator, Dmra};
use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};
use dmra_sim::ScenarioConfig;

fn config(seed: u64, policy: MobilityPolicy, stationary: f64) -> MobilityConfig {
    MobilityConfig {
        scenario: ScenarioConfig::paper_defaults().with_ues(250),
        speed_mps: (5.0, 15.0),
        epoch_seconds: 10.0,
        epochs: 8,
        seed,
        policy,
        stationary_fraction: stationary,
    }
}

#[test]
fn incremental_engine_matches_scratch_for_every_policy_and_seed() {
    for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
        for &(seed, stationary) in &[(3u64, 0.0), (8, 0.5), (21, 0.9), (7, 0.6)] {
            let sim = MobilitySimulator::new(config(seed, policy, stationary));
            let incremental = sim.run().unwrap();
            let scratch = sim.run_scratch().unwrap();
            assert_eq!(
                incremental, scratch,
                "{policy:?} diverged at seed {seed}, stationary {stationary}"
            );
        }
    }
}

#[test]
fn incremental_engine_matches_scratch_for_every_allocator() {
    type Factory = fn() -> Box<dyn Allocator>;
    let factories: Vec<(&str, Factory)> = vec![
        ("DMRA", || Box::new(Dmra::default())),
        ("NonCo", || Box::new(dmra_baselines::NonCo::default())),
        ("GreedyProfit", || {
            Box::new(dmra_baselines::GreedyProfit::default())
        }),
    ];
    for (name, factory) in factories {
        for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
            let sim = MobilitySimulator::new(config(5, policy, 0.4)).with_allocator(factory());
            let incremental = sim.run().unwrap();
            let scratch = sim.run_scratch().unwrap();
            assert_eq!(incremental, scratch, "{name} diverged under {policy:?}");
        }
    }
}

#[test]
fn incremental_engine_matches_scratch_above_the_parallel_rebuild_threshold() {
    // The suite's largest population: 1400 UEs, so each epoch the
    // incremental side's row cache serves over a thousand rows (hits and
    // misses both) while the scratch side stays the exhaustive rebuild
    // loop. The epoch rebuild is serial at every size; the name keeps
    // the threshold the rebuild once fanned out at. Outcomes must match
    // byte for byte.
    let mut cfg = config(12, MobilityPolicy::FullReallocation, 0.7);
    cfg.scenario = cfg.scenario.with_ues(1400);
    cfg.epochs = 4;
    let sim = MobilitySimulator::new(cfg);
    assert_eq!(sim.run().unwrap(), sim.run_scratch().unwrap());
}

#[test]
fn incremental_engine_matches_scratch_over_a_long_horizon() {
    // Every UE moves every epoch for 60 epochs: rows that outgrow their
    // spans leave dead space behind until the cached context compacts
    // its buffer, under both policies.
    for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
        let mut cfg = config(17, policy, 0.0);
        cfg.epochs = 60;
        let sim = MobilitySimulator::new(cfg);
        assert_eq!(
            sim.run().unwrap(),
            sim.run_scratch().unwrap(),
            "{policy:?} diverged over 60 epochs"
        );
    }
}
