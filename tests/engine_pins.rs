//! Pins the simulators' outcomes against recorded constants.
//!
//! The engine-equality suites (`incremental`, `mobility_incremental`,
//! `recorder`) prove that the engines agree with their scratch
//! specifications, not that either kept its outcomes: a change to
//! bookkeeping they share moves both sides at once. This test folds the
//! det projection of every shipped epoch loop — `DynamicSimulator::run`,
//! `run_proto` fault-free and under one lossy spec, and
//! `MobilitySimulator::run` under both policies — for a few seeds and
//! allocators into one `u64` per configuration and compares it with the
//! value recorded when the test was written. The sticky policy runs
//! nowhere else against recorded values.
//!
//! A deliberate outcome change updates the constants in the same change,
//! and says why.

use dmra::obs::{det_projection, Recorder, SharedBuf};
use dmra_baselines::{Dcsp, GreedyProfit, NonCo};
use dmra_core::{Allocator, Dmra};
use dmra_sim::dynamic::{
    DynamicConfig, DynamicSimulator, HoldingDistribution, ProtoDelay, ProtoFaults,
};
use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};
use dmra_sim::ScenarioConfig;
use dmra_types::BsId;
use std::sync::Arc;

const SEEDS: [u64; 3] = [1, 7, 42];

fn allocator(name: &str) -> Box<dyn Allocator> {
    match name {
        "DMRA" => Box::new(Dmra::default()),
        "DCSP" => Box::new(Dcsp::default()),
        "NonCo" => Box::new(NonCo::default()),
        "Greedy" => Box::new(GreedyProfit::default()),
        other => panic!("unknown allocator {other}"),
    }
}

const ALLOCATORS: [&str; 4] = ["DMRA", "DCSP", "NonCo", "Greedy"];

/// FNV-1a over the bytes of a det projection.
fn fold(det: &str) -> u64 {
    det.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds the det projections of `runs` (each one recorded run) in order.
fn fold_runs(runs: impl IntoIterator<Item = String>) -> u64 {
    runs.into_iter().fold(0, |h, jsonl| {
        let det = det_projection(&jsonl);
        assert!(!det.is_empty(), "a pinned run recorded no epoch");
        (h ^ fold(&det)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    })
}

fn recorder() -> (SharedBuf, Arc<Recorder>) {
    let buf = SharedBuf::new();
    let recorder = Arc::new(Recorder::to_writer(Box::new(buf.clone()), 1));
    (buf, recorder)
}

fn dynamic_config(seed: u64) -> DynamicConfig {
    DynamicConfig {
        scenario: ScenarioConfig::paper_defaults(),
        arrival_rate: 40.0,
        mean_holding: 4.0,
        holding: HoldingDistribution::Geometric,
        epochs: 12,
        seed,
    }
}

/// One dynamic run through `engine` (`run`, or `run_proto` under
/// `faults`), recorded.
fn record_dynamic(seed: u64, alloc: &str, faults: Option<&ProtoFaults>) -> String {
    let (buf, recorder) = recorder();
    let sim = DynamicSimulator::with_allocator(dynamic_config(seed), allocator(alloc))
        .with_observer(recorder.clone());
    match faults {
        None => sim.run().unwrap(),
        Some(faults) => sim.run_proto(faults).unwrap(),
    };
    assert!(recorder.finish());
    buf.contents()
}

fn record_mobility(seed: u64, alloc: &str, policy: MobilityPolicy) -> String {
    let (buf, recorder) = recorder();
    let config = MobilityConfig {
        scenario: ScenarioConfig::paper_defaults().with_ues(300),
        speed_mps: (8.0, 16.0),
        epoch_seconds: 10.0,
        epochs: 8,
        seed,
        policy,
        stationary_fraction: 0.4,
    };
    let sim = MobilitySimulator::new(config)
        .with_allocator(allocator(alloc))
        .with_observer(recorder.clone());
    sim.run().unwrap();
    assert!(recorder.finish());
    buf.contents()
}

/// Compares every `(label, fold)` with its pin and reports all
/// mismatches at once.
fn check(pins: &[(&str, u64)], folds: &[(String, u64)]) {
    assert_eq!(pins.len(), folds.len());
    let wrong: Vec<String> = pins
        .iter()
        .zip(folds)
        .filter(|((_, pin), (_, got))| pin != got)
        .map(|((label, pin), (_, got))| format!("{label}: pinned {pin:#018x}, got {got:#018x}"))
        .collect();
    let all: Vec<String> = folds
        .iter()
        .map(|(label, got)| format!("(\"{label}\", {got:#018x}),"))
        .collect();
    assert!(
        wrong.is_empty(),
        "outcomes moved:\n{}\nfolds now:\n{}",
        wrong.join("\n"),
        all.join("\n")
    );
}

const DYNAMIC_PINS: [(&str, u64); 4] = [
    ("DMRA", 0xa6f9_97ac_d8fb_34c9),
    ("DCSP", 0x7d85_3f7c_9910_9d41),
    ("NonCo", 0xf211_3a99_d9a3_f501),
    ("Greedy", 0x8f35_d1c3_1d59_c761),
];

#[test]
fn dynamic_run_outcomes_are_pinned() {
    let folds: Vec<(String, u64)> = ALLOCATORS
        .iter()
        .map(|&alloc| {
            let runs = SEEDS.iter().map(|&seed| record_dynamic(seed, alloc, None));
            (alloc.to_string(), fold_runs(runs))
        })
        .collect();
    check(&DYNAMIC_PINS, &folds);
}

const PROTO_PINS: [(&str, u64); 2] = [
    ("fault-free", 0xa6f9_97ac_d8fb_34c9),
    ("lossy", 0x2802_a081_c3c5_0b3e),
];

#[test]
fn protocol_engine_outcomes_are_pinned() {
    let lossy = ProtoFaults {
        drop_prob: 0.1,
        delay: ProtoDelay::Random(2),
        crashes: vec![(BsId::new(4), 5)],
        max_rounds: 0,
    };
    let folds: Vec<(String, u64)> = [("fault-free", ProtoFaults::default()), ("lossy", lossy)]
        .iter()
        .map(|(label, faults)| {
            let runs = SEEDS
                .iter()
                .map(|&seed| record_dynamic(seed, "DMRA", Some(faults)));
            (label.to_string(), fold_runs(runs))
        })
        .collect();
    check(&PROTO_PINS, &folds);
}

const MOBILITY_PINS: [(&str, u64); 8] = [
    ("DMRA full", 0xb0a8_b630_72dc_953e),
    ("DMRA sticky", 0x8479_9cdb_cf49_cd18),
    ("DCSP full", 0x90d9_8a2b_f5af_96c9),
    ("DCSP sticky", 0x3366_b338_f40a_13e8),
    ("NonCo full", 0xd63e_e3cb_bd95_cd67),
    ("NonCo sticky", 0x6ed4_7c39_7f4d_710a),
    ("Greedy full", 0xa4d3_040c_b398_a6b4),
    ("Greedy sticky", 0x256b_f931_066f_28a2),
];

#[test]
fn mobility_run_outcomes_are_pinned() {
    let mut folds = Vec::new();
    for alloc in ALLOCATORS {
        for (name, policy) in [
            ("full", MobilityPolicy::FullReallocation),
            ("sticky", MobilityPolicy::Sticky),
        ] {
            let runs = SEEDS
                .iter()
                .map(|&seed| record_mobility(seed, alloc, policy));
            folds.push((format!("{alloc} {name}"), fold_runs(runs)));
        }
    }
    check(&MOBILITY_PINS, &folds);
}
