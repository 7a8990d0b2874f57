//! Flight-recorder determinism: the deterministic-field projection of a
//! `--record` JSONL stream is byte-identical across engines and
//! decimation settings.
//!
//! Every engine builds its `det` section through one shared helper per
//! stream (DESIGN.md §15), so each simulator's epoch loop, its
//! rebuild-from-scratch specification and the fault-free protocol
//! matcher must produce the same `det` bytes for the same
//! configuration; only the `aux` section (wall times, cache deltas,
//! protocol degradation) may differ.
//! These tests attach per-instance recorders via `with_observer`
//! (leaving the process-wide observer slot alone, so they are safe to
//! run in parallel with everything else) and byte-compare
//! [`dmra::obs::det_projection`]s.

use dmra::obs::{det_projection, Recorder, SharedBuf};
use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution, ProtoFaults};
use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};
use dmra_sim::ScenarioConfig;
use std::sync::Arc;

fn dyn_config() -> DynamicConfig {
    DynamicConfig {
        scenario: ScenarioConfig::paper_defaults().with_ues(200),
        arrival_rate: 25.0,
        mean_holding: 4.0,
        holding: HoldingDistribution::Geometric,
        epochs: 12,
        seed: 7,
    }
}

fn mob_config() -> MobilityConfig {
    MobilityConfig {
        scenario: ScenarioConfig::paper_defaults().with_ues(120),
        speed_mps: (8.0, 16.0),
        epoch_seconds: 10.0,
        epochs: 8,
        seed: 9,
        policy: MobilityPolicy::Sticky,
        stationary_fraction: 0.4,
    }
}

/// Records one dynamic run of `config` through `engine` into an
/// in-memory buffer and returns the full JSONL document.
fn record_dynamic_with(config: DynamicConfig, engine: &str, sample_every: u64) -> String {
    let buf = SharedBuf::new();
    let recorder = Arc::new(Recorder::to_writer(Box::new(buf.clone()), sample_every));
    let sim = DynamicSimulator::new(config).with_observer(recorder.clone());
    match engine {
        "incremental" => sim.run().unwrap(),
        "scratch" => sim.run_scratch().unwrap(),
        // Fault-free message-passing protocol: per-round flight records go
        // only through the process-global slot, so this instance-attached
        // stream stays line-for-line comparable with the other engines.
        "proto" => sim.run_proto(&ProtoFaults::default()).unwrap(),
        other => panic!("unknown engine {other}"),
    };
    assert!(recorder.finish(), "in-memory recorder cannot fail");
    buf.contents()
}

/// [`record_dynamic_with`] on the default [`dyn_config`].
fn record_dynamic(engine: &str, sample_every: u64) -> String {
    record_dynamic_with(dyn_config(), engine, sample_every)
}

fn record_mobility(engine: &str) -> String {
    let buf = SharedBuf::new();
    let recorder = Arc::new(Recorder::to_writer(Box::new(buf.clone()), 1));
    let sim = MobilitySimulator::new(mob_config()).with_observer(recorder.clone());
    match engine {
        "incremental" => sim.run().unwrap(),
        "scratch" => sim.run_scratch().unwrap(),
        other => panic!("unknown engine {other}"),
    };
    assert!(recorder.finish());
    buf.contents()
}

#[test]
fn dynamic_det_projection_is_identical_across_engines() {
    let reference = det_projection(&record_dynamic("incremental", 1));
    assert!(
        reference.contains("\"stream\": \"sim.epoch\""),
        "{reference}"
    );
    assert_eq!(reference.lines().count(), dyn_config().epochs);
    assert_eq!(
        det_projection(&record_dynamic("scratch", 1)),
        reference,
        "scratch engine det stream diverged"
    );
    assert_eq!(
        det_projection(&record_dynamic("proto", 1)),
        reference,
        "proto engine det stream diverged"
    );
}

/// The acceptance witness for the protocol-backed engine: under reliable
/// immediate delivery its recorded `sim.epoch` det stream — including the
/// per-epoch `Allocation::digest()` — is byte-identical to the
/// incremental engine's, across several seeds.
#[test]
fn proto_engine_det_stream_matches_incremental_across_seeds() {
    for seed in [7u64, 21, 1234] {
        let mut config = dyn_config();
        config.seed = seed;
        let reference = det_projection(&record_dynamic_with(config.clone(), "incremental", 1));
        assert!(reference.contains("\"digest\":"), "{reference}");
        assert_eq!(
            det_projection(&record_dynamic_with(config, "proto", 1)),
            reference,
            "proto engine det stream diverged at seed {seed}"
        );
    }
}

#[test]
fn dynamic_records_carry_digest_and_occupancy() {
    let doc = record_dynamic("incremental", 1);
    let first = doc.lines().next().unwrap();
    for key in [
        "\"arrivals\":",
        "\"admitted\":",
        "\"cloud\":",
        "\"departed\":",
        "\"in_service\":",
        "\"occupancy\":",
        "\"digest\":",
        "\"wall_ns\":",
        "\"solve_ns\":",
    ] {
        assert!(first.contains(key), "missing {key} in {first}");
    }
}

#[test]
fn decimation_keeps_every_nth_record_of_the_full_stream() {
    let full = record_dynamic("incremental", 1);
    let sampled = record_dynamic("incremental", 3);
    let expected: String = full
        .lines()
        .filter(|l| !l.is_empty())
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    assert_eq!(det_projection(&sampled), det_projection(&expected));
    assert_eq!(sampled.lines().count(), dyn_config().epochs.div_ceil(3));
}

#[test]
fn mobility_det_projection_is_identical_across_engines() {
    let reference = det_projection(&record_mobility("incremental"));
    assert!(
        reference.contains("\"stream\": \"mobility.epoch\""),
        "{reference}"
    );
    assert_eq!(reference.lines().count(), mob_config().epochs);
    assert!(reference.contains("\"handovers\":"));
    assert!(reference.contains("\"profit\":"));
    assert_eq!(
        det_projection(&record_mobility("scratch")),
        reference,
        "scratch engine det stream diverged"
    );
}

#[test]
fn recording_never_changes_outcomes() {
    let sim = DynamicSimulator::new(dyn_config());
    let bare = sim.run().unwrap();
    let buf = SharedBuf::new();
    let recorder = Arc::new(Recorder::to_writer(Box::new(buf.clone()), 1));
    let recorded = DynamicSimulator::new(dyn_config())
        .with_observer(recorder)
        .run()
        .unwrap();
    assert_eq!(bare, recorded, "recording perturbed the dynamic outcome");

    let mob = MobilitySimulator::new(mob_config()).run().unwrap();
    let buf = SharedBuf::new();
    let recorder = Arc::new(Recorder::to_writer(Box::new(buf.clone()), 1));
    let mob_recorded = MobilitySimulator::new(mob_config())
        .with_observer(recorder)
        .run()
        .unwrap();
    assert_eq!(
        mob, mob_recorded,
        "recording perturbed the mobility outcome"
    );
}
