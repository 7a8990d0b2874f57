//! The incremental online engine is bit-identical to rebuild-from-scratch.
//!
//! The dynamic simulator ships one epoch loop, the epoch-persistent
//! incremental engine (`run`), and keeps the original full-residual-rebuild
//! loop (`run_scratch`) as the executable specification. These tests pin
//! their equality — identical `DynamicOutcome`s, byte for byte — across
//! allocators, seeds, arrival rates, holding distributions and
//! scratch-side thread counts, and separately pin the spatial candidate
//! pruning bit-identical to the exhaustive O(U×B) scan at paper scale.

use dmra_core::{Allocator, CandidateScan, CoverageModel, Dmra, ProblemInstance, Threads};
use dmra_radio::InterferenceModel;
use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};
use dmra_sim::ScenarioConfig;
use dmra_types::{BitsPerSec, UeId};

fn config(rate: f64, seed: u64, epochs: usize) -> DynamicConfig {
    DynamicConfig {
        scenario: ScenarioConfig::paper_defaults(),
        arrival_rate: rate,
        mean_holding: 5.0,
        holding: HoldingDistribution::Geometric,
        epochs,
        seed,
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
        for &(rate, seed) in &[(25.0, 3u64), (140.0, 8)] {
            let sim = DynamicSimulator::with_allocator(config(rate, seed, 30), factory());
            let incremental = sim.run().unwrap();
            let scratch = sim.run_scratch().unwrap();
            assert_eq!(
                incremental, scratch,
                "{name} diverged at rate {rate}, seed {seed}"
            );
        }
    }
}

#[test]
fn incremental_engine_matches_scratch_for_every_thread_count() {
    let sim = DynamicSimulator::new(config(120.0, 5, 25));
    let incremental = sim.run().unwrap();
    for threads in [1usize, 2, 4] {
        let scratch = sim
            .run_scratch_with_threads(Threads::Fixed(threads))
            .unwrap();
        assert_eq!(incremental, scratch, "diverged at {threads} threads");
    }
}

#[test]
fn incremental_engine_matches_scratch_for_every_holding_distribution() {
    // Exponential holding lands departures between epoch boundaries;
    // both loops must release them at the same boundary.
    for dist in [
        HoldingDistribution::Geometric,
        HoldingDistribution::Deterministic,
        HoldingDistribution::Exponential,
    ] {
        for rate in [20.0, 120.0] {
            for seed in [5u64, 12] {
                let mut cfg = config(rate, seed, 25);
                cfg.holding = dist;
                let sim = DynamicSimulator::new(cfg);
                assert_eq!(
                    sim.run().unwrap(),
                    sim.run_scratch().unwrap(),
                    "{dist} diverged at rate {rate}, seed {seed}"
                );
            }
        }
    }
}

#[test]
fn incremental_engine_matches_scratch_at_saturating_load() {
    // Past saturation most arrivals bounce; the residual instances then
    // exercise drained-budget candidate pruning heavily.
    let sim = DynamicSimulator::new(config(400.0, 13, 15));
    assert_eq!(sim.run().unwrap(), sim.run_scratch().unwrap());
    // The other extreme: at rate 0.5 over 10 000 epochs most epochs are
    // idle, and departures drain between sparse arrival batches.
    let sim = DynamicSimulator::new(config(0.5, 7, 10_000));
    let incremental = sim.run().unwrap();
    assert_eq!(incremental, sim.run_scratch().unwrap());
    assert_eq!(incremental.rrb_occupancy.len(), 10_000);
    assert!(
        incremental.arrivals < 6_000,
        "expected a sparse trace, got {} arrivals",
        incremental.arrivals
    );
}

/// Rebuilds an instance's inputs with a forced scan mode.
fn rebuild(inst: &ProblemInstance, scan: CandidateScan) -> ProblemInstance {
    ProblemInstance::build_with_scan(
        inst.sps().to_vec(),
        inst.bss().to_vec(),
        inst.ues().to_vec(),
        inst.catalog(),
        *inst.pricing(),
        *inst.radio(),
        inst.coverage(),
        Threads::Auto,
        scan,
    )
    .unwrap()
}

fn assert_identical_candidates(a: &ProblemInstance, b: &ProblemInstance) {
    for u in 0..a.n_ues() {
        let ue = UeId::new(u as u32);
        assert_eq!(a.candidates(ue), b.candidates(ue), "UE {u} rows differ");
        assert_eq!(a.f_u(ue), b.f_u(ue), "f_u({u}) differs");
    }
    assert_eq!(
        a.coverage_lists(),
        b.coverage_lists(),
        "coverage lists differ"
    );
}

#[test]
fn pruned_candidate_generation_is_bit_identical_at_paper_scale() {
    // 900 UEs × 25 BSs, fixed 300 m coverage radius: the pruned build
    // must reproduce the exhaustive scan byte for byte — and the matcher
    // must therefore agree too.
    let auto = ScenarioConfig::paper_defaults()
        .with_ues(900)
        .with_seed(5)
        .build()
        .unwrap();
    let exhaustive = rebuild(&auto, CandidateScan::Exhaustive);
    assert_identical_candidates(&auto, &exhaustive);
    let dmra = Dmra::default();
    assert_eq!(dmra.solve(&auto).unwrap(), dmra.solve(&exhaustive).unwrap());
}

#[test]
fn pruned_candidate_generation_survives_interference_model() {
    // Load-proportional interference takes the own-rx branch of the scan
    // kernel; pruning must stay bit-identical there as well.
    let mut scenario = ScenarioConfig::paper_defaults().with_ues(400).with_seed(9);
    scenario.radio.interference = InterferenceModel::LoadProportional { factor: 0.1 };
    let auto = scenario.build().unwrap();
    let exhaustive = rebuild(&auto, CandidateScan::Exhaustive);
    assert_identical_candidates(&auto, &exhaustive);
}

#[test]
fn min_rate_coverage_falls_back_to_exhaustive_scan() {
    // No fixed radius → no spatial index; Auto and Exhaustive are the
    // same code path and must (trivially) agree.
    let base = ScenarioConfig::paper_defaults()
        .with_ues(200)
        .with_seed(11)
        .build()
        .unwrap();
    let min_rate = CoverageModel::MinPerRrbRate(BitsPerSec::from_mbps(0.5));
    let auto = ProblemInstance::build(
        base.sps().to_vec(),
        base.bss().to_vec(),
        base.ues().to_vec(),
        base.catalog(),
        *base.pricing(),
        *base.radio(),
        min_rate,
    )
    .unwrap();
    let exhaustive = ProblemInstance::build_with_scan(
        base.sps().to_vec(),
        base.bss().to_vec(),
        base.ues().to_vec(),
        base.catalog(),
        *base.pricing(),
        *base.radio(),
        min_rate,
        Threads::Auto,
        CandidateScan::Exhaustive,
    )
    .unwrap();
    assert_identical_candidates(&auto, &exhaustive);
}
