//! The region-sharded engines are bit-identical to their unsharded
//! counterparts.
//!
//! `DynamicSimulator::run_sharded` / `MobilitySimulator::run_sharded`
//! route UEs to rectangular spatial shards, build candidate rows on
//! long-lived worker threads against site-filtered contexts, and solve
//! the merged instance globally (DESIGN.md §13). The mirroring invariant
//! — every BS within the coverage halo of a shard's rectangle is kept in
//! that shard's prune index — makes the merged rows byte-identical to
//! the unsharded build, so outcomes must match exactly. These tests pin
//! that across shard counts {1, 2, 4, 9}, allocators, seeds, explicit
//! grids, saturating loads (boundary-straddling UEs at 3×3 shards on the
//! paper's 1200 m region), mobility policies with seam-crossing movers,
//! and telemetry on/off.

use dmra_core::{Allocator, Dmra};
use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};
use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};
use dmra_sim::ScenarioConfig;

fn dyn_config(rate: f64, seed: u64, epochs: usize) -> DynamicConfig {
    DynamicConfig {
        scenario: ScenarioConfig::paper_defaults(),
        arrival_rate: rate,
        mean_holding: 5.0,
        holding: HoldingDistribution::Geometric,
        epochs,
        seed,
    }
}

fn mob_config(seed: u64, policy: MobilityPolicy, stationary: f64) -> MobilityConfig {
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
fn sharded_dynamic_matches_unsharded_for_every_allocator_and_shard_count() {
    type Factory = fn() -> Box<dyn Allocator>;
    let factories: Vec<(&str, Factory)> = vec![
        ("DMRA", || Box::new(Dmra::default())),
        ("NonCo", || Box::new(dmra_baselines::NonCo::default())),
        ("GreedyProfit", || {
            Box::new(dmra_baselines::GreedyProfit::default())
        }),
    ];
    for (name, factory) in factories {
        for &(rate, seed) in &[(30.0, 3u64), (120.0, 8)] {
            let sim = DynamicSimulator::with_allocator(dyn_config(rate, seed, 20), factory());
            let unsharded = sim.run().unwrap();
            for shards in [1usize, 2, 4, 9] {
                assert_eq!(
                    sim.run_sharded_n(shards).unwrap(),
                    unsharded,
                    "{name} diverged at {shards} shards, rate {rate}, seed {seed}"
                );
            }
        }
    }
}

#[test]
fn sharded_dynamic_matches_the_scratch_specification_on_explicit_grids() {
    // Not just the incremental engine: the sharded outcome equals the
    // exhaustive-scan executable specification too, for asymmetric and
    // square grids alike.
    let sim = DynamicSimulator::new(dyn_config(80.0, 5, 18));
    let scratch = sim.run_scratch().unwrap();
    for (rows, cols) in [(1, 1), (1, 2), (2, 2), (3, 3), (1, 9)] {
        assert_eq!(
            sim.run_sharded(rows, cols).unwrap(),
            scratch,
            "{rows}×{cols} grid diverged from the scratch engine"
        );
    }
}

#[test]
fn boundary_straddling_ues_at_saturating_load_stay_bit_identical() {
    // 3×3 shards over the paper's 1200 m region give 400 m cells against
    // a 300 m coverage radius: most arrivals' coverage discs cross a
    // seam, and saturating load makes any candidate-set difference
    // visible as an admission flip. Drained budgets also exercise the
    // per-BS stamp path hard.
    let sim = DynamicSimulator::new(dyn_config(400.0, 13, 12));
    let unsharded = sim.run().unwrap();
    assert_eq!(sim.run_sharded(3, 3).unwrap(), unsharded);
}

#[test]
fn sharded_dynamic_matches_for_every_holding_distribution() {
    for dist in [
        HoldingDistribution::Geometric,
        HoldingDistribution::Deterministic,
        HoldingDistribution::Exponential,
    ] {
        let mut cfg = dyn_config(40.0, 17, 15);
        cfg.holding = dist;
        let sim = DynamicSimulator::new(cfg);
        assert_eq!(
            sim.run_sharded_n(4).unwrap(),
            sim.run().unwrap(),
            "{dist} holding diverged under sharding"
        );
    }
}

#[test]
fn sharded_mobility_matches_for_every_policy_seed_and_stationary_fraction() {
    for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
        for &(seed, stationary) in &[(3u64, 0.0), (8, 0.5), (21, 0.9)] {
            let sim = MobilitySimulator::new(mob_config(seed, policy, stationary));
            let unsharded = sim.run().unwrap();
            for shards in [1usize, 2, 4, 9] {
                assert_eq!(
                    sim.run_sharded_n(shards).unwrap(),
                    unsharded,
                    "{policy:?} diverged at {shards} shards, seed {seed}, \
                     stationary {stationary}"
                );
            }
        }
    }
}

#[test]
fn seam_crossing_movers_hand_over_between_shards_without_diverging() {
    // Fast movers cross the 2×2 shard seams repeatedly (600 m cells,
    // up to 400 m per epoch), forcing shard handover epochs: a UE's row
    // is built by a different worker than last epoch. The sticky policy
    // keeps its serving BS through the residual path regardless.
    let mut cfg = mob_config(11, MobilityPolicy::Sticky, 0.0);
    cfg.speed_mps = (25.0, 40.0);
    cfg.epochs = 10;
    let sim = MobilitySimulator::new(cfg);
    let unsharded = sim.run().unwrap();
    let sharded = sim.run_sharded(2, 2).unwrap();
    assert_eq!(sharded, unsharded);
    // Movers this fast must actually hand over BSs sometimes — the test
    // would be vacuous on a population that never moves between cells.
    assert!(sharded.handovers > 0, "no handovers at 25–40 m/s");
}

#[test]
fn sharded_equality_is_unaffected_by_telemetry() {
    let sim = DynamicSimulator::new(dyn_config(60.0, 7, 15));
    let baseline = sim.run().unwrap();

    dmra_obs::set_enabled(true);
    let dyn_on = sim.run_sharded_n(4).unwrap();
    // The per-shard registries merged `online.shard_epoch_ns` into the
    // global registry at run end.
    let shard_ns = dmra_obs::global().histogram("online.shard_epoch_ns");
    assert!(shard_ns.count() > 0, "no shard epoch spans were recorded");

    let mob = MobilitySimulator::new(mob_config(3, MobilityPolicy::FullReallocation, 0.0));
    let handovers = dmra_obs::global().counter("sim.shard_handovers");
    let before = handovers.get();
    let mob_on = mob.run_sharded(2, 2).unwrap();
    assert!(
        handovers.get() > before,
        "moving UEs never changed shard owners"
    );
    dmra_obs::set_enabled(false);

    assert_eq!(dyn_on, baseline, "telemetry changed the sharded outcome");
    assert_eq!(dyn_on, sim.run_sharded_n(4).unwrap());
    assert_eq!(mob_on, mob.run().unwrap());
    assert_eq!(mob_on, mob.run_sharded(2, 2).unwrap());
}
