//! Cross-crate conformance: every allocator must produce valid,
//! deterministic allocations on every scenario family.

use dmra::prelude::*;
use dmra::sim::UePlacement;
use dmra_core::DmraConfig;

fn allocators() -> Vec<Box<dyn Allocator>> {
    vec![
        Box::new(Dmra::default()),
        Box::new(Dmra::new(DmraConfig::paper_defaults().with_rho(0.0))),
        Box::new(Dmra::new(DmraConfig {
            same_sp_preference: false,
            ..DmraConfig::paper_defaults()
        })),
        Box::new(Dcsp::default()),
        Box::new(NonCo::default()),
        Box::new(GreedyProfit::default()),
        Box::new(RandomAllocator::new(3)),
        Box::new(CloudOnly::default()),
    ]
}

fn scenario_grid() -> Vec<ScenarioConfig> {
    let mut configs = Vec::new();
    for iota in [1.1, 2.0] {
        for random_placement in [false, true] {
            for n_ues in [50usize, 300] {
                let mut cfg = ScenarioConfig::paper_defaults()
                    .with_iota(iota)
                    .with_ues(n_ues);
                if random_placement {
                    cfg = cfg.with_random_placement();
                }
                configs.push(cfg);
            }
        }
    }
    configs.push(
        ScenarioConfig::paper_defaults()
            .with_ues(200)
            .with_ue_placement(UePlacement::Hotspots {
                n_hotspots: 3,
                spread: Meters::new(100.0),
                fraction: 0.8,
            }),
    );
    // Partial service hosting (S_i ⊂ S) exercises constraint (13).
    configs.push(
        ScenarioConfig::paper_defaults()
            .with_ues(250)
            .with_services_per_bs(3),
    );
    configs
}

/// Every grid allocation's [`Allocation::digest`], folded per entry of
/// [`allocators`] in grid order: pins the exact decisions of every
/// allocator, not just their feasibility.
const DECISION_DIGESTS: [u64; 8] = [
    0xdf1d_b82b_94d9_e8a4, // DMRA
    0xc3a7_598b_37c2_c81c, // DMRA, ρ = 0
    0x9063_bbfa_e077_7cff, // DMRA without the same-SP preference
    0xcfdb_dd71_7650_cc05, // DCSP
    0x3598_a919_8ef0_62f6, // NonCo
    0xa613_bfb1_027c_5560, // GreedyProfit
    0xdfb2_c106_4048_93d3, // Random
    0xfe7e_5707_9344_c0b0, // CloudOnly
];

#[test]
fn every_allocator_satisfies_tpm_constraints_on_every_scenario() {
    let mut folds = [0u64; 8];
    for (c_idx, config) in scenario_grid().into_iter().enumerate() {
        for seed in [1u64, 99] {
            let instance = config
                .clone()
                .with_seed(seed)
                .build()
                .unwrap_or_else(|e| panic!("scenario {c_idx} seed {seed}: {e}"));
            for (fold, algo) in folds.iter_mut().zip(allocators()) {
                let allocation = algo.allocate(&instance);
                allocation.validate(&instance).unwrap_or_else(|e| {
                    panic!("{} on scenario {c_idx} seed {seed}: {e}", algo.name())
                });
                assert_eq!(allocation.len(), instance.n_ues());
                *fold = (*fold ^ allocation.digest()).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
        }
    }
    for ((fold, pinned), algo) in folds.iter().zip(DECISION_DIGESTS).zip(allocators()) {
        assert_eq!(
            *fold,
            pinned,
            "{} changed a decision: folded digest {fold:#018x}",
            algo.name()
        );
    }
}

#[test]
fn every_allocator_is_deterministic() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(250)
        .with_seed(5)
        .build()
        .unwrap();
    for algo in allocators() {
        let a = algo.allocate(&instance);
        let b = algo.allocate(&instance);
        assert_eq!(a, b, "{} must be deterministic", algo.name());
    }
}

#[test]
fn profit_is_never_negative_under_constraint_16() {
    // Constraint (16) guarantees every edge assignment is profitable, so
    // no allocation can produce negative total profit.
    for seed in 0..5u64 {
        let instance = ScenarioConfig::paper_defaults()
            .with_ues(150)
            .with_seed(seed)
            .build()
            .unwrap();
        for algo in allocators() {
            let allocation = algo.allocate(&instance);
            let profit = instance.total_profit(&allocation);
            assert!(
                profit.get() >= 0.0,
                "{} produced negative profit {profit}",
                algo.name()
            );
        }
    }
}

#[test]
fn per_sp_profits_sum_to_total() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(300)
        .with_seed(8)
        .build()
        .unwrap();
    let allocation = Dmra::default().allocate(&instance);
    let report = instance.profit_report(&allocation);
    let sum: f64 = report.per_sp.iter().map(|p| p.profit().get()).sum();
    assert!((sum - report.total_profit().get()).abs() < 1e-6);
    assert_eq!(
        report.total_edge_served() + report.total_cloud_forwarded(),
        instance.n_ues() as u64
    );
}

#[test]
fn remaining_resources_never_underflow() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(700)
        .with_seed(4)
        .build()
        .unwrap();
    for algo in allocators() {
        let allocation = algo.allocate(&instance);
        // remaining_* saturate at zero only if over-allocated; validate()
        // already rejects that, so these must be exact non-negative counts.
        let rem_rrb = instance.remaining_rrbs(&allocation);
        assert_eq!(rem_rrb.len(), instance.n_bss());
        let rem_cru = instance.remaining_cru(&allocation);
        for (bs, rems) in rem_cru.iter().enumerate() {
            for (svc, rem) in rems.iter().enumerate() {
                let cap = instance.bss()[bs].cru_budget[svc];
                assert!(*rem <= cap, "{}: remaining exceeds capacity", algo.name());
            }
        }
    }
}

#[test]
fn cloud_only_is_the_profit_floor_and_greedy_is_a_strong_reference() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(400)
        .with_seed(21)
        .build()
        .unwrap();
    let greedy = instance.total_profit(&GreedyProfit::default().allocate(&instance));
    for algo in allocators() {
        let profit = instance.total_profit(&algo.allocate(&instance));
        assert!(profit.get() >= 0.0);
        // Nothing should beat the centralized density greedy by a lot.
        assert!(
            profit.get() <= greedy.get() * 1.10 + 1e-9,
            "{} ({profit}) implausibly beats greedy ({greedy})",
            algo.name()
        );
    }
}
