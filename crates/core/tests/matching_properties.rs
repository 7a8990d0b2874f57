//! Property-based tests of the matching core on randomized, hand-built
//! instances — independent of `dmra-sim`'s scenario generator, so bugs in
//! the generator cannot mask bugs in the matcher (and vice versa).

use dmra_core::{Allocator, CoverageModel, Dmra, DmraConfig, ProblemInstance};
use dmra_econ::PricingConfig;
use dmra_radio::RadioConfig;
use dmra_types::*;
use proptest::prelude::*;

/// Strategy: a small instance with arbitrary topology and demands.
fn arb_instance() -> impl Strategy<Value = ProblemInstance> {
    let bs = (
        0.0f64..1000.0,
        0.0f64..1000.0,
        1u32..3,
        50u32..150,
        5u32..55,
    );
    let ue = (
        0.0f64..1000.0,
        0.0f64..1000.0,
        0u32..3, // sp
        0u32..2, // service
        1u32..8, // cru demand
        0.5f64..8.0,
    );
    (
        proptest::collection::vec(bs, 1..6),
        proptest::collection::vec(ue, 0..25),
    )
        .prop_map(|(bss_raw, ues_raw)| {
            let sps: Vec<SpSpec> = (0..3)
                .map(|k| SpSpec::new(SpId::new(k), Money::new(9.0), Money::new(1.0)))
                .collect();
            let catalog = ServiceCatalog::new(2);
            let bss: Vec<BsSpec> = bss_raw
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, sp, cru, rrb))| {
                    BsSpec::new(
                        BsId::new(i as u32),
                        SpId::new(sp % 3),
                        Point::new(x, y),
                        vec![Cru::new(cru), Cru::new(cru / 2)],
                        Hertz::from_mhz(10.0),
                        RrbCount::new(rrb),
                    )
                })
                .collect();
            let ues: Vec<UeSpec> = ues_raw
                .into_iter()
                .enumerate()
                .map(|(u, (x, y, sp, svc, cru, mbps))| {
                    UeSpec::new(
                        UeId::new(u as u32),
                        SpId::new(sp),
                        Point::new(x, y),
                        ServiceId::new(svc),
                        Cru::new(cru),
                        BitsPerSec::from_mbps(mbps),
                        Dbm::new(10.0),
                    )
                })
                .collect();
            ProblemInstance::build(
                sps,
                bss,
                ues,
                catalog,
                PricingConfig::paper_defaults(),
                RadioConfig::paper_defaults(),
                CoverageModel::FixedRadius(Meters::new(400.0)),
            )
            .expect("constants satisfy constraint (16) within 400 m")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every DMRA run satisfies all TPM constraints and its diagnostics
    /// are internally consistent.
    #[test]
    fn prop_dmra_output_is_always_valid(inst in arb_instance()) {
        let out = Dmra::default().solve(&inst).unwrap();
        prop_assert!(out.allocation.validate(&inst).is_ok());
        prop_assert!(out.iterations <= inst.n_ues() + 1);
        let accepted: usize = out.acceptances.iter().sum();
        prop_assert_eq!(accepted, out.allocation.edge_served());
        prop_assert!(out.proposals >= accepted as u64);
    }

    /// Served + cloud partitions the UE population exactly.
    #[test]
    fn prop_allocation_partitions_population(inst in arb_instance()) {
        let alloc = Dmra::default().allocate(&inst);
        let served = alloc.edge_pairs().count();
        let cloud = alloc.cloud_ues().count();
        prop_assert_eq!(served + cloud, inst.n_ues());
        prop_assert_eq!(served, alloc.edge_served());
    }

    /// Non-wastefulness on arbitrary topologies: no cloud UE has a
    /// candidate BS with enough leftover resources.
    #[test]
    fn prop_no_stranded_ues(inst in arb_instance()) {
        let alloc = Dmra::default().allocate(&inst);
        let rem = inst.remaining(&alloc).unwrap();
        for ue in alloc.cloud_ues() {
            let spec = &inst.ues()[ue.as_usize()];
            for link in inst.candidates(ue) {
                let fits = rem.fits(link.bs, spec.service, spec.cru_demand, link.n_rrbs);
                prop_assert!(!fits, "{ue} stranded while {} fits it", link.bs);
            }
        }
    }

    /// Monotonicity: adding radio capacity never reduces the number of
    /// served UEs (build the same instance with doubled RRB budgets).
    /// Deferred-acceptance heuristics carry no formal monotonicity
    /// guarantee, but DMRA's prune-on-incapacity structure makes capacity
    /// strictly helpful in practice; a single-UE tolerance keeps the test
    /// robust against a yet-unseen pathological topology.
    #[test]
    fn prop_more_radio_never_serves_fewer(inst in arb_instance()) {
        let served_before = Dmra::default().allocate(&inst).edge_served();
        let doubled_bss: Vec<BsSpec> = inst
            .bss()
            .iter()
            .map(|b| {
                let mut spec = b.clone();
                spec.rrb_budget = RrbCount::new(b.rrb_budget.get() * 2);
                spec
            })
            .collect();
        let bigger = ProblemInstance::build(
            inst.sps().to_vec(),
            doubled_bss,
            inst.ues().to_vec(),
            inst.catalog(),
            *inst.pricing(),
            *inst.radio(),
            inst.coverage(),
        )
        .unwrap();
        let served_after = Dmra::default().allocate(&bigger).edge_served();
        prop_assert!(
            served_after + 1 >= served_before,
            "doubling RRBs dropped served from {served_before} to {served_after}"
        );
    }

    /// The ρ = 0 envy-freeness theorem holds on arbitrary topologies, not
    /// just the paper scenario.
    #[test]
    fn prop_rho_zero_envy_free_everywhere(inst in arb_instance()) {
        let dmra = Dmra::new(DmraConfig::paper_defaults().with_rho(0.0));
        let alloc = dmra.allocate(&inst);
        let pairs = dmra_core::analysis::price_envy_pairs(&inst, &alloc);
        prop_assert!(pairs.is_empty(), "{} envy pairs", pairs.len());
    }

    /// An empty UE population yields the empty allocation and zero profit.
    #[test]
    fn prop_empty_population_is_trivial(inst in arb_instance()) {
        let empty = ProblemInstance::build(
            inst.sps().to_vec(),
            inst.bss().to_vec(),
            Vec::new(),
            inst.catalog(),
            *inst.pricing(),
            *inst.radio(),
            inst.coverage(),
        )
        .unwrap();
        let out = Dmra::default().solve(&empty).unwrap();
        prop_assert_eq!(out.allocation.len(), 0);
        prop_assert_eq!(out.iterations, 1);
        prop_assert_eq!(empty.total_profit(&out.allocation).get(), 0.0);
    }
}
