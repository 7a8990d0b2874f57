//! Candidate-graph decomposition, and the dense solver on the sparse,
//! multi-component scenarios it describes.
//!
//! `decompose` partitions each instance into connected components of the
//! candidate-link bipartite graph (DESIGN.md §14). These tests pin the
//! structural invariants of the partition (exact cover, no crossing
//! links, dense instances collapse to one component) and check the dense
//! solver against the line-by-line reference on random scenarios, most of
//! which split into several components.

use dmra::prelude::*;
use dmra::sim::BsPlacement;
use dmra_core::decompose;
use proptest::prelude::*;

/// Small but structurally diverse scenarios (mirrors tests/properties.rs);
/// sparse placements with few BSs per SP routinely produce multi-component
/// instances, dense grids produce one.
fn arb_scenario() -> impl Strategy<Value = ScenarioConfig> {
    (
        1u32..4,         // n_sps
        1u32..4,         // bss_per_sp
        1u32..5,         // n_services
        1usize..120,     // n_ues
        prop::bool::ANY, // random placement
        1.05f64..2.2,    // iota (constraint (16) headroom, see properties.rs)
        0u64..1000,      // seed
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

    /// The components plus the cloud-only set are an exact partition of
    /// the UE index space: every UE appears exactly once.
    #[test]
    fn prop_components_exactly_partition_the_ue_set(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let d = decompose(&instance);
        let mut seen: Vec<u32> = d.cloud_only.clone();
        for c in &d.components {
            prop_assert!(!c.ues.is_empty(), "empty component emitted");
            prop_assert!(!c.bss.is_empty(), "component without BSs");
            prop_assert!(c.ues.windows(2).all(|w| w[0] < w[1]), "UE list not ascending");
            prop_assert!(c.bss.windows(2).all(|w| w[0] < w[1]), "BS list not ascending");
            seen.extend_from_slice(&c.ues);
        }
        seen.sort_unstable();
        let expected: Vec<u32> = (0..instance.n_ues() as u32).collect();
        prop_assert_eq!(seen, expected, "partition is not an exact cover");
        prop_assert_eq!(d.n_ues(), instance.n_ues());
    }

    /// No candidate link crosses a component boundary: each UE's entire
    /// candidate row lies inside its own component, and cloud-only UEs
    /// have genuinely empty rows. This is the soundness condition that
    /// makes the components' matchings independent.
    #[test]
    fn prop_no_candidate_link_crosses_components(cfg in arb_scenario()) {
        let instance = cfg.build().unwrap();
        let d = decompose(&instance);
        for u in &d.cloud_only {
            prop_assert!(instance.candidates(UeId::new(*u)).is_empty());
        }
        for c in &d.components {
            for u in &c.ues {
                let row = instance.candidates(UeId::new(*u));
                prop_assert!(!row.is_empty(), "component UE with empty row");
                for link in row {
                    prop_assert!(
                        c.bss.binary_search(&(link.bs.as_usize() as u32)).is_ok(),
                        "UE {u} links to BS {} outside its component", link.bs
                    );
                }
            }
        }
    }

    /// Outcome equality on random scenarios: the dense solver returns
    /// the exact same `DmraOutcome` — allocation, iteration count, and
    /// every convergence trajectory — as the line-by-line reference. `ρ`
    /// and the CRU budgets are drawn too; budgets reach past the dense
    /// solver's `ρ / d` table (4 096 entries), where it divides directly.
    #[test]
    fn prop_dense_solve_equals_reference_on_random_scenarios(
        base in arb_scenario(),
        rho in 0.0f64..5000.0,
        cru_lo in 1u32..6000,
        cru_span in 0u32..6000,
    ) {
        let mut cfg = base;
        cfg.cru_budget_range = (cru_lo, cru_lo + cru_span);
        let instance = cfg.build().unwrap();
        let dmra = Dmra::new(DmraConfig::paper_defaults().with_rho(rho));
        let fast = dmra.solve(&instance).unwrap();
        let reference = dmra.solve_reference(&instance).unwrap();
        prop_assert_eq!(fast, reference);
    }
}

/// A dense instance — the paper's default scenario, where every UE's
/// coverage disc bridges adjacent grid BSs — collapses to one component.
#[test]
fn fully_connected_instance_degrades_to_one_component() {
    let instance = ScenarioConfig::paper_defaults().build().unwrap();
    let d = decompose(&instance);
    assert_eq!(
        d.components.len(),
        1,
        "paper grid should be fully connected"
    );
    assert!(d.cloud_only.is_empty());
    assert_eq!(d.components[0].ues.len(), instance.n_ues());
}
