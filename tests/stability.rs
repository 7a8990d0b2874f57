//! Matching-stability guarantees of DMRA at paper scale.
//!
//! See `dmra_core::analysis` for the definitions. The headline result:
//! with `ρ = 0` (pure price preference, which is static) DMRA's
//! prune-on-incapacity loop yields a **price-envy-free** matching — no UE
//! can point at a strictly cheaper candidate BS that still has room for
//! it. With `ρ > 0` preferences drift as resources drain, and a small
//! number of envy pairs can appear.

use dmra::core::analysis::{envy_pairs_by, eq17_envy_pairs, price_envy_pairs};
use dmra::prelude::*;
use dmra_core::agents::{run_protocol, ProtocolOptions};
use dmra_core::DmraConfig;

#[test]
fn rho_zero_dmra_is_price_envy_free_at_paper_scale() {
    for (n_ues, seed) in [(300usize, 1u64), (600, 2), (900, 3)] {
        let instance = ScenarioConfig::paper_defaults()
            .with_ues(n_ues)
            .with_seed(seed)
            .build()
            .unwrap();
        let dmra = Dmra::new(DmraConfig::paper_defaults().with_rho(0.0));
        let allocation = dmra.allocate(&instance);
        let pairs = price_envy_pairs(&instance, &allocation);
        assert!(
            pairs.is_empty(),
            "n_ues={n_ues} seed={seed}: {} price-envy pairs, first: {:?}",
            pairs.len(),
            pairs.first()
        );
    }
}

#[test]
fn rho_zero_envy_freeness_also_holds_under_random_placement_and_iota() {
    for iota in [1.1, 2.0] {
        let instance = ScenarioConfig::paper_defaults()
            .with_ues(500)
            .with_iota(iota)
            .with_random_placement()
            .with_seed(9)
            .build()
            .unwrap();
        let dmra = Dmra::new(DmraConfig::paper_defaults().with_rho(0.0));
        let allocation = dmra.allocate(&instance);
        assert!(price_envy_pairs(&instance, &allocation).is_empty());
    }
}

#[test]
fn decentralized_rho_zero_inherits_envy_freeness() {
    // The agent execution is bit-identical to the matcher under reliable
    // delivery, so the stability property carries over; assert it
    // directly on the protocol output.
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(400)
        .with_seed(4)
        .build()
        .unwrap();
    let config = DmraConfig::paper_defaults().with_rho(0.0);
    let out = run_protocol(&instance, &config, ProtocolOptions::default()).unwrap();
    assert!(price_envy_pairs(&instance, &out.allocation).is_empty());
}

#[test]
fn positive_rho_envy_is_bounded() {
    // With ρ > 0 the preference drifts; envy can appear but should stay a
    // small fraction of the population — DMRA still converges to a
    // near-stable matching.
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(800)
        .with_seed(5)
        .build()
        .unwrap();
    let allocation = Dmra::default().allocate(&instance); // ρ = 100
    let envious: std::collections::HashSet<_> = eq17_envy_pairs(&instance, &allocation, 100.0)
        .into_iter()
        .map(|p| p.ue)
        .collect();
    let frac = envious.len() as f64 / instance.n_ues() as f64;
    // The exact fraction is seed-sensitive (25.0% on the vendored RNG
    // stream, a touch lower on upstream StdRng); the property being
    // guarded is only that envy stays a bounded minority of the
    // population, so the threshold leaves headroom over both streams.
    assert!(
        frac < 0.35,
        "{:.1}% of UEs envious at rho=100 — matching far from stable",
        frac * 100.0
    );
}

#[test]
fn baselines_are_not_price_envy_free() {
    // The property is specific to price-preference deferred acceptance:
    // NonCo (max-SINR) routinely leaves UEs on pricier BSs while cheaper
    // candidates have room. This guards against the stability test being
    // vacuously true.
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(600)
        .with_seed(6)
        .build()
        .unwrap();
    let allocation = NonCo::default().allocate(&instance);
    let pairs = price_envy_pairs(&instance, &allocation);
    assert!(
        !pairs.is_empty(),
        "NonCo unexpectedly produced a price-envy-free matching"
    );
}

#[test]
fn custom_preference_scores_are_respected() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(200)
        .with_seed(7)
        .build()
        .unwrap();
    let allocation = Dmra::default().allocate(&instance);
    // Under a constant score nothing is strictly preferred, so there can
    // be no envy whatsoever.
    let pairs = envy_pairs_by(&instance, &allocation, |_, _| 1.0);
    assert!(pairs.is_empty());
}
