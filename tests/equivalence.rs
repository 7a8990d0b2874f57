//! Centralized ↔ decentralized equivalence and fault-tolerance guarantees
//! of the DMRA protocol, at paper scale.

use dmra::prelude::*;
use dmra::proto::DropPolicy;
use dmra_core::agents::{run_protocol, ProtocolOptions};
use dmra_core::DmraConfig;

#[test]
fn decentralized_equals_centralized_at_paper_scale() {
    for (n_ues, seed) in [(100usize, 1u64), (400, 2), (700, 3)] {
        let instance = ScenarioConfig::paper_defaults()
            .with_ues(n_ues)
            .with_seed(seed)
            .build()
            .unwrap();
        let config = DmraConfig::paper_defaults();
        let central = Dmra::new(config).allocate(&instance);
        let out = run_protocol(&instance, &config, ProtocolOptions::default()).unwrap();
        assert_eq!(
            out.allocation, central,
            "divergence at n_ues={n_ues} seed={seed}"
        );
        assert_eq!(out.conflicting_accepts, 0);
    }
}

#[test]
fn decentralized_equivalence_holds_across_configs() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(300)
        .with_iota(1.1)
        .with_random_placement()
        .with_seed(11)
        .build()
        .unwrap();
    for rho in [0.0, 50.0, 400.0] {
        for same_sp in [true, false] {
            let config = DmraConfig {
                rho,
                same_sp_preference: same_sp,
                ..DmraConfig::paper_defaults()
            };
            let central = Dmra::new(config).allocate(&instance);
            let out = run_protocol(&instance, &config, ProtocolOptions::default()).unwrap();
            assert_eq!(
                out.allocation, central,
                "divergence at rho={rho} same_sp={same_sp}"
            );
        }
    }
}

#[test]
fn protocol_message_counts_scale_sanely() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(200)
        .with_seed(5)
        .build()
        .unwrap();
    let config = DmraConfig::paper_defaults();
    let out = run_protocol(&instance, &config, ProtocolOptions::default()).unwrap();
    // One accept per edge-served UE.
    let served = out.allocation.edge_served() as u64;
    assert_eq!(out.stats.by_kind.get("accept"), Some(&served));
    // Each UE sends at least one service request (unless it has no
    // candidates at all) and the totals stay polynomial, not explosive.
    let requests = out.stats.by_kind["service-request"];
    assert!(requests >= served);
    assert!(
        requests <= (instance.n_ues() * instance.n_bss()) as u64,
        "requests {requests} exceed |U|·|B|"
    );
    // Quiescence happened well within the bound.
    assert!(out.stats.rounds < 200, "rounds = {}", out.stats.rounds);
}

#[test]
fn lossy_channels_never_violate_constraints() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(300)
        .with_seed(13)
        .build()
        .unwrap();
    let config = DmraConfig::paper_defaults();
    for drop_rate in [0.05, 0.15, 0.35] {
        for seed in 0..5u64 {
            let out = run_protocol(
                &instance,
                &config,
                ProtocolOptions {
                    drop_policy: DropPolicy::new(drop_rate, seed),
                    ..Default::default()
                },
            )
            .unwrap();
            out.allocation
                .validate(&instance)
                .unwrap_or_else(|e| panic!("drop={drop_rate} seed={seed}: {e}"));
        }
    }
}

#[test]
fn lossy_channels_recover_most_assignments() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(300)
        .with_seed(17)
        .build()
        .unwrap();
    let config = DmraConfig::paper_defaults();
    let reliable = run_protocol(&instance, &config, ProtocolOptions::default()).unwrap();
    let baseline = reliable.allocation.edge_served();
    let out = run_protocol(
        &instance,
        &config,
        ProtocolOptions {
            drop_policy: DropPolicy::new(0.10, 7),
            ..Default::default()
        },
    )
    .unwrap();
    let lossy = out.allocation.edge_served();
    assert!(
        lossy as f64 >= 0.9 * baseline as f64,
        "10% loss should cost <10% of assignments: {lossy} vs {baseline}"
    );
}

#[test]
fn delayed_channels_at_paper_scale_stay_safe_and_serve() {
    use dmra::proto::DelayModel;

    let instance = ScenarioConfig::paper_defaults()
        .with_ues(300)
        .with_seed(23)
        .build()
        .unwrap();
    let config = DmraConfig::paper_defaults();
    let reliable = run_protocol(&instance, &config, ProtocolOptions::default()).unwrap();
    for delay in [
        DelayModel::Fixed { extra: 2 },
        DelayModel::Random {
            max_extra: 3,
            seed: 5,
        },
    ] {
        let out = run_protocol(
            &instance,
            &config,
            ProtocolOptions {
                delay,
                max_rounds: 200_000,
                ..Default::default()
            },
        )
        .unwrap();
        out.allocation.validate(&instance).unwrap();
        // Latency slows convergence but must not destroy coverage.
        assert!(
            out.allocation.edge_served() as f64 >= 0.9 * reliable.allocation.edge_served() as f64,
            "served {} vs reliable {}",
            out.allocation.edge_served(),
            reliable.allocation.edge_served()
        );
        assert!(out.stats.rounds > reliable.stats.rounds);
    }
}

#[test]
fn crashed_bss_at_paper_scale_route_around() {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(300)
        .with_seed(31)
        .build()
        .unwrap();
    let config = DmraConfig::paper_defaults();
    let healthy = run_protocol(&instance, &config, ProtocolOptions::default())
        .unwrap()
        .allocation
        .edge_served();
    // Kill three of the 25 BSs before the first round.
    let dead = [BsId::new(3), BsId::new(12), BsId::new(20)];
    let out = run_protocol(
        &instance,
        &config,
        ProtocolOptions {
            crashed_bss: dead.iter().map(|&b| (b, 0)).collect(),
            ..ProtocolOptions::default()
        },
    )
    .unwrap();
    out.allocation.validate(&instance).unwrap();
    for (_, bs) in out.allocation.edge_pairs() {
        assert!(!dead.contains(&bs), "UE served by crashed {bs}");
    }
    // Losing 12% of the BSs costs capacity, not the protocol: the healthy
    // neighbours absorb most of the displaced load.
    assert!(
        out.allocation.edge_served() as f64 >= 0.8 * healthy as f64,
        "served {} vs healthy {healthy}",
        out.allocation.edge_served()
    );
}
