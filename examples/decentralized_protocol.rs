//! Run DMRA as a genuinely decentralized protocol: UE and BS agents
//! exchanging service requests, accepts and resource broadcasts over the
//! round engine — including what happens on a lossy control channel.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example decentralized_protocol
//! ```

use dmra::prelude::*;
use dmra::proto::DropPolicy;
use dmra_core::agents::{run_protocol, ProtocolOptions};
use dmra_core::DmraConfig;

fn main() -> Result<(), dmra::types::Error> {
    let instance = ScenarioConfig::paper_defaults()
        .with_ues(400)
        .with_seed(7)
        .build()?;
    let config = DmraConfig::paper_defaults();

    // Reference: the centralized-state execution of Algorithm 1.
    let central = Dmra::new(config).allocate(&instance);
    let central_profit = instance.total_profit(&central);

    // The same algorithm as message-passing agents, reliable channel.
    let out = run_protocol(&instance, &config, ProtocolOptions::default())?;
    assert_eq!(
        out.allocation, central,
        "reliable decentralized execution is bit-identical to the matcher"
    );
    println!("reliable channel:");
    println!("  rounds:            {}", out.stats.rounds);
    println!("  messages:          {}", out.stats.messages_sent);
    for (kind, count) in &out.stats.by_kind {
        println!("    {kind:<18} {count}");
    }
    println!(
        "  profit:            {:.1} (centralized: {:.1})",
        instance.total_profit(&out.allocation).get(),
        central_profit.get()
    );

    // Lossy control channel: the protocol stays safe and mostly live.
    println!("\nlossy channels (same instance):");
    println!(
        "{:>10} {:>8} {:>10} {:>9} {:>8} {:>10}",
        "drop rate", "rounds", "messages", "dropped", "served", "profit"
    );
    for drop_pct in [5u32, 10, 20, 30] {
        let out = run_protocol(
            &instance,
            &config,
            ProtocolOptions {
                drop_policy: DropPolicy::new(f64::from(drop_pct) / 100.0, 1234),
                ..Default::default()
            },
        )?;
        out.allocation
            .validate(&instance)
            .expect("lossy runs never violate resource constraints");
        println!(
            "{:>9}% {:>8} {:>10} {:>9} {:>8} {:>10.1}",
            drop_pct,
            out.stats.rounds,
            out.stats.messages_sent,
            out.stats.messages_dropped,
            out.allocation.edge_served(),
            instance.total_profit(&out.allocation).get()
        );
    }
    println!("\n(served count under loss trails the reliable run; every");
    println!(" allocation above still satisfies all TPM constraints)");

    // Fail-stop crashes: kill BSs before round 0; UEs time out, presume
    // them dead after three retries, and fail over.
    println!("\nfail-stop crashes (reliable channel):");
    println!(
        "{:>12} {:>8} {:>8} {:>10}",
        "crashed BSs", "rounds", "served", "profit"
    );
    for n_dead in [0usize, 2, 5, 8] {
        let crashed: Vec<(BsId, usize)> = (0..n_dead as u32)
            .map(|i| (BsId::new(i * 3), 0)) // spread the dead BSs around
            .collect();
        let out = run_protocol(
            &instance,
            &config,
            ProtocolOptions {
                crashed_bss: crashed.clone(),
                ..ProtocolOptions::default()
            },
        )?;
        out.allocation.validate(&instance)?;
        assert!(out
            .allocation
            .edge_pairs()
            .all(|(_, bs)| !crashed.iter().any(|&(dead, _)| dead == bs)));
        println!(
            "{:>12} {:>8} {:>8} {:>10.1}",
            n_dead,
            out.stats.rounds,
            out.allocation.edge_served(),
            instance.total_profit(&out.allocation).get()
        );
    }
    println!("\n(no UE is ever served by a dead BS; the healthy neighbours");
    println!(" absorb the displaced load)");
    Ok(())
}
