//! Regenerates the data behind every figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p dmra-bench --bin figures -- all
//! cargo run --release -p dmra-bench --bin figures -- fig2 fig7
//! cargo run --release -p dmra-bench --bin figures -- --quick ablations
//! cargo run --release -p dmra-bench --bin figures -- bench
//! ```
//!
//! CSVs are written to `results/<name>.csv`; markdown tables, sparklines
//! and progress all go through the `dmra-obs` logging facade on stderr
//! (`--quiet` silences them, `--verbose`/`-v` adds debug detail), so the
//! machine-readable artefacts are the files, not the terminal stream.
//! The `bench` job instead times the sweep engine (serial vs threaded,
//! asserting bit-identical tables), the instance builder, the dense
//! DMRA solver against its reference, and the incremental online engine
//! against the scratch rebuild loop, writing `BENCH_sweep.json` and
//! `BENCH_dynamic.json`, and ends with an instrumented per-phase
//! breakdown. The `obs_overhead` job measures the telemetry-enabled vs -disabled
//! dynamic simulation and writes `BENCH_obs_overhead.json`, failing when
//! the overhead exceeds its bound.

use dmra_baselines::{Dcsp, NonCo};
use dmra_bench::bench_instance;
use dmra_core::{Allocator, DeploymentContext, Dmra, Threads};
use dmra_obs::{obs_error, obs_info, Level};
use dmra_sim::dynamic::{
    DynamicConfig, DynamicSimulator, HoldingDistribution, ProtoDelay, ProtoFaults,
};
use dmra_sim::experiments::{self, ExperimentOptions};
use dmra_sim::{ScenarioConfig, SweepRunner, Table};
use dmra_types::{BsId, Cru, RrbCount};
use std::fs;
use std::path::Path;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--quiet") {
        dmra_obs::set_level(Level::Warn);
    } else if args.iter().any(|a| a == "--verbose" || a == "-v") {
        dmra_obs::set_level(Level::Debug);
    }
    let opts = if quick {
        ExperimentOptions::quick()
    } else {
        ExperimentOptions::paper()
    };
    let mut requested: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(String::as_str)
        .collect();
    if requested.is_empty() {
        requested.push("all");
    }

    let mut jobs: Vec<&str> = Vec::new();
    for r in requested {
        match r {
            "all" => jobs.extend(["fig2", "fig3", "fig4", "fig5", "fig6", "fig7"]),
            "ablations" => jobs.extend([
                "ablation_same_sp",
                "ablation_interference",
                "decentralized_cost",
                "iota_sweep",
                "online_comparison",
            ]),
            other => jobs.push(other),
        }
    }
    jobs.dedup();

    fs::create_dir_all("results").expect("can create results/ directory");
    for job in jobs {
        if job == "bench" {
            bench_mode();
            continue;
        }
        if job == "bench_linkbatch" {
            bench_linkbatch_mode();
            continue;
        }
        if job == "bench_proto" {
            bench_proto_mode();
            continue;
        }
        if job == "obs_overhead" {
            obs_overhead_mode();
            continue;
        }
        let table = run_job(job, &opts);
        match table {
            Ok(table) => emit(job, &table),
            Err(msg) => {
                obs_error!("{msg}");
                std::process::exit(1);
            }
        }
    }
}

/// Times a closure, returning its value and the elapsed seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

/// The best (minimum) of `n` timed runs, in seconds.
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..n)
        .map(|_| timed(&mut f).1)
        .fold(f64::INFINITY, f64::min)
}

/// CPU time (user + system) consumed by this process, in clock ticks,
/// read from `/proc/self/stat`. Returns `None` off Linux; callers fall
/// back to wall-clock timing. Unlike the wall clock, CPU time does not
/// charge scheduler preemption to whichever side happened to be running,
/// which matters on shared hosts.
fn cpu_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field may itself contain spaces; fields resume after the
    // final ')'. The remainder starts at field 3 (state), so utime
    // (field 14) and stime (field 15) sit at indices 11 and 12.
    let rest = stat.rsplit(')').next()?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Measures the parallel execution layer end to end and writes
/// `BENCH_sweep.json` next to the workspace root.
///
/// The sweep section also *verifies* determinism: every threaded table is
/// compared `==` against the serial one and the run aborts on mismatch.
fn bench_mode() {
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    obs_info!("bench: {available} hardware thread(s) available");

    // -- Sweep engine: serial vs threaded on a Fig. 2-shaped workload. --
    let ue_counts = [300usize, 600, 900];
    let points: Vec<(f64, ScenarioConfig)> = ue_counts
        .iter()
        .map(|&n| (n as f64, ScenarioConfig::paper_defaults().with_ues(n)))
        .collect();
    let dmra = Dmra::default();
    let dcsp = Dcsp::default();
    let nonco = NonCo::default();
    let algos: Vec<&dyn Allocator> = vec![&dmra, &dcsp, &nonco];
    let replications = 3u32;
    let runner = SweepRunner::new(replications, 42);
    let run_with = |threads: Threads| -> (Table, f64) {
        timed(|| {
            runner
                .with_threads(threads)
                .run_profit("bench", "#UEs", &points, &algos)
                .expect("bench sweep builds")
        })
    };
    let (serial_table, serial_secs) = run_with(Threads::serial());
    obs_info!("sweep serial: {serial_secs:.3} s");
    let mut sweep_rows = String::new();
    for threads in [2usize, 4] {
        let (table, secs) = run_with(Threads::Fixed(threads));
        assert_eq!(
            table, serial_table,
            "threaded sweep diverged from serial at {threads} threads"
        );
        obs_info!("sweep {threads} threads: {secs:.3} s (table identical)");
        if !sweep_rows.is_empty() {
            sweep_rows.push_str(",\n");
        }
        sweep_rows.push_str(&format!(
            "      {{ \"threads\": {threads}, \"secs\": {secs:.4}, \"identical_to_serial\": true }}"
        ));
    }

    // -- Instance build: serial vs threaded at 900 and 2000 UEs. --
    let mut build_rows = String::new();
    for n_ues in [900usize, 2000] {
        let serial = best_of(3, || {
            dmra_bench::bench_instance_with_threads(n_ues, 7, Threads::serial())
        });
        let auto = best_of(3, || {
            dmra_bench::bench_instance_with_threads(n_ues, 7, Threads::Auto)
        });
        obs_info!("build {n_ues} UEs: serial {serial:.4} s, auto {auto:.4} s");
        if !build_rows.is_empty() {
            build_rows.push_str(",\n");
        }
        build_rows.push_str(&format!(
            "      {{ \"n_ues\": {n_ues}, \"serial_secs\": {serial:.4}, \"auto_secs\": {auto:.4} }}"
        ));
    }

    // -- Dense solver vs the line-by-line reference. --
    let mut solve_rows = String::new();
    for n_ues in [900usize, 2000] {
        let instance = bench_instance(n_ues, 7);
        let dense = best_of(5, || dmra.solve(&instance).expect("solves"));
        let reference = best_of(5, || dmra.solve_reference(&instance).expect("solves"));
        let speedup = reference / dense;
        obs_info!(
            "solve {n_ues} UEs: dense {dense:.4} s, reference {reference:.4} s \
             ({speedup:.1}x)"
        );
        if !solve_rows.is_empty() {
            solve_rows.push_str(",\n");
        }
        solve_rows.push_str(&format!(
            "      {{ \"n_ues\": {n_ues}, \"dense_secs\": {dense:.4}, \
             \"reference_secs\": {reference:.4}, \"speedup\": {speedup:.2} }}"
        ));
    }

    // -- Row cache under single-BS budget churn (per-BS stamps). --
    let (cache_hits, cache_misses, cache_hit_rate) = row_cache_churn();

    let json = format!(
        "{{\n  \"hardware_threads\": {available},\n  \"sweep\": {{\n    \
         \"title\": \"profit sweep, {} points x {replications} replications x {} algorithms\",\n    \
         \"ue_counts\": {ue_counts:?},\n    \"serial_secs\": {serial_secs:.4},\n    \
         \"threaded\": [\n{sweep_rows}\n    ]\n  }},\n  \"instance_build\": {{\n    \
         \"runs\": [\n{build_rows}\n    ]\n  }},\n  \"dmra_solve\": {{\n    \
         \"runs\": [\n{solve_rows}\n    ]\n  }},\n  \"row_cache_churn\": {{\n    \
         \"n_ues\": 2000, \"epochs\": 40, \"churned_bss_per_epoch\": 1,\n    \
         \"hits\": {cache_hits}, \"misses\": {cache_misses}, \
         \"hit_rate\": {cache_hit_rate:.4}\n  }}\n}}\n",
        points.len(),
        algos.len(),
    );
    fs::write("BENCH_sweep.json", &json).expect("can write BENCH_sweep.json");
    obs_info!("wrote BENCH_sweep.json");

    bench_dynamic();
    per_phase_breakdown();
}

/// Measures the cross-epoch row cache on a stationary population whose
/// remaining budgets change at exactly one BS per epoch.
///
/// This is the regime the per-BS budget stamps exist for: a single
/// global budget stamp would flush the whole cache on every epoch (0%
/// hits after warm-up), while per-BS stamps re-price only the rows whose
/// consulted-BS sets touch the churned site — every other row is served
/// from cache. Returns `(hits, misses, hit_rate)` for `BENCH_sweep.json`.
fn row_cache_churn() -> (u64, u64, f64) {
    let deployment = ScenarioConfig::paper_defaults()
        .with_ues(2000)
        .with_seed(7)
        .build()
        .expect("paper deployment builds");
    let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
    let mut cru: Vec<Vec<Cru>> = deployment
        .bss()
        .iter()
        .map(|b| b.cru_budget.clone())
        .collect();
    let full_rrb: Vec<RrbCount> = deployment.bss().iter().map(|b| b.rrb_budget).collect();
    let ues = deployment.ues().to_vec();
    let epochs = 40usize;
    for epoch in 0..epochs {
        // Drain one CRU from a cycling BS: each epoch exactly one BS's
        // budget differs from the stamps taken last epoch. Budgets start
        // at 100–150 and the cycle visits each BS at most twice, so the
        // drain never saturates into a no-op.
        let bs = epoch % cru.len();
        cru[bs][0] = cru[bs][0].saturating_sub(Cru::new(1));
        ctx.epoch_instance(&cru, &full_rrb, ues.clone())
            .expect("churn epoch builds");
    }
    let (hits, misses) = ctx.row_cache_stats().expect("row cache is enabled");
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    obs_info!(
        "row cache, single-BS budget churn (2000 stationary UEs, {epochs} epochs): \
         {hits} hits, {misses} misses ({:.1}% hit rate; a global budget \
         stamp would miss every row after each churn)",
        hit_rate * 100.0
    );
    (hits, misses, hit_rate)
}

/// Runs one instrumented dynamic simulation and prints the telemetry
/// report, so `bench` ends with a per-phase breakdown — epoch wall time
/// vs instance build vs the allocator solve, the latter split out as its
/// own `sim.solve_ns` histogram by every engine — instead of a single
/// end-to-end number.
fn per_phase_breakdown() {
    dmra_obs::global().reset();
    dmra_obs::global_trace().clear();
    dmra_obs::set_enabled(true);
    let sim = DynamicSimulator::new(DynamicConfig {
        scenario: ScenarioConfig::paper_defaults(),
        arrival_rate: 120.0,
        mean_holding: 5.0,
        holding: HoldingDistribution::Geometric,
        epochs: 100,
        seed: 11,
    });
    sim.run().expect("instrumented dynamic run");
    dmra_obs::set_enabled(false);
    obs_info!(
        "per-phase breakdown (dynamic, rate 120, 100 epochs):\n{}",
        dmra_obs::global().snapshot().render_table()
    );

    // A second instrumented pass through the mobility loop, whose
    // epoch-persistent context carries the cross-epoch row cache — the
    // report table picks up the online.row_cache_* counters and the
    // batch-kernel histogram.
    use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};
    dmra_obs::global().reset();
    dmra_obs::global_trace().clear();
    dmra_obs::set_enabled(true);
    MobilitySimulator::new(MobilityConfig {
        scenario: ScenarioConfig::paper_defaults().with_ues(600),
        speed_mps: (5.0, 10.0),
        epoch_seconds: 10.0,
        epochs: 30,
        seed: 11,
        policy: MobilityPolicy::Sticky,
        stationary_fraction: 0.8,
    })
    .run()
    .expect("instrumented mobility run");
    dmra_obs::set_enabled(false);
    let snapshot = dmra_obs::global().snapshot();
    let hits = snapshot.counter("online.row_cache_hits").unwrap_or(0);
    let misses = snapshot.counter("online.row_cache_misses").unwrap_or(0);
    let hit_rate = if hits + misses > 0 {
        100.0 * hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    obs_info!(
        "mobility breakdown (sticky, 600 UEs, 80% stationary, 30 epochs; \
         row-cache hit rate {hit_rate:.1}%):\n{}",
        snapshot.render_table()
    );
}

/// Times the incremental online engine against the scratch rebuild loop
/// at paper scale and writes `BENCH_dynamic.json`.
///
/// Both engines must produce bit-identical `DynamicOutcome`s — the run
/// aborts on mismatch, so the speedup figure is never bought with a
/// behaviour change.
fn bench_dynamic() {
    let mut rows = String::new();
    for &(arrival_rate, epochs) in &[(120.0f64, 200usize), (300.0, 200)] {
        let config = DynamicConfig {
            scenario: ScenarioConfig::paper_defaults(),
            arrival_rate,
            mean_holding: 5.0,
            holding: HoldingDistribution::Geometric,
            epochs,
            seed: 11,
        };
        let sim = DynamicSimulator::new(config);
        let (scratch_out, _) = timed(|| sim.run_scratch().expect("scratch engine runs"));
        let (incremental_out, _) = timed(|| sim.run().expect("incremental engine runs"));
        assert_eq!(
            incremental_out, scratch_out,
            "incremental engine diverged from scratch at rate {arrival_rate}"
        );
        let scratch_secs = best_of(3, || sim.run_scratch().expect("scratch engine runs"));
        let incremental_secs = best_of(3, || sim.run().expect("incremental engine runs"));
        let speedup = scratch_secs / incremental_secs;
        let epochs_per_sec = epochs as f64 / incremental_secs;
        let arrivals_per_sec = incremental_out.arrivals as f64 / incremental_secs;
        obs_info!(
            "dynamic rate {arrival_rate}, {epochs} epochs ({} arrivals): \
             scratch {scratch_secs:.4} s, incremental {incremental_secs:.4} s \
             ({speedup:.1}x, {epochs_per_sec:.0} epochs/s, {arrivals_per_sec:.0} arrivals/s)",
            incremental_out.arrivals
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"arrival_rate\": {arrival_rate}, \"epochs\": {epochs}, \
             \"arrivals\": {}, \"scratch_secs\": {scratch_secs:.4}, \
             \"incremental_secs\": {incremental_secs:.4}, \"speedup\": {speedup:.2}, \
             \"epochs_per_sec\": {epochs_per_sec:.1}, \
             \"arrivals_per_sec\": {arrivals_per_sec:.1}, \
             \"identical_outcome\": true }}",
            incremental_out.arrivals
        ));
    }
    let json = format!(
        "{{\n  \"title\": \"online arrival/departure regime, incremental engine \
         vs full residual rebuild (DMRA allocator, paper deployment)\",\n  \
         \"runs\": [\n{rows}\n  ]\n}}\n"
    );
    fs::write("BENCH_dynamic.json", &json).expect("can write BENCH_dynamic.json");
    obs_info!("wrote BENCH_dynamic.json");
}

/// Sweeps the protocol-backed dynamic engine over a drop × delay × crash
/// fault grid and writes the degradation surface to `BENCH_proto.json`.
///
/// Before any timing the fault-free cell is asserted bit-identical to the
/// incremental engine's `DynamicOutcome` — the engine-independence
/// contract — so the sweep measures fault degradation, never engine
/// drift. Every faulty cell reports its profit gap and unserved-UE gap
/// against that oracle run. The run exits 1 when the fault-free cell
/// diverges or when the worst-case profit loss exceeds
/// `DMRA_PROTO_MAX_PROFIT_LOSS_PCT` (default 60; the deepest cell drops a
/// quarter of all messages and crashes a BS, so substantial loss is the
/// expected physics — the bound only catches collapse).
fn bench_proto_mode() {
    let max_loss_pct: f64 = std::env::var("DMRA_PROTO_MAX_PROFIT_LOSS_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60.0);
    let config = DynamicConfig {
        scenario: ScenarioConfig::paper_defaults(),
        arrival_rate: 15.0,
        mean_holding: 4.0,
        holding: HoldingDistribution::Geometric,
        epochs: 20,
        seed: 11,
    };
    let sim = DynamicSimulator::new(config);
    let (oracle, oracle_secs) = timed(|| sim.run().expect("incremental engine runs"));
    let (fault_free, _) = timed(|| {
        sim.run_proto(&ProtoFaults::default())
            .expect("fault-free proto engine runs")
    });
    assert_eq!(
        fault_free, oracle,
        "proto engine diverged from incremental under reliable delivery"
    );
    obs_info!(
        "proto fault-free cell is bit-identical to incremental \
         (profit {:.1}, {} admitted)",
        oracle.total_profit.get(),
        oracle.admitted
    );
    let crash_axis: &[(&str, &[(u32, usize)])] = &[("none", &[]), ("1@5", &[(1, 5)])];
    let mut rows = String::new();
    let mut worst_loss_pct = 0.0f64;
    for &drop_pct in &[0.0f64, 10.0, 25.0] {
        for delay in [
            ProtoDelay::Immediate,
            ProtoDelay::Fixed(1),
            ProtoDelay::Random(2),
        ] {
            for &(crash_label, crash_list) in crash_axis {
                let faults = ProtoFaults {
                    drop_prob: drop_pct / 100.0,
                    delay,
                    crashes: crash_list
                        .iter()
                        .map(|&(bs, at)| (BsId::new(bs), at))
                        .collect(),
                    max_rounds: 0,
                };
                let fault_free_cell =
                    drop_pct == 0.0 && delay == ProtoDelay::Immediate && crash_label == "none";
                let (out, secs) = timed(|| sim.run_proto(&faults).expect("proto engine runs"));
                let profit_gap = oracle.total_profit.get() - out.total_profit.get();
                let loss_pct = 100.0 * profit_gap / oracle.total_profit.get();
                let unserved_gap = oracle.admitted as i64 - out.admitted as i64;
                if fault_free_cell {
                    assert_eq!(out, oracle, "fault-free grid cell drifted from the oracle");
                } else {
                    worst_loss_pct = worst_loss_pct.max(loss_pct);
                }
                obs_info!(
                    "proto drop {drop_pct}% delay {delay} crash {crash_label}: \
                     profit {:.1} (gap {profit_gap:.1}, {loss_pct:.1}%), \
                     admitted {} (gap {unserved_gap}), {secs:.3} s",
                    out.total_profit.get(),
                    out.admitted
                );
                if !rows.is_empty() {
                    rows.push_str(",\n");
                }
                rows.push_str(&format!(
                    "    {{ \"drop_pct\": {drop_pct}, \"delay\": \"{delay}\", \
                     \"crash\": \"{crash_label}\", \"profit\": {:.2}, \
                     \"profit_gap\": {profit_gap:.2}, \"profit_loss_pct\": {loss_pct:.2}, \
                     \"admitted\": {}, \"unserved_gap\": {unserved_gap}, \
                     \"cloud_forwarded\": {}, \"secs\": {secs:.4}, \
                     \"fault_free\": {fault_free_cell}, \
                     \"identical_outcome\": {fault_free_cell} }}",
                    out.total_profit.get(),
                    out.admitted,
                    out.cloud_forwarded
                ));
            }
        }
    }
    let json = format!(
        "{{\n  \"title\": \"protocol-backed dynamic engine degradation under \
         message loss, delivery delay and BS fail-stop crashes (paper grid, \
         rate 15, 20 epochs)\",\n  \
         \"oracle\": {{ \"engine\": \"incremental\", \"profit\": {:.2}, \
         \"admitted\": {}, \"secs\": {oracle_secs:.4} }},\n  \
         \"max_profit_loss_pct\": {max_loss_pct},\n  \
         \"worst_profit_loss_pct\": {worst_loss_pct:.2},\n  \
         \"cells\": [\n{rows}\n  ]\n}}\n",
        oracle.total_profit.get(),
        oracle.admitted
    );
    fs::write("BENCH_proto.json", &json).expect("can write BENCH_proto.json");
    obs_info!("wrote BENCH_proto.json");
    if worst_loss_pct > max_loss_pct {
        obs_error!(
            "proto degradation collapsed: worst profit loss {worst_loss_pct:.1}% \
             exceeds the {max_loss_pct}% bound"
        );
        std::process::exit(1);
    }
}

/// Times the batched link-evaluation kernel and the cross-epoch
/// candidate-row cache against the scalar/scratch baselines and writes
/// `BENCH_linkbatch.json`.
///
/// Two gated comparisons, both requiring bit-identical outcomes before
/// any timing is trusted:
///
/// 1. **2000-UE instance build** — the pruned + batched candidate scan
///    vs the exhaustive scalar scan, same thread knob on both sides.
/// 2. **Mobility sticky-population loop** — the incremental engine
///    (epoch-persistent context, row cache, batch kernel) vs the
///    full-rebuild scratch loop, after asserting that DMRA, NonCo and
///    GreedyProfit all produce identical `MobilityOutcome`s on the two
///    engines.
///
/// Each speedup must reach `DMRA_LINKBATCH_SPEEDUP_MIN` (default 1.5);
/// the process exits 1 otherwise, so `scripts/bench.sh` doubles as a
/// perf-regression check. The run ends with an instrumented mobility
/// pass that reports the row-cache hit rate from the
/// `online.row_cache_hits/misses` counters.
fn bench_linkbatch_mode() {
    use dmra_baselines::GreedyProfit;
    use dmra_core::{CandidateScan, ProblemInstance};
    use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};

    let min_speedup: f64 = std::env::var("DMRA_LINKBATCH_SPEEDUP_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5);
    let mut all_gates_pass = true;

    // -- Gate 1: 2000-UE instance build, batched vs scalar scan. --
    let base = bench_instance(2000, 7);
    let rebuild = |scan: CandidateScan| -> ProblemInstance {
        ProblemInstance::build_with_scan(
            base.sps().to_vec(),
            base.bss().to_vec(),
            base.ues().to_vec(),
            base.catalog(),
            *base.pricing(),
            *base.radio(),
            base.coverage(),
            Threads::Auto,
            scan,
        )
        .expect("bench instance rebuilds")
    };
    let batched = rebuild(CandidateScan::Auto);
    let scalar = rebuild(CandidateScan::Exhaustive);
    let identical_build = (0..batched.n_ues()).all(|u| {
        let ue = dmra_types::UeId::new(u as u32);
        batched.candidates(ue) == scalar.candidates(ue)
    });
    assert!(
        identical_build,
        "batched candidate rows diverged from the exhaustive scalar scan"
    );
    let scalar_secs = best_of(3, || rebuild(CandidateScan::Exhaustive));
    let batched_secs = best_of(3, || rebuild(CandidateScan::Auto));
    let build_speedup = scalar_secs / batched_secs;
    let build_pass = build_speedup >= min_speedup;
    all_gates_pass &= build_pass;
    obs_info!(
        "build 2000 UEs: scalar exhaustive {scalar_secs:.4} s, batched pruned \
         {batched_secs:.4} s ({build_speedup:.1}x, identical rows)"
    );

    // -- Gate 2: mobility loop on a sticky, mostly-stationary population. --
    let mobility_config = MobilityConfig {
        scenario: ScenarioConfig::paper_defaults().with_ues(2000).with_seed(7),
        speed_mps: (5.0, 10.0),
        epoch_seconds: 10.0,
        epochs: 20,
        seed: 11,
        policy: MobilityPolicy::Sticky,
        stationary_fraction: 0.9,
    };
    type Factory = fn() -> Box<dyn Allocator>;
    let factories: Vec<(&str, Factory)> = vec![
        ("DMRA", || Box::new(Dmra::default())),
        ("NonCo", || Box::new(NonCo::default())),
        ("GreedyProfit", || Box::new(GreedyProfit::default())),
    ];
    for (name, factory) in &factories {
        let sim = MobilitySimulator::new(mobility_config.clone()).with_allocator(factory());
        let (incremental_out, _) = timed(|| sim.run().expect("incremental mobility runs"));
        let (scratch_out, _) = timed(|| sim.run_scratch().expect("scratch mobility runs"));
        assert_eq!(
            incremental_out, scratch_out,
            "{name}: incremental mobility engine diverged from scratch"
        );
    }
    obs_info!("mobility outcomes identical across engines for DMRA, NonCo, GreedyProfit");
    let sim = MobilitySimulator::new(mobility_config.clone());
    let scratch_mob_secs = best_of(3, || sim.run_scratch().expect("scratch mobility runs"));
    let incremental_mob_secs = best_of(3, || sim.run().expect("incremental mobility runs"));
    let mobility_speedup = scratch_mob_secs / incremental_mob_secs;
    let mobility_pass = mobility_speedup >= min_speedup;
    all_gates_pass &= mobility_pass;
    obs_info!(
        "mobility sticky 2000 UEs, 20 epochs, 90% stationary: scratch \
         {scratch_mob_secs:.4} s, incremental {incremental_mob_secs:.4} s \
         ({mobility_speedup:.1}x, identical outcomes)"
    );

    // -- Row-cache hit rate from the telemetry counters. --
    dmra_obs::global().reset();
    dmra_obs::global_trace().clear();
    dmra_obs::set_enabled(true);
    sim.run().expect("instrumented mobility runs");
    dmra_obs::set_enabled(false);
    let snapshot = dmra_obs::global().snapshot();
    let hits = snapshot.counter("online.row_cache_hits").unwrap_or(0);
    let misses = snapshot.counter("online.row_cache_misses").unwrap_or(0);
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    obs_info!(
        "row cache: {hits} hits, {misses} misses ({:.1}% hit rate)",
        hit_rate * 100.0
    );

    let json = format!(
        "{{\n  \"title\": \"batched link kernel + cross-epoch row cache vs \
         scalar/scratch baselines (paper deployment, 2000 UEs)\",\n  \
         \"min_speedup\": {min_speedup},\n  \"instance_build\": {{\n    \
         \"n_ues\": 2000, \"scalar_secs\": {scalar_secs:.4}, \
         \"batched_secs\": {batched_secs:.4}, \"speedup\": {build_speedup:.2}, \
         \"gate_pass\": {build_pass}, \"identical_rows\": true\n  }},\n  \
         \"mobility\": {{\n    \"n_ues\": 2000, \"epochs\": 20, \
         \"policy\": \"sticky\", \"stationary_fraction\": 0.9, \
         \"scratch_secs\": {scratch_mob_secs:.4}, \
         \"incremental_secs\": {incremental_mob_secs:.4}, \
         \"speedup\": {mobility_speedup:.2}, \"gate_pass\": {mobility_pass}, \
         \"identical_outcome\": true, \
         \"allocators_verified\": [\"DMRA\", \"NonCo\", \"GreedyProfit\"],\n    \
         \"row_cache\": {{ \"hits\": {hits}, \"misses\": {misses}, \
         \"hit_rate\": {hit_rate:.4} }}\n  }}\n}}\n"
    );
    fs::write("BENCH_linkbatch.json", &json).expect("can write BENCH_linkbatch.json");
    obs_info!("wrote BENCH_linkbatch.json");
    if !all_gates_pass {
        obs_error!("link-batch speedup fell below the {min_speedup}x bound");
        std::process::exit(1);
    }
}

/// Measures the runtime cost of enabling telemetry on the dynamic
/// simulation hot path and writes `BENCH_obs_overhead.json`.
///
/// The run aborts (exit 1) when the measured overhead exceeds the bound —
/// 2% by default, overridable via `DMRA_OBS_OVERHEAD_BOUND_PCT` for noisy
/// CI machines. It also asserts that the instrumented run produces the
/// bit-identical `DynamicOutcome`, so the overhead figure can never hide
/// a behaviour change.
fn obs_overhead_mode() {
    let bound_pct: f64 = std::env::var("DMRA_OBS_OVERHEAD_BOUND_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    // The heavy-load regime from BENCH_dynamic.json: overhead is gated
    // where the wall-clock actually goes, and the longer run keeps the
    // percentage out of scheduler-jitter territory.
    let runs = 9usize;
    let sim = DynamicSimulator::new(DynamicConfig {
        scenario: ScenarioConfig::paper_defaults(),
        arrival_rate: 300.0,
        mean_holding: 5.0,
        holding: HoldingDistribution::Geometric,
        epochs: 3600,
        seed: 11,
    });
    let run_once = |on: bool| {
        dmra_obs::set_enabled(on);
        let (out, secs) = timed(|| sim.run().expect("dynamic run"));
        dmra_obs::set_enabled(false);
        (out, secs)
    };
    // The recorder-enabled arm: telemetry on AND a flight recorder
    // attached through the process-wide observer slot, streaming one
    // JSONL record per epoch to a temp file — the full `--record` path.
    let record_path =
        std::env::temp_dir().join(format!("dmra-overhead-{}.jsonl", std::process::id()));
    let run_recorded = || {
        let recorder = std::sync::Arc::new(
            dmra_obs::Recorder::create(&record_path, 1).expect("can open overhead record file"),
        );
        dmra_obs::set_epoch_observer(Some(
            std::sync::Arc::clone(&recorder) as std::sync::Arc<dyn dmra_obs::EpochObserver>
        ));
        let (out, secs) = run_once(true);
        dmra_obs::set_epoch_observer(None);
        assert!(recorder.finish(), "overhead flight record write failed");
        (out, secs)
    };

    // Warm up both paths once (page cache, lazy metric registration),
    // checking bit-identical outcomes, then time interleaved off/on pairs.
    // Each pair runs back to back so both sides see the same machine
    // conditions; the median of the per-pair overheads is then immune to a
    // scheduler hiccup landing inside any single window.
    let (baseline_out, _) = run_once(false);
    dmra_obs::global().reset();
    dmra_obs::global_trace().clear();
    let (instrumented_out, _) = run_once(true);
    assert_eq!(
        instrumented_out, baseline_out,
        "telemetry changed the dynamic outcome"
    );
    let (recorded_out, _) = run_recorded();
    assert_eq!(
        recorded_out, baseline_out,
        "flight recording changed the dynamic outcome"
    );
    // Preferred metric: cumulative CPU ticks per side across all pairs —
    // immune to preemption, and ~800 ticks per side at this workload keeps
    // tick quantization well under the bound. Fallback (no /proc): the median of the
    // per-pair wall-clock overheads, since adjacent runs share machine
    // conditions. The within-pair order ALTERNATES: measured back to
    // back, the second run of a pair is consistently a few percent
    // slower on some hosts (frequency-boost decay over the pair), and a
    // fixed off-then-on order would book that position penalty entirely
    // to the instrumented side — several times the ~1% effect being
    // gated. Alternation cancels it.
    let measure = |run_on: &dyn Fn() -> f64| {
        let mut off_secs = f64::INFINITY;
        let mut on_secs = f64::INFINITY;
        let mut pair_pcts = Vec::with_capacity(runs);
        let mut off_ticks = 0u64;
        let mut on_ticks = 0u64;
        let mut have_ticks = true;
        for pair in 0..runs {
            let off_first = pair % 2 == 0;
            let c0 = cpu_ticks();
            let first = if off_first {
                run_once(false).1
            } else {
                run_on()
            };
            let c1 = cpu_ticks();
            let second = if off_first {
                run_on()
            } else {
                run_once(false).1
            };
            let c2 = cpu_ticks();
            let (off, on) = if off_first {
                (first, second)
            } else {
                (second, first)
            };
            off_secs = off_secs.min(off);
            on_secs = on_secs.min(on);
            pair_pcts.push((on - off) / off * 100.0);
            match (c0, c1, c2) {
                (Some(c0), Some(c1), Some(c2)) => {
                    let (d_off, d_on) = if off_first {
                        (c1 - c0, c2 - c1)
                    } else {
                        (c2 - c1, c1 - c0)
                    };
                    off_ticks += d_off;
                    on_ticks += d_on;
                }
                _ => have_ticks = false,
            }
        }
        pair_pcts.sort_by(|a, b| a.total_cmp(b));
        let (metric, pct) = if have_ticks && off_ticks > 0 {
            let pct = (on_ticks as f64 - off_ticks as f64) / off_ticks as f64 * 100.0;
            ("cpu", pct)
        } else {
            ("wall", pair_pcts[runs / 2])
        };
        (pct, off_secs, on_secs, metric)
    };
    // Shared-host wall clocks are noisy enough that a single measurement of
    // a ~1% effect occasionally lands past the bound on pure jitter, so the
    // gate re-measures before failing: a real regression exceeds the bound
    // on every attempt, a noise spike does not.
    let attempts = 3usize;
    let gated_measure = |label: &str, run_on: &dyn Fn() -> f64| {
        let mut attempt = 1usize;
        let (mut overhead_pct, mut off_secs, mut on_secs, mut metric) = measure(run_on);
        while overhead_pct > bound_pct && attempt < attempts {
            obs_info!(
                "{label} overhead attempt {attempt}: {metric} {overhead_pct:+.2}% \
                 exceeds {bound_pct}%, re-measuring"
            );
            attempt += 1;
            (overhead_pct, off_secs, on_secs, metric) = measure(run_on);
        }
        obs_info!(
            "{label} overhead: off {off_secs:.4} s, on {on_secs:.4} s \
             ({metric} {overhead_pct:+.2}%, bound {bound_pct}%, \
             attempt {attempt}/{attempts})"
        );
        (overhead_pct, off_secs, on_secs, metric)
    };
    let (overhead_pct, off_secs, on_secs, metric) = gated_measure("obs", &|| run_once(true).1);
    let (recorder_pct, _, recorder_secs, recorder_metric) =
        gated_measure("recorder", &|| run_recorded().1);
    fs::remove_file(&record_path).ok();
    let within_bound = overhead_pct <= bound_pct;
    let recorder_within_bound = recorder_pct <= bound_pct;
    let json = format!(
        "{{\n  \"title\": \"telemetry overhead, dynamic simulation (rate 300, \
         3600 epochs), {runs} interleaved pairs\",\n  \"metric\": \"{metric}\",\n  \
         \"disabled_secs\": {off_secs:.4},\n  \
         \"enabled_secs\": {on_secs:.4},\n  \"overhead_pct\": {overhead_pct:.2},\n  \
         \"recorder_metric\": \"{recorder_metric}\",\n  \
         \"recorder_secs\": {recorder_secs:.4},\n  \
         \"recorder_overhead_pct\": {recorder_pct:.2},\n  \
         \"recorder_within_bound\": {recorder_within_bound},\n  \
         \"bound_pct\": {bound_pct},\n  \"within_bound\": {within_bound},\n  \
         \"identical_outcome\": true\n}}\n"
    );
    fs::write("BENCH_obs_overhead.json", &json).expect("can write BENCH_obs_overhead.json");
    obs_info!("wrote BENCH_obs_overhead.json");
    if !within_bound {
        obs_error!("telemetry overhead {overhead_pct:.2}% exceeds the {bound_pct}% bound");
        std::process::exit(1);
    }
    if !recorder_within_bound {
        obs_error!("flight-recorder overhead {recorder_pct:.2}% exceeds the {bound_pct}% bound");
        std::process::exit(1);
    }
}

fn run_job(job: &str, opts: &ExperimentOptions) -> Result<Table, String> {
    let result = match job {
        "fig2" => experiments::fig2(opts),
        "fig3" => experiments::fig3(opts),
        "fig4" => experiments::fig4(opts),
        "fig5" => experiments::fig5(opts),
        "fig6" => experiments::fig6(opts),
        "fig7" => experiments::fig7(opts),
        "ablation_same_sp" => experiments::ablation_same_sp_preference(opts),
        "ablation_interference" => experiments::ablation_interference(opts),
        "decentralized_cost" => experiments::decentralized_cost(opts),
        "iota_sweep" => experiments::iota_sweep(opts),
        "online_comparison" => experiments::online_comparison(opts),
        other => {
            return Err(format!(
                "unknown experiment '{other}' (expected fig2..fig7, \
                 ablation_same_sp, ablation_interference, decentralized_cost, \
                 iota_sweep, all, ablations)"
            ))
        }
    };
    result.map_err(|e| format!("{job}: {e}"))
}

fn emit(name: &str, table: &Table) {
    obs_info!("{}", table.to_markdown());
    obs_info!("{}", table.to_sparklines());
    let csv = Path::new("results").join(format!("{name}.csv"));
    fs::write(&csv, table.to_csv()).expect("can write CSV");
    let gp = Path::new("results").join(format!("{name}.gnuplot"));
    fs::write(&gp, table.to_gnuplot(&format!("{name}.csv"))).expect("can write gnuplot script");
    obs_info!("wrote {} and {}", csv.display(), gp.display());
}
