//! Regenerates the data behind every figure of the paper's evaluation and
//! every ablation and extension experiment (DESIGN.md §4–§5).
//!
//! ```text
//! cargo run --release -p dmra-bench --bin figures -- all
//! cargo run --release -p dmra-bench --bin figures -- fig2 fig7
//! cargo run --release -p dmra-bench --bin figures -- --quick ablations
//! ```
//!
//! CSVs are written to `results/<name>.csv`; markdown tables, sparklines
//! and progress all go through the `dmra-obs` logging facade on stderr
//! (`--quiet` silences them, `--verbose`/`-v` adds debug detail), so the
//! machine-readable artefacts are the files, not the terminal stream.
//! The `obs_overhead` job measures the telemetry-enabled vs -disabled
//! dynamic simulation and writes `BENCH_obs_overhead.json`, failing when
//! the overhead exceeds its bound.

use dmra_obs::{obs_error, obs_info, Level};
use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};
use dmra_sim::experiments::{self, ExperimentOptions};
use dmra_sim::{ScenarioConfig, Table};
use std::fs;
use std::path::Path;
use std::time::Instant;

/// The flags `figures` accepts; any other argument starting with `-` is
/// an error, so a mistyped `--quick` cannot fall back to the paper-scale
/// settings.
const FLAGS: [&str; 4] = ["--quick", "--quiet", "--verbose", "-v"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args
        .iter()
        .find(|a| a.starts_with('-') && !FLAGS.contains(&a.as_str()))
    {
        obs_error!("unknown flag '{unknown}' (accepted: {})", FLAGS.join(", "));
        std::process::exit(1);
    }
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
                "proto_degradation",
            ]),
            other => jobs.push(other),
        }
    }
    // Keep the first occurrence of each job: `all fig2` runs Fig. 2 once.
    let mut seen = std::collections::HashSet::new();
    jobs.retain(|job| seen.insert(*job));

    fs::create_dir_all("results").expect("can create results/ directory");
    for job in jobs {
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
    // A heavy-load regime (300 arrivals per epoch): overhead is gated
    // where the wall-clock actually goes, and the long run keeps the
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
        "proto_degradation" => experiments::proto_degradation(opts),
        other => {
            return Err(format!(
                "unknown experiment '{other}' (expected fig2..fig7, \
                 ablation_same_sp, ablation_interference, decentralized_cost, \
                 iota_sweep, online_comparison, proto_degradation, \
                 obs_overhead, all, ablations)"
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
