//! Epoch-pipeline benchmark for the DMRA engines.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench golden <workload> <first-seed> <last-seed>
//! ```
//!
//! A run builds one workload at the seed, runs the correctness gate on
//! one repetition of each engine instance, then repeats the horizon for
//! `--seconds` and prints a facts line followed by one JSON result line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` splits the
//! same time between an untraced and a telemetry-on phase and replays one
//! repetition per instance through the layer calls, reporting the
//! per-layer metrics. `golden` prints `golden.tsv` lines. See `README.md`.

mod gate;
mod host;
mod probe;
mod replay;
mod stats;
mod workload;

use host::HostFacts;
use probe::{Hook, Probe};
use replay::{ReplayTally, Replayer};
use stats::{percentile, split_epochs, EpochSplit};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workload::{RepOutcome, Workload, VARIANTS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Fewest timed repetitions of each engine instance per phase.
const MIN_ROUNDS: usize = 3;
/// Quantile over repetitions taken as an epoch's time. Every repetition
/// of an instance replays identical work, so the spread across them is
/// the host's, and a low quantile rejects bursts of interference from
/// other tenants while staying steadier than the minimum.
const QUIET_Q: f64 = 0.1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(value),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !workload::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("golden") => print_golden(&args[1..]),
        _ => parse_args(&args).and_then(|a| bench(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One finished repetition.
struct Rep {
    epochs: Vec<EpochSplit>,
    setup_ns: u64,
    fold: u64,
    outcome: RepOutcome,
    hook: Hook,
}

/// Runs one repetition of instance `variant` with `hook` installed and
/// checks its timeline (grammar, ordering, closure, epoch count).
fn run_rep(w: &Workload, variant: usize, probe: &Probe, hook: Hook) -> Result<Rep, String> {
    probe.reset(hook);
    let entered = probe.now();
    let outcome = w
        .run(variant)
        .map_err(|e| format!("{} run failed: {e}", w.name))?;
    let (marks, fold, hook) = probe.take();
    let timeline = split_epochs(&marks).map_err(|e| format!("closure failed: {e}"))?;
    if timeline.epochs.len() != w.epochs {
        return Err(format!(
            "expected {} epoch records, got {}",
            w.epochs,
            timeline.epochs.len()
        ));
    }
    Ok(Rep {
        setup_ns: timeline.session - entered,
        epochs: timeline.epochs,
        fold,
        outcome,
        hook,
    })
}

/// Correctness bookkeeping shared by every phase of a run.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, epochs: u64, error: String) {
        self.failed += epochs;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }
}

/// What the gate established about each engine instance.
struct Baseline {
    /// Per-instance det folds every later repetition must reproduce.
    folds: Vec<u64>,
    /// Per-instance outcome of one repetition (deterministic).
    outcomes: Vec<RepOutcome>,
    /// `match`, `mismatch` or `absent` (no table entry for the seed).
    golden: &'static str,
}

/// The gate: one repetition per instance with every epoch checked for
/// feasibility and one-shot equality, then the combined det fold against
/// the golden table.
fn gate(w: &Workload, seed: u64, probe: &Probe, verdict: &mut Verdict) -> Result<Baseline, String> {
    let mut folds = Vec::with_capacity(VARIANTS);
    let mut outcomes = Vec::with_capacity(VARIANTS);
    let mut passed = 0;
    for variant in 0..VARIANTS {
        let rep = run_rep(w, variant, probe, Hook::Gate(Box::default()))?;
        let Hook::Gate(tally) = rep.hook else {
            unreachable!("the gate hook comes back from its repetition");
        };
        verdict.attempted += tally.epochs;
        passed += tally.epochs - tally.failed;
        if tally.failed > 0 {
            verdict.fail(tally.failed, tally.first_error.unwrap_or_default());
        }
        folds.push(rep.fold);
        outcomes.push(rep.outcome);
    }
    let combined = gate::combine(&folds);
    let golden = match gate::golden(w.name, seed) {
        None => "absent",
        Some(g) if g == combined => "match",
        Some(g) => {
            // Only epochs that passed the per-epoch checks are left to
            // fail, so `failed` never exceeds `attempted`.
            verdict.fail(
                passed,
                format!("det fold {combined:016x} differs from golden {g:016x}"),
            );
            "mismatch"
        }
    };
    Ok(Baseline {
        folds,
        outcomes,
        golden,
    })
}

/// Timings of the repetitions of one phase.
struct Phase {
    /// `samples[variant][epoch]`: that epoch's interval (ms) in every
    /// repetition of that instance.
    samples: Vec<Vec<Vec<f64>>>,
    /// Slice totals over every epoch of the phase.
    split: EpochSplit,
    setup_s: Vec<f64>,
    epochs: u64,
    decisions: u64,
    cpu_ms: f64,
    wall_ms: f64,
}

impl Phase {
    /// Each (instance, epoch)'s time: the `QUIET_Q` quantile over its
    /// repetitions.
    fn quiet_epoch_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .flatten()
            .map(|reps| {
                let mut sorted = reps.clone();
                sorted.sort_by(f64::total_cmp);
                percentile(&sorted, QUIET_Q).expect("every epoch has repetitions")
            })
            .collect()
    }

    /// Percentile `q` over the (instance, epoch) times.
    fn epoch_ms(&self, q: f64) -> f64 {
        let mut times = self.quiet_epoch_ms();
        times.sort_by(f64::total_cmp);
        percentile(&times, q).unwrap_or(0.0)
    }

    /// Mean per epoch of a slice total, in ms.
    fn per_epoch_ms(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.epochs.max(1) as f64
    }
}

/// Repeats every instance round-robin for at least `seconds` (and
/// `MIN_ROUNDS` rounds), checking each repetition's det fold.
fn timed_phase(
    w: &Workload,
    probe: &Probe,
    seconds: f64,
    base: &Baseline,
    verdict: &mut Verdict,
) -> Result<Phase, String> {
    let mut phase = Phase {
        samples: vec![vec![Vec::new(); w.epochs]; VARIANTS],
        split: EpochSplit::default(),
        setup_s: Vec::new(),
        epochs: 0,
        decisions: 0,
        cpu_ms: 0.0,
        wall_ms: 0.0,
    };
    let cpu_before = host::process_cpu_ms()?;
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        for variant in 0..VARIANTS {
            let rep = run_rep(w, variant, probe, Hook::None)?;
            if dmra_obs::enabled() {
                // Keep the bounded global trace log from filling up.
                dmra_obs::global_trace().clear();
            }
            let n = rep.epochs.len() as u64;
            verdict.attempted += n;
            if rep.fold != base.folds[variant] {
                verdict.fail(
                    n,
                    format!("instance {variant} round {rounds}: det fold differs from the gate's"),
                );
            }
            for (e, split) in rep.epochs.iter().enumerate() {
                phase.samples[variant][e].push(split.interval() as f64 / 1e6);
                phase.split.pre += split.pre;
                phase.split.solve += split.solve;
                phase.split.post += split.post;
            }
            phase.setup_s.push(rep.setup_ns as f64 / 1e9);
            phase.epochs += n;
            phase.decisions += rep.outcome.decisions;
        }
    }
    phase.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    phase.cpu_ms = host::process_cpu_ms()? - cpu_before;
    Ok(phase)
}

fn bench(args: &Args) -> Result<(), String> {
    let probe = Probe::new();
    let w = Workload::new(&args.workload, args.seed, &probe).expect("name checked by parse_args");
    let mut verdict = Verdict::default();
    let base = gate(&w, args.seed, &probe, &mut verdict)?;
    // One untimed warm-up repetition per instance.
    for variant in 0..VARIANTS {
        let warm = run_rep(&w, variant, &probe, Hook::None)?;
        verdict.attempted += warm.epochs.len() as u64;
        if warm.fold != base.folds[variant] {
            verdict.fail(
                warm.epochs.len() as u64,
                format!("instance {variant} warm-up: det fold differs from the gate's"),
            );
        }
    }

    let mut metrics = Vec::new();
    let rounds;
    if args.trace {
        let untraced = timed_phase(&w, &probe, args.seconds / 2.0, &base, &mut verdict)?;
        dmra_obs::set_enabled(true);
        let before = dmra_obs::global().snapshot();
        let traced = timed_phase(&w, &probe, args.seconds / 2.0, &base, &mut verdict);
        let counters = dmra_obs::global().snapshot().delta(&before);
        dmra_obs::set_enabled(false);
        let traced = traced?;
        let mut replayer = Box::new(Replayer::new(w.row_cache));
        for variant in 0..VARIANTS {
            replayer.begin_instance();
            let failed_before = replayer.tally.failed;
            let rep = run_rep(&w, variant, &probe, Hook::Replay(replayer))?;
            let Hook::Replay(back) = rep.hook else {
                unreachable!("the replay hook comes back from its repetition");
            };
            replayer = back;
            // Epochs the replay already failed are not counted twice.
            if rep.fold != base.folds[variant] && replayer.tally.failed == failed_before {
                verdict.fail(
                    rep.epochs.len() as u64,
                    format!("instance {variant} replay: det fold differs from the gate's"),
                );
            }
        }
        let tally = replayer.tally;
        verdict.attempted += tally.epochs;
        if tally.failed > 0 {
            let error = tally.first_error.clone().unwrap_or_default();
            verdict.fail(tally.failed, format!("replay: {error}"));
        }
        rounds = traced.setup_s.len() / VARIANTS;
        per_layer(
            &mut metrics,
            &untraced,
            &traced,
            &tally,
            &counters,
            &verdict,
        );
    } else {
        let phase = timed_phase(&w, &probe, args.seconds, &base, &mut verdict)?;
        rounds = phase.setup_s.len() / VARIANTS;
        end_to_end(&mut metrics, &phase, &base)?;
    }

    let facts = HostFacts::collect(std::path::Path::new("."));
    let mut info = String::new();
    let _ = write!(
        info,
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"instances\": {VARIANTS}, \"epochs_per_rep\": {}, \"timed_rounds\": {rounds}, \
         \"golden\": \"{}\", \"available_parallelism\": {}, \"engine_threads\": {}, \
         \"cpu_model\": \"{}\", \"commit\": \"{}\", \"errors\": [",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.epochs,
        base.golden,
        facts.available_parallelism,
        facts.engine_threads,
        json_escape(&facts.cpu_model),
        json_escape(&facts.commit),
    );
    for (i, e) in verdict.errors.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(info, "{sep}\"{}\"", json_escape(e));
    }
    info.push_str("]}}");
    println!("{info}");
    println!("{}", result_line(&verdict, &metrics));
    Ok(())
}

/// `(name, value, unit)` of one reported metric.
type Metric = (&'static str, f64, &'static str);

fn end_to_end(out: &mut Vec<Metric>, p: &Phase, base: &Baseline) -> Result<(), String> {
    let quiet = p.quiet_epoch_ms();
    let quiet_mean_ms = quiet.iter().sum::<f64>() / quiet.len() as f64;
    let decisions: u64 = base.outcomes.iter().map(|o| o.decisions).sum();
    let admitted: u64 = base.outcomes.iter().map(|o| o.admitted).sum();
    let profit: f64 = base.outcomes.iter().map(|o| o.profit).sum();
    let mut setup = p.setup_s.clone();
    setup.sort_by(f64::total_cmp);
    out.extend([
        // One round of every instance, at the quiet epoch times.
        (
            "decisions_per_s",
            decisions as f64 / (quiet.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        ("epoch_ms_p50", p.epoch_ms(0.5), "ms"),
        ("epoch_ms_p90", p.epoch_ms(0.9), "ms"),
        // The phase's CPU ÷ wall ratio at the quiet epoch time.
        (
            "cpu_ms_per_epoch",
            p.cpu_ms / p.wall_ms * quiet_mean_ms,
            "ms",
        ),
        ("setup_s", percentile(&setup, 0.5).unwrap_or(0.0), "s"),
        ("peak_rss_mb", host::peak_rss_mb()?, "MB"),
        (
            "admitted_frac",
            admitted as f64 / decisions.max(1) as f64,
            "fraction",
        ),
        (
            "profit_per_decision",
            profit / decisions.max(1) as f64,
            "money",
        ),
    ]);
    Ok(())
}

fn per_layer(
    out: &mut Vec<Metric>,
    untraced: &Phase,
    traced: &Phase,
    r: &ReplayTally,
    counters: &dmra_obs::Snapshot,
    verdict: &Verdict,
) {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let counter = |name| counters.counter(name).unwrap_or(0) as f64;
    let replay_ms = |ns: u64| ns as f64 / 1e6 / r.epochs.max(1) as f64;
    let (solves, proposals) = (counter("dmra.solves"), counter("dmra.proposals"));
    let pre = traced.per_epoch_ms(traced.split.pre);
    let build = replay_ms(r.build_ns);
    let (geo, radio) = (replay_ms(r.geo_ns), replay_ms(r.radio_ns));
    let epoch_p50 = traced.epoch_ms(0.5);
    out.extend([
        ("sim.epoch_ms_p50", epoch_p50, "ms"),
        ("sim.pre_solve_ms", pre, "ms"),
        (
            "sim.solve_ms",
            traced.per_epoch_ms(traced.split.solve),
            "ms",
        ),
        (
            "sim.post_solve_ms",
            traced.per_epoch_ms(traced.split.post),
            "ms",
        ),
        ("sim.pre_solve_other_ms", pre - build, "ms"),
        (
            "sim.solve_frac",
            ratio(traced.split.solve as f64, traced.split.interval() as f64),
            "fraction",
        ),
        ("online.build_ms", build, "ms"),
        ("online.build_other_ms", build - geo - radio, "ms"),
        (
            "online.rows_per_epoch",
            ratio(r.rows_rebuilt as f64, r.epochs as f64),
            "count",
        ),
        (
            "online.links_per_ue",
            ratio(r.links as f64, r.ues as f64),
            "count",
        ),
        (
            "online.row_cache_hit_frac",
            ratio(r.cache_hits as f64, (r.cache_hits + r.cache_misses) as f64),
            "fraction",
        ),
        ("geo.query_ms", geo, "ms"),
        (
            "geo.hits_per_query",
            ratio(r.geo_hits as f64, r.geo_queries as f64),
            "count",
        ),
        ("radio.kernel_ms", radio, "ms"),
        (
            "radio.ns_per_link",
            ratio(r.radio_ns as f64, r.radio_links as f64),
            "ns",
        ),
        ("components.decompose_ms", replay_ms(r.decompose_ns), "ms"),
        (
            "components.count",
            ratio(r.components as f64, r.epochs as f64),
            "count",
        ),
        (
            "components.largest_frac",
            ratio(r.largest_frac_sum, r.epochs as f64),
            "fraction",
        ),
        (
            "dmra.rounds_per_solve",
            ratio(counter("dmra.rounds"), solves),
            "count",
        ),
        (
            "dmra.proposals_per_ue",
            ratio(proposals, traced.decisions as f64),
            "count",
        ),
        (
            "dmra.accept_frac",
            ratio(counter("dmra.acceptances"), proposals),
            "fraction",
        ),
        (
            "dmra.evictions_per_solve",
            ratio(counter("dmra.evictions"), solves),
            "count",
        ),
        (
            "par.cpu_wall_ratio",
            ratio(traced.cpu_ms, traced.wall_ms),
            "ratio",
        ),
        (
            "obs.trace_overhead_frac",
            ratio(epoch_p50, untraced.epoch_ms(0.5)) - 1.0,
            "fraction",
        ),
        (
            "gate.failed_frac",
            ratio(verdict.failed as f64, verdict.attempted as f64),
            "fraction",
        ),
    ]);
}

fn result_line(verdict: &Verdict, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.failed == 0 && verdict.attempted > 0,
        verdict.attempted.max(1),
        verdict.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// `golden <workload> <first> <last>`: the gate at each seed, printed as
/// `golden.tsv` lines. Fails if any epoch fails the gate.
fn print_golden(args: &[String]) -> Result<(), String> {
    let [name, first, last] = args else {
        return Err("usage: golden <workload> <first-seed> <last-seed>".into());
    };
    let parse = |s: &String| s.parse::<u64>().map_err(|e| format!("seed {s}: {e}"));
    for seed in parse(first)?..=parse(last)? {
        let probe = Probe::new();
        let w =
            Workload::new(name, seed, &probe).ok_or_else(|| format!("unknown workload {name}"))?;
        let mut verdict = Verdict::default();
        let base = gate(&w, seed, &probe, &mut verdict)?;
        if verdict.failed > 0 {
            return Err(format!(
                "{name} seed {seed} fails the gate: {:?}",
                verdict.errors
            ));
        }
        println!("{name} {seed} {:016x}", gate::combine(&base.folds));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn args_take_defaults_and_reject_garbage() {
        let a = parse_args(&args(&["--workload", "paper_arrivals"])).expect("defaults");
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        let a = parse_args(&args(&[
            "--workload",
            "metro_mobility",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("all flags");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "paper_arrivals", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "paper_arrivals", "--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--workload"])).is_err());
    }

    #[test]
    fn quiet_epoch_times_take_a_low_quantile_per_epoch() {
        let phase = Phase {
            // One instance, two epochs, four repetitions each; the
            // fourth repetition of epoch 0 hit interference.
            samples: vec![vec![vec![1.0, 1.1, 1.2, 9.0], vec![2.0, 2.4, 2.2, 2.1]]],
            split: EpochSplit::default(),
            setup_s: Vec::new(),
            epochs: 8,
            decisions: 0,
            cpu_ms: 0.0,
            wall_ms: 0.0,
        };
        assert_eq!(phase.quiet_epoch_ms(), vec![1.0, 2.0]);
        assert_eq!(phase.epoch_ms(0.5), 1.0);
        assert_eq!(phase.epoch_ms(0.9), 2.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut v = Verdict {
            attempted: 4,
            ..Verdict::default()
        };
        let line = result_line(&v, &[("setup_s", 0.5, "s"), ("bad", f64::NAN, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"bad\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
        v.fail(1, "x".into());
        assert!(result_line(&v, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_escape_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
