//! Command implementations. Each returns the text to print, so the whole
//! surface is unit-testable without capturing stdout.

use crate::args::{ArgError, ParsedArgs};
use dmra_baselines::{CloudOnly, Dcsp, GreedyProfit, NonCo, RandomAllocator};
use dmra_core::agents::{run_protocol, ProtocolOptions};
use dmra_core::{set_batch_mode_default, Allocator, BatchMode, Dmra, DmraConfig, Threads};
use dmra_obs::{obs_debug, obs_info, Level};
use dmra_proto::DropPolicy;
use dmra_sim::dynamic::{
    DynamicConfig, DynamicSimulator, HoldingDistribution, ProtoDelay, ProtoFaults,
};
use dmra_sim::erlang::TrunkModel;
use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};
use dmra_sim::{Metrics, ScenarioConfig, SweepRunner};
use dmra_types::BsId;

/// The `dmra help` text.
#[must_use]
pub fn help_text() -> String {
    "dmra — DMRA (ICDCS 2019) multi-SP MEC resource allocation\n\
     \n\
     USAGE: dmra <command> [--key value]...\n\
     \n\
     COMMANDS\n\
     run       run one scenario\n\
     \t--ues N        number of UEs               (default 600)\n\
     \t--seed S       scenario seed               (default 42)\n\
     \t--iota X       cross-SP markup             (default 2.0)\n\
     \t--rho X        Eq. (17) weight             (default 100)\n\
     \t--placement P  regular | random            (default regular)\n\
     \t--algo A       dmra|dcsp|nonco|greedy|random|cloud|all (default all)\n\
     \t--threads N    worker threads (0 = auto; or set DMRA_THREADS)\n\
     sweep     profit vs #UEs table (DMRA, DCSP, NonCo)\n\
     \t--seed S --iota X --placement P --reps R   (defaults 42, 2.0, regular, 3)\n\
     \t--format F     markdown | csv              (default markdown)\n\
     \t--threads N    worker threads (0 = auto; results are identical)\n\
     protocol  decentralized execution statistics\n\
     \t--ues N --seed S --drop PCT                (defaults 400, 42, 0)\n\
     \t--delay D      immediate | fixed:N | random:MAX (default immediate)\n\
     \t--crash B@R    comma-separated BS fail-stops, BS id @ protocol round\n\
     dynamic   online arrivals/departures\n\
     \t--rate X       arrivals per epoch          (default 40)\n\
     \t--holding H    mean holding epochs, or a distribution\n\
     \t               geometric | det | exp, optionally with a mean\n\
     \t               as NAME:X — e.g. 5, exp, det:3  (default geometric:5)\n\
     \t--epochs N     horizon                     (default 50)\n\
     \t--seed S                                   (default 42)\n\
     \t--engine E     incremental | proto         (default incremental;\n\
     \t               proto computes each epoch by message-passing\n\
     \t               agents, identical results without faults)\n\
     \t--drop PCT     proto engine: per-message loss percentage (default 0)\n\
     \t--delay D      proto engine: immediate | fixed:N | random:MAX\n\
     \t--crash B@E    proto engine: comma-separated BS fail-stops,\n\
     \t               BS id @ simulation epoch\n\
     mobility  moving UEs, handover statistics\n\
     \t--ues N --speed MPS --epochs N --seed S    (defaults 300, 5, 30, 42)\n\
     \t--policy P     full | sticky               (default full)\n\
     \t--stationary F fraction of UEs pinned in place (default 0)\n\
     plan      Erlang-B blocking prediction & dimensioning\n\
     \t--rate X --holding X --target PCT          (defaults 100, 5, 2)\n\
     help      this text\n\
     \n\
     GLOBAL OPTIONS (any command)\n\
     \t--quiet          only warnings and errors on stderr\n\
     \t--verbose, -v    debug logging on stderr\n\
     \t--log-level L    error | warn | info | debug (overrides the flags)\n\
     \t--trace-out F    enable telemetry, write trace + metrics JSON to F,\n\
     \t                 and append the counter/timer report to the output\n\
     \t                 (run, sweep, dynamic and mobility only)\n\
     \t--record F       enable telemetry and write the flight record — one\n\
     \t                 JSONL line per epoch/round/cell — to F\n\
     \t                 (sweep, protocol, dynamic and mobility)\n\
     \t--sample-every N keep every Nth flight record (with --record;\n\
     \t                 default 1 = every record)\n\
     \t--metrics-addr A enable telemetry and serve live Prometheus text at\n\
     \t                 http://A/metrics for the duration of the command\n\
     \t                 (e.g. 127.0.0.1:0 picks a free port; the bound\n\
     \t                 address is logged on stderr)\n\
     \t--candidate-batch M  exact | approx: link-batch kernel mode\n\
     \t                 (default exact = bit-identical to the scalar\n\
     \t                 evaluator; approx trades ~1e-10 relative error\n\
     \t                 for polynomial transcendentals)\n"
        .to_owned()
}

/// Dispatches a parsed command line to its implementation, handling the
/// global observability surface: `--quiet` / `-v` / `--log-level` set the
/// logging facade's level, and `--trace-out PATH` enables telemetry for
/// the run, writes the trace JSON, and appends the human report table to
/// the command's output.
///
/// # Errors
///
/// Returns [`ArgError`] for unknown commands/options or failed runs.
pub fn dispatch(parsed: &ParsedArgs) -> Result<String, ArgError> {
    configure_logging(parsed)?;
    configure_batch_mode(parsed)?;
    let trace_out = parsed.get("trace-out").map(std::path::PathBuf::from);
    let record_out = parsed.get("record").map(std::path::PathBuf::from);
    if parsed.get("sample-every").is_some() && record_out.is_none() {
        return Err(ArgError("--sample-every requires --record".into()));
    }
    let sample_every = parsed.get_or("sample-every", 1u64)?;
    if sample_every == 0 {
        return Err(ArgError("--sample-every must be at least 1".into()));
    }
    let metrics_addr = parsed.get("metrics-addr");
    if trace_out.is_some() || record_out.is_some() || metrics_addr.is_some() {
        // Start the observed run from a clean slate so the emitted
        // artefacts describe exactly this command.
        dmra_obs::global().reset();
        dmra_obs::global_trace().clear();
        dmra_obs::set_enabled(true);
    }
    let recorder = match &record_out {
        Some(path) => {
            let recorder =
                std::sync::Arc::new(dmra_obs::Recorder::create(path, sample_every).map_err(
                    |e| ArgError(format!("cannot open flight record {}: {e}", path.display())),
                )?);
            // The process-wide slot reaches every engine — the dynamic
            // and mobility simulators, the sweep runner and the proto
            // round engine all fall back to it.
            dmra_obs::set_epoch_observer(Some(
                std::sync::Arc::clone(&recorder) as std::sync::Arc<dyn dmra_obs::EpochObserver>
            ));
            Some(recorder)
        }
        None => None,
    };
    let server = match metrics_addr {
        Some(addr) => {
            let server = dmra_obs::MetricsServer::bind(addr)
                .map_err(|e| ArgError(format!("cannot bind metrics server on {addr}: {e}")))?;
            obs_info!("serving metrics on http://{}/metrics", server.local_addr());
            Some(server)
        }
        None => None,
    };
    let result = dispatch_inner(parsed);
    let mut record_note = String::new();
    if let (Some(recorder), Some(path)) = (recorder, &record_out) {
        dmra_obs::set_epoch_observer(None);
        let clean = recorder.finish();
        record_note = format!(
            "flight record: {} lines to {}\n",
            recorder.lines_written(),
            path.display()
        );
        if !clean {
            return Err(ArgError(format!(
                "flight record write to {} failed (disk full?)",
                path.display()
            )));
        }
    }
    if let Some(server) = server {
        server.shutdown();
    }
    if let Some(path) = trace_out {
        dmra_obs::set_enabled(false);
        let report = write_trace(&path, &parsed.command)?;
        return result.map(|text| {
            format!(
                "{text}{record_note}\n--- telemetry report ---\n{report}trace written to {}\n",
                path.display()
            )
        });
    }
    if record_out.is_some() || metrics_addr.is_some() {
        dmra_obs::set_enabled(false);
    }
    result.map(|text| format!("{text}{record_note}"))
}

/// Applies the verbosity surface: default Info, `--verbose`/`-v` raises
/// to Debug, `--quiet` lowers to Warn, and an explicit `--log-level`
/// overrides both.
fn configure_logging(parsed: &ParsedArgs) -> Result<(), ArgError> {
    let mut level = Level::Info;
    if parsed.has_flag("verbose") {
        level = Level::Debug;
    }
    if parsed.has_flag("quiet") {
        level = Level::Warn;
    }
    if let Some(raw) = parsed.get("log-level") {
        level = raw.parse().map_err(|e| ArgError(format!("{e}")))?;
    }
    dmra_obs::set_level(level);
    Ok(())
}

/// Applies `--candidate-batch M` to the process-global default mode of
/// the batched link-evaluation kernel. `exact` (the default) is
/// bit-identical to the scalar evaluator; `approx` substitutes
/// polynomial transcendentals with about 1e-10 relative error.
fn configure_batch_mode(parsed: &ParsedArgs) -> Result<(), ArgError> {
    match parsed.get("candidate-batch") {
        None | Some("exact") => set_batch_mode_default(BatchMode::Exact),
        Some("approx") => set_batch_mode_default(BatchMode::Approx),
        Some(other) => {
            return Err(ArgError(format!(
                "--candidate-batch must be 'exact' or 'approx', got '{other}'"
            )))
        }
    }
    Ok(())
}

/// Serializes the global registry + trace log to `path` (schema
/// `dmra-obs/1`, documented in DESIGN.md §10) and returns the human
/// report table.
fn write_trace(path: &std::path::Path, command: &str) -> Result<String, ArgError> {
    let snapshot = dmra_obs::global().snapshot();
    let trace = dmra_obs::global_trace();
    let json = format!(
        "{{\n  \"schema\": \"dmra-obs/1\",\n  \"command\": \"{command}\",\n  \
         \"dropped_events\": {},\n  \"events\": {},\n  \"metrics\": {}\n}}\n",
        trace.dropped(),
        trace.to_json(),
        snapshot.to_json()
    );
    std::fs::write(path, json)
        .map_err(|e| ArgError(format!("cannot write trace to {}: {e}", path.display())))?;
    Ok(snapshot.render_table())
}

fn dispatch_inner(parsed: &ParsedArgs) -> Result<String, ArgError> {
    match parsed.command.as_str() {
        "run" => cmd_run(parsed),
        "sweep" => cmd_sweep(parsed),
        "protocol" => cmd_protocol(parsed),
        "dynamic" => cmd_dynamic(parsed),
        "mobility" => cmd_mobility(parsed),
        "plan" => cmd_plan(parsed),
        "help" => Ok(help_text()),
        other => Err(ArgError(format!(
            "unknown command '{other}'; try `dmra help`"
        ))),
    }
}

fn scenario_from(parsed: &ParsedArgs) -> Result<ScenarioConfig, ArgError> {
    let mut cfg = ScenarioConfig::paper_defaults()
        .with_ues(parsed.get_or("ues", 600usize)?)
        .with_seed(parsed.get_or("seed", 42u64)?)
        .with_iota(parsed.get_or("iota", 2.0f64)?);
    match parsed.get("placement").unwrap_or("regular") {
        "regular" => {}
        "random" => cfg = cfg.with_random_placement(),
        other => {
            return Err(ArgError(format!(
                "--placement must be 'regular' or 'random', got '{other}'"
            )))
        }
    }
    Ok(cfg)
}

/// Parses `--threads N`: absent or `0` means [`Threads::Auto`] (which in
/// turn honours the `DMRA_THREADS` environment variable).
fn threads_from(parsed: &ParsedArgs) -> Result<Threads, ArgError> {
    match parsed.get_or("threads", 0usize)? {
        0 => Ok(Threads::Auto),
        n => Ok(Threads::Fixed(n)),
    }
}

fn algorithms(selector: &str, seed: u64, rho: f64) -> Result<Vec<Box<dyn Allocator>>, ArgError> {
    let dmra = || Box::new(Dmra::new(DmraConfig::paper_defaults().with_rho(rho)));
    Ok(match selector {
        "dmra" => vec![dmra()],
        "dcsp" => vec![Box::new(Dcsp::default())],
        "nonco" => vec![Box::new(NonCo::default())],
        "greedy" => vec![Box::new(GreedyProfit::default())],
        "random" => vec![Box::new(RandomAllocator::new(seed))],
        "cloud" => vec![Box::new(CloudOnly::default())],
        "all" => vec![
            dmra(),
            Box::new(Dcsp::default()),
            Box::new(NonCo::default()),
            Box::new(GreedyProfit::default()),
            Box::new(RandomAllocator::new(seed)),
            Box::new(CloudOnly::default()),
        ],
        other => {
            return Err(ArgError(format!(
                "--algo must be dmra|dcsp|nonco|greedy|random|cloud|all, got '{other}'"
            )))
        }
    })
}

fn cmd_run(parsed: &ParsedArgs) -> Result<String, ArgError> {
    parsed.expect_keys(&[
        "ues",
        "seed",
        "iota",
        "rho",
        "placement",
        "algo",
        "threads",
        "log-level",
        "trace-out",
        "record",
        "sample-every",
        "metrics-addr",
        "candidate-batch",
    ])?;
    let seed = parsed.get_or("seed", 42u64)?;
    let rho = parsed.get_or("rho", 100.0f64)?;
    let instance = scenario_from(parsed)?
        .build_with_threads(threads_from(parsed)?)
        .map_err(|e| ArgError(e.to_string()))?;
    let mut out = format!(
        "{} SPs, {} BSs, {} UEs, {} services\n\n{:<14} {:>12} {:>8} {:>8} {:>9} {:>9}\n",
        instance.n_sps(),
        instance.n_bss(),
        instance.n_ues(),
        instance.catalog().len(),
        "algorithm",
        "profit",
        "served",
        "cloud",
        "same-SP%",
        "RRB-util%"
    );
    for algo in algorithms(parsed.get("algo").unwrap_or("all"), seed, rho)? {
        obs_debug!("running allocator {}", algo.name());
        let allocation = algo.allocate(&instance);
        allocation
            .validate(&instance)
            .map_err(|e| ArgError(format!("{}: {e}", algo.name())))?;
        let m = Metrics::compute(&instance, &allocation);
        out.push_str(&format!(
            "{:<14} {:>12.1} {:>8} {:>8} {:>9.1} {:>9.1}\n",
            algo.name(),
            m.total_profit.get(),
            m.edge_served,
            m.cloud_forwarded,
            m.same_sp_fraction * 100.0,
            m.rrb_utilization * 100.0
        ));
    }
    Ok(out)
}

fn cmd_sweep(parsed: &ParsedArgs) -> Result<String, ArgError> {
    parsed.expect_keys(&[
        "seed",
        "iota",
        "placement",
        "reps",
        "format",
        "threads",
        "log-level",
        "trace-out",
        "record",
        "sample-every",
        "metrics-addr",
        "candidate-batch",
    ])?;
    let base = scenario_from(parsed)?;
    let reps = parsed.get_or("reps", 3u32)?;
    if reps == 0 {
        return Err(ArgError("--reps must be at least 1".into()));
    }
    let runner =
        SweepRunner::new(reps, parsed.get_or("seed", 42u64)?).with_threads(threads_from(parsed)?);
    let points: Vec<(f64, ScenarioConfig)> = dmra_sim::experiments::UE_COUNTS
        .iter()
        .map(|&n| (n as f64, base.clone().with_ues(n)))
        .collect();
    let dmra = Dmra::default();
    let dcsp = Dcsp::default();
    let nonco = NonCo::default();
    let algos: Vec<&dyn Allocator> = vec![&dmra, &dcsp, &nonco];
    let table = runner
        .run_profit("Total SP profit vs number of UEs", "#UEs", &points, &algos)
        .map_err(|e| ArgError(e.to_string()))?;
    match parsed.get("format").unwrap_or("markdown") {
        "markdown" => Ok(table.to_markdown()),
        "csv" => Ok(table.to_csv()),
        other => Err(ArgError(format!(
            "--format must be 'markdown' or 'csv', got '{other}'"
        ))),
    }
}

/// Parses a `--drop PCT` percentage into a probability in `[0, 1)`.
fn drop_probability(parsed: &ParsedArgs) -> Result<f64, ArgError> {
    let drop_pct = parsed.get_or("drop", 0.0f64)?;
    if !(0.0..100.0).contains(&drop_pct) {
        return Err(ArgError("--drop must be a percentage in [0, 100)".into()));
    }
    Ok(drop_pct / 100.0)
}

/// Parses the `--delay` spec (`immediate | fixed:N | random:MAX`).
fn delay_spec(parsed: &ParsedArgs) -> Result<ProtoDelay, ArgError> {
    parsed
        .get("delay")
        .unwrap_or("immediate")
        .parse::<ProtoDelay>()
        .map_err(|e| ArgError(format!("--delay: {e}")))
}

/// Parses `--crash BS@N[,BS@N...]` against the scenario's BS count.
/// `N` is a protocol round under `protocol` and a simulation epoch under
/// `dynamic --engine proto`.
fn crash_spec(parsed: &ParsedArgs, n_bss: usize) -> Result<Vec<(BsId, usize)>, ArgError> {
    let Some(raw) = parsed.get("crash") else {
        return Ok(Vec::new());
    };
    let mut crashes = Vec::new();
    for part in raw.split(',') {
        let (bs, at) = part
            .split_once('@')
            .and_then(|(b, a)| Some((b.parse::<u32>().ok()?, a.parse::<usize>().ok()?)))
            .ok_or_else(|| {
                ArgError(format!(
                    "--crash entries must look like 'BS@N', got '{part}'"
                ))
            })?;
        if bs as usize >= n_bss {
            return Err(ArgError(format!(
                "--crash names unknown BS {bs} (scenario has {n_bss} BSs)"
            )));
        }
        crashes.push((BsId::new(bs), at));
    }
    Ok(crashes)
}

fn cmd_protocol(parsed: &ParsedArgs) -> Result<String, ArgError> {
    parsed.expect_keys(&[
        "ues",
        "seed",
        "drop",
        "delay",
        "crash",
        "iota",
        "placement",
        "rho",
        "log-level",
        "record",
        "sample-every",
        "metrics-addr",
    ])?;
    let drop_prob = drop_probability(parsed)?;
    let seed = parsed.get_or("seed", 42u64)?;
    let rho = parsed.get_or("rho", 100.0f64)?;
    let mut cfg = scenario_from(parsed)?;
    cfg.n_ues = parsed.get_or("ues", 400usize)?;
    let instance = cfg.build().map_err(|e| ArgError(e.to_string()))?;
    let policy = if drop_prob > 0.0 {
        DropPolicy::new(drop_prob, seed)
    } else {
        DropPolicy::reliable()
    };
    let delay = delay_spec(parsed)?;
    let crashed_bss = crash_spec(parsed, instance.n_bss())?;
    let defaults = ProtocolOptions::default();
    let out = run_protocol(
        &instance,
        &DmraConfig::paper_defaults().with_rho(rho),
        ProtocolOptions {
            drop_policy: policy,
            delay: delay.to_model(seed),
            crashed_bss,
            // Widen the grace by the delay bound so a maximally-delayed
            // retry still counts as activity (same rule as the dynamic
            // proto engine).
            quiescence_grace: defaults.quiescence_grace + delay.extra_bound() as usize,
            ..defaults
        },
    )
    .map_err(|e| ArgError(e.to_string()))?;
    let mut text = format!(
        "rounds:    {}\nmessages:  {} ({} dropped, {} absorbed by crash, {} bytes)\n",
        out.stats.rounds,
        out.stats.messages_sent,
        out.stats.messages_dropped,
        out.stats.absorbed_by_crash,
        out.stats.bytes_sent
    );
    for (kind, count) in &out.stats.by_kind {
        text.push_str(&format!("  {kind:<18} {count}\n"));
    }
    text.push_str(&format!(
        "served:    {} of {}\nprofit:    {:.1}\nconflicts: {}\n",
        out.allocation.edge_served(),
        instance.n_ues(),
        instance.total_profit(&out.allocation).get(),
        out.conflicting_accepts
    ));
    Ok(text)
}

/// Parses the fault-injection flags for `dynamic`; they only make sense
/// for the protocol-backed engine, so any of them with another engine is
/// an error.
fn proto_fault_spec(parsed: &ParsedArgs, n_bss: usize) -> Result<ProtoFaults, ArgError> {
    let engine = parsed.get("engine").unwrap_or("incremental");
    let faulty = ["drop", "delay", "crash"]
        .iter()
        .any(|k| parsed.get(k).is_some());
    if faulty && engine != "proto" {
        return Err(ArgError(format!(
            "--drop/--delay/--crash require the proto engine, got --engine {engine}"
        )));
    }
    Ok(ProtoFaults {
        drop_prob: drop_probability(parsed)?,
        delay: delay_spec(parsed)?,
        crashes: crash_spec(parsed, n_bss)?,
        max_rounds: 0,
    })
}

fn cmd_dynamic(parsed: &ParsedArgs) -> Result<String, ArgError> {
    parsed.expect_keys(&[
        "rate",
        "holding",
        "epochs",
        "seed",
        "iota",
        "placement",
        "engine",
        "drop",
        "delay",
        "crash",
        "log-level",
        "trace-out",
        "record",
        "sample-every",
        "metrics-addr",
        "candidate-batch",
    ])?;
    let (holding, mean_holding) = parse_holding(parsed.get("holding").unwrap_or("5"))?;
    let config = DynamicConfig {
        scenario: scenario_from(parsed)?,
        arrival_rate: parsed.get_or("rate", 40.0f64)?,
        mean_holding,
        holding,
        epochs: parsed.get_or("epochs", 50usize)?,
        seed: parsed.get_or("seed", 42u64)?,
    };
    obs_debug!(
        "dynamic: rate {} holding {}:{} epochs {}",
        config.arrival_rate,
        config.holding,
        config.mean_holding,
        config.epochs
    );
    let n_bss = config.scenario.n_bss() as usize;
    let simulator = DynamicSimulator::new(config);
    let faults = proto_fault_spec(parsed, n_bss)?;
    // Both engines are bit-identical under proto's default fault-free
    // spec; `proto` computes each epoch's matching by message-passing
    // agents and is the only engine taking --drop/--delay/--crash.
    let out = match parsed.get("engine").unwrap_or("incremental") {
        "incremental" => simulator.run(),
        "proto" => simulator.run_proto(&faults),
        other => {
            return Err(ArgError(format!(
                "--engine must be 'incremental' or 'proto', got '{other}'"
            )))
        }
    }
    .map_err(|e| ArgError(e.to_string()))?;
    Ok(format!(
        "arrivals:          {}\nadmitted:          {} ({:.1}%)\ncloud forwarded:   {}\n\
         completed:         {}\ntotal profit:      {:.1}\nsteady-state RRB:  {:.1}%\n",
        out.arrivals,
        out.admitted,
        out.admission_ratio() * 100.0,
        out.cloud_forwarded,
        out.completed,
        out.total_profit.get(),
        out.steady_state_occupancy() * 100.0
    ))
}

/// Parses the `--holding` argument. Three accepted shapes:
///
/// * a bare number (`--holding 5`) — geometric holding with that mean,
///   the pre-distribution behaviour;
/// * a distribution name (`--holding exp`) — that distribution with the
///   default mean of 5 epochs;
/// * `name:mean` (`--holding det:3`) — both at once.
fn parse_holding(raw: &str) -> Result<(HoldingDistribution, f64), ArgError> {
    if let Ok(mean) = raw.parse::<f64>() {
        return Ok((HoldingDistribution::Geometric, mean));
    }
    let (name, mean) = match raw.split_once(':') {
        Some((name, mean_raw)) => {
            let mean = mean_raw.parse::<f64>().map_err(|_| {
                ArgError(format!(
                    "cannot parse holding mean '{mean_raw}' in --holding {raw}"
                ))
            })?;
            (name, mean)
        }
        None => (raw, 5.0),
    };
    let dist = name
        .parse::<HoldingDistribution>()
        .map_err(|e| ArgError(e.to_string()))?;
    Ok((dist, mean))
}

fn cmd_mobility(parsed: &ParsedArgs) -> Result<String, ArgError> {
    parsed.expect_keys(&[
        "ues",
        "speed",
        "epochs",
        "seed",
        "iota",
        "placement",
        "policy",
        "stationary",
        "log-level",
        "trace-out",
        "record",
        "sample-every",
        "metrics-addr",
        "candidate-batch",
    ])?;
    let speed = parsed.get_or("speed", 5.0f64)?;
    if speed < 0.0 {
        return Err(ArgError("--speed must be non-negative".into()));
    }
    let mut scenario = scenario_from(parsed)?;
    scenario.n_ues = parsed.get_or("ues", 300usize)?;
    let policy = match parsed.get("policy").unwrap_or("full") {
        "full" => MobilityPolicy::FullReallocation,
        "sticky" => MobilityPolicy::Sticky,
        other => {
            return Err(ArgError(format!(
                "--policy must be 'full' or 'sticky', got '{other}'"
            )))
        }
    };
    let config = MobilityConfig {
        scenario,
        speed_mps: (speed, speed),
        epoch_seconds: 10.0,
        epochs: parsed.get_or("epochs", 30usize)?,
        seed: parsed.get_or("seed", 42u64)?,
        policy,
        stationary_fraction: parsed.get_or("stationary", 0.0f64)?,
    };
    let out = MobilitySimulator::new(config)
        .run()
        .map_err(|e| ArgError(e.to_string()))?;
    let served_last = out.served_timeline.last().copied().unwrap_or(0);
    Ok(format!(
        "handovers:       {}\nhandover rate:   {:.4} per served-UE-epoch\n\
         drops:           {}\nrecoveries:      {}\nserved (final):  {served_last}\n",
        out.handovers,
        out.handover_rate(),
        out.drops,
        out.recoveries
    ))
}

fn cmd_plan(parsed: &ParsedArgs) -> Result<String, ArgError> {
    parsed.expect_keys(&[
        "rate",
        "holding",
        "target",
        "iota",
        "placement",
        "seed",
        "log-level",
    ])?;
    let rate = parsed.get_or("rate", 100.0f64)?;
    let holding = parsed.get_or("holding", 5.0f64)?;
    let target_pct = parsed.get_or("target", 2.0f64)?;
    if !(0.0 < target_pct && target_pct <= 100.0) {
        return Err(ArgError("--target must be a percentage in (0, 100]".into()));
    }
    let scenario = scenario_from(parsed)?;
    let model = TrunkModel::estimate(&scenario, 400, parsed.get_or("seed", 42u64)?)
        .map_err(|e| ArgError(e.to_string()))?;
    let offered = rate * holding;
    let blocking = model.predicted_blocking(rate, holding);
    let needed = dmra_sim::erlang::servers_for_blocking(offered, target_pct / 100.0);
    Ok(format!(
        "trunk model:        {} effective servers ({:.2} RRBs/task)\n\
         offered load:       {offered:.1} erlang\npredicted blocking: {:.2}%\n\
         servers needed for {target_pct}% blocking: {needed}\n",
        model.servers,
        model.mean_rrbs_per_task,
        blocking * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, ArgError> {
        dispatch(&ParsedArgs::parse(args.iter().copied()).unwrap())
    }

    #[test]
    fn help_lists_every_command() {
        let text = help_text();
        for cmd in ["run", "sweep", "protocol", "dynamic"] {
            assert!(text.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn run_command_produces_metric_table() {
        let text = run(&["run", "--ues", "80", "--algo", "dmra"]).unwrap();
        assert!(text.contains("DMRA"));
        assert!(text.contains("profit"));
    }

    #[test]
    fn run_rejects_bad_algo_and_placement() {
        assert!(run(&["run", "--algo", "magic"]).is_err());
        assert!(run(&["run", "--placement", "orbital"]).is_err());
    }

    #[test]
    fn protocol_reports_messages() {
        let text = run(&["protocol", "--ues", "60", "--drop", "10"]).unwrap();
        assert!(text.contains("service-request"));
        assert!(text.contains("dropped"));
    }

    #[test]
    fn protocol_rejects_full_loss() {
        assert!(run(&["protocol", "--drop", "100"]).is_err());
    }

    #[test]
    fn protocol_accepts_delay_and_crash() {
        let args = ["protocol", "--ues", "60", "--seed", "7"];
        // An explicit immediate delay is the default spelled out.
        let plain = run(&args).unwrap();
        let immediate = run(&[&args[..], &["--delay", "immediate"]].concat()).unwrap();
        assert_eq!(plain, immediate);
        // Faulty runs still report, and a crashed BS absorbs messages.
        let crashed =
            run(&[&args[..], &["--delay", "fixed:1", "--crash", "0@2,1@3"]].concat()).unwrap();
        assert!(crashed.contains("absorbed by crash"), "{crashed}");
        assert!(crashed.contains("served:"), "{crashed}");
    }

    #[test]
    fn protocol_rejects_bad_delay_and_crash_specs() {
        let err = run(&["protocol", "--delay", "soonish"]).unwrap_err();
        assert!(err.to_string().contains("--delay"), "{err}");
        let err = run(&["protocol", "--delay", "fixed:lots"]).unwrap_err();
        assert!(err.to_string().contains("fixed:lots"), "{err}");
        let err = run(&["protocol", "--crash", "0x3"]).unwrap_err();
        assert!(err.to_string().contains("BS@N"), "{err}");
        let err = run(&["protocol", "--crash", "99@1"]).unwrap_err();
        assert!(err.to_string().contains("unknown BS 99"), "{err}");
    }

    #[test]
    fn dynamic_reports_admissions() {
        let text = run(&[
            "dynamic",
            "--rate",
            "10",
            "--epochs",
            "10",
            "--holding",
            "2",
        ])
        .unwrap();
        assert!(text.contains("admitted"));
        assert!(text.contains("steady-state"));
    }

    #[test]
    fn dynamic_engines_print_identical_reports() {
        let args = ["--rate", "15", "--epochs", "12", "--holding", "3"];
        let incremental =
            run(&[&["dynamic", "--engine", "incremental"], &args[..]].concat()).unwrap();
        let proto = run(&[&["dynamic", "--engine", "proto"], &args[..]].concat()).unwrap();
        assert_eq!(incremental, proto);
    }

    #[test]
    fn dynamic_proto_engine_takes_fault_flags() {
        let text = run(&[
            "dynamic",
            "--engine",
            "proto",
            "--rate",
            "10",
            "--epochs",
            "10",
            "--holding",
            "2",
            "--drop",
            "20",
            "--delay",
            "random:2",
            "--crash",
            "1@3",
        ])
        .unwrap();
        assert!(text.contains("admitted"), "{text}");
    }

    #[test]
    fn dynamic_fault_flags_require_the_proto_engine() {
        for flags in [
            &["--drop", "10"][..],
            &["--delay", "fixed:1"][..],
            &["--crash", "0@2"][..],
        ] {
            let err = run(&[&["dynamic"], flags].concat()).unwrap_err();
            assert!(err.to_string().contains("proto"), "{err}");
            let err = run(&[&["dynamic", "--engine", "incremental"], flags].concat()).unwrap_err();
            assert!(err.to_string().contains("proto"), "{err}");
        }
    }

    #[test]
    fn dynamic_proto_rejects_bad_fault_specs() {
        let base = ["dynamic", "--engine", "proto"];
        let err = run(&[&base[..], &["--drop", "100"]].concat()).unwrap_err();
        assert!(err.to_string().contains("[0, 100)"), "{err}");
        let err = run(&[&base[..], &["--delay", "eventually"]].concat()).unwrap_err();
        assert!(err.to_string().contains("--delay"), "{err}");
        let err = run(&[&base[..], &["--crash", "999@0"]].concat()).unwrap_err();
        assert!(err.to_string().contains("unknown BS 999"), "{err}");
    }

    #[test]
    fn dynamic_rejects_unknown_engine() {
        let err = run(&["dynamic", "--engine", "warp"]).unwrap_err();
        assert!(err.to_string().contains("--engine"));
    }

    #[test]
    fn dynamic_accepts_holding_distributions() {
        for holding in ["exp", "exponential:4", "det:3", "geometric:5", "geo"] {
            let text = run(&[
                "dynamic",
                "--rate",
                "8",
                "--epochs",
                "10",
                "--holding",
                holding,
            ])
            .unwrap();
            assert!(text.contains("admitted"), "--holding {holding} failed");
        }
        // A bare number is still geometric with that mean: same report.
        let args = ["--rate", "8", "--epochs", "10"];
        let numeric = run(&[&["dynamic", "--holding", "5"], &args[..]].concat()).unwrap();
        let named = run(&[&["dynamic", "--holding", "geometric:5"], &args[..]].concat()).unwrap();
        assert_eq!(numeric, named);
    }

    #[test]
    fn dynamic_rejects_bad_holding() {
        let err = run(&["dynamic", "--holding", "weibull"]).unwrap_err();
        assert!(err.to_string().contains("weibull"));
        let err = run(&["dynamic", "--holding", "exp:soon"]).unwrap_err();
        assert!(err.to_string().contains("soon"));
    }

    #[test]
    fn dynamic_rejects_invalid_config_values() {
        // Validation errors surface as CLI errors, not silent clamps.
        let err = run(&["dynamic", "--rate", "-3"]).unwrap_err();
        assert!(err.to_string().contains("arrival_rate"));
        let err = run(&["dynamic", "--holding", "0.5"]).unwrap_err();
        assert!(err.to_string().contains("mean_holding"));
        let err = run(&["dynamic", "--holding", "exp:0.2"]).unwrap_err();
        assert!(err.to_string().contains("mean_holding"));
    }

    #[test]
    fn mobility_reports_handovers() {
        let text = run(&["mobility", "--ues", "60", "--speed", "15", "--epochs", "6"]).unwrap();
        assert!(text.contains("handover rate"));
    }

    #[test]
    fn mobility_rejects_unknown_engine() {
        let err = run(&["mobility", "--engine", "warp"]).unwrap_err();
        assert!(err.to_string().contains("--engine"));
    }

    #[test]
    fn removed_engines_and_shard_flags_are_rejected() {
        // `dynamic` runs one epoch loop; its error names both engines it
        // still has, so a removed engine points at the replacement.
        for engine in ["event", "scratch"] {
            let err = run(&["dynamic", "--engine", engine]).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(engine) && msg.contains("'incremental' or 'proto'"),
                "{engine}: {msg}"
            );
        }
        // `mobility` has no engine choice, and neither command shards.
        for args in [
            &["mobility", "--engine", "incremental"][..],
            &["mobility", "--engine", "scratch"][..],
            &["dynamic", "--shards", "4"][..],
            &["dynamic", "--shard-grid", "2x2"][..],
            &["mobility", "--shards", "2"][..],
            &["mobility", "--shard-grid", "3x3"][..],
        ] {
            let err = run(args).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unknown option {}", args[1])),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn reports_start_every_line_at_the_margin() {
        for args in [
            &["dynamic", "--rate", "8", "--epochs", "6"][..],
            &["mobility", "--ues", "40", "--speed", "12", "--epochs", "3"][..],
            &["plan"][..],
        ] {
            let text = run(args).unwrap();
            for line in text.lines() {
                assert!(
                    !line.starts_with(char::is_whitespace),
                    "{args:?}: indented report line {line:?}"
                );
            }
        }
    }

    #[test]
    fn mobility_rejects_bad_stationary_fraction() {
        let err = run(&["mobility", "--stationary", "1.5"]).unwrap_err();
        assert!(err.to_string().contains("stationary"));
    }

    #[test]
    fn candidate_batch_exact_is_the_default_and_garbage_is_rejected() {
        // The approx path is exercised in tests/candidate_batch.rs, which
        // runs in its own process: flipping the process-global kernel
        // mode here would race the other unit tests.
        let exact = run(&["run", "--ues", "60", "--candidate-batch", "exact"]).unwrap();
        let default = run(&["run", "--ues", "60"]).unwrap();
        assert_eq!(exact, default);
        let err = run(&["run", "--candidate-batch", "fuzzy"]).unwrap_err();
        assert!(err.to_string().contains("--candidate-batch"));
    }

    #[test]
    fn solve_option_is_rejected_by_every_command() {
        // DMRA has one solve path, so no command takes `--solve`.
        for cmd in ["run", "sweep", "dynamic", "mobility"] {
            let err = run(&[cmd, "--solve", "components"]).unwrap_err();
            assert!(
                err.to_string().contains("unknown option --solve"),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn plan_reports_blocking() {
        let text = run(&["plan", "--rate", "200", "--holding", "5"]).unwrap();
        assert!(text.contains("predicted blocking"));
        assert!(text.contains("erlang"));
    }

    #[test]
    fn sweep_emits_csv_when_asked() {
        // reps 1 and the smallest sweep still goes through all UE counts;
        // keep it cheap but real.
        let text = run(&["sweep", "--reps", "1", "--format", "csv"]).unwrap();
        assert!(text.starts_with("#UEs,DMRA_mean"));
    }

    #[test]
    fn run_output_is_identical_across_thread_counts() {
        let serial = run(&["run", "--ues", "80", "--threads", "1"]).unwrap();
        let par = run(&["run", "--ues", "80", "--threads", "3"]).unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn threads_rejects_garbage() {
        let err = run(&["run", "--ues", "40", "--threads", "many"]).unwrap_err();
        assert!(err.to_string().contains("cannot parse"));
    }

    #[test]
    fn unknown_option_is_rejected() {
        let err = run(&["dynamic", "--warp", "9"]).unwrap_err();
        assert!(err.to_string().contains("--warp"));
    }

    #[test]
    fn bad_log_level_is_rejected() {
        let err = run(&["run", "--ues", "40", "--log-level", "chatty"]).unwrap_err();
        assert!(err.to_string().contains("chatty"));
    }

    #[test]
    fn quiet_and_verbose_flags_are_accepted_everywhere() {
        run(&["plan", "--quiet"]).unwrap();
        run(&["plan", "-v"]).unwrap();
    }

    #[test]
    fn trace_out_writes_json_and_appends_report() {
        let path = std::env::temp_dir().join(format!("dmra-trace-{}.json", std::process::id()));
        let text = run(&[
            "dynamic",
            "--rate",
            "10",
            "--epochs",
            "8",
            "--holding",
            "2",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        // The command output still leads, then the telemetry report.
        assert!(text.contains("admitted"));
        assert!(text.contains("telemetry report"));
        assert!(text.contains("dmra.solves"));
        assert!(text.contains("sim.epoch_ns"));
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(json.contains("\"schema\": \"dmra-obs/1\""));
        assert!(json.contains("\"command\": \"dynamic\""));
        assert!(json.contains("\"sim.epoch\""));
        assert!(json.contains("\"dmra.solve\""));
        assert!(json.contains("\"online.epoch_build\""));
        // Telemetry is switched off again after the traced run.
        assert!(!dmra_obs::enabled());
    }

    #[test]
    fn record_writes_jsonl_flight_records() {
        let path = std::env::temp_dir().join(format!("dmra-record-{}.jsonl", std::process::id()));
        let text = run(&[
            "dynamic",
            "--rate",
            "10",
            "--epochs",
            "8",
            "--holding",
            "2",
            "--record",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("admitted"));
        assert!(text.contains("flight record:"), "{text}");
        let jsonl = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Every line is a flight record; the dynamic run contributed
        // `sim.epoch` records (other concurrently running tests may have
        // appended records of other streams through the global slot).
        assert!(jsonl.lines().count() >= 8, "{jsonl}");
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with("{\"schema\": \"dmra-flight/1\"")));
        assert!(jsonl.contains("\"stream\": \"sim.epoch\""));
        assert!(jsonl.contains("\"digest\":"));
    }

    #[test]
    fn protocol_record_emits_round_stream() {
        let path =
            std::env::temp_dir().join(format!("dmra-record-proto-{}.jsonl", std::process::id()));
        run(&[
            "protocol",
            "--ues",
            "60",
            "--record",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let jsonl = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(jsonl.contains("\"stream\": \"proto.round\""), "{jsonl}");
        assert!(jsonl.contains("\"delivered\":"));
    }

    #[test]
    fn sample_every_requires_record_and_rejects_zero() {
        let err = run(&["dynamic", "--sample-every", "3"]).unwrap_err();
        assert!(err.to_string().contains("--record"));
        let path = std::env::temp_dir().join(format!("dmra-se0-{}.jsonl", std::process::id()));
        let err = run(&[
            "dynamic",
            "--record",
            path.to_str().unwrap(),
            "--sample-every",
            "0",
        ])
        .unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn metrics_addr_binds_and_serves_for_the_run() {
        let text = run(&[
            "dynamic",
            "--rate",
            "8",
            "--epochs",
            "6",
            "--holding",
            "2",
            "--metrics-addr",
            "127.0.0.1:0",
        ])
        .unwrap();
        assert!(text.contains("admitted"));
        let err = run(&["dynamic", "--metrics-addr", "256.0.0.1:0"]).unwrap_err();
        assert!(err.to_string().contains("metrics server"));
    }
}
