//! Online (dynamic) simulation: UEs arrive, hold resources, and depart.
//!
//! Section V of the paper motivates DMRA's decentralized design with the
//! observation that "the best association changes over time" and each SP
//! must "adjust its resource allocation strategy in real time". This
//! module exercises exactly that regime:
//!
//! * tasks arrive as a Poisson process (`arrival_rate` per epoch),
//! * each admitted task holds its CRUs and RRBs for a random duration
//!   drawn from a configurable [`HoldingDistribution`] (geometric — the
//!   paper-adjacent default — deterministic, or continuous exponential)
//!   with mean `mean_holding` (validated ≥ 1 epoch),
//! * at every epoch the batch of *new* arrivals is matched by a fresh DMRA
//!   run against the BSs' *currently remaining* resources (existing
//!   assignments are never migrated — admitted tasks keep their BS until
//!   they complete, as in the paper's one-BS-per-task model).
//!
//! The per-epoch matching reuses the static machinery: an epoch instance
//! is built whose BS budgets are the remaining capacities, so all static
//! invariants (constraint validation, non-wastefulness) apply verbatim.
//!
//! One epoch loop serves both shipped entry points. A
//! [`DeploymentContext`] validates the deployment once, keeps the spatial
//! prune index and link evaluator across epochs, and rebuilds the epoch
//! instance in place from the engine's one [`Budgets`] table, patching
//! the BSs whose budgets departures and admissions changed since the
//! previous build. Only the epoch's matcher differs:
//!
//! * [`DynamicSimulator::run`] — the allocator, through a reusable
//!   [`dmra_core::AllocatorSession`] so per-epoch solves stop allocating;
//! * [`DynamicSimulator::run_proto`] — the message-passing DMRA protocol
//!   ([`dmra_core::agents::run_protocol`]), optionally under faults.
//!
//! [`DynamicSimulator::run_scratch`] is the original rebuild-from-scratch
//! loop (a full [`ProblemInstance::residual`] build with an exhaustive
//! candidate scan each epoch), kept as the executable specification: the
//! `incremental` integration tests pin `run` bit-identical to it for
//! every allocator, holding distribution, arrival rate and seed.
//!
//! Every loop consumes the **same RNG stream** (per epoch: one Poisson
//! draw, then — only if the batch is non-empty — the arrival workloads
//! followed by one pre-drawn holding sample per arrival), so a seed fixes
//! the workload trace regardless of loop, allocator or telemetry.
//!
//! # Examples
//!
//! ```
//! use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};
//! use dmra_sim::ScenarioConfig;
//!
//! let config = DynamicConfig {
//!     scenario: ScenarioConfig::paper_defaults(),
//!     arrival_rate: 20.0,
//!     mean_holding: 5.0,
//!     holding: HoldingDistribution::Geometric,
//!     epochs: 30,
//!     seed: 7,
//! };
//! let outcome = DynamicSimulator::new(config).run()?;
//! assert_eq!(
//!     outcome.arrivals,
//!     outcome.admitted + outcome.cloud_forwarded
//! );
//! # Ok::<(), dmra_types::Error>(())
//! ```

use crate::config::ScenarioConfig;
use dmra_core::agents::{run_protocol, ProtocolOptions};
use dmra_core::{
    Allocation, Allocator, Budgets, CandidateScan, DeploymentContext, Dmra, DmraConfig,
    ProblemInstance,
};
use dmra_geo::rng::component_rng;
use dmra_obs::{obs_warn, EpochObserver, EpochRecord};
use dmra_proto::{DelayModel, DropPolicy};
use dmra_types::{
    BitsPerSec, BsId, Cru, Error, Money, Result, RrbCount, ServiceId, SpId, UeId, UeSpec,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// How long an admitted task holds its resources.
///
/// Every variant draws durations with mean [`DynamicConfig::mean_holding`]
/// epochs (validated ≥ 1). Samples are departure *offsets* from the
/// admission epoch; resources are released at the first epoch boundary at
/// or past the departure time, so every task occupies its BS for at least
/// one full epoch.
///
/// RNG-stream discipline (DESIGN.md §9): `Geometric` consumes one
/// uniform draw per survived epoch, `Exponential` exactly one uniform per
/// task, and `Deterministic` none — so within one distribution the
/// workload trace depends only on the seed, never on the allocator or
/// the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HoldingDistribution {
    /// Discrete geometric duration `1 + k`, `k ~ Geom(p = 1/mean)` —
    /// the memoryless discrete distribution the simulator always had.
    #[default]
    Geometric,
    /// Every task holds exactly `round(mean)` epochs (deterministic
    /// service, the `M/D/c/c` column of teletraffic tables).
    Deterministic,
    /// Continuous exponential duration with the given mean; departures
    /// land between epoch boundaries and take effect at the next one
    /// (so the *discrete* occupancy of a task is `ceil` of its draw,
    /// with mean `1 / (1 - e^(-1/mean))` ≈ `mean + ½` epochs).
    Exponential,
}

impl HoldingDistribution {
    /// Draws one departure offset (in epochs, ≥ 1 effective) for a task
    /// admitted now. `mean` must satisfy the validated `≥ 1` contract.
    fn sample<R: Rng>(self, mean: f64, rng: &mut R) -> f64 {
        debug_assert!(mean.is_finite() && mean >= 1.0);
        match self {
            HoldingDistribution::Geometric => (1 + geometric(mean, rng)) as f64,
            HoldingDistribution::Deterministic => mean.round(),
            HoldingDistribution::Exponential => {
                // `1 - u` maps [0, 1) onto (0, 1] so the logarithm is finite.
                -mean * (1.0 - rng.random_range(0.0..1.0)).ln()
            }
        }
    }
}

impl fmt::Display for HoldingDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HoldingDistribution::Geometric => "geometric",
            HoldingDistribution::Deterministic => "deterministic",
            HoldingDistribution::Exponential => "exponential",
        })
    }
}

/// Error parsing a [`HoldingDistribution`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHoldingError(String);

impl fmt::Display for ParseHoldingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown holding distribution '{}' (expected geometric, det or exp)",
            self.0
        )
    }
}

impl std::error::Error for ParseHoldingError {}

impl std::str::FromStr for HoldingDistribution {
    type Err = ParseHoldingError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "geometric" | "geo" => Ok(HoldingDistribution::Geometric),
            "det" | "deterministic" | "fixed" => Ok(HoldingDistribution::Deterministic),
            "exp" | "exponential" => Ok(HoldingDistribution::Exponential),
            other => Err(ParseHoldingError(other.to_owned())),
        }
    }
}

/// Configuration of an online run.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// The static deployment (SPs, BSs, radio, pricing) and the workload
    /// *distributions* (demand ranges); its `n_ues` field is ignored.
    pub scenario: ScenarioConfig,
    /// Mean number of task arrivals per epoch (Poisson). Must be finite
    /// and non-negative.
    pub arrival_rate: f64,
    /// Mean task duration in epochs. Must be finite and ≥ 1 — the same
    /// contract [`crate::erlang::TrunkModel::predicted_blocking`] clamps
    /// to, so analytics and simulation agree at the boundary.
    pub mean_holding: f64,
    /// Shape of the holding-time distribution (the mean comes from
    /// [`mean_holding`](DynamicConfig::mean_holding)).
    pub holding: HoldingDistribution,
    /// Number of epochs to simulate.
    pub epochs: usize,
    /// Seed for arrivals, workloads and holding times.
    pub seed: u64,
}

impl DynamicConfig {
    /// Checks the numeric validity of the online-run parameters.
    ///
    /// Every engine calls this up front, so a bad configuration fails
    /// loudly instead of silently clamping (`mean_holding < 1` used to be
    /// clamped to 1 inside the sampler) or silently producing zero
    /// arrivals (a negative or NaN rate passed the old `debug_assert!`
    /// in release builds).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the offending field when
    /// `arrival_rate` is negative or non-finite, or `mean_holding` is
    /// below one epoch or non-finite.
    pub fn validate(&self) -> Result<()> {
        if !self.arrival_rate.is_finite() || self.arrival_rate < 0.0 {
            return Err(Error::InvalidConfig(format!(
                "arrival_rate ({}) must be finite and non-negative",
                self.arrival_rate
            )));
        }
        if !self.mean_holding.is_finite() || self.mean_holding < 1.0 {
            return Err(Error::InvalidConfig(format!(
                "mean_holding ({}) must be finite and at least 1 epoch",
                self.mean_holding
            )));
        }
        Ok(())
    }
}

/// Delivery-delay spec for the protocol-backed dynamic engine.
///
/// This is [`DelayModel`] minus the seed: the engine derives a fresh,
/// deterministic seed per epoch from the run seed (see
/// [`ProtoFaults::epoch_options`]), so the same fault spec replays
/// different per-message draws each epoch while a run seed still fixes
/// every draw of the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtoDelay {
    /// Every message arrives next round (the synchronous default).
    #[default]
    Immediate,
    /// Every message takes `1 + extra` rounds.
    Fixed(u32),
    /// Each message independently takes `1 + U{0..=max_extra}` rounds.
    Random(u32),
}

impl ProtoDelay {
    /// Upper bound on the extra in-flight rounds a message can spend —
    /// the quiescence grace must cover it so a long-delayed retry is not
    /// mistaken for silence.
    #[must_use]
    pub fn extra_bound(self) -> u32 {
        match self {
            ProtoDelay::Immediate => 0,
            ProtoDelay::Fixed(extra) | ProtoDelay::Random(extra) => extra,
        }
    }

    /// Instantiates the [`DelayModel`] this spec describes, seeding the
    /// random variant's per-message draws from `seed`.
    #[must_use]
    pub fn to_model(self, seed: u64) -> DelayModel {
        match self {
            ProtoDelay::Immediate => DelayModel::Immediate,
            ProtoDelay::Fixed(extra) => DelayModel::Fixed { extra },
            ProtoDelay::Random(max_extra) => DelayModel::Random { max_extra, seed },
        }
    }
}

impl fmt::Display for ProtoDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoDelay::Immediate => f.write_str("immediate"),
            ProtoDelay::Fixed(extra) => write!(f, "fixed:{extra}"),
            ProtoDelay::Random(max) => write!(f, "random:{max}"),
        }
    }
}

/// Error parsing a [`ProtoDelay`] spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDelayError(String);

impl fmt::Display for ParseDelayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid delay spec '{}' (expected immediate, fixed:N or random:MAX)",
            self.0
        )
    }
}

impl std::error::Error for ParseDelayError {}

impl std::str::FromStr for ProtoDelay {
    type Err = ParseDelayError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        if s == "immediate" || s == "none" {
            return Ok(ProtoDelay::Immediate);
        }
        let parse_n = |n: &str| n.parse::<u32>().map_err(|_| ParseDelayError(s.to_owned()));
        match s.split_once(':') {
            Some(("fixed", n)) => parse_n(n).map(ProtoDelay::Fixed),
            Some(("random", n)) => parse_n(n).map(ProtoDelay::Random),
            _ => Err(ParseDelayError(s.to_owned())),
        }
    }
}

/// Fault injection for [`DynamicSimulator::run_proto`]: the per-epoch
/// protocol runs under message loss, delivery delay and BS fail-stop
/// crashes. [`ProtoFaults::default`] is reliable immediate delivery with
/// no crashes — under it the engine is bit-identical to
/// [`DynamicSimulator::run`].
#[derive(Debug, Clone, Default)]
pub struct ProtoFaults {
    /// Per-message drop probability, in `[0, 1)`.
    pub drop_prob: f64,
    /// Delivery-delay spec.
    pub delay: ProtoDelay,
    /// BSs that fail-stop at the given *simulation epoch*: from that epoch
    /// onward the BS is crashed from round 0 of every per-epoch protocol
    /// run, so it admits nothing new. Tasks it already serves run to
    /// completion (the radio keeps carrying committed traffic; only the
    /// control plane is dead), which keeps departure bookkeeping identical
    /// across engines.
    pub crashes: Vec<(BsId, usize)>,
    /// Per-epoch round bound before declaring non-termination
    /// (0 = the [`ProtocolOptions`] default of 100 000).
    pub max_rounds: usize,
}

impl ProtoFaults {
    /// Checks the fault spec against the deployment.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `drop_prob` is outside
    /// `[0, 1)` (1 would drop everything and the protocol could never
    /// converge) or a crash names a BS the deployment does not have.
    pub fn validate(&self, n_bss: usize) -> Result<()> {
        if !(0.0..1.0).contains(&self.drop_prob) {
            return Err(Error::InvalidConfig(format!(
                "drop probability ({}) must be in [0, 1)",
                self.drop_prob
            )));
        }
        for &(bs, _) in &self.crashes {
            if bs.as_usize() >= n_bss {
                return Err(Error::InvalidConfig(format!(
                    "crash names unknown {bs} (deployment has {n_bss} BSs)"
                )));
            }
        }
        Ok(())
    }

    /// Builds the [`ProtocolOptions`] for one epoch's protocol run.
    ///
    /// Fault randomness is a *separate* RNG stream from the workload: the
    /// drop and delay samplers are seeded from `(run_seed, epoch)` via a
    /// splitmix-style mix (and further separated per component inside
    /// `dmra-proto`), never from the arrival RNG — so attaching telemetry
    /// or changing the fault spec cannot perturb the workload trace, and
    /// the workload seed cannot perturb the fault draws of another epoch.
    #[must_use]
    pub fn epoch_options(&self, run_seed: u64, epoch: usize) -> ProtocolOptions {
        let seed = epoch_fault_seed(run_seed, epoch);
        let defaults = ProtocolOptions::default();
        ProtocolOptions {
            drop_policy: DropPolicy::new(self.drop_prob, seed),
            delay: self.delay.to_model(seed),
            crashed_bss: self
                .crashes
                .iter()
                .filter(|&&(_, at)| at <= epoch)
                .map(|&(bs, _)| (bs, 0))
                .collect(),
            max_rounds: if self.max_rounds == 0 {
                defaults.max_rounds
            } else {
                self.max_rounds
            },
            // The default grace covers the retry timeout under immediate
            // delivery; widen it by the delay bound so a maximally-delayed
            // retry still counts as activity.
            quiescence_grace: defaults.quiescence_grace + self.delay.extra_bound() as usize,
        }
    }
}

/// Splitmix64-style mix of the run seed and the epoch index: each epoch's
/// protocol faults get an independent, deterministic seed stream.
fn epoch_fault_seed(run_seed: u64, epoch: usize) -> u64 {
    let mut z = run_seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Aggregate results of an online run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicOutcome {
    /// Total task arrivals over the horizon.
    pub arrivals: u64,
    /// Tasks admitted to an edge BS.
    pub admitted: u64,
    /// Tasks forwarded to the remote cloud on arrival.
    pub cloud_forwarded: u64,
    /// Tasks that completed (departed) within the horizon.
    pub completed: u64,
    /// Sum over epochs of the MEC-layer profit *rate* (each admitted task
    /// contributes its one-shot Eq. (5) profit once, at admission).
    pub total_profit: Money,
    /// Per-epoch mean RRB occupancy across BSs (0–1), for steady-state
    /// inspection.
    pub rrb_occupancy: Vec<f64>,
    /// Per-epoch number of tasks in service at epoch end.
    pub in_service: Vec<usize>,
}

impl DynamicOutcome {
    /// Fraction of arrivals admitted at the edge.
    #[must_use]
    pub fn admission_ratio(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        self.admitted as f64 / self.arrivals as f64
    }

    /// Mean RRB occupancy over the second half of the horizon (a crude
    /// steady-state estimate).
    #[must_use]
    pub fn steady_state_occupancy(&self) -> f64 {
        let half = &self.rrb_occupancy[self.rrb_occupancy.len() / 2..];
        if half.is_empty() {
            return 0.0;
        }
        half.iter().sum::<f64>() / half.len() as f64
    }
}

/// A task currently holding resources.
#[derive(Debug, Clone, Copy)]
struct ActiveTask {
    bs: BsId,
    service: ServiceId,
    cru: Cru,
    rrbs: RrbCount,
    /// Departure time in epochs; resources release at the first epoch
    /// boundary `t` with `departs_at <= t`. Integral for geometric and
    /// deterministic holding, fractional for exponential.
    departs_at: f64,
}

/// The online simulator.
pub struct DynamicSimulator {
    config: DynamicConfig,
    allocator: Box<dyn Allocator>,
    observer: Option<Arc<dyn EpochObserver>>,
}

impl fmt::Debug for DynamicSimulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynamicSimulator")
            .field("config", &self.config)
            .field("allocator", &self.allocator.name())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl DynamicSimulator {
    /// Creates a simulator matching each epoch's arrivals with DMRA.
    #[must_use]
    pub fn new(config: DynamicConfig) -> Self {
        Self::with_allocator(config, Box::new(Dmra::default()))
    }

    /// Creates a simulator using a custom allocator for the per-epoch
    /// matching — lets the online regime compare algorithms on identical
    /// arrival traces (same seed ⇒ same arrivals, positions, demands and
    /// holding times regardless of the allocator).
    #[must_use]
    pub fn with_allocator(config: DynamicConfig, allocator: Box<dyn Allocator>) -> Self {
        Self {
            config,
            allocator,
            observer: None,
        }
    }

    /// Attaches an [`EpochObserver`] (flight recorder, time-series
    /// collector, …) that receives one `"sim.epoch"` record per epoch
    /// from every engine. Without an explicit attachment the engines
    /// fall back to the process-wide slot
    /// ([`dmra_obs::set_epoch_observer`]). Observe-only: records are
    /// built after each epoch's bookkeeping is committed, so outcomes
    /// stay bit-identical with or without an observer.
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<dyn EpochObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs the simulation to the horizon, matching each epoch with the
    /// allocator: the deployment is validated once into a
    /// [`DeploymentContext`], each epoch patches remaining budgets in
    /// place and evaluates only the new arrival batch (spatially pruned),
    /// and the allocator solves through a reusable session.
    /// Bit-identical to [`DynamicSimulator::run_scratch`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an invalid [`DynamicConfig`]
    /// and propagates scenario/instance build errors (e.g. invalid
    /// pricing). Returns [`Error::OverCommit`] when the allocator admits
    /// more demand at a BS than it has left, in every build profile.
    pub fn run(&self) -> Result<DynamicOutcome> {
        self.run_epochs(None)
    }

    /// Runs the simulation with each epoch's arrival batch matched by the
    /// *actual message-passing DMRA protocol*
    /// ([`dmra_core::agents::run_protocol`]) — one `UeAgent` per arrival
    /// and one `BsAgent` per BS exchanging service requests, accepts and
    /// resource broadcasts on the synchronous-round engine — instead of
    /// the in-memory matcher. Everything else is the loop
    /// [`DynamicSimulator::run`] runs (same epoch instance, same RNG
    /// stream), so under [`ProtoFaults::default`] (reliable immediate
    /// delivery, no crashes) the outcome — and every per-epoch record
    /// digest — is bit-identical to `run` (`tests/recorder.rs` pins this
    /// across seeds).
    ///
    /// Under faults the committed allocation is whatever the protocol
    /// actually converged to: message loss and delay can leave UEs
    /// unserved or double-booked (BS-side accounting keeps every budget
    /// safe), and a crashed BS admits nothing from its crash epoch
    /// onward. When an observer is attached, each `"sim.epoch"` record
    /// carries degradation telemetry in its aux section: protocol
    /// rounds/messages/drops/crash-absorbed counts, conflicting accepts,
    /// and the profit / served-UE gap against the oracle matcher (the
    /// simulator's allocator solving the same instance). The protocol
    /// always runs DMRA with paper-default parameters; the attached
    /// allocator is only the telemetry oracle.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicSimulator::run`], plus [`Error::InvalidConfig`]
    /// for an invalid [`ProtoFaults`] spec and
    /// [`Error::NonTermination`] if an epoch's protocol run exhausts its
    /// round bound.
    pub fn run_proto(&self, faults: &ProtoFaults) -> Result<DynamicOutcome> {
        self.run_epochs(Some(faults))
    }

    /// The epoch loop behind [`DynamicSimulator::run`] (`proto` is `None`:
    /// the allocator session matches) and [`DynamicSimulator::run_proto`]
    /// (`Some`: the protocol matches, and the session only serves as the
    /// telemetry oracle, run only when an observer is attached).
    fn run_epochs(&self, proto: Option<&ProtoFaults>) -> Result<DynamicOutcome> {
        let cfg = &self.config;
        cfg.validate()?;
        // The static deployment: build once with zero UEs to get validated
        // SPs/BSs, then treat its BS budgets as the capacity baseline.
        let deployment = cfg
            .scenario
            .clone()
            .with_ues(0)
            .with_seed(cfg.seed)
            .build()?;
        if let Some(faults) = proto {
            faults.validate(deployment.bss().len())?;
        }
        let mut ctx = DeploymentContext::new(&deployment);
        let mut session = self.allocator.session();
        let proto_config = DmraConfig::paper_defaults();
        let mut rng = component_rng(cfg.seed, "dynamic-arrivals");
        let mut state = EngineState::new(&deployment, cfg.epochs);
        let mut ues: Vec<UeSpec> = Vec::new();
        // Observe-only telemetry: the flag is read once per run and every
        // recording happens after the epoch's bookkeeping is committed, so
        // the loop stays bit-identical to `run_scratch`.
        let obs_on = dmra_obs::enabled();
        let observer = self.observer.clone().or_else(dmra_obs::epoch_observer);
        let aux_counters = observer.as_ref().map(|_| AuxCounters::fetch());

        for epoch in 0..cfg.epochs {
            let epoch_started = obs_on.then(std::time::Instant::now);
            let admitted_before = state.outcome.admitted;
            let cloud_before = state.outcome.cloud_forwarded;
            let completed_before = state.outcome.completed;
            let aux_before = aux_counters.as_ref().map_or(0, AuxCounters::read);
            let budget_before = ctx.budget_pass_stats();
            state.release_departures(epoch)?;
            let n_new = poisson(cfg.arrival_rate, &mut rng);
            state.outcome.arrivals += n_new as u64;
            let mut solve_ns = 0u64;
            let mut digest = 0u64;
            let mut degradation = ProtoEpochAux::default();
            if n_new > 0 {
                self.draw_arrivals(n_new, &mut rng, &mut ues);
                // Draw holding times for *every* arrival up front so the
                // workload trace is identical across allocators (admission
                // decisions must not perturb the RNG stream).
                let offsets: Vec<f64> = (0..n_new)
                    .map(|_| cfg.holding.sample(cfg.mean_holding, &mut rng))
                    .collect();
                let instance = ctx.build_epoch(&state.budgets, &ues)?;
                let solve_started = obs_on.then(std::time::Instant::now);
                let (allocation, protocol) = match proto {
                    None => (session.allocate(instance), None),
                    Some(faults) => {
                        let options = faults.epoch_options(cfg.seed, epoch);
                        let out = run_protocol(instance, &proto_config, options)?;
                        (out.allocation, Some((out.stats, out.conflicting_accepts)))
                    }
                };
                solve_ns = record_solve_phase(obs_on, solve_started);
                state.commit_epoch(instance, &allocation, &offsets, epoch)?;
                debug_assert!(allocation.validate(instance).is_ok());
                if observer.is_some() {
                    digest = allocation.digest();
                    if let Some((stats, conflicts)) = protocol {
                        let oracle = session.allocate(instance);
                        degradation = ProtoEpochAux {
                            rounds: stats.rounds as u64,
                            messages: stats.messages_sent,
                            dropped: stats.messages_dropped,
                            absorbed: stats.absorbed_by_crash,
                            conflicts,
                            oracle_profit_gap: instance.total_profit(&oracle).get()
                                - instance.total_profit(&allocation).get(),
                            oracle_unserved_gap: oracle.edge_served() as f64
                                - allocation.edge_served() as f64,
                        };
                    }
                }
            }
            state.finish_epoch();
            let epoch_ns = epoch_started.map_or(0, |t| {
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
            });
            if obs_on {
                // Cached handles: one atomic op per metric per epoch.
                static EPOCHS: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("sim.epochs");
                static ARRIVALS: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("sim.arrivals");
                static EPOCH_NS: dmra_obs::LazyHistogram =
                    dmra_obs::LazyHistogram::new("sim.epoch_ns");
                EPOCHS.get().inc();
                ARRIVALS.get().add(n_new as u64);
                EPOCH_NS.get().record(epoch_ns);
                dmra_obs::global_trace().record(dmra_obs::TraceEvent {
                    name: "sim.epoch",
                    index: epoch as u64,
                    fields: vec![
                        ("arrivals", n_new as f64),
                        (
                            "admitted",
                            (state.outcome.admitted - admitted_before) as f64,
                        ),
                        (
                            "in_service",
                            state.outcome.in_service.last().copied().unwrap_or(0) as f64,
                        ),
                        (
                            "occupancy",
                            state.outcome.rrb_occupancy.last().copied().unwrap_or(0.0),
                        ),
                        ("wall_ns", epoch_ns as f64),
                    ],
                });
            }
            if let Some(obs) = &observer {
                let mut record = push_common_aux(
                    finished_epoch_record(
                        epoch,
                        n_new,
                        &state.outcome,
                        admitted_before,
                        cloud_before,
                        completed_before,
                        digest,
                    ),
                    epoch_ns,
                    solve_ns,
                    (0, 0),
                    aux_counters.as_ref().expect("fetched alongside observer"),
                    aux_before,
                );
                if proto.is_some() {
                    record = degradation.push(record);
                }
                obs.on_record(&push_budget_aux(record, &ctx, budget_before));
            }
        }
        Ok(state.outcome)
    }

    /// Runs the simulation with the original **rebuild-from-scratch
    /// loop**: every epoch clones the deployment into a full
    /// [`ProblemInstance::residual`] build with an exhaustive candidate
    /// scan. Kept as the executable specification
    /// [`DynamicSimulator::run`] is tested bit-identical against
    /// (`tests/incremental.rs`).
    ///
    /// # Errors
    ///
    /// Same as [`DynamicSimulator::run`].
    pub fn run_scratch(&self) -> Result<DynamicOutcome> {
        let cfg = &self.config;
        cfg.validate()?;
        let deployment = cfg
            .scenario
            .clone()
            .with_ues(0)
            .with_seed(cfg.seed)
            .build()?;
        let mut rng = component_rng(cfg.seed, "dynamic-arrivals");
        let mut state = EngineState::new(&deployment, cfg.epochs);
        let mut ues: Vec<UeSpec> = Vec::new();
        let obs_on = dmra_obs::enabled();
        let observer = self.observer.clone().or_else(dmra_obs::epoch_observer);
        let aux_counters = observer.as_ref().map(|_| AuxCounters::fetch());

        for epoch in 0..cfg.epochs {
            let epoch_started = obs_on.then(std::time::Instant::now);
            let admitted_before = state.outcome.admitted;
            let cloud_before = state.outcome.cloud_forwarded;
            let completed_before = state.outcome.completed;
            let aux_before = aux_counters.as_ref().map_or(0, AuxCounters::read);
            state.release_departures(epoch)?;
            let n_new = poisson(cfg.arrival_rate, &mut rng);
            state.outcome.arrivals += n_new as u64;
            let mut solve_ns = 0u64;
            let mut digest = 0u64;
            if n_new > 0 {
                self.draw_arrivals(n_new, &mut rng, &mut ues);
                let offsets: Vec<f64> = (0..n_new)
                    .map(|_| cfg.holding.sample(cfg.mean_holding, &mut rng))
                    .collect();
                let instance = deployment.residual_with(
                    &state.budgets,
                    ues.clone(),
                    CandidateScan::Exhaustive,
                )?;
                let solve_started = obs_on.then(std::time::Instant::now);
                let allocation = self.allocator.allocate(&instance);
                solve_ns = record_solve_phase(obs_on, solve_started);
                state.commit_epoch(&instance, &allocation, &offsets, epoch)?;
                debug_assert!(allocation.validate(&instance).is_ok());
                if observer.is_some() {
                    digest = allocation.digest();
                }
            }
            state.finish_epoch();
            if let Some(obs) = &observer {
                let epoch_ns = epoch_started.map_or(0, |t| {
                    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
                });
                let record = push_common_aux(
                    finished_epoch_record(
                        epoch,
                        n_new,
                        &state.outcome,
                        admitted_before,
                        cloud_before,
                        completed_before,
                        digest,
                    ),
                    epoch_ns,
                    solve_ns,
                    (0, 0),
                    aux_counters.as_ref().expect("fetched alongside observer"),
                    aux_before,
                );
                obs.on_record(&record);
            }
        }
        Ok(state.outcome)
    }

    /// Draws one epoch's arrival batch from the scenario's workload
    /// distributions into `ues` (dense fresh ids — each epoch instance is
    /// standalone).
    fn draw_arrivals(&self, n: usize, rng: &mut StdRng, ues: &mut Vec<UeSpec>) {
        let cfg = &self.config.scenario;
        let (dlo, dhi) = cfg.cru_demand_range;
        let (rlo, rhi) = cfg.rate_demand_mbps;
        ues.clear();
        ues.extend((0..n).map(|u| {
            UeSpec::new(
                UeId::new(u as u32),
                SpId::new(rng.random_range(0..cfg.n_sps)),
                dmra_types::Point::new(
                    rng.random_range(cfg.region.min.x..=cfg.region.max.x),
                    rng.random_range(cfg.region.min.y..=cfg.region.max.y),
                ),
                ServiceId::new(rng.random_range(0..cfg.n_services)),
                Cru::new(rng.random_range(dlo..=dhi)),
                BitsPerSec::from_mbps(rng.random_range(rlo..=rhi)),
                cfg.ue_tx_power,
            )
        }));
    }
}

/// The per-run mutable state shared by the shipped epoch loop and
/// [`DynamicSimulator::run_scratch`]: remaining budgets, tasks in service,
/// and the outcome accumulators. Keeping the epoch bookkeeping in one
/// place guarantees both loops account identically — their only
/// difference is how the epoch instance is produced.
struct EngineState {
    /// What every BS has left; departures and admissions change it only
    /// through [`Budgets::put_back`] and [`Budgets::take`].
    budgets: Budgets,
    total_rrb: f64,
    active: Vec<ActiveTask>,
    outcome: DynamicOutcome,
}

impl EngineState {
    fn new(deployment: &ProblemInstance, epochs: usize) -> Self {
        let budgets = deployment.budgets().clone();
        Self {
            total_rrb: budgets.rrb_total() as f64,
            budgets,
            active: Vec::new(),
            outcome: empty_outcome(epochs),
        }
    }

    /// Departures due at the start of an epoch release their resources.
    ///
    /// # Errors
    ///
    /// [`Error::BudgetOverflow`] when a release would overflow a budget.
    fn release_departures(&mut self, epoch: usize) -> Result<()> {
        let now = epoch as f64;
        let before = self.active.len();
        let budgets = &mut self.budgets;
        let mut released = Ok(());
        self.active.retain(|t| {
            if t.departs_at > now {
                return true;
            }
            if released.is_ok() {
                released = budgets.put_back(t.bs, t.service, t.cru, t.rrbs);
            }
            false
        });
        self.outcome.completed += (before - self.active.len()) as u64;
        released
    }

    /// Commits one epoch's admissions: deduct resources, register the
    /// departure times, and accumulate profit/admission counters.
    ///
    /// # Errors
    ///
    /// [`Error::OverCommit`] when the allocation admits more than a BS
    /// has left ([`Budgets::take`]).
    fn commit_epoch(
        &mut self,
        instance: &ProblemInstance,
        allocation: &Allocation,
        offsets: &[f64],
        epoch: usize,
    ) -> Result<()> {
        self.outcome.total_profit += instance.total_profit(allocation);
        for (ue, bs) in allocation.edge_pairs() {
            let spec = &instance.ues()[ue.as_usize()];
            let link = instance.link(ue, bs).expect("candidate");
            self.budgets
                .take(bs, spec.service, spec.cru_demand, link.n_rrbs)?;
            self.active.push(ActiveTask {
                bs,
                service: spec.service,
                cru: spec.cru_demand,
                rrbs: link.n_rrbs,
                departs_at: epoch as f64 + offsets[ue.as_usize()],
            });
            self.outcome.admitted += 1;
        }
        self.outcome.cloud_forwarded += allocation.cloud_ues().count() as u64;
        Ok(())
    }

    /// Records end-of-epoch occupancy and in-service counts.
    fn finish_epoch(&mut self) {
        let used: f64 = self.total_rrb - self.budgets.rrb_total() as f64;
        self.outcome.rrb_occupancy.push(if self.total_rrb > 0.0 {
            used / self.total_rrb
        } else {
            0.0
        });
        self.outcome.in_service.push(self.active.len());
    }
}

fn empty_outcome(epochs: usize) -> DynamicOutcome {
    DynamicOutcome {
        arrivals: 0,
        admitted: 0,
        cloud_forwarded: 0,
        completed: 0,
        total_profit: Money::new(0.0),
        rrb_occupancy: Vec::with_capacity(epochs),
        in_service: Vec::with_capacity(epochs),
    }
}

/// Records the allocator-solve slice of an epoch into the `sim.solve_ns`
/// histogram, so the telemetry report can separate matching time from
/// the rest of the epoch (instance assembly, commit, departure
/// bookkeeping), which `sim.epoch_ns` lumps together. Observe only:
/// called after the allocation exists, records nothing when telemetry is
/// off.
pub(crate) fn record_solve_phase(obs_on: bool, solve_started: Option<std::time::Instant>) -> u64 {
    if !obs_on {
        return 0;
    }
    static SOLVE_NS: dmra_obs::LazyHistogram = dmra_obs::LazyHistogram::new("sim.solve_ns");
    let solve_ns = solve_started.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    });
    SOLVE_NS.get().record(solve_ns);
    solve_ns
}

/// Handle to the global counter surfaced as a per-epoch delta in a
/// flight record's aux section (component counts). Fetched once per run,
/// and only when an observer is attached.
pub(crate) struct AuxCounters {
    components: Arc<dmra_obs::Counter>,
}

impl AuxCounters {
    pub(crate) fn fetch() -> Self {
        Self {
            components: dmra_obs::global().counter("core.components"),
        }
    }

    /// Current cumulative `components` reading.
    pub(crate) fn read(&self) -> u64 {
        self.components.get()
    }
}

/// Appends the budget pass of the epoch's build to the aux section: the
/// BSs the context compared with its instance's budgets, and those it
/// patched, since the `before` reading of
/// [`DeploymentContext::budget_pass_stats`].
pub(crate) fn push_budget_aux(
    record: EpochRecord,
    ctx: &DeploymentContext,
    before: (u64, u64),
) -> EpochRecord {
    let (compared, patched) = ctx.budget_pass_stats();
    record
        .aux("budget_bss_compared", compared - before.0)
        .aux("budget_bss_patched", patched - before.1)
}

/// Per-epoch degradation telemetry of the protocol-backed engine,
/// appended to the aux section only (the det section stays byte-identical
/// to the other engines — that is the whole point of the recorder test).
/// All-zero for epochs with no arrivals, matching the digest convention.
#[derive(Debug, Default)]
struct ProtoEpochAux {
    rounds: u64,
    messages: u64,
    dropped: u64,
    absorbed: u64,
    conflicts: u64,
    oracle_profit_gap: f64,
    oracle_unserved_gap: f64,
}

impl ProtoEpochAux {
    fn push(&self, record: EpochRecord) -> EpochRecord {
        record
            .aux("proto_rounds", self.rounds)
            .aux("proto_messages", self.messages)
            .aux("proto_dropped", self.dropped)
            .aux("proto_absorbed", self.absorbed)
            .aux("proto_conflicts", self.conflicts)
            .aux("oracle_profit_gap", self.oracle_profit_gap)
            .aux("oracle_unserved_gap", self.oracle_unserved_gap)
    }
}

/// Appends the standard aux fields shared by the dynamic engines:
/// wall/solve timing, the epoch's row-cache `(hits, misses)` (zeros for
/// an engine without a row cache) and the component-count delta against
/// the `before` reading.
pub(crate) fn push_common_aux(
    record: EpochRecord,
    wall_ns: u64,
    solve_ns: u64,
    row_cache: (u64, u64),
    counters: &AuxCounters,
    before: u64,
) -> EpochRecord {
    record
        .aux("wall_ns", wall_ns)
        .aux("solve_ns", solve_ns)
        .aux("row_cache_hits", row_cache.0)
        .aux("row_cache_misses", row_cache.1)
        .aux("components", counters.read() - before)
}

/// Builds the engine-independent `det` section of a `"sim.epoch"`
/// flight record. Every dynamic engine goes through this one helper so
/// field order and content are byte-identical across engines — which
/// is exactly what `tests/recorder.rs` pins. `digest` is the epoch
/// allocation's [`Allocation::digest`] (0 for an epoch with no
/// arrivals, uniformly across engines).
#[allow(clippy::too_many_arguments)]
fn epoch_det_record(
    epoch: usize,
    arrivals: usize,
    admitted: u64,
    cloud: u64,
    departed: u64,
    in_service: usize,
    occupancy: f64,
    digest: u64,
) -> EpochRecord {
    EpochRecord::new("sim.epoch", epoch as u64)
        .det("arrivals", arrivals)
        .det("admitted", admitted)
        .det("cloud", cloud)
        .det("departed", departed)
        .det("in_service", in_service)
        .det("occupancy", occupancy)
        .det("digest", digest)
}

/// The det record for the epoch just finished, reading the end-of-epoch
/// occupancy / in-service samples off the outcome vectors (identical
/// accounting in every engine).
#[allow(clippy::too_many_arguments)]
fn finished_epoch_record(
    epoch: usize,
    arrivals: usize,
    outcome: &DynamicOutcome,
    admitted_before: u64,
    cloud_before: u64,
    completed_before: u64,
    digest: u64,
) -> EpochRecord {
    epoch_det_record(
        epoch,
        arrivals,
        outcome.admitted - admitted_before,
        outcome.cloud_forwarded - cloud_before,
        outcome.completed - completed_before,
        outcome.in_service.last().copied().unwrap_or(0),
        outcome.rrb_occupancy.last().copied().unwrap_or(0.0),
        digest,
    )
}

/// λ above which [`poisson`] switches from exact inversion to the normal
/// approximation. Well below the ~745 threshold where `exp(-λ)`
/// underflows to zero.
const POISSON_NORMAL_CUTOFF: f64 = 64.0;

/// Deterministic Poisson sample, split by rate:
///
/// * `λ ≤ 64` — inversion by sequential CDF search: **one** uniform draw,
///   exact distribution, O(λ) additions.
/// * `λ > 64` — normal approximation with continuity correction,
///   `k = ⌊λ + √λ·z + ½⌋` clamped at zero, with `z` from a Box–Muller
///   transform (two uniform draws). At this scale the approximation
///   error is negligible against simulation noise.
///
/// This replaces Knuth's product-of-uniforms method, which drew `k + 1`
/// uniforms per sample (O(λ) RNG calls) and broke down entirely for
/// λ ≳ 745: `exp(-λ)` underflows to `0.0`, the product can never reach
/// it, and the guard returned a constant ≈ 1074 regardless of λ.
fn poisson<R: Rng>(lambda: f64, rng: &mut R) -> usize {
    debug_assert!(lambda >= 0.0);
    if lambda <= 0.0 {
        return 0;
    }
    if lambda <= POISSON_NORMAL_CUTOFF {
        let u = rng.random_range(0.0..1.0);
        poisson_inversion(lambda, u)
    } else {
        // `1 - u` maps [0, 1) onto (0, 1] so the logarithm stays finite.
        let u1 = 1.0 - rng.random_range(0.0..1.0);
        let u2 = rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let k = lambda + lambda.sqrt() * z + 0.5;
        if k < 0.0 {
            0
        } else {
            k as usize
        }
    }
}

/// CDF inversion for `0 < λ ≤ 64` with the uniform already drawn — split
/// out so the tail guard is testable with an adversarial `u` no real
/// generator can produce.
fn poisson_inversion(lambda: f64, u: f64) -> usize {
    let mut k = 0usize;
    let mut p = (-lambda).exp(); // P[X = 0]; strictly positive here
    let mut cdf = p;
    while u > cdf {
        k += 1;
        p *= lambda / k as f64;
        cdf += p;
        // Deep in the tail `p` underflows and the CDF stops moving;
        // the cap (≫ 30σ out) guards against an infinite loop.
        if k as f64 > 100.0 * lambda + 100.0 {
            record_sampler_truncation("poisson CDF tail guard");
            break;
        }
    }
    k
}

/// Geometric holding time with the given mean (in epochs, ≥ 0 extra
/// epochs beyond the first). `mean` must already satisfy the validated
/// `≥ 1` contract — the old silent `mean.max(1.0)` clamp is gone.
fn geometric<R: Rng>(mean: f64, rng: &mut R) -> usize {
    debug_assert!(mean >= 1.0, "mean_holding must be validated to >= 1");
    let p = 1.0 / mean;
    let mut k = 0usize;
    while rng.random_range(0.0..1.0) > p {
        k += 1;
        if k > 10_000 {
            record_sampler_truncation("geometric holding cap");
            break;
        }
    }
    k
}

/// The "no silent caps" signal: both sampler caps are unreachable under
/// the validated configuration space at realistic scales, and if one ever
/// fires the drawn distribution has been clipped — so say so, through the
/// `sim.sampler_truncations` counter and a warning.
#[cold]
fn record_sampler_truncation(which: &str) {
    if dmra_obs::enabled() {
        static TRUNCATIONS: dmra_obs::LazyCounter =
            dmra_obs::LazyCounter::new("sim.sampler_truncations");
        TRUNCATIONS.get().inc();
    }
    obs_warn!("sampler draw truncated: {which}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config(rate: f64, seed: u64) -> DynamicConfig {
        DynamicConfig {
            scenario: ScenarioConfig::paper_defaults(),
            arrival_rate: rate,
            mean_holding: 4.0,
            holding: HoldingDistribution::Geometric,
            epochs: 40,
            seed,
        }
    }

    /// A rogue allocator that ignores budgets: every UE goes to its first
    /// candidate.
    struct FirstCandidate;

    impl Allocator for FirstCandidate {
        fn name(&self) -> &str {
            "first-candidate"
        }

        fn allocate(&self, instance: &ProblemInstance) -> Allocation {
            let mut allocation = Allocation::all_cloud(instance.n_ues());
            for ue in instance.ues() {
                if let Some(link) = instance.candidates(ue.id).first() {
                    allocation.assign(ue.id, link.bs);
                }
            }
            allocation
        }
    }

    #[test]
    fn over_commit_is_a_typed_error_in_every_build_profile() {
        // 3 000 arrivals on the paper grid's 25 BSs exhaust some BS's
        // budget in the first epoch. The commit step must fail with an
        // error naming it, before the debug-only validation would panic
        // and where release arithmetic would wrap the budget around.
        let sim = DynamicSimulator::with_allocator(
            DynamicConfig {
                epochs: 3,
                ..base_config(3000.0, 1)
            },
            Box::new(FirstCandidate),
        );
        for (engine, result) in [("run", sim.run()), ("run_scratch", sim.run_scratch())] {
            let err = result.expect_err(engine);
            assert!(
                matches!(&err, Error::OverCommit { bs, .. } if bs.as_usize() < 25),
                "{engine}: {err:?}"
            );
            assert!(
                err.to_string().contains("over-commits bs"),
                "{engine}: {err}"
            );
        }
    }

    #[test]
    fn conservation_of_tasks() {
        // A sparse and a busy 200-epoch horizon besides the default one.
        for (rate, seed, epochs) in [(15.0, 1, 40), (2.0, 1, 200), (60.0, 2, 200)] {
            let cfg = DynamicConfig {
                epochs,
                ..base_config(rate, seed)
            };
            let out = DynamicSimulator::new(cfg).run().unwrap();
            assert_eq!(out.arrivals, out.admitted + out.cloud_forwarded);
            // Whatever is neither completed nor in service at the end was
            // forwarded to the cloud.
            let in_service_end = *out.in_service.last().unwrap() as u64;
            assert_eq!(out.admitted, out.completed + in_service_end);
        }
    }

    #[test]
    fn run_is_deterministic() {
        let a = DynamicSimulator::new(base_config(10.0, 7)).run().unwrap();
        let b = DynamicSimulator::new(base_config(10.0, 7)).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn light_load_admits_nearly_everything() {
        let out = DynamicSimulator::new(base_config(5.0, 3)).run().unwrap();
        // At ~5 arrivals/epoch × 4-epoch holding ≈ 20 concurrent tasks on
        // 25 BSs, only coverage gaps cause cloud forwards.
        assert!(
            out.admission_ratio() > 0.9,
            "admission ratio {}",
            out.admission_ratio()
        );
    }

    #[test]
    fn heavier_load_increases_blocking_and_occupancy() {
        // Offered load: rate × mean holding (≈ 4 epochs). Capacity is
        // ≈ 880 concurrent tasks, so 10/epoch is uncongested and
        // 400/epoch (≈ 1600 concurrent offered) saturates the network.
        let light = DynamicSimulator::new(base_config(10.0, 11)).run().unwrap();
        let heavy = DynamicSimulator::new(base_config(400.0, 11)).run().unwrap();
        assert!(heavy.admission_ratio() < light.admission_ratio());
        assert!(heavy.steady_state_occupancy() > light.steady_state_occupancy());
        assert!(heavy.steady_state_occupancy() <= 1.0 + 1e-9);
    }

    #[test]
    fn occupancy_returns_to_zero_after_drain() {
        // Arrivals only in the first epochs (rate 0 later is not
        // expressible with a single rate, so use a short horizon and
        // verify monotone drain by construction: run long with tiny rate).
        for epochs in [10, 1000] {
            let cfg = DynamicConfig {
                scenario: ScenarioConfig::paper_defaults(),
                arrival_rate: 0.0,
                mean_holding: 2.0,
                holding: HoldingDistribution::Geometric,
                epochs,
                seed: 5,
            };
            let out = DynamicSimulator::new(cfg).run().unwrap();
            assert_eq!(out.arrivals, 0);
            // Idle epochs still record one occupancy sample each.
            assert_eq!(out.rrb_occupancy.len(), epochs);
            assert!(out.rrb_occupancy.iter().all(|&o| o == 0.0));
        }
    }

    #[test]
    fn identical_arrival_traces_across_allocators() {
        // The workload stream must not depend on the allocator: arrivals
        // and totals line up between a DMRA run and a CloudOnly run.
        let dmra_run = DynamicSimulator::new(base_config(15.0, 21)).run().unwrap();
        let cloud_run = DynamicSimulator::with_allocator(
            base_config(15.0, 21),
            Box::new(dmra_baselines::CloudOnly::default()),
        )
        .run()
        .unwrap();
        assert_eq!(dmra_run.arrivals, cloud_run.arrivals);
        assert_eq!(cloud_run.admitted, 0);
        assert_eq!(cloud_run.cloud_forwarded, cloud_run.arrivals);
    }

    #[test]
    fn dmra_admits_at_least_as_much_profit_as_nonco_online() {
        let dmra_run = DynamicSimulator::new(base_config(60.0, 22)).run().unwrap();
        let nonco_run = DynamicSimulator::with_allocator(
            base_config(60.0, 22),
            Box::new(dmra_baselines::NonCo::default()),
        )
        .run()
        .unwrap();
        assert_eq!(dmra_run.arrivals, nonco_run.arrivals);
        assert!(
            dmra_run.total_profit.get() > nonco_run.total_profit.get(),
            "dmra {} vs nonco {}",
            dmra_run.total_profit,
            nonco_run.total_profit
        );
    }

    #[test]
    fn profit_accumulates_with_admissions() {
        let out = DynamicSimulator::new(base_config(20.0, 9)).run().unwrap();
        assert!(out.admitted > 0);
        assert!(out.total_profit.get() > 0.0);
    }

    #[test]
    fn incremental_and_scratch_engines_agree() {
        // Full-outcome equality between the incremental engine and the
        // rebuild-from-scratch specification (the workspace-root
        // `incremental` tests sweep allocators, seeds and thread counts).
        let sim = DynamicSimulator::new(base_config(25.0, 2));
        assert_eq!(sim.run().unwrap(), sim.run_scratch().unwrap());
    }

    #[test]
    fn proto_engine_matches_incremental_under_reliable_delivery() {
        // The message-passing protocol, run per epoch against residual
        // budgets, is bit-identical to the in-memory matcher when nothing
        // is lost, delayed or crashed.
        for seed in [2u64, 7, 13] {
            let sim = DynamicSimulator::new(base_config(25.0, seed));
            assert_eq!(
                sim.run_proto(&ProtoFaults::default()).unwrap(),
                sim.run().unwrap(),
                "seed {seed} diverged"
            );
        }
    }

    #[test]
    fn proto_engine_with_faults_conserves_tasks() {
        let sim = DynamicSimulator::new(base_config(20.0, 5));
        let out = sim
            .run_proto(&ProtoFaults {
                drop_prob: 0.2,
                delay: ProtoDelay::Random(2),
                crashes: vec![(BsId::new(3), 10)],
                max_rounds: 0,
            })
            .unwrap();
        assert_eq!(out.arrivals, out.admitted + out.cloud_forwarded);
        let in_service_end = *out.in_service.last().unwrap() as u64;
        assert_eq!(out.admitted, out.completed + in_service_end);
        assert!(out
            .rrb_occupancy
            .iter()
            .all(|&o| (0.0..=1.0 + 1e-9).contains(&o)));
    }

    #[test]
    fn proto_engine_all_bss_crashed_forwards_everything_to_cloud() {
        let n_bss = ScenarioConfig::paper_defaults().n_bss();
        let sim = DynamicSimulator::new(base_config(10.0, 9));
        let out = sim
            .run_proto(&ProtoFaults {
                crashes: (0..n_bss).map(|i| (BsId::new(i), 0)).collect(),
                ..ProtoFaults::default()
            })
            .unwrap();
        assert!(out.arrivals > 0);
        assert_eq!(out.admitted, 0, "dead control plane admitted tasks");
        assert_eq!(out.cloud_forwarded, out.arrivals);
    }

    #[test]
    fn proto_engine_rejects_bad_fault_specs() {
        let sim = DynamicSimulator::new(base_config(10.0, 1));
        let err = sim
            .run_proto(&ProtoFaults {
                drop_prob: 1.0,
                ..ProtoFaults::default()
            })
            .unwrap_err();
        assert!(
            matches!(&err, Error::InvalidConfig(m) if m.contains("drop probability")),
            "unexpected error {err}"
        );
        let err = sim
            .run_proto(&ProtoFaults {
                crashes: vec![(BsId::new(9999), 0)],
                ..ProtoFaults::default()
            })
            .unwrap_err();
        assert!(
            matches!(&err, Error::InvalidConfig(m) if m.contains("unknown")),
            "unexpected error {err}"
        );
    }

    #[test]
    fn proto_delay_parses_and_displays() {
        for (raw, want) in [
            ("immediate", ProtoDelay::Immediate),
            ("none", ProtoDelay::Immediate),
            ("fixed:3", ProtoDelay::Fixed(3)),
            ("random:5", ProtoDelay::Random(5)),
        ] {
            assert_eq!(raw.parse::<ProtoDelay>().unwrap(), want);
        }
        for bad in ["", "fixed", "fixed:", "fixed:-1", "random:x", "gamma:2"] {
            let err = bad.parse::<ProtoDelay>().unwrap_err();
            assert!(err.to_string().contains("invalid delay spec"), "{bad}");
        }
        assert_eq!(ProtoDelay::Fixed(2).to_string(), "fixed:2");
        assert_eq!(ProtoDelay::Random(4).to_string(), "random:4");
        assert_eq!(ProtoDelay::Immediate.to_string(), "immediate");
    }

    #[test]
    fn epoch_fault_seeds_differ_across_epochs_and_seeds() {
        let mut seen = std::collections::HashSet::new();
        for run_seed in [1u64, 2, 3] {
            for epoch in 0..100usize {
                assert!(
                    seen.insert(epoch_fault_seed(run_seed, epoch)),
                    "collision at run_seed {run_seed} epoch {epoch}"
                );
            }
        }
    }

    #[test]
    fn invalid_configs_are_rejected_by_every_engine() {
        let bad_rates = [f64::NAN, f64::INFINITY, -1.0];
        for rate in bad_rates {
            let cfg = base_config(rate, 1);
            let sim = DynamicSimulator::new(cfg);
            for out in [
                sim.run(),
                sim.run_proto(&ProtoFaults::default()),
                sim.run_scratch(),
            ] {
                let err = out.unwrap_err();
                assert!(
                    matches!(&err, Error::InvalidConfig(m) if m.contains("arrival_rate")),
                    "rate {rate}: unexpected error {err}"
                );
            }
        }
        for mean in [f64::NAN, 0.5, 0.0, -3.0] {
            let mut cfg = base_config(10.0, 1);
            cfg.mean_holding = mean;
            let sim = DynamicSimulator::new(cfg);
            for out in [
                sim.run(),
                sim.run_proto(&ProtoFaults::default()),
                sim.run_scratch(),
            ] {
                let err = out.unwrap_err();
                assert!(
                    matches!(&err, Error::InvalidConfig(m) if m.contains("mean_holding")),
                    "mean {mean}: unexpected error {err}"
                );
            }
        }
    }

    #[test]
    fn holding_distribution_parses_and_displays() {
        for (raw, want) in [
            ("geometric", HoldingDistribution::Geometric),
            ("geo", HoldingDistribution::Geometric),
            ("det", HoldingDistribution::Deterministic),
            ("deterministic", HoldingDistribution::Deterministic),
            ("fixed", HoldingDistribution::Deterministic),
            ("exp", HoldingDistribution::Exponential),
            ("exponential", HoldingDistribution::Exponential),
        ] {
            assert_eq!(raw.parse::<HoldingDistribution>().unwrap(), want);
        }
        let err = "weibull".parse::<HoldingDistribution>().unwrap_err();
        assert!(err.to_string().contains("weibull"));
        assert_eq!(HoldingDistribution::Exponential.to_string(), "exponential");
    }

    #[test]
    fn holding_samples_match_their_moments() {
        // n = 100k draws per variant; check mean and variance against the
        // analytic values. Durations: geometric 1 + Geom0(1/m) has mean m
        // and variance m(m−1); deterministic is constant round(m);
        // exponential has mean m and variance m².
        let n = 100_000usize;
        let draw = |dist: HoldingDistribution, mean: f64| -> Vec<f64> {
            let mut rng = component_rng(99, "holding-dist");
            (0..n).map(|_| dist.sample(mean, &mut rng)).collect()
        };
        let moments = |xs: &[f64]| {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var =
                xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
            (mean, var)
        };

        let (m, v) = moments(&draw(HoldingDistribution::Geometric, 6.0));
        // σ of the sample mean: √(30/100k) ≈ 0.017; allow 6σ.
        assert!((m - 6.0).abs() < 0.11, "geometric mean {m}");
        assert!((v / 30.0 - 1.0).abs() < 0.1, "geometric variance {v}");

        let samples = draw(HoldingDistribution::Deterministic, 4.0);
        assert!(samples.iter().all(|&d| d == 4.0), "deterministic varies");
        // Non-integer means round to the nearest whole number of epochs.
        assert_eq!(
            HoldingDistribution::Deterministic.sample(4.4, &mut component_rng(1, "det-round")),
            4.0
        );

        let (m, v) = moments(&draw(HoldingDistribution::Exponential, 5.0));
        assert!((m - 5.0).abs() < 0.1, "exponential mean {m}");
        assert!((v / 25.0 - 1.0).abs() < 0.1, "exponential variance {v}");
    }

    #[test]
    fn holding_samples_are_deterministic_per_seed() {
        for dist in [
            HoldingDistribution::Geometric,
            HoldingDistribution::Deterministic,
            HoldingDistribution::Exponential,
        ] {
            let draw = |seed: u64| -> Vec<f64> {
                let mut rng = component_rng(seed, "holding-det");
                (0..1000).map(|_| dist.sample(5.0, &mut rng)).collect()
            };
            assert_eq!(draw(7), draw(7), "{dist} not reproducible");
            if dist != HoldingDistribution::Deterministic {
                assert_ne!(draw(7), draw(8), "{dist} ignores the seed");
            }
        }
    }

    #[test]
    fn poisson_is_deterministic() {
        for &lambda in &[0.7, 12.0, 64.0, 300.0, 900.0] {
            let mut a = component_rng(17, "poisson-det");
            let mut b = component_rng(17, "poisson-det");
            for _ in 0..32 {
                assert_eq!(poisson(lambda, &mut a), poisson(lambda, &mut b));
            }
        }
    }

    #[test]
    fn poisson_zero_rate_draws_nothing() {
        let mut rng = component_rng(1, "poisson-zero");
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn poisson_mean_and_variance_are_sane_on_both_sides_of_the_cutoff() {
        // λ = 12 and 40 exercise the exact inversion sampler, 150 and 900
        // the normal approximation (the old Knuth sampler already failed
        // at 900: exp(-900) == 0.0).
        for &lambda in &[12.0, 40.0, 150.0, 900.0] {
            let mut rng = component_rng(23, "poisson-dist");
            let n = 3000usize;
            let draws: Vec<f64> = (0..n).map(|_| poisson(lambda, &mut rng) as f64).collect();
            let mean = draws.iter().sum::<f64>() / n as f64;
            let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / (n - 1) as f64;
            // Mean of n draws has σ = √(λ/n); allow 6σ.
            let tol = 6.0 * (lambda / n as f64).sqrt();
            assert!(
                (mean - lambda).abs() < tol,
                "λ = {lambda}: mean {mean} (tolerance {tol})"
            );
            // A Poisson's variance equals its mean.
            assert!(
                (0.75..=1.25).contains(&(var / lambda)),
                "λ = {lambda}: variance {var}"
            );
        }
    }

    #[test]
    fn poisson_is_continuous_across_the_normal_cutoff() {
        // λ = 63 inverts the CDF, λ = 65 uses the normal approximation;
        // both branch means must track λ so the switch at 64 introduces
        // no step in the arrival process. 6σ of a 100k-draw mean is
        // ≈ 0.15; the approximation's own bias is far smaller.
        for &lambda in &[63.0, 65.0] {
            let mut rng = component_rng(29, "poisson-cutoff");
            let n = 100_000usize;
            let mean = (0..n)
                .map(|_| poisson(lambda, &mut rng) as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - lambda).abs() < 0.2,
                "λ = {lambda}: mean {mean} drifted across the cutoff"
            );
        }
    }

    #[test]
    fn poisson_handles_huge_rates_without_garbage() {
        // The old sampler returned ≈ 1074 for *every* λ ≳ 745; the fixed
        // one must track the mean at any scale.
        let mut rng = component_rng(31, "poisson-huge");
        let lambda = 50_000.0;
        for _ in 0..64 {
            let k = poisson(lambda, &mut rng) as f64;
            assert!(
                (k - lambda).abs() < 10.0 * lambda.sqrt(),
                "draw {k} too far from λ = {lambda}"
            );
        }
    }

    #[test]
    fn sampler_truncations_are_counted_not_silent() {
        // Both caps increment `sim.sampler_truncations` when they fire.
        dmra_obs::set_enabled(true);
        let counter = dmra_obs::global().counter("sim.sampler_truncations");
        let before = counter.get();

        // The geometric cap: a mean so large that survival past 10 000
        // epochs is near-certain (p = 1e-12 per epoch).
        let mut rng = component_rng(3, "trunc-geo");
        let k = geometric(1e12, &mut rng);
        assert_eq!(k, 10_001, "cap should clip the draw at 10 001");
        assert!(counter.get() > before, "geometric cap fired silently");

        // The Poisson tail guard: an adversarial u beyond any achievable
        // CDF models the pathological stall the guard defends against
        // (no 53-bit uniform can reach it, so we inject it directly).
        let mid = counter.get();
        let k = poisson_inversion(8.0, 1.5);
        assert!(k as f64 > 100.0 * 8.0, "guard should run out the cap");
        assert!(counter.get() > mid, "poisson tail guard fired silently");
        dmra_obs::set_enabled(false);
    }
}
