//! The three named workloads, each an unmodified shipped engine (default
//! `Dmra`, default solve mode, `Threads::Auto`) behind the probe.
//!
//! A workload seed `n` stands for [`VARIANTS`] engine instances at the
//! sub-seeds `VARIANTS·n … VARIANTS·n + VARIANTS − 1`, each with its own
//! deployment draw and random streams, so one run averages over several
//! inputs instead of reporting one draw's luck.

use crate::probe::{Probe, ProbedDmra};
use dmra_sim::dynamic::{DynamicConfig, DynamicSimulator, HoldingDistribution};
use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};
use dmra_sim::{BsPlacement, ScenarioConfig};
use dmra_types::{Hertz, Meters, Rect};
use std::sync::Arc;

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_arrivals", "paper_mobility", "metro_mobility"];

/// Engine instances (sub-seeds) behind one workload seed.
pub const VARIANTS: usize = 4;

enum Engine {
    Dynamic(DynamicSimulator),
    /// The engine and its fixed UE population.
    Mobility(MobilitySimulator, u64),
}

/// One workload: its engine instances with the probe installed, and the
/// horizon each repetition runs.
pub struct Workload {
    /// The workload's name.
    pub name: &'static str,
    /// Epochs per repetition.
    pub epochs: usize,
    /// Whether the engine keeps the cross-epoch row cache (the replay
    /// context must match it).
    pub row_cache: bool,
    engines: Vec<Engine>,
}

/// What one repetition decided.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RepOutcome {
    /// UE allocation decisions (arrivals, or population × epochs).
    pub decisions: u64,
    /// Decisions served at the edge.
    pub admitted: u64,
    /// MEC profit (Eq. 5) summed over the repetition.
    pub profit: f64,
}

impl Workload {
    /// Builds workload `name` at `seed` with `probe` installed, or `None`
    /// for an unknown name.
    #[must_use]
    pub fn new(name: &str, seed: u64, probe: &Arc<Probe>) -> Option<Self> {
        let (name, epochs, row_cache) = match name {
            "paper_arrivals" => (NAMES[0], 200, false),
            "paper_mobility" => (NAMES[1], 40, true),
            "metro_mobility" => (NAMES[2], 30, true),
            _ => return None,
        };
        let engines = (0..VARIANTS as u64)
            .map(|k| {
                let sub_seed = seed.wrapping_mul(VARIANTS as u64).wrapping_add(k);
                engine(name, epochs, sub_seed, probe)
            })
            .collect();
        Some(Self {
            name,
            epochs,
            row_cache,
            engines,
        })
    }

    /// Runs one repetition of engine instance `variant` to the horizon.
    ///
    /// # Errors
    ///
    /// Propagates the engine's error.
    pub fn run(&self, variant: usize) -> dmra_types::Result<RepOutcome> {
        Ok(match &self.engines[variant] {
            Engine::Dynamic(sim) => {
                let out = sim.run()?;
                RepOutcome {
                    decisions: out.arrivals,
                    admitted: out.admitted,
                    profit: out.total_profit.get(),
                }
            }
            Engine::Mobility(sim, population) => {
                let out = sim.run()?;
                RepOutcome {
                    decisions: population * out.served_timeline.len() as u64,
                    admitted: out.served_timeline.iter().sum::<usize>() as u64,
                    profit: out.profit_timeline.iter().map(|p| p.get()).sum(),
                }
            }
        })
    }
}

fn engine(name: &str, epochs: usize, seed: u64, probe: &Arc<Probe>) -> Engine {
    let allocator = Box::new(ProbedDmra::new(Arc::clone(probe)));
    let observer = Arc::clone(probe) as Arc<dyn dmra_obs::EpochObserver>;
    let scenario = match name {
        "paper_arrivals" => {
            let config = DynamicConfig {
                scenario: ScenarioConfig::paper_defaults(),
                arrival_rate: 300.0,
                mean_holding: 5.0,
                holding: HoldingDistribution::Geometric,
                epochs,
                seed,
            };
            return Engine::Dynamic(
                DynamicSimulator::with_allocator(config, allocator).with_observer(observer),
            );
        }
        "paper_mobility" => ScenarioConfig::paper_defaults().with_ues(2000),
        _ => metro_scenario(),
    };
    let population = scenario.n_ues as u64;
    let sim = MobilitySimulator::new(MobilityConfig {
        scenario: scenario.with_seed(seed),
        speed_mps: (5.0, 10.0),
        epoch_seconds: 10.0,
        epochs,
        seed,
        policy: MobilityPolicy::FullReallocation,
        stationary_fraction: 0.9,
    })
    .with_allocator(allocator)
    .with_observer(observer);
    Engine::Mobility(sim, population)
}

/// The sparse metro grid of `BENCH_solve.json`: 140 × 140 sites at a
/// 300 m pitch (19 600 BSs over 5 SPs) in a 42 km square, 40 MHz uplink,
/// default coverage, 12 000 UEs.
fn metro_scenario() -> ScenarioConfig {
    let mut metro = ScenarioConfig::paper_defaults().with_ues(12_000);
    metro.bss_per_sp = 3920;
    metro.bs_placement = BsPlacement::RegularGrid {
        rows: 140,
        cols: 140,
        isd: Meters::new(300.0),
    };
    metro.region = Rect::square(Meters::new(42_000.0));
    metro.uplink_bandwidth = Hertz::from_mhz(40.0);
    metro
}
