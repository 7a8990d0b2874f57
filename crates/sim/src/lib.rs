//! Scenario generation, metrics, parameter sweeps and the experiment
//! registry reproducing every figure of the paper's evaluation.
//!
//! * [`ScenarioConfig`] encodes Section VI-A's simulation setup (5 SPs ×
//!   5 BSs × 6 services, CRU budgets 100–150, demands 3–5, rates 2–6
//!   Mbit/s, 10 MHz uplink, 180 kHz RRBs, 10 dBm UEs, the Eq. (18) path
//!   loss) with every knob overridable; [`ScenarioConfig::build`] produces
//!   a validated [`dmra_core::ProblemInstance`].
//! * [`Metrics`] computes the quantities the figures plot: total SP
//!   profit, forwarded traffic load, served fractions, utilizations.
//! * [`SweepRunner`] runs a set of allocators over a parameter sweep with
//!   seed replications, producing [`Table`]s with mean ± stddev per cell —
//!   all algorithms see *identical* instances (paired comparison).
//! * [`experiments`] holds one function per paper figure (`fig2` … `fig7`)
//!   plus the ablations documented in DESIGN.md §5.
//! * [`dynamic`] runs the online regime the paper motivates in Section V:
//!   Poisson task arrivals, geometric, deterministic or exponential
//!   holding times, per-epoch DMRA matching against the remaining
//!   capacities — by the in-memory matcher or the message-passing
//!   protocol.
//! * [`mobility`] moves a fixed UE population under a random-waypoint
//!   model and measures the handover cost of re-running DMRA each epoch.
//! * [`erlang`] cross-checks the online simulator against Erlang-B loss
//!   theory (blocking prediction and trunk dimensioning).
//!
//! # Examples
//!
//! ```
//! use dmra_baselines::Dcsp;
//! use dmra_core::{Allocator, Dmra};
//! use dmra_sim::{Metrics, ScenarioConfig};
//!
//! let instance = ScenarioConfig::paper_defaults()
//!     .with_ues(150)
//!     .with_seed(7)
//!     .build()?;
//! let dmra = Metrics::compute(&instance, &Dmra::default().allocate(&instance));
//! let dcsp = Metrics::compute(&instance, &Dcsp::default().allocate(&instance));
//! assert!(dmra.total_profit >= dcsp.total_profit);
//! # Ok::<(), dmra_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod dynamic;
pub mod erlang;
pub mod experiments;
mod metrics;
pub mod mobility;
mod sweep;

pub use config::{BsPlacement, ScenarioConfig, ServicePopularity, SpOverride, UePlacement};
pub use metrics::Metrics;
pub use sweep::{Stat, SweepRunner, Table, TableRow};
