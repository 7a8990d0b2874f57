//! # DMRA — Decentralized Multi-SP Resource Allocation for Mobile Edge Computing
//!
//! A from-scratch Rust reproduction of *Zhang, Du, Ye, Liu, Yuan — "DMRA: A
//! Decentralized Resource Allocation Scheme for Multi-SP Mobile Edge
//! Computing" (ICDCS 2019)*.
//!
//! This facade crate re-exports the workspace's subsystems:
//!
//! * [`types`] — typed IDs, physical units, entity specifications.
//! * [`obs`] — zero-dependency telemetry: metrics registry, flight
//!   recorder, time series, Prometheus exposition and the logging facade.
//! * [`geo`] — deployment geometry, placement generators, spatial index.
//! * [`radio`] — OFDMA uplink model: path loss, SINR, per-RRB rates.
//! * [`econ`] — pricing (Eqs. 9–10) and SP utility ledger (Eqs. 5–8).
//! * [`proto`] — the round-based decentralized message-passing substrate.
//! * [`core`] — problem instances, allocations, and the DMRA matcher in
//!   both centralized-state and agent-message-passing executions.
//! * [`baselines`] — DCSP, NonCo and sanity baselines.
//! * [`sim`] — scenario generation, metrics, sweeps, and the experiment
//!   registry reproducing every figure of the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use dmra::prelude::*;
//!
//! // The paper's default setup: 5 SPs × 5 BSs × 6 services, regular grid.
//! let scenario = ScenarioConfig::paper_defaults()
//!     .with_ues(200)
//!     .with_seed(42);
//! let instance = scenario.build().expect("valid scenario");
//!
//! let allocation = Dmra::default().allocate(&instance);
//! let report = instance.profit_report(&allocation);
//! assert!(report.total_profit().get() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use dmra_baselines as baselines;
pub use dmra_core as core;
pub use dmra_econ as econ;
pub use dmra_geo as geo;
pub use dmra_obs as obs;
pub use dmra_proto as proto;
pub use dmra_radio as radio;
pub use dmra_sim as sim;
pub use dmra_types as types;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use dmra_baselines::{CloudOnly, Dcsp, GreedyProfit, NonCo, RandomAllocator};
    pub use dmra_core::{Allocation, Allocator, Dmra, DmraConfig, ProblemInstance};
    pub use dmra_econ::PricingConfig;
    pub use dmra_sim::{
        BsPlacement, Metrics, ScenarioConfig, ServicePopularity, SweepRunner, UePlacement,
    };
    pub use dmra_types::{
        BitsPerSec, BsId, Cru, Db, Dbm, Hertz, Meters, Money, Point, Rect, RrbCount, ServiceId,
        SpId, UeId,
    };
}
