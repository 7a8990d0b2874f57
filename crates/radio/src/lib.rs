//! The OFDMA uplink model of the paper's Section III-C.
//!
//! The allocation algorithms never touch raw radio physics directly — they
//! consume three derived quantities per UE–BS pair:
//!
//! * the SINR `λ_{u,i}`,
//! * the per-RRB Shannon rate `e_{u,i} = W_sub · log2(1 + λ_{u,i})`
//!   (Eq. (2)),
//! * the RRB demand `n_{u,i} = ⌈w_u / e_{u,i}⌉` (Eq. (3)).
//!
//! This crate computes those from the paper's link budget: a UE transmit
//! power (10 dBm), the 3GPP-style path-loss model
//! `PL(d) = 140.7 + 36.7·log10(d_km)` dB (Eq. (18)), optional log-normal
//! shadowing, and a noise/interference floor. Everything is deterministic;
//! shadowing derives its randomness from the link endpoints' identifiers so
//! that evaluation order never matters.
//!
//! # Examples
//!
//! ```
//! use dmra_radio::{LinkEvaluator, RadioConfig};
//! use dmra_types::{BitsPerSec, Dbm, Point};
//!
//! let eval = LinkEvaluator::new(RadioConfig::paper_defaults());
//! let link = eval.evaluate(
//!     Dbm::new(10.0),
//!     Point::new(0.0, 0.0),
//!     Point::new(300.0, 0.0),
//! );
//! assert!(link.per_rrb_rate.get() > 0.0);
//! let n = eval
//!     .rrbs_required(BitsPerSec::from_mbps(4.0), link.per_rrb_rate)
//!     .expect("link can carry data");
//! assert!(n.get() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod link;
mod pathloss;
mod shadowing;

pub use config::{InterferenceModel, NoiseModel, RadioConfig};
pub use link::{LinkBatch, LinkEvaluator, LinkMetrics};
pub use pathloss::PathLossModel;
pub use shadowing::Shadowing;
