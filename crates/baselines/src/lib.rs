//! The comparison algorithms of the paper's evaluation, plus sanity
//! baselines.
//!
//! Section VI-B defines DCSP and NonCo as matchings that run DMRA's
//! Algorithm-1 loop under their own preferences, and here they are just
//! that: [`dmra_core::matching::Preferences`] implementations for the
//! loop in [`dmra_core::matching`]. The centralized baselines check,
//! take and return budgets through the same
//! [`dmra_core::matching::ResourcePool`].
//!
//! * [`Dcsp`] — *Decentralized Collaboration Service Placement* (Yu et al.,
//!   GLOBECOM 2018, as summarised in the DMRA paper): UEs propose to the
//!   candidate BS with the **lowest resource occupation**; BSs prefer the
//!   proposer covered by the **fewest BSs** (`f_u`), tie-breaking by least
//!   radio consumption. No SP awareness, no price awareness.
//! * [`NonCo`] — *Non-Collaboration*: UEs propose to the **max-SINR**
//!   candidate; BSs prefer the proposer consuming the **fewest RRBs**. No
//!   collaboration between BSs at all.
//! * [`GreedyProfit`] — a centralized profit-density greedy assigner: an
//!   informative upper-ish reference the paper does not plot.
//! * [`ExactOptimal`] — a branch-and-bound exact TPM solver for small
//!   instances (optimality-gap measurements).
//! * [`RandomAllocator`] — seeded random feasible assignment (noise floor).
//! * [`CloudOnly`] — forwards everything (the zero-profit floor).
//!
//! Every algorithm implements [`dmra_core::Allocator`] and is exercised by
//! shared conformance tests: allocations must validate against the
//! instance, and the orderings the paper claims (DMRA ≥ DCSP, DMRA ≥
//! NonCo on total profit) are asserted at the workspace level.
//!
//! # Examples
//!
//! ```
//! use dmra_baselines::{Dcsp, NonCo};
//! use dmra_core::Allocator;
//!
//! assert_eq!(Dcsp::default().name(), "DCSP");
//! assert_eq!(NonCo::default().name(), "NonCo");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dcsp;
mod exact;
mod greedy;
mod nonco;
mod random;

pub use dcsp::Dcsp;
pub use exact::ExactOptimal;
pub use greedy::{CloudOnly, GreedyProfit};
pub use nonco::NonCo;
pub use random::RandomAllocator;

#[cfg(test)]
mod test_support;
