//! The heart of the reproduction: problem instances, allocations, the
//! [`Allocator`] trait and the DMRA matching algorithm itself.
//!
//! # Structure
//!
//! * [`ProblemInstance`] — an immutable, validated snapshot of one batch of
//!   offloading requests: SPs, BSs, UEs and, crucially, the precomputed
//!   *candidate links* (every UE–BS pair that is in coverage and hosts the
//!   requested service, with its distance, RRB demand `n_{u,i}` and CRU
//!   price `p_{i,u}`). Precomputing links separates radio physics from
//!   matching logic and makes every allocator comparable on identical
//!   inputs.
//! * [`Budgets`] — the one store of remaining budgets: flat per-(BS,
//!   service) CRUs and per-BS RRBs whose every change is checked, with a
//!   list of the BSs that changed. Instances, engines and allocators all
//!   keep their budgets in one.
//! * [`Allocation`] — the output `a_{u,i}`: each UE is either assigned to
//!   one BS or forwarded to the remote cloud. [`Allocation::validate`]
//!   checks every constraint of the TPM problem (Definition 1).
//! * [`Allocator`] — the object-safe strategy interface implemented by
//!   [`Dmra`] here and by the baselines in `dmra-baselines`.
//! * [`matching`] — Algorithm 1's deferred-acceptance loop with the UE-
//!   and BS-side [`matching::Preferences`] injected. DCSP and NonCo in
//!   `dmra-baselines` are preference sets for this loop.
//! * [`Dmra`] — the paper's Algorithm 1 in a fast centralized-state
//!   execution, tested against [`Dmra::solve_reference`]: the
//!   [`matching`] loop under DMRA's preferences. [`agents`] runs the
//!   *same* protocol as genuinely message-passing UE/BS agents on
//!   `dmra-proto`, scoring with the same Eq. (17) and BS-key functions,
//!   and is tested to produce the identical allocation under reliable
//!   delivery.
//!
//! # Examples
//!
//! Build a tiny two-SP instance by hand and run DMRA on it:
//!
//! ```
//! use dmra_core::{Allocator, CoverageModel, Dmra, ProblemInstance};
//! use dmra_econ::PricingConfig;
//! use dmra_radio::RadioConfig;
//! use dmra_types::*;
//!
//! let sps = vec![
//!     SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0)),
//!     SpSpec::new(SpId::new(1), Money::new(10.0), Money::new(1.0)),
//! ];
//! let catalog = ServiceCatalog::new(2);
//! let bss = vec![BsSpec::new(
//!     BsId::new(0),
//!     SpId::new(0),
//!     Point::new(0.0, 0.0),
//!     vec![Cru::new(100), Cru::new(100)],
//!     Hertz::from_mhz(10.0),
//!     RrbCount::new(55),
//! )];
//! let ues = vec![UeSpec::new(
//!     UeId::new(0),
//!     SpId::new(1),
//!     Point::new(50.0, 0.0),
//!     ServiceId::new(1),
//!     Cru::new(4),
//!     BitsPerSec::from_mbps(3.0),
//!     Dbm::new(10.0),
//! )];
//! let instance = ProblemInstance::build(
//!     sps,
//!     bss,
//!     ues,
//!     catalog,
//!     PricingConfig::paper_defaults(),
//!     RadioConfig::paper_defaults(),
//!     CoverageModel::default(),
//! )?;
//! let allocation = Dmra::default().allocate(&instance);
//! assert_eq!(allocation.bs_of(UeId::new(0)), Some(BsId::new(0)));
//! # Ok::<(), dmra_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agents;
mod allocation;
mod allocator;
pub mod analysis;
mod budgets;
pub mod components;
mod dmra;
mod instance;
pub mod matching;
mod online;

pub use allocation::{Allocation, AllocationStats};
pub use allocator::{Allocator, AllocatorSession};
pub use budgets::Budgets;
pub use components::{decompose, Component, Decomposition};
pub use dmra::{Dmra, DmraConfig, DmraOutcome, DmraWorkspace};
pub use dmra_par::Threads;
pub use instance::{CandidateLink, CandidateScan, CoverageModel, PriceMemo, ProblemInstance};
pub use online::DeploymentContext;
