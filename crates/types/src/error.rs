//! The workspace-wide error type.

use crate::id::{BsId, ServiceId, SpId, UeId};
use std::fmt;

/// A convenient alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while building or solving a DMRA problem instance.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A configuration field failed validation (message explains which).
    InvalidConfig(String),
    /// An entity references an SP that does not exist.
    UnknownSp(SpId),
    /// A reference to a BS that does not exist in the instance.
    UnknownBs(BsId),
    /// A reference to a UE that does not exist in the instance.
    UnknownUe(UeId),
    /// A reference to a service outside the catalog.
    UnknownService(ServiceId),
    /// The profitability constraint (16) of the paper, `m_k > p_{i,u} +
    /// m_k^o`, is violated for the given SP — the pricing constants would
    /// make some edge assignment run at a loss.
    UnprofitablePricing {
        /// The SP whose margin is insufficient.
        sp: SpId,
        /// Human-readable detail (worst-case price vs. margin).
        detail: String,
    },
    /// A matching run exceeded its iteration bound without quiescing; this
    /// indicates a bug, as the paper's algorithm provably terminates. The
    /// instance dimensions make the report actionable without a rerun.
    NonTermination {
        /// The configured iteration bound that was exhausted.
        bound: usize,
        /// Number of UEs in the instance that failed to quiesce.
        n_ues: usize,
        /// Number of BSs in the instance that failed to quiesce.
        n_bss: usize,
    },
    /// An allocation admits more demand at a BS than the BS has left:
    /// committing it would drive a remaining budget below zero. The
    /// simulators' commit step raises this in every build profile.
    OverCommit {
        /// The BS whose budget would go negative.
        bs: BsId,
        /// Which budget ran out, with the remaining and demanded amounts.
        detail: String,
    },
    /// Returning resources would lift a remaining budget past what its
    /// counter can hold: a release that no admission took.
    BudgetOverflow {
        /// The BS whose budget would overflow.
        bs: BsId,
        /// Which budget overflowed, with the held and returned amounts.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::UnknownSp(id) => write!(f, "unknown service provider {id}"),
            Error::UnknownBs(id) => write!(f, "unknown base station {id}"),
            Error::UnknownUe(id) => write!(f, "unknown user equipment {id}"),
            Error::UnknownService(id) => write!(f, "unknown service {id}"),
            Error::UnprofitablePricing { sp, detail } => {
                write!(f, "pricing violates constraint (16) for {sp}: {detail}")
            }
            Error::NonTermination {
                bound,
                n_ues,
                n_bss,
            } => {
                write!(
                    f,
                    "matching did not quiesce within {bound} iterations \
                     (instance: {n_ues} UEs x {n_bss} BSs; the algorithm \
                     provably terminates in at most |U| + 1 iterations)"
                )
            }
            Error::OverCommit { bs, detail } => {
                write!(f, "allocation over-commits {bs}: {detail}")
            }
            Error::BudgetOverflow { bs, detail } => {
                write!(f, "a release overflows the budget of {bs}: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = Error::UnknownBs(BsId::new(4));
        assert_eq!(e.to_string(), "unknown base station bs4");
        let e = Error::InvalidConfig("n_ues must be positive".into());
        assert!(e.to_string().starts_with("invalid configuration:"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<Error>();
    }

    #[test]
    fn nontermination_reports_bound_and_dimensions() {
        let e = Error::NonTermination {
            bound: 10_000,
            n_ues: 600,
            n_bss: 25,
        };
        let msg = e.to_string();
        assert!(msg.contains("10000"), "bound missing: {msg}");
        assert!(msg.contains("600 UEs"), "UE count missing: {msg}");
        assert!(msg.contains("25 BSs"), "BS count missing: {msg}");
    }
}
