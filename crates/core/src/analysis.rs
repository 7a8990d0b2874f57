//! Matching-theoretic analysis of allocations.
//!
//! DMRA descends from deferred acceptance (Gale–Shapley), so it is natural
//! to ask how close its output is to a *stable* matching. The classical
//! notion adapts to this setting as an **envy pair**: a UE `u` and a
//! candidate BS `i'` such that
//!
//! 1. `u` strictly prefers `i'` to its current assignment (or is in the
//!    cloud), under a given preference score, and
//! 2. `i'` still has enough CRUs and RRBs to serve `u` after the
//!    allocation.
//!
//! A matching with no envy pairs cannot be improved by any unilateral
//! UE move — no UE can point at spare capacity it would rather use.
//!
//! **Theorem (tested, not just claimed).** With `ρ = 0` the UE preference
//! of Eq. (17) is static (price only), and DMRA's prune-on-incapacity loop
//! guarantees the final allocation has *zero* price-envy pairs: a UE only
//! settles for a worse-priced BS after every better-priced candidate
//! became (and, by monotonicity, stays) infeasible. With `ρ > 0`
//! preferences drift as resources drain, and envy pairs can appear; the
//! [`envy_pairs_by`] counter quantifies that drift and is reported by the
//! ablation benches.

use crate::allocation::Allocation;
use crate::budgets::Budgets;
use crate::instance::{CandidateLink, ProblemInstance};
use dmra_types::UeId;

/// One envy pair found by the analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvyPair {
    /// The envious UE.
    pub ue: UeId,
    /// The link it would prefer (and which still has capacity for it).
    pub preferred: CandidateLink,
    /// The score of the preferred link (lower is better).
    pub preferred_score: f64,
    /// The score of the UE's current assignment (`+∞` for cloud UEs).
    pub current_score: f64,
}

/// Finds all envy pairs of `allocation` under a custom preference score
/// (**lower is better**), considering only BSs with enough remaining
/// capacity ([`ProblemInstance::remaining`]) to actually serve the UE.
///
/// # Panics
///
/// Panics if the allocation is not a feasible allocation of this
/// instance (run [`Allocation::validate`] first when in doubt).
#[must_use]
pub fn envy_pairs_by<F>(
    instance: &ProblemInstance,
    allocation: &Allocation,
    mut score: F,
) -> Vec<EnvyPair>
where
    F: FnMut(UeId, &CandidateLink) -> f64,
{
    let rem = remaining(instance, allocation);
    let mut pairs = Vec::new();
    for ue in instance.ues() {
        let current_score = match allocation.bs_of(ue.id) {
            Some(bs) => {
                let link = instance
                    .link(ue.id, bs)
                    .expect("assignment must be a candidate link");
                score(ue.id, link)
            }
            None => f64::INFINITY,
        };
        for link in instance.candidates(ue.id) {
            if Some(link.bs) == allocation.bs_of(ue.id) {
                continue;
            }
            if !rem.fits(link.bs, ue.service, ue.cru_demand, link.n_rrbs) {
                continue;
            }
            let s = score(ue.id, link);
            if s < current_score {
                pairs.push(EnvyPair {
                    ue: ue.id,
                    preferred: *link,
                    preferred_score: s,
                    current_score,
                });
            }
        }
    }
    pairs
}

/// Envy pairs under the pure price preference (`ρ = 0` reading of
/// Eq. (17)): a UE envies any *cheaper* candidate that still has room.
///
/// DMRA run with `ρ = 0` produces allocations with **no** such pairs; see
/// the module docs and the `stability` tests.
#[must_use]
pub fn price_envy_pairs(instance: &ProblemInstance, allocation: &Allocation) -> Vec<EnvyPair> {
    envy_pairs_by(instance, allocation, |_, link| link.price.get())
}

/// Envy pairs under the full Eq. (17) preference at a given `ρ`, evaluated
/// against the *end-state* remaining resources.
///
/// # Panics
///
/// As [`envy_pairs_by`].
#[must_use]
pub fn eq17_envy_pairs(
    instance: &ProblemInstance,
    allocation: &Allocation,
    rho: f64,
) -> Vec<EnvyPair> {
    let rem = remaining(instance, allocation);
    envy_pairs_by(instance, allocation, |ue, link| {
        let svc = instance.ues()[ue.as_usize()].service;
        let denom = rem.cru(link.bs, svc).as_f64() + rem.rrb(link.bs).as_f64();
        if denom <= 0.0 {
            f64::INFINITY
        } else {
            link.price.get() + rho / denom
        }
    })
}

/// The budgets `allocation` leaves, for an allocation the caller vouches
/// for.
fn remaining(instance: &ProblemInstance, allocation: &Allocation) -> Budgets {
    instance
        .remaining(allocation)
        .unwrap_or_else(|e| panic!("envy analysis of an infeasible allocation: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::Allocator;
    use crate::dmra::{Dmra, DmraConfig};
    use crate::instance::tests::two_sp_instance;

    #[test]
    fn dmra_rho_zero_has_no_price_envy() {
        let inst = two_sp_instance();
        let alloc = Dmra::new(DmraConfig::paper_defaults().with_rho(0.0)).allocate(&inst);
        assert!(price_envy_pairs(&inst, &alloc).is_empty());
    }

    #[test]
    fn cloud_only_allocation_exposes_envy() {
        let inst = two_sp_instance();
        let alloc = crate::allocation::Allocation::all_cloud(inst.n_ues());
        // Every covered UE envies every candidate (all capacity is free).
        let pairs = price_envy_pairs(&inst, &alloc);
        let expected: usize = inst.ues().iter().map(|u| inst.f_u(u.id) as usize).sum();
        assert_eq!(pairs.len(), expected);
        assert!(pairs.iter().all(|p| p.current_score.is_infinite()));
    }

    #[test]
    fn envy_requires_remaining_capacity() {
        let inst = two_sp_instance();
        let alloc = Dmra::default().allocate(&inst);
        // Custom score that makes every non-assigned link "better": the
        // only surviving pairs must point at BSs with real spare capacity.
        let pairs = envy_pairs_by(&inst, &alloc, |_, _| -1.0);
        let rem = inst.remaining(&alloc).unwrap();
        for p in pairs {
            assert!(rem.rrb(p.preferred.bs) >= p.preferred.n_rrbs);
        }
    }

    #[test]
    fn eq17_envy_is_scored_against_end_state() {
        let inst = two_sp_instance();
        let alloc = Dmra::default().allocate(&inst);
        // Just exercise both rho regimes; counts are instance-specific.
        let zero = eq17_envy_pairs(&inst, &alloc, 0.0);
        let high = eq17_envy_pairs(&inst, &alloc, 1000.0);
        // Scores must be finite for feasible links.
        for p in zero.iter().chain(high.iter()) {
            assert!(p.preferred_score.is_finite());
        }
    }
}
