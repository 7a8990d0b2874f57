//! DCSP — Decentralized Collaboration Service Placement (Yu et al.,
//! GLOBECOM 2018), as characterised in Section VI-B of the DMRA paper.

use dmra_core::matching::{self, Preferences};
use dmra_core::{Allocation, Allocator, Budgets, CandidateLink, ProblemInstance};
use dmra_types::{BsId, UeId, UeSpec};

/// The DCSP baseline.
///
/// * **UE side:** propose to the candidate BS with the *lowest resource
///   occupation* (fraction of the requested service's CRUs plus the uplink
///   RRBs already committed).
/// * **BS side:** prefer the proposer that the *fewest* BSs can cover
///   (smallest `f_u`), tie-breaking by least radio consumption
///   (`n_{u,i}`), then by UE id for determinism.
///
/// DCSP balances load well but is blind to SP boundaries and prices, which
/// is exactly where DMRA gains its profit edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dcsp {
    _private: (),
}

impl Dcsp {
    /// Creates the DCSP baseline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Preferences for Dcsp {
    /// The fraction of the BS's combined (requested-service CRU + RRB)
    /// capacity in use: the "resource occupation" DCSP minimises.
    fn ue_score(
        &self,
        instance: &ProblemInstance,
        pool: &Budgets,
        ue: &UeSpec,
        link: &CandidateLink,
    ) -> f64 {
        let full = instance.budgets();
        let cap = full.cru(link.bs, ue.service).as_f64() + full.rrb(link.bs).as_f64();
        if cap <= 0.0 {
            return 1.0;
        }
        let rem = pool.cru(link.bs, ue.service).as_f64() + pool.rrb(link.bs).as_f64();
        1.0 - rem / cap
    }

    fn bs_key(&self, instance: &ProblemInstance, bs: BsId, ue: UeId) -> u128 {
        let link = instance.link(ue, bs).expect("proposer is candidate");
        matching::bs_key(false, instance.f_u(ue), link.n_rrbs.get(), ue)
    }
}

impl Allocator for Dcsp {
    fn name(&self) -> &str {
        "DCSP"
    }

    /// # Panics
    ///
    /// Panics if the loop outlives its `2·|U| + 2` round bound, which
    /// would be a bug (it quiesces within `|U| + 1` rounds).
    fn allocate(&self, instance: &ProblemInstance) -> Allocation {
        matching::run(instance, self, 2 * instance.n_ues() + 2)
            .expect("DCSP terminates within its round bound")
            .allocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::small_grid_instance;

    #[test]
    fn dcsp_allocations_validate() {
        let inst = small_grid_instance(40, 7);
        let alloc = Dcsp::new().allocate(&inst);
        alloc.validate(&inst).unwrap();
        assert!(alloc.edge_served() > 0);
    }

    #[test]
    fn dcsp_is_deterministic() {
        let inst = small_grid_instance(30, 3);
        assert_eq!(Dcsp::new().allocate(&inst), Dcsp::new().allocate(&inst));
    }

    #[test]
    fn occupancy_scoring_serves_most_covered_ues() {
        // Some random UEs fall outside every BS's coverage and must go to the
        // cloud; among *covered* UEs DCSP should serve the large majority
        // when capacity is plentiful.
        let inst = small_grid_instance(20, 11);
        let alloc = Dcsp::new().allocate(&inst);
        let covered = inst.ues().iter().filter(|u| inst.f_u(u.id) > 0).count();
        assert!(covered > 0);
        let served = alloc.edge_served();
        assert!(
            served as f64 >= 0.7 * covered as f64,
            "served {served} of {covered} covered UEs"
        );
    }
}
