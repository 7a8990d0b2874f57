//! NonCo — the non-collaborative baseline of Section VI-B.

use dmra_core::matching::{self, Preferences};
use dmra_core::{Allocation, Allocator, Budgets, CandidateLink, ProblemInstance};
use dmra_types::{BsId, UeId, UeSpec};

/// The NonCo baseline.
///
/// * **UE side:** propose to the candidate BS with the *maximum uplink
///   SINR* — the classical max-RSRP/max-SINR attach rule, oblivious to
///   load, price and SP.
/// * **BS side:** prefer the proposer consuming the *fewest RRBs*,
///   tie-breaking by UE id.
///
/// BSs do not collaborate: no occupancy balancing, no SP preference. NonCo
/// packs UEs onto their nearest BSs until those saturate, forwarding the
/// rest to the cloud.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonCo {
    _private: (),
}

impl NonCo {
    /// Creates the NonCo baseline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Preferences for NonCo {
    fn ue_score(
        &self,
        _instance: &ProblemInstance,
        _pool: &Budgets,
        _ue: &UeSpec,
        link: &CandidateLink,
    ) -> f64 {
        // Lower is better, so negate the SINR.
        -link.sinr_linear
    }

    fn bs_key(&self, instance: &ProblemInstance, bs: BsId, ue: UeId) -> u128 {
        let link = instance.link(ue, bs).expect("proposer is candidate");
        matching::bs_key(false, 0, link.n_rrbs.get(), ue)
    }
}

impl Allocator for NonCo {
    fn name(&self) -> &str {
        "NonCo"
    }

    /// # Panics
    ///
    /// Panics if the loop outlives its `2·|U| + 2` round bound, which
    /// would be a bug (it quiesces within `|U| + 1` rounds).
    fn allocate(&self, instance: &ProblemInstance) -> Allocation {
        matching::run(instance, self, 2 * instance.n_ues() + 2)
            .expect("NonCo terminates within its round bound")
            .allocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::small_grid_instance;

    #[test]
    fn nonco_allocations_validate() {
        let inst = small_grid_instance(40, 13);
        let alloc = NonCo::new().allocate(&inst);
        alloc.validate(&inst).unwrap();
        assert!(alloc.edge_served() > 0);
    }

    #[test]
    fn nonco_is_deterministic() {
        let inst = small_grid_instance(30, 5);
        assert_eq!(NonCo::new().allocate(&inst), NonCo::new().allocate(&inst));
    }

    #[test]
    fn uncontested_ue_attaches_to_max_sinr_bs() {
        // With a single UE there is no contention: it must land on its
        // highest-SINR (nearest) candidate.
        let inst = small_grid_instance(1, 2);
        let alloc = NonCo::new().allocate(&inst);
        let ue = UeId::new(0);
        if let Some(bs) = alloc.bs_of(ue) {
            let chosen = inst.link(ue, bs).unwrap();
            let best = inst
                .candidates(ue)
                .iter()
                .map(|l| l.sinr_linear)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((chosen.sinr_linear - best).abs() < 1e-12);
        }
    }
}
