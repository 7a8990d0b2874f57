//! Centralized sanity baselines: profit-greedy and cloud-only.

use dmra_core::{Allocation, Allocator, CandidateLink, ProblemInstance};
use dmra_types::UeSpec;

/// A centralized, profit-greedy assigner.
///
/// Sorts every candidate `(UE, BS)` pair by *profit density* — the SP
/// profit the pair would generate, `c_j^u · (m_k − m_k^o − p_{i,u})`,
/// divided by the RRBs it would consume (the binding resource at paper
/// scale) — and commits pairs greedily while resources allow. Not part of
/// the paper's evaluation; it serves as an informative near-upper
/// reference for the figures (density greedy is the classical knapsack
/// heuristic; no decentralized scheme should beat it by much).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyProfit {
    _private: (),
}

impl GreedyProfit {
    /// Creates the greedy baseline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Allocator for GreedyProfit {
    fn name(&self) -> &str {
        "GreedyProfit"
    }

    fn allocate(&self, instance: &ProblemInstance) -> Allocation {
        // Collect (density, ue, link) for every candidate link.
        let mut edges: Vec<(f64, &UeSpec, &CandidateLink)> = Vec::new();
        for ue in instance.ues() {
            let sp = &instance.sps()[ue.sp.as_usize()];
            let margin = sp.gross_margin();
            for link in instance.candidates(ue.id) {
                let profit = ue.cru_demand.as_f64() * (margin - link.price).get();
                let density = profit / f64::from(link.n_rrbs.get().max(1));
                edges.push((density, ue, link));
            }
        }
        // Highest density first; deterministic tie-break on (ue, bs).
        edges.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.id.cmp(&b.1.id))
                .then(a.2.bs.cmp(&b.2.bs))
        });

        let mut pool = instance.budgets().clone();
        let mut alloc = Allocation::all_cloud(instance.n_ues());
        for (_, ue, link) in edges {
            let (svc, cru, rrbs) = (ue.service, ue.cru_demand, link.n_rrbs);
            if alloc.bs_of(ue.id).is_none() && pool.fits(link.bs, svc, cru, rrbs) {
                pool.take(link.bs, svc, cru, rrbs)
                    .expect("the link fits: checked above");
                alloc.assign(ue.id, link.bs);
            }
        }
        alloc
    }
}

/// Forwards every task to the remote cloud — the zero-profit floor.
#[derive(Debug, Clone, Copy, Default)]
pub struct CloudOnly {
    _private: (),
}

impl CloudOnly {
    /// Creates the cloud-only baseline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Allocator for CloudOnly {
    fn name(&self) -> &str {
        "CloudOnly"
    }

    fn allocate(&self, instance: &ProblemInstance) -> Allocation {
        Allocation::all_cloud(instance.n_ues())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::small_grid_instance;
    use crate::{Dcsp, NonCo};

    #[test]
    fn greedy_validates_and_earns() {
        let inst = small_grid_instance(40, 17);
        let alloc = GreedyProfit::new().allocate(&inst);
        alloc.validate(&inst).unwrap();
        assert!(inst.total_profit(&alloc).get() > 0.0);
    }

    #[test]
    fn greedy_beats_or_matches_load_oblivious_baselines() {
        // Not a theorem, but on well-provisioned instances the profit-aware
        // centralized greedy should never lose to SP-oblivious matchers.
        let inst = small_grid_instance(60, 19);
        let g = inst.total_profit(&GreedyProfit::new().allocate(&inst));
        let d = inst.total_profit(&Dcsp::new().allocate(&inst));
        let n = inst.total_profit(&NonCo::new().allocate(&inst));
        assert!(g.get() >= d.get() - 1e-9, "greedy {g} < dcsp {d}");
        assert!(g.get() >= n.get() - 1e-9, "greedy {g} < nonco {n}");
    }

    #[test]
    fn cloud_only_serves_nothing() {
        let inst = small_grid_instance(10, 23);
        let alloc = CloudOnly::new().allocate(&inst);
        alloc.validate(&inst).unwrap();
        assert_eq!(alloc.edge_served(), 0);
        assert_eq!(inst.total_profit(&alloc).get(), 0.0);
    }
}
