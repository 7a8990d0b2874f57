//! An exact TPM solver for small instances, by branch and bound.
//!
//! The Total Profit Maximization problem (Definition 1) is a
//! multi-dimensional assignment problem; exhaustive search is hopeless at
//! paper scale, but small instances (≈ tens of UEs) solve quickly with
//! branch and bound, giving a ground-truth optimum against which the
//! heuristics' *optimality gap* can be measured (see the `optimality`
//! integration tests and EXPERIMENTS.md).

use dmra_core::matching::ResourcePool;
use dmra_core::{Allocation, Allocator, CandidateLink, ProblemInstance};
use dmra_types::{BsId, Money, UeSpec};

/// Exact branch-and-bound solver for the TPM objective.
///
/// Explores UEs in id order; at each node the options are the UE's
/// candidate BSs (sorted by decreasing profit) and the cloud. Nodes are
/// pruned when the current profit plus an optimistic bound (each remaining
/// UE served at its best-profit link, capacities ignored) cannot beat the
/// incumbent.
#[derive(Debug, Clone, Copy)]
pub struct ExactOptimal {
    max_nodes: u64,
}

impl ExactOptimal {
    /// Creates a solver that aborts after exploring `max_nodes` search
    /// nodes.
    #[must_use]
    pub fn new(max_nodes: u64) -> Self {
        Self { max_nodes }
    }

    /// Solves to optimality, returning the best allocation and its profit.
    ///
    /// Returns `None` if the node budget was exhausted before the search
    /// completed — the result would not be provably optimal.
    #[must_use]
    pub fn solve(&self, instance: &ProblemInstance) -> Option<(Allocation, Money)> {
        let n = instance.n_ues();
        // Per-UE serving options: (profit, link), best first.
        let options: Vec<Vec<(f64, &CandidateLink)>> = instance
            .ues()
            .iter()
            .map(|ue| {
                let margin = instance.sps()[ue.sp.as_usize()].gross_margin();
                let mut opts: Vec<_> = instance
                    .candidates(ue.id)
                    .iter()
                    .map(|link| (ue.cru_demand.as_f64() * (margin - link.price).get(), link))
                    .collect();
                opts.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                opts
            })
            .collect();
        // Suffix sums of the optimistic bound.
        let mut optimistic_tail = vec![0.0; n + 1];
        for u in (0..n).rev() {
            let best = options[u].first().map_or(0.0, |o| o.0.max(0.0));
            optimistic_tail[u] = optimistic_tail[u + 1] + best;
        }

        let mut search = Search {
            ues: instance.ues(),
            options: &options,
            optimistic_tail: &optimistic_tail,
            pool: ResourcePool::new(instance),
            current: vec![None; n],
            best: vec![None; n],
            best_profit: -1.0,
            nodes: 0,
            max_nodes: self.max_nodes,
            exhausted: false,
        };
        search.dfs(0, 0.0);
        if search.exhausted {
            return None;
        }
        let allocation = Allocation::from_assignments(search.best);
        let profit = Money::new(search.best_profit.max(0.0));
        Some((allocation, profit))
    }
}

impl Default for ExactOptimal {
    /// A generous default budget of 20 million nodes (small instances
    /// finish in far fewer).
    fn default() -> Self {
        Self::new(20_000_000)
    }
}

struct Search<'a> {
    ues: &'a [UeSpec],
    options: &'a [Vec<(f64, &'a CandidateLink)>],
    optimistic_tail: &'a [f64],
    pool: ResourcePool,
    current: Vec<Option<BsId>>,
    best: Vec<Option<BsId>>,
    best_profit: f64,
    nodes: u64,
    max_nodes: u64,
    exhausted: bool,
}

impl Search<'_> {
    fn dfs(&mut self, u: usize, profit: f64) {
        if self.exhausted {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.exhausted = true;
            return;
        }
        if u == self.options.len() {
            if profit > self.best_profit {
                self.best_profit = profit;
                self.best.copy_from_slice(&self.current);
            }
            return;
        }
        // Bound: even serving every remaining UE at its best link cannot
        // beat the incumbent.
        if profit + self.optimistic_tail[u] <= self.best_profit {
            return;
        }
        let (ue, options) = (&self.ues[u], self.options);
        for &(gain, link) in &options[u] {
            if gain <= 0.0 {
                // Options are sorted; the rest cannot help either (the
                // cloud at 0 dominates them).
                break;
            }
            if !self.pool.fits(ue, link) {
                continue;
            }
            self.pool.take(ue, link);
            self.current[u] = Some(link.bs);
            self.dfs(u + 1, profit + gain);
            self.current[u] = None;
            self.pool.put_back(ue, link);
        }
        // The cloud option.
        self.dfs(u + 1, profit);
    }
}

impl Allocator for ExactOptimal {
    fn name(&self) -> &str {
        "ExactOptimal"
    }

    /// # Panics
    ///
    /// Panics if the node budget is exhausted — this solver is for small
    /// instances; use [`ExactOptimal::solve`] to handle the budget
    /// gracefully.
    fn allocate(&self, instance: &ProblemInstance) -> Allocation {
        self.solve(instance)
            .expect("exact search exceeded its node budget; instance too large")
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::small_grid_instance;
    use crate::{Dcsp, GreedyProfit, NonCo};
    use dmra_core::Dmra;
    use dmra_types::{Cru, RrbCount, UeId};

    /// Exhaustive reference for very small instances.
    fn brute_force(instance: &ProblemInstance) -> f64 {
        fn rec(
            instance: &ProblemInstance,
            u: usize,
            rem_cru: &mut Vec<Vec<Cru>>,
            rem_rrb: &mut Vec<RrbCount>,
            profit: f64,
        ) -> f64 {
            if u == instance.n_ues() {
                return profit;
            }
            let ue = &instance.ues()[u];
            let sp = &instance.sps()[ue.sp.as_usize()];
            let mut best = rec(instance, u + 1, rem_cru, rem_rrb, profit); // cloud
            for link in instance.candidates(UeId::new(u as u32)) {
                let i = link.bs.as_usize();
                let svc = ue.service.as_usize();
                if rem_cru[i][svc] >= ue.cru_demand && rem_rrb[i] >= link.n_rrbs {
                    rem_cru[i][svc] -= ue.cru_demand;
                    rem_rrb[i] -= link.n_rrbs;
                    let gain = ue.cru_demand.as_f64() * (sp.gross_margin() - link.price).get();
                    best = best.max(rec(instance, u + 1, rem_cru, rem_rrb, profit + gain));
                    rem_cru[i][svc] += ue.cru_demand;
                    rem_rrb[i] += link.n_rrbs;
                }
            }
            best
        }
        let mut rem_cru: Vec<Vec<Cru>> = instance
            .bss()
            .iter()
            .map(|b| b.cru_budget.clone())
            .collect();
        let mut rem_rrb: Vec<RrbCount> = instance.bss().iter().map(|b| b.rrb_budget).collect();
        rec(instance, 0, &mut rem_cru, &mut rem_rrb, 0.0)
    }

    #[test]
    fn matches_brute_force_on_tiny_instances() {
        for seed in 0..6u64 {
            let inst = small_grid_instance(6, seed);
            let (alloc, profit) = ExactOptimal::default().solve(&inst).unwrap();
            alloc.validate(&inst).unwrap();
            let reference = brute_force(&inst);
            assert!(
                (profit.get() - reference).abs() < 1e-9 * (1.0 + reference),
                "seed {seed}: bnb {profit} vs brute force {reference}"
            );
            // The reported profit matches the instance's own accounting.
            let recomputed = inst.total_profit(&alloc);
            assert!((profit.get() - recomputed.get()).abs() < 1e-9 * (1.0 + profit.get()));
        }
    }

    #[test]
    fn dominates_every_heuristic() {
        for seed in 10..16u64 {
            let inst = small_grid_instance(14, seed);
            let (_, optimal) = ExactOptimal::default().solve(&inst).unwrap();
            for algo in [
                Box::new(Dmra::default()) as Box<dyn Allocator>,
                Box::new(Dcsp::default()),
                Box::new(NonCo::default()),
                Box::new(GreedyProfit::default()),
            ] {
                let profit = inst.total_profit(&algo.allocate(&inst));
                assert!(
                    optimal.get() >= profit.get() - 1e-9,
                    "seed {seed}: {} ({profit}) beat the optimum ({optimal})",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn node_budget_is_respected() {
        let inst = small_grid_instance(30, 1);
        // A one-node budget cannot complete the search.
        assert!(ExactOptimal::new(1).solve(&inst).is_none());
    }

    #[test]
    fn dmra_gap_is_small_on_small_instances() {
        let mut total_dmra = 0.0;
        let mut total_opt = 0.0;
        for seed in 20..28u64 {
            let inst = small_grid_instance(12, seed);
            let (_, optimal) = ExactOptimal::default().solve(&inst).unwrap();
            total_opt += optimal.get();
            total_dmra += inst.total_profit(&Dmra::default().allocate(&inst)).get();
        }
        let gap = total_dmra / total_opt;
        assert!(
            gap > 0.75,
            "DMRA at {:.1}% of optimal, expected > 75%",
            gap * 100.0
        );
    }
}
