//! The seeded random-assignment noise floor.

use dmra_core::{Allocation, Allocator, ProblemInstance};
use dmra_geo::rng::component_rng;
use rand::Rng;

/// Assigns each UE (in random order) to a uniformly random *feasible*
/// candidate BS, forwarding to the cloud when none remains feasible.
///
/// Useful as a noise floor in the figures: any algorithm worth plotting
/// should clear it comfortably.
#[derive(Debug, Clone, Copy)]
pub struct RandomAllocator {
    seed: u64,
}

impl RandomAllocator {
    /// Creates the baseline with an explicit seed (determinism contract of
    /// [`Allocator`] implementations).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The seed this baseline was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Default for RandomAllocator {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Allocator for RandomAllocator {
    fn name(&self) -> &str {
        "Random"
    }

    fn allocate(&self, instance: &ProblemInstance) -> Allocation {
        let mut rng = component_rng(self.seed, "random-allocator");
        let mut order: Vec<usize> = (0..instance.n_ues()).collect();
        // Fisher–Yates so arrival order does not systematically favour
        // low-id UEs.
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut pool = instance.budgets().clone();
        let mut alloc = Allocation::all_cloud(instance.n_ues());
        for u in order {
            let spec = &instance.ues()[u];
            let feasible: Vec<_> = instance
                .candidates(spec.id)
                .iter()
                .filter(|l| pool.fits(l.bs, spec.service, spec.cru_demand, l.n_rrbs))
                .collect();
            if feasible.is_empty() {
                continue;
            }
            let pick = feasible[rng.random_range(0..feasible.len())];
            pool.take(pick.bs, spec.service, spec.cru_demand, pick.n_rrbs)
                .expect("the pick fits: checked above");
            alloc.assign(spec.id, pick.bs);
        }
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::small_grid_instance;

    #[test]
    fn random_allocations_validate() {
        let inst = small_grid_instance(50, 29);
        for seed in 0..10 {
            let alloc = RandomAllocator::new(seed).allocate(&inst);
            alloc.validate(&inst).unwrap();
        }
    }

    #[test]
    fn same_seed_same_allocation() {
        let inst = small_grid_instance(30, 31);
        let a = RandomAllocator::new(5).allocate(&inst);
        let b = RandomAllocator::new(5).allocate(&inst);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let inst = small_grid_instance(30, 37);
        let a = RandomAllocator::new(1).allocate(&inst);
        let b = RandomAllocator::new(2).allocate(&inst);
        assert_ne!(a, b);
    }

    #[test]
    fn serves_everyone_when_capacity_abounds() {
        let inst = small_grid_instance(5, 41);
        let alloc = RandomAllocator::new(9).allocate(&inst);
        // Every UE with a candidate should be placed.
        for ue in inst.ues() {
            if inst.f_u(ue.id) > 0 {
                assert!(alloc.bs_of(ue.id).is_some());
            }
        }
    }
}
