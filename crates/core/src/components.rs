//! Connected-component decomposition of a [`ProblemInstance`].
//!
//! The matching of Algorithm 1 is decentralized by construction: a UE only
//! ever interacts with the BSs in its candidate set, and a BS only with the
//! UEs that propose to it. Viewing UEs and BSs as the two sides of a
//! bipartite graph whose edges are the precomputed candidate links, the
//! instance splits into connected components whose deferred-acceptance
//! runs cannot influence each other. [`decompose`] finds that partition
//! with a union-find pass over the candidate rows.
//!
//! The solver does not use the partition: [`crate::Dmra`] always matches
//! the whole instance in one loop, which measured faster than solving the
//! components separately (DESIGN.md §14). [`decompose`] stays as a
//! measurement of an instance's structure — the repository benchmark
//! reports its component count and largest-component share.

use crate::instance::ProblemInstance;
use dmra_types::UeId;

/// One connected component of the candidate-link graph: a set of UEs and
/// the BSs they can reach, closed under "shares a candidate link".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Component {
    /// Raw UE indices, ascending.
    pub ues: Vec<u32>,
    /// Raw BS indices, ascending.
    pub bss: Vec<u32>,
}

/// The full partition produced by [`decompose`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Decomposition {
    /// Components ordered by their smallest UE index (ascending), so the
    /// partition is deterministic.
    pub components: Vec<Component>,
    /// UEs with an empty candidate row. They join no component: the
    /// matcher cloud-forwards them in its first iteration without ever
    /// touching BS state.
    pub cloud_only: Vec<u32>,
}

impl Decomposition {
    /// Number of UEs across all components plus the cloud-only set.
    #[must_use]
    pub fn n_ues(&self) -> usize {
        self.cloud_only.len() + self.components.iter().map(|c| c.ues.len()).sum::<usize>()
    }

    /// The largest component's UE count (0 when there are none).
    #[must_use]
    pub fn max_component_ues(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.ues.len())
            .max()
            .unwrap_or(0)
    }
}

/// Partitions the instance into connected components of the candidate-link
/// graph via union-find (path-halving find, union by size).
///
/// The pass is `O(links α(n))` and allocation-light: one parent/size table
/// over `n_ues + n_bss` nodes, then one ascending sweep per side to emit
/// the components in deterministic order.
#[must_use]
pub fn decompose(instance: &ProblemInstance) -> Decomposition {
    let n_ues = instance.n_ues();
    let n_bss = instance.n_bss();
    // Nodes 0..n_ues are UEs; n_ues..n_ues+n_bss are BSs.
    let mut uf = UnionFind::new(n_ues + n_bss);
    let mut decomp = Decomposition::default();
    for u in 0..n_ues {
        let row = instance.candidates(UeId::new(u as u32));
        if row.is_empty() {
            decomp.cloud_only.push(u as u32);
            continue;
        }
        for link in row {
            uf.union(u, n_ues + link.bs.as_usize());
        }
    }
    // Emit components ordered by smallest member UE; membership lists
    // come out ascending because both sweeps run in ascending index
    // order.
    let mut component_of_root = vec![usize::MAX; n_ues + n_bss];
    let components = &mut decomp.components;
    for u in 0..n_ues {
        if instance.candidates(UeId::new(u as u32)).is_empty() {
            continue;
        }
        let root = uf.find(u);
        let c = if component_of_root[root] == usize::MAX {
            component_of_root[root] = components.len();
            components.push(Component::default());
            components.len() - 1
        } else {
            component_of_root[root]
        };
        components[c].ues.push(u as u32);
    }
    for b in 0..n_bss {
        let c = component_of_root[uf.find(n_ues + b)];
        if c != usize::MAX {
            // BSs out of everyone's reach (no candidate link at all)
            // stay out of every component.
            components[c].bss.push(b as u32);
        }
    }
    decomp
}

/// Array-based disjoint-set forest.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// A forest of `n` singletons.
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            // Path halving: point every other node at its grandparent.
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::instance::tests::two_sp_instance;
    use crate::instance::CoverageModel;
    use dmra_econ::PricingConfig;
    use dmra_radio::RadioConfig;
    use dmra_types::{
        BitsPerSec, BsSpec, Cru, Dbm, Hertz, Money, Point, ServiceCatalog, ServiceId, SpId, SpSpec,
        UeSpec,
    };

    #[test]
    fn union_find_merges_and_finds() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(4));
        assert_ne!(uf.find(4), uf.find(5));
    }

    #[test]
    fn two_sp_instance_is_one_component() {
        // The tiny shared instance: both UEs reach both BSs.
        let inst = two_sp_instance();
        let d = decompose(&inst);
        assert_eq!(d.components.len(), 1);
        assert!(d.cloud_only.is_empty());
        assert_eq!(d.components[0].ues, vec![0, 1]);
        assert_eq!(d.components[0].bss, vec![0, 1]);
        assert_eq!(d.n_ues(), inst.n_ues());
        assert_eq!(d.max_component_ues(), 2);
    }

    /// Two BS "islands" far beyond coverage range of each other, each with
    /// its own cluster of UEs — decomposes into two components. A third UE
    /// cluster member sits out of everyone's coverage (cloud-only).
    pub(crate) fn island_instance() -> ProblemInstance {
        let sps = vec![
            SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0)),
            SpSpec::new(SpId::new(1), Money::new(10.0), Money::new(1.0)),
        ];
        let catalog = ServiceCatalog::new(2);
        let mk_bs = |id: u32, sp: u32, x: f64| {
            BsSpec::new(
                dmra_types::BsId::new(id),
                SpId::new(sp),
                Point::new(x, 0.0),
                vec![Cru::new(100), Cru::new(100)],
                Hertz::from_mhz(10.0),
                dmra_types::RrbCount::new(55),
            )
        };
        let bss = vec![mk_bs(0, 0, 0.0), mk_bs(1, 1, 100_000.0)];
        let mk_ue = |id: u32, sp: u32, x: f64, svc: u32| {
            UeSpec::new(
                dmra_types::UeId::new(id),
                SpId::new(sp),
                Point::new(x, 0.0),
                ServiceId::new(svc),
                Cru::new(4),
                BitsPerSec::from_mbps(3.0),
                Dbm::new(10.0),
            )
        };
        let ues = vec![
            mk_ue(0, 0, 100.0, 0),     // island 0
            mk_ue(1, 1, 100_100.0, 1), // island 1
            mk_ue(2, 1, 120.0, 0),     // island 0, cross-SP
            mk_ue(3, 0, 50_000.0, 0),  // out of all coverage → cloud-only
            mk_ue(4, 0, 100_050.0, 1), // island 1, cross-SP
        ];
        ProblemInstance::build(
            sps,
            bss,
            ues,
            catalog,
            PricingConfig::paper_defaults(),
            RadioConfig::paper_defaults(),
            CoverageModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn island_instance_decomposes_into_two_components() {
        let inst = island_instance();
        let d = decompose(&inst);
        assert_eq!(d.components.len(), 2, "decomposition: {d:?}");
        assert_eq!(d.cloud_only, vec![3]);
        assert_eq!(d.components[0].ues, vec![0, 2]);
        assert_eq!(d.components[0].bss, vec![0]);
        assert_eq!(d.components[1].ues, vec![1, 4]);
        assert_eq!(d.components[1].bss, vec![1]);
    }
}
