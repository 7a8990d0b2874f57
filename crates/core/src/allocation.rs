//! The allocation output `a_{u,i}` and its constraint checker.

use crate::instance::ProblemInstance;
use dmra_types::{BsId, Result, RrbCount, UeId};
use serde::{Deserialize, Serialize};

/// A complete assignment of UEs to BSs (or to the remote cloud).
///
/// `assigned[u] = Some(i)` encodes `a_{u,i} = 1`; `None` means the task was
/// forwarded to the remote cloud. Constraint (15) — at most one BS per UE —
/// is structural: the representation cannot express anything else.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    assigned: Vec<Option<BsId>>,
}

impl Allocation {
    /// An allocation with every UE forwarded to the cloud.
    #[must_use]
    pub fn all_cloud(n_ues: usize) -> Self {
        Self {
            assigned: vec![None; n_ues],
        }
    }

    /// Builds an allocation from an explicit per-UE assignment vector.
    #[must_use]
    pub fn from_assignments(assigned: Vec<Option<BsId>>) -> Self {
        Self { assigned }
    }

    /// Number of UEs this allocation covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assigned.len()
    }

    /// Returns `true` if the allocation covers no UEs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assigned.is_empty()
    }

    /// The BS serving `ue`, or `None` if the task went to the cloud.
    ///
    /// # Panics
    ///
    /// Panics if `ue` is out of range for this allocation.
    #[must_use]
    pub fn bs_of(&self, ue: UeId) -> Option<BsId> {
        self.assigned[ue.as_usize()]
    }

    /// Assigns `ue` to `bs` (used by allocator implementations).
    ///
    /// # Panics
    ///
    /// Panics if `ue` is out of range.
    pub fn assign(&mut self, ue: UeId, bs: BsId) {
        self.assigned[ue.as_usize()] = Some(bs);
    }

    /// Iterates over `(ue, bs)` pairs for edge-served UEs.
    pub fn edge_pairs(&self) -> impl Iterator<Item = (UeId, BsId)> + '_ {
        self.assigned
            .iter()
            .enumerate()
            .filter_map(|(u, bs)| bs.map(|b| (UeId::new(u as u32), b)))
    }

    /// Iterates over cloud-forwarded UEs.
    pub fn cloud_ues(&self) -> impl Iterator<Item = UeId> + '_ {
        self.assigned
            .iter()
            .enumerate()
            .filter(|(_, bs)| bs.is_none())
            .map(|(u, _)| UeId::new(u as u32))
    }

    /// Number of UEs served at the edge.
    #[must_use]
    pub fn edge_served(&self) -> usize {
        self.assigned.iter().filter(|b| b.is_some()).count()
    }

    /// A 64-bit digest of the assignment vector, folding in each UE's
    /// slot (BS index + 1, or 0 for cloud) with one multiply–xorshift
    /// mix per slot (splitmix64-style, word-at-a-time — the recorder
    /// computes this every epoch, so the byte-wise FNV loop it replaced
    /// was the dominant recording cost). Equal allocations hash equal
    /// on every platform, so the flight recorder can expose one
    /// deterministic "allocator outcome" scalar per epoch that the
    /// engine-equality contract makes byte-comparable across the
    /// incremental, scratch and fault-free protocol engines.
    #[must_use]
    pub fn digest(&self) -> u64 {
        const SEED: u64 = 0xcbf2_9ce4_8422_2325;
        const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut h = SEED ^ (self.assigned.len() as u64).wrapping_mul(MIX);
        for slot in &self.assigned {
            let v: u64 = match slot {
                Some(bs) => u64::from(bs.index()) + 1,
                None => 0,
            };
            h = (h ^ v).wrapping_mul(MIX);
            h ^= h >> 29;
        }
        h
    }

    /// Checks every constraint of the TPM problem (Definition 1) against an
    /// instance, by taking every assignment from one copy of the
    /// instance's budgets ([`ProblemInstance::remaining`]):
    ///
    /// * (12) per-service CRU budgets are respected at every BS,
    /// * (13) every assignment uses a candidate link (service hosted and in
    ///   coverage),
    /// * (14) per-BS RRB budgets are respected,
    /// * (15) structural (one BS per UE),
    /// * (16) was validated at instance construction.
    ///
    /// # Errors
    ///
    /// The first violation in UE order, as [`ProblemInstance::remaining`]
    /// reports it: an invalid-configuration error naming constraint (13),
    /// an over-commit naming constraint (12) or (14), an unknown BS, or an
    /// unknown UE on a length mismatch.
    pub fn validate(&self, instance: &ProblemInstance) -> Result<()> {
        instance.remaining(self).map(drop)
    }

    /// Summary statistics of this allocation under an instance.
    ///
    /// # Panics
    ///
    /// Panics if the allocation uses non-candidate links; validate first.
    #[must_use]
    pub fn stats(&self, instance: &ProblemInstance) -> AllocationStats {
        let mut same_sp = 0usize;
        let mut rrbs_used = RrbCount::ZERO;
        for (ue_id, bs_id) in self.edge_pairs() {
            let link = instance
                .link(ue_id, bs_id)
                .expect("allocation must use candidate links");
            if link.same_sp {
                same_sp += 1;
            }
            rrbs_used += link.n_rrbs;
        }
        AllocationStats {
            n_ues: self.len(),
            edge_served: self.edge_served(),
            cloud_forwarded: self.len() - self.edge_served(),
            same_sp_served: same_sp,
            rrbs_used,
        }
    }
}

/// Headline numbers describing one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocationStats {
    /// Total UEs in the batch.
    pub n_ues: usize,
    /// UEs served by a BS.
    pub edge_served: usize,
    /// UEs forwarded to the remote cloud.
    pub cloud_forwarded: usize,
    /// Edge-served UEs attached to a BS of their own SP.
    pub same_sp_served: usize,
    /// Total RRBs consumed across BSs.
    pub rrbs_used: RrbCount,
}

impl AllocationStats {
    /// Fraction of UEs served at the edge.
    #[must_use]
    pub fn edge_fraction(&self) -> f64 {
        if self.n_ues == 0 {
            return 0.0;
        }
        self.edge_served as f64 / self.n_ues as f64
    }

    /// Fraction of edge-served UEs attached to their own SP's BSs.
    #[must_use]
    pub fn same_sp_fraction(&self) -> f64 {
        if self.edge_served == 0 {
            return 0.0;
        }
        self.same_sp_served as f64 / self.edge_served as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::tests::two_sp_instance;
    use dmra_types::{Cru, Error, ServiceId};

    #[test]
    fn all_cloud_is_valid_and_empty() {
        let inst = two_sp_instance();
        let alloc = Allocation::all_cloud(inst.n_ues());
        alloc.validate(&inst).unwrap();
        assert_eq!(alloc.edge_served(), 0);
        assert_eq!(alloc.cloud_ues().count(), 2);
        assert_eq!(inst.total_profit(&alloc).get(), 0.0);
    }

    #[test]
    fn assigning_candidate_links_validates() {
        let inst = two_sp_instance();
        let mut alloc = Allocation::all_cloud(inst.n_ues());
        alloc.assign(UeId::new(0), BsId::new(0));
        alloc.assign(UeId::new(1), BsId::new(0));
        alloc.validate(&inst).unwrap();
        assert_eq!(alloc.edge_served(), 2);
        let stats = alloc.stats(&inst);
        assert_eq!(stats.same_sp_served, 1); // UE0 is sp0 on a sp0 BS.
        assert!((stats.same_sp_fraction() - 0.5).abs() < 1e-12);
        assert!(stats.rrbs_used.get() > 0);
    }

    #[test]
    fn non_candidate_assignment_is_rejected() {
        let inst = two_sp_instance();
        let mut alloc = Allocation::all_cloud(inst.n_ues());
        // UE 1 requests service 1, which bs1 does not host.
        alloc.assign(UeId::new(1), BsId::new(1));
        let err = alloc.validate(&inst).unwrap_err();
        assert!(err.to_string().contains("constraint (13)"), "{err}");
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let inst = two_sp_instance();
        let alloc = Allocation::all_cloud(5);
        assert!(alloc.validate(&inst).is_err());
    }

    #[test]
    fn profit_prefers_same_sp_assignment() {
        let inst = two_sp_instance();
        let mut own = Allocation::all_cloud(inst.n_ues());
        own.assign(UeId::new(0), BsId::new(0)); // same SP, nearer
        let mut cross = Allocation::all_cloud(inst.n_ues());
        cross.assign(UeId::new(0), BsId::new(1)); // other SP, farther
        assert!(inst.total_profit(&own) > inst.total_profit(&cross));
    }

    #[test]
    fn forwarded_load_counts_cloud_demand() {
        let inst = two_sp_instance();
        let alloc = Allocation::all_cloud(inst.n_ues());
        // 3 + 2 Mbit/s.
        assert!((inst.forwarded_load(&alloc).to_mbps() - 5.0).abs() < 1e-9);
        let mut partial = Allocation::all_cloud(inst.n_ues());
        partial.assign(UeId::new(0), BsId::new(0));
        assert!((inst.forwarded_load(&partial).to_mbps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn digest_distinguishes_assignments_and_cloud() {
        let mut a = Allocation::all_cloud(3);
        let b = Allocation::all_cloud(3);
        assert_eq!(a.digest(), b.digest());
        a.assign(UeId::new(1), BsId::new(0));
        assert_ne!(a.digest(), b.digest(), "edge vs cloud must differ");
        let mut c = Allocation::all_cloud(3);
        c.assign(UeId::new(1), BsId::new(1));
        assert_ne!(a.digest(), c.digest(), "different BS must differ");
        let mut a2 = Allocation::all_cloud(3);
        a2.assign(UeId::new(1), BsId::new(0));
        assert_eq!(a.digest(), a2.digest(), "equal allocations hash equal");
        assert_ne!(
            Allocation::all_cloud(2).digest(),
            Allocation::all_cloud(3).digest(),
            "length is part of the digest"
        );
    }

    #[test]
    fn edge_pairs_roundtrip() {
        let inst = two_sp_instance();
        let mut alloc = Allocation::all_cloud(inst.n_ues());
        alloc.assign(UeId::new(1), BsId::new(0));
        let pairs: Vec<_> = alloc.edge_pairs().collect();
        assert_eq!(pairs, vec![(UeId::new(1), BsId::new(0))]);
    }

    #[test]
    fn remaining_resources_reflect_assignment() {
        let inst = two_sp_instance();
        let mut alloc = Allocation::all_cloud(inst.n_ues());
        alloc.assign(UeId::new(0), BsId::new(0));
        let rem = inst.remaining(&alloc).unwrap();
        let s0 = ServiceId::new(0);
        assert_eq!(rem.cru(BsId::new(0), s0), Cru::new(96)); // 100 − 4
        assert_eq!(rem.cru(BsId::new(1), s0), Cru::new(100));
        let n = inst.link(UeId::new(0), BsId::new(0)).unwrap().n_rrbs;
        assert_eq!(rem.rrb(BsId::new(0)), RrbCount::new(55) - n);
        assert_eq!(rem.rrb(BsId::new(1)), RrbCount::new(55));
    }

    #[test]
    fn over_committing_allocation_is_an_error() {
        // Shrink BS 0 to the RRBs of its larger candidate link: each UE
        // fits alone, both together over-commit constraint (14). The
        // check is a plain `Result`, so it holds in release builds too.
        let inst = two_sp_instance();
        let link = |u: u32| *inst.link(UeId::new(u), BsId::new(0)).unwrap();
        let (n0, n1) = (link(0).n_rrbs, link(1).n_rrbs);
        let mut tight = inst.budgets().clone();
        let keep = n0.max(n1);
        tight
            .take(
                BsId::new(0),
                ServiceId::new(0),
                Cru::ZERO,
                RrbCount::new(55) - keep,
            )
            .unwrap();
        let tight = inst.residual(&tight, inst.ues().to_vec()).unwrap();
        let mut both = Allocation::all_cloud(tight.n_ues());
        both.assign(UeId::new(0), BsId::new(0));
        both.assign(UeId::new(1), BsId::new(0));
        let err = tight.remaining(&both).unwrap_err();
        assert!(
            matches!(&err, Error::OverCommit { bs, detail }
                if *bs == BsId::new(0) && detail.contains("constraint (14)")),
            "{err:?}"
        );
        assert_eq!(both.validate(&tight), Err(err));
        // Either UE alone is feasible.
        let mut one = Allocation::all_cloud(tight.n_ues());
        one.assign(UeId::new(1), BsId::new(0));
        one.validate(&tight).unwrap();
    }
}
