//! The one store of remaining budgets.
//!
//! Algorithm 1 checks and deducts per-(BS, service) CRU budgets and
//! per-BS RRB budgets — constraints (12) and (14) — every round, and the
//! simulators carry what is left from one epoch to the next. [`Budgets`]
//! holds both in one flat table: CRUs at `[bs * n_svcs + svc]`, RRBs per
//! BS. Every change goes through [`Budgets::take`] and
//! [`Budgets::put_back`], which check their arithmetic in every build
//! profile.
//!
//! Each table carries an identity and a change counter. A
//! [`DeploymentContext`](crate::DeploymentContext) remembers the pair of
//! the table it last synced from and skips its budget pass when it meets
//! that table unchanged (every mobility epoch after the first); any other
//! table, or a changed one, is compared BS by BS.

use dmra_types::{BsId, BsSpec, Cru, Error, Result, RrbCount, ServiceId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of table identities: every constructed or cloned table gets its
/// own, so no two live tables share one.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Remaining CRU budgets per `(BS, service)` and RRB budgets per BS.
#[derive(Debug)]
pub struct Budgets {
    n_svcs: usize,
    /// Number of BSs.
    n_bss: usize,
    /// Remaining CRUs, flattened `[bs * n_svcs + svc]`, then remaining
    /// RRBs per BS from `n_bss * n_svcs` on: one allocation per table.
    table: Vec<u32>,
    /// The largest CRU and RRB entries the table ever held: budgets only
    /// shrink between them, so their sum bounds every Eq. (17)
    /// denominator a solve over this table can form.
    cru_high: u32,
    rrb_high: u32,
    /// This table's identity.
    id: u64,
    /// Number of changes so far.
    version: u64,
}

impl Budgets {
    /// The full budgets of `bss` against a catalog of `n_svcs` services.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if a BS does not list exactly `n_svcs`
    /// service budgets.
    pub fn from_bss(bss: &[BsSpec], n_svcs: usize) -> Result<Self> {
        let mut table = Vec::with_capacity(bss.len() * (n_svcs + 1));
        let (mut cru_high, mut rrb_high) = (0, 0);
        for bs in bss {
            if bs.cru_budget.len() != n_svcs {
                return Err(arity_error(bs.id, bs.cru_budget.len(), n_svcs));
            }
            for c in &bs.cru_budget {
                cru_high = cru_high.max(c.get());
                table.push(c.get());
            }
        }
        for bs in bss {
            rrb_high = rrb_high.max(bs.rrb_budget.get());
            table.push(bs.rrb_budget.get());
        }
        Ok(Self {
            n_svcs,
            n_bss: bss.len(),
            table,
            cru_high,
            rrb_high,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            version: 0,
        })
    }

    /// Number of BSs.
    #[must_use]
    pub fn n_bss(&self) -> usize {
        self.n_bss
    }

    /// Number of services per BS.
    #[must_use]
    pub fn n_svcs(&self) -> usize {
        self.n_svcs
    }

    /// Remaining CRUs of `service` at `bs`; zero outside the table.
    #[must_use]
    pub fn cru(&self, bs: BsId, service: ServiceId) -> Cru {
        match self.slot(bs, service) {
            Some(slot) => Cru::new(self.table[slot]),
            None => Cru::ZERO,
        }
    }

    /// Remaining RRBs at `bs`; zero outside the table.
    #[must_use]
    pub fn rrb(&self, bs: BsId) -> RrbCount {
        let b = bs.as_usize();
        RrbCount::new(if b < self.n_bss {
            self.rrb_table()[b]
        } else {
            0
        })
    }

    /// Line 6 of Algorithm 1: can `bs` still fit `cru` CRUs of `service`
    /// and `rrbs` RRBs?
    #[must_use]
    pub fn fits(&self, bs: BsId, service: ServiceId, cru: Cru, rrbs: RrbCount) -> bool {
        self.cru(bs, service) >= cru && self.rrb(bs) >= rrbs
    }

    /// Deducts one admission — `cru` CRUs of `service` and `rrbs` RRBs —
    /// from `bs`, all or nothing.
    ///
    /// # Errors
    ///
    /// [`Error::OverCommit`] naming constraint (12) or (14) when either
    /// budget would go below zero, in every build profile; the table is
    /// left unchanged. [`Error::UnknownBs`] / [`Error::UnknownService`]
    /// outside the table.
    pub fn take(&mut self, bs: BsId, service: ServiceId, cru: Cru, rrbs: RrbCount) -> Result<()> {
        let slot = self.checked_slot(bs, service)?;
        let b = bs.as_usize();
        let r = self.n_bss * self.n_svcs + b;
        let cru_left =
            self.table[slot]
                .checked_sub(cru.get())
                .ok_or_else(|| Error::OverCommit {
                    bs,
                    detail: format!(
                        "constraint (12): {service} has {} left, an admission needs {cru}",
                        Cru::new(self.table[slot])
                    ),
                })?;
        let rrb_left = self.table[r]
            .checked_sub(rrbs.get())
            .ok_or_else(|| Error::OverCommit {
                bs,
                detail: format!(
                    "constraint (14): {} left, an admission needs {rrbs}",
                    RrbCount::new(self.table[r])
                ),
            })?;
        self.table[slot] = cru_left;
        self.table[r] = rrb_left;
        self.version += 1;
        Ok(())
    }

    /// Returns what [`Budgets::take`] deducted for the same arguments,
    /// all or nothing.
    ///
    /// # Errors
    ///
    /// [`Error::BudgetOverflow`] when either budget would overflow its
    /// counter, in every build profile; the table is left unchanged.
    /// [`Error::UnknownBs`] / [`Error::UnknownService`] outside the table.
    pub fn put_back(
        &mut self,
        bs: BsId,
        service: ServiceId,
        cru: Cru,
        rrbs: RrbCount,
    ) -> Result<()> {
        let slot = self.checked_slot(bs, service)?;
        let b = bs.as_usize();
        let r = self.n_bss * self.n_svcs + b;
        let overflow = |what: String| Error::BudgetOverflow { bs, detail: what };
        let cru_now = self.table[slot].checked_add(cru.get()).ok_or_else(|| {
            overflow(format!(
                "{service} holds {}, a release returns {cru}",
                Cru::new(self.table[slot])
            ))
        })?;
        let rrb_now = self.table[r].checked_add(rrbs.get()).ok_or_else(|| {
            overflow(format!(
                "{} held, a release returns {rrbs}",
                RrbCount::new(self.table[r])
            ))
        })?;
        self.table[slot] = cru_now;
        self.table[r] = rrb_now;
        self.cru_high = self.cru_high.max(cru_now);
        self.rrb_high = self.rrb_high.max(rrb_now);
        self.version += 1;
        Ok(())
    }

    /// The sum of every BS's remaining RRBs.
    #[must_use]
    pub fn rrb_total(&self) -> u64 {
        self.rrb_table().iter().map(|&r| u64::from(r)).sum()
    }

    /// The sum of every `(BS, service)` slot's remaining CRUs.
    #[must_use]
    pub fn cru_total(&self) -> u64 {
        self.cru_table().iter().map(|&c| u64::from(c)).sum()
    }

    /// Remaining CRUs of service index `s` at BS index `b`, for indices
    /// the caller has validated against this table's shape (the scan
    /// kernels: every BS of the instance, a service of its catalog).
    pub(crate) fn cru_at(&self, b: usize, s: usize) -> u32 {
        self.table[b * self.n_svcs + s]
    }

    /// Remaining RRBs at BS index `b` (a BS of this table).
    pub(crate) fn rrb_at(&self, b: usize) -> u32 {
        self.table[self.n_bss * self.n_svcs + b]
    }

    /// The flat CRU table, `[bs * n_svcs + svc]`.
    pub(crate) fn cru_table(&self) -> &[u32] {
        &self.table[..self.n_bss * self.n_svcs]
    }

    /// The RRB table, one entry per BS.
    pub(crate) fn rrb_table(&self) -> &[u32] {
        &self.table[self.n_bss * self.n_svcs..]
    }

    /// An upper bound on every `rem_cru + rem_rrb` a solve over this table
    /// can form.
    pub(crate) fn denominator_bound(&self) -> u64 {
        u64::from(self.cru_high) + u64::from(self.rrb_high)
    }

    /// This table's position in its history: its identity and its change
    /// count. Two equal marks mean the same table with the same budgets.
    pub(crate) fn mark(&self) -> (u64, u64) {
        (self.id, self.version)
    }

    /// Copies BS `b`'s budgets from `from` (a table of the same shape)
    /// when they differ, and mirrors them into `spec`. Returns whether
    /// they differed.
    pub(crate) fn sync_bs(&mut self, from: &Budgets, b: usize, spec: &mut BsSpec) -> bool {
        let row = b * self.n_svcs..(b + 1) * self.n_svcs;
        let r = self.n_bss * self.n_svcs + b;
        if self.table[r] == from.table[r] && self.table[row.clone()] == from.table[row.clone()] {
            return false;
        }
        self.table[row.clone()].copy_from_slice(&from.table[row.clone()]);
        self.table[r] = from.table[r];
        self.cru_high = self.cru_high.max(from.cru_high);
        self.rrb_high = self.rrb_high.max(from.rrb_high);
        for (mirror, &c) in spec.cru_budget.iter_mut().zip(&self.table[row]) {
            *mirror = Cru::new(c);
        }
        spec.rrb_budget = RrbCount::new(self.table[r]);
        self.version += 1;
        true
    }

    /// Overwrites BS `b`'s budgets with `cru` (exactly `n_svcs` entries)
    /// and `rrb`, counting a change when they differ.
    pub(crate) fn set_bs(&mut self, b: usize, cru: &[Cru], rrb: RrbCount) {
        let r = self.n_bss * self.n_svcs + b;
        let row = b * self.n_svcs..(b + 1) * self.n_svcs;
        let same = self.table[r] == rrb.get()
            && self.table[row.clone()]
                .iter()
                .zip(cru)
                .all(|(&t, c)| t == c.get());
        if same {
            return;
        }
        for (t, c) in self.table[row].iter_mut().zip(cru) {
            *t = c.get();
            self.cru_high = self.cru_high.max(*t);
        }
        self.table[r] = rrb.get();
        self.rrb_high = self.rrb_high.max(rrb.get());
        self.version += 1;
    }

    /// Writes BS `b`'s budgets into `spec`.
    pub(crate) fn write_bs(&self, b: usize, spec: &mut BsSpec) {
        let row = &self.table[b * self.n_svcs..(b + 1) * self.n_svcs];
        spec.cru_budget.clear();
        spec.cru_budget.extend(row.iter().map(|&c| Cru::new(c)));
        spec.rrb_budget = RrbCount::new(self.rrb_at(b));
    }

    fn slot(&self, bs: BsId, service: ServiceId) -> Option<usize> {
        let (b, s) = (bs.as_usize(), service.as_usize());
        (b < self.n_bss && s < self.n_svcs).then(|| b * self.n_svcs + s)
    }

    fn checked_slot(&self, bs: BsId, service: ServiceId) -> Result<usize> {
        if bs.as_usize() >= self.n_bss {
            return Err(Error::UnknownBs(bs));
        }
        self.slot(bs, service).ok_or(Error::UnknownService(service))
    }
}

/// A clone is a table of its own: same budgets, a new identity, so no
/// context mistakes one for the other.
impl Clone for Budgets {
    fn clone(&self) -> Self {
        Self {
            n_svcs: self.n_svcs,
            n_bss: self.n_bss,
            table: self.table.clone(),
            cru_high: self.cru_high,
            rrb_high: self.rrb_high,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            version: self.version,
        }
    }
}

/// Two tables are equal when they hold the same budgets.
impl PartialEq for Budgets {
    fn eq(&self, other: &Self) -> bool {
        self.n_svcs == other.n_svcs && self.n_bss == other.n_bss && self.table == other.table
    }
}

/// The error of a BS whose service budgets do not match the catalog.
pub(crate) fn arity_error(bs: BsId, got: usize, n_svcs: usize) -> Error {
    Error::InvalidConfig(format!(
        "{bs} has {got} service budgets but the catalog has {n_svcs} services"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmra_types::{Hertz, Point, SpId};

    fn table() -> Budgets {
        let bs = |id: u32, cru: [u32; 2], rrb: u32| {
            BsSpec::new(
                BsId::new(id),
                SpId::new(0),
                Point::new(0.0, 0.0),
                cru.iter().map(|&c| Cru::new(c)).collect(),
                Hertz::from_mhz(10.0),
                RrbCount::new(rrb),
            )
        };
        Budgets::from_bss(&[bs(0, [10, 0], 5), bs(1, [3, 7], 2)], 2).unwrap()
    }

    const S0: ServiceId = ServiceId::new(0);
    const S1: ServiceId = ServiceId::new(1);

    #[test]
    fn take_and_put_back_round_trip() {
        let mut t = table();
        let full = t.clone();
        t.take(BsId::new(1), S1, Cru::new(7), RrbCount::new(2))
            .unwrap();
        assert_eq!(t.cru(BsId::new(1), S1), Cru::ZERO);
        assert_eq!(t.rrb(BsId::new(1)), RrbCount::ZERO);
        assert!(!t.fits(BsId::new(1), S0, Cru::new(1), RrbCount::new(1)));
        t.put_back(BsId::new(1), S1, Cru::new(7), RrbCount::new(2))
            .unwrap();
        assert_eq!(t, full);
    }

    #[test]
    fn over_commit_is_an_error_and_changes_nothing() {
        let mut t = table();
        let before = t.clone();
        let mark = t.mark();
        // Enough CRUs, too few RRBs: neither budget may move.
        let err = t
            .take(BsId::new(1), S0, Cru::new(3), RrbCount::new(3))
            .unwrap_err();
        assert!(
            matches!(&err, Error::OverCommit { bs, detail }
                if *bs == BsId::new(1) && detail.contains("constraint (14)")),
            "{err:?}"
        );
        let err = t
            .take(BsId::new(0), S0, Cru::new(11), RrbCount::new(1))
            .unwrap_err();
        assert!(
            matches!(&err, Error::OverCommit { detail, .. } if detail.contains("constraint (12)")),
            "{err:?}"
        );
        assert_eq!(t, before);
        assert_eq!(t.mark(), mark, "a failed take is no change");
    }

    #[test]
    fn put_back_overflow_is_an_error_and_changes_nothing() {
        let mut t = table();
        let before = t.clone();
        let err = t
            .put_back(BsId::new(0), S0, Cru::new(u32::MAX), RrbCount::ZERO)
            .unwrap_err();
        assert!(
            matches!(&err, Error::BudgetOverflow { bs, .. } if *bs == BsId::new(0)),
            "{err:?}"
        );
        let err = t
            .put_back(BsId::new(1), S1, Cru::new(1), RrbCount::new(u32::MAX))
            .unwrap_err();
        assert!(matches!(&err, Error::BudgetOverflow { .. }), "{err:?}");
        assert_eq!(t, before);
    }

    #[test]
    fn references_outside_the_table_are_errors() {
        let mut t = table();
        assert_eq!(
            t.take(BsId::new(2), S0, Cru::ZERO, RrbCount::ZERO),
            Err(Error::UnknownBs(BsId::new(2)))
        );
        let s2 = ServiceId::new(2);
        assert_eq!(
            t.put_back(BsId::new(0), s2, Cru::ZERO, RrbCount::ZERO),
            Err(Error::UnknownService(s2))
        );
        // Reads outside the table see nothing left, like `cru_budget_for`.
        assert_eq!(t.cru(BsId::new(0), s2), Cru::ZERO);
        assert_eq!(t.rrb(BsId::new(9)), RrbCount::ZERO);
    }

    #[test]
    fn every_change_moves_the_mark_and_a_clone_has_its_own() {
        let mut t = table();
        let mark = t.mark();
        assert_eq!(t.mark(), mark, "reads are no change");
        t.take(BsId::new(0), S0, Cru::new(1), RrbCount::new(1))
            .unwrap();
        let taken = t.mark();
        assert_ne!(taken, mark);
        // Putting the take back restores the budgets, not the mark.
        t.put_back(BsId::new(0), S0, Cru::new(1), RrbCount::new(1))
            .unwrap();
        assert_ne!(t.mark(), taken);
        assert_ne!(t.mark(), mark);
        assert_ne!(t.clone().mark(), t.mark());
        assert_eq!(t.clone(), t);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let bs = BsSpec::new(
            BsId::new(0),
            SpId::new(0),
            Point::new(0.0, 0.0),
            vec![Cru::new(1)],
            Hertz::from_mhz(10.0),
            RrbCount::new(1),
        );
        let err = Budgets::from_bss(&[bs], 2).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
    }
}
