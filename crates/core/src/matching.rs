//! Algorithm 1's deferred-acceptance loop, with the preferences injected.
//!
//! Section VI-B of the paper runs DCSP and NonCo as matchings with DMRA's
//! skeleton — unserved UEs propose to their best feasible candidate, each
//! BS keeps one winner per requested service, the RRB admission step
//! evicts the least-preferred winners until the batch fits, and the rest
//! commit — under their own UE-side and BS-side preferences. [`run`] is
//! that skeleton and [`Preferences`] supplies the two rules. Under DMRA's
//! own preferences ([`crate::Dmra`] implements the trait) it is
//! [`crate::Dmra::solve_reference`], the executable specification the
//! dense solver is tested against; `dmra-baselines` implements the trait
//! for DCSP and NonCo.
//!
//! The loop, like every allocator outside the dense solver, checks, takes
//! and returns resources through a copy of the instance's [`Budgets`].

use crate::allocation::Allocation;
use crate::budgets::Budgets;
use crate::dmra::DmraOutcome;
use crate::instance::{CandidateLink, ProblemInstance};
use dmra_types::{BsId, Error, Result, RrbCount, UeId, UeSpec};
use std::collections::BTreeMap;

/// The two preference rules that make [`run`] a particular matching.
pub trait Preferences {
    /// UE side: the score of proposing on `link`, **lower is better**;
    /// ties go to the smaller BS id. Called with the live budgets, so a
    /// score may depend on what the BS has left.
    fn ue_score(
        &self,
        instance: &ProblemInstance,
        pool: &Budgets,
        ue: &UeSpec,
        link: &CandidateLink,
    ) -> f64;

    /// BS side: the preference of `bs` for the proposer `ue`, **larger
    /// is better**. Keys must be unique per UE ([`bs_key`] makes them so),
    /// so a winner never depends on the order proposals arrived in.
    fn bs_key(&self, instance: &ProblemInstance, bs: BsId, ue: UeId) -> u128;
}

/// Packs a BS-side preference into one key, larger is better: a favoured
/// proposer first, then the smaller `first`, the smaller `second` and the
/// smaller UE id. DMRA favours same-SP proposers and ranks `f_u`, then the
/// footprint `n_{u,i} + c_j^u` — the key layout of the dense solver's
/// winner table.
#[must_use]
pub fn bs_key(favoured: bool, first: u32, second: u32, ue: UeId) -> u128 {
    u128::from(favoured) << 96
        | u128::from(!first) << 64
        | u128::from(!second) << 32
        | u128::from(!ue.index())
}

/// Line 5 of Algorithm 1 for any UE-side score: the index of the
/// smallest `(score, bs)` pair, `None` when there is none.
#[must_use]
pub fn arg_min(scored: impl Iterator<Item = (f64, BsId)>) -> Option<usize> {
    scored
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        })
        .map(|(idx, _)| idx)
}

/// Runs the deferred-acceptance loop under `prefs` to quiescence.
///
/// Each iteration is one round of Algorithm 1: every unserved UE proposes
/// to its best candidate that still fits it, pruning the ones that never
/// will again (line 10) and going to the cloud when none is left; each
/// BS, in id order, keeps its best proposer per service (`BTreeMap`
/// routing), drops the least-preferred winners until the batch fits its
/// RRBs (lines 22–25) and commits the rest. The loop ends at the first
/// iteration without a proposal. Every proposal fits its BS, so each BS
/// with proposals accepts at least one, and the loop quiesces within
/// `|U| + 1` iterations.
///
/// # Errors
///
/// Returns [`Error::NonTermination`] if `max_iterations` elapse — a bug,
/// as the loop provably terminates — and [`Error::OverCommit`] if an
/// admission exceeds what its BS has left, which the fit checks rule out.
pub fn run<P: Preferences + ?Sized>(
    instance: &ProblemInstance,
    prefs: &P,
    max_iterations: usize,
) -> Result<DmraOutcome> {
    let n_ues = instance.n_ues();
    let mut pool = instance.budgets().clone();
    // Each UE's live candidate set, pruned monotonically.
    let mut b_u: Vec<Vec<CandidateLink>> = (0..n_ues)
        .map(|u| instance.candidates(UeId::new(u as u32)).to_vec())
        .collect();
    let mut assigned: Vec<Option<BsId>> = vec![None; n_ues];
    let mut cloud: Vec<bool> = vec![false; n_ues];
    let mut proposals_total = 0u64;
    let mut acceptances: Vec<usize> = Vec::new();
    let mut unmatched: Vec<usize> = Vec::new();
    let mut prunes = 0u64;
    let mut evictions = 0u64;
    let mut assigned_total = 0usize;
    let mut cloud_total = 0usize;

    for iteration in 1..=max_iterations {
        // ---- UE side: lines 3–10 ----
        // proposals[bs] maps service → proposing UEs.
        let mut proposals: BTreeMap<u32, BTreeMap<u32, Vec<UeId>>> = BTreeMap::new();
        let mut any = false;
        for (u, spec) in instance.ues().iter().enumerate() {
            if assigned[u].is_some() || cloud[u] {
                continue;
            }
            loop {
                let scored = b_u[u]
                    .iter()
                    .map(|link| (prefs.ue_score(instance, &pool, spec, link), link.bs));
                let Some(best) = arg_min(scored) else {
                    // Line 1 / fallthrough of lines 4–10: no BS can serve
                    // this UE; forward to the remote cloud.
                    cloud[u] = true;
                    cloud_total += 1;
                    break;
                };
                let link = b_u[u][best];
                if pool.fits(link.bs, spec.service, spec.cru_demand, link.n_rrbs) {
                    proposals
                        .entry(link.bs.index())
                        .or_default()
                        .entry(spec.service.index())
                        .or_default()
                        .push(spec.id);
                    proposals_total += 1;
                    any = true;
                    break;
                }
                // Line 10: the BS can never serve this UE again.
                prunes += 1;
                b_u[u].remove(best);
            }
        }
        if !any {
            return Ok(DmraOutcome {
                allocation: Allocation::from_assignments(assigned),
                iterations: iteration,
                proposals: proposals_total,
                acceptances,
                unmatched,
                prunes,
                evictions,
            });
        }

        // ---- BS side: lines 11–25 ----
        let mut accepted_this_iteration = 0usize;
        for (bs_idx, per_service) in proposals {
            let bs = BsId::new(bs_idx);
            let key = |u: UeId| prefs.bs_key(instance, bs, u);
            // Lines 13–21: one winner per service.
            let mut winners: Vec<UeId> = per_service
                .values()
                .map(|cands| *cands.iter().max_by_key(|&&u| key(u)).expect("non-empty"))
                .collect();
            // Radio admission: lines 22–25. Remove least-preferred
            // winners until the batch fits the remaining RRBs.
            let demand = |u: UeId| instance.link(u, bs).expect("winner is candidate").n_rrbs;
            let mut total: RrbCount = winners.iter().map(|&u| demand(u)).sum();
            if total > pool.rrb(bs) {
                // Best first, so the tail holds the least preferred.
                winners.sort_by_key(|&u| std::cmp::Reverse(key(u)));
                while total > pool.rrb(bs) {
                    let dropped = winners.pop().expect("winners cannot empty before fitting");
                    total -= demand(dropped);
                    evictions += 1;
                }
            }
            for u in winners {
                let spec = &instance.ues()[u.as_usize()];
                pool.take(bs, spec.service, spec.cru_demand, demand(u))?;
                assigned[u.as_usize()] = Some(bs);
                accepted_this_iteration += 1;
            }
        }
        assigned_total += accepted_this_iteration;
        acceptances.push(accepted_this_iteration);
        unmatched.push(n_ues - assigned_total - cloud_total);
    }
    Err(Error::NonTermination {
        bound: max_iterations,
        n_ues,
        n_bss: instance.n_bss(),
    })
}
