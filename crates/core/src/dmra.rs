//! Algorithm 1 of the paper — Decentralized Multi-SP Resource Allocation —
//! in its fast centralized-state execution.
//!
//! The implementation follows the paper line by line:
//!
//! * **UE side (lines 3–10).** Every unserved UE picks the candidate BS
//!   minimising `v_{u,i} = p_{i,u} + ρ / (remaining CRUs + remaining RRBs)`
//!   (Eq. (17)); candidates that can no longer fit the UE's CRU or RRB
//!   demand are pruned permanently (resources never grow). A UE whose
//!   candidate set empties is forwarded to the remote cloud.
//! * **BS side (lines 11–21).** Per requested service, the BS prefers
//!   same-SP proposers, tie-breaking by the smallest `f_u` (how many BSs
//!   could serve the UE) and then by the smallest combined footprint
//!   `n_{u,i} + c_j^u` — one provisional winner per (BS, service).
//! * **Radio admission (lines 22–25).** If the round's winners exceed the
//!   BS's remaining RRBs, the least-preferred winners are removed one by
//!   one until the rest fit.
//! * **Termination.** The loop ends at the first iteration with no
//!   proposals. Every BS that receives proposals accepts at least one UE
//!   per iteration (each proposal is individually feasible, so the
//!   admission step never drops *all* winners), hence the algorithm
//!   terminates after at most `|U| + 1` iterations.
//!
//! There is one execution: [`Dmra::solve_with_workspace`] loads the whole
//! instance into dense workspace buffers and runs one match loop over it.
//! Each round of that loop does work in proportion to the UEs still
//! unmatched, not to the instance:
//!
//! * the UE side visits a worklist of unmatched UEs, in ascending order;
//! * Eq. (17)'s resource term `ρ / d` is read from a per-workspace table
//!   indexed by the integer denominator `d`: the same division, done when
//!   `ρ` changes instead of on every candidate visit;
//! * each `(bs, service)` slot of the winner table holds only the
//!   16-byte BS preference key, from which the BS side recovers the UE
//!   and its RRB demand.
//!
//! Splitting the instance into candidate-graph components, or replaying
//! unchanged components across epochs, gives the same outcome but
//! measured slower on the many-component workload built for it
//! (DESIGN.md §14).
//! [`Dmra::solve_reference`] is the line-by-line specification the dense
//! loop is tested against.
//!
//! The genuinely message-passing execution of the same protocol lives in
//! [`crate::agents`]; under reliable delivery it produces bit-identical
//! allocations (see `tests/` at the workspace root).

use crate::allocation::Allocation;
use crate::allocator::{Allocator, AllocatorSession};
use crate::instance::{CandidateLink, ProblemInstance};
use dmra_types::{BsId, Cru, Error, Result, RrbCount, UeId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Tunables of the DMRA matcher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DmraConfig {
    /// `ρ` in Eq. (17): how strongly UEs prefer resource-rich BSs over
    /// cheap BSs. Figs. 6–7 sweep this knob.
    pub rho: f64,
    /// Safety bound on matching iterations. The algorithm provably
    /// terminates in at most `|U| + 1` iterations, so hitting this bound
    /// signals a bug rather than a big instance.
    pub max_iterations: usize,
    /// Whether the BS side prefers same-SP proposers (line 13 of
    /// Algorithm 1). Disabling this is the multi-SP ablation — it is *the*
    /// ingredient that separates DMRA from SP-oblivious matching.
    pub same_sp_preference: bool,
}

impl DmraConfig {
    /// Defaults used for Figs. 2–5: `ρ = 100`, same-SP preference on.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            rho: 100.0,
            max_iterations: 100_000,
            same_sp_preference: true,
        }
    }

    /// Returns a copy with a different `ρ`.
    #[must_use]
    pub fn with_rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }
}

impl Default for DmraConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// The result of a DMRA run, with convergence diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct DmraOutcome {
    /// The computed assignment.
    pub allocation: Allocation,
    /// Matching iterations executed (including the final silent one).
    pub iterations: usize,
    /// Total UE→BS proposals sent across iterations.
    pub proposals: u64,
    /// UEs accepted in each iteration — the convergence timeline (sums to
    /// the number of edge-served UEs; the final silent iteration accepts
    /// nobody and is omitted).
    pub acceptances: Vec<usize>,
    /// UEs still unmatched (neither edge-assigned nor cloud-forwarded)
    /// after each non-silent iteration — the other half of the
    /// convergence trajectory. Monotonically non-increasing; parallel to
    /// `acceptances`.
    pub unmatched: Vec<usize>,
    /// Candidate links pruned permanently across the run (line 10 of
    /// Algorithm 1: a BS that can no longer fit the UE).
    pub prunes: u64,
    /// Provisional winners evicted by the radio-admission step (lines
    /// 22–25: least-preferred winners dropped until the batch fits).
    pub evictions: u64,
}

/// The DMRA allocator (Algorithm 1, centralized-state execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dmra {
    config: DmraConfig,
}

impl Dmra {
    /// Creates a DMRA matcher with the given configuration.
    #[must_use]
    pub fn new(config: DmraConfig) -> Self {
        Self { config }
    }

    /// The matcher's configuration.
    #[must_use]
    pub fn config(&self) -> &DmraConfig {
        &self.config
    }

    /// Runs the matching to quiescence, returning convergence diagnostics
    /// alongside the allocation.
    ///
    /// This is the optimized execution: all matcher state lives in dense
    /// `Vec`s indexed by raw BS/UE/service indices (flattened remaining
    /// resources, flattened candidate windows pruned by swap-with-tail, a
    /// reusable table of each round's best preference key keyed
    /// `bs * n_services + service`, a worklist of unmatched UEs and a
    /// `ρ / d` table for Eq. (17)). It is
    /// bit-identical to [`Dmra::solve_reference`] — every selection rule
    /// has a unique key, so none of the reorderings the dense layout
    /// introduces can change a decision — and the test suite asserts the
    /// full [`DmraOutcome`] equality on every scenario it touches.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonTermination`] if `max_iterations` elapses — this
    /// indicates a bug, as the algorithm provably terminates.
    pub fn solve(&self, instance: &ProblemInstance) -> Result<DmraOutcome> {
        self.solve_with_workspace(instance, &mut DmraWorkspace::default())
    }

    /// [`Dmra::solve`] against a caller-owned [`DmraWorkspace`], so
    /// repeated solves (one per epoch in the online simulator) reuse every
    /// scratch buffer instead of reallocating them. The result is the
    /// workspace-independent [`DmraOutcome`] — a fresh workspace, a reused
    /// one, and one previously used on a *different* instance all produce
    /// identical outcomes (unit tests pin this down).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonTermination`] if `max_iterations` elapses — this
    /// indicates a bug, as the algorithm provably terminates.
    pub fn solve_with_workspace(
        &self,
        instance: &ProblemInstance,
        ws: &mut DmraWorkspace,
    ) -> Result<DmraOutcome> {
        // Telemetry is observe-only: the flag is read once, the clock only
        // when enabled, and all recording happens after the match loop —
        // nothing here can influence a decision below.
        let obs_on = dmra_obs::enabled();
        let solve_started = obs_on.then(std::time::Instant::now);

        let n_ues = instance.n_ues();
        let n_bss = instance.n_bss();
        let n_svcs = instance.catalog().len() as usize;

        load_monolithic(instance, ws);
        load_rho_table(self.config.rho, ws);

        let run = match_loop(&self.config, n_ues, n_bss, n_svcs, ws)?;

        if obs_on {
            record_solve(&run, n_ues, solve_started);
        }

        Ok(run.into_outcome())
    }

    /// The straightforward line-by-line transcription of Algorithm 1 that
    /// [`Dmra::solve`] was optimized from, kept as the executable
    /// specification: `BTreeMap` proposal routing, typed resource state
    /// and candidate lookups through [`ProblemInstance::link`]. Tests
    /// assert `solve` and `solve_reference` return equal [`DmraOutcome`]s.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonTermination`] if `max_iterations` elapses — this
    /// indicates a bug, as the algorithm provably terminates.
    pub fn solve_reference(&self, instance: &ProblemInstance) -> Result<DmraOutcome> {
        let n_ues = instance.n_ues();
        let mut state = MatchState::new(instance);
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

        for iteration in 1..=self.config.max_iterations {
            // ---- UE side: lines 3–10 ----
            // proposals[bs] maps service → proposing UEs.
            let mut proposals: BTreeMap<u32, BTreeMap<u32, Vec<UeId>>> = BTreeMap::new();
            let mut any = false;
            for u in 0..n_ues {
                if assigned[u].is_some() || cloud[u] {
                    continue;
                }
                let ue = UeId::new(u as u32);
                let svc = instance.ues()[u].service;
                loop {
                    if b_u[u].is_empty() {
                        // Line 1 / fallthrough of lines 4–10: no BS can
                        // serve this UE; forward to the remote cloud.
                        cloud[u] = true;
                        cloud_total += 1;
                        break;
                    }
                    let best = select_ue_proposal(self.config.rho, svc.as_usize(), &b_u[u], &state)
                        .expect("candidate set is non-empty");
                    let link = b_u[u][best];
                    if state.fits(instance, ue, &link) {
                        proposals
                            .entry(link.bs.index())
                            .or_default()
                            .entry(svc.index())
                            .or_default()
                            .push(ue);
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
                let mut winners: Vec<UeId> = Vec::new();
                for (_svc, candidates) in per_service {
                    let winner =
                        select_bs_winner(instance, bs, &candidates, self.config.same_sp_preference);
                    winners.push(winner);
                }
                // Radio admission: lines 22–25. Remove least-preferred
                // winners until the batch fits the remaining RRBs.
                let demand = |u: UeId| instance.link(u, bs).expect("winner is candidate").n_rrbs;
                let mut total: RrbCount = winners.iter().map(|&u| demand(u)).sum();
                if total > state.rem_rrb[bs.as_usize()] {
                    // Ascending preference = worst first.
                    winners.sort_by_key(|&u| {
                        std::cmp::Reverse(bs_preference_key(
                            instance,
                            bs,
                            u,
                            self.config.same_sp_preference,
                        ))
                    });
                    while total > state.rem_rrb[bs.as_usize()] {
                        let dropped = winners.pop().expect("winners cannot empty before fitting");
                        total -= demand(dropped);
                        evictions += 1;
                    }
                }
                for u in winners {
                    let link = *instance.link(u, bs).expect("winner is candidate");
                    state.commit(instance, u, &link);
                    assigned[u.as_usize()] = Some(bs);
                    accepted_this_iteration += 1;
                }
            }
            assigned_total += accepted_this_iteration;
            acceptances.push(accepted_this_iteration);
            unmatched.push(n_ues - assigned_total - cloud_total);
        }
        Err(Error::NonTermination {
            bound: self.config.max_iterations,
            n_ues,
            n_bss: instance.n_bss(),
        })
    }
}

impl Allocator for Dmra {
    fn name(&self) -> &str {
        "DMRA"
    }

    /// # Panics
    ///
    /// Panics if the iteration bound is exhausted, which would indicate a
    /// bug in the matcher (the algorithm provably terminates).
    fn allocate(&self, instance: &ProblemInstance) -> Allocation {
        self.solve(instance)
            .expect("DMRA terminates within its iteration bound")
            .allocation
    }

    /// DMRA's session keeps a [`DmraWorkspace`] alive across calls, so a
    /// per-epoch solve in the online simulator touches the heap only for
    /// the outcome it returns.
    fn session(&self) -> Box<dyn AllocatorSession + '_> {
        Box::new(DmraSession {
            dmra: *self,
            workspace: DmraWorkspace::default(),
        })
    }
}

/// Reusable scratch state of the dense [`Dmra::solve`] execution.
///
/// Every field is sized/overwritten at the start of a solve (the `ρ / d`
/// table whenever `ρ` changes or it is too short), so a workspace can be
/// reused freely across instances of different shapes and configs; it
/// never influences the outcome. The winner table relies on the
/// solver's drain discipline (every slot empty between solves), which a
/// `debug_assert` re-checks on entry.
#[derive(Debug, Clone, Default)]
pub struct DmraWorkspace {
    /// Remaining CRUs, flattened `[bs * n_svcs + svc]`.
    rem_cru: Vec<u32>,
    /// Remaining RRBs per BS.
    rem_rrb: Vec<u32>,
    /// Flattened per-UE candidate windows.
    cands: Vec<DenseCand>,
    /// Window start of each UE in `cands`.
    start: Vec<usize>,
    /// Live window length of each UE.
    len: Vec<usize>,
    /// Requested service index per UE.
    svc: Vec<usize>,
    /// CRU demand per UE.
    cru_demand: Vec<u32>,
    /// `f_u` per UE.
    f_u: Vec<u32>,
    /// Eq. (17)'s resource term by integer denominator:
    /// `rho_term[d] = ρ / d` for `d = rem_cru + rem_rrb` (see
    /// [`load_rho_table`]). Entry 0 is never read: a drained slot scores
    /// `+∞` before any lookup.
    rho_term: Vec<f64>,
    /// The bits of the `ρ` that `rho_term` holds.
    rho_bits: u64,
    /// UEs still unmatched (neither accepted nor cloud-forwarded), in
    /// ascending order: the UEs the next round's UE side visits.
    pending: Vec<u32>,
    /// The best preference key received this iteration, one entry per
    /// `(bs, service)` slot; `None` = no proposal yet.
    best: Vec<Option<DensePref>>,
    /// Slots that received a proposal in the current iteration.
    touched: Vec<usize>,
    /// Per-BS winner scratch for the admission step.
    winners: Vec<DensePref>,
}

/// The [`AllocatorSession`] of [`Dmra`]: config plus a live workspace.
struct DmraSession {
    dmra: Dmra,
    workspace: DmraWorkspace,
}

impl AllocatorSession for DmraSession {
    fn allocate(&mut self, instance: &ProblemInstance) -> Allocation {
        self.dmra
            .solve_with_workspace(instance, &mut self.workspace)
            .expect("DMRA terminates within its iteration bound")
            .allocation
    }
}

/// Everything one dense [`match_loop`] run produces: the outcome plus
/// the totals its telemetry records.
#[derive(Debug)]
struct MatchRun {
    /// Per-UE assignment; `None` = cloud or unreachable.
    assigned: Vec<Option<BsId>>,
    /// Iterations executed, including the final silent one.
    iterations: usize,
    /// Total proposals sent.
    proposals: u64,
    /// UEs accepted per non-silent iteration.
    acceptances: Vec<usize>,
    /// UEs still unmatched after each non-silent iteration.
    unmatched: Vec<usize>,
    /// Candidate links pruned.
    prunes: u64,
    /// Admission-step evictions.
    evictions: u64,
    /// Total UEs edge-assigned.
    assigned_total: usize,
    /// Total UEs cloud-forwarded.
    cloud_total: usize,
    /// Whether the workspace's winner table was already large enough
    /// (telemetry only).
    workspace_reused: bool,
}

impl MatchRun {
    fn into_outcome(self) -> DmraOutcome {
        DmraOutcome {
            allocation: Allocation::from_assignments(self.assigned),
            iterations: self.iterations,
            proposals: self.proposals,
            acceptances: self.acceptances,
            unmatched: self.unmatched,
            prunes: self.prunes,
            evictions: self.evictions,
        }
    }
}

/// Loads the dense caches of `instance` into `ws`, indexed by raw UE/BS
/// indices.
fn load_monolithic(instance: &ProblemInstance, ws: &mut DmraWorkspace) {
    let n_ues = instance.n_ues();
    let ues = instance.ues();

    // Dense remaining-resource caches, flattened `[bs * n_svcs + svc]`
    // (`Cru` and `RrbCount` are plain u32 wrappers, so raw u32
    // arithmetic reproduces `MatchState` exactly).
    ws.rem_cru.clear();
    ws.rem_rrb.clear();
    for bs in instance.bss() {
        ws.rem_cru.extend(bs.cru_budget.iter().map(|c| c.get()));
        ws.rem_rrb.push(bs.rrb_budget.get());
    }

    // Flattened candidate windows: UE `u` owns
    // `cands[start[u] .. start[u] + len[u]]`; pruning swaps the pruned
    // entry to the window tail and shrinks the window. The arg-min in the
    // match loop has a unique (value, bs) key per entry, so the reordering
    // never changes which candidate is selected.
    ws.cands.clear();
    ws.start.clear();
    ws.len.clear();
    for u in 0..n_ues {
        let row = instance.candidates(UeId::new(u as u32));
        ws.start.push(ws.cands.len());
        ws.len.push(row.len());
        ws.cands.extend(row.iter().map(|l| DenseCand {
            bs: l.bs.index(),
            n_rrbs: l.n_rrbs.get(),
            price: l.price.get(),
            same_sp: l.same_sp,
        }));
    }
    ws.svc.clear();
    ws.svc.extend(ues.iter().map(|ue| ue.service.as_usize()));
    ws.cru_demand.clear();
    ws.cru_demand
        .extend(ues.iter().map(|ue| ue.cru_demand.get()));
    ws.f_u.clear();
    ws.f_u
        .extend((0..n_ues).map(|u| instance.f_u(UeId::new(u as u32))));
}

/// Longest `ρ / d` table a workspace keeps (32 KiB of `f64`). The paper
/// grid needs at most 206 entries and the metro grid 373; a denominator
/// past the bound is divided directly.
const RHO_TABLE_MAX: usize = 4096;

/// Makes `ws.rho_term` cover every Eq. (17) denominator of the instance
/// just loaded, up to [`RHO_TABLE_MAX`]. Budgets only shrink during a
/// solve, so the loaded maxima bound every `d = rem_cru + rem_rrb` the
/// match loop can form. Both operands of `ρ / d` are exact integers in
/// `f64`, so each entry is bit-for-bit the division it replaces.
fn load_rho_table(rho: f64, ws: &mut DmraWorkspace) {
    let max_cru = u64::from(ws.rem_cru.iter().copied().max().unwrap_or(0));
    let max_rrb = u64::from(ws.rem_rrb.iter().copied().max().unwrap_or(0));
    let len = (max_cru + max_rrb + 1).min(RHO_TABLE_MAX as u64) as usize;
    if ws.rho_bits != rho.to_bits() || ws.rho_term.len() < len {
        ws.rho_bits = rho.to_bits();
        ws.rho_term.clear();
        ws.rho_term.extend((0..len).map(|d| rho / d as f64));
    }
}

/// The dense deferred-acceptance loop of Algorithm 1, running over the
/// `n_ues × n_bss × n_svcs` instance currently loaded in `ws` (see
/// [`load_monolithic`] and [`load_rho_table`]).
fn match_loop(
    config: &DmraConfig,
    n_ues: usize,
    n_bss: usize,
    n_svcs: usize,
    ws: &mut DmraWorkspace,
) -> Result<MatchRun> {
    let DmraWorkspace {
        rem_cru,
        rem_rrb,
        cands,
        start,
        len,
        svc,
        cru_demand,
        f_u,
        rho_term,
        pending,
        best,
        touched,
        winners,
        ..
    } = ws;
    let rho = config.rho;
    let rho_term: &[f64] = rho_term;
    let table_len = rho_term.len() as u64;

    // `assigned` moves into the outcome's `Allocation`, so it is the
    // one per-solve allocation that cannot live in the workspace.
    let mut assigned: Vec<Option<BsId>> = vec![None; n_ues];
    pending.clear();
    pending.extend(0..n_ues as u32);
    let mut proposals_total = 0u64;
    let mut acceptances: Vec<usize> = Vec::new();
    let mut unmatched: Vec<usize> = Vec::new();
    let mut prunes = 0u64;
    let mut evictions = 0u64;
    let mut assigned_total = 0usize;
    let mut cloud_total = 0usize;

    // The BS side only ever uses each (bs, service) slot's
    // max-preference proposal, so the UE side keeps a running max per
    // slot instead of a bucket of every proposal: the preference key
    // embeds the UE id, so the max is unique and independent of arrival
    // order. `touched` lists the slots filled this iteration (sorted
    // before the BS side so it walks (bs, service) in exactly the order
    // the reference's nested BTreeMaps would). Every slot is empty
    // between solves (each iteration takes the slots it touched), so
    // reuse only needs to grow the table.
    let workspace_reused = best.len() >= n_bss * n_svcs;
    if !workspace_reused {
        best.resize(n_bss * n_svcs, None);
    }
    debug_assert!(best.iter().all(Option::is_none));
    touched.clear();
    winners.clear();
    let mut final_iterations = None;

    for iteration in 1..=config.max_iterations {
        // ---- UE side: lines 3–10 ----
        let mut any = false;
        for &u in pending.iter() {
            let u = u as usize;
            let s = svc[u];
            loop {
                if len[u] == 0 {
                    // Line 1 / fallthrough of lines 4–10: no BS can
                    // serve this UE; forward to the remote cloud.
                    cloud_total += 1;
                    break;
                }
                // Eq. (17) arg-min over the live window.
                let window = &cands[start[u]..start[u] + len[u]];
                let mut best_i = 0usize;
                let mut best_v = f64::INFINITY;
                let mut best_bs = u32::MAX;
                for (i, c) in window.iter().enumerate() {
                    let b = c.bs as usize;
                    let d = u64::from(rem_cru[b * n_svcs + s]) + u64::from(rem_rrb[b]);
                    let v = if d == 0 {
                        f64::INFINITY
                    } else if d < table_len {
                        c.price + rho_term[d as usize]
                    } else {
                        c.price + rho / d as f64
                    };
                    if v < best_v || (v == best_v && c.bs < best_bs) {
                        best_i = i;
                        best_v = v;
                        best_bs = c.bs;
                    }
                }
                let c = cands[start[u] + best_i];
                let b = c.bs as usize;
                if rem_cru[b * n_svcs + s] >= cru_demand[u] && rem_rrb[b] >= c.n_rrbs {
                    let slot = b * n_svcs + s;
                    let pref = DensePref {
                        same_sp: config.same_sp_preference && c.same_sp,
                        f_u: Reverse(f_u[u]),
                        footprint: Reverse(c.n_rrbs + cru_demand[u]),
                        ue: Reverse(u as u32),
                    };
                    match &mut best[slot] {
                        Some(held) => {
                            if pref > *held {
                                *held = pref;
                            }
                        }
                        empty @ None => {
                            *empty = Some(pref);
                            touched.push(slot);
                        }
                    }
                    proposals_total += 1;
                    any = true;
                    break;
                }
                // Line 10: the BS can never serve this UE again.
                prunes += 1;
                len[u] -= 1;
                cands.swap(start[u] + best_i, start[u] + len[u]);
            }
        }
        if !any {
            final_iterations = Some(iteration);
            break;
        }

        // ---- BS side: lines 11–25 ----
        // A winner's key carries its UE id and footprint `n_rrbs +
        // cru_demand`, so its RRB demand at this BS is recovered exactly.
        let n_rrbs = |p: &DensePref| p.footprint.0 - cru_demand[p.ue.0 as usize];
        touched.sort_unstable();
        let mut accepted_this_iteration = 0usize;
        let mut t = 0usize;
        while t < touched.len() {
            let bs = touched[t] / n_svcs;
            winners.clear();
            while t < touched.len() && touched[t] / n_svcs == bs {
                // One winner per service: the slot's max-preference
                // proposer. Taking it also empties the slot.
                let slot = touched[t];
                winners.push(best[slot].take().expect("touched slot holds a proposal"));
                t += 1;
            }
            // Radio admission: lines 22–25. Remove least-preferred
            // winners until the batch fits the remaining RRBs.
            let mut total: u32 = winners.iter().map(n_rrbs).sum();
            if total > rem_rrb[bs] {
                // Ascending preference = worst first.
                winners.sort_by_key(|&w| Reverse(w));
                while total > rem_rrb[bs] {
                    let dropped = winners.pop().expect("winners cannot empty before fitting");
                    total -= n_rrbs(&dropped);
                    evictions += 1;
                }
            }
            for w in winners.drain(..) {
                let u = w.ue.0 as usize;
                rem_cru[bs * n_svcs + svc[u]] -= cru_demand[u];
                rem_rrb[bs] -= n_rrbs(&w);
                assigned[u] = Some(BsId::new(bs as u32));
                accepted_this_iteration += 1;
            }
        }
        touched.clear();
        // A UE leaves the worklist once accepted, or once its window is
        // empty (it was forwarded to the cloud above).
        pending.retain(|&u| assigned[u as usize].is_none() && len[u as usize] != 0);
        assigned_total += accepted_this_iteration;
        acceptances.push(accepted_this_iteration);
        unmatched.push(n_ues - assigned_total - cloud_total);
    }
    let Some(iterations) = final_iterations else {
        return Err(Error::NonTermination {
            bound: config.max_iterations,
            n_ues,
            n_bss,
        });
    };

    Ok(MatchRun {
        assigned,
        iterations,
        proposals: proposals_total,
        acceptances,
        unmatched,
        prunes,
        evictions,
        assigned_total,
        cloud_total,
        workspace_reused,
    })
}

/// Records the standard `dmra.*` telemetry of one finished solve.
fn record_solve(run: &MatchRun, n_ues: usize, solve_started: Option<std::time::Instant>) {
    // Handles are resolved once and cached; steady-state recording
    // is one atomic op per metric (see BENCH_obs_overhead.json).
    static SOLVES: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.solves");
    static ROUNDS: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.rounds");
    static PROPOSALS: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.proposals");
    static ACCEPTANCES: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.acceptances");
    static CLOUD_FORWARDS: dmra_obs::LazyCounter =
        dmra_obs::LazyCounter::new("dmra.cloud_forwards");
    static PRUNES: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.prunes");
    static EVICTIONS: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("dmra.evictions");
    static REUSE_HITS: dmra_obs::LazyCounter =
        dmra_obs::LazyCounter::new("dmra.workspace_reuse_hits");
    static SOLVE_NS: dmra_obs::LazyHistogram = dmra_obs::LazyHistogram::new("dmra.solve_ns");
    SOLVES.get().inc();
    ROUNDS.get().add(run.iterations as u64);
    PROPOSALS.get().add(run.proposals);
    ACCEPTANCES.get().add(run.assigned_total as u64);
    CLOUD_FORWARDS.get().add(run.cloud_total as u64);
    PRUNES.get().add(run.prunes);
    EVICTIONS.get().add(run.evictions);
    if run.workspace_reused {
        REUSE_HITS.get().inc();
    }
    let solve_ns = solve_started.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    });
    SOLVE_NS.get().record(solve_ns);
    dmra_obs::global_trace().record(dmra_obs::TraceEvent {
        name: "dmra.solve",
        index: SOLVES.get().get(),
        fields: vec![
            ("ues", n_ues as f64),
            ("rounds", run.iterations as f64),
            ("proposals", run.proposals as f64),
            ("accepted", run.assigned_total as f64),
            ("cloud", run.cloud_total as f64),
            ("prunes", run.prunes as f64),
            ("evictions", run.evictions as f64),
            ("wall_ns", solve_ns as f64),
        ],
    });
}

/// One live candidate in the dense solver's flattened per-UE window.
#[derive(Debug, Clone, Copy)]
struct DenseCand {
    /// Raw BS index.
    bs: u32,
    /// `n_{u,i}`: RRB demand of this UE at this BS.
    n_rrbs: u32,
    /// `p_{i,u}` as a raw float.
    price: f64,
    /// Whether UE and BS belong to the same SP.
    same_sp: bool,
}

/// The BS-side preference key of [`bs_preference_key`], precomputed:
/// larger is better (fields compare in declaration order), and the
/// embedded UE id makes it unique. Sixteen bytes, also as an `Option`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DensePref {
    /// Same-SP proposer (when the config honours the preference).
    same_sp: bool,
    /// Smaller `f_u` first.
    f_u: Reverse<u32>,
    /// Smaller footprint `n_{u,i} + c_j^u` first.
    footprint: Reverse<u32>,
    /// Smaller raw UE index first.
    ue: Reverse<u32>,
}

/// Mutable per-BS resource state shared by the matcher phases.
#[derive(Debug, Clone)]
pub(crate) struct MatchState {
    /// Remaining CRUs, indexed `[bs][service]`.
    pub(crate) rem_cru: Vec<Vec<Cru>>,
    /// Remaining RRBs, indexed by BS.
    pub(crate) rem_rrb: Vec<RrbCount>,
}

impl MatchState {
    pub(crate) fn new(instance: &ProblemInstance) -> Self {
        Self {
            rem_cru: instance
                .bss()
                .iter()
                .map(|b| b.cru_budget.clone())
                .collect(),
            rem_rrb: instance.bss().iter().map(|b| b.rrb_budget).collect(),
        }
    }

    /// Line 6 of Algorithm 1: can this BS still fit this UE?
    pub(crate) fn fits(&self, instance: &ProblemInstance, ue: UeId, link: &CandidateLink) -> bool {
        let i = link.bs.as_usize();
        let ue_spec = &instance.ues()[ue.as_usize()];
        self.rem_cru[i][ue_spec.service.as_usize()] >= ue_spec.cru_demand
            && self.rem_rrb[i] >= link.n_rrbs
    }

    /// Deducts the UE's demands from the BS.
    pub(crate) fn commit(&mut self, instance: &ProblemInstance, ue: UeId, link: &CandidateLink) {
        let i = link.bs.as_usize();
        let ue_spec = &instance.ues()[ue.as_usize()];
        self.rem_cru[i][ue_spec.service.as_usize()] -= ue_spec.cru_demand;
        self.rem_rrb[i] -= link.n_rrbs;
    }
}

/// Eq. (17): the UE's preference value for a candidate link given the
/// current remaining resources. Lower is better. A fully-drained BS scores
/// `+∞` (it will fail the feasibility check and be pruned).
pub(crate) fn ue_preference(
    rho: f64,
    link: &CandidateLink,
    rem_cru: Cru,
    rem_rrb: RrbCount,
) -> f64 {
    let denom = rem_cru.as_f64() + rem_rrb.as_f64();
    if denom <= 0.0 {
        return f64::INFINITY;
    }
    link.price.get() + rho / denom
}

/// Picks the index of the candidate with minimal `v_{u,i}` (line 5),
/// tie-breaking by BS id for determinism. Returns `None` for an empty set.
///
/// `service_idx` is the index of the *UE's* requested service — Eq. (17)
/// reads the remaining CRUs of that service at each candidate BS.
pub(crate) fn select_ue_proposal(
    rho: f64,
    service_idx: usize,
    candidates: &[CandidateLink],
    state: &MatchState,
) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .map(|(idx, link)| {
            let i = link.bs.as_usize();
            let v = ue_preference(rho, link, state.rem_cru[i][service_idx], state.rem_rrb[i]);
            (idx, v, link.bs)
        })
        .min_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.2.cmp(&b.2))
        })
        .map(|(idx, _, _)| idx)
}

/// Line 13–21: picks the winning proposer for one (BS, service) pair.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub(crate) fn select_bs_winner(
    instance: &ProblemInstance,
    bs: BsId,
    candidates: &[UeId],
    same_sp_preference: bool,
) -> UeId {
    *candidates
        .iter()
        .min_by_key(|&&u| std::cmp::Reverse(bs_preference_key(instance, bs, u, same_sp_preference)))
        .expect("candidate set must be non-empty")
}

/// The BS's preference for a UE, as a key where **larger is better** (use
/// with `Reverse` for min-by selection of the best).
///
/// Order: same-SP first (if enabled), then smaller `f_u`, then smaller
/// footprint `n_{u,i} + c_j^u`, then smaller UE id.
pub(crate) fn bs_preference_key(
    instance: &ProblemInstance,
    bs: BsId,
    ue: UeId,
    same_sp_preference: bool,
) -> (
    bool,
    std::cmp::Reverse<u32>,
    std::cmp::Reverse<u32>,
    std::cmp::Reverse<u32>,
) {
    let link = instance.link(ue, bs).expect("proposer must be a candidate");
    let footprint = link.n_rrbs.get() + instance.ues()[ue.as_usize()].cru_demand.get();
    (
        same_sp_preference && link.same_sp,
        std::cmp::Reverse(instance.f_u(ue)),
        std::cmp::Reverse(footprint),
        std::cmp::Reverse(ue.index()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::tests::island_instance;
    use crate::instance::tests::two_sp_instance;
    use crate::instance::{CoverageModel, ProblemInstance};
    use dmra_econ::PricingConfig;
    use dmra_radio::RadioConfig;
    use dmra_types::{
        BitsPerSec, BsSpec, Cru, Dbm, Hertz, Money, Point, ServiceCatalog, ServiceId, SpId, SpSpec,
        UeSpec,
    };

    #[test]
    fn dmra_serves_both_ues_on_tiny_instance() {
        let inst = two_sp_instance();
        let out = Dmra::default().solve(&inst).unwrap();
        out.allocation.validate(&inst).unwrap();
        assert_eq!(out.allocation.edge_served(), 2);
        assert!(out.iterations <= 3, "iterations = {}", out.iterations);
        assert!(out.proposals >= 2);
    }

    #[test]
    fn allocator_name_is_dmra() {
        assert_eq!(Dmra::default().name(), "DMRA");
    }

    /// A scenario engineered so the same-SP preference matters: two UEs of
    /// different SPs compete for the last slot of a BS.
    fn contested_instance(rrb_budget: u32) -> ProblemInstance {
        let sps = vec![
            SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0)),
            SpSpec::new(SpId::new(1), Money::new(10.0), Money::new(1.0)),
        ];
        let catalog = ServiceCatalog::new(1);
        let bss = vec![BsSpec::new(
            dmra_types::BsId::new(0),
            SpId::new(0),
            Point::new(0.0, 0.0),
            vec![Cru::new(100)],
            Hertz::from_mhz(10.0),
            dmra_types::RrbCount::new(rrb_budget),
        )];
        // Both UEs equidistant, same demand; ue0 subscribes to sp1 (cross),
        // ue1 subscribes to sp0 (same as the BS).
        let mk_ue = |id: u32, sp: u32| {
            UeSpec::new(
                dmra_types::UeId::new(id),
                SpId::new(sp),
                Point::new(100.0, 0.0),
                ServiceId::new(0),
                Cru::new(4),
                BitsPerSec::from_mbps(3.0),
                Dbm::new(10.0),
            )
        };
        let ues = vec![mk_ue(0, 1), mk_ue(1, 0)];
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
    fn same_sp_proposer_wins_the_contested_slot() {
        // Each UE needs 1 RRB at 100 m; a budget of 1 fits exactly one.
        let inst = contested_instance(1);
        let out = Dmra::default().solve(&inst).unwrap();
        out.allocation.validate(&inst).unwrap();
        // The same-SP UE (ue1) must win; ue0 goes to the cloud.
        assert_eq!(
            out.allocation.bs_of(dmra_types::UeId::new(1)),
            Some(dmra_types::BsId::new(0))
        );
        assert_eq!(out.allocation.bs_of(dmra_types::UeId::new(0)), None);
    }

    #[test]
    fn ablation_without_same_sp_preference_changes_winner() {
        let inst = contested_instance(1);
        let cfg = DmraConfig {
            same_sp_preference: false,
            ..DmraConfig::paper_defaults()
        };
        let out = Dmra::new(cfg).solve(&inst).unwrap();
        // Without the SP term the tie-break falls through to f_u (equal),
        // footprint (equal), then smallest UE id: ue0 wins.
        assert_eq!(
            out.allocation.bs_of(dmra_types::UeId::new(0)),
            Some(dmra_types::BsId::new(0))
        );
    }

    #[test]
    fn both_served_when_budget_allows() {
        let inst = contested_instance(55);
        let out = Dmra::default().solve(&inst).unwrap();
        assert_eq!(out.allocation.edge_served(), 2);
    }

    #[test]
    fn no_candidates_means_cloud() {
        // A BS with zero RRBs can never serve anyone.
        let inst = contested_instance(0);
        let out = Dmra::default().solve(&inst).unwrap();
        assert_eq!(out.allocation.edge_served(), 0);
        assert_eq!(out.allocation.cloud_ues().count(), 2);
    }

    #[test]
    fn ue_preference_formula_matches_eq17() {
        let inst = two_sp_instance();
        let link = inst
            .link(dmra_types::UeId::new(0), dmra_types::BsId::new(0))
            .unwrap();
        let v = ue_preference(100.0, link, Cru::new(50), dmra_types::RrbCount::new(50));
        assert!((v - (link.price.get() + 1.0)).abs() < 1e-12);
        // Drained BS is infinitely unattractive.
        let v = ue_preference(100.0, link, Cru::ZERO, dmra_types::RrbCount::ZERO);
        assert!(v.is_infinite());
        // rho = 0 reduces to pure price preference.
        let v = ue_preference(0.0, link, Cru::new(1), dmra_types::RrbCount::new(1));
        assert!((v - link.price.get()).abs() < 1e-12);
    }

    #[test]
    fn higher_rho_prefers_resource_rich_bs() {
        let inst = two_sp_instance();
        let state_rich = MatchState {
            rem_cru: vec![vec![Cru::new(100); 2], vec![Cru::new(10); 2]],
            rem_rrb: vec![dmra_types::RrbCount::new(55), dmra_types::RrbCount::new(5)],
        };
        let cands = inst.candidates(dmra_types::UeId::new(0)).to_vec();
        // With rho = 0 the cheaper (same-SP, nearer) bs0 wins anyway here,
        // so flip the test: make bs1 cheaper by checking preference values
        // directly instead.
        let v0_low = ue_preference(0.0, &cands[0], Cru::new(100), dmra_types::RrbCount::new(55));
        let v0_high = ue_preference(
            1000.0,
            &cands[0],
            Cru::new(100),
            dmra_types::RrbCount::new(55),
        );
        let v1_high = ue_preference(
            1000.0,
            &cands[1],
            Cru::new(10),
            dmra_types::RrbCount::new(5),
        );
        assert!(v0_high > v0_low, "rho adds a positive term");
        // The resource-poor BS is penalised much harder at high rho.
        assert!(v1_high - cands[1].price.get() > v0_high - cands[0].price.get());
        let _ = state_rich;
    }

    #[test]
    fn iteration_count_is_bounded_by_ues_plus_one() {
        let inst = two_sp_instance();
        let out = Dmra::default().solve(&inst).unwrap();
        assert!(out.iterations <= inst.n_ues() + 1);
    }

    #[test]
    fn dense_solver_matches_reference_on_every_small_scenario() {
        // Full-outcome equality (allocation, iteration count, proposal
        // count, acceptance timeline) between the optimized dense solver
        // and the line-by-line reference, across the knobs that change
        // its decisions. Paper-scale equality is asserted by the
        // workspace-root `parallelism` integration tests.
        let scenarios: Vec<(ProblemInstance, DmraConfig)> = vec![
            (two_sp_instance(), DmraConfig::paper_defaults()),
            (
                two_sp_instance(),
                DmraConfig::paper_defaults().with_rho(0.0),
            ),
            (
                two_sp_instance(),
                DmraConfig {
                    same_sp_preference: false,
                    ..DmraConfig::paper_defaults()
                },
            ),
            (contested_instance(1), DmraConfig::paper_defaults()),
            (
                contested_instance(1),
                DmraConfig {
                    same_sp_preference: false,
                    ..DmraConfig::paper_defaults()
                },
            ),
            (contested_instance(0), DmraConfig::paper_defaults()),
            (
                contested_instance(55),
                DmraConfig::paper_defaults().with_rho(1000.0),
            ),
            (island_instance(), DmraConfig::paper_defaults()),
            (
                island_instance(),
                DmraConfig::paper_defaults().with_rho(0.0),
            ),
            (
                island_instance(),
                DmraConfig {
                    same_sp_preference: false,
                    ..DmraConfig::paper_defaults()
                },
            ),
            (rich_instance(), DmraConfig::paper_defaults()),
            (rich_instance(), DmraConfig::paper_defaults().with_rho(1e7)),
        ];
        for (i, (inst, cfg)) in scenarios.iter().enumerate() {
            let dmra = Dmra::new(*cfg);
            let fast = dmra.solve(inst).unwrap();
            let reference = dmra.solve_reference(inst).unwrap();
            assert_eq!(fast, reference, "scenario #{i} diverged");
        }
    }

    /// [`two_sp_instance`] with CRU budgets past the `ρ / d` table bound,
    /// so every Eq. (17) denominator is divided directly. BS 1, the
    /// farther one from UE 0, holds 20× BS 0's budget: at a large `ρ` the
    /// resource term outweighs the price and decides UE 0's proposal.
    fn rich_instance() -> ProblemInstance {
        let inst = two_sp_instance();
        inst.residual(
            &[
                vec![Cru::new(5_000), Cru::new(5_000)],
                vec![Cru::new(100_000), Cru::ZERO],
            ],
            &[dmra_types::RrbCount::new(55), dmra_types::RrbCount::new(55)],
            inst.ues().to_vec(),
        )
        .unwrap()
    }

    /// A paper-scale deployment built by hand (`ScenarioConfig` lives in
    /// `dmra-sim`, downstream of this crate): 5 SPs, a 5×5 grid of BSs
    /// 300 m apart (round-robin SPs), 6 services and 500 UEs scattered
    /// by a fixed LCG — 150 `(bs, service)` slots.
    fn paper_scale_instance() -> ProblemInstance {
        let sps: Vec<SpSpec> = (0..5)
            .map(|k| SpSpec::new(SpId::new(k), Money::new(9.0), Money::new(1.0)))
            .collect();
        let catalog = ServiceCatalog::new(6);
        let bss: Vec<BsSpec> = (0..25u32)
            .map(|b| {
                let (row, col) = (f64::from(b / 5), f64::from(b % 5));
                BsSpec::new(
                    dmra_types::BsId::new(b),
                    SpId::new(b % 5),
                    Point::new(150.0 + 300.0 * col, 150.0 + 300.0 * row),
                    (0..6)
                        .map(|j| Cru::new(100 + (b * 7 + j * 13) % 51))
                        .collect(),
                    Hertz::from_mhz(10.0),
                    dmra_types::RrbCount::new(55),
                )
            })
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let ues: Vec<UeSpec> = (0..500u32)
            .map(|u| {
                UeSpec::new(
                    dmra_types::UeId::new(u),
                    SpId::new(u % 5),
                    Point::new(1500.0 * unit(), 1500.0 * unit()),
                    ServiceId::new((u * 7) % 6),
                    Cru::new(3 + u % 3),
                    BitsPerSec::from_mbps(2.0 + 4.0 * unit()),
                    Dbm::new(10.0),
                )
            })
            .collect();
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
    fn workspace_reuse_never_changes_the_outcome() {
        // One workspace dragged across instances of different shapes and
        // configs must reproduce the fresh-workspace outcome every time;
        // the paper-scale instance grows the winner table, and the tiny
        // ones after it run on a prefix of the grown table. `ρ` cycles on
        // every instance, so the `ρ / d` table must follow each change
        // even when it is already long enough.
        let instances = [
            two_sp_instance(),
            contested_instance(1),
            contested_instance(0),
            paper_scale_instance(),
            two_sp_instance(),
            contested_instance(55),
        ];
        let mut ws = DmraWorkspace::default();
        for (i, inst) in instances.iter().enumerate() {
            for rho in [0.0, 100.0, 1000.0] {
                let dmra = Dmra::new(DmraConfig::paper_defaults().with_rho(rho));
                let reused = dmra.solve_with_workspace(inst, &mut ws).unwrap();
                let fresh = dmra.solve(inst).unwrap();
                assert_eq!(
                    reused, fresh,
                    "instance #{i} at rho {rho} diverged under reuse"
                );
            }
        }
    }

    /// Three same-SP UEs request service 0 at BS 0 in the same round; the
    /// last of them in UE order (UE 2) is the only one BS 1 cannot cover,
    /// so its smaller `f_u` makes it the BS's choice. A cross-SP UE
    /// requests service 1 at BS 0 in that round too, and both budgets
    /// fit one RRB, so admission has to evict one of the two winners.
    fn crowded_slot_instance() -> ProblemInstance {
        let sps = vec![
            SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0)),
            SpSpec::new(SpId::new(1), Money::new(10.0), Money::new(1.0)),
        ];
        let mk_bs = |id: u32, x: f64| {
            BsSpec::new(
                dmra_types::BsId::new(id),
                SpId::new(0),
                Point::new(x, 0.0),
                vec![Cru::new(100), Cru::new(100)],
                Hertz::from_mhz(10.0),
                dmra_types::RrbCount::new(1),
            )
        };
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
        ProblemInstance::build(
            sps,
            vec![mk_bs(0, 0.0), mk_bs(1, 400.0)],
            vec![
                mk_ue(0, 0, 150.0, 0),  // covered by both BSs
                mk_ue(1, 0, 140.0, 0),  // covered by both BSs
                mk_ue(2, 0, -120.0, 0), // BS 0 only
                mk_ue(3, 1, -100.0, 1), // BS 0 only, cross-SP
            ],
            ServiceCatalog::new(2),
            PricingConfig::paper_defaults(),
            RadioConfig::paper_defaults(),
            CoverageModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn crowded_slot_keeps_the_preferred_proposal_pushed_last() {
        let inst = crowded_slot_instance();
        let ue = dmra_types::UeId::new;
        assert_eq!(
            (0..4).map(|u| inst.f_u(ue(u))).collect::<Vec<_>>(),
            vec![2, 2, 1, 1]
        );
        // At full budgets every UE's Eq. (17) choice is BS 0, so all four
        // propose there in round 1 — three of them to the service-0 slot.
        let state = MatchState::new(&inst);
        for u in 0..4 {
            let cands = inst.candidates(ue(u));
            let svc = inst.ues()[u as usize].service.as_usize();
            let pick = select_ue_proposal(100.0, svc, cands, &state).unwrap();
            assert_eq!(cands[pick].bs, BsId::new(0), "UE {u}");
        }
        let dmra = Dmra::default();
        let fast = dmra.solve(&inst).unwrap();
        assert_eq!(fast, dmra.solve_reference(&inst).unwrap());
        // Round 1 accepts only UE 2: it beats UEs 0 and 1 on `f_u`, and
        // admission evicts the cross-SP service-1 winner (UE 3).
        assert_eq!(fast.acceptances[0], 1);
        assert_eq!(fast.evictions, 1);
        assert_eq!(fast.allocation.bs_of(ue(2)), Some(BsId::new(0)));
        assert_eq!(fast.allocation.bs_of(ue(3)), None);
    }

    #[test]
    fn session_matches_one_shot_allocate() {
        let dmra = Dmra::default();
        let mut session = dmra.session();
        for inst in [two_sp_instance(), contested_instance(1), two_sp_instance()] {
            assert_eq!(session.allocate(&inst), dmra.allocate(&inst));
        }
    }

    #[test]
    fn acceptance_timeline_sums_to_served() {
        let inst = two_sp_instance();
        let out = Dmra::default().solve(&inst).unwrap();
        let total: usize = out.acceptances.iter().sum();
        assert_eq!(total, out.allocation.edge_served());
        // The timeline covers every non-silent iteration.
        assert_eq!(out.acceptances.len() + 1, out.iterations);
        // Every BS with proposals accepts at least one UE per iteration
        // (the termination argument), so no zero entries appear.
        assert!(out.acceptances.iter().all(|&a| a > 0));
        // The unmatched trajectory parallels the acceptance timeline and
        // is monotonically non-increasing, ending at zero residual demand
        // (everyone is edge-served or cloud-forwarded at quiescence).
        assert_eq!(out.unmatched.len(), out.acceptances.len());
        assert!(out.unmatched.windows(2).all(|w| w[1] <= w[0]));
        let served = out.allocation.edge_served();
        let cloud = out.allocation.cloud_ues().count();
        assert_eq!(
            *out.unmatched.last().unwrap(),
            inst.n_ues() - served - cloud
        );
    }

    #[test]
    fn all_cloud_instance_merges_to_one_silent_iteration() {
        // Zero-RRB budget: every candidate prunes away in iteration 1 and
        // everyone cloud-forwards; the dense solver must agree with the
        // reference on the degenerate trajectory (iterations = 1, empty
        // timelines).
        let inst = contested_instance(0);
        let dmra = Dmra::default();
        let out = dmra.solve(&inst).unwrap();
        assert_eq!(out, dmra.solve_reference(&inst).unwrap());
        assert_eq!(out.iterations, 1);
        assert!(out.acceptances.is_empty());
    }

    #[test]
    fn trajectory_counters_match_reference_on_contested_instance() {
        // The contested instance forces a radio-admission eviction and
        // candidate prunes; the dense solver must report the same counts
        // as the line-by-line reference (full-outcome equality covers the
        // fields, this spells the trajectory out for clarity).
        let inst = contested_instance(1);
        let dmra = Dmra::default();
        let fast = dmra.solve(&inst).unwrap();
        let reference = dmra.solve_reference(&inst).unwrap();
        assert_eq!(fast.iterations, reference.iterations);
        assert_eq!(fast.proposals, reference.proposals);
        assert_eq!(fast.acceptances, reference.acceptances);
        assert_eq!(fast.unmatched, reference.unmatched);
        assert_eq!(fast.prunes, reference.prunes);
        assert_eq!(fast.evictions, reference.evictions);
        // One UE loses the only slot and retries until its candidate set
        // empties: at least one prune must have happened.
        assert!(fast.prunes > 0, "expected prunes on the contested instance");
    }
}
