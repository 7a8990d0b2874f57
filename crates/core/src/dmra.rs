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
//!   `ρ` changes instead of on every candidate visit. Entry 0 is `+∞`,
//!   the value the reference gives a drained BS;
//! * Eq. (17)'s arg-min is a branch-free `min` over one `u128` key per
//!   candidate, `v.to_bits() << 64 | bs << 32 | i` (`i` = the
//!   candidate's place in the UE's window). For `v ≥ +0.0` and not NaN,
//!   the IEEE bit pattern orders like the value, so the key orders
//!   exactly like the reference's rule — smallest `v`, ties to the
//!   smallest BS id — and the low word names the winning entry. Every
//!   `v = p + ρ / d` lies in `(0, +∞]`: prices are at least `2b > 0`
//!   ([`PricingConfig::validate`](dmra_econ::PricingConfig::validate))
//!   and [`DmraConfig::validate`] rejects a NaN or negative `ρ`, so a
//!   `ρ = -0.0` term adds `-0.0` and a `ρ = +∞` term ties every live
//!   candidate at `+∞`;
//! * the BS preference is one `u128` per proposal, larger is better —
//!   [`matching::bs_key`], the reference's own key: bit 96 the same-SP
//!   flag, then `!f_u`, `!footprint` and `!ue` as 32-bit words (each
//!   complemented, so smaller wins). A proposal is
//!   `best[slot] = best[slot].max(key)` on a winner table that holds 0
//!   — the identity of `max` on keys — in each empty `(bs, service)`
//!   slot; the BS side recovers the UE and its RRB demand from the key;
//! * each proposal also sets its slot's bit in a bitset, and the BS side
//!   walks the set bits in ascending slot order, clearing them as it
//!   goes: `(bs, service)` order, the order in which the reference's
//!   nested `BTreeMap`s visit them, with no per-round sort.
//!
//! Splitting the instance into candidate-graph components, or replaying
//! unchanged components across epochs, gives the same outcome but
//! measured slower on the many-component workload built for it
//! (DESIGN.md §14).
//! [`Dmra::solve_reference`] is the specification the dense loop is
//! tested against: the deferred-acceptance loop of [`crate::matching`],
//! which DCSP and NonCo share, under DMRA's preferences.
//!
//! The genuinely message-passing execution of the same protocol lives in
//! [`crate::agents`]; under reliable delivery it produces bit-identical
//! allocations (see `tests/` at the workspace root).

use crate::allocation::Allocation;
use crate::allocator::{Allocator, AllocatorSession};
use crate::budgets::Budgets;
use crate::instance::{CandidateLink, ProblemInstance};
use crate::matching::{self, Preferences};
use dmra_types::{BsId, Cru, Error, Result, RrbCount, UeId, UeSpec};
use serde::{Deserialize, Serialize};

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

    /// Checks that `ρ` is a valid Eq. (17) weight: non-negative and not
    /// NaN. `ρ = +∞` is legal: every live candidate then scores `+∞`, and
    /// the tie goes to the smallest BS id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming `ρ`.
    pub fn validate(&self) -> Result<()> {
        if self.rho.is_nan() || self.rho < 0.0 {
            return Err(Error::InvalidConfig(format!(
                "Eq. (17) weight ρ must be non-negative and not NaN, got {}",
                self.rho
            )));
        }
        Ok(())
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
    /// `bs * n_services + service` with a bitset of the slots filled, a
    /// worklist of unmatched UEs and a `ρ / d` table for Eq. (17)). It is
    /// bit-identical to [`Dmra::solve_reference`] — every selection rule
    /// has a unique key, so none of the reorderings the dense layout
    /// introduces can change a decision — and the test suite asserts the
    /// full [`DmraOutcome`] equality on every scenario it touches.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `ρ` fails
    /// [`DmraConfig::validate`] or the instance has more `(bs, service)`
    /// slots than a `u32` indexes, and [`Error::NonTermination`] if
    /// `max_iterations` elapses — this indicates a bug, as the algorithm
    /// provably terminates.
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
    /// As [`Dmra::solve`].
    pub fn solve_with_workspace(
        &self,
        instance: &ProblemInstance,
        ws: &mut DmraWorkspace,
    ) -> Result<DmraOutcome> {
        self.config.validate()?;
        // Telemetry is observe-only: the flag is read once, the clock only
        // when enabled, and all recording happens after the match loop —
        // nothing here can influence a decision below.
        let obs_on = dmra_obs::enabled();
        let solve_started = obs_on.then(std::time::Instant::now);

        let n_ues = instance.n_ues();
        let n_bss = instance.n_bss();
        let n_svcs = instance.catalog().len() as usize;
        // Candidates carry their `(bs, service)` slot as a `u32`.
        if n_bss
            .checked_mul(n_svcs)
            .and_then(|n| u32::try_from(n).ok())
            .is_none()
        {
            return Err(Error::InvalidConfig(format!(
                "{n_bss} BSs × {n_svcs} services exceed the solver's u32 slot index"
            )));
        }

        let max_denominator = load_monolithic(instance, n_svcs, ws);
        load_rho_table(self.config.rho, max_denominator, ws);

        let run = match_loop(&self.config, n_ues, n_bss, n_svcs, ws)?;

        if obs_on {
            record_solve(&run, n_ues, solve_started);
        }

        Ok(run.into_outcome())
    }

    /// The executable specification [`Dmra::solve`] is tested against:
    /// the shared deferred-acceptance loop of [`crate::matching`] under
    /// DMRA's preferences (this type's [`Preferences`] impl), with
    /// `BTreeMap` proposal routing, typed resource state and candidate
    /// lookups through [`ProblemInstance::link`]. Tests assert `solve`
    /// and `solve_reference` return equal [`DmraOutcome`]s.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `ρ` fails
    /// [`DmraConfig::validate`], and [`Error::NonTermination`] if
    /// `max_iterations` elapses — this indicates a bug, as the algorithm
    /// provably terminates.
    pub fn solve_reference(&self, instance: &ProblemInstance) -> Result<DmraOutcome> {
        self.config.validate()?;
        matching::run(instance, self, self.config.max_iterations)
    }
}

/// DMRA's preferences: Eq. (17) on the UE side; on the BS side a same-SP
/// proposer first (lines 13–21, when the config honours it), then the
/// smaller `f_u`, the smaller footprint `n_{u,i} + c_j^u` and the smaller
/// UE id.
impl Preferences for Dmra {
    fn ue_score(
        &self,
        _instance: &ProblemInstance,
        pool: &Budgets,
        ue: &UeSpec,
        link: &CandidateLink,
    ) -> f64 {
        ue_preference(
            self.config.rho,
            link,
            pool.cru(link.bs, ue.service),
            pool.rrb(link.bs),
        )
    }

    fn bs_key(&self, instance: &ProblemInstance, bs: BsId, ue: UeId) -> u128 {
        let link = instance.link(ue, bs).expect("proposer is a candidate");
        let footprint = link.n_rrbs.get() + instance.ues()[ue.as_usize()].cru_demand.get();
        matching::bs_key(
            self.config.same_sp_preference && link.same_sp,
            instance.f_u(ue),
            footprint,
            ue,
        )
    }
}

impl Allocator for Dmra {
    fn name(&self) -> &str {
        "DMRA"
    }

    /// # Panics
    ///
    /// Panics if `ρ` fails [`DmraConfig::validate`], or if the iteration
    /// bound is exhausted, which would indicate a bug in the matcher (the
    /// algorithm provably terminates).
    fn allocate(&self, instance: &ProblemInstance) -> Allocation {
        self.solve(instance)
            .expect("DMRA's ρ is valid and it terminates within its iteration bound")
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
/// The remaining budgets are the solver's private working copy of the
/// instance's [`Budgets`], loaded with one slice copy per solve; its
/// deductions follow the match loop's own fit checks. Every field is
/// sized/overwritten at the start of a solve (the `ρ / d`
/// table whenever `ρ` changes or it is too short), so a workspace can be
/// reused freely across instances of different shapes and configs; it
/// never influences the outcome. The winner table and its bitset rely on
/// the solver's drain discipline (every slot 0 and every bit clear
/// between solves), which a `debug_assert` re-checks on entry.
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
    /// [`load_rho_table`]), and `rho_term[0] = +∞`, so a drained slot
    /// scores `p + ∞ = +∞` like the reference's.
    rho_term: Vec<f64>,
    /// The bits of the `ρ` that `rho_term` holds.
    rho_bits: u64,
    /// UEs still unmatched (neither accepted nor cloud-forwarded), in
    /// ascending order: the UEs the next round's UE side visits.
    pending: Vec<u32>,
    /// The largest BS preference key received this iteration, one entry
    /// per `(bs, service)` slot, 0 when no proposal arrived. Key layout,
    /// larger is better: bit 96 = same-SP proposer (when the config
    /// honours the preference), bits 64..96 = `!f_u`, bits 32..64 =
    /// `!(n_{u,i} + c_j^u)`, bits 0..32 = `!ue` — the reference's
    /// [`matching::bs_key`], and unique through the UE id.
    best: Vec<u128>,
    /// One bit per `(bs, service)` slot: set when the slot received a
    /// proposal this iteration. The BS side walks the set bits in
    /// ascending order and clears every word it passes.
    proposed: Vec<u64>,
    /// Per-BS winner keys for the admission step.
    winners: Vec<u128>,
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
/// indices, and returns a bound on every Eq. (17) denominator
/// `rem_cru + rem_rrb` the loaded budgets can form.
fn load_monolithic(instance: &ProblemInstance, n_svcs: usize, ws: &mut DmraWorkspace) -> u64 {
    let n_ues = instance.n_ues();
    let ues = instance.ues();

    // The working copy of the budgets, flattened `[bs * n_svcs + svc]`
    // like the instance's table (`Cru` and `RrbCount` are plain u32
    // wrappers, so raw u32 arithmetic reproduces the reference's
    // `Budgets` exactly): one slice copy each.
    let budgets = instance.budgets();
    ws.rem_cru.clear();
    ws.rem_cru.extend_from_slice(budgets.cru_table());
    ws.rem_rrb.clear();
    ws.rem_rrb.extend_from_slice(budgets.rrb_table());

    // Flattened candidate windows: UE `u` owns
    // `cands[start[u] .. start[u] + len[u]]`; pruning swaps the pruned
    // entry to the window tail and shrinks the window. The arg-min in the
    // match loop has a unique (value, bs) key per entry, so the reordering
    // never changes which candidate is selected.
    ws.cands.clear();
    ws.start.clear();
    ws.len.clear();
    for (u, ue) in ues.iter().enumerate() {
        let row = instance.candidates(UeId::new(u as u32));
        let svc = ue.service.as_usize();
        ws.start.push(ws.cands.len());
        ws.len.push(row.len());
        ws.cands.extend(row.iter().map(|l| DenseCand {
            price: l.price.get(),
            bs: l.bs.index(),
            // The caller checked that every slot index fits a `u32`.
            slot: (l.bs.as_usize() * n_svcs + svc) as u32,
            n_rrbs: l.n_rrbs.get(),
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
    budgets.denominator_bound()
}

/// Longest `ρ / d` table a workspace keeps (32 KiB of `f64`). The paper
/// grid needs at most 206 entries and the metro grid 373; a denominator
/// past the bound is divided directly.
const RHO_TABLE_MAX: usize = 4096;

/// Makes `ws.rho_term` cover every Eq. (17) denominator up to
/// `max_denominator` (see [`load_monolithic`]), within
/// [`RHO_TABLE_MAX`]. Budgets only shrink during a solve, so the bound
/// the table reports for its loaded budgets covers every
/// `d = rem_cru + rem_rrb` the match loop can form.
/// Both operands of `ρ / d` are exact integers in `f64`, so each entry
/// `d > 0` is bit-for-bit the division it replaces.
fn load_rho_table(rho: f64, max_denominator: u64, ws: &mut DmraWorkspace) {
    let len = (max_denominator + 1).min(RHO_TABLE_MAX as u64) as usize;
    if ws.rho_bits != rho.to_bits() || ws.rho_term.len() < len {
        ws.rho_bits = rho.to_bits();
        ws.rho_term.clear();
        ws.rho_term.push(f64::INFINITY);
        ws.rho_term.extend((1..len).map(|d| rho / d as f64));
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
        proposed,
        winners,
        ..
    } = ws;
    let rho = config.rho;
    let rho_term: &[f64] = rho_term;

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
    // order. `proposed` marks the slots filled this iteration, and the
    // BS side walks its set bits in ascending slot order — (bs, service)
    // order, exactly the order the reference's nested BTreeMaps visit.
    // Every slot is 0 and every bit clear between solves (each iteration
    // takes the slots it marked), so reuse only needs to grow the tables.
    let n_slots = n_bss * n_svcs;
    let workspace_reused = best.len() >= n_slots;
    if !workspace_reused {
        best.resize(n_slots, 0);
        proposed.resize(n_slots.div_ceil(64), 0);
    }
    debug_assert!(best.iter().all(|&key| key == 0));
    debug_assert!(proposed.iter().all(|&bits| bits == 0));
    winners.clear();
    let mut final_iterations = None;

    for iteration in 1..=config.max_iterations {
        // ---- UE side: lines 3–10 ----
        let mut any = false;
        for &u in pending.iter() {
            let u = u as usize;
            loop {
                if len[u] == 0 {
                    // Line 1 / fallthrough of lines 4–10: no BS can
                    // serve this UE; forward to the remote cloud.
                    cloud_total += 1;
                    break;
                }
                // Eq. (17) arg-min over the live window: the smallest
                // `(v, bs)` key, whose low word is the entry's index.
                let window = &cands[start[u]..start[u] + len[u]];
                let mut best_key = u128::MAX;
                for (i, c) in window.iter().enumerate() {
                    let d = u64::from(rem_cru[c.slot as usize]) + u64::from(rem_rrb[c.bs as usize]);
                    let term = match rho_term.get(d as usize) {
                        Some(&term) => term,
                        None => rho / d as f64,
                    };
                    let v = c.price + term;
                    let key = u128::from(v.to_bits()) << 64 | u128::from(c.bs) << 32 | i as u128;
                    best_key = best_key.min(key);
                }
                let best_i = best_key as u32 as usize;
                let c = window[best_i];
                let slot = c.slot as usize;
                if rem_cru[slot] >= cru_demand[u] && rem_rrb[c.bs as usize] >= c.n_rrbs {
                    let key = matching::bs_key(
                        config.same_sp_preference & c.same_sp,
                        f_u[u],
                        c.n_rrbs + cru_demand[u],
                        UeId::new(u as u32),
                    );
                    best[slot] = best[slot].max(key);
                    proposed[slot / 64] |= 1 << (slot % 64);
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
        let ue_of = |key: u128| !(key as u32) as usize;
        let n_rrbs = |key: u128| !((key >> 32) as u32) - cru_demand[ue_of(key)];
        let mut accepted_this_iteration = 0usize;
        let mut slots = drain_set_bits(&mut proposed[..n_slots.div_ceil(64)]).peekable();
        while let Some(&first) = slots.peek() {
            let bs = first / n_svcs;
            let bs_end = bs * n_svcs + n_svcs;
            winners.clear();
            // One winner per service: the slot's max-preference proposer.
            // Taking it also empties the slot.
            while let Some(slot) = slots.next_if(|&slot| slot < bs_end) {
                winners.push(std::mem::take(&mut best[slot]));
            }
            // Radio admission: lines 22–25. Remove least-preferred
            // winners until the batch fits the remaining RRBs.
            let mut total: u32 = winners.iter().map(|&w| n_rrbs(w)).sum();
            if total > rem_rrb[bs] {
                // Ascending preference = worst first.
                winners.sort_unstable_by(|a, b| b.cmp(a));
                while total > rem_rrb[bs] {
                    let dropped = winners.pop().expect("winners cannot empty before fitting");
                    total -= n_rrbs(dropped);
                    evictions += 1;
                }
            }
            for &w in winners.iter() {
                let u = ue_of(w);
                rem_cru[bs * n_svcs + svc[u]] -= cru_demand[u];
                rem_rrb[bs] -= n_rrbs(w);
                assigned[u] = Some(BsId::new(bs as u32));
                accepted_this_iteration += 1;
            }
        }
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
    /// `p_{i,u}` as a raw float.
    price: f64,
    /// Raw BS index.
    bs: u32,
    /// The `(bs, service)` slot this UE's request occupies at this BS,
    /// `bs * n_svcs + svc(u)`: its index into `rem_cru` and the winner
    /// table.
    slot: u32,
    /// `n_{u,i}`: RRB demand of this UE at this BS.
    n_rrbs: u32,
    /// Whether UE and BS belong to the same SP.
    same_sp: bool,
}

/// The indices of the set bits of `words` in ascending order; each word
/// is cleared when the walk reaches it.
fn drain_set_bits(words: &mut [u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter_mut().enumerate().flat_map(|(w, word)| {
        let mut bits = std::mem::take(word);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
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

    /// Two SPs and one service. BSs are `(sp, position, CRU budget, RRB
    /// budget)` with ids in order; UEs are `(sp, position)` with ids in
    /// order, each asking 4 CRUs at 3 Mb/s (one RRB at 100 m).
    fn one_service_instance(
        bss: &[(u32, Point, u32, u32)],
        ues: &[(u32, Point)],
    ) -> ProblemInstance {
        let sps = vec![
            SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0)),
            SpSpec::new(SpId::new(1), Money::new(10.0), Money::new(1.0)),
        ];
        let bss = bss
            .iter()
            .zip(0..)
            .map(|(&(sp, at, cru, rrb), id)| {
                BsSpec::new(
                    BsId::new(id),
                    SpId::new(sp),
                    at,
                    vec![Cru::new(cru)],
                    Hertz::from_mhz(10.0),
                    dmra_types::RrbCount::new(rrb),
                )
            })
            .collect();
        let ues = ues
            .iter()
            .zip(0..)
            .map(|(&(sp, at), id)| {
                UeSpec::new(
                    dmra_types::UeId::new(id),
                    SpId::new(sp),
                    at,
                    ServiceId::new(0),
                    Cru::new(4),
                    BitsPerSec::from_mbps(3.0),
                    Dbm::new(10.0),
                )
            })
            .collect();
        ProblemInstance::build(
            sps,
            bss,
            ues,
            ServiceCatalog::new(1),
            PricingConfig::paper_defaults(),
            RadioConfig::paper_defaults(),
            CoverageModel::default(),
        )
        .unwrap()
    }

    /// A scenario engineered so the same-SP preference matters: two UEs of
    /// different SPs compete for the last slot of a BS. Both UEs are
    /// equidistant with the same demand; UE 0 subscribes to SP 1 (cross),
    /// UE 1 to SP 0 (the BS's).
    fn contested_instance(rrb_budget: u32) -> ProblemInstance {
        let at = Point::new(100.0, 0.0);
        one_service_instance(
            &[(0, Point::new(0.0, 0.0), 100, rrb_budget)],
            &[(1, at), (0, at)],
        )
    }

    /// Two co-located SP-0 UEs whose cheapest BS (BS 0, same SP, the
    /// nearest) fits only one of them, and two SP-1 BSs at bit-equal
    /// distances with equal budgets, so their Eq. (17) values are
    /// bit-equal. UE 0 takes BS 0 in round 1; in round 2 UE 1 still ranks
    /// BS 0 first, fails to fit and prunes it, and the swap-with-tail
    /// puts BS 2 ahead of BS 1 in its window: the tie must still go to
    /// BS 1, the smaller id.
    fn tied_instance() -> ProblemInstance {
        let at = Point::new(0.0, 0.0);
        one_service_instance(
            &[
                (0, Point::new(0.0, 50.0), 6, 55),
                (1, Point::new(100.0, 0.0), 100, 55),
                (1, Point::new(-100.0, 0.0), 100, 55),
            ],
            &[(0, at), (0, at)],
        )
    }

    /// Two co-located UEs whose cheaper BS (BS 0) holds exactly one UE's
    /// CRUs and RRBs: once round 1 admits UE 0 there, BS 0's Eq. (17)
    /// denominator is 0 (`v = +∞`) beside the live BS 1.
    fn drained_instance() -> ProblemInstance {
        let at = Point::new(100.0, 0.0);
        one_service_instance(
            &[
                (0, Point::new(0.0, 0.0), 4, 1),
                (0, Point::new(300.0, 0.0), 100, 55),
            ],
            &[(0, at), (0, at)],
        )
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
            (tied_instance(), DmraConfig::paper_defaults()),
            (
                drained_instance(),
                DmraConfig::paper_defaults().with_rho(0.0),
            ),
            (
                drained_instance(),
                DmraConfig::paper_defaults().with_rho(f64::INFINITY),
            ),
            (
                two_sp_instance(),
                DmraConfig::paper_defaults().with_rho(f64::INFINITY),
            ),
            (
                drained_instance(),
                DmraConfig::paper_defaults().with_rho(-0.0),
            ),
            (
                two_sp_instance(),
                DmraConfig::paper_defaults().with_rho(-0.0),
            ),
        ];
        for (i, (inst, cfg)) in scenarios.iter().enumerate() {
            let dmra = Dmra::new(*cfg);
            let fast = dmra.solve(inst).unwrap();
            let reference = dmra.solve_reference(inst).unwrap();
            assert_eq!(fast, reference, "scenario #{i} diverged");
        }
        // The bit-equal tie went through the reordering prune to BS 1.
        let tied = Dmra::default().solve(&tied_instance()).unwrap();
        assert_eq!(tied.prunes, 1);
        let ue = dmra_types::UeId::new;
        assert_eq!(tied.allocation.bs_of(ue(1)), Some(BsId::new(1)));
        // The drained BS 0 lost UE 1 to BS 1 at ρ = 0 and at ρ = +∞.
        for rho in [0.0, f64::INFINITY] {
            let drained = Dmra::new(DmraConfig::paper_defaults().with_rho(rho))
                .solve(&drained_instance())
                .unwrap();
            assert_eq!(drained.allocation.bs_of(ue(0)), Some(BsId::new(0)));
            assert_eq!(
                drained.allocation.bs_of(ue(1)),
                Some(BsId::new(1)),
                "ρ = {rho}"
            );
        }
    }

    #[test]
    fn nan_and_negative_rho_are_rejected_by_every_solver() {
        let inst = two_sp_instance();
        for rho in [f64::NAN, -1.0, -1e-300, f64::NEG_INFINITY] {
            let config = DmraConfig::paper_defaults().with_rho(rho);
            let dmra = Dmra::new(config);
            let errors = [
                dmra.solve(&inst).err(),
                dmra.solve_reference(&inst).err(),
                crate::agents::run_protocol(&inst, &config, Default::default()).err(),
            ];
            for err in errors {
                assert!(
                    matches!(&err, Some(Error::InvalidConfig(msg)) if msg.contains('ρ')),
                    "ρ = {rho}: {err:?}"
                );
            }
        }
    }

    /// [`two_sp_instance`] with CRU budgets past the `ρ / d` table bound,
    /// so every Eq. (17) denominator is divided directly. BS 1, the
    /// farther one from UE 0, holds 20× BS 0's budget: at a large `ρ` the
    /// resource term outweighs the price and decides UE 0's proposal.
    fn rich_instance() -> ProblemInstance {
        let inst = two_sp_instance();
        let mut rich = inst.budgets().clone();
        let none = dmra_types::RrbCount::ZERO;
        let (s0, s1) = (ServiceId::new(0), ServiceId::new(1));
        // BS 0: 100 → 5 000 CRUs of each service; BS 1: 100 → 100 000 of
        // service 0.
        rich.put_back(BsId::new(0), s0, Cru::new(4_900), none)
            .unwrap();
        rich.put_back(BsId::new(0), s1, Cru::new(4_900), none)
            .unwrap();
        rich.put_back(BsId::new(1), s0, Cru::new(99_900), none)
            .unwrap();
        inst.residual(&rich, inst.ues().to_vec()).unwrap()
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
        let dmra = Dmra::default();
        let pool = inst.budgets();
        for spec in inst.ues() {
            let cands = inst.candidates(spec.id);
            let scored = cands
                .iter()
                .map(|l| (dmra.ue_score(&inst, pool, spec, l), l.bs));
            let pick = matching::arg_min(scored).unwrap();
            assert_eq!(cands[pick].bs, BsId::new(0), "UE {}", spec.id);
        }
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
