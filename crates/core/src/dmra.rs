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
//! The genuinely message-passing execution of the same protocol lives in
//! [`crate::agents`]; under reliable delivery it produces bit-identical
//! allocations (see `tests/` at the workspace root).

use crate::allocation::Allocation;
use crate::allocator::{Allocator, AllocatorSession};
use crate::components::{self, decompose, Component, Decomposer, Decomposition, SolveMode};
use crate::instance::{CandidateLink, ProblemInstance};
use dmra_par::{par_map_indexed_scratch, Threads};
use dmra_types::{BsId, Cru, Error, Result, RrbCount, UeId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

/// Default for [`solve_min_fanout_ues`]: component sets totalling fewer
/// UEs than this solve serially on the caller's workspace instead of
/// fanning out over workers. At dynamic-regime arrival-batch sizes the
/// worker orchestration costs more than the matching itself (the
/// `BENCH_solve.json` metro curve sat at 0.99× at 4 threads before this
/// guard existed).
pub(crate) const SOLVE_MIN_FANOUT_UES_DEFAULT: usize = 512;

/// The minimum total-UE count at which a component solve fans out over
/// worker threads, read once from `DMRA_SOLVE_MIN_FANOUT_UES` (falling
/// back to [`SOLVE_MIN_FANOUT_UES_DEFAULT`] when unset or unparsable).
/// Purely a performance knob: both paths are bit-identical.
fn solve_min_fanout_ues() -> usize {
    static CELL: OnceLock<usize> = OnceLock::new();
    *CELL.get_or_init(|| {
        std::env::var("DMRA_SOLVE_MIN_FANOUT_UES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(SOLVE_MIN_FANOUT_UES_DEFAULT)
    })
}

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
    /// Explicit solve mode; `None` defers to the process-wide default
    /// ([`components::solve_mode_default`], set by `--solve`).
    mode: Option<SolveMode>,
    /// Worker knob for the component fan-out (ignored by the monolithic
    /// path). Threading never changes the outcome, only wall-clock time.
    solve_threads: Threads,
}

impl Dmra {
    /// Creates a DMRA matcher with the given configuration.
    #[must_use]
    pub fn new(config: DmraConfig) -> Self {
        Self {
            config,
            mode: None,
            solve_threads: Threads::Auto,
        }
    }

    /// The matcher's configuration.
    #[must_use]
    pub fn config(&self) -> &DmraConfig {
        &self.config
    }

    /// Returns a copy pinned to the given [`SolveMode`], overriding the
    /// process-wide default for this matcher only.
    #[must_use]
    pub fn with_solve_mode(mut self, mode: SolveMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Returns a copy with the component fan-out pinned to `threads`.
    #[must_use]
    pub fn with_solve_threads(mut self, threads: Threads) -> Self {
        self.solve_threads = threads;
        self
    }

    /// The [`SolveMode`] a solve of `instance` will actually use: the
    /// explicit mode if one was set (else the process default), demoted to
    /// [`SolveMode::Monolithic`] when the instance's interference model
    /// makes splitting unsound ([`components::splittable`]).
    #[must_use]
    pub fn effective_solve_mode(&self, instance: &ProblemInstance) -> SolveMode {
        let mode = self.mode.unwrap_or_else(components::solve_mode_default);
        if mode != SolveMode::Monolithic && !components::splittable(instance) {
            SolveMode::Monolithic
        } else {
            mode
        }
    }

    /// Runs the matching to quiescence, returning convergence diagnostics
    /// alongside the allocation.
    ///
    /// This is the optimized execution: all matcher state lives in dense
    /// `Vec`s indexed by raw BS/UE/service indices (flattened remaining
    /// resources, flattened candidate windows pruned by swap-with-tail, a
    /// reusable table of each round's best proposal keyed
    /// `bs * n_services + service`). It is
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
    /// Dispatches on [`Dmra::effective_solve_mode`]: under
    /// [`SolveMode::Components`] the instance is first decomposed into
    /// connected components of the candidate-link graph and each component
    /// is matched independently — bit-identical to the monolithic run
    /// (DESIGN.md §14), only faster when the instance actually splits. An
    /// instance that is one component (or empty) falls through to the
    /// monolithic dense path, which *is* the single-component solve.
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
        // `Delta` without session state (no cross-epoch cache to consult)
        // degrades to exactly the `Components` execution — the session
        // entry point in `DmraSession::allocate` is the only delta path.
        if self.effective_solve_mode(instance) != SolveMode::Monolithic {
            let decomp = decompose(instance);
            record_decomposition(&decomp);
            if decomp.components.len() > 1 {
                return self.solve_decomposed(instance, &decomp, ws);
            }
            // ≤ 1 component: degrade to the serial path below.
        }
        self.solve_monolithic(instance, ws)
    }

    /// The original whole-instance dense execution (one [`match_loop`]
    /// over global indices).
    fn solve_monolithic(
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

        let run = match_loop(&self.config, n_ues, n_bss, n_svcs, ws)?;

        if obs_on {
            record_solve(&run, n_ues, solve_started);
        }

        Ok(run.into_outcome())
    }

    /// The component-parallel execution: one [`match_loop`] per connected
    /// component (local indices), fanned out over `dmra-par` workers with
    /// per-worker workspace scratch, then a deterministic merge back to
    /// global UE order. Only called with ≥ 2 components.
    ///
    /// Bit-identity to [`Dmra::solve_monolithic`] (DESIGN.md §14): a
    /// component member's state at iteration `t` depends only on component
    /// state at `t - 1`, component UE/BS lists are ascending so local
    /// index order preserves every global tie-break order, and the merge
    /// rules below reconstruct exactly the global trajectories
    /// (`iterations = max`, per-iteration counters are sums with quiesced
    /// components contributing zero).
    fn solve_decomposed(
        &self,
        instance: &ProblemInstance,
        decomp: &Decomposition,
        ws: &mut DmraWorkspace,
    ) -> Result<DmraOutcome> {
        let obs_on = dmra_obs::enabled();
        let solve_started = obs_on.then(std::time::Instant::now);
        let n_ues = instance.n_ues();

        let which: Vec<usize> = (0..decomp.components.len()).collect();
        let mut bs_local = vec![0u32; instance.n_bss()];
        let runs = self.solve_component_set(instance, decomp, &which, ws, &mut bs_local);

        let mut runs_by_component = runs.into_iter();
        let merged = merge_component_runs(n_ues, decomp, |_| {
            runs_by_component
                .next()
                .expect("one run per listed component")
        })?;

        if obs_on {
            record_solve(&merged, n_ues, solve_started);
        }

        Ok(merged.into_outcome())
    }

    /// Solves the listed components (`which` indexes `decomp.components`,
    /// ascending), returning one [`MatchRun`] per listed component, in
    /// list order.
    ///
    /// Below the [`solve_min_fanout_ues`] total-UE threshold (or on a
    /// single-thread knob) the components run serially on the caller's
    /// workspace — the worker orchestration of tiny solves costs more
    /// than the matching itself (the `BENCH_solve.json` metro curve sat
    /// at 0.99× for dynamic-regime arrival batches). Above it they fan
    /// out over `par_map_indexed_scratch` workers, outcome-transparent by
    /// the `dmra-par` contract (outputs in index order, any thread
    /// count); either path's scratch is a reusable workspace plus a
    /// global→local BS index map whose entries are always written before
    /// read for the component at hand. The chosen path is recorded as
    /// `core.solve_serial` / `core.solve_fanout`.
    fn solve_component_set(
        &self,
        instance: &ProblemInstance,
        decomp: &Decomposition,
        which: &[usize],
        ws: &mut DmraWorkspace,
        bs_local: &mut Vec<u32>,
    ) -> Vec<Result<MatchRun>> {
        let n_bss = instance.n_bss();
        let n_svcs = instance.catalog().len() as usize;
        let config = &self.config;
        let total_ues: usize = which.iter().map(|&c| decomp.components[c].ues.len()).sum();
        let serial = total_ues < solve_min_fanout_ues() || self.solve_threads.resolve() <= 1;
        record_solve_path(serial);
        if serial {
            if bs_local.len() < n_bss {
                bs_local.resize(n_bss, 0);
            }
            which
                .iter()
                .map(|&c| {
                    let comp = &decomp.components[c];
                    load_component(instance, comp, ws, bs_local);
                    match_loop(config, comp.ues.len(), comp.bss.len(), n_svcs, ws)
                })
                .collect()
        } else {
            par_map_indexed_scratch(
                self.solve_threads,
                which.len(),
                || (DmraWorkspace::default(), vec![0u32; n_bss]),
                |(ws, bs_local), i| {
                    let comp = &decomp.components[which[i]];
                    load_component(instance, comp, ws, bs_local);
                    match_loop(config, comp.ues.len(), comp.bss.len(), n_svcs, ws)
                },
            )
        }
    }

    /// The cross-epoch delta execution ([`SolveMode::Delta`], DESIGN.md
    /// §17): decompose, then **replay** the cached [`MatchRun`] of every
    /// component that is provably untouched since the previous epoch and
    /// solve only the rest.
    ///
    /// A component replays only when *all* of the following hold, each of
    /// which fails closed:
    ///
    /// 1. the instance carries [`DeltaInfo`](crate::instance::DeltaInfo)
    ///    metadata continuing this state's lineage (`ctx_id` equal,
    ///    `seq` exactly one past the last solve — gaps, fresh contexts
    ///    and missing metadata all mean "everything dirty");
    /// 2. none of the component's member UEs or BSs appear in the diff's
    ///    dirty sets (dirty UEs = rebuilt or new-ground candidate rows;
    ///    dirty BSs = remaining-budget changes);
    /// 3. the cache holds an entry at the component's smallest UE id
    ///    whose member lists equal the component's (joins, splits and
    ///    departures all change membership).
    ///
    /// Together these imply the component's sub-instance is bit-identical
    /// to the one its cached run was computed from, so replaying the run
    /// is exact — the merged outcome is bit-identical to a from-scratch
    /// solve, which `tests/delta_solve.rs` pins across engines, seeds and
    /// allocators.
    fn solve_delta(
        &self,
        instance: &ProblemInstance,
        state: &mut DeltaState,
        ws: &mut DmraWorkspace,
    ) -> Result<DmraOutcome> {
        let obs_on = dmra_obs::enabled();
        let solve_started = obs_on.then(std::time::Instant::now);
        let n_ues = instance.n_ues();
        let n_bss = instance.n_bss();

        // Field-wise destructuring lets the decomposition borrow coexist
        // with cache/scratch mutation below.
        let DeltaState {
            valid,
            ctx_id,
            seq,
            cache,
            decomposer,
            dirty_ue,
            dirty_bs,
            which,
            bs_local,
        } = state;

        let decomp = decomposer.run(instance);
        record_decomposition(decomp);

        let delta = instance.delta();
        // `track`: maintain the cache for the next epoch. `continuous`:
        // the diff provably describes the change since the instance this
        // state last solved, so clean components may replay.
        let track = delta.is_some();
        let continuous = delta.is_some_and(|d| *valid && d.ctx_id == *ctx_id && d.seq == *seq + 1);
        if let Some(d) = delta {
            *valid = true;
            *ctx_id = d.ctx_id;
            *seq = d.seq;
        } else {
            // No metadata: nothing can vouch for the next diff's base
            // either, so drop the cache rather than let a later epoch
            // replay against a stale snapshot.
            *valid = false;
            cache.clear();
        }

        dirty_ue.clear();
        dirty_bs.clear();
        if continuous {
            let d = delta.expect("continuous implies delta metadata");
            dirty_ue.resize(n_ues, false);
            dirty_bs.resize(n_bss, false);
            for &u in &d.dirty_ues {
                if let Some(m) = dirty_ue.get_mut(u as usize) {
                    *m = true;
                }
            }
            for &b in &d.dirty_bss {
                if let Some(m) = dirty_bs.get_mut(b as usize) {
                    *m = true;
                }
            }
        }

        // Classify: a hit replays, everything else lands in `which`.
        which.clear();
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut invalidations = 0u64;
        let mut replayed_ues = 0u64;
        for (c, comp) in decomp.components.iter().enumerate() {
            let cached = cache.get(&comp.ues[0]);
            let clean = continuous
                && comp.ues.iter().all(|&u| !dirty_ue[u as usize])
                && comp.bss.iter().all(|&b| !dirty_bs[b as usize])
                && cached.is_some_and(|e| e.ues == comp.ues && e.bss == comp.bss);
            if clean {
                hits += 1;
                replayed_ues += comp.ues.len() as u64;
            } else {
                which.push(c);
                if cached.is_some() {
                    invalidations += 1;
                } else {
                    misses += 1;
                }
            }
        }

        let runs = self.solve_component_set(instance, decomp, which, ws, bs_local);
        let mut fresh = runs.into_iter();
        let merged = if track {
            // Store the fresh runs, sweep entries whose component no
            // longer exists (components are ordered by smallest UE id,
            // so the key lookup is a binary search), then merge every
            // component straight out of the cache.
            for &c in which.iter() {
                let run = fresh.next().expect("one run per dirty component")?;
                let comp = &decomp.components[c];
                cache.insert(
                    comp.ues[0],
                    CachedComponent {
                        ues: comp.ues.clone(),
                        bss: comp.bss.clone(),
                        run,
                    },
                );
            }
            cache.retain(|&k, _| {
                decomp
                    .components
                    .binary_search_by_key(&k, |c| c.ues[0])
                    .is_ok()
            });
            merge_component_runs(n_ues, decomp, |c| {
                Ok(cache
                    .get(&decomp.components[c].ues[0])
                    .expect("every current component has a cache entry")
                    .run
                    .clone())
            })?
        } else {
            // Untracked ⇒ not continuous ⇒ `which` lists every component.
            merge_component_runs(n_ues, decomp, |_| {
                fresh.next().expect("one run per component (all dirty)")
            })?
        };

        if obs_on {
            record_solve(&merged, n_ues, solve_started);
            record_delta_solve(hits, misses, invalidations, replayed_ues, solve_started);
        }

        Ok(merged.into_outcome())
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
    /// the outcome it returns — and under [`SolveMode::Delta`] it also
    /// carries the cross-epoch per-component result cache.
    fn session(&self) -> Box<dyn AllocatorSession + '_> {
        Box::new(DmraSession {
            dmra: *self,
            workspace: DmraWorkspace::default(),
            delta: DeltaState::default(),
        })
    }
}

/// Reusable scratch state of the dense [`Dmra::solve`] execution.
///
/// Every field is sized/overwritten at the start of a solve, so a
/// workspace can be reused freely across instances of different shapes;
/// it never influences the outcome. The winner table relies on the
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
    /// Cloud-forwarded flags per UE.
    cloud: Vec<bool>,
    /// The best proposal received this iteration, one entry per
    /// `(bs, service)` slot; `None` = no proposal yet.
    best: Vec<Option<DenseProposal>>,
    /// Slots that received a proposal in the current iteration.
    touched: Vec<usize>,
    /// Per-BS winner scratch for the admission step.
    winners: Vec<DenseProposal>,
}

/// The [`AllocatorSession`] of [`Dmra`]: config plus a live workspace,
/// plus the cross-epoch delta cache ([`SolveMode::Delta`] only; empty
/// and untouched under every other mode).
struct DmraSession {
    dmra: Dmra,
    workspace: DmraWorkspace,
    delta: DeltaState,
}

impl AllocatorSession for DmraSession {
    fn allocate(&mut self, instance: &ProblemInstance) -> Allocation {
        let out = if self.dmra.effective_solve_mode(instance) == SolveMode::Delta {
            self.dmra
                .solve_delta(instance, &mut self.delta, &mut self.workspace)
        } else {
            self.dmra
                .solve_with_workspace(instance, &mut self.workspace)
        };
        out.expect("DMRA terminates within its iteration bound")
            .allocation
    }
}

/// One entry of the delta cache: a component's member lists at the time
/// it was last solved, plus the [`MatchRun`] that solve produced (local
/// indices relative to those lists).
#[derive(Debug)]
struct CachedComponent {
    ues: Vec<u32>,
    bss: Vec<u32>,
    run: MatchRun,
}

/// Session state of the cross-epoch delta solver ([`SolveMode::Delta`],
/// DESIGN.md §17): the per-component result cache keyed by the
/// component's smallest UE id, the [`DeltaInfo`] lineage cursor that
/// guards continuity, and reusable classification scratch.
///
/// [`DeltaInfo`]: crate::instance::DeltaInfo
#[derive(Debug, Default)]
struct DeltaState {
    /// Whether `ctx_id`/`seq` describe the instance this state last
    /// solved. False until the first tracked solve and after any
    /// untracked one.
    valid: bool,
    /// The [`DeploymentContext`](crate::online::DeploymentContext) id of
    /// the last tracked instance.
    ctx_id: u64,
    /// Its build sequence number. The next instance's diff is usable only
    /// if its `seq` is exactly `seq + 1` — any gap (a skipped build, a
    /// failed build, a different context) fails the continuity check
    /// closed and everything resolves as dirty.
    seq: u64,
    /// Component results from the last tracked solve, keyed by the
    /// component's smallest UE id (stable across epochs as long as the
    /// membership is stable, which the entry re-checks on lookup).
    cache: HashMap<u32, CachedComponent>,
    /// Reused union-find decomposition scratch.
    decomposer: Decomposer,
    /// Per-UE / per-BS dirty masks scattered from the instance's
    /// [`DeltaInfo`](crate::instance::DeltaInfo) lists.
    dirty_ue: Vec<bool>,
    dirty_bs: Vec<bool>,
    /// Indices of the components that must actually be solved.
    which: Vec<usize>,
    /// Global→local BS index scratch for the serial component loop.
    bs_local: Vec<u32>,
}

/// Everything one dense [`match_loop`] run produces. Indices are *local*
/// to the run: the monolithic path runs over global indices (local ==
/// global), a component run over the component's ascending UE/BS lists
/// (remapped during the merge). `Clone` exists for the delta cache,
/// which replays stored component runs verbatim.
#[derive(Debug, Clone)]
struct MatchRun {
    /// Per-UE assignment (local BS ids); `None` = cloud or unreachable.
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

/// Loads the dense caches of a whole-instance run into `ws`: global UE/BS
/// indices are the run's local indices.
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

/// Loads the dense caches of one component's sub-instance into `ws`,
/// remapping BS indices through `bs_local` (global → local; entries are
/// written for every BS of this component before any read, so the map can
/// be reused across components without clearing).
///
/// Because `comp.ues` and `comp.bss` are ascending, local index order
/// preserves global order — every tie-break (`c.bs < best_bs`, the
/// `Reverse(ue)` preference term, the `touched` slot sort) resolves
/// exactly as it does in the monolithic run. All per-UE values (`f_u`,
/// demands, prices) are the instance-global ones; `f_u` equals the UE's
/// candidate-row length, which is entirely intra-component.
fn load_component(
    instance: &ProblemInstance,
    comp: &Component,
    ws: &mut DmraWorkspace,
    bs_local: &mut [u32],
) {
    let ues = instance.ues();
    ws.rem_cru.clear();
    ws.rem_rrb.clear();
    for (li, &gb) in comp.bss.iter().enumerate() {
        let bs = &instance.bss()[gb as usize];
        ws.rem_cru.extend(bs.cru_budget.iter().map(|c| c.get()));
        ws.rem_rrb.push(bs.rrb_budget.get());
        bs_local[gb as usize] = li as u32;
    }
    ws.cands.clear();
    ws.start.clear();
    ws.len.clear();
    ws.svc.clear();
    ws.cru_demand.clear();
    ws.f_u.clear();
    for &gu in &comp.ues {
        let row = instance.candidates(UeId::new(gu));
        ws.start.push(ws.cands.len());
        ws.len.push(row.len());
        ws.cands.extend(row.iter().map(|l| DenseCand {
            bs: bs_local[l.bs.as_usize()],
            n_rrbs: l.n_rrbs.get(),
            price: l.price.get(),
            same_sp: l.same_sp,
        }));
        let u = gu as usize;
        ws.svc.push(ues[u].service.as_usize());
        ws.cru_demand.push(ues[u].cru_demand.get());
        ws.f_u.push(instance.f_u(UeId::new(gu)));
    }
}

/// The dense deferred-acceptance loop of Algorithm 1, running over the
/// `n_ues × n_bss × n_svcs` sub-instance currently loaded in `ws` (see
/// [`load_monolithic`] / [`load_component`]).
fn match_loop(
    config: &DmraConfig,
    n_ues: usize,
    n_bss: usize,
    n_svcs: usize,
    ws: &mut DmraWorkspace,
) -> Result<MatchRun> {
    let rem_cru = &mut ws.rem_cru;
    let rem_rrb = &mut ws.rem_rrb;
    let cands = &mut ws.cands;
    let start = &ws.start;
    let len = &mut ws.len;
    let svc = &ws.svc;
    let cru_demand = &ws.cru_demand;
    let f_u = &ws.f_u;

    // `assigned` moves into the outcome's `Allocation`, so it is the
    // one per-solve allocation that cannot live in the workspace.
    let mut assigned: Vec<Option<BsId>> = vec![None; n_ues];
    ws.cloud.clear();
    ws.cloud.resize(n_ues, false);
    let cloud = &mut ws.cloud;
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
    let workspace_reused = ws.best.len() >= n_bss * n_svcs;
    if !workspace_reused {
        ws.best.resize(n_bss * n_svcs, None);
    }
    debug_assert!(ws.best.iter().all(Option::is_none));
    let best = &mut ws.best;
    ws.touched.clear();
    let touched = &mut ws.touched;
    ws.winners.clear();
    let winners = &mut ws.winners;
    let mut final_iterations = None;

    for iteration in 1..=config.max_iterations {
        // ---- UE side: lines 3–10 ----
        let mut any = false;
        for u in 0..n_ues {
            if assigned[u].is_some() || cloud[u] {
                continue;
            }
            let s = svc[u];
            loop {
                if len[u] == 0 {
                    // Line 1 / fallthrough of lines 4–10: no BS can
                    // serve this UE; forward to the remote cloud.
                    cloud[u] = true;
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
                    let denom = f64::from(rem_cru[b * n_svcs + s]) + f64::from(rem_rrb[b]);
                    let v = if denom <= 0.0 {
                        f64::INFINITY
                    } else {
                        c.price + config.rho / denom
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
                    // The proposal carries everything the BS side
                    // needs, so no per-winner candidate lookups later.
                    let proposal = DenseProposal {
                        ue: u as u32,
                        n_rrbs: c.n_rrbs,
                        cru_demand: cru_demand[u],
                        pref: (
                            config.same_sp_preference && c.same_sp,
                            Reverse(f_u[u]),
                            Reverse(c.n_rrbs + cru_demand[u]),
                            Reverse(u as u32),
                        ),
                    };
                    match &mut best[slot] {
                        Some(held) => {
                            if proposal.pref > held.pref {
                                *held = proposal;
                            }
                        }
                        empty @ None => {
                            *empty = Some(proposal);
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
            let mut total: u32 = winners.iter().map(|w| w.n_rrbs).sum();
            if total > rem_rrb[bs] {
                // Ascending preference = worst first.
                winners.sort_by_key(|w| Reverse(w.pref));
                while total > rem_rrb[bs] {
                    let dropped = winners.pop().expect("winners cannot empty before fitting");
                    total -= dropped.n_rrbs;
                    evictions += 1;
                }
            }
            for w in winners.drain(..) {
                let u = w.ue as usize;
                rem_cru[bs * n_svcs + svc[u]] -= w.cru_demand;
                rem_rrb[bs] -= w.n_rrbs;
                assigned[u] = Some(BsId::new(bs as u32));
                accepted_this_iteration += 1;
            }
        }
        touched.clear();
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

/// Deterministic merge of per-component [`MatchRun`]s back to global UE
/// order: `run_of(c)` yields component `c`'s run (freshly solved or
/// replayed from the delta cache — the merge cannot tell the difference,
/// which is the point). Components are ordered by smallest UE id and each
/// UE belongs to exactly one component, so the merge rules reconstruct
/// exactly the monolithic trajectories: `iterations = max`, per-iteration
/// counters are element-wise sums with quiesced components contributing
/// zero, and cloud-only UEs (in no component) seed `cloud_total`.
fn merge_component_runs<F>(n_ues: usize, decomp: &Decomposition, mut run_of: F) -> Result<MatchRun>
where
    F: FnMut(usize) -> Result<MatchRun>,
{
    let mut merged = MatchRun {
        assigned: vec![None; n_ues],
        iterations: 1,
        proposals: 0,
        acceptances: Vec::new(),
        unmatched: Vec::new(),
        prunes: 0,
        evictions: 0,
        assigned_total: 0,
        cloud_total: decomp.cloud_only.len(),
        workspace_reused: false,
    };
    for (c, comp) in decomp.components.iter().enumerate() {
        let run = run_of(c)?;
        // A component that quiesced at `T_c` contributes zero to every
        // later global iteration: all its UEs are assigned or
        // cloud-forwarded by then, exactly as in the monolithic run.
        merged.iterations = merged.iterations.max(run.iterations);
        merged.proposals += run.proposals;
        merged.prunes += run.prunes;
        merged.evictions += run.evictions;
        merged.assigned_total += run.assigned_total;
        merged.cloud_total += run.cloud_total;
        if merged.acceptances.len() < run.acceptances.len() {
            merged.acceptances.resize(run.acceptances.len(), 0);
            merged.unmatched.resize(run.unmatched.len(), 0);
        }
        for (t, &a) in run.acceptances.iter().enumerate() {
            merged.acceptances[t] += a;
        }
        for (t, &m) in run.unmatched.iter().enumerate() {
            merged.unmatched[t] += m;
        }
        for (lu, &gu) in comp.ues.iter().enumerate() {
            if let Some(lb) = run.assigned[lu] {
                merged.assigned[gu as usize] = Some(BsId::new(comp.bss[lb.as_usize()]));
            }
        }
    }
    Ok(merged)
}

/// Records which execution path [`Dmra::solve_component_set`] chose
/// (`core.solve_serial` below the min-fanout threshold,
/// `core.solve_fanout` above it) — the witness for the threshold
/// satellite's telemetry requirement.
fn record_solve_path(serial: bool) {
    if !dmra_obs::enabled() {
        return;
    }
    static FANOUT: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("core.solve_fanout");
    static SERIAL: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("core.solve_serial");
    if serial {
        SERIAL.get().inc();
    } else {
        FANOUT.get().inc();
    }
}

/// Records the `core.delta_*` telemetry of one [`SolveMode::Delta`]
/// solve: component-level hit/miss/invalidation counts (hit = replayed
/// verbatim; invalidation = a cached entry existed but was dirty or its
/// membership changed; miss = no cached entry), total replayed UEs, and
/// the wall-clock histogram `core.delta_solve_ns`.
fn record_delta_solve(
    hits: u64,
    misses: u64,
    invalidations: u64,
    replayed_ues: u64,
    solve_started: Option<std::time::Instant>,
) {
    static SOLVES: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("core.delta_solves");
    static HITS: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("core.delta_component_hits");
    static MISSES: dmra_obs::LazyCounter =
        dmra_obs::LazyCounter::new("core.delta_component_misses");
    static INVALIDATIONS: dmra_obs::LazyCounter =
        dmra_obs::LazyCounter::new("core.delta_invalidations");
    static REPLAYED_UES: dmra_obs::LazyCounter =
        dmra_obs::LazyCounter::new("core.delta_replayed_ues");
    static SOLVE_NS: dmra_obs::LazyHistogram = dmra_obs::LazyHistogram::new("core.delta_solve_ns");
    SOLVES.get().inc();
    HITS.get().add(hits);
    MISSES.get().add(misses);
    INVALIDATIONS.get().add(invalidations);
    REPLAYED_UES.get().add(replayed_ues);
    let solve_ns = solve_started.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    });
    SOLVE_NS.get().record(solve_ns);
    dmra_obs::global_trace().record(dmra_obs::TraceEvent {
        name: "core.delta_solve",
        index: SOLVES.get().get(),
        fields: vec![
            ("hits", hits as f64),
            ("misses", misses as f64),
            ("invalidations", invalidations as f64),
            ("replayed_ues", replayed_ues as f64),
            ("wall_ns", solve_ns as f64),
        ],
    });
}

/// Records the standard `dmra.*` telemetry of one finished solve — the
/// merged totals of a decomposed run are recorded exactly once, with the
/// same counters the monolithic path uses.
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

/// Records the `core.components` decomposition telemetry: how many
/// components the instance split into, the largest component's UE count
/// (a high-water gauge) and the full size distribution. Shows up in
/// `--trace-out` snapshots and the `figures -- bench` breakdown.
fn record_decomposition(decomp: &Decomposition) {
    if !dmra_obs::enabled() {
        return;
    }
    static COMPONENTS: dmra_obs::LazyCounter = dmra_obs::LazyCounter::new("core.components");
    static MAX_UES: dmra_obs::LazyGauge = dmra_obs::LazyGauge::new("core.component_max_ues");
    static COMPONENT_UES: dmra_obs::LazyHistogram =
        dmra_obs::LazyHistogram::new("core.component_ues");
    COMPONENTS.get().add(decomp.components.len() as u64);
    MAX_UES.get().set_max(decomp.max_component_ues() as u64);
    for comp in &decomp.components {
        COMPONENT_UES.get().record(comp.ues.len() as u64);
    }
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
/// larger is better, and the embedded UE id makes it unique.
type DensePref = (bool, Reverse<u32>, Reverse<u32>, Reverse<u32>);

/// A proposal in the dense solver, carrying everything the BS side needs.
#[derive(Debug, Clone, Copy)]
struct DenseProposal {
    /// Raw UE index of the proposer.
    ue: u32,
    /// RRB demand at the proposed BS.
    n_rrbs: u32,
    /// CRU demand of the proposer's service request.
    cru_demand: u32,
    /// Precomputed BS preference for this proposer.
    pref: DensePref,
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
        ];
        for (i, (inst, cfg)) in scenarios.iter().enumerate() {
            let dmra = Dmra::new(*cfg);
            let fast = dmra.solve(inst).unwrap();
            let reference = dmra.solve_reference(inst).unwrap();
            assert_eq!(fast, reference, "scenario #{i} diverged");
        }
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
        // ones after it run on a prefix of the grown table.
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
            let dmra = Dmra::default();
            let reused = dmra.solve_with_workspace(inst, &mut ws).unwrap();
            let fresh = dmra.solve(inst).unwrap();
            assert_eq!(reused, fresh, "instance #{i} diverged under reuse");
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

    /// Two BS "islands" far beyond coverage range of each other, each with
    /// its own cluster of UEs — decomposes into two components. A third UE
    /// cluster member sits out of everyone's coverage (cloud-only).
    fn island_instance() -> ProblemInstance {
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
        let d = crate::components::decompose(&inst);
        assert_eq!(d.components.len(), 2, "decomposition: {d:?}");
        assert_eq!(d.cloud_only, vec![3]);
        assert_eq!(d.components[0].ues, vec![0, 2]);
        assert_eq!(d.components[0].bss, vec![0]);
        assert_eq!(d.components[1].ues, vec![1, 4]);
        assert_eq!(d.components[1].bss, vec![1]);
    }

    #[test]
    fn component_solve_is_bit_identical_to_monolithic() {
        // The full DmraOutcome — allocation, iteration count, proposal
        // totals, convergence trajectories — must match between the two
        // executions, on instances that do and do not split, across the
        // config knobs, for every thread count.
        let scenarios: Vec<(ProblemInstance, DmraConfig)> = vec![
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
            (two_sp_instance(), DmraConfig::paper_defaults()),
            (contested_instance(1), DmraConfig::paper_defaults()),
            (contested_instance(0), DmraConfig::paper_defaults()),
            (
                contested_instance(55),
                DmraConfig::paper_defaults().with_rho(1000.0),
            ),
        ];
        for (i, (inst, cfg)) in scenarios.iter().enumerate() {
            let mono = Dmra::new(*cfg)
                .with_solve_mode(SolveMode::Monolithic)
                .solve(inst)
                .unwrap();
            for threads in [1, 2, 3, 8] {
                let comp = Dmra::new(*cfg)
                    .with_solve_mode(SolveMode::Components)
                    .with_solve_threads(Threads::Fixed(threads))
                    .solve(inst)
                    .unwrap();
                assert_eq!(comp, mono, "scenario #{i} diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn component_session_matches_monolithic_session() {
        let mono = Dmra::default().with_solve_mode(SolveMode::Monolithic);
        let comp = Dmra::default().with_solve_mode(SolveMode::Components);
        let mut mono_session = mono.session();
        let mut comp_session = comp.session();
        for inst in [
            island_instance(),
            two_sp_instance(),
            island_instance(),
            contested_instance(1),
        ] {
            assert_eq!(comp_session.allocate(&inst), mono_session.allocate(&inst));
        }
    }

    #[test]
    fn load_proportional_interference_pins_the_monolithic_path() {
        // The global coupling through aggregate received power makes
        // splitting unsound; the effective mode must demote itself, and
        // the solve must still equal the monolithic one trivially.
        let inst = {
            let sps = vec![
                SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0)),
                SpSpec::new(SpId::new(1), Money::new(10.0), Money::new(1.0)),
            ];
            let catalog = ServiceCatalog::new(1);
            let mk_bs = |id: u32, sp: u32, x: f64| {
                BsSpec::new(
                    dmra_types::BsId::new(id),
                    SpId::new(sp),
                    Point::new(x, 0.0),
                    vec![Cru::new(100)],
                    Hertz::from_mhz(10.0),
                    dmra_types::RrbCount::new(55),
                )
            };
            let mk_ue = |id: u32, sp: u32, x: f64| {
                UeSpec::new(
                    dmra_types::UeId::new(id),
                    SpId::new(sp),
                    Point::new(x, 0.0),
                    ServiceId::new(0),
                    Cru::new(4),
                    BitsPerSec::from_mbps(3.0),
                    Dbm::new(10.0),
                )
            };
            let radio = dmra_radio::RadioConfig {
                interference: dmra_radio::InterferenceModel::LoadProportional { factor: 0.1 },
                ..RadioConfig::paper_defaults()
            };
            ProblemInstance::build(
                sps,
                vec![mk_bs(0, 0, 0.0), mk_bs(1, 1, 100_000.0)],
                vec![mk_ue(0, 0, 100.0), mk_ue(1, 1, 100_100.0)],
                catalog,
                PricingConfig::paper_defaults(),
                radio,
                CoverageModel::default(),
            )
            .unwrap()
        };
        let dmra = Dmra::default().with_solve_mode(SolveMode::Components);
        assert_eq!(dmra.effective_solve_mode(&inst), SolveMode::Monolithic);
        assert!(!crate::components::splittable(&inst));
        let comp = dmra.solve(&inst).unwrap();
        let mono = Dmra::default()
            .with_solve_mode(SolveMode::Monolithic)
            .solve(&inst)
            .unwrap();
        assert_eq!(comp, mono);
    }

    #[test]
    fn all_cloud_instance_merges_to_one_silent_iteration() {
        // Zero-RRB budget: every candidate prunes away in iteration 1 and
        // everyone cloud-forwards; both paths must agree on the degenerate
        // trajectory (iterations = 1, empty timelines).
        let inst = contested_instance(0);
        let comp = Dmra::default()
            .with_solve_mode(SolveMode::Components)
            .solve(&inst)
            .unwrap();
        assert_eq!(comp.iterations, 1);
        assert!(comp.acceptances.is_empty());
    }

    /// The full deployment budgets of an instance, as residual-shaped
    /// vectors.
    fn full_budgets(inst: &ProblemInstance) -> (Vec<Vec<Cru>>, Vec<dmra_types::RrbCount>) {
        (
            inst.bss().iter().map(|b| b.cru_budget.clone()).collect(),
            inst.bss().iter().map(|b| b.rrb_budget).collect(),
        )
    }

    fn island_batch() -> Vec<UeSpec> {
        island_instance().ues().to_vec()
    }

    #[test]
    fn delta_session_without_metadata_matches_monolithic_session() {
        // Instances built from scratch carry no DeltaInfo, so the delta
        // session must degrade to the components execution — bit-identical
        // to the monolithic session on every call, cache kept empty.
        let delta = Dmra::default().with_solve_mode(SolveMode::Delta);
        let mono = Dmra::default().with_solve_mode(SolveMode::Monolithic);
        let mut delta_session = DmraSession {
            dmra: delta,
            workspace: DmraWorkspace::default(),
            delta: DeltaState::default(),
        };
        let mut mono_session = mono.session();
        for inst in [
            island_instance(),
            two_sp_instance(),
            island_instance(),
            contested_instance(1),
        ] {
            assert_eq!(delta_session.allocate(&inst), mono_session.allocate(&inst));
            assert!(
                delta_session.delta.cache.is_empty(),
                "untracked instances must not populate the delta cache"
            );
            assert!(!delta_session.delta.valid);
        }
    }

    #[test]
    fn delta_session_matches_monolithic_across_context_epochs() {
        // Epochs built through a row-cached DeploymentContext carry
        // DeltaInfo; the delta session must stay bit-identical to a
        // monolithic solve of every epoch instance, across unchanged
        // epochs (pure replay), a moved UE (partial re-solve), and a
        // same-id re-arrival with a different demand (the adversarial
        // case: the row key misses, the UE lands in the dirty set and its
        // component must re-solve).
        let deployment = island_instance();
        let (rem_cru, rem_rrb) = full_budgets(&deployment);
        let mut ctx = crate::online::DeploymentContext::new(&deployment).with_row_cache();
        let mut session = DmraSession {
            dmra: Dmra::default().with_solve_mode(SolveMode::Delta),
            workspace: DmraWorkspace::default(),
            delta: DeltaState::default(),
        };
        let mono = Dmra::default().with_solve_mode(SolveMode::Monolithic);

        let mut moved = island_batch();
        moved[2].position = Point::new(140.0, 0.0); // still island 0
        let mut redemanded = island_batch();
        redemanded[2].cru_demand = Cru::new(5); // same id, new demand
        let epochs = [
            island_batch(),
            island_batch(), // identical: both components replay
            moved,
            redemanded,
            island_batch(),
        ];
        for (e, batch) in epochs.into_iter().enumerate() {
            let inst = ctx
                .epoch_instance(&rem_cru, &rem_rrb, batch)
                .unwrap_or_else(|err| panic!("epoch {e}: {err}"));
            let d = inst.delta().expect("row-cached builds carry DeltaInfo");
            match e {
                1 => assert!(
                    d.dirty_ues.is_empty() && d.dirty_bss.is_empty(),
                    "identical epoch {e} must be fully clean, got {d:?}"
                ),
                // Epoch 4 reverts to the original batch, but slot 2's
                // cached row still carries epoch 3's key, so it misses
                // and stays dirty — exactly the fail-closed behaviour.
                2..=4 => assert!(
                    d.dirty_ues.contains(&2),
                    "epoch {e} must dirty the changed UE, got {d:?}"
                ),
                _ => {}
            }
            let fast = session.allocate(inst);
            assert_eq!(fast, mono.allocate(inst), "epoch {e} diverged");
            assert!(session.delta.valid);
            assert_eq!(session.delta.cache.len(), 2, "epoch {e}");
        }
    }

    #[test]
    fn delta_clean_components_replay_verbatim_from_the_cache() {
        // White-box proof that clean components replay rather than
        // re-solve: tamper the cached run of component 0 between two
        // identical epochs and observe the tampered assignment flow
        // through to the output verbatim.
        let deployment = island_instance();
        let (rem_cru, rem_rrb) = full_budgets(&deployment);
        let mut ctx = crate::online::DeploymentContext::new(&deployment).with_row_cache();
        let mut session = DmraSession {
            dmra: Dmra::default().with_solve_mode(SolveMode::Delta),
            workspace: DmraWorkspace::default(),
            delta: DeltaState::default(),
        };

        let inst = ctx
            .epoch_instance(&rem_cru, &rem_rrb, island_batch())
            .unwrap();
        let honest = session.allocate(inst);
        assert_eq!(honest.bs_of(dmra_types::UeId::new(0)), Some(BsId::new(0)));

        // Component 0 is keyed by its smallest UE id (0); drop its local
        // UE 0 assignment in the cached run.
        session
            .delta
            .cache
            .get_mut(&0)
            .expect("component 0 is cached")
            .run
            .assigned[0] = None;

        let inst = ctx
            .epoch_instance(&rem_cru, &rem_rrb, island_batch())
            .unwrap();
        let replayed = session.allocate(inst);
        assert_eq!(
            replayed.bs_of(dmra_types::UeId::new(0)),
            None,
            "a clean component must replay its cached run verbatim"
        );
        // The other island's replay is untouched.
        assert_eq!(
            replayed.bs_of(dmra_types::UeId::new(1)),
            honest.bs_of(dmra_types::UeId::new(1))
        );
    }

    #[test]
    fn delta_continuity_gap_fails_closed() {
        // Skipping an epoch (the session never sees build N) leaves a
        // sequence gap; the next allocate must treat everything as dirty
        // and still produce the monolithic answer — even with a poisoned
        // cache entry, which a (wrong) replay would leak.
        let deployment = island_instance();
        let (rem_cru, rem_rrb) = full_budgets(&deployment);
        let mut ctx = crate::online::DeploymentContext::new(&deployment).with_row_cache();
        let mut session = DmraSession {
            dmra: Dmra::default().with_solve_mode(SolveMode::Delta),
            workspace: DmraWorkspace::default(),
            delta: DeltaState::default(),
        };
        let inst = ctx
            .epoch_instance(&rem_cru, &rem_rrb, island_batch())
            .unwrap();
        let honest = session.allocate(inst);
        session
            .delta
            .cache
            .get_mut(&0)
            .expect("component 0 is cached")
            .run
            .assigned[0] = None;
        // Build an epoch the session never solves: the lineage advances
        // past it.
        let _ = ctx
            .epoch_instance(&rem_cru, &rem_rrb, island_batch())
            .unwrap();
        let inst = ctx
            .epoch_instance(&rem_cru, &rem_rrb, island_batch())
            .unwrap();
        assert_eq!(
            session.allocate(inst),
            honest,
            "a lineage gap must force a full re-solve"
        );
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
