//! Epoch-persistent state for the online (arrival/departure) regime.
//!
//! The dynamic simulator solves one matching per epoch against the
//! *remaining* BS capacities. Rebuilding a full [`ProblemInstance`] from
//! scratch every epoch re-validates the whole deployment, re-clones every
//! SP/BS spec and re-derives per-BS geometry that never changes — the
//! deployment is fixed, only the budgets and the arrival batch move. A
//! [`DeploymentContext`] hoists everything epoch-invariant out of the
//! loop:
//!
//! * the validated deployment (SPs, BSs, catalog, pricing, radio,
//!   coverage) is checked **once**, at construction;
//! * the [`LinkEvaluator`] and the spatial prune index over the BS sites
//!   are built once and reused for every arrival batch;
//! * the pricing-margin constraint (16) is monotone in the candidate
//!   distance, so it is re-checked only when an epoch produces a farther
//!   candidate than any epoch before it (a high-water mark);
//! * the epoch instance itself is a single reused allocation — budgets
//!   are patched in place and the flattened candidate rows are rebuilt
//!   into the same buffers. One pass over the BSs checks the budgets'
//!   arity, compares them with the ones the instance holds (the previous
//!   epoch's) and patches only the BSs that differ; with the row cache
//!   on, the same pass stamps those BSs.
//!
//! The result is pinned **bit-identical** to the rebuild-from-scratch
//! path ([`ProblemInstance::residual`]) by the `incremental` integration
//! tests: identical candidate rows, identical allocations, identical
//! simulated outcomes for every allocator, seed and thread count.
//!
//! Two hot-path accelerators sit on top (both bit-identical, both pinned
//! by the same test pattern):
//!
//! * pruned candidate rows run through the structure-of-arrays
//!   [`LinkEvaluator::evaluate_batch`] kernel. The rebuild is one serial
//!   loop at every batch size: on the benchmark workloads a per-epoch
//!   thread fan-out cost more than it saved (DESIGN.md §12);
//! * an opt-in cross-epoch [`row cache`](DeploymentContext::with_row_cache)
//!   reuses the candidate row of any UE whose key (position bits, SP,
//!   service, demands, transmit power) is unchanged since the previous
//!   epoch *and* none of the BSs the row's build **consulted** saw a
//!   remaining-budget change since — budgets are stamped per BS, so
//!   churn in one cell invalidates only the rows whose coverage disc
//!   touches that cell, not the whole deployment. The consulted set (the
//!   prune query's hits, budget-independent) is the correct dependency
//!   footprint: a freed budget could re-admit a candidate the build-time
//!   scan dropped, but only at a BS the scan actually looked at. The
//!   cache stays off under load-proportional interference, where every
//!   row depends on the whole batch. It holds one slot per batch
//!   position and is meant for fixed populations (the mobility regime),
//!   so it is sized by the largest batch seen and never evicts.

use crate::instance::{
    coverage_prune_index, scan_candidate_row, scan_candidate_row_batch, validate_ues,
    CandidateLink, CandidateScan, CoverageModel, ProblemInstance,
};
use dmra_geo::GridIndex;
use dmra_radio::{InterferenceModel, LinkBatch, LinkEvaluator};
use dmra_types::{Cru, Error, Meters, Result, RrbCount, ServiceId, SpId, UeSpec};

/// Epoch-persistent deployment state for the online regime.
///
/// Build one from the validated deployment instance (typically the
/// zero-UE instance the simulator starts from), then call
/// [`DeploymentContext::epoch_instance`] once per epoch with the
/// remaining budgets and the arrival batch.
#[derive(Debug, Clone)]
pub struct DeploymentContext {
    /// The reused epoch instance; UEs/links/budgets are overwritten per
    /// epoch, everything else stays the validated deployment.
    instance: ProblemInstance,
    /// Radio evaluator, derived once from the deployment's radio config.
    evaluator: LinkEvaluator,
    /// Load-proportional interference factor (zero under noise-only).
    interference_factor: f64,
    /// Per-BS aggregate received power for the current epoch's batch
    /// (left untouched when the factor is zero).
    total_rx_mw: Vec<f64>,
    /// Spatial prune index over the BS sites, when the coverage model
    /// admits one (fixed radius, positive and finite).
    prune: Option<(GridIndex, Meters)>,
    /// Largest candidate distance the pricing margin has been validated
    /// at so far. Constraint (16)'s worst-case price grows with distance,
    /// so any epoch whose rows stay under this mark is already covered.
    validated_distance: Meters,
    /// Reused buffer for grid-index radius queries; each hit carries its
    /// exact distance so the scan kernel never recomputes it.
    query_buf: Vec<(usize, Meters)>,
    /// Structure-of-arrays scratch for the batched link kernel.
    batch: LinkBatch,
    /// Cross-epoch candidate-row cache (opt-in, see
    /// [`DeploymentContext::with_row_cache`]).
    row_cache: Option<RowCache>,
}

/// Everything a candidate row depends on besides the fixed deployment and
/// the remaining budgets: the UE's own spec (position as raw bits — a
/// cache hit must mean *bit-identical* inputs, so no epsilon). Budget
/// freshness is tracked separately, per consulted BS, by the cache's
/// stamp vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowKey {
    x_bits: u64,
    y_bits: u64,
    sp: SpId,
    service: ServiceId,
    cru_demand: Cru,
    rate_bits: u64,
    tx_bits: u64,
}

impl RowKey {
    fn of(ue: &UeSpec) -> Self {
        Self {
            x_bits: ue.position.x.to_bits(),
            y_bits: ue.position.y.to_bits(),
            sp: ue.sp,
            service: ue.service,
            cru_demand: ue.cru_demand,
            rate_bits: ue.rate_demand.get().to_bits(),
            tx_bits: ue.tx_power.get().to_bits(),
        }
    }
}

/// One cached candidate row.
#[derive(Debug, Clone)]
struct CachedRow {
    key: RowKey,
    links: Vec<CandidateLink>,
    row_max: Meters,
    /// The budget epoch the row was built under.
    built: u64,
    /// The BS indices the build **consulted** (the prune query's hits),
    /// or `None` for a row built by the exhaustive scan, which consulted
    /// every BS. Consulted, not kept: a freed budget could re-admit a
    /// candidate the build-time scan dropped, so the row depends on the
    /// budgets of every BS the scan looked at — a set that depends only
    /// on the UE's position and the fixed geometry, never on budgets.
    deps: Option<Vec<u32>>,
}

/// Cross-epoch candidate-row cache. Slot `u` caches the row of the UE at
/// batch position `u` (UE ids are dense per epoch); the key carries the
/// UE-spec inputs, and a **per-BS stamp vector** tracks budget churn: a
/// row is fresh while none of its consulted BSs' budgets changed after it
/// was built, so churn in one cell leaves rows in distant cells valid.
#[derive(Debug, Clone, Default)]
struct RowCache {
    slots: Vec<Option<CachedRow>>,
    /// Monotone budget epoch, bumped once per budget pass.
    epoch: u64,
    /// `bs_stamps[b]` = the epoch at which BS `b`'s remaining budgets
    /// last changed.
    bs_stamps: Vec<u64>,
    /// `max(bs_stamps)` — the freshness bar for exhaustive-scan rows.
    max_stamp: u64,
    /// Lifetime hit/miss totals (see
    /// [`DeploymentContext::row_cache_stats`]).
    hits: u64,
    misses: u64,
}

impl RowCache {
    /// Opens the budget epoch of one [`patch_budgets`] pass over `n_bss`
    /// BSs. On the cache's first epoch (or a budget-arity change) every
    /// BS is stamped, and this returns `true`.
    fn open_epoch(&mut self, n_bss: usize) -> bool {
        self.epoch += 1;
        if self.bs_stamps.len() == n_bss {
            return false;
        }
        self.bs_stamps.clear();
        self.bs_stamps.resize(n_bss, self.epoch);
        self.max_stamp = self.epoch;
        true
    }

    /// Records that BS `b`'s budgets changed in the open epoch.
    fn stamp(&mut self, b: usize) {
        self.bs_stamps[b] = self.epoch;
        self.max_stamp = self.epoch;
    }

    /// Whether none of the BSs the row's build consulted saw a budget
    /// change after the row was built.
    fn row_fresh(&self, row: &CachedRow) -> bool {
        match &row.deps {
            Some(deps) => deps
                .iter()
                .all(|&b| self.bs_stamps[b as usize] <= row.built),
            None => self.max_stamp <= row.built,
        }
    }

    /// The cached row for batch slot `u`, if its key matches and its
    /// consulted BSs' budgets are unchanged since it was built.
    fn lookup(&self, u: usize, key: &RowKey) -> Option<&CachedRow> {
        match self.slots.get(u) {
            Some(Some(row)) if row.key == *key && self.row_fresh(row) => Some(row),
            _ => None,
        }
    }

    /// Stores (or overwrites) slot `u`, reusing its allocation. `deps` is
    /// the consulted BS set (`None` = exhaustive scan).
    fn store(
        &mut self,
        u: usize,
        key: RowKey,
        links: &[CandidateLink],
        row_max: Meters,
        deps: Option<Vec<u32>>,
    ) {
        let built = self.epoch;
        if self.slots.len() <= u {
            self.slots.resize_with(u + 1, || None);
        }
        match &mut self.slots[u] {
            Some(row) => {
                row.key = key;
                row.links.clear();
                row.links.extend_from_slice(links);
                row.row_max = row_max;
                row.built = built;
                row.deps = deps;
            }
            slot @ None => {
                *slot = Some(CachedRow {
                    key,
                    links: links.to_vec(),
                    row_max,
                    built,
                    deps,
                });
            }
        }
    }
}

impl DeploymentContext {
    /// Creates a context from a validated deployment instance. The
    /// deployment's UEs (if any) are irrelevant — each epoch brings its
    /// own batch — so only the SPs/BSs/config are retained.
    #[must_use]
    pub fn new(deployment: &ProblemInstance) -> Self {
        let evaluator = LinkEvaluator::new(*deployment.radio());
        let interference_factor = match deployment.radio().interference {
            InterferenceModel::NoiseOnly => 0.0,
            InterferenceModel::LoadProportional { factor } => factor,
        };
        let prune =
            coverage_prune_index(deployment.bss(), deployment.coverage(), CandidateScan::Auto);
        let mut instance = deployment.clone();
        instance.ues.clear();
        instance.links.clear();
        instance.row_start.clear();
        instance.row_start.push(0);
        instance.f_u.clear();
        let n_bss = instance.bss.len();
        Self {
            instance,
            evaluator,
            interference_factor,
            total_rx_mw: vec![0.0; n_bss],
            prune,
            validated_distance: Meters::new(0.0),
            query_buf: Vec::new(),
            batch: LinkBatch::new(),
            row_cache: None,
        }
    }

    /// Enables the cross-epoch candidate-row cache: a UE whose key
    /// (position bits, SP, service, demands, transmit power) is unchanged
    /// since the previous epoch reuses its cached row verbatim, provided
    /// none of the BSs its build **consulted** (the prune query's hits —
    /// a freed budget could re-admit a candidate the build-time scan
    /// dropped, but only at a BS the scan looked at) saw a remaining-
    /// budget change in between. Budgets are stamped per BS, so churn in
    /// one cell leaves rows in distant cells valid. Intended for fixed
    /// populations (the mobility regime): the cache keeps one slot per
    /// batch position, so its size is the largest batch seen. Under
    /// load-proportional interference the cache is bypassed, because
    /// every row depends on the whole batch. Outputs stay bit-identical
    /// to an uncached rebuild — `tests/mobility_incremental.rs` pins this.
    #[must_use]
    pub fn with_row_cache(mut self) -> Self {
        self.row_cache = Some(RowCache::default());
        self
    }

    /// Lifetime row-cache totals as `(hits, misses)`, or `None` when the
    /// cache is disabled. Counted unconditionally (telemetry on or off),
    /// so tests and benches can assert hit rates deterministically.
    #[must_use]
    pub fn row_cache_stats(&self) -> Option<(u64, u64)> {
        self.row_cache.as_ref().map(|c| (c.hits, c.misses))
    }

    /// Builds this epoch's instance in place: same deployment, the given
    /// remaining budgets, and the new arrival batch.
    ///
    /// Bit-identical to `deployment.residual(rem_cru, rem_rrb, ues)` —
    /// same candidate rows, same accepted/rejected inputs, same errors —
    /// without cloning the deployment or re-validating what cannot have
    /// changed. After an error the context remains usable: the next
    /// successful call overwrites all epoch state.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`ProblemInstance::residual`] would return:
    /// budget-arity mismatches, invalid UE batches, and pricing-margin
    /// violations at a new worst-case candidate distance.
    pub fn epoch_instance(
        &mut self,
        rem_cru: &[Vec<Cru>],
        rem_rrb: &[RrbCount],
        ues: Vec<UeSpec>,
    ) -> Result<&ProblemInstance> {
        // Observe-only telemetry: one flag read up front, all recording
        // after the rebuild. Nothing here touches candidate generation.
        let obs_on = dmra_obs::enabled();
        let build_started = obs_on.then(std::time::Instant::now);
        let mut precull_kept = 0u64;
        let mut precull_rejected = 0u64;

        let inst = &mut self.instance;
        let n_bss = inst.bss.len();
        // Patch the budgets and do the row-cache epoch bookkeeping before
        // any row is built: every BS whose remaining budgets differ from
        // the previous epoch's gets a fresh stamp, so exactly the slots
        // whose builds consulted a changed BS miss. Load-proportional
        // interference couples each row to the whole batch, so the cache
        // is bypassed entirely there.
        let cache_active = self.row_cache.is_some() && self.interference_factor == 0.0;
        let invalidated_bss = patch_budgets(
            inst,
            rem_cru,
            rem_rrb,
            self.row_cache.as_mut().filter(|_| cache_active),
        )?;
        validate_ues(&ues, inst.sps.len(), inst.catalog)?;
        inst.ues = ues;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;

        // Per-BS interference aggregates depend on the epoch's batch; the
        // serial per-BS sum visits UEs in id order, exactly like the
        // static build's fan-out.
        if self.interference_factor > 0.0 {
            for (b, total) in self.total_rx_mw.iter_mut().enumerate() {
                let bs_pos = inst.bss[b].position;
                *total = inst
                    .ues
                    .iter()
                    .map(|ue| self.evaluator.rx_power_mw(ue.tx_power, ue.position, bs_pos))
                    .sum();
            }
        }

        // Rebuild the flattened candidate rows into the reused buffers.
        inst.links.clear();
        inst.row_start.clear();
        inst.row_start.push(0);
        inst.f_u.clear();
        let kernel_started = obs_on.then(std::time::Instant::now);
        let mut max_candidate_distance = Meters::new(0.0);
        let n_ues = inst.ues.len();
        for u in 0..n_ues {
            let row_from = inst.links.len();
            let key = if cache_active {
                Some(RowKey::of(&inst.ues[u]))
            } else {
                None
            };
            let mut row_max = Meters::new(0.0);
            let mut hit = false;
            if let Some(key) = &key {
                if let Some(row) = self
                    .row_cache
                    .as_ref()
                    .expect("cache_active")
                    .lookup(u, key)
                {
                    inst.links.extend_from_slice(&row.links);
                    row_max = row.row_max;
                    hit = true;
                }
            }
            if hit {
                cache_hits += 1;
            } else {
                row_max = match &self.prune {
                    Some((index, radius)) => {
                        index.query_within_dist_into(
                            inst.ues[u].position,
                            *radius,
                            &mut self.query_buf,
                        );
                        if obs_on {
                            precull_kept += self.query_buf.len() as u64;
                            precull_rejected += (n_bss - self.query_buf.len()) as u64;
                        }
                        scan_candidate_row_batch(
                            &inst.ues[u],
                            &inst.bss,
                            &self.query_buf,
                            &self.evaluator,
                            self.interference_factor,
                            &self.total_rx_mw,
                            inst.coverage,
                            &inst.pricing,
                            &mut self.batch,
                            &mut inst.links,
                        )
                    }
                    None => scan_candidate_row(
                        &inst.ues[u],
                        &inst.bss,
                        (0..n_bss).map(|b| (b, None)),
                        &self.evaluator,
                        self.interference_factor,
                        &self.total_rx_mw,
                        inst.coverage,
                        &inst.pricing,
                        &mut inst.links,
                    ),
                };
                if let Some(key) = key {
                    cache_misses += 1;
                    // The consulted set is this row's prune-query
                    // hits, still sitting in the query buffer.
                    let deps = self
                        .prune
                        .is_some()
                        .then(|| self.query_buf.iter().map(|&(b, _)| b as u32).collect());
                    let links = &inst.links[row_from..];
                    self.row_cache
                        .as_mut()
                        .expect("cache_active")
                        .store(u, key, links, row_max, deps);
                }
            }
            if row_max > max_candidate_distance {
                max_candidate_distance = row_max;
            }
            inst.f_u.push((inst.links.len() - row_from) as u32);
            inst.row_start.push(inst.links.len());
        }
        let kernel_ns = kernel_started.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        if cache_active {
            let cache = self.row_cache.as_mut().expect("cache_active");
            cache.hits += cache_hits;
            cache.misses += cache_misses;
        }

        // Constraint (16): the worst-case price is monotone in distance,
        // so only a new high-water distance needs re-validation — and it
        // fails with exactly the error a from-scratch build would raise.
        let margin_recheck = max_candidate_distance > self.validated_distance;
        if margin_recheck {
            inst.pricing
                .validate_margin(&inst.sps, max_candidate_distance)?;
            self.validated_distance = max_candidate_distance;
        }

        if obs_on {
            // Handles are resolved once and cached; steady-state recording
            // is one atomic op per metric (see BENCH_obs_overhead.json).
            static EPOCH_BUILDS: dmra_obs::LazyCounter =
                dmra_obs::LazyCounter::new("online.epoch_builds");
            static ROWS_REBUILT: dmra_obs::LazyCounter =
                dmra_obs::LazyCounter::new("online.rows_rebuilt");
            static PRECULL_KEPT: dmra_obs::LazyCounter =
                dmra_obs::LazyCounter::new("online.precull_kept");
            static PRECULL_REJECTED: dmra_obs::LazyCounter =
                dmra_obs::LazyCounter::new("online.precull_rejected");
            static LINKS_KEPT: dmra_obs::LazyCounter =
                dmra_obs::LazyCounter::new("online.links_kept");
            static MARGIN_RECHECKS: dmra_obs::LazyCounter =
                dmra_obs::LazyCounter::new("online.margin_rechecks");
            static VALIDATED_DISTANCE_M: dmra_obs::LazyGauge =
                dmra_obs::LazyGauge::new("online.validated_distance_m");
            static EPOCH_BUILD_NS: dmra_obs::LazyHistogram =
                dmra_obs::LazyHistogram::new("online.epoch_build_ns");
            static BATCH_KERNEL_NS: dmra_obs::LazyHistogram =
                dmra_obs::LazyHistogram::new("online.batch_kernel_ns");
            static ROW_CACHE_HITS: dmra_obs::LazyCounter =
                dmra_obs::LazyCounter::new("online.row_cache_hits");
            static ROW_CACHE_MISSES: dmra_obs::LazyCounter =
                dmra_obs::LazyCounter::new("online.row_cache_misses");
            static ROW_CACHE_INVALIDATIONS: dmra_obs::LazyCounter =
                dmra_obs::LazyCounter::new("online.row_cache_invalidations");
            let inst = &self.instance;
            let builds = EPOCH_BUILDS.get();
            builds.inc();
            ROWS_REBUILT.get().add(inst.ues.len() as u64);
            PRECULL_KEPT.get().add(precull_kept);
            PRECULL_REJECTED.get().add(precull_rejected);
            LINKS_KEPT.get().add(inst.links.len() as u64);
            if margin_recheck {
                MARGIN_RECHECKS.get().inc();
            }
            // High-water validated distance, in whole meters.
            VALIDATED_DISTANCE_M
                .get()
                .set_max(self.validated_distance.get() as u64);
            let build_ns = build_started.map_or(0, |t| {
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
            });
            EPOCH_BUILD_NS.get().record(build_ns);
            // The row scan/batch-kernel phase of the build, cache hits
            // included (a hit is the phase doing its job in O(row)).
            BATCH_KERNEL_NS.get().record(kernel_ns);
            if self.row_cache.is_some() {
                ROW_CACHE_HITS.get().add(cache_hits);
                ROW_CACHE_MISSES.get().add(cache_misses);
                // One unit per BS whose budgets changed this epoch — the
                // per-BS stamping granularity.
                ROW_CACHE_INVALIDATIONS.get().add(invalidated_bss);
            }
            let mut fields = vec![
                ("ues", inst.ues.len() as f64),
                ("precull_kept", precull_kept as f64),
                ("precull_rejected", precull_rejected as f64),
                ("links", inst.links.len() as f64),
                ("margin_recheck", f64::from(u8::from(margin_recheck))),
                ("wall_ns", build_ns as f64),
                ("kernel_ns", kernel_ns as f64),
            ];
            if self.row_cache.is_some() {
                fields.push(("cache_hits", cache_hits as f64));
                fields.push(("cache_misses", cache_misses as f64));
                fields.push(("cache_invalidated_bss", invalidated_bss as f64));
            }
            dmra_obs::global_trace().record(dmra_obs::TraceEvent {
                name: "online.epoch_build",
                index: builds.get(),
                fields,
            });
        }
        Ok(&self.instance)
    }

    /// The coverage model the context prunes for.
    #[must_use]
    pub fn coverage(&self) -> CoverageModel {
        self.instance.coverage
    }
}

/// The budget pass of every epoch build: checks the budgets' arity
/// against the instance, compares each BS's incoming budgets with the ones
/// the instance holds (the previous call's), and patches and stamps in
/// `cache` only the BSs that differ — one walk over the BSs. Returns the
/// number of BSs stamped: every BS on the cache's first epoch, otherwise
/// the changed ones, and none without a cache.
///
/// An arity error part-way through leaves the BSs before it patched and
/// stamped, so the instance's budgets and the cache's stamps always agree
/// and the next call only has to compare against the instance.
fn patch_budgets(
    inst: &mut ProblemInstance,
    rem_cru: &[Vec<Cru>],
    rem_rrb: &[RrbCount],
    mut cache: Option<&mut RowCache>,
) -> Result<u64> {
    let n_bss = inst.bss.len();
    if rem_cru.len() != n_bss || rem_rrb.len() != n_bss {
        return Err(Error::InvalidConfig(format!(
            "residual budgets cover {} / {} BSs but the instance has {}",
            rem_cru.len(),
            rem_rrb.len(),
            n_bss
        )));
    }
    let first = cache.as_deref_mut().is_some_and(|c| c.open_epoch(n_bss));
    let mut stamped = 0u64;
    for (b, bs) in inst.bss.iter_mut().enumerate() {
        let cru = &rem_cru[b];
        if cru.len() != bs.cru_budget.len() {
            return Err(Error::InvalidConfig(format!(
                "{} has {} service budgets but the catalog has {} services",
                bs.id,
                cru.len(),
                inst.catalog.len()
            )));
        }
        if bs.rrb_budget != rem_rrb[b] || bs.cru_budget != *cru {
            bs.cru_budget.copy_from_slice(cru);
            bs.rrb_budget = rem_rrb[b];
            if let Some(cache) = cache.as_deref_mut() {
                cache.stamp(b);
                stamped += 1;
            }
        }
    }
    Ok(if first { n_bss as u64 } else { stamped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::tests::two_sp_instance;
    use dmra_types::{BitsPerSec, Cru, Dbm, Point, RrbCount, ServiceId, SpId, UeId};

    fn fresh_batch(n: usize) -> Vec<UeSpec> {
        (0..n)
            .map(|u| {
                UeSpec::new(
                    UeId::new(u as u32),
                    SpId::new((u % 2) as u32),
                    Point::new(50.0 + 40.0 * u as f64, 10.0),
                    ServiceId::new(0),
                    Cru::new(4),
                    BitsPerSec::from_mbps(3.0),
                    Dbm::new(10.0),
                )
            })
            .collect()
    }

    fn assert_same_instance(a: &ProblemInstance, b: &ProblemInstance) {
        assert_eq!(a.n_ues(), b.n_ues());
        for u in 0..a.n_ues() {
            let ue = UeId::new(u as u32);
            assert_eq!(a.candidates(ue), b.candidates(ue), "UE {u} rows differ");
            assert_eq!(a.f_u(ue), b.f_u(ue));
        }
        assert_eq!(a.coverage_lists(), b.coverage_lists());
        assert_eq!(a.bss(), b.bss());
    }

    #[test]
    fn epoch_instance_matches_residual_across_epochs() {
        let deployment = two_sp_instance();
        let mut ctx = DeploymentContext::new(&deployment);
        // Three "epochs" with shifting budgets and batch sizes; the
        // context must reproduce the scratch residual each time.
        let budgets = [
            (
                vec![
                    vec![Cru::new(100), Cru::new(100)],
                    vec![Cru::new(100), Cru::ZERO],
                ],
                vec![RrbCount::new(55), RrbCount::new(55)],
            ),
            (
                vec![
                    vec![Cru::new(10), Cru::new(5)],
                    vec![Cru::new(7), Cru::ZERO],
                ],
                vec![RrbCount::new(9), RrbCount::new(3)],
            ),
            (
                vec![vec![Cru::ZERO, Cru::ZERO], vec![Cru::new(100), Cru::ZERO]],
                vec![RrbCount::ZERO, RrbCount::new(55)],
            ),
        ];
        for (e, (rem_cru, rem_rrb)) in budgets.iter().enumerate() {
            let batch = fresh_batch(e + 1);
            let scratch = deployment
                .residual(rem_cru, rem_rrb, batch.clone())
                .unwrap();
            let fast = ctx.epoch_instance(rem_cru, rem_rrb, batch).unwrap();
            assert_same_instance(fast, &scratch);
        }
    }

    #[test]
    fn epoch_instance_rejects_what_residual_rejects() {
        let deployment = two_sp_instance();
        let mut ctx = DeploymentContext::new(&deployment);
        // Wrong outer arity.
        let err = ctx.epoch_instance(&[], &[], fresh_batch(1)).unwrap_err();
        let scratch_err = deployment.residual(&[], &[], fresh_batch(1)).unwrap_err();
        assert_eq!(err, scratch_err);
        // Dangling SP reference in the batch.
        let rem_cru: Vec<Vec<Cru>> = deployment
            .bss()
            .iter()
            .map(|b| b.cru_budget.clone())
            .collect();
        let rem_rrb: Vec<RrbCount> = deployment.bss().iter().map(|b| b.rrb_budget).collect();
        let mut bad = fresh_batch(1);
        bad[0].sp = SpId::new(9);
        let err = ctx
            .epoch_instance(&rem_cru, &rem_rrb, bad.clone())
            .unwrap_err();
        let scratch_err = deployment.residual(&rem_cru, &rem_rrb, bad).unwrap_err();
        assert_eq!(err, scratch_err);
        // And the context still works after the errors.
        let ok = ctx
            .epoch_instance(&rem_cru, &rem_rrb, fresh_batch(2))
            .unwrap();
        assert_eq!(ok.n_ues(), 2);
    }

    #[test]
    fn row_cache_matches_residual_across_budget_churn() {
        // Same UE batch, varying budgets: the stamp must invalidate the
        // cached rows whenever the budgets change, and the cached rebuild
        // must equal the scratch residual every epoch. Epochs 0 and 2
        // share budgets with no change in between epochs 2→3, exercising
        // both the invalidation and the verbatim-reuse paths.
        let deployment = two_sp_instance();
        let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
        let full_cru: Vec<Vec<Cru>> = deployment
            .bss()
            .iter()
            .map(|b| b.cru_budget.clone())
            .collect();
        let full_rrb: Vec<RrbCount> = deployment.bss().iter().map(|b| b.rrb_budget).collect();
        let tight_cru = vec![vec![Cru::new(8), Cru::new(4)], vec![Cru::new(5), Cru::ZERO]];
        let tight_rrb = vec![RrbCount::new(6), RrbCount::new(2)];
        let epochs: [(&[Vec<Cru>], &[RrbCount]); 4] = [
            (&full_cru, &full_rrb),
            (&tight_cru, &tight_rrb),
            (&full_cru, &full_rrb),
            (&full_cru, &full_rrb), // unchanged: pure cache-hit epoch
        ];
        let batch = fresh_batch(3);
        for (rem_cru, rem_rrb) in epochs {
            let scratch = deployment
                .residual(rem_cru, rem_rrb, batch.clone())
                .unwrap();
            let fast = ctx.epoch_instance(rem_cru, rem_rrb, batch.clone()).unwrap();
            assert_same_instance(fast, &scratch);
        }
    }

    #[test]
    fn row_cache_tracks_moved_and_changed_ues() {
        // A moved UE, a service change and a demand change must all miss
        // the cache; stationary UEs keep their rows. Equality against the
        // scratch residual is the oracle.
        let deployment = two_sp_instance();
        let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
        let rem_cru: Vec<Vec<Cru>> = deployment
            .bss()
            .iter()
            .map(|b| b.cru_budget.clone())
            .collect();
        let rem_rrb: Vec<RrbCount> = deployment.bss().iter().map(|b| b.rrb_budget).collect();
        let mut batch = fresh_batch(4);
        for epoch in 0..4 {
            if epoch > 0 {
                batch[0].position = Point::new(40.0 + 10.0 * epoch as f64, 25.0);
            }
            if epoch == 2 {
                batch[1].service = ServiceId::new(1);
            }
            if epoch == 3 {
                batch[2].cru_demand = Cru::new(7);
                batch[2].rate_demand = BitsPerSec::from_mbps(5.5);
            }
            let scratch = deployment
                .residual(&rem_cru, &rem_rrb, batch.clone())
                .unwrap();
            let fast = ctx
                .epoch_instance(&rem_cru, &rem_rrb, batch.clone())
                .unwrap();
            assert_same_instance(fast, &scratch);
        }
    }

    /// Two cells 5 km apart — far beyond the 300 m coverage radius — so
    /// no UE's prune query ever consults both BSs.
    fn two_distant_cells() -> ProblemInstance {
        use dmra_types::{BsId, BsSpec, Hertz, Money, ServiceCatalog, SpSpec};
        let sps = vec![
            SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0)),
            SpSpec::new(SpId::new(1), Money::new(10.0), Money::new(1.0)),
        ];
        let catalog = ServiceCatalog::new(2);
        let bss = vec![
            BsSpec::new(
                BsId::new(0),
                SpId::new(0),
                Point::new(0.0, 0.0),
                vec![Cru::new(100), Cru::new(100)],
                Hertz::from_mhz(10.0),
                RrbCount::new(55),
            ),
            BsSpec::new(
                BsId::new(1),
                SpId::new(1),
                Point::new(5000.0, 0.0),
                vec![Cru::new(100), Cru::new(100)],
                Hertz::from_mhz(10.0),
                RrbCount::new(55),
            ),
        ];
        ProblemInstance::build(
            sps,
            bss,
            Vec::new(),
            catalog,
            dmra_econ::PricingConfig::paper_defaults(),
            dmra_radio::RadioConfig::paper_defaults(),
            CoverageModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn budget_churn_in_one_cell_keeps_distant_rows_cached() {
        // The per-BS stamp regression: UE 0 lives in BS 0's cell, UE 1 in
        // BS 1's. Draining BS 1's budgets must invalidate only UE 1's
        // row — under the old global stamp both would miss.
        let deployment = two_distant_cells();
        let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
        let full_cru = vec![
            vec![Cru::new(100), Cru::new(100)],
            vec![Cru::new(100), Cru::new(100)],
        ];
        let full_rrb = vec![RrbCount::new(55), RrbCount::new(55)];
        let batch = vec![
            UeSpec::new(
                UeId::new(0),
                SpId::new(0),
                Point::new(50.0, 10.0),
                ServiceId::new(0),
                Cru::new(4),
                BitsPerSec::from_mbps(3.0),
                Dbm::new(10.0),
            ),
            UeSpec::new(
                UeId::new(1),
                SpId::new(1),
                Point::new(4950.0, 10.0),
                ServiceId::new(1),
                Cru::new(3),
                BitsPerSec::from_mbps(2.0),
                Dbm::new(10.0),
            ),
        ];
        let epochs: [(Vec<Vec<Cru>>, Vec<RrbCount>); 4] = [
            (full_cru.clone(), full_rrb.clone()),
            // Drain the *distant* cell: UE 0's row must survive.
            (
                vec![
                    vec![Cru::new(100), Cru::new(100)],
                    vec![Cru::new(7), Cru::new(2)],
                ],
                vec![RrbCount::new(55), RrbCount::new(9)],
            ),
            // And again — only UE 1 rebuilds each time.
            (
                vec![
                    vec![Cru::new(100), Cru::new(100)],
                    vec![Cru::new(3), Cru::new(1)],
                ],
                vec![RrbCount::new(55), RrbCount::new(4)],
            ),
            // Back to full: BS 1's budgets changed again, BS 0's did not.
            (full_cru, full_rrb),
        ];
        let mut expect_hits = 0u64;
        let mut expect_misses = 0u64;
        for (e, (rem_cru, rem_rrb)) in epochs.iter().enumerate() {
            let scratch = deployment
                .residual(rem_cru, rem_rrb, batch.clone())
                .unwrap();
            let fast = ctx.epoch_instance(rem_cru, rem_rrb, batch.clone()).unwrap();
            assert_same_instance(fast, &scratch);
            if e == 0 {
                expect_misses += 2; // cold cache: both rows built
            } else {
                expect_hits += 1; // UE 0 rides through the distant churn
                expect_misses += 1; // UE 1's cell changed
            }
            assert_eq!(
                ctx.row_cache_stats(),
                Some((expect_hits, expect_misses)),
                "epoch {e}"
            );
        }
    }

    #[test]
    fn budget_arity_error_stamps_the_bss_it_already_patched() {
        // UE 0 consults only BS 0, UE 1 only BS 1. The third call changes
        // BS 0 (patched in place) and then fails on BS 1's arity; the
        // fourth call reuses that BS 0 budget, so only the stamp from the
        // failed call can tell UE 0's cached row (built under the
        // second call's BS 0 budget, with BS 0 as a candidate) is stale.
        let deployment = two_distant_cells();
        let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
        let full = vec![Cru::new(100), Cru::new(100)];
        let drained = vec![Cru::new(2), Cru::new(2)];
        let batch = vec![
            UeSpec::new(
                UeId::new(0),
                SpId::new(0),
                Point::new(50.0, 10.0),
                ServiceId::new(0),
                Cru::new(4),
                BitsPerSec::from_mbps(3.0),
                Dbm::new(10.0),
            ),
            UeSpec::new(
                UeId::new(1),
                SpId::new(1),
                Point::new(4950.0, 10.0),
                ServiceId::new(1),
                Cru::new(3),
                BitsPerSec::from_mbps(2.0),
                Dbm::new(10.0),
            ),
        ];
        let rrb = vec![RrbCount::new(55), RrbCount::new(55)];
        let build = |ctx: &mut DeploymentContext, rem_cru: &[Vec<Cru>]| {
            let scratch = deployment.residual(rem_cru, &rrb, batch.clone()).unwrap();
            let fast = ctx.epoch_instance(rem_cru, &rrb, batch.clone()).unwrap();
            assert_same_instance(fast, &scratch);
            ctx.row_cache_stats().unwrap()
        };
        // A cold epoch, then one that changes BS 1's budgets only.
        assert_eq!(build(&mut ctx, &[full.clone(), full.clone()]), (0, 2));
        assert_eq!(build(&mut ctx, &[full, drained.clone()]), (1, 3));
        let err = ctx
            .epoch_instance(&[drained.clone(), vec![Cru::new(1)]], &rrb, batch.clone())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
        assert_eq!(ctx.row_cache_stats(), Some((1, 3)));
        // Exactly UE 0's row misses: it consults BS 0, patched before the
        // error. UE 1's BS has kept its budgets since the second call.
        let stats = build(&mut ctx, &[drained.clone(), drained]);
        assert_eq!(stats, (2, 4));
    }

    #[test]
    fn unchanged_budgets_keep_every_row_cached() {
        let deployment = two_distant_cells();
        let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
        let rem_cru = vec![
            vec![Cru::new(100), Cru::new(100)],
            vec![Cru::new(100), Cru::new(100)],
        ];
        let rem_rrb = vec![RrbCount::new(55), RrbCount::new(55)];
        let batch = fresh_batch(3);
        for _ in 0..3 {
            ctx.epoch_instance(&rem_cru, &rem_rrb, batch.clone())
                .unwrap();
        }
        assert_eq!(ctx.row_cache_stats(), Some((6, 3)));
    }

    #[test]
    fn empty_batch_yields_empty_instance() {
        let deployment = two_sp_instance();
        let mut ctx = DeploymentContext::new(&deployment);
        let rem_cru: Vec<Vec<Cru>> = deployment
            .bss()
            .iter()
            .map(|b| b.cru_budget.clone())
            .collect();
        let rem_rrb: Vec<RrbCount> = deployment.bss().iter().map(|b| b.rrb_budget).collect();
        let inst = ctx.epoch_instance(&rem_cru, &rem_rrb, Vec::new()).unwrap();
        assert_eq!(inst.n_ues(), 0);
        assert_eq!(inst.n_bss(), deployment.n_bss());
    }
}
