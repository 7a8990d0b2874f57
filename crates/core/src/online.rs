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
//!   are patched in place, the population is copied into the instance's
//!   own buffer and the flattened candidate rows are rebuilt into the
//!   same buffers. The engine hands [`DeploymentContext::build_epoch`]
//!   its one [`Budgets`] table. When that is the table the previous build
//!   synced from, unchanged since (every mobility epoch after the first),
//!   the budget pass does no per-BS work; otherwise it compares every BS
//!   and patches those that differ. With the row cache on, the pass
//!   stamps the cache when a BS's budgets differ.
//!
//! The rows themselves come from this module's one candidate-row loop
//! (`RowBuilder`), which [`ProblemInstance::build`] also runs, once and
//! without a cache: the same scan kernels in the same order, so an epoch
//! instance is pinned **bit-identical** to the rebuild-from-scratch path
//! ([`ProblemInstance::residual`]) by the `incremental` integration
//! tests — identical candidate rows, identical allocations, identical
//! simulated outcomes for every allocator and seed.
//!
//! Two hot-path accelerators sit on top (both bit-identical, both pinned
//! by the same test pattern):
//!
//! * pruned candidate rows run through the structure-of-arrays
//!   [`LinkEvaluator::evaluate_batch`] kernel. The loop is serial at
//!   every batch size: on the benchmark workloads a thread fan-out cost
//!   more than it saved (DESIGN.md §8, §12);
//! * an opt-in cross-epoch [`row cache`](DeploymentContext::with_row_cache)
//!   reuses the candidate row of any UE whose key (position bits, SP,
//!   service, demands, transmit power) is unchanged since the row was
//!   built *and* no BS's remaining budgets changed since — one budget
//!   stamp for the whole deployment. A row depends on the budgets of
//!   every BS its scan looked at (a freed budget could re-admit a
//!   candidate the scan dropped), and the one cached caller, the
//!   mobility loop, hands every epoch the same full budgets, so a finer
//!   stamp would save nothing there. The cache stays off under
//!   load-proportional interference, where every row depends on the
//!   whole batch. It holds one slot per batch position and is meant for
//!   fixed populations (the mobility regime), so it is sized by the
//!   largest batch seen and never evicts.

use crate::budgets::{arity_error, Budgets};
use crate::instance::{
    scan_candidate_row, scan_candidate_row_batch, validate_ues, CandidateLink, CandidateScan,
    CoverageModel, ProblemInstance,
};
use dmra_geo::GridIndex;
use dmra_radio::{InterferenceModel, LinkBatch, LinkEvaluator};
use dmra_types::{BsId, Cru, Error, Meters, Result, RrbCount, ServiceId, SpId, UeSpec};

/// Epoch-persistent deployment state for the online regime.
///
/// Build one from the validated deployment instance (typically the
/// zero-UE instance the simulator starts from), then call
/// [`DeploymentContext::build_epoch`] once per epoch with the remaining
/// budgets and the epoch's UEs.
#[derive(Debug, Clone)]
pub struct DeploymentContext {
    /// The reused epoch instance; UEs/links/budgets are overwritten per
    /// epoch, everything else stays the validated deployment.
    instance: ProblemInstance,
    /// The candidate-row loop with its evaluator, prune index and
    /// scratch buffers, built once from the deployment.
    rows: RowBuilder,
    /// Largest candidate distance the pricing margin has been validated
    /// at so far. Constraint (16)'s worst-case price grows with distance,
    /// so any epoch whose rows stay under this mark is already covered.
    validated_distance: Meters,
    /// Cross-epoch candidate-row cache (opt-in, see
    /// [`DeploymentContext::with_row_cache`]).
    row_cache: Option<RowCache>,
    /// [`Budgets::mark`] of the table the instance's budgets were last
    /// synced from: a build from a table with this mark has nothing to
    /// patch.
    synced: Option<(u64, u64)>,
    /// The table [`DeploymentContext::epoch_instance`] copies its per-BS
    /// budgets into, made on its first call.
    adapter: Option<Budgets>,
    /// Lifetime budget-pass totals: BSs compared, BSs patched.
    budget_bss: (u64, u64),
}

/// Everything a candidate row depends on besides the fixed deployment and
/// the remaining budgets: the UE's own spec (position as raw bits — a
/// cache hit must mean *bit-identical* inputs, so no epsilon). Budget
/// freshness is tracked separately, by the cache's budget stamp.
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
}

/// Cross-epoch candidate-row cache. Slot `u` caches the row of the UE at
/// batch position `u` (UE ids are dense per epoch); the key carries the
/// UE-spec inputs, and one budget stamp tracks budget churn: a row is
/// fresh while no BS's budgets changed after it was built.
#[derive(Debug, Clone, Default)]
struct RowCache {
    slots: Vec<Option<CachedRow>>,
    /// Monotone budget epoch, bumped once per budget pass.
    epoch: u64,
    /// The last epoch in which some BS's remaining budgets changed.
    budgets_changed: u64,
    /// Lifetime hit/miss totals (see
    /// [`DeploymentContext::row_cache_stats`]).
    hits: u64,
    misses: u64,
}

impl RowCache {
    /// Opens the budget epoch of one [`sync_budgets`] pass. Returns
    /// `true` on the cache's first epoch, when every row is cold.
    fn open_epoch(&mut self) -> bool {
        self.epoch += 1;
        self.epoch == 1
    }

    /// Records that some BS's budgets changed in the open epoch.
    fn stamp(&mut self) {
        self.budgets_changed = self.epoch;
    }

    /// The cached row for batch slot `u`, if its key matches and no
    /// budget changed since it was built.
    fn lookup(&self, u: usize, key: &RowKey) -> Option<&CachedRow> {
        match self.slots.get(u) {
            Some(Some(row)) if row.key == *key && self.budgets_changed <= row.built => Some(row),
            _ => None,
        }
    }

    /// Grows the slot table to cover a batch of `n_ues`, once per build,
    /// so that [`RowCache::store`] never reallocates it row by row.
    fn reserve_slots(&mut self, n_ues: usize) {
        if self.slots.len() < n_ues {
            self.slots.resize_with(n_ues, || None);
        }
    }

    /// Stores (or overwrites) slot `u`, reusing its allocation. The slot
    /// table must already cover `u` ([`RowCache::reserve_slots`]).
    fn store(&mut self, u: usize, key: RowKey, links: &[CandidateLink], row_max: Meters) {
        let built = self.epoch;
        match &mut self.slots[u] {
            Some(row) => {
                row.key = key;
                row.links.clear();
                row.links.extend_from_slice(links);
                row.row_max = row_max;
                row.built = built;
            }
            slot @ None => {
                *slot = Some(CachedRow {
                    key,
                    links: links.to_vec(),
                    row_max,
                    built,
                });
            }
        }
    }
}

/// The one candidate-row loop, shared by the one-shot
/// [`ProblemInstance::build_with_scan`] and every
/// [`DeploymentContext::build_epoch`]: the per-BS aggregate-power pass
/// (load-proportional interference only), then per UE either a row-cache
/// hit or a fresh scan — the pruned batch kernel when a prune index
/// exists, the exhaustive scalar scan otherwise — flattened in UE-id
/// order into the instance's row buffers.
#[derive(Debug, Clone)]
pub(crate) struct RowBuilder {
    /// Radio evaluator, derived once from the deployment's radio config.
    evaluator: LinkEvaluator,
    /// Load-proportional interference factor (zero under noise-only).
    interference_factor: f64,
    /// Per-BS aggregate received power for the current batch (left at
    /// zero when the factor is zero).
    total_rx_mw: Vec<f64>,
    /// Spatial prune index over the BS sites, when the scan mode and the
    /// coverage model admit one: a [`GridIndex`] with the coverage radius
    /// as both cell size and query radius.
    prune: Option<(GridIndex, Meters)>,
    /// Reused buffer for grid-index radius queries; each hit carries its
    /// exact distance so the scan kernel never recomputes it.
    query_buf: Vec<(usize, Meters)>,
    /// Structure-of-arrays scratch for the batched link kernel.
    batch: LinkBatch,
}

/// What one [`RowBuilder::build`] pass produced besides the rows. The
/// prune-query counts and the row-loop wall time are taken only with
/// telemetry on.
#[derive(Debug, Default)]
struct RowStats {
    /// The largest candidate distance over every row.
    max_distance: Meters,
    precull_kept: u64,
    precull_rejected: u64,
    cache_hits: u64,
    cache_misses: u64,
    kernel_ns: u64,
}

impl RowBuilder {
    /// The builder for `deployment`'s BSs, radio and coverage model.
    pub(crate) fn new(deployment: &ProblemInstance, scan: CandidateScan) -> Self {
        let interference_factor = match deployment.radio.interference {
            InterferenceModel::NoiseOnly => 0.0,
            InterferenceModel::LoadProportional { factor } => factor,
        };
        let prune = match (scan, deployment.coverage) {
            (CandidateScan::Auto, CoverageModel::FixedRadius(r))
                if r.get() > 0.0 && r.is_finite() =>
            {
                let sites: Vec<_> = deployment.bss.iter().map(|b| b.position).collect();
                Some((GridIndex::build(&sites, r), r))
            }
            _ => None,
        };
        Self {
            evaluator: LinkEvaluator::new(deployment.radio),
            interference_factor,
            total_rx_mw: vec![0.0; deployment.bss.len()],
            prune,
            query_buf: Vec::new(),
            batch: LinkBatch::new(),
        }
    }

    /// Rebuilds `inst`'s candidate rows from its UEs and BS budgets, in
    /// place. With a `cache`, a UE whose row is fresh there reuses it and
    /// every scanned row is stored back.
    fn build(
        &mut self,
        inst: &mut ProblemInstance,
        mut cache: Option<&mut RowCache>,
        obs_on: bool,
    ) -> RowStats {
        let n_bss = inst.bss.len();
        let n_ues = inst.ues.len();
        if let Some(cache) = cache.as_deref_mut() {
            cache.reserve_slots(n_ues);
        }
        // Each BS's aggregate sums over the UEs in id order.
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

        inst.links.clear();
        inst.row_start.clear();
        inst.row_start.reserve(n_ues + 1);
        inst.row_start.push(0);
        inst.f_u.clear();
        inst.f_u.reserve(n_ues);
        let kernel_started = obs_on.then(std::time::Instant::now);
        let mut stats = RowStats::default();
        for u in 0..n_ues {
            let ue = &inst.ues[u];
            let row_from = inst.links.len();
            let key = cache.is_some().then(|| RowKey::of(ue));
            let cached = match (cache.as_deref(), &key) {
                (Some(cache), Some(key)) => cache.lookup(u, key),
                _ => None,
            };
            let row_max = if let Some(row) = cached {
                inst.links.extend_from_slice(&row.links);
                stats.cache_hits += 1;
                row.row_max
            } else {
                let row_max = match &self.prune {
                    Some((index, radius)) => {
                        index.query_within_dist_into(ue.position, *radius, &mut self.query_buf);
                        if obs_on {
                            stats.precull_kept += self.query_buf.len() as u64;
                            stats.precull_rejected += (n_bss - self.query_buf.len()) as u64;
                        }
                        scan_candidate_row_batch(
                            ue,
                            &inst.bss,
                            &inst.budgets,
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
                        ue,
                        &inst.bss,
                        &inst.budgets,
                        &self.evaluator,
                        self.interference_factor,
                        &self.total_rx_mw,
                        inst.coverage,
                        &inst.pricing,
                        &mut inst.links,
                    ),
                };
                if let (Some(cache), Some(key)) = (cache.as_deref_mut(), key) {
                    stats.cache_misses += 1;
                    cache.store(u, key, &inst.links[row_from..], row_max);
                }
                row_max
            };
            if row_max > stats.max_distance {
                stats.max_distance = row_max;
            }
            inst.f_u.push((inst.links.len() - row_from) as u32);
            inst.row_start.push(inst.links.len());
        }
        stats.kernel_ns = kernel_started.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        if let Some(cache) = cache {
            cache.hits += stats.cache_hits;
            cache.misses += stats.cache_misses;
        }
        stats
    }

    /// Builds `inst`'s rows once, without a cache or telemetry, and
    /// returns the largest candidate distance.
    pub(crate) fn build_once(&mut self, inst: &mut ProblemInstance) -> Meters {
        self.build(inst, None, false).max_distance
    }
}

impl DeploymentContext {
    /// Creates a context from a validated deployment instance. The
    /// deployment's UEs (if any) are irrelevant — each epoch brings its
    /// own batch — so only the SPs/BSs/config are retained.
    #[must_use]
    pub fn new(deployment: &ProblemInstance) -> Self {
        let rows = RowBuilder::new(deployment, CandidateScan::Auto);
        let mut instance = deployment.clone();
        instance.ues.clear();
        instance.links.clear();
        instance.row_start.clear();
        instance.row_start.push(0);
        instance.f_u.clear();
        Self {
            instance,
            rows,
            validated_distance: Meters::new(0.0),
            row_cache: None,
            synced: None,
            adapter: None,
            budget_bss: (0, 0),
        }
    }

    /// Enables the cross-epoch candidate-row cache: a UE whose key
    /// (position bits, SP, service, demands, transmit power) is unchanged
    /// since its row was built reuses that row verbatim, provided no BS's
    /// remaining budgets changed in between (a freed budget could
    /// re-admit a candidate the build-time scan dropped). Intended for
    /// fixed populations (the mobility regime): the cache keeps one slot
    /// per batch position, so its size is the largest batch seen. Under
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

    /// Lifetime budget-pass totals as `(compared, patched)`: the BSs whose
    /// budgets the builds compared with the instance's, and those they
    /// copied because they differed. A build compares every BS, or none
    /// when its table is the one the previous build synced from,
    /// unchanged since.
    #[must_use]
    pub fn budget_pass_stats(&self) -> (u64, u64) {
        self.budget_bss
    }

    /// Builds this epoch's instance in place: same deployment, the given
    /// remaining budgets, and this epoch's UEs, copied into the instance's
    /// own buffer.
    ///
    /// The budget pass is skipped when `budgets` is the table the
    /// previous build synced from and has not changed since; otherwise it
    /// compares every BS and patches those that differ. The row cache is
    /// stamped only if some BS's budgets differ from the instance's.
    ///
    /// Bit-identical to `deployment.residual(budgets, ues.to_vec())` —
    /// same candidate rows, same accepted/rejected inputs, same errors —
    /// without cloning the deployment or re-validating what cannot have
    /// changed. After an error the context remains usable: the next
    /// successful call overwrites all epoch state.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`ProblemInstance::residual`] would return:
    /// a table of another shape, invalid UE batches, and pricing-margin
    /// violations at a new worst-case candidate distance.
    pub fn build_epoch(&mut self, budgets: &Budgets, ues: &[UeSpec]) -> Result<&ProblemInstance> {
        self.instance.check_shape(budgets)?;
        self.build(budgets, ues)?;
        Ok(&self.instance)
    }

    /// [`DeploymentContext::build_epoch`] for budgets in the per-BS
    /// shape: a thin adapter that checks every arity before anything is
    /// patched, writes the budgets into a table of its own and builds from
    /// it. The benchmark's layer replay is its one caller outside tests;
    /// it leaves with ROADMAP item 1's benchmark change.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the budgets do not cover every BS
    /// and service, and every error of
    /// [`DeploymentContext::build_epoch`].
    pub fn epoch_instance(
        &mut self,
        rem_cru: &[Vec<Cru>],
        rem_rrb: &[RrbCount],
        ues: Vec<UeSpec>,
    ) -> Result<&ProblemInstance> {
        let n_bss = self.instance.bss.len();
        if rem_cru.len() != n_bss || rem_rrb.len() != n_bss {
            return Err(Error::InvalidConfig(format!(
                "residual budgets cover {} / {} BSs but the instance has {n_bss}",
                rem_cru.len(),
                rem_rrb.len(),
            )));
        }
        let n_svcs = self.instance.budgets.n_svcs();
        if let Some((b, cru)) = rem_cru.iter().enumerate().find(|(_, c)| c.len() != n_svcs) {
            return Err(arity_error(BsId::new(b as u32), cru.len(), n_svcs));
        }
        let mut table = self
            .adapter
            .take()
            .unwrap_or_else(|| self.instance.budgets.clone());
        for (b, (cru, &rrb)) in rem_cru.iter().zip(rem_rrb).enumerate() {
            table.set_bs(b, cru, rrb);
        }
        let built = self.build(&table, &ues);
        self.adapter = Some(table);
        built?;
        Ok(&self.instance)
    }

    /// The epoch build behind both entry points, for a table of the
    /// instance's shape.
    fn build(&mut self, budgets: &Budgets, ues: &[UeSpec]) -> Result<()> {
        // Observe-only telemetry: one flag read up front, all recording
        // after the rebuild. Nothing here touches candidate generation.
        let obs_on = dmra_obs::enabled();
        let build_started = obs_on.then(std::time::Instant::now);

        // Patch the budgets and do the row-cache epoch bookkeeping before
        // any row is built: if any BS's remaining budgets differ from the
        // previous epoch's, the cache is stamped and every slot misses.
        // Load-proportional interference couples each row to the whole
        // batch, so the cache is bypassed entirely there.
        let cache_active = self.row_cache.is_some() && self.rows.interference_factor == 0.0;
        let pass = sync_budgets(
            &mut self.instance,
            budgets,
            self.synced,
            self.row_cache.as_mut().filter(|_| cache_active),
        );
        self.synced = Some(budgets.mark());
        self.budget_bss.0 += pass.compared;
        self.budget_bss.1 += pass.patched;
        let invalidated_bss = pass.invalidated;
        let inst = &mut self.instance;
        validate_ues(ues, inst.sps.len(), inst.catalog)?;
        inst.ues.clear();
        inst.ues.extend_from_slice(ues);
        let rows = self.rows.build(
            inst,
            self.row_cache.as_mut().filter(|_| cache_active),
            obs_on,
        );

        // Constraint (16): the worst-case price is monotone in distance,
        // so only a new high-water distance needs re-validation — and it
        // fails with exactly the error a from-scratch build would raise.
        let margin_recheck = rows.max_distance > self.validated_distance;
        if margin_recheck {
            inst.pricing.validate_margin(&inst.sps, rows.max_distance)?;
            self.validated_distance = rows.max_distance;
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
            PRECULL_KEPT.get().add(rows.precull_kept);
            PRECULL_REJECTED.get().add(rows.precull_rejected);
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
            BATCH_KERNEL_NS.get().record(rows.kernel_ns);
            if self.row_cache.is_some() {
                ROW_CACHE_HITS.get().add(rows.cache_hits);
                ROW_CACHE_MISSES.get().add(rows.cache_misses);
                // One unit per BS whose budgets changed this epoch.
                ROW_CACHE_INVALIDATIONS.get().add(invalidated_bss);
            }
            let mut fields = vec![
                ("ues", inst.ues.len() as f64),
                ("precull_kept", rows.precull_kept as f64),
                ("precull_rejected", rows.precull_rejected as f64),
                ("links", inst.links.len() as f64),
                ("margin_recheck", f64::from(u8::from(margin_recheck))),
                ("wall_ns", build_ns as f64),
                ("kernel_ns", rows.kernel_ns as f64),
            ];
            if self.row_cache.is_some() {
                fields.push(("cache_hits", rows.cache_hits as f64));
                fields.push(("cache_misses", rows.cache_misses as f64));
                fields.push(("cache_invalidated_bss", invalidated_bss as f64));
            }
            dmra_obs::global_trace().record(dmra_obs::TraceEvent {
                name: "online.epoch_build",
                index: builds.get(),
                fields,
            });
        }
        Ok(())
    }

    /// The coverage model the context prunes for.
    #[must_use]
    pub fn coverage(&self) -> CoverageModel {
        self.instance.coverage
    }
}

/// What one [`sync_budgets`] pass did.
struct BudgetPass {
    /// BSs compared with the instance's budgets.
    compared: u64,
    /// BSs whose budgets differed and were copied.
    patched: u64,
    /// The row-cache invalidation count: every BS on the cache's first
    /// epoch, otherwise the patched ones, and none without a cache.
    invalidated: u64,
}

/// The budget pass of every epoch build: unless `budgets` still carries
/// the mark `synced` the instance last synced from, compares every BS
/// with the ones the instance holds, copies those that differ (their BS
/// specs mirror them) and stamps `cache` if any did.
fn sync_budgets(
    inst: &mut ProblemInstance,
    budgets: &Budgets,
    synced: Option<(u64, u64)>,
    cache: Option<&mut RowCache>,
) -> BudgetPass {
    let n_bss = inst.bss.len();
    let compared = if synced == Some(budgets.mark()) {
        0
    } else {
        n_bss
    };
    let mut patched = 0u64;
    for b in 0..compared {
        if inst.budgets.sync_bs(budgets, b, &mut inst.bss[b]) {
            patched += 1;
        }
    }
    let invalidated = match cache {
        Some(cache) => {
            let first = cache.open_epoch();
            if patched > 0 {
                cache.stamp();
            }
            if first {
                n_bss as u64
            } else {
                patched
            }
        }
        None => 0,
    };
    BudgetPass {
        compared: compared as u64,
        patched,
        invalidated,
    }
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

    /// The budgets of the adapter's per-BS shape as one table.
    fn per_bs_table(deployment: &ProblemInstance, cru: &[Vec<Cru>], rrb: &[RrbCount]) -> Budgets {
        let mut bss = deployment.bss().to_vec();
        for ((spec, cru), &rrb) in bss.iter_mut().zip(cru).zip(rrb) {
            spec.cru_budget = cru.clone();
            spec.rrb_budget = rrb;
        }
        Budgets::from_bss(&bss, deployment.catalog().len() as usize).unwrap()
    }

    /// The rebuild-from-scratch oracle for budgets in the adapter's shape.
    fn residual(
        deployment: &ProblemInstance,
        cru: &[Vec<Cru>],
        rrb: &[RrbCount],
        ues: Vec<UeSpec>,
    ) -> Result<ProblemInstance> {
        deployment.residual(&per_bs_table(deployment, cru, rrb), ues)
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
            let scratch = residual(&deployment, rem_cru, rem_rrb, batch.clone()).unwrap();
            let fast = ctx.epoch_instance(rem_cru, rem_rrb, batch).unwrap();
            assert_same_instance(fast, &scratch);
        }
    }

    #[test]
    fn epoch_instance_rejects_what_residual_rejects() {
        let deployment = two_sp_instance();
        let mut ctx = DeploymentContext::new(&deployment);
        // Wrong outer arity: the adapter rejects it before anything else,
        // and a table of the wrong shape fails as the residual build does.
        let err = ctx.epoch_instance(&[], &[], fresh_batch(1)).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        let one_bs = Budgets::from_bss(&deployment.bss()[..1], 2).unwrap();
        let err = ctx.build_epoch(&one_bs, &fresh_batch(1)).unwrap_err();
        let scratch_err = deployment.residual(&one_bs, fresh_batch(1)).unwrap_err();
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
        let scratch_err = residual(&deployment, &rem_cru, &rem_rrb, bad).unwrap_err();
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
            let scratch = residual(&deployment, rem_cru, rem_rrb, batch.clone()).unwrap();
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
            let scratch = residual(&deployment, &rem_cru, &rem_rrb, batch.clone()).unwrap();
            let fast = ctx
                .epoch_instance(&rem_cru, &rem_rrb, batch.clone())
                .unwrap();
            assert_same_instance(fast, &scratch);
        }
    }

    /// Two cells 5 km apart — far beyond the 300 m coverage radius — so
    /// each UE's candidate row holds only its own cell's BS.
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
        // UE 0 lives in BS 0's cell, UE 1 in BS 1's. The cache keeps one
        // budget stamp for the whole deployment, so draining BS 1's
        // budgets misses UE 0's row too; every epoch still equals the
        // scratch residual.
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
            // Drain the distant cell only.
            (
                vec![
                    vec![Cru::new(100), Cru::new(100)],
                    vec![Cru::new(7), Cru::new(2)],
                ],
                vec![RrbCount::new(55), RrbCount::new(9)],
            ),
            // And again.
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
        for (e, (rem_cru, rem_rrb)) in epochs.iter().enumerate() {
            let scratch = residual(&deployment, rem_cru, rem_rrb, batch.clone()).unwrap();
            let fast = ctx.epoch_instance(rem_cru, rem_rrb, batch.clone()).unwrap();
            assert_same_instance(fast, &scratch);
            // Cold on the first epoch, and a budget change on every later
            // one: both rows are rebuilt each time.
            assert_eq!(
                ctx.row_cache_stats(),
                Some((0, 2 * (e as u64 + 1))),
                "epoch {e}"
            );
        }
    }

    #[test]
    fn budget_arity_error_stamps_the_bss_it_already_patched() {
        // The adapter checks every arity before it patches anything, so
        // the third call, which changes BS 0 and then fails on BS 1's
        // arity, patches and stamps nothing: a fourth call with the
        // second call's budgets still hits every row it cached. A fifth
        // call that does change BS 0 misses both rows.
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
            let scratch = residual(&deployment, rem_cru, &rrb, batch.clone()).unwrap();
            let fast = ctx.epoch_instance(rem_cru, &rrb, batch.clone()).unwrap();
            assert_same_instance(fast, &scratch);
            ctx.row_cache_stats().unwrap()
        };
        // A cold epoch, then one that changes BS 1's budgets only.
        assert_eq!(build(&mut ctx, &[full.clone(), full.clone()]), (0, 2));
        assert_eq!(build(&mut ctx, &[full.clone(), drained.clone()]), (0, 4));
        let patched = ctx.budget_pass_stats().1;
        let err = ctx
            .epoch_instance(&[drained.clone(), vec![Cru::new(1)]], &rrb, batch.clone())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");
        assert_eq!(ctx.row_cache_stats(), Some((0, 4)));
        assert_eq!(ctx.budget_pass_stats().1, patched, "nothing was patched");
        assert_eq!(build(&mut ctx, &[full, drained.clone()]), (2, 4));
        assert_eq!(build(&mut ctx, &[drained.clone(), drained]), (2, 6));
    }

    #[test]
    fn build_epoch_skips_the_budget_pass_only_for_an_unchanged_table() {
        // An engine's table: a build from it unchanged since the previous
        // one compares no BS; after any take or release, every BS is
        // compared and the ones that differ are patched.
        let deployment = two_distant_cells();
        let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
        let mut table = deployment.budgets().clone();
        let batch = fresh_batch(3);
        let (bs1, s1) = (BsId::new(1), ServiceId::new(1));
        let epoch = |ctx: &mut DeploymentContext, table: &Budgets| {
            let before = ctx.budget_pass_stats();
            let scratch = deployment.residual(table, batch.clone()).unwrap();
            let fast = ctx.build_epoch(table, &batch).unwrap();
            assert_same_instance(fast, &scratch);
            assert_eq!(fast.budgets(), table);
            let after = ctx.budget_pass_stats();
            (after.0 - before.0, after.1 - before.1)
        };
        // The first build compares every BS; none differs from the
        // deployment's.
        assert_eq!(epoch(&mut ctx, &table), (2, 0));
        assert_eq!(epoch(&mut ctx, &table), (0, 0));
        table.take(bs1, s1, Cru::new(7), RrbCount::new(3)).unwrap();
        assert_eq!(epoch(&mut ctx, &table), (2, 1));
        // A take and its release change the mark, not the budgets.
        table.take(bs1, s1, Cru::new(1), RrbCount::new(1)).unwrap();
        table
            .put_back(bs1, s1, Cru::new(1), RrbCount::new(1))
            .unwrap();
        assert_eq!(epoch(&mut ctx, &table), (2, 0));
        table
            .put_back(bs1, s1, Cru::new(7), RrbCount::new(3))
            .unwrap();
        assert_eq!(epoch(&mut ctx, &table), (2, 1));
        assert_eq!(epoch(&mut ctx, &table), (0, 0));
        // Another table with the same budgets — a clone — is compared in
        // full and patches nothing.
        assert_eq!(epoch(&mut ctx, &table.clone()), (2, 0));
        // Seven epochs of three rows: the cold one and the two that
        // changed BS 1 miss, the other four hit.
        assert_eq!(ctx.row_cache_stats(), Some((12, 9)));
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
