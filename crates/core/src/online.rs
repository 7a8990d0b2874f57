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
//!   own buffer and the candidate rows are rebuilt into the same link
//!   buffer. The engine hands [`DeploymentContext::build_epoch`]
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
//!   keeps the candidate row of any UE whose spec (id, position bits, SP,
//!   service, demands, transmit power) is bit-identical to the one the
//!   instance holds at the same batch position, provided no BS's
//!   remaining budgets changed since — one budget stamp for the whole
//!   deployment. A row depends on the budgets of every BS its scan
//!   looked at (a freed budget could re-admit a candidate the scan
//!   dropped), and the one cached caller, the mobility loop, hands every
//!   epoch the same full budgets, so a finer stamp would save nothing
//!   there. The cache stays off under load-proportional interference,
//!   where every row depends on the whole batch. Every row has one copy,
//!   its span in the instance's link buffer: a hit leaves it where it
//!   is; a miss is scanned onto the buffer's tail and moves into its old
//!   span if it fits, or stays at the tail and leaves the old span dead.
//!   Once dead space exceeds the live links, the build compacts the
//!   buffer in UE order, so the buffer never holds more than twice the
//!   live links. A build after a budget stamp misses every row and lays
//!   them all out afresh, contiguously. The cache keeps one span
//!   capacity per UE of the last batch and is meant for fixed
//!   populations (the mobility regime).
//!
//! Every build compares the incoming batch with the instance's own copy
//! of the last valid one, bit for bit, and validates and copies only the
//! UEs that differ; with the row cache on, only their rows are rescanned.
//! An unchanged UE passed the same checks at the same position, so the
//! first error is still the one [`ProblemInstance::residual`] reports,
//! and everything is checked before anything is copied, so a rejected
//! batch leaves the UEs and rows as they were.
//!
//! Every row a build writes — a scan into its old span or onto the tail,
//! every row of an uncached build, every row a compaction moves — takes a
//! fresh *generation* from one process-wide counter; a cache hit keeps
//! its own. A generation names one row's contents at one span in every
//! instance that holds it, clones included, so a consumer that keeps
//! per-row state across epochs skips the rows whose generation it has
//! seen: the DMRA solver keeps its candidate windows
//! ([`DmraWorkspace`](crate::DmraWorkspace)) and the mobility loop its
//! prices ([`PriceMemo`](crate::PriceMemo)). A build reserves its
//! generations in one step, two per UE of its batch.

use crate::budgets::{arity_error, Budgets};
use crate::instance::{
    scan_candidate_row, scan_candidate_row_batch, validate_ue, CandidateScan, CoverageModel,
    ProblemInstance,
};
use dmra_geo::GridIndex;
use dmra_radio::{InterferenceModel, LinkBatch, LinkEvaluator};
use dmra_types::{BsId, Cru, Error, Meters, Result, RrbCount, UeSpec};
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// The batch positions whose UE the current build found changed,
    /// ascending (scratch, reused by every build).
    changed: Vec<u32>,
    /// Lifetime count of UEs the builds found changed.
    ues_changed: u64,
}

/// Source of row generations: every row a build writes or moves takes a
/// fresh one, so no two rows ever share one. No row has generation 0.
static NEXT_ROW_GEN: AtomicU64 = AtomicU64::new(1);

/// The generations one build hands out, reserved from [`NEXT_ROW_GEN`]
/// in one step: two per UE of the batch, enough for every row to be
/// scanned and then moved by a compaction.
struct RowGens {
    next: u64,
}

impl RowGens {
    fn reserve(n_rows: usize) -> Self {
        Self {
            next: NEXT_ROW_GEN.fetch_add(2 * n_rows as u64, Ordering::Relaxed),
        }
    }

    fn take(&mut self) -> u64 {
        let gen = self.next;
        self.next += 1;
        gen
    }
}

/// Whether two UE specs are bit-identical: id, position bits, SP,
/// service, demands and transmit power. An epoch build copies, validates
/// and (with the row cache on) rescans only the UEs whose spec is not
/// the one the instance holds at the same batch position.
fn same_ue(a: &UeSpec, b: &UeSpec) -> bool {
    a.id == b.id
        && a.position.x.to_bits() == b.position.x.to_bits()
        && a.position.y.to_bits() == b.position.y.to_bits()
        && a.sp == b.sp
        && a.service == b.service
        && a.cru_demand == b.cru_demand
        && a.rate_demand.get().to_bits() == b.rate_demand.get().to_bits()
        && a.tx_power.get().to_bits() == b.tx_power.get().to_bits()
}

/// Cross-epoch candidate-row cache. A cached row is the row of the UE the
/// epoch instance holds at batch position `u` (UE ids are dense per
/// epoch), scanned for that very spec, and its links live in the
/// instance's own buffer at `links[row_start[u]..row_start[u] + f_u[u]]`.
/// The instance's UEs are the key: a build rescans exactly the rows of
/// the UEs it found changed. The cache itself keeps one span capacity per
/// UE of the last batch built. A budget change anywhere makes every row
/// stale at once, so rows carry no budget stamp: the next build re-lays
/// every row.
#[derive(Debug, Clone, Default)]
struct RowCache {
    /// Per cached row: the links its span can hold, the length of the row
    /// first laid out there. A shorter row scanned later reuses the span.
    caps: Vec<u32>,
    /// Links in the cached rows, dead spans of the buffer excluded.
    live: usize,
    /// Budget passes opened so far.
    epoch: u64,
    /// Whether every row must be laid out afresh: some BS's budgets
    /// changed since the rows were laid out, or their build failed the
    /// pricing-margin check.
    stale: bool,
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

    /// Marks every row stale: some BS's budgets changed in the open
    /// epoch, or the rows' build failed.
    fn stamp(&mut self) {
        self.stale = true;
    }
}

/// The one candidate-row loop, shared by the one-shot
/// [`ProblemInstance::build_with_scan`] and every
/// [`DeploymentContext::build_epoch`]: the per-BS aggregate-power pass
/// (load-proportional interference only), then per UE either a row-cache
/// hit, which leaves the row where it is, or a fresh scan — the pruned
/// batch kernel when a prune index exists, the exhaustive scalar scan
/// otherwise — into the instance's one link buffer.
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
    /// The largest candidate distance over the rows scanned. A cached
    /// row's distance passed the margin check of the build that scanned
    /// it: a build that fails the check stamps the cache.
    max_distance: Meters,
    /// Links in the batch's rows, dead spans of the buffer excluded.
    links: usize,
    /// Rows scanned: every row of an uncached build, the misses of a
    /// cached one.
    scanned: u64,
    precull_kept: u64,
    precull_rejected: u64,
    cache_hits: u64,
    cache_misses: u64,
    kernel_ns: u64,
}

impl RowStats {
    /// Folds one row's largest candidate distance into the batch's.
    fn row_done(&mut self, row_max: Meters) {
        if row_max > self.max_distance {
            self.max_distance = row_max;
        }
    }
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
    /// place: with a `cache`, only the rows of the `changed` batch
    /// positions (ascending) and the rows it does not hold fresh are
    /// scanned; without, every row is.
    fn build(
        &mut self,
        inst: &mut ProblemInstance,
        cache: Option<(&mut RowCache, &[u32])>,
        obs_on: bool,
    ) -> RowStats {
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
        let kernel_started = obs_on.then(std::time::Instant::now);
        let mut stats = RowStats::default();
        let mut gens = RowGens::reserve(inst.ues.len());
        match cache {
            Some((cache, changed)) => {
                self.patch_rows(inst, cache, changed, &mut gens, obs_on, &mut stats);
            }
            None => self.lay_out_rows(inst, &mut gens, obs_on, &mut stats),
        }
        stats.kernel_ns = kernel_started.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        stats
    }

    /// The uncached build: scans every row into `inst`'s buffer,
    /// contiguously in UE order, each under a fresh generation.
    fn lay_out_rows(
        &mut self,
        inst: &mut ProblemInstance,
        gens: &mut RowGens,
        obs_on: bool,
        stats: &mut RowStats,
    ) {
        let n_ues = inst.ues.len();
        inst.links.clear();
        inst.row_start.clear();
        inst.row_start.reserve(n_ues);
        inst.f_u.clear();
        inst.f_u.reserve(n_ues);
        inst.row_gen.clear();
        inst.row_gen.reserve(n_ues);
        for u in 0..n_ues {
            let start = inst.links.len();
            let row_max = self.scan_row(inst, u, obs_on, stats);
            stats.row_done(row_max);
            inst.row_start.push(start);
            inst.f_u.push((inst.links.len() - start) as u32);
            inst.row_gen.push(gens.take());
        }
        stats.links = inst.links.len();
    }

    /// The cached build: scans only the rows of the `changed` UEs among
    /// the cached rows, and the rows past them; every other row stays
    /// where it is, untouched, generation included. A scanned row lands
    /// at the buffer's tail and moves into its old span if it fits there;
    /// otherwise it stays at the tail and the old span is dead. Rows past
    /// the end of the batch go, their spans dead too. Once dead space
    /// exceeds the live links, the buffer is compacted. On the cache's
    /// first build, and after a stamp, no row is cached, so every row
    /// misses and the rows land contiguously in UE order.
    fn patch_rows(
        &mut self,
        inst: &mut ProblemInstance,
        cache: &mut RowCache,
        changed: &[u32],
        gens: &mut RowGens,
        obs_on: bool,
        stats: &mut RowStats,
    ) {
        let n_ues = inst.ues.len();
        if cache.stale {
            cache.caps.clear();
            cache.live = 0;
            inst.links.clear();
            cache.stale = false;
        }
        // `row_start`, `f_u` and `row_gen` describe one span per cached
        // row; the rows past the batch go.
        if cache.caps.len() > n_ues {
            let dropped: usize = inst.f_u[n_ues..].iter().map(|&len| len as usize).sum();
            cache.live -= dropped;
            cache.caps.truncate(n_ues);
        }
        let cached = cache.caps.len();
        inst.row_start.truncate(cached);
        inst.f_u.truncate(cached);
        inst.row_gen.truncate(cached);
        // Cached rows: only the changed UEs' are rescanned.
        for &u in changed.iter().take_while(|&&u| (u as usize) < cached) {
            let u = u as usize;
            let tail = inst.links.len();
            let row_max = self.scan_row(inst, u, obs_on, stats);
            stats.row_done(row_max);
            let len = inst.links.len() - tail;
            if len <= cache.caps[u] as usize {
                inst.links.copy_within(tail.., inst.row_start[u]);
                inst.links.truncate(tail);
            } else {
                cache.caps[u] = len as u32;
                inst.row_start[u] = tail;
            }
            cache.live = cache.live - inst.f_u[u] as usize + len;
            inst.f_u[u] = len as u32;
            inst.row_gen[u] = gens.take();
        }
        // The UEs past the cached rows (every UE of a cold build) append
        // to all four, sized here once rather than grown row by row.
        let new_rows = n_ues - cached;
        cache.caps.reserve(new_rows);
        inst.row_start.reserve(new_rows);
        inst.f_u.reserve(new_rows);
        inst.row_gen.reserve(new_rows);
        for u in cached..n_ues {
            let tail = inst.links.len();
            let row_max = self.scan_row(inst, u, obs_on, stats);
            stats.row_done(row_max);
            let len = inst.links.len() - tail;
            cache.caps.push(len as u32);
            cache.live += len;
            inst.row_start.push(tail);
            inst.f_u.push(len as u32);
            inst.row_gen.push(gens.take());
        }
        stats.cache_misses = stats.scanned;
        stats.cache_hits = n_ues as u64 - stats.scanned;
        cache.hits += stats.cache_hits;
        cache.misses += stats.cache_misses;
        debug_assert_eq!(
            cache.live,
            inst.f_u.iter().map(|&len| len as usize).sum::<usize>()
        );
        stats.links = cache.live;
        if inst.links.len() - cache.live > cache.live {
            compact(inst, cache, gens);
        }
    }

    /// Scans UE `u`'s candidate row onto the end of `inst.links` and
    /// returns its largest candidate distance: the pruned batch kernel
    /// when a prune index exists, the exhaustive scalar scan otherwise.
    fn scan_row(
        &mut self,
        inst: &mut ProblemInstance,
        u: usize,
        obs_on: bool,
        stats: &mut RowStats,
    ) -> Meters {
        stats.scanned += 1;
        let ue = &inst.ues[u];
        match &self.prune {
            Some((index, radius)) => {
                index.query_within_dist_into(ue.position, *radius, &mut self.query_buf);
                if obs_on {
                    stats.precull_kept += self.query_buf.len() as u64;
                    stats.precull_rejected += (inst.bss.len() - self.query_buf.len()) as u64;
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
        }
    }

    /// Builds `inst`'s rows once, without a cache or telemetry, and
    /// returns the largest candidate distance.
    pub(crate) fn build_once(&mut self, inst: &mut ProblemInstance) -> Meters {
        self.build(inst, None, false).max_distance
    }
}

/// Rewrites `inst`'s buffer with the batch's rows in UE order and no dead
/// space; each span's capacity becomes its row's length, and every row,
/// moved, takes a fresh generation.
fn compact(inst: &mut ProblemInstance, cache: &mut RowCache, gens: &mut RowGens) {
    let mut packed = Vec::with_capacity(cache.live);
    for (((start, &len), gen), cap) in inst
        .row_start
        .iter_mut()
        .zip(&inst.f_u)
        .zip(&mut inst.row_gen)
        .zip(&mut cache.caps)
    {
        let from = *start;
        *start = packed.len();
        packed.extend_from_slice(&inst.links[from..from + len as usize]);
        *cap = len;
        *gen = gens.take();
    }
    inst.links = packed;
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
        instance.f_u.clear();
        instance.row_gen.clear();
        Self {
            instance,
            rows,
            validated_distance: Meters::new(0.0),
            row_cache: None,
            synced: None,
            adapter: None,
            budget_bss: (0, 0),
            changed: Vec::new(),
            ues_changed: 0,
        }
    }

    /// Enables the cross-epoch candidate-row cache: a UE whose spec (id,
    /// position bits, SP, service, demands, transmit power) is unchanged
    /// since its row was built keeps that row, and its generation, where
    /// it is in the epoch instance's link buffer, provided no BS's
    /// remaining budgets changed in between (a freed budget could
    /// re-admit a candidate the build-time scan dropped). Intended for
    /// fixed populations (the mobility regime): the cache keeps one span
    /// capacity per UE of the last batch, a rescanned row that outgrows
    /// its span moves to the end of the buffer, and a build compacts the
    /// buffer once its dead spans hold more links than its rows. Under
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

    /// Lifetime count of UEs the builds found changed: the batch
    /// positions whose UE spec was not bit-identical to the one the
    /// previous valid batch held there (every UE of the first build).
    /// Only those UEs are validated and copied, and, with the row cache
    /// on, only their rows are rescanned.
    #[must_use]
    pub fn ues_changed(&self) -> u64 {
        self.ues_changed
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
    /// changed: only the UEs that differ from the ones the instance holds
    /// at the same positions are validated and copied. A rejected batch
    /// leaves the instance's UEs and rows as they were, and the context
    /// remains usable.
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
        // previous epoch's, the cache is stamped and every row misses.
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

        // The batch against the instance's own copy of the last valid one:
        // only the UEs that differ are validated, copied and, with the
        // cache on, rescanned. An unchanged UE passed the same checks at
        // the same position, and the changed ones are checked in batch
        // order, so the first error is the one a full validation reports.
        // Nothing is copied before every check passed, so a rejected batch
        // leaves the UEs and rows as they were.
        self.changed.clear();
        for (u, ue) in ues.iter().enumerate() {
            if inst.ues.get(u).is_none_or(|held| !same_ue(held, ue)) {
                validate_ue(u, ue, inst.sps.len(), inst.catalog)?;
                self.changed.push(u as u32);
            }
        }
        let held = inst.ues.len().min(ues.len());
        inst.ues.truncate(held);
        for &u in self.changed.iter().take_while(|&&u| (u as usize) < held) {
            inst.ues[u as usize] = ues[u as usize];
        }
        // Every position past the held UEs changed.
        inst.ues.extend_from_slice(&ues[held..]);
        self.ues_changed += self.changed.len() as u64;
        let cache = self.row_cache.as_mut().filter(|_| cache_active);
        let rows = self.rows.build(
            inst,
            cache.map(|cache| (cache, self.changed.as_slice())),
            obs_on,
        );

        // Constraint (16): the worst-case price is monotone in distance,
        // so only a new high-water distance needs re-validation — and it
        // fails with exactly the error a from-scratch build would raise.
        // A cached row passed the check when it was scanned, so the
        // scanned rows' distance decides; after a failure every row is
        // stale, and the next build scans and checks them all again.
        let margin_recheck = rows.max_distance > self.validated_distance;
        if margin_recheck {
            if let Err(err) = inst.pricing.validate_margin(&inst.sps, rows.max_distance) {
                if let Some(cache) = &mut self.row_cache {
                    cache.stamp();
                }
                return Err(err);
            }
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
            ROWS_REBUILT.get().add(rows.scanned);
            PRECULL_KEPT.get().add(rows.precull_kept);
            PRECULL_REJECTED.get().add(rows.precull_rejected);
            LINKS_KEPT.get().add(rows.links as u64);
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
                ("links", rows.links as f64),
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
        assert_eq!(a.ues(), b.ues());
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

        // A cached context validates only the UEs that changed. Each
        // rejected batch changes two valid UEs, then breaks one (a bad
        // id, SP or service) and appends another broken one: residual's
        // error is the first broken UE's. The next valid batch, which
        // moves one UE of the last valid one, must build residual's
        // instance with the cache traffic of a build that never saw the
        // rejected batch.
        let mut cached = DeploymentContext::new(&deployment).with_row_cache();
        let table = deployment.budgets().clone();
        let mut held = fresh_batch(4);
        cached.build_epoch(&table, &held).unwrap();
        let breaks: [fn(&mut UeSpec); 3] = [
            |ue| ue.id = UeId::new(7),
            |ue| ue.sp = SpId::new(9),
            |ue| ue.service = ServiceId::new(5),
        ];
        for (k, break_ue) in breaks.into_iter().enumerate() {
            let mut bad = held.clone();
            bad[0].position = Point::new(-60.0 - 10.0 * k as f64, 20.0);
            bad[1].cru_demand = Cru::new(6);
            break_ue(&mut bad[2]);
            let mut appended = fresh_batch(5)[4];
            appended.sp = SpId::new(8);
            bad.push(appended);
            let (stats, changed) = (cached.row_cache_stats(), cached.ues_changed());
            let err = cached.build_epoch(&table, &bad).unwrap_err();
            assert_eq!(
                err,
                deployment.residual(&table, bad).unwrap_err(),
                "break {k}"
            );
            assert_eq!(cached.row_cache_stats(), stats, "break {k}");
            assert_eq!(cached.ues_changed(), changed, "break {k}");
            held[3].position = Point::new(60.0 + 10.0 * k as f64, 30.0);
            let scratch = deployment.residual(&table, held.clone()).unwrap();
            assert_same_instance(cached.build_epoch(&table, &held).unwrap(), &scratch);
            let (hits, misses) = stats.unwrap();
            assert_eq!(
                cached.row_cache_stats(),
                Some((hits + 3, misses + 1)),
                "break {k}"
            );
            assert_eq!(cached.ues_changed(), changed + 1, "break {k}");
        }
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

    /// The live links of `ctx`'s epoch instance: its rows' lengths.
    fn live_links(ctx: &DeploymentContext) -> usize {
        ctx.instance.f_u.iter().map(|&len| len as usize).sum()
    }

    /// The bound every cached build keeps: the buffer's dead space never
    /// exceeds its live links.
    fn assert_buffer_bounded(ctx: &DeploymentContext, epoch: usize) {
        let live = live_links(ctx);
        assert!(
            ctx.instance.links.len() <= 2 * live,
            "epoch {epoch}: {} links in the buffer for {live} live",
            ctx.instance.links.len()
        );
    }

    #[test]
    fn row_cache_follows_a_changing_batch_size() {
        // Shrinking drops the slots past the batch (their spans go dead),
        // growing scans the new UEs onto the tail; every epoch still
        // equals the scratch residual, and only new or moved UEs miss.
        let deployment = two_sp_instance();
        let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
        let table = deployment.budgets().clone();
        let mut moved = fresh_batch(5);
        moved[3].position = Point::new(-150.0, 40.0);
        let epochs = [
            (fresh_batch(4), (0, 4)),
            (fresh_batch(2), (2, 0)),
            (fresh_batch(5), (2, 3)),
            (moved, (4, 1)),
            (fresh_batch(1), (1, 0)),
        ];
        let mut before = (0, 0);
        for (e, (batch, traffic)) in epochs.iter().enumerate() {
            let scratch = deployment.residual(&table, batch.clone()).unwrap();
            let fast = ctx.build_epoch(&table, batch).unwrap();
            assert_same_instance(fast, &scratch);
            assert_buffer_bounded(&ctx, e);
            let after = ctx.row_cache_stats().unwrap();
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                *traffic,
                "epoch {e}"
            );
            before = after;
        }
    }

    #[test]
    fn an_all_hit_build_leaves_links_and_spans_untouched() {
        let deployment = two_sp_instance();
        let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
        let table = deployment.budgets().clone();
        let mut batch = fresh_batch(4);
        // UE 1 starts out of BS 1's reach, then moves into both cells:
        // its longer row no longer fits its span and lands at the tail.
        batch[1].position = Point::new(-200.0, 10.0);
        ctx.build_epoch(&table, &batch).unwrap();
        batch[1].position = Point::new(150.0, 10.0);
        ctx.build_epoch(&table, &batch).unwrap();
        let inst = &ctx.instance;
        assert!(inst.row_start[1] > inst.row_start[3], "UE 1's row moved");
        let (links, starts, lens) = (inst.links.clone(), inst.row_start.clone(), inst.f_u.clone());
        let (hits, misses) = ctx.row_cache_stats().unwrap();
        let scratch = deployment.residual(&table, batch.clone()).unwrap();
        assert_same_instance(ctx.build_epoch(&table, &batch).unwrap(), &scratch);
        assert_eq!(ctx.row_cache_stats(), Some((hits + 4, misses)));
        assert_eq!(ctx.instance.links, links);
        assert_eq!(ctx.instance.row_start, starts);
        assert_eq!(ctx.instance.f_u, lens);
    }

    /// One SP's BSs every 100 m along the x axis.
    fn bs_line(n: u32) -> ProblemInstance {
        use dmra_types::{BsId, BsSpec, Hertz, Money, ServiceCatalog, SpSpec};
        let bss = (0..n)
            .map(|b| {
                BsSpec::new(
                    BsId::new(b),
                    SpId::new(0),
                    Point::new(100.0 * f64::from(b), 0.0),
                    vec![Cru::new(100)],
                    Hertz::from_mhz(10.0),
                    RrbCount::new(55),
                )
            })
            .collect();
        ProblemInstance::build(
            vec![SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0))],
            bss,
            Vec::new(),
            ServiceCatalog::new(1),
            dmra_econ::PricingConfig::paper_defaults(),
            dmra_radio::RadioConfig::paper_defaults(),
            CoverageModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn growing_rows_compact_the_buffer() {
        // Three UEs walk in from beyond the line's left end, each epoch
        // into reach of one more BS: every longer row leaves its span dead
        // at the tail, until dead space exceeds the live links and the
        // build compacts the buffer. A fourth UE stands still, so its
        // cached row is moved by the compaction, never rescanned.
        let deployment = bs_line(10);
        let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
        let table = deployment.budgets().clone();
        let ue = |id: u32, x: f64, y: f64| {
            UeSpec::new(
                UeId::new(id),
                SpId::new(0),
                Point::new(x, y),
                ServiceId::new(0),
                Cru::new(2),
                BitsPerSec::from_mbps(1.0),
                Dbm::new(20.0),
            )
        };
        let (mut compactions, mut prev_len, mut prev_row) = (0, 0, 0);
        for e in 0..6 {
            let x = -290.0 + 100.0 * e as f64;
            let batch = vec![
                ue(0, x, 0.0),
                ue(1, 450.0, 0.0),
                ue(2, x, 5.0),
                ue(3, x, -5.0),
            ];
            let scratch = deployment.residual(&table, batch.clone()).unwrap();
            let fast = ctx.build_epoch(&table, &batch).unwrap();
            assert_same_instance(fast, &scratch);
            let row = fast.candidates(UeId::new(0)).len();
            assert!(row > prev_row, "epoch {e}: the walkers' rows grow");
            assert_buffer_bounded(&ctx, e);
            let len = ctx.instance.links.len();
            // Only a compaction shrinks the buffer, and it leaves no dead
            // space behind.
            if len < prev_len {
                compactions += 1;
                assert_eq!(len, live_links(&ctx), "epoch {e}");
            }
            (prev_len, prev_row) = (len, row);
        }
        assert!(compactions > 0, "the buffer never compacted");
        // The standing UE hit the cache in every epoch after the first.
        assert_eq!(ctx.row_cache_stats(), Some((5, 4 + 3 * 5)));
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
