//! The validated, immutable problem input.
//!
//! [`ProblemInstance::build`] validates the deployment and the UE batch,
//! then fills the candidate rows through the same serial row loop the
//! online engine runs every epoch (`online.rs`), without a row cache.
//! The two scan kernels below are that loop's only row sources: the
//! pruned batch scan and the exhaustive scalar scan it is checked
//! against.

use dmra_econ::{PricingConfig, ProfitLedger, ProfitReport};
use dmra_radio::{LinkBatch, LinkEvaluator, RadioConfig};
use dmra_types::{
    BitsPerSec, BsId, BsSpec, Error, Meters, Money, Result, RrbCount, ServiceCatalog, SpSpec, UeId,
    UeSpec,
};
use serde::{Deserialize, Serialize};

use crate::allocation::Allocation;
use crate::budgets::Budgets;
use crate::online::RowBuilder;

/// When is a UE "covered" by a BS?
///
/// The paper assumes a coverage relation (`B_u` is "the set of BSs which
/// can cover UE u") but never quantifies it; both readings below produce
/// the densely-overlapped multi-BS coverage the evaluation relies on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoverageModel {
    /// In coverage iff the UE–BS distance is at most the radius.
    FixedRadius(Meters),
    /// In coverage iff the link sustains at least this per-RRB rate —
    /// equivalently an SINR threshold, expressed in rate units.
    MinPerRrbRate(BitsPerSec),
}

impl Default for CoverageModel {
    /// 300 m — matched to the paper's 300 m inter-site distance, the usual
    /// coverage scale of a dense small-cell grid. UEs then see 1–4 BSs of
    /// mixed SPs with near-uniform per-RRB rates across candidates, which
    /// is the regime in which the paper's Fig. 6/7 claims about the ρ knob
    /// hold (see the `coverage_study` example and EXPERIMENTS.md).
    fn default() -> Self {
        CoverageModel::FixedRadius(Meters::new(300.0))
    }
}

/// How candidate generation enumerates the potential serving BSs of a UE.
///
/// Under [`CoverageModel::FixedRadius`] every BS farther than the radius
/// fails the coverage check anyway, so a [`dmra_geo::GridIndex`] radius
/// query can skip them without evaluating a single link. The query
/// returns indices in ascending order — the same order the exhaustive
/// loop visits BSs — and uses the identical `distance ≤ r` predicate on
/// the identical (symmetric, `hypot`-based) distance, so the surviving
/// candidate rows are bit-for-bit the rows the exhaustive scan produces.
/// The `incremental` integration tests pin this equality at paper scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateScan {
    /// Prune with a spatial index when the coverage model allows it
    /// (fixed radius, positive and finite); otherwise scan exhaustively.
    #[default]
    Auto,
    /// Always evaluate every BS — the original O(U×B) loop, kept as the
    /// executable specification the tests compare the pruned path
    /// against.
    Exhaustive,
}

/// One feasible UE–BS pairing with everything the matchers need to know.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateLink {
    /// The candidate BS.
    pub bs: BsId,
    /// `d_{i,u}`.
    pub distance: Meters,
    /// `λ_{u,i}` (linear).
    pub sinr_linear: f64,
    /// `e_{u,i}`: per-RRB rate (Eq. (2)).
    pub per_rrb_rate: BitsPerSec,
    /// `n_{u,i}`: RRBs this UE would consume at this BS (Eq. (3)).
    pub n_rrbs: RrbCount,
    /// `p_{i,u}`: the per-CRU price this BS charges this UE (Eqs. (9)–(10)).
    pub price: Money,
    /// Whether UE and BS belong to the same SP.
    pub same_sp: bool,
}

/// An immutable, validated snapshot of one batch of offloading requests.
///
/// Construction precomputes, for every UE, the candidate set `B_u`: the BSs
/// that cover it, host its requested service, and can physically carry its
/// demand (`n_{u,i} ≤ N_i`). All allocators run on these identical inputs.
#[derive(Debug, Clone)]
pub struct ProblemInstance {
    pub(crate) sps: Vec<SpSpec>,
    /// The BS specs. In an epoch instance their budget fields mirror
    /// `budgets`; nothing in the workspace reads them there — the mirror
    /// serves the benchmark's layer replay, which reads the old per-BS
    /// shape, and leaves with ROADMAP item 1's benchmark change.
    pub(crate) bss: Vec<BsSpec>,
    /// The remaining budgets the candidate scan and every allocator read.
    pub(crate) budgets: Budgets,
    pub(crate) ues: Vec<UeSpec>,
    pub(crate) catalog: ServiceCatalog,
    pub(crate) pricing: PricingConfig,
    pub(crate) radio: RadioConfig,
    pub(crate) coverage: CoverageModel,
    /// Every candidate row in one buffer: UE `u`'s row, sorted by BS id,
    /// is the span `links[row_start[u]..row_start[u] + f_u[u]]`. A build
    /// that scans every row lays them out contiguously in UE order. A
    /// row-cached epoch build keeps each unchanged row where it is, so the
    /// buffer can also hold dead spans, never more links than the rows
    /// hold (the online module's row cache).
    pub(crate) links: Vec<CandidateLink>,
    /// Where each UE's row starts in `links`, one entry per UE.
    pub(crate) row_start: Vec<usize>,
    /// `f_u`: number of candidate BSs of UE `u` (the statistic the BS-side
    /// tie-break of Algorithm 1 uses).
    pub(crate) f_u: Vec<u32>,
    /// Each UE's row generation: a process-wide unique name for one row's
    /// contents at one span, taken whenever a build writes or moves the
    /// row and kept by a row-cache hit (the online module's row builder).
    /// A clone holds the same rows at the same spans, so it keeps them.
    /// Consumers that keep per-row state across instances (the dense
    /// solver's candidate windows, [`PriceMemo`]) skip a row whose
    /// generation they have seen.
    pub(crate) row_gen: Vec<u64>,
}

/// The price of the link each UE was last served on, by the row it was
/// read from: [`ProblemInstance::profit_report_with`] reads a served UE's
/// price here when the UE's row generation and BS are the entry's, and
/// through [`ProblemInstance::link`] otherwise. A generation names one
/// row's contents, so an entry it matches holds the price `link` would
/// find. Meant for one fixed population re-matched epoch after epoch.
#[derive(Debug, Clone, Default)]
pub struct PriceMemo {
    /// Per UE: `(row generation, BS, price)` of its last looked-up link.
    /// No row has generation 0, so a fresh entry matches nothing.
    entries: Vec<(u64, BsId, Money)>,
    /// Lifetime [`ProblemInstance::link`] lookups.
    lookups: u64,
}

impl PriceMemo {
    /// Lifetime count of prices read through [`ProblemInstance::link`]
    /// rather than from the memo.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

impl ProblemInstance {
    /// Builds and validates an instance.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidConfig`] for non-dense ids, empty entity lists or
    ///   invalid pricing constants.
    /// * [`Error::UnknownSp`] / [`Error::UnknownService`] for dangling
    ///   references.
    /// * [`Error::UnprofitablePricing`] if constraint (16) fails for some
    ///   SP at the worst-case candidate distance.
    pub fn build(
        sps: Vec<SpSpec>,
        bss: Vec<BsSpec>,
        ues: Vec<UeSpec>,
        catalog: ServiceCatalog,
        pricing: PricingConfig,
        radio: RadioConfig,
        coverage: CoverageModel,
    ) -> Result<Self> {
        Self::build_with_scan(
            sps,
            bss,
            ues,
            catalog,
            pricing,
            radio,
            coverage,
            CandidateScan::Auto,
        )
    }

    /// [`ProblemInstance::build`] with an explicit [`CandidateScan`]
    /// knob, letting tests force the exhaustive O(U×B) scan that
    /// [`CandidateScan::Auto`] prunes away under a fixed coverage radius.
    ///
    /// # Errors
    ///
    /// Same as [`ProblemInstance::build`].
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_scan(
        sps: Vec<SpSpec>,
        bss: Vec<BsSpec>,
        ues: Vec<UeSpec>,
        catalog: ServiceCatalog,
        pricing: PricingConfig,
        radio: RadioConfig,
        coverage: CoverageModel,
        scan: CandidateScan,
    ) -> Result<Self> {
        if sps.is_empty() {
            return Err(Error::InvalidConfig("need at least one SP".into()));
        }
        for (i, sp) in sps.iter().enumerate() {
            if sp.id.as_usize() != i {
                return Err(Error::InvalidConfig(format!(
                    "SP ids must be dense and ordered; found {} at position {i}",
                    sp.id
                )));
            }
        }
        for (i, bs) in bss.iter().enumerate() {
            if bs.id.as_usize() != i {
                return Err(Error::InvalidConfig(format!(
                    "BS ids must be dense and ordered; found {} at position {i}",
                    bs.id
                )));
            }
            if bs.sp.as_usize() >= sps.len() {
                return Err(Error::UnknownSp(bs.sp));
            }
        }
        let budgets = Budgets::from_bss(&bss, catalog.len() as usize)?;
        validate_ues(&ues, sps.len(), catalog)?;
        pricing.validate()?;

        let mut instance = Self {
            sps,
            bss,
            budgets,
            ues,
            catalog,
            pricing,
            radio,
            coverage,
            links: Vec::new(),
            row_start: Vec::new(),
            f_u: Vec::new(),
            row_gen: Vec::new(),
        };
        // A build without UEs has no row to scan, so it skips the row
        // builder and its prune index (every simulator builds its
        // deployment so, then indexes it in its own `DeploymentContext`).
        let max_candidate_distance = if instance.ues.is_empty() {
            Meters::new(0.0)
        } else {
            RowBuilder::new(&instance, scan).build_once(&mut instance)
        };
        // Constraint (16) must hold for every reachable price.
        instance
            .pricing
            .validate_margin(&instance.sps, max_candidate_distance)?;
        Ok(instance)
    }

    /// The service providers, ordered by id.
    #[must_use]
    pub fn sps(&self) -> &[SpSpec] {
        &self.sps
    }

    /// The base stations, ordered by id. In an epoch instance their
    /// budget fields mirror [`ProblemInstance::budgets`], kept in step for
    /// the BSs each build patches: read the budgets there. The mirror
    /// serves the benchmark's layer replay and leaves with ROADMAP item
    /// 1's benchmark change.
    #[must_use]
    pub fn bss(&self) -> &[BsSpec] {
        &self.bss
    }

    /// The BSs' remaining budgets: the full ones in a deployment, what is
    /// left in an epoch or residual instance.
    #[must_use]
    pub fn budgets(&self) -> &Budgets {
        &self.budgets
    }

    /// The user equipments, ordered by id.
    #[must_use]
    pub fn ues(&self) -> &[UeSpec] {
        &self.ues
    }

    /// The service catalog.
    #[must_use]
    pub fn catalog(&self) -> ServiceCatalog {
        self.catalog
    }

    /// The pricing configuration.
    #[must_use]
    pub fn pricing(&self) -> &PricingConfig {
        &self.pricing
    }

    /// The radio configuration.
    #[must_use]
    pub fn radio(&self) -> &RadioConfig {
        &self.radio
    }

    /// The coverage model.
    #[must_use]
    pub fn coverage(&self) -> CoverageModel {
        self.coverage
    }

    /// `B_u`: the candidate links of UE `u`, sorted by BS id.
    ///
    /// # Panics
    ///
    /// Panics if `ue` is not part of this instance.
    #[must_use]
    pub fn candidates(&self, ue: UeId) -> &[CandidateLink] {
        let u = ue.as_usize();
        let start = self.row_start[u];
        &self.links[start..start + self.f_u[u] as usize]
    }

    /// `f_u`: the number of candidate BSs of UE `u`.
    ///
    /// # Panics
    ///
    /// Panics if `ue` is not part of this instance.
    #[must_use]
    pub fn f_u(&self, ue: UeId) -> u32 {
        self.f_u[ue.as_usize()]
    }

    /// The coverage/broadcast domain of Algorithm 1 line 26 for every
    /// BS: entry `i` lists the UEs with a candidate link to BS `i` (in
    /// coverage and requesting a service it hosts), ascending by UE id —
    /// the transpose of the candidate rows. Derived on each call; only
    /// the message-passing protocol needs it, once per run.
    #[must_use]
    pub fn coverage_lists(&self) -> Vec<Vec<UeId>> {
        let mut lists = vec![Vec::new(); self.bss.len()];
        for ue in &self.ues {
            for link in self.candidates(ue.id) {
                lists[link.bs.as_usize()].push(ue.id);
            }
        }
        lists
    }

    /// Looks up the candidate link between `ue` and `bs`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `ue` is not part of this instance.
    #[must_use]
    pub fn link(&self, ue: UeId, bs: BsId) -> Option<&CandidateLink> {
        self.candidates(ue).iter().find(|l| l.bs == bs)
    }

    /// Number of UEs.
    #[must_use]
    pub fn n_ues(&self) -> usize {
        self.ues.len()
    }

    /// Number of BSs.
    #[must_use]
    pub fn n_bss(&self) -> usize {
        self.bss.len()
    }

    /// Number of SPs.
    #[must_use]
    pub fn n_sps(&self) -> usize {
        self.sps.len()
    }

    /// Computes the paper's Eqs. (5)–(8) profit report for an allocation.
    ///
    /// # Panics
    ///
    /// Panics if the allocation references UE–BS pairs that are not
    /// candidate links of this instance (run [`Allocation::validate`]
    /// first when in doubt).
    #[must_use]
    pub fn profit_report(&self, allocation: &Allocation) -> ProfitReport {
        self.ledger(allocation, |ue, bs| self.price(ue, bs))
    }

    /// [`ProblemInstance::profit_report`] with each served UE's price
    /// read from `memo` when its row and BS are the ones the memo last
    /// saw for it: the same ledger, folded in the same UE order, so the
    /// report is bit-identical.
    ///
    /// # Panics
    ///
    /// As [`ProblemInstance::profit_report`].
    #[must_use]
    pub fn profit_report_with(
        &self,
        allocation: &Allocation,
        memo: &mut PriceMemo,
    ) -> ProfitReport {
        memo.entries
            .resize(self.ues.len(), (0, BsId::new(0), Money::new(0.0)));
        self.ledger(allocation, |ue, bs| {
            let u = ue.as_usize();
            let gen = self.row_gen[u];
            match &mut memo.entries[u] {
                (seen, at, price) if *seen == gen && *at == bs => *price,
                entry => {
                    memo.lookups += 1;
                    let price = self.price(ue, bs);
                    *entry = (gen, bs, price);
                    price
                }
            }
        })
    }

    /// The Eqs. (5)–(8) ledger of an allocation, in UE order, with each
    /// served UE's price from `price`.
    fn ledger(
        &self,
        allocation: &Allocation,
        mut price: impl FnMut(UeId, BsId) -> Money,
    ) -> ProfitReport {
        let mut ledger = ProfitLedger::new(&self.sps);
        for ue in &self.ues {
            match allocation.bs_of(ue.id) {
                Some(bs) => ledger.record_edge_service(ue.sp, ue.cru_demand, price(ue.id, bs)),
                None => ledger.record_cloud_forward(ue.sp),
            }
        }
        ledger.report()
    }

    /// The per-CRU price of the candidate link between `ue` and `bs`.
    fn price(&self, ue: UeId, bs: BsId) -> Money {
        self.link(ue, bs)
            .expect("allocation must only use candidate links")
            .price
    }

    /// Total uplink demand (in bit/s) of the UEs the allocation forwards to
    /// the cloud — the paper's *total forwarded traffic load* (Fig. 7).
    #[must_use]
    pub fn forwarded_load(&self, allocation: &Allocation) -> BitsPerSec {
        self.ues
            .iter()
            .filter(|ue| allocation.bs_of(ue.id).is_none())
            .map(|ue| ue.rate_demand)
            .sum()
    }

    /// The TPM objective value `Σ_k W_k` of an allocation.
    #[must_use]
    pub fn total_profit(&self, allocation: &Allocation) -> Money {
        self.profit_report(allocation).total_profit()
    }

    /// The budgets an allocation leaves: this instance's budgets with
    /// every assignment taken through [`Budgets::take`].
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownUe`] when the allocation covers a different
    ///   number of UEs, [`Error::UnknownBs`] for a BS outside the
    ///   instance;
    /// * [`Error::InvalidConfig`] naming constraint (13) for an assignment
    ///   that is not a candidate link;
    /// * [`Error::OverCommit`] naming constraint (12) or (14) for the
    ///   first assignment, in UE order, that exceeds what its BS has left.
    pub fn remaining(&self, allocation: &Allocation) -> Result<Budgets> {
        if allocation.len() != self.n_ues() {
            return Err(Error::UnknownUe(UeId::new(allocation.len() as u32)));
        }
        let mut rem = self.budgets.clone();
        for (ue_id, bs_id) in allocation.edge_pairs() {
            if bs_id.as_usize() >= self.n_bss() {
                return Err(Error::UnknownBs(bs_id));
            }
            let Some(link) = self.link(ue_id, bs_id) else {
                return Err(Error::InvalidConfig(format!(
                    "constraint (13): {ue_id} assigned to {bs_id}, which is not a candidate"
                )));
            };
            let ue = &self.ues[ue_id.as_usize()];
            rem.take(bs_id, ue.service, ue.cru_demand, link.n_rrbs)?;
        }
        Ok(rem)
    }

    /// Builds a *residual* instance: the same deployment (SPs, catalog,
    /// pricing, radio, coverage) and BS positions, but with the given
    /// remaining budgets and a new batch of UEs.
    ///
    /// This is the building block of the online regimes (`dmra-sim`'s
    /// arrival/departure and sticky-mobility simulators): already-admitted
    /// tasks keep their resources, and each new batch is matched against
    /// what is left.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `budgets` does not have this
    /// instance's shape, and every [`ProblemInstance::build`] validation
    /// error.
    pub fn residual(&self, budgets: &Budgets, ues: Vec<UeSpec>) -> Result<ProblemInstance> {
        self.residual_with(budgets, ues, CandidateScan::Auto)
    }

    /// [`ProblemInstance::residual`] with an explicit candidate-scan
    /// knob. The scratch engines pass [`CandidateScan::Exhaustive`], the
    /// baseline the incremental engines are proven bit-identical to.
    ///
    /// # Errors
    ///
    /// Same as [`ProblemInstance::residual`].
    pub fn residual_with(
        &self,
        budgets: &Budgets,
        ues: Vec<UeSpec>,
        scan: CandidateScan,
    ) -> Result<ProblemInstance> {
        self.check_shape(budgets)?;
        let mut bss = self.bss.clone();
        for (b, spec) in bss.iter_mut().enumerate() {
            budgets.write_bs(b, spec);
        }
        ProblemInstance::build_with_scan(
            self.sps.clone(),
            bss,
            ues,
            self.catalog,
            self.pricing,
            self.radio,
            self.coverage,
            scan,
        )
    }

    /// Checks that `budgets` covers exactly this instance's BSs and
    /// services.
    pub(crate) fn check_shape(&self, budgets: &Budgets) -> Result<()> {
        let n_svcs = self.catalog.len() as usize;
        if budgets.n_bss() != self.bss.len() || budgets.n_svcs() != n_svcs {
            return Err(Error::InvalidConfig(format!(
                "residual budgets cover {} BSs × {} services but the instance has {} × {n_svcs}",
                budgets.n_bss(),
                budgets.n_svcs(),
                self.bss.len()
            )));
        }
        Ok(())
    }
}

/// Validates one batch of UEs against the deployment (dense ids, known SP,
/// known service): the static build's check. The online engine runs
/// [`validate_ue`] on the UEs of its batch that changed, in batch order,
/// so both reject exactly the same inputs.
pub(crate) fn validate_ues(ues: &[UeSpec], n_sps: usize, catalog: ServiceCatalog) -> Result<()> {
    for (i, ue) in ues.iter().enumerate() {
        validate_ue(i, ue, n_sps, catalog)?;
    }
    Ok(())
}

/// The checks of [`validate_ues`] for the UE at batch position `i`.
pub(crate) fn validate_ue(
    i: usize,
    ue: &UeSpec,
    n_sps: usize,
    catalog: ServiceCatalog,
) -> Result<()> {
    if ue.id.as_usize() != i {
        return Err(Error::InvalidConfig(format!(
            "UE ids must be dense and ordered; found {} at position {i}",
            ue.id
        )));
    }
    if ue.sp.as_usize() >= n_sps {
        return Err(Error::UnknownSp(ue.sp));
    }
    if !catalog.contains(ue.service) {
        return Err(Error::UnknownService(ue.service));
    }
    Ok(())
}

/// Appends one UE's candidate links over every BS, in BS-id order, to
/// `out` and returns the largest accepted candidate distance — the
/// exhaustive O(U×B) scan, kept as the oracle the pruned batch rows are
/// compared against. When `interference_factor` is zero the per-BS
/// own-received-power lookup is skipped entirely: the interference term
/// is `factor × (total − own)⁺`, which is exactly `0.0` either way, so the
/// skip is bit-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_candidate_row(
    ue: &UeSpec,
    bss: &[BsSpec],
    budgets: &Budgets,
    evaluator: &LinkEvaluator,
    interference_factor: f64,
    total_rx_mw: &[f64],
    coverage: CoverageModel,
    pricing: &PricingConfig,
    out: &mut Vec<CandidateLink>,
) -> Meters {
    // The UE's service is in the catalog (validated), so it indexes the
    // table's rows.
    let svc = ue.service.as_usize();
    let mut row_max = Meters::new(0.0);
    for (b, bs) in bss.iter().enumerate() {
        let cru_left = budgets.cru_at(b, svc);
        if cru_left == 0 {
            continue;
        }
        let interference_mw = if interference_factor > 0.0 {
            let own_rx = evaluator.rx_power_mw(ue.tx_power, ue.position, bs.position);
            interference_factor * (total_rx_mw[bs.id.as_usize()] - own_rx).max(0.0)
        } else {
            0.0
        };
        let distance = ue.position.distance(bs.position);
        let metrics = evaluator.evaluate_at_distance(
            ue.tx_power,
            ue.position,
            bs.position,
            distance,
            interference_mw,
        );
        let in_coverage = match coverage {
            CoverageModel::FixedRadius(r) => metrics.distance <= r,
            CoverageModel::MinPerRrbRate(min_rate) => metrics.per_rrb_rate >= min_rate,
        };
        if !in_coverage {
            continue;
        }
        let Some(n_rrbs) = evaluator.rrbs_required(ue.rate_demand, metrics.per_rrb_rate) else {
            continue;
        };
        // A link that can never fit the BS's remaining budgets is not a
        // candidate (Algorithm 1 would prune it on first try).
        if n_rrbs.get() > budgets.rrb_at(b) || ue.cru_demand.get() > cru_left {
            continue;
        }
        let same_sp = ue.sp == bs.sp;
        let price = pricing.bs_cru_price(same_sp, metrics.distance);
        if metrics.distance > row_max {
            row_max = metrics.distance;
        }
        out.push(CandidateLink {
            bs: bs.id,
            distance: metrics.distance,
            sinr_linear: metrics.sinr_linear,
            per_rrb_rate: metrics.per_rrb_rate,
            n_rrbs,
            price,
            same_sp,
        });
    }
    row_max
}

/// The batched form of [`scan_candidate_row`]: one UE's pruned candidate
/// slice (ascending BS indices with exact measured distances, i.e. the
/// `query_within_dist_into` output) goes through
/// [`LinkEvaluator::evaluate_batch`] in structure-of-arrays passes, then a
/// scalar tail applies the same coverage/demand/budget filters in the same
/// order. Every accepted link is bit-identical to the scalar scan's,
/// which the `incremental` and `mobility_incremental` integration tests
/// pin against the exhaustive executable spec.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_candidate_row_batch(
    ue: &UeSpec,
    bss: &[BsSpec],
    budgets: &Budgets,
    nearby: &[(usize, Meters)],
    evaluator: &LinkEvaluator,
    interference_factor: f64,
    total_rx_mw: &[f64],
    coverage: CoverageModel,
    pricing: &PricingConfig,
    batch: &mut LinkBatch,
    out: &mut Vec<CandidateLink>,
) -> Meters {
    batch.clear();
    let svc = ue.service.as_usize();
    for &(b, distance) in nearby {
        let bs = &bss[b];
        if budgets.cru_at(b, svc) == 0 {
            continue;
        }
        // `total_rx_mw` is all-zero under noise-only, so the kernel's
        // interference term vanishes exactly as in the scalar scan.
        batch.push(b as u32, bs.position, distance, total_rx_mw[b]);
    }
    evaluator.evaluate_batch(ue.tx_power, ue.position, interference_factor, batch);
    let mut row_max = Meters::new(0.0);
    for j in 0..batch.len() {
        let b = batch.tag(j) as usize;
        let bs = &bss[b];
        let metrics = batch.metrics(j);
        let in_coverage = match coverage {
            CoverageModel::FixedRadius(r) => metrics.distance <= r,
            CoverageModel::MinPerRrbRate(min_rate) => metrics.per_rrb_rate >= min_rate,
        };
        if !in_coverage {
            continue;
        }
        let Some(n_rrbs) = evaluator.rrbs_required(ue.rate_demand, metrics.per_rrb_rate) else {
            continue;
        };
        if n_rrbs.get() > budgets.rrb_at(b) || ue.cru_demand.get() > budgets.cru_at(b, svc) {
            continue;
        }
        let same_sp = ue.sp == bs.sp;
        let price = pricing.bs_cru_price(same_sp, metrics.distance);
        if metrics.distance > row_max {
            row_max = metrics.distance;
        }
        out.push(CandidateLink {
            bs: bs.id,
            distance: metrics.distance,
            sinr_linear: metrics.sinr_linear,
            per_rrb_rate: metrics.per_rrb_rate,
            n_rrbs,
            price,
            same_sp,
        });
    }
    row_max
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dmra_types::{Cru, Dbm, Hertz, Point, ServiceId, SpId};

    pub(crate) fn two_sp_instance() -> ProblemInstance {
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
                Point::new(300.0, 0.0),
                vec![Cru::new(100), Cru::ZERO],
                Hertz::from_mhz(10.0),
                RrbCount::new(55),
            ),
        ];
        let ues = vec![
            UeSpec::new(
                UeId::new(0),
                SpId::new(0),
                Point::new(100.0, 0.0),
                ServiceId::new(0),
                Cru::new(4),
                BitsPerSec::from_mbps(3.0),
                Dbm::new(10.0),
            ),
            UeSpec::new(
                UeId::new(1),
                SpId::new(1),
                Point::new(200.0, 0.0),
                ServiceId::new(1),
                Cru::new(3),
                BitsPerSec::from_mbps(2.0),
                Dbm::new(10.0),
            ),
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
        .expect("valid instance")
    }

    #[test]
    fn candidates_respect_service_hosting() {
        let inst = two_sp_instance();
        // UE 1 requests service 1, which bs1 does not host.
        let c: Vec<_> = inst.candidates(UeId::new(1)).iter().map(|l| l.bs).collect();
        assert_eq!(c, vec![BsId::new(0)]);
        // UE 0 requests service 0, hosted by both BSs in coverage.
        assert_eq!(inst.f_u(UeId::new(0)), 2);
    }

    #[test]
    fn coverage_lists_mirror_candidates() {
        let inst = two_sp_instance();
        assert_eq!(
            inst.coverage_lists(),
            vec![vec![UeId::new(0), UeId::new(1)], vec![UeId::new(0)]]
        );
    }

    #[test]
    fn link_prices_follow_sp_relationship() {
        let inst = two_sp_instance();
        let own = inst.link(UeId::new(0), BsId::new(0)).unwrap();
        let cross = inst.link(UeId::new(0), BsId::new(1)).unwrap();
        assert!(own.same_sp);
        assert!(!cross.same_sp);
        // Cross-SP is farther *and* marked up here.
        assert!(cross.price > own.price);
    }

    #[test]
    fn rrb_demand_grows_with_distance() {
        let inst = two_sp_instance();
        let near = inst.link(UeId::new(0), BsId::new(0)).unwrap(); // 100 m
        let far = inst.link(UeId::new(0), BsId::new(1)).unwrap(); // 200 m
        assert!(far.n_rrbs >= near.n_rrbs);
    }

    #[test]
    fn coverage_radius_prunes_far_bss() {
        let mut inst = two_sp_instance();
        // Rebuild with a 150 m radius: UE 0 at 100 m sees only bs0.
        inst = ProblemInstance::build(
            inst.sps.clone(),
            inst.bss.clone(),
            inst.ues.clone(),
            inst.catalog,
            inst.pricing,
            inst.radio,
            CoverageModel::FixedRadius(Meters::new(150.0)),
        )
        .unwrap();
        assert_eq!(inst.f_u(UeId::new(0)), 1);
        // UE 1 at 200 m from bs0 loses all candidates.
        assert_eq!(inst.f_u(UeId::new(1)), 0);
    }

    #[test]
    fn min_rate_coverage_behaves_like_sinr_threshold() {
        let inst = two_sp_instance();
        let rate_at_200m = inst.link(UeId::new(1), BsId::new(0)).unwrap().per_rrb_rate;
        let rebuilt = ProblemInstance::build(
            inst.sps.clone(),
            inst.bss.clone(),
            inst.ues.clone(),
            inst.catalog,
            inst.pricing,
            inst.radio,
            CoverageModel::MinPerRrbRate(BitsPerSec::new(rate_at_200m.get() + 1.0)),
        )
        .unwrap();
        assert_eq!(rebuilt.f_u(UeId::new(1)), 0);
    }

    #[test]
    fn build_rejects_dangling_references() {
        let inst = two_sp_instance();
        let mut bad_ues = inst.ues.clone();
        bad_ues[0].sp = SpId::new(9);
        let err = ProblemInstance::build(
            inst.sps.clone(),
            inst.bss.clone(),
            bad_ues,
            inst.catalog,
            inst.pricing,
            inst.radio,
            inst.coverage,
        )
        .unwrap_err();
        assert_eq!(err, Error::UnknownSp(SpId::new(9)));

        let mut bad_ues = inst.ues.clone();
        bad_ues[1].service = ServiceId::new(7);
        let err = ProblemInstance::build(
            inst.sps.clone(),
            inst.bss.clone(),
            bad_ues,
            inst.catalog,
            inst.pricing,
            inst.radio,
            inst.coverage,
        )
        .unwrap_err();
        assert_eq!(err, Error::UnknownService(ServiceId::new(7)));
    }

    #[test]
    fn build_rejects_wrong_budget_arity() {
        let inst = two_sp_instance();
        let mut bad_bss = inst.bss.clone();
        bad_bss[0].cru_budget.pop();
        let err = ProblemInstance::build(
            inst.sps.clone(),
            bad_bss,
            inst.ues.clone(),
            inst.catalog,
            inst.pricing,
            inst.radio,
            inst.coverage,
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn build_rejects_unprofitable_pricing() {
        let inst = two_sp_instance();
        let thin = vec![
            SpSpec::new(SpId::new(0), Money::new(3.0), Money::new(1.0)),
            SpSpec::new(SpId::new(1), Money::new(3.0), Money::new(1.0)),
        ];
        let err = ProblemInstance::build(
            thin,
            inst.bss.clone(),
            inst.ues.clone(),
            inst.catalog,
            inst.pricing,
            inst.radio,
            inst.coverage,
        )
        .unwrap_err();
        assert!(matches!(err, Error::UnprofitablePricing { .. }), "{err}");
    }

    #[test]
    fn residual_instance_shrinks_candidates() {
        let inst = two_sp_instance();
        // Drain bs0 completely; ue0's only remaining candidate is bs1.
        let mut rem = inst.budgets().clone();
        let bs0 = BsId::new(0);
        rem.take(bs0, ServiceId::new(0), Cru::new(100), RrbCount::new(55))
            .unwrap();
        rem.take(bs0, ServiceId::new(1), Cru::new(100), RrbCount::ZERO)
            .unwrap();
        let residual = inst.residual(&rem, inst.ues().to_vec()).unwrap();
        assert_eq!(residual.bss()[0].cru_budget, vec![Cru::ZERO, Cru::ZERO]);
        assert_eq!(residual.f_u(UeId::new(0)), 1);
        assert_eq!(residual.candidates(UeId::new(0))[0].bs, BsId::new(1));
        // ue1 requests a service bs1 does not host: no candidates left.
        assert_eq!(residual.f_u(UeId::new(1)), 0);
    }

    #[test]
    fn residual_rejects_wrong_arity() {
        let inst = two_sp_instance();
        let one_bs = Budgets::from_bss(&inst.bss()[..1], 2).unwrap();
        let err = inst.residual(&one_bs, inst.ues().to_vec()).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
        let mut narrow = inst.bss().to_vec();
        narrow.iter_mut().for_each(|b| b.cru_budget.truncate(1));
        let one_service = Budgets::from_bss(&narrow, 1).unwrap();
        let err = inst
            .residual(&one_service, inst.ues().to_vec())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn candidate_excludes_oversized_demand() {
        let inst = two_sp_instance();
        let mut hungry = inst.ues.clone();
        hungry[0].cru_demand = Cru::new(1000); // exceeds every budget
        let rebuilt = ProblemInstance::build(
            inst.sps.clone(),
            inst.bss.clone(),
            hungry,
            inst.catalog,
            inst.pricing,
            inst.radio,
            inst.coverage,
        )
        .unwrap();
        assert_eq!(rebuilt.f_u(UeId::new(0)), 0);
    }
}
