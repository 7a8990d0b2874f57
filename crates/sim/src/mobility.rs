//! UE mobility and handovers.
//!
//! Section V motivates DMRA with the observation that "the best
//! association changes over time": as UEs move, link qualities, prices and
//! candidate sets drift, and the allocation must be recomputed. This
//! module simulates a fixed population of UEs with persistent tasks moving
//! under a **random-waypoint** model; each epoch the whole batch is
//! re-matched (the paper's algorithm is cheap enough to rerun —
//! Section V's "recalculating the preference relationship … during each
//! iteration"), and we track *handovers* (serving-BS changes), *drops*
//! (served → cloud) and *recoveries* (cloud → served).
//!
//! Two engines produce bit-identical outcomes
//! (`tests/mobility_incremental.rs` pins the equality across policies,
//! seeds, allocators and stationary fractions):
//!
//! * [`MobilitySimulator::run`] — the fast path: one epoch-persistent
//!   [`DeploymentContext`] with the cross-epoch row cache enabled, so a
//!   UE that did not move between epochs (the `stationary_fraction`
//!   population, or any UE whose waypoint run left it in place) reuses
//!   its candidate row verbatim, and moved UEs re-evaluate only their
//!   pruned candidate slice through the batched link kernel. Every epoch
//!   matches against the deployment's own [`Budgets`], which never
//!   change, so after the first build the budget pass touches no BS. A
//!   UE that did not change is not validated or copied again, the DMRA
//!   solver keeps its candidate window, and the profit ledger reads its
//!   price from a [`PriceMemo`] while it keeps its row and its BS;
//! * [`MobilitySimulator::run_scratch`] — the executable specification:
//!   a full exhaustive-scan [`ProblemInstance`] rebuild every epoch,
//!   exactly the O(U×B) loop the paper describes.
//!
//! # Examples
//!
//! ```
//! use dmra_sim::mobility::{MobilityConfig, MobilityPolicy, MobilitySimulator};
//! use dmra_sim::ScenarioConfig;
//!
//! let config = MobilityConfig {
//!     scenario: ScenarioConfig::paper_defaults().with_ues(100),
//!     speed_mps: (1.0, 2.0),
//!     epoch_seconds: 10.0,
//!     epochs: 5,
//!     seed: 3,
//!     policy: MobilityPolicy::FullReallocation,
//!     stationary_fraction: 0.0,
//! };
//! let outcome = MobilitySimulator::new(config).run()?;
//! assert_eq!(outcome.served_timeline.len(), 5);
//! # Ok::<(), dmra_types::Error>(())
//! ```

use crate::config::ScenarioConfig;
use crate::dynamic::{push_budget_aux, push_common_aux, AuxCounters};
use dmra_core::{
    Allocation, Allocator, Budgets, CandidateScan, DeploymentContext, Dmra, PriceMemo,
    ProblemInstance,
};
use dmra_geo::rng::component_rng;
use dmra_obs::{EpochObserver, EpochRecord};
use dmra_types::{Error, Money, Point, Rect, Result, UeId, UeSpec};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// How the allocation is recomputed as UEs move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MobilityPolicy {
    /// Re-run the allocator on the whole population every epoch — the
    /// paper's "recalculate the preference relationship during each
    /// iteration" reading. Maximises profit, pays the full handover churn.
    #[default]
    FullReallocation,
    /// Keep every existing assignment whose link is still feasible (the UE
    /// is still in coverage and the new RRB demand still fits); re-match
    /// only the broken ones against the residual capacity. Fewer
    /// handovers, possibly lower profit — the classical mobility
    /// trade-off.
    Sticky,
}

/// Configuration of a mobility run.
#[derive(Debug, Clone)]
pub struct MobilityConfig {
    /// Deployment, workload distributions and the UE population size
    /// (`n_ues` is honoured here, unlike in the arrival simulator).
    pub scenario: ScenarioConfig,
    /// UE speed range in meters/second (random per UE, fixed for the run).
    pub speed_mps: (f64, f64),
    /// Wall-clock seconds per epoch (distance moved = speed × this).
    pub epoch_seconds: f64,
    /// Number of epochs to simulate.
    pub epochs: usize,
    /// Seed for waypoints and speeds.
    pub seed: u64,
    /// Reallocation policy.
    pub policy: MobilityPolicy,
    /// Fraction of the population pinned in place (speed forced to zero;
    /// must be in `[0, 1]`). Models the static-majority regime of real
    /// cells — and the regime the cross-epoch row cache accelerates.
    /// Speeds are zeroed *after* all kinematics are drawn, so turning the
    /// knob never perturbs the mobile UEs' random streams.
    pub stationary_fraction: f64,
}

/// Aggregate results of a mobility run.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityOutcome {
    /// Serving-BS changes between consecutive epochs (UE served in both).
    pub handovers: u64,
    /// Served → cloud transitions.
    pub drops: u64,
    /// Cloud → served transitions.
    pub recoveries: u64,
    /// Edge-served count per epoch.
    pub served_timeline: Vec<usize>,
    /// Total profit per epoch (each epoch's full re-allocation).
    pub profit_timeline: Vec<Money>,
}

impl MobilityOutcome {
    /// Handovers per served-UE-epoch — the mobility cost figure.
    #[must_use]
    pub fn handover_rate(&self) -> f64 {
        let served_epochs: usize = self.served_timeline.iter().sum();
        if served_epochs == 0 {
            return 0.0;
        }
        self.handovers as f64 / served_epochs as f64
    }
}

/// Per-UE kinematic state.
#[derive(Debug, Clone, Copy)]
struct Kinematics {
    waypoint: Point,
    speed: f64,
}

/// The mobility simulator.
pub struct MobilitySimulator {
    config: MobilityConfig,
    allocator: Box<dyn Allocator>,
    observer: Option<Arc<dyn EpochObserver>>,
}

impl std::fmt::Debug for MobilitySimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobilitySimulator")
            .field("config", &self.config)
            .field("allocator", &self.allocator.name())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl MobilitySimulator {
    /// Creates a simulator matching with DMRA.
    #[must_use]
    pub fn new(config: MobilityConfig) -> Self {
        Self {
            config,
            allocator: Box::new(Dmra::default()),
            observer: None,
        }
    }

    /// Replaces the per-epoch matcher (default: [`Dmra`]). Both engines
    /// drive the allocator through one [`Allocator::session`] per run.
    #[must_use]
    pub fn with_allocator(mut self, allocator: Box<dyn Allocator>) -> Self {
        self.allocator = allocator;
        self
    }

    /// Attaches an [`EpochObserver`] receiving one `"mobility.epoch"`
    /// record per epoch from every engine (falls back to the
    /// process-wide [`dmra_obs::set_epoch_observer`] slot when unset).
    /// Observe-only — outcomes stay bit-identical.
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<dyn EpochObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs the simulation on the incremental engine: one epoch-persistent
    /// [`DeploymentContext`] with the cross-epoch row cache and batched
    /// link evaluation over pruned candidate slices, rebuilding each
    /// epoch's rows serially on the calling thread. The set-up builds the
    /// deployment without UEs; epoch 0 builds the first candidate rows.
    ///
    /// Bit-identical to [`MobilitySimulator::run_scratch`] — same
    /// allocations, same timelines, same counters.
    ///
    /// # Errors
    ///
    /// Propagates scenario/instance build errors — a pricing margin that
    /// fails at the initial UE distances surfaces from epoch 0's build,
    /// before any record — and rejects a `stationary_fraction` outside
    /// `[0, 1]`.
    pub fn run(&self) -> Result<MobilityOutcome> {
        let cfg = &self.config;
        let (deployment, mut ues) = self.deployment_and_population()?;
        let region = cfg.scenario.region;
        let mut rng = component_rng(cfg.seed, "mobility");
        let mut kin = draw_kinematics(cfg, ues.len(), region, &mut rng)?;

        // The population never departs, so every epoch re-matches against
        // the deployment's full budgets: a table that never changes, so
        // after the first build the budget pass touches no BS and the row
        // cache is never stamped again.
        let full = deployment.budgets();
        let mut ctx = DeploymentContext::new(&deployment).with_row_cache();
        // Sticky re-matching solves against churning residual budgets, so
        // its context gets no cache — it still reuses buffers and the
        // batched kernel. It is made on the first sticky split, so the
        // other policies never make it.
        let mut res_ctx: Option<DeploymentContext> = None;
        let mut session = self.allocator.session();
        // Each UE's price on its last served link, by row generation: a
        // UE that kept its row and its BS is priced without a lookup.
        let mut prices = PriceMemo::default();

        let mut previous: Option<Allocation> = None;
        let mut outcome = empty_outcome(cfg.epochs);
        let obs_on = dmra_obs::enabled();
        let observer = self.observer.clone().or_else(dmra_obs::epoch_observer);
        let aux_counters = observer.as_ref().map(|_| AuxCounters::fetch());
        for epoch in 0..cfg.epochs {
            let epoch_started = observer.as_ref().map(|_| std::time::Instant::now());
            let aux_before = aux_counters.as_ref().map_or(0, AuxCounters::read);
            let mob_before = (outcome.handovers, outcome.drops, outcome.recoveries);
            let budget_before = ctx.budget_pass_stats();
            let cache_before = ctx.row_cache_stats().unwrap_or_default();
            let work_before = (ctx.ues_changed(), prices.lookups());
            let instance = ctx.build_epoch(full, &ues)?;
            // The timed slice covers the allocator solve including the
            // sticky residual re-match (split + residual assembly), i.e.
            // everything between having an epoch instance and having an
            // allocation.
            let solve_started = obs_on.then(std::time::Instant::now);
            let allocation = match (cfg.policy, &previous) {
                (MobilityPolicy::Sticky, Some(prev)) => {
                    let mut rem = full.clone();
                    let split = sticky_split(instance, prev, &mut rem)?;
                    match split.residual_ues(instance) {
                        None => split.kept,
                        Some(res_ues) => {
                            let residual = res_ctx
                                .get_or_insert_with(|| DeploymentContext::new(&deployment))
                                .build_epoch(&rem, &res_ues)?;
                            split.merge(session.allocate(residual))
                        }
                    }
                }
                _ => session.allocate(instance),
            };
            let solve_ns = crate::dynamic::record_solve_phase(obs_on, solve_started);
            debug_assert!(allocation.validate(instance).is_ok());
            let profit = instance
                .profit_report_with(&allocation, &mut prices)
                .total_profit();
            account_epoch(
                &mut outcome,
                instance,
                &allocation,
                previous.as_ref(),
                profit,
            );
            if let (Some(obs), Some(counters)) = (&observer, &aux_counters) {
                let (hits, misses) = ctx.row_cache_stats().unwrap_or_default();
                let record = push_common_aux(
                    mobility_det_record(epoch, &outcome, mob_before, allocation.digest()),
                    elapsed_ns(epoch_started),
                    solve_ns,
                    (hits - cache_before.0, misses - cache_before.1),
                    counters,
                    aux_before,
                );
                let record = push_budget_aux(record, &ctx, budget_before)
                    .aux("ues_changed", ctx.ues_changed() - work_before.0)
                    .aux("price_lookups", prices.lookups() - work_before.1);
                obs.on_record(&record);
            }
            previous = Some(allocation);
            advance_waypoints(&mut ues, &mut kin, region, cfg.epoch_seconds, &mut rng);
        }
        Ok(outcome)
    }

    /// Runs the simulation on the executable-specification engine: a full
    /// [`ProblemInstance`] rebuild per epoch with the exhaustive O(U×B)
    /// candidate scan and the scalar link evaluator — no pruning, no
    /// batching, no caching. This is the loop [`MobilitySimulator::run`]
    /// is proven against.
    ///
    /// # Errors
    ///
    /// Same as [`MobilitySimulator::run`].
    pub fn run_scratch(&self) -> Result<MobilityOutcome> {
        let cfg = &self.config;
        let (deployment, mut ues) = self.deployment_and_population()?;
        let region = cfg.scenario.region;
        let mut rng = component_rng(cfg.seed, "mobility");
        let mut kin = draw_kinematics(cfg, ues.len(), region, &mut rng)?;

        let mut session = self.allocator.session();
        let mut previous: Option<Allocation> = None;
        let mut outcome = empty_outcome(cfg.epochs);
        let obs_on = dmra_obs::enabled();
        let observer = self.observer.clone().or_else(dmra_obs::epoch_observer);
        let aux_counters = observer.as_ref().map(|_| AuxCounters::fetch());
        for epoch in 0..cfg.epochs {
            let epoch_started = observer.as_ref().map(|_| std::time::Instant::now());
            let aux_before = aux_counters.as_ref().map_or(0, AuxCounters::read);
            let mob_before = (outcome.handovers, outcome.drops, outcome.recoveries);
            let instance = ProblemInstance::build_with_scan(
                deployment.sps().to_vec(),
                deployment.bss().to_vec(),
                ues.clone(),
                deployment.catalog(),
                *deployment.pricing(),
                *deployment.radio(),
                deployment.coverage(),
                CandidateScan::Exhaustive,
            )?;
            let solve_started = obs_on.then(std::time::Instant::now);
            let allocation = match (cfg.policy, &previous) {
                (MobilityPolicy::Sticky, Some(prev)) => {
                    let mut rem = instance.budgets().clone();
                    let split = sticky_split(&instance, prev, &mut rem)?;
                    match split.residual_ues(&instance) {
                        None => split.kept,
                        Some(res_ues) => {
                            let residual =
                                instance.residual_with(&rem, res_ues, CandidateScan::Exhaustive)?;
                            split.merge(session.allocate(&residual))
                        }
                    }
                }
                _ => session.allocate(&instance),
            };
            let solve_ns = crate::dynamic::record_solve_phase(obs_on, solve_started);
            debug_assert!(allocation.validate(&instance).is_ok());
            let profit = instance.total_profit(&allocation);
            account_epoch(
                &mut outcome,
                &instance,
                &allocation,
                previous.as_ref(),
                profit,
            );
            if let (Some(obs), Some(counters)) = (&observer, &aux_counters) {
                let record = push_common_aux(
                    mobility_det_record(epoch, &outcome, mob_before, allocation.digest()),
                    elapsed_ns(epoch_started),
                    solve_ns,
                    (0, 0),
                    counters,
                    aux_before,
                );
                obs.on_record(&record);
            }
            previous = Some(allocation);
            advance_waypoints(&mut ues, &mut kin, region, cfg.epoch_seconds, &mut rng);
        }
        Ok(outcome)
    }

    /// Both engines' set-up: the scenario's deployment built without UEs
    /// (so no candidate row is built before epoch 0) and the population
    /// drawn from the same streams a full build would use.
    fn deployment_and_population(&self) -> Result<(ProblemInstance, Vec<UeSpec>)> {
        let scenario = &self.config.scenario;
        let deployment = scenario.clone().with_ues(0).build()?;
        Ok((deployment, scenario.draw_ues()))
    }
}

/// Builds the engine-independent `det` section of a `"mobility.epoch"`
/// flight record. Both mobility loops go through this one helper so
/// field order and content are byte-identical across them.
/// Counters are per-epoch deltas against the `before` reading of
/// `(handovers, drops, recoveries)`; `digest` is the epoch allocation's
/// [`Allocation::digest`].
fn mobility_det_record(
    epoch: usize,
    outcome: &MobilityOutcome,
    before: (u64, u64, u64),
    digest: u64,
) -> EpochRecord {
    EpochRecord::new("mobility.epoch", epoch as u64)
        .det(
            "served",
            outcome.served_timeline.last().copied().unwrap_or(0),
        )
        .det("handovers", outcome.handovers - before.0)
        .det("drops", outcome.drops - before.1)
        .det("recoveries", outcome.recoveries - before.2)
        .det(
            "profit",
            outcome.profit_timeline.last().map_or(0.0, |p| p.get()),
        )
        .det("digest", digest)
}

fn elapsed_ns(started: Option<std::time::Instant>) -> u64 {
    started.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

fn empty_outcome(epochs: usize) -> MobilityOutcome {
    MobilityOutcome {
        handovers: 0,
        drops: 0,
        recoveries: 0,
        served_timeline: Vec::with_capacity(epochs),
        profit_timeline: Vec::with_capacity(epochs),
    }
}

/// Draws every UE's waypoint and speed, then pins the first
/// `⌊stationary_fraction · n⌋` UEs in place. Zeroing after drawing keeps
/// the RNG stream identical for every fraction, so the mobile UEs'
/// trajectories never depend on how many neighbours are pinned.
fn draw_kinematics(
    cfg: &MobilityConfig,
    n_ues: usize,
    region: Rect,
    rng: &mut StdRng,
) -> Result<Vec<Kinematics>> {
    let f = cfg.stationary_fraction;
    if !(0.0..=1.0).contains(&f) {
        return Err(Error::InvalidConfig(format!(
            "stationary fraction must be in [0, 1], got {f}"
        )));
    }
    let (slo, shi) = cfg.speed_mps;
    let mut kin: Vec<Kinematics> = (0..n_ues)
        .map(|_| Kinematics {
            waypoint: random_point(region, rng),
            speed: if shi > slo {
                rng.random_range(slo..=shi)
            } else {
                slo
            },
        })
        .collect();
    let pinned = (f * n_ues as f64).floor() as usize;
    for k in kin.iter_mut().take(pinned.min(n_ues)) {
        k.speed = 0.0;
    }
    Ok(kin)
}

/// Advances the random-waypoint kinematics by one epoch. Pinned UEs
/// (speed zero) consume no RNG draws, so their cached candidate rows stay
/// valid epoch after epoch.
fn advance_waypoints(
    ues: &mut [UeSpec],
    kin: &mut [Kinematics],
    region: Rect,
    epoch_seconds: f64,
    rng: &mut StdRng,
) {
    for (ue, k) in ues.iter_mut().zip(kin.iter_mut()) {
        let mut budget = k.speed * epoch_seconds;
        while budget > 0.0 {
            let to_target = ue.position.distance(k.waypoint).get();
            if to_target <= budget {
                ue.position = k.waypoint;
                budget -= to_target;
                k.waypoint = random_point(region, rng);
                if to_target == 0.0 {
                    break;
                }
            } else {
                let frac = budget / to_target;
                ue.position = Point::new(
                    ue.position.x + (k.waypoint.x - ue.position.x) * frac,
                    ue.position.y + (k.waypoint.y - ue.position.y) * frac,
                );
                budget = 0.0;
            }
        }
    }
}

/// Updates the outcome counters and timelines with one epoch's allocation
/// and its total profit.
fn account_epoch(
    outcome: &mut MobilityOutcome,
    instance: &ProblemInstance,
    allocation: &Allocation,
    previous: Option<&Allocation>,
    profit: Money,
) {
    outcome.served_timeline.push(allocation.edge_served());
    outcome.profit_timeline.push(profit);
    if let Some(prev) = previous {
        for ue in instance.ues() {
            match (prev.bs_of(ue.id), allocation.bs_of(ue.id)) {
                (Some(a), Some(b)) if a != b => outcome.handovers += 1,
                (Some(_), None) => outcome.drops += 1,
                (None, Some(_)) => outcome.recoveries += 1,
                _ => {}
            }
        }
    }
}

/// The sticky policy's split of one epoch: kept assignments and the UEs
/// that need re-matching.
struct StickySplit {
    kept: Allocation,
    rematch: Vec<UeId>,
}

impl StickySplit {
    /// The broken UEs renumbered densely for the residual solve, or
    /// `None` when every assignment was kept.
    fn residual_ues(&self, instance: &ProblemInstance) -> Option<Vec<UeSpec>> {
        if self.rematch.is_empty() {
            return None;
        }
        Some(
            self.rematch
                .iter()
                .enumerate()
                .map(|(new_id, &old)| {
                    let mut spec = instance.ues()[old.as_usize()];
                    spec.id = UeId::new(new_id as u32);
                    spec
                })
                .collect(),
        )
    }

    /// Folds the residual solve's assignments back onto the original ids.
    fn merge(mut self, residual_alloc: Allocation) -> Allocation {
        for (new_id, &old) in self.rematch.iter().enumerate() {
            if let Some(bs) = residual_alloc.bs_of(UeId::new(new_id as u32)) {
                self.kept.assign(old, bs);
            }
        }
        self.kept
    }
}

/// Keeps every feasible previous assignment, taking its budgets from
/// `budgets` (the full budgets on entry), and collects the broken UEs for
/// re-matching.
///
/// # Errors
///
/// [`Error::OverCommit`] if a take exceeds what its BS has left, which
/// the fit check before it rules out.
fn sticky_split(
    instance: &ProblemInstance,
    previous: &Allocation,
    budgets: &mut Budgets,
) -> Result<StickySplit> {
    let mut kept = Allocation::all_cloud(instance.n_ues());
    let mut rematch: Vec<UeId> = Vec::new();
    for ue in instance.ues() {
        let Some(bs) = previous.bs_of(ue.id) else {
            rematch.push(ue.id);
            continue;
        };
        // The UE moved: its link may have left coverage or grown too
        // expensive in RRBs.
        let keepable = instance
            .link(ue.id, bs)
            .filter(|link| budgets.fits(bs, ue.service, ue.cru_demand, link.n_rrbs));
        match keepable {
            Some(link) => {
                budgets.take(bs, ue.service, ue.cru_demand, link.n_rrbs)?;
                kept.assign(ue.id, bs);
            }
            None => rematch.push(ue.id),
        }
    }
    Ok(StickySplit { kept, rematch })
}

fn random_point(region: Rect, rng: &mut StdRng) -> Point {
    Point::new(
        rng.random_range(region.min.x..=region.max.x),
        rng.random_range(region.min.y..=region.max.y),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(speed: (f64, f64), epochs: usize, seed: u64) -> MobilityConfig {
        MobilityConfig {
            scenario: ScenarioConfig::paper_defaults().with_ues(150),
            speed_mps: speed,
            epoch_seconds: 10.0,
            epochs,
            seed,
            policy: MobilityPolicy::FullReallocation,
            stationary_fraction: 0.0,
        }
    }

    #[test]
    fn run_is_deterministic() {
        let a = MobilitySimulator::new(config((1.0, 3.0), 6, 1))
            .run()
            .unwrap();
        let b = MobilitySimulator::new(config((1.0, 3.0), 6, 1))
            .run()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stationary_ues_never_hand_over() {
        let out = MobilitySimulator::new(config((0.0, 0.0), 8, 2))
            .run()
            .unwrap();
        assert_eq!(out.handovers, 0);
        assert_eq!(out.drops, 0);
        assert_eq!(out.recoveries, 0);
        // The allocation is identical each epoch (deterministic matcher on
        // identical input), so the timeline is flat.
        assert!(out.served_timeline.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn stationary_fraction_pins_ues_without_perturbing_the_rest() {
        // A fully-stationary run behaves like a zero-speed run, and an
        // out-of-range fraction is rejected up front.
        let mut cfg = config((5.0, 10.0), 6, 9);
        cfg.stationary_fraction = 1.0;
        let pinned = MobilitySimulator::new(cfg.clone()).run().unwrap();
        assert_eq!(pinned.handovers, 0);
        assert_eq!(pinned.drops, 0);
        cfg.stationary_fraction = 0.5;
        let half = MobilitySimulator::new(cfg.clone()).run().unwrap();
        let mut free = cfg.clone();
        free.stationary_fraction = 0.0;
        let free = MobilitySimulator::new(free).run().unwrap();
        // Pinning half the population cannot increase mobility churn.
        assert!(half.handovers + half.drops <= free.handovers + free.drops);
        cfg.stationary_fraction = 1.5;
        assert!(MobilitySimulator::new(cfg).run().is_err());
    }

    #[test]
    fn faster_ues_hand_over_more() {
        let slow = MobilitySimulator::new(config((0.5, 1.0), 10, 3))
            .run()
            .unwrap();
        let fast = MobilitySimulator::new(config((20.0, 30.0), 10, 3))
            .run()
            .unwrap();
        assert!(
            fast.handovers > slow.handovers,
            "fast {} vs slow {}",
            fast.handovers,
            slow.handovers
        );
        assert!(fast.handover_rate() > slow.handover_rate());
    }

    #[test]
    fn timeline_lengths_match_epochs() {
        let out = MobilitySimulator::new(config((2.0, 4.0), 7, 4))
            .run()
            .unwrap();
        assert_eq!(out.served_timeline.len(), 7);
        assert_eq!(out.profit_timeline.len(), 7);
        assert!(out.profit_timeline.iter().all(|p| p.get() >= 0.0));
    }

    #[test]
    fn sticky_policy_reduces_handovers() {
        let mut full_cfg = config((15.0, 20.0), 12, 6);
        full_cfg.scenario = full_cfg.scenario.with_ues(400); // contended
        let mut sticky_cfg = full_cfg.clone();
        sticky_cfg.policy = MobilityPolicy::Sticky;
        let full = MobilitySimulator::new(full_cfg).run().unwrap();
        let sticky = MobilitySimulator::new(sticky_cfg).run().unwrap();
        assert!(
            sticky.handovers < full.handovers,
            "sticky {} vs full {}",
            sticky.handovers,
            full.handovers
        );
        // The profit cost of stickiness is bounded: the kept links were
        // chosen by DMRA recently and remain candidates.
        let full_profit: f64 = full.profit_timeline.iter().map(|p| p.get()).sum();
        let sticky_profit: f64 = sticky.profit_timeline.iter().map(|p| p.get()).sum();
        assert!(
            sticky_profit > 0.8 * full_profit,
            "sticky profit {sticky_profit} collapsed vs {full_profit}"
        );
    }

    #[test]
    fn sticky_allocations_stay_valid() {
        let mut cfg = config((25.0, 30.0), 10, 7);
        cfg.policy = MobilityPolicy::Sticky;
        // Runs with debug_assert validation inside; reaching here with a
        // consistent timeline is the test.
        let out = MobilitySimulator::new(cfg).run().unwrap();
        assert_eq!(out.served_timeline.len(), 10);
    }

    #[test]
    fn drops_and_recoveries_roughly_balance_in_steady_state() {
        // With a fixed population the served count is roughly stationary,
        // so cumulative drops and recoveries cannot diverge by more than
        // the served-count range.
        let out = MobilitySimulator::new(config((10.0, 15.0), 20, 5))
            .run()
            .unwrap();
        let max = *out.served_timeline.iter().max().unwrap() as i64;
        let min = *out.served_timeline.iter().min().unwrap() as i64;
        let imbalance = (out.drops as i64 - out.recoveries as i64).abs();
        assert!(
            imbalance <= (max - min) + 1,
            "drops {} vs recoveries {} with served range {}..{}",
            out.drops,
            out.recoveries,
            min,
            max
        );
    }

    #[test]
    fn margin_failing_at_the_initial_distances_fails_epoch_zero() {
        // Paper pricing: the worst cross-SP price is 6.0 within 1 m and
        // about 6.12 at 300 m, so an SP gross margin of 6.05 passes the
        // zero-UE set-up build and fails at the first epoch's candidate
        // distances — with the error a full build of the scenario raises,
        // and before any epoch is recorded.
        struct Count(std::sync::atomic::AtomicUsize);
        impl EpochObserver for Count {
            fn on_record(&self, _: &EpochRecord) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let mut cfg = config((5.0, 10.0), 4, 2);
        cfg.scenario.sp_cru_price = Money::new(7.05);
        cfg.scenario.sp_other_cost = Money::new(1.0);
        cfg.scenario.clone().with_ues(0).build().unwrap();
        let full_build = cfg.scenario.build().unwrap_err();
        assert!(
            matches!(full_build, Error::UnprofitablePricing { .. }),
            "{full_build}"
        );
        let records = Arc::new(Count(std::sync::atomic::AtomicUsize::new(0)));
        let sim = MobilitySimulator::new(cfg)
            .with_observer(Arc::clone(&records) as Arc<dyn EpochObserver>);
        assert_eq!(sim.run().unwrap_err(), full_build);
        assert_eq!(sim.run_scratch().unwrap_err(), full_build);
        assert_eq!(records.0.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn budget_pass_touches_no_bs_after_the_first_epoch() {
        // The population never departs, so every epoch builds against the
        // deployment's unchanging budgets: the first build compares every
        // BS (and patches none), every later one compares and patches
        // none, under both policies.
        struct BudgetAux(std::sync::Mutex<Vec<(u64, u64)>>);
        impl EpochObserver for BudgetAux {
            fn on_record(&self, record: &EpochRecord) {
                let get = |key: &str| match record.aux.iter().find(|(k, _)| *k == key) {
                    Some((_, dmra_obs::FieldValue::U64(v))) => *v,
                    other => panic!("{key}: {other:?}"),
                };
                let pass = (get("budget_bss_compared"), get("budget_bss_patched"));
                self.0.lock().unwrap().push(pass);
            }
        }
        let n_bss = ScenarioConfig::paper_defaults().n_bss() as u64;
        for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
            let mut cfg = config((15.0, 20.0), 6, 8);
            cfg.policy = policy;
            let aux = Arc::new(BudgetAux(std::sync::Mutex::new(Vec::new())));
            MobilitySimulator::new(cfg)
                .with_observer(Arc::clone(&aux) as Arc<dyn EpochObserver>)
                .run()
                .unwrap();
            let passes = aux.0.lock().unwrap().clone();
            assert_eq!(passes.len(), 6);
            assert_eq!(passes[0], (n_bss, 0), "{policy:?}");
            assert!(
                passes[1..].iter().all(|&p| p == (0, 0)),
                "{policy:?}: {passes:?}"
            );
        }
    }

    #[test]
    fn flight_record_counts_row_cache_traffic_with_telemetry_off() {
        // The aux row-cache fields come from the run's own context, so
        // they hold whether or not telemetry is on (this binary leaves it
        // off): epoch 0 misses every row, and later epochs hit the rows
        // of the pinned 90%.
        struct CacheAux(std::sync::Mutex<Vec<(u64, u64)>>);
        impl EpochObserver for CacheAux {
            fn on_record(&self, record: &EpochRecord) {
                let get = |key: &str| match record.aux.iter().find(|(k, _)| *k == key) {
                    Some((_, dmra_obs::FieldValue::U64(v))) => *v,
                    other => panic!("{key}: {other:?}"),
                };
                let traffic = (get("row_cache_hits"), get("row_cache_misses"));
                self.0.lock().unwrap().push(traffic);
            }
        }
        for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
            let mut cfg = config((5.0, 10.0), 5, 12);
            cfg.scenario = cfg.scenario.with_ues(200);
            cfg.stationary_fraction = 0.9;
            cfg.policy = policy;
            let aux = Arc::new(CacheAux(std::sync::Mutex::new(Vec::new())));
            MobilitySimulator::new(cfg)
                .with_observer(Arc::clone(&aux) as Arc<dyn EpochObserver>)
                .run()
                .unwrap();
            let traffic = aux.0.lock().unwrap().clone();
            assert_eq!(traffic.len(), 5);
            assert_eq!(traffic[0], (0, 200), "{policy:?}");
            for &(hits, misses) in &traffic[1..] {
                assert_eq!(hits + misses, 200, "{policy:?}: {traffic:?}");
                assert!(hits >= 180, "{policy:?}: {traffic:?}");
            }
        }
    }

    #[test]
    fn scratch_engine_matches_incremental_at_unit_scale() {
        // The cross-engine sweep lives in tests/mobility_incremental.rs;
        // this is the fast in-crate smoke for both policies.
        for policy in [MobilityPolicy::FullReallocation, MobilityPolicy::Sticky] {
            let mut cfg = config((8.0, 16.0), 5, 11);
            cfg.policy = policy;
            cfg.stationary_fraction = 0.4;
            let sim = MobilitySimulator::new(cfg);
            assert_eq!(sim.run().unwrap(), sim.run_scratch().unwrap());
        }
    }
}
