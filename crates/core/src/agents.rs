//! The message-passing execution of Algorithm 1.
//!
//! The paper calls DMRA *decentralized*: UEs, SPs and BSs exchange service
//! requests, accept notifications and resource broadcasts until no UE has a
//! request left. This module runs exactly that protocol on the
//! [`dmra_proto::RoundEngine`]:
//!
//! * [`UeAgent`] holds only its own spec, its candidate links and a *local
//!   view* of each candidate BS's remaining resources (updated from
//!   broadcasts). It proposes to the BS minimising Eq. (17) under that
//!   view, prunes candidates its view says can never fit it, and falls
//!   back to the cloud when the candidate set empties.
//! * [`BsAgent`] holds its own budgets. Each round it groups incoming
//!   service requests by service, picks one winner per service (same-SP
//!   first, then smallest `f_u`, then smallest footprint), applies the
//!   RRB admission step, sends `Accept` to winners and broadcasts its
//!   remaining resources to every UE it covers (line 26 of Algorithm 1).
//!
//! Both sides score with the centralized matcher's functions: a UE ranks
//! its view by the same Eq. (17) value through [`crate::matching::arg_min`],
//! and a BS ranks proposers by the same [`crate::matching::bs_key`].
//!
//! **Equivalence.** Under reliable delivery each protocol round pair
//! (propose round + respond round) computes exactly one iteration of the
//! centralized matcher on identical information: a UE's candidates are a
//! subset of the BSs that cover it, so every resource change it could act
//! on reaches it before its next proposal. The workspace integration tests
//! assert bit-identical allocations against [`crate::Dmra`].
//!
//! **Fault tolerance.** With a lossy [`DropPolicy`] the protocol remains
//! safe (BSs are authoritative for resource accounting, so no budget is
//! ever exceeded) and mostly live: a UE that waits two consecutive silent
//! rounds re-sends its proposal, and after three unanswered retries to the
//! same BS it declares the BS dead and prunes it — which is what lets the
//! protocol route around fail-stopped BSs (see
//! [`dmra_proto::RoundEngine::crash_at`]). A lost `Accept` can leave a BS
//! reserving resources for a UE that re-attached elsewhere; the harvest
//! step keeps the BS-side record made first and reports such conflicts in
//! [`DecentralizedOutcome::conflicting_accepts`].

use crate::allocation::Allocation;
use crate::budgets::Budgets;
use crate::dmra::{ue_preference, DmraConfig};
use crate::instance::{CandidateLink, ProblemInstance};
use crate::matching;
use dmra_proto::{
    Address, Agent, DelayModel, DropPolicy, Envelope, MessageKind, Outbox, RoundEngine, RunStats,
};
use dmra_types::{BsId, Cru, Result, RrbCount, ServiceId, SpId, UeId};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// The DMRA protocol message vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum DmraMsg {
    /// UE → BS (lines 6–7): "serve my task". Carries everything the BS
    /// needs for its preference: the requested service, the UE's SP, its
    /// coverage count `f_u`, and its CRU/RRB demands at this BS.
    ServiceRequest {
        /// The requested service `j`.
        service: ServiceId,
        /// The SP the UE subscribes to.
        sp: SpId,
        /// `f_u`: how many BSs could serve this UE.
        f_u: u32,
        /// `c_j^u`: CRU demand.
        cru_demand: Cru,
        /// `n_{u,i}`: RRB demand at the receiving BS.
        n_rrbs: RrbCount,
    },
    /// BS → UE: the proposal was accepted; the UE is served.
    Accept,
    /// BS → covered UEs (line 26): remaining per-service CRUs and RRBs.
    ResourceUpdate {
        /// Remaining CRUs per service at the sender.
        rem_cru: Vec<Cru>,
        /// Remaining RRBs at the sender.
        rem_rrb: RrbCount,
    },
    /// UE → cloud: no BS can serve the task (line 1 / emptied `B_u`).
    CloudForward,
}

impl MessageKind for DmraMsg {
    fn kind(&self) -> &'static str {
        match self {
            DmraMsg::ServiceRequest { .. } => "service-request",
            DmraMsg::Accept => "accept",
            DmraMsg::ResourceUpdate { .. } => "resource-update",
            DmraMsg::CloudForward => "cloud-forward",
        }
    }

    /// Wire sizes assume 4-byte ids/counts plus a 16-byte header.
    fn size_bytes(&self) -> usize {
        match self {
            // service + sp + f_u + cru + rrbs = 5 fields.
            DmraMsg::ServiceRequest { .. } => 16 + 5 * 4,
            DmraMsg::Accept | DmraMsg::CloudForward => 16,
            // One CRU count per service plus the RRB count.
            DmraMsg::ResourceUpdate { rem_cru, .. } => 16 + 4 * (rem_cru.len() + 1),
        }
    }
}

/// A shared, single-threaded assignment board the BS agents write accepted
/// pairs onto. First write wins; later conflicting writes are counted.
/// It also keeps the BSs' budgets in one table, of which each agent reads
/// and writes only its own BS's entries: its local state.
type Board = Rc<RefCell<BoardState>>;

#[derive(Debug)]
pub(crate) struct BoardState {
    assigned: Vec<Option<BsId>>,
    conflicts: u64,
    budgets: Budgets,
}

/// The local view a UE keeps of one candidate BS.
#[derive(Debug, Clone, Copy)]
struct CandidateView {
    link: CandidateLink,
    rem_cru: Cru,
    rem_rrb: RrbCount,
}

/// The UE side of the protocol.
#[derive(Debug)]
pub struct UeAgent {
    id: UeId,
    service: ServiceId,
    sp: SpId,
    f_u: u32,
    cru_demand: Cru,
    rho: f64,
    candidates: Vec<CandidateView>,
    assigned: bool,
    cloud_announced: bool,
    awaiting: Option<BsId>,
    silent_rounds: u32,
    /// Consecutive unanswered proposals to the currently awaited BS; at
    /// three the BS is presumed crashed and pruned.
    retries_on_awaited: u32,
}

impl UeAgent {
    /// Builds the agent for `ue` from the instance (its spec, candidates
    /// and the initial — exact — resource view).
    ///
    /// # Panics
    ///
    /// Panics if `ue` is not part of the instance.
    #[must_use]
    pub fn new(instance: &ProblemInstance, ue: UeId, config: &DmraConfig) -> Self {
        let spec = &instance.ues()[ue.as_usize()];
        let candidates = instance
            .candidates(ue)
            .iter()
            .map(|&link| CandidateView {
                link,
                rem_cru: instance.budgets().cru(link.bs, spec.service),
                rem_rrb: instance.budgets().rrb(link.bs),
            })
            .collect();
        Self {
            id: ue,
            service: spec.service,
            sp: spec.sp,
            f_u: instance.f_u(ue),
            cru_demand: spec.cru_demand,
            rho: config.rho,
            candidates,
            assigned: false,
            cloud_announced: false,
            awaiting: None,
            silent_rounds: 0,
            retries_on_awaited: 0,
        }
    }

    /// Picks the best candidate under the local view (Eq. (17)), pruning
    /// candidates whose viewed resources can never fit this UE.
    fn propose(&mut self, out: &mut Outbox<DmraMsg>) {
        loop {
            let scored = self.candidates.iter().map(|c| {
                let v = ue_preference(self.rho, &c.link, c.rem_cru, c.rem_rrb);
                (v, c.link.bs)
            });
            let Some(best) = matching::arg_min(scored) else {
                if !self.cloud_announced {
                    self.cloud_announced = true;
                    out.send(Address::Cloud, DmraMsg::CloudForward);
                }
                return;
            };
            let cand = self.candidates[best];
            if cand.rem_cru >= self.cru_demand && cand.rem_rrb >= cand.link.n_rrbs {
                self.awaiting = Some(cand.link.bs);
                self.silent_rounds = 0;
                out.send(
                    Address::Bs(cand.link.bs),
                    DmraMsg::ServiceRequest {
                        service: self.service,
                        sp: self.sp,
                        f_u: self.f_u,
                        cru_demand: self.cru_demand,
                        n_rrbs: cand.link.n_rrbs,
                    },
                );
                return;
            }
            // Line 10: resources never grow — prune permanently.
            self.candidates.remove(best);
        }
    }

    /// Whether this agent ended the run attached to a BS.
    #[must_use]
    pub fn is_assigned(&self) -> bool {
        self.assigned
    }
}

impl Agent<DmraMsg> for UeAgent {
    fn address(&self) -> Address {
        Address::Ue(self.id)
    }

    fn on_round(&mut self, inbox: &[Envelope<DmraMsg>], out: &mut Outbox<DmraMsg>) {
        for env in inbox {
            match &env.msg {
                DmraMsg::Accept => {
                    self.assigned = true;
                    self.awaiting = None;
                }
                DmraMsg::ResourceUpdate { rem_cru, rem_rrb } => {
                    let Address::Bs(bs) = env.from else { continue };
                    for c in &mut self.candidates {
                        if c.link.bs == bs {
                            c.rem_cru = rem_cru
                                .get(self.service.as_usize())
                                .copied()
                                .unwrap_or(Cru::ZERO);
                            c.rem_rrb = *rem_rrb;
                        }
                    }
                    // An update from the BS we proposed to, without an
                    // Accept in the same inbox, is a rejection.
                    if self.awaiting == Some(bs) && !self.assigned {
                        self.awaiting = None;
                        self.retries_on_awaited = 0;
                    }
                }
                DmraMsg::ServiceRequest { .. } | DmraMsg::CloudForward => {}
            }
        }
        if self.assigned || self.cloud_announced {
            return;
        }
        match self.awaiting {
            None => self.propose(out),
            Some(bs) if inbox.is_empty() => {
                // Timeout: the proposal or its response was lost. One
                // silent round is normal pipelining; two means loss.
                self.silent_rounds += 1;
                if self.silent_rounds >= 2 {
                    self.retries_on_awaited += 1;
                    if self.retries_on_awaited >= 3 {
                        // Presume the BS crashed; never propose to it
                        // again (fail-stop assumption).
                        self.candidates.retain(|c| c.link.bs != bs);
                        self.retries_on_awaited = 0;
                    }
                    self.awaiting = None;
                    self.propose(out);
                }
            }
            Some(_) => {}
        }
    }
}

/// The BS side of the protocol.
#[derive(Debug)]
pub struct BsAgent {
    id: BsId,
    sp: SpId,
    covered: Vec<UeId>,
    same_sp_preference: bool,
    /// UEs this BS already committed resources to. Duplicate requests
    /// (possible under delays/timeouts) are answered with an idempotent
    /// re-`Accept` instead of a double commitment.
    served: HashSet<UeId>,
    board: Board,
}

impl BsAgent {
    /// Builds the agent for `bs` from the instance, broadcasting to
    /// `covered` (its entry of [`ProblemInstance::coverage_lists`]).
    /// Crate-private because the shared assignment board is an
    /// implementation detail; use [`run_protocol`] to execute the
    /// protocol.
    #[must_use]
    pub(crate) fn new(
        instance: &ProblemInstance,
        bs: BsId,
        covered: Vec<UeId>,
        config: &DmraConfig,
        board: Board,
    ) -> Self {
        Self {
            id: bs,
            sp: instance.bss()[bs.as_usize()].sp,
            covered,
            same_sp_preference: config.same_sp_preference,
            served: HashSet::new(),
            board,
        }
    }
}

/// A proposer as seen by the BS (decoded from its `ServiceRequest`).
#[derive(Debug, Clone, Copy)]
struct Proposer {
    ue: UeId,
    service: ServiceId,
    cru_demand: Cru,
    n_rrbs: RrbCount,
    /// The BS's preference for this proposer, the centralized matcher's
    /// [`matching::bs_key`]; larger is better.
    key: u128,
}

impl Agent<DmraMsg> for BsAgent {
    fn address(&self) -> Address {
        Address::Bs(self.id)
    }

    fn on_round(&mut self, inbox: &[Envelope<DmraMsg>], out: &mut Outbox<DmraMsg>) {
        let mut proposers: Vec<Proposer> = Vec::new();
        for env in inbox {
            if let DmraMsg::ServiceRequest {
                service,
                sp,
                f_u,
                cru_demand,
                n_rrbs,
            } = env.msg
            {
                let Address::Ue(ue) = env.from else { continue };
                if self.served.contains(&ue) {
                    // Duplicate (the UE timed out before our Accept landed,
                    // or the Accept was lost): re-send it, commit nothing.
                    out.send(Address::Ue(ue), DmraMsg::Accept);
                    continue;
                }
                let footprint = n_rrbs.get() + cru_demand.get();
                proposers.push(Proposer {
                    ue,
                    service,
                    cru_demand,
                    n_rrbs,
                    key: matching::bs_key(
                        self.same_sp_preference && sp == self.sp,
                        f_u,
                        footprint,
                        ue,
                    ),
                });
            }
        }
        if proposers.is_empty() {
            return;
        }

        let mut board = self.board.borrow_mut();
        let board = &mut *board;
        // Lines 13–21: one provisional winner per requested service.
        let mut services: Vec<ServiceId> = proposers.iter().map(|p| p.service).collect();
        services.sort_unstable();
        services.dedup();
        let mut winners: Vec<Proposer> = Vec::new();
        for svc in services {
            let winner = proposers
                .iter()
                .filter(|p| p.service == svc)
                // Ignore proposals the BS can no longer satisfy (stale
                // views under message loss).
                .filter(|p| board.budgets.fits(self.id, svc, p.cru_demand, p.n_rrbs))
                .max_by_key(|p| p.key)
                .copied();
            if let Some(w) = winner {
                winners.push(w);
            }
        }

        // Lines 22–25: RRB admission — drop least-preferred winners until
        // the batch fits.
        let rem_rrb = board.budgets.rrb(self.id);
        let mut total: RrbCount = winners.iter().map(|w| w.n_rrbs).sum();
        if total > rem_rrb {
            winners.sort_by_key(|w| std::cmp::Reverse(w.key));
            while total > rem_rrb {
                let dropped = winners.pop().expect("winners cannot empty before fitting");
                total -= dropped.n_rrbs;
            }
        }

        for w in &winners {
            board
                .budgets
                .take(self.id, w.service, w.cru_demand, w.n_rrbs)
                .expect("winners fit: one per service, each fits, the batch fits the RRBs");
            self.served.insert(w.ue);
            out.send(Address::Ue(w.ue), DmraMsg::Accept);
            let slot = &mut board.assigned[w.ue.as_usize()];
            if slot.is_none() {
                *slot = Some(self.id);
            } else {
                board.conflicts += 1;
            }
        }

        // Line 26: broadcast the remaining resources to covered UEs. Also
        // reaches every rejected proposer (proposers are candidates, and
        // candidates are covered), acting as the rejection signal.
        let rem_cru: Vec<Cru> = (0..board.budgets.n_svcs())
            .map(|j| board.budgets.cru(self.id, ServiceId::new(j as u32)))
            .collect();
        let rem_rrb = board.budgets.rrb(self.id);
        for &ue in &self.covered {
            out.send(
                Address::Ue(ue),
                DmraMsg::ResourceUpdate {
                    rem_cru: rem_cru.clone(),
                    rem_rrb,
                },
            );
        }
    }
}

/// The result of a decentralized run.
#[derive(Debug, Clone, PartialEq)]
pub struct DecentralizedOutcome {
    /// The assignment harvested from the BS-side records.
    pub allocation: Allocation,
    /// Engine statistics: rounds, message counts by kind, drops.
    pub stats: RunStats,
    /// Accepts that conflicted with an earlier assignment of the same UE
    /// (possible only under message loss; always 0 with reliable delivery).
    pub conflicting_accepts: u64,
}

/// Fault-injection and bounds for a protocol run.
#[derive(Debug, Clone)]
pub struct ProtocolOptions {
    /// Message-loss policy.
    pub drop_policy: DropPolicy,
    /// Delivery-delay model.
    pub delay: DelayModel,
    /// BSs that fail-stop at the given protocol round.
    pub crashed_bss: Vec<(BsId, usize)>,
    /// Round bound before declaring non-termination.
    pub max_rounds: usize,
    /// Consecutive silent rounds required before quiescence. The UE retry
    /// timeout fires after two silent rounds, so the default of 3 keeps
    /// crashed-BS failover alive; raise it when long random delays could
    /// make a retry look like silence.
    pub quiescence_grace: usize,
}

impl Default for ProtocolOptions {
    /// Reliable, immediate, crash-free, generous bound.
    fn default() -> Self {
        Self {
            drop_policy: DropPolicy::reliable(),
            delay: DelayModel::Immediate,
            crashed_bss: Vec::new(),
            max_rounds: 100_000,
            quiescence_grace: 3,
        }
    }
}

/// Runs the DMRA protocol as message-passing agents, under the loss,
/// delays and BS crashes of `options`.
///
/// With [`ProtocolOptions::default`] — reliable, immediate delivery and
/// no crash — this produces exactly the allocation of the centralized
/// [`crate::Dmra`] matcher. With a lossy policy the result is still safe
/// (validates against the instance) but may serve fewer UEs. Delays
/// exercise the UE-side retry timeout: a proposal answered after more
/// than two silent rounds is re-sent, and BSs answer duplicates with an
/// idempotent re-`Accept`.
///
/// A crashed BS stops responding; UEs that proposed to it time out, retry
/// twice, then presume it dead and fail over to their next candidate (or
/// the cloud). Resources the dead BS had already committed stay committed
/// — exactly the state a real fail-stop leaves behind.
///
/// # Errors
///
/// Returns [`dmra_types::Error::InvalidConfig`] if `ρ` fails
/// [`DmraConfig::validate`], and [`dmra_types::Error::NonTermination`] if
/// the protocol does not quiesce within `options.max_rounds`.
pub fn run_protocol(
    instance: &ProblemInstance,
    config: &DmraConfig,
    options: ProtocolOptions,
) -> Result<DecentralizedOutcome> {
    config.validate()?;
    let board: Board = Rc::new(RefCell::new(BoardState {
        assigned: vec![None; instance.n_ues()],
        conflicts: 0,
        budgets: instance.budgets().clone(),
    }));
    let max_rounds = options.max_rounds;
    let mut engine: RoundEngine<DmraMsg> = RoundEngine::with_drop_policy(options.drop_policy);
    engine.set_delay_model(options.delay);
    engine.set_quiescence_grace(options.quiescence_grace);
    for (bs, round) in options.crashed_bss {
        engine.crash_at(Address::Bs(bs), round);
    }
    for u in 0..instance.n_ues() {
        engine.register(Box::new(UeAgent::new(
            instance,
            UeId::new(u as u32),
            config,
        )));
    }
    for (i, covered) in instance.coverage_lists().into_iter().enumerate() {
        engine.register(Box::new(BsAgent::new(
            instance,
            BsId::new(i as u32),
            covered,
            config,
            Rc::clone(&board),
        )));
    }
    let stats = engine.run(max_rounds)?;
    drop(engine);
    let board = Rc::try_unwrap(board)
        .expect("engine dropped its agents, board is unique")
        .into_inner();
    Ok(DecentralizedOutcome {
        allocation: Allocation::from_assignments(board.assigned),
        stats,
        conflicting_accepts: board.conflicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::Allocator;
    use crate::dmra::Dmra;
    use crate::instance::tests::two_sp_instance;

    #[test]
    fn reliable_run_matches_centralized_matcher() {
        let inst = two_sp_instance();
        let config = DmraConfig::paper_defaults();
        let central = Dmra::new(config).allocate(&inst);
        let out = run_protocol(
            &inst,
            &config,
            ProtocolOptions {
                max_rounds: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.allocation, central);
        assert_eq!(out.conflicting_accepts, 0);
        out.allocation.validate(&inst).unwrap();
    }

    #[test]
    fn message_kinds_are_counted() {
        let inst = two_sp_instance();
        let config = DmraConfig::paper_defaults();
        let out = run_protocol(
            &inst,
            &config,
            ProtocolOptions {
                max_rounds: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.stats.by_kind.contains_key("service-request"));
        assert!(out.stats.by_kind.contains_key("accept"));
        assert!(out.stats.by_kind.contains_key("resource-update"));
        assert_eq!(out.stats.by_kind.get("accept"), Some(&2));
    }

    #[test]
    fn lossy_run_stays_safe() {
        let inst = two_sp_instance();
        let config = DmraConfig::paper_defaults();
        for seed in 0..20 {
            let out = run_protocol(
                &inst,
                &config,
                ProtocolOptions {
                    drop_policy: DropPolicy::new(0.3, seed),
                    max_rounds: 10_000,
                    ..Default::default()
                },
            )
            .unwrap();
            out.allocation.validate(&inst).unwrap();
        }
    }

    #[test]
    fn fixed_delay_runs_complete_and_validate() {
        let inst = two_sp_instance();
        let config = DmraConfig::paper_defaults();
        for extra in [1u32, 2, 4] {
            let out = run_protocol(
                &inst,
                &config,
                ProtocolOptions {
                    drop_policy: DropPolicy::reliable(),
                    delay: DelayModel::Fixed { extra },
                    max_rounds: 10_000,
                    ..Default::default()
                },
            )
            .unwrap();
            out.allocation.validate(&inst).unwrap();
            // Everything still gets served; latency only slows convergence.
            assert_eq!(out.allocation.edge_served(), 2, "extra = {extra}");
        }
    }

    #[test]
    fn random_delay_is_safe() {
        let inst = two_sp_instance();
        let config = DmraConfig::paper_defaults();
        for seed in 0..10u64 {
            let out = run_protocol(
                &inst,
                &config,
                ProtocolOptions {
                    drop_policy: DropPolicy::reliable(),
                    delay: DelayModel::Random { max_extra: 3, seed },
                    max_rounds: 10_000,
                    ..Default::default()
                },
            )
            .unwrap();
            out.allocation.validate(&inst).unwrap();
        }
    }

    #[test]
    fn delay_plus_loss_is_safe() {
        let inst = two_sp_instance();
        let config = DmraConfig::paper_defaults();
        for seed in 0..10u64 {
            let out = run_protocol(
                &inst,
                &config,
                ProtocolOptions {
                    drop_policy: DropPolicy::new(0.2, seed),
                    delay: DelayModel::Random { max_extra: 2, seed },
                    max_rounds: 10_000,
                    ..Default::default()
                },
            )
            .unwrap();
            out.allocation.validate(&inst).unwrap();
        }
    }

    #[test]
    fn crashed_bs_triggers_failover() {
        // Both UEs can reach bs0; crash it before it ever answers. UE0
        // (service 0) fails over to bs1; UE1 (service 1, which bs1 does
        // not host) ends at the cloud. The run must terminate.
        let inst = two_sp_instance();
        let config = DmraConfig::paper_defaults();
        let out = run_protocol(
            &inst,
            &config,
            ProtocolOptions {
                crashed_bss: vec![(BsId::new(0), 0)],
                ..ProtocolOptions::default()
            },
        )
        .unwrap();
        out.allocation.validate(&inst).unwrap();
        // Nobody is served by the dead BS.
        assert!(out
            .allocation
            .edge_pairs()
            .all(|(_, bs)| bs != BsId::new(0)));
        // UE0 found bs1.
        assert_eq!(out.allocation.bs_of(UeId::new(0)), Some(BsId::new(1)));
        assert_eq!(out.allocation.bs_of(UeId::new(1)), None);
    }

    #[test]
    fn late_crash_strands_only_in_flight_work() {
        // Crash after the protocol has already quiesced-equivalent work:
        // round 100 is far beyond convergence, so the outcome matches the
        // crash-free run.
        let inst = two_sp_instance();
        let config = DmraConfig::paper_defaults();
        let healthy = run_protocol(
            &inst,
            &config,
            ProtocolOptions {
                max_rounds: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        let out = run_protocol(
            &inst,
            &config,
            ProtocolOptions {
                crashed_bss: vec![(BsId::new(0), 100)],
                ..ProtocolOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.allocation, healthy.allocation);
    }

    #[test]
    fn crash_with_loss_and_delay_is_safe() {
        let inst = two_sp_instance();
        let config = DmraConfig::paper_defaults();
        for seed in 0..5u64 {
            let out = run_protocol(
                &inst,
                &config,
                ProtocolOptions {
                    drop_policy: DropPolicy::new(0.15, seed),
                    delay: DelayModel::Random { max_extra: 2, seed },
                    crashed_bss: vec![(BsId::new(0), 3)],
                    ..ProtocolOptions::default()
                },
            )
            .unwrap();
            out.allocation.validate(&inst).unwrap();
        }
    }

    #[test]
    fn combined_faults_quiesce_safely_under_a_wide_grace() {
        // Loss, delay and a crash in one run, with a quiescence grace wide
        // enough that a retry delayed by the full random spread still
        // counts as activity. Safety: the allocation validates, no BS is
        // over-committed, and conflicting accepts stay bounded by the UE
        // count (a UE can be double-booked at most once per extra BS).
        let inst = two_sp_instance();
        let config = DmraConfig::paper_defaults();
        for seed in 0..10u64 {
            let out = run_protocol(
                &inst,
                &config,
                ProtocolOptions {
                    drop_policy: DropPolicy::new(0.25, seed),
                    delay: DelayModel::Random { max_extra: 4, seed },
                    crashed_bss: vec![(BsId::new(1), 4)],
                    max_rounds: 100_000,
                    // Retry timeout (2 silent rounds) + max delay (4) + 1:
                    // nothing alive can be mistaken for quiescence.
                    quiescence_grace: 7,
                },
            )
            .expect("combined faults must still quiesce");
            out.allocation.validate(&inst).unwrap();
            // Explicit no-over-commitment check, independent of validate():
            // per-BS RRB and per-service CRU sums stay within budget.
            for (i, bs) in inst.bss().iter().enumerate() {
                let bs_id = BsId::new(i as u32);
                let mut rrbs = RrbCount::new(0);
                let mut crus = vec![Cru::ZERO; bs.cru_budget.len()];
                for (ue, assigned) in out.allocation.edge_pairs() {
                    if assigned == bs_id {
                        let spec = &inst.ues()[ue.as_usize()];
                        let link = inst.link(ue, bs_id).expect("assigned pairs are candidates");
                        rrbs += link.n_rrbs;
                        crus[spec.service.as_usize()] += spec.cru_demand;
                    }
                }
                assert!(rrbs <= bs.rrb_budget, "bs{i} RRBs over-committed");
                for (svc, used) in crus.iter().enumerate() {
                    assert!(
                        *used <= bs.cru_budget[svc],
                        "bs{i} service {svc} CRUs over-committed"
                    );
                }
            }
            assert!(
                out.conflicting_accepts <= inst.n_ues() as u64,
                "conflicts {} exceed UE count",
                out.conflicting_accepts
            );
        }
    }

    #[test]
    fn lossy_run_usually_still_serves_ues() {
        let inst = two_sp_instance();
        let config = DmraConfig::paper_defaults();
        let mut served = 0usize;
        for seed in 0..20 {
            let out = run_protocol(
                &inst,
                &config,
                ProtocolOptions {
                    drop_policy: DropPolicy::new(0.2, seed),
                    max_rounds: 10_000,
                    ..Default::default()
                },
            )
            .unwrap();
            served += out.allocation.edge_served();
        }
        // 2 UEs × 20 seeds = 40 opportunities; the retry logic should
        // recover the vast majority of losses.
        assert!(served >= 30, "served only {served}/40");
    }
}
