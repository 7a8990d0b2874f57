//! The synchronous-round scheduler.

use crate::agent::{Address, Agent, Envelope, MessageKind, Outbox};
use crate::delay::DelayModel;
use crate::fault::DropPolicy;
use dmra_types::{Error, Result};
use std::collections::{BTreeMap, HashMap};

/// Statistics of one protocol run — the communication cost of the
/// decentralized algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Rounds executed before quiescence (the final silent round included).
    pub rounds: usize,
    /// Messages successfully delivered.
    pub messages_sent: u64,
    /// Messages lost to fault injection.
    pub messages_dropped: u64,
    /// Messages that reached their delivery round addressed to an agent
    /// already fail-stopped ([`RoundEngine::crash_at`]): they left the
    /// sender (so they count in `messages_sent`) but were never handed to
    /// any inbox.
    pub absorbed_by_crash: u64,
    /// Approximate bytes delivered ([`MessageKind::size_bytes`]).
    pub bytes_sent: u64,
    /// Delivered-message counts by [`MessageKind::kind`] label.
    pub by_kind: BTreeMap<&'static str, u64>,
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} messages ({} dropped, {} absorbed by crash, {} bytes)",
            self.rounds,
            self.messages_sent,
            self.messages_dropped,
            self.absorbed_by_crash,
            self.bytes_sent
        )?;
        for (kind, count) in &self.by_kind {
            write!(f, "; {kind}: {count}")?;
        }
        Ok(())
    }
}

/// A per-round trace record handed to the observer of
/// [`RoundEngine::run_observed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTrace {
    /// Round index (0-based).
    pub round: usize,
    /// Messages delivered to agents this round.
    pub delivered: u64,
    /// Messages successfully staged for future delivery this round.
    pub sent: u64,
    /// Messages lost to fault injection this round.
    pub dropped: u64,
    /// Messages due this round whose addressee had already fail-stopped;
    /// they evaporate instead of being delivered.
    pub absorbed: u64,
    /// Messages still in flight (delayed) after this round.
    pub in_flight: u64,
}

/// Drives a set of [`Agent`]s in synchronous rounds until quiescence.
///
/// Determinism contract: agents act in ascending [`Address`] order, and each
/// inbox is sorted by sender address. Two runs with the same agents, seeds
/// and drop policy produce identical message sequences.
pub struct RoundEngine<M> {
    agents: Vec<Box<dyn Agent<M>>>,
    by_address: HashMap<Address, usize>,
    drop_policy: DropPolicy,
    delay: DelayModel,
    /// Agents that fail-stop at the given round: from that round on they
    /// are never invoked and everything addressed to them is dropped.
    crashes: HashMap<Address, usize>,
    /// Consecutive fully-silent rounds required before the run ends.
    quiescence_grace: usize,
}

impl<M: 'static> std::fmt::Debug for RoundEngine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundEngine")
            .field("agents", &self.agents.len())
            .field("drop_policy", &self.drop_policy)
            .finish()
    }
}

impl<M: MessageKind + 'static> RoundEngine<M> {
    /// Creates an engine with reliable (lossless) delivery.
    #[must_use]
    pub fn new() -> Self {
        Self::with_drop_policy(DropPolicy::reliable())
    }

    /// Creates an engine that drops messages per `policy`.
    #[must_use]
    pub fn with_drop_policy(policy: DropPolicy) -> Self {
        Self {
            agents: Vec::new(),
            by_address: HashMap::new(),
            drop_policy: policy,
            delay: DelayModel::Immediate,
            crashes: HashMap::new(),
            quiescence_grace: 1,
        }
    }

    /// Sets the delivery-delay model (default: next-round delivery).
    pub fn set_delay_model(&mut self, delay: DelayModel) {
        self.delay = delay;
    }

    /// Fail-stops the agent at `address` from round `round` onwards: it is
    /// never invoked again and messages addressed to it vanish. Models a
    /// BS (or UE) going dark mid-protocol.
    pub fn crash_at(&mut self, address: Address, round: usize) {
        self.crashes.insert(address, round);
    }

    /// Requires `rounds` consecutive fully-silent rounds before declaring
    /// quiescence (default 1). Timeout-driven agents (retry logic) only
    /// act after observing silence, so a grace window keeps them alive
    /// long enough to fire — essential when other agents have crashed.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn set_quiescence_grace(&mut self, rounds: usize) {
        assert!(rounds > 0, "grace must be at least one round");
        self.quiescence_grace = rounds;
    }

    /// Registers an agent.
    ///
    /// # Panics
    ///
    /// Panics if another agent already claimed the same address.
    pub fn register(&mut self, agent: Box<dyn Agent<M>>) {
        let addr = agent.address();
        let idx = self.agents.len();
        let prev = self.by_address.insert(addr, idx);
        assert!(prev.is_none(), "duplicate agent address {addr}");
        self.agents.push(agent);
    }

    /// Number of registered agents.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Runs rounds until a round in which no agent sends a message, or
    /// until `max_rounds` is exhausted.
    ///
    /// Messages addressed to [`Address::Cloud`] (or any unregistered
    /// address) are counted as delivered but silently absorbed — the cloud
    /// is an infinite sink in the model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonTermination`] if `max_rounds` elapses with
    /// messages still flowing; the paper's algorithm always quiesces, so
    /// hitting the bound indicates a bug in the agents.
    pub fn run(&mut self, max_rounds: usize) -> Result<RunStats> {
        self.run_observed(max_rounds, &mut |_| {})
    }

    /// Like [`RoundEngine::run`], invoking `observer` with a
    /// [`RoundTrace`] after every executed round — the protocol's
    /// convergence timeline, without touching message payloads.
    ///
    /// # Errors
    ///
    /// Same as [`RoundEngine::run`].
    pub fn run_observed(
        &mut self,
        max_rounds: usize,
        observer: &mut dyn FnMut(RoundTrace),
    ) -> Result<RunStats> {
        // Telemetry is observe-only and off the hot path: the registry
        // counters and the flight-record stream are touched once per
        // *round*, never per message, and neither feeds back into drop
        // or delay sampling. The flight observer is only reachable via
        // the process-wide slot — `run_protocol` constructs its
        // engine internally, so there is no `with_observer` path here.
        let obs_on = dmra_obs::enabled();
        let flight = dmra_obs::epoch_observer();
        let proto_counters = obs_on.then(|| {
            let g = dmra_obs::global();
            (
                g.counter("proto.rounds"),
                g.counter("proto.messages_sent"),
                g.counter("proto.messages_dropped"),
                g.counter("proto.delayed_deliveries"),
            )
        });
        // Agents act in ascending address order regardless of how they were
        // registered — part of the determinism contract.
        self.agents.sort_by_key(|a| a.address());
        self.by_address = self
            .agents
            .iter()
            .enumerate()
            .map(|(i, a)| (a.address(), i))
            .collect();
        let mut stats = RunStats::default();
        let mut sampler = self.delay.sampler();
        let mut silent_streak = 0usize;
        // In-flight messages, tagged with the round they become deliverable.
        let mut pending: Vec<(usize, Envelope<M>)> = Vec::new();
        for round in 0..max_rounds {
            stats.rounds += 1;
            // Deliver everything due this round.
            let mut inboxes: HashMap<Address, Vec<Envelope<M>>> = HashMap::new();
            let mut still_pending = Vec::with_capacity(pending.len());
            let mut delivered = 0u64;
            let mut absorbed = 0u64;
            for (due, env) in pending.drain(..) {
                if due <= round {
                    // A message due for an agent that has already
                    // fail-stopped evaporates: it was sent, but it is not
                    // delivered — it is absorbed by the crash.
                    if self.crashes.get(&env.to).is_some_and(|&at| round >= at) {
                        absorbed += 1;
                        stats.absorbed_by_crash += 1;
                    } else {
                        delivered += 1;
                        inboxes.entry(env.to).or_default().push(env);
                    }
                } else {
                    still_pending.push((due, env));
                }
            }
            pending = still_pending;
            let mut next: Vec<Envelope<M>> = Vec::new();
            for agent in &mut self.agents {
                let addr = agent.address();
                let mut inbox = inboxes.remove(&addr).unwrap_or_default();
                if self.crashes.get(&addr).is_some_and(|&at| round >= at) {
                    // Fail-stop: nothing is sent (the delivery loop above
                    // already absorbed anything addressed here).
                    continue;
                }
                inbox.sort_by_key(|e| e.from);
                let mut out = Outbox::new(addr);
                agent.on_round(&inbox, &mut out);
                next.extend(out.into_staged());
            }
            let quiescent = next.is_empty() && pending.is_empty();
            let mut sent = 0u64;
            let mut dropped = 0u64;
            let mut delayed = 0u64;
            for env in next {
                if self.drop_policy.should_drop() {
                    dropped += 1;
                    stats.messages_dropped += 1;
                } else {
                    sent += 1;
                    stats.messages_sent += 1;
                    stats.bytes_sent += env.msg.size_bytes() as u64;
                    *stats.by_kind.entry(env.msg.kind()).or_insert(0) += 1;
                    let extra = sampler.next_extra() as usize;
                    if extra > 0 {
                        delayed += 1;
                    }
                    pending.push((round + 1 + extra, env));
                }
            }
            let trace = RoundTrace {
                round,
                delivered,
                sent,
                dropped,
                absorbed,
                in_flight: pending.len() as u64,
            };
            observer(trace);
            if let Some((rounds_c, sent_c, dropped_c, delayed_c)) = &proto_counters {
                rounds_c.inc();
                sent_c.add(sent);
                dropped_c.add(dropped);
                delayed_c.add(delayed);
            }
            if let Some(flight) = &flight {
                flight.on_record(
                    &dmra_obs::EpochRecord::new("proto.round", round as u64)
                        .det("delivered", trace.delivered)
                        .det("sent", sent)
                        .det("dropped", dropped)
                        .det("absorbed", absorbed)
                        .det("in_flight", trace.in_flight)
                        .aux("delayed", delayed),
                );
            }
            if quiescent {
                silent_streak += 1;
                if silent_streak >= self.quiescence_grace {
                    if obs_on {
                        dmra_obs::global()
                            .histogram("proto.rounds_to_converge")
                            .record(stats.rounds as u64);
                    }
                    return Ok(stats);
                }
            } else {
                silent_streak = 0;
            }
        }
        Err(Error::NonTermination {
            bound: max_rounds,
            n_ues: self
                .agents
                .iter()
                .filter(|a| matches!(a.address(), Address::Ue(_)))
                .count(),
            n_bss: self
                .agents
                .iter()
                .filter(|a| matches!(a.address(), Address::Bs(_)))
                .count(),
        })
    }

    /// Consumes the engine and returns the agents (ordered by address), so
    /// callers can extract final agent state after a run.
    #[must_use]
    pub fn into_agents(self) -> Vec<Box<dyn Agent<M>>> {
        self.agents
    }
}

impl<M: MessageKind + 'static> Default for RoundEngine<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmra_types::{BsId, UeId};

    /// Sends `burst` messages to a target on the first round, then echoes
    /// every received message back once.
    struct Echo {
        me: Address,
        target: Address,
        burst: u32,
        started: bool,
        received: u32,
    }

    impl Echo {
        fn new(me: Address, target: Address, burst: u32) -> Self {
            Self {
                me,
                target,
                burst,
                started: false,
                received: 0,
            }
        }
    }

    impl Agent<u32> for Echo {
        fn address(&self) -> Address {
            self.me
        }
        fn on_round(&mut self, inbox: &[Envelope<u32>], out: &mut Outbox<u32>) {
            if !self.started {
                self.started = true;
                for i in 0..self.burst {
                    out.send(self.target, i);
                }
            }
            self.received += inbox.len() as u32;
        }
    }

    #[test]
    fn quiesces_when_silent() {
        let mut e: RoundEngine<u32> = RoundEngine::new();
        e.register(Box::new(Echo::new(
            Address::Ue(UeId::new(0)),
            Address::Bs(BsId::new(0)),
            5,
        )));
        e.register(Box::new(Echo::new(
            Address::Bs(BsId::new(0)),
            Address::Ue(UeId::new(0)),
            0,
        )));
        let stats = e.run(10).unwrap();
        // Round 1: UE bursts 5. Round 2: BS receives them, sends nothing
        // (burst 0). Round 2 itself is silent ⇒ stop.
        assert_eq!(stats.messages_sent, 5);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.by_kind.get("u32"), Some(&5));
        assert_eq!(stats.bytes_sent, 20); // five u32 payloads
        let text = stats.to_string();
        assert!(text.contains("2 rounds"));
        assert!(text.contains("u32: 5"));
    }

    #[test]
    fn unregistered_addresses_absorb_messages() {
        let mut e: RoundEngine<u32> = RoundEngine::new();
        e.register(Box::new(Echo::new(
            Address::Ue(UeId::new(0)),
            Address::Cloud,
            3,
        )));
        let stats = e.run(10).unwrap();
        assert_eq!(stats.messages_sent, 3);
    }

    #[test]
    fn nontermination_is_reported() {
        // Two agents that burst at each other forever (each echoes burst>0
        // every round by resetting `started`).
        struct Chatter(Address, Address);
        impl Agent<u32> for Chatter {
            fn address(&self) -> Address {
                self.0
            }
            fn on_round(&mut self, _i: &[Envelope<u32>], out: &mut Outbox<u32>) {
                out.send(self.1, 0);
            }
        }
        let mut e: RoundEngine<u32> = RoundEngine::new();
        e.register(Box::new(Chatter(
            Address::Ue(UeId::new(0)),
            Address::Ue(UeId::new(1)),
        )));
        e.register(Box::new(Chatter(
            Address::Ue(UeId::new(1)),
            Address::Ue(UeId::new(0)),
        )));
        let err = e.run(50).unwrap_err();
        assert_eq!(
            err,
            Error::NonTermination {
                bound: 50,
                n_ues: 2,
                n_bss: 0,
            }
        );
    }

    #[test]
    #[should_panic(expected = "duplicate agent address")]
    fn duplicate_address_panics() {
        let mut e: RoundEngine<u32> = RoundEngine::new();
        let a = Address::Ue(UeId::new(0));
        e.register(Box::new(Echo::new(a, Address::Cloud, 0)));
        e.register(Box::new(Echo::new(a, Address::Cloud, 0)));
    }

    #[test]
    fn drop_policy_loses_messages() {
        let mut e: RoundEngine<u32> = RoundEngine::with_drop_policy(DropPolicy::new(0.5, 3));
        e.register(Box::new(Echo::new(
            Address::Ue(UeId::new(0)),
            Address::Cloud,
            1000,
        )));
        let stats = e.run(10).unwrap();
        assert_eq!(stats.messages_sent + stats.messages_dropped, 1000);
        assert!(stats.messages_dropped > 300, "{stats:?}");
        assert!(stats.messages_sent > 300, "{stats:?}");
    }

    #[test]
    fn delivery_order_is_by_sender_address() {
        // One receiver, three senders registered in scrambled order; the
        // receiver records the sender order it observed.
        struct Recorder {
            me: Address,
            seen: Vec<Address>,
        }
        impl Agent<u32> for Recorder {
            fn address(&self) -> Address {
                self.me
            }
            fn on_round(&mut self, inbox: &[Envelope<u32>], _out: &mut Outbox<u32>) {
                self.seen.extend(inbox.iter().map(|e| e.from));
            }
        }
        let rx = Address::Bs(BsId::new(0));
        let mut e: RoundEngine<u32> = RoundEngine::new();
        for id in [2u32, 0, 1] {
            e.register(Box::new(Echo::new(Address::Ue(UeId::new(id)), rx, 1)));
        }
        e.register(Box::new(Recorder {
            me: rx,
            seen: Vec::new(),
        }));
        e.run(10).unwrap();
        let agents = e.into_agents();
        let recorder = agents
            .iter()
            .find_map(|a| (a.as_ref() as &dyn std::any::Any).downcast_ref::<Recorder>())
            .expect("recorder agent survives the run");
        // The three bursts all land in the same round; the inbox must be
        // sorted by sender address, not by registration order (2, 0, 1).
        assert_eq!(
            recorder.seen,
            vec![
                Address::Ue(UeId::new(0)),
                Address::Ue(UeId::new(1)),
                Address::Ue(UeId::new(2)),
            ]
        );
        // Registration order is also irrelevant to the agents' placement:
        // `into_agents` hands them back sorted by address, recorder last.
        assert_eq!(agents.last().unwrap().address(), rx);
    }

    #[test]
    fn crash_absorption_balances_the_message_ledger() {
        // 200 messages fan out with random delays spanning the crash
        // round, so some arrive before the receiver dies and the rest are
        // absorbed. The ledger must balance exactly:
        //   sent == delivered + absorbed + still_in_flight.
        let rx = Address::Bs(BsId::new(0));
        let mut e: RoundEngine<u32> = RoundEngine::new();
        e.set_delay_model(DelayModel::Random {
            max_extra: 5,
            seed: 11,
        });
        e.crash_at(rx, 3);
        e.register(Box::new(Echo::new(Address::Ue(UeId::new(0)), rx, 200)));
        e.register(Box::new(Echo::new(rx, Address::Ue(UeId::new(0)), 0)));
        let mut traces = Vec::new();
        let stats = e.run_observed(100, &mut |t| traces.push(t)).unwrap();
        let sent: u64 = traces.iter().map(|t| t.sent).sum();
        let delivered: u64 = traces.iter().map(|t| t.delivered).sum();
        let absorbed: u64 = traces.iter().map(|t| t.absorbed).sum();
        let in_flight = traces.last().unwrap().in_flight;
        assert_eq!(sent, delivered + absorbed + in_flight);
        assert_eq!(in_flight, 0, "quiescence leaves nothing in flight");
        assert_eq!(sent, stats.messages_sent);
        assert_eq!(absorbed, stats.absorbed_by_crash);
        // Delays 1..=6 straddle the crash at round 3: both outcomes occur.
        assert!(delivered > 0, "{stats:?}");
        assert!(absorbed > 0, "{stats:?}");
        assert_eq!(delivered + absorbed, 200);
        assert!(stats.to_string().contains("absorbed by crash"));
    }

    #[test]
    fn run_twice_with_same_seed_is_identical() {
        let build = || {
            let mut e: RoundEngine<u32> = RoundEngine::with_drop_policy(DropPolicy::new(0.3, 9));
            for id in 0..5u32 {
                e.register(Box::new(Echo::new(
                    Address::Ue(UeId::new(id)),
                    Address::Cloud,
                    20,
                )));
            }
            e
        };
        let s1 = build().run(10).unwrap();
        let s2 = build().run(10).unwrap();
        assert_eq!(s1, s2);
    }
}

#[cfg(test)]
mod observer_tests {
    use super::*;
    use crate::agent::{Address, Agent, Envelope, Outbox};
    use dmra_types::UeId;

    /// Bursts once, then stays silent.
    struct OneShot(Address, u32, bool);
    impl Agent<u32> for OneShot {
        fn address(&self) -> Address {
            self.0
        }
        fn on_round(&mut self, _inbox: &[Envelope<u32>], out: &mut Outbox<u32>) {
            if !self.2 {
                self.2 = true;
                for i in 0..self.1 {
                    out.send(Address::Cloud, i);
                }
            }
        }
    }

    #[test]
    fn trace_totals_match_stats() {
        let mut e: RoundEngine<u32> = RoundEngine::new();
        e.register(Box::new(OneShot(Address::Ue(UeId::new(0)), 7, false)));
        let mut traces = Vec::new();
        let stats = e.run_observed(100, &mut |t| traces.push(t)).unwrap();
        let sent: u64 = traces.iter().map(|t| t.sent).sum();
        let delivered: u64 = traces.iter().map(|t| t.delivered).sum();
        assert_eq!(sent, stats.messages_sent);
        assert_eq!(delivered, stats.messages_sent); // everything delivered
        assert_eq!(traces.len(), stats.rounds);
        // Rounds are numbered consecutively from zero.
        assert!(traces.iter().enumerate().all(|(i, t)| t.round == i));
        // Nothing left in flight at quiescence.
        assert_eq!(traces.last().unwrap().in_flight, 0);
    }

    #[test]
    fn run_and_run_observed_agree() {
        let build = || {
            let mut e: RoundEngine<u32> = RoundEngine::new();
            e.register(Box::new(OneShot(Address::Ue(UeId::new(0)), 5, false)));
            e
        };
        let a = build().run(100).unwrap();
        let b = build().run_observed(100, &mut |_| {}).unwrap();
        assert_eq!(a, b);
    }
}
