//! The discrete-event engine: virtual clock, per-node staged compute
//! (modeled verifier pool → worker → dedicated execution core, paper
//! Figure 9), bandwidth pipes, timers with cancellation, fault filtering
//! and statistics.
//!
//! Determinism note: every engine-owned map whose iteration order can
//! influence event ordering (`replicas`, `clients`, `nodes`, `payloads`,
//! `decided_counts`, per-node `timer_gens`) is a `BTreeMap` — a
//! `HashMap`'s per-process random iteration order would leak into
//! `start()` and statistics and break run-to-run reproducibility.

use crate::compute::ComputeModel;
use crate::stats::NetStats;
use crate::topology::Topology;
use rdb_common::config::SystemConfig;
use rdb_common::ids::{ClientId, NodeId, ReplicaId};
use rdb_common::time::{SimDuration, SimTime};
use rdb_consensus::api::{Action, ClientProtocol, Outbox, ReplicaProtocol, TimerKind};
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_consensus::faults::FaultState;
use rdb_consensus::messages::Message;
use rdb_consensus::stage::VerifiedMessage;
use rdb_consensus::types::Decision;
use rdb_ledger::Ledger;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// An event in the queue.
// `Deliver` carries the full message and dominates both the size and the
// instance count; boxing it would add an allocation per simulated message.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Ev {
    /// Deliver a message.
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: Message,
    },
    /// A timer fires (if its generation is still current).
    Timer {
        node: NodeId,
        kind: TimerKind,
        generation: u64,
    },
    /// Ask a closed-loop client for its next request.
    ClientKick { client: ClientId },
    /// Reset statistics (end of warm-up).
    ResetStats,
}

/// Per-node runtime state.
#[derive(Debug, Default)]
struct NodeState {
    /// The ordering worker is busy until this instant.
    busy_until: SimTime,
    /// Each modeled verifier thread is busy until its instant (sized from
    /// the compute model's [`crate::compute::PipelineModel`] on first use).
    verifier_free: Vec<SimTime>,
    /// The bounded virtual input queue: service-start times of
    /// *replica-held* messages whose verification has not yet begun.
    /// Entries ≤ now are pruned on every delivery, so `len()` is the
    /// live modeled depth — the virtual twin of the fabric's
    /// `queue_depth(Stage::Input)`. Over-bound admissions are modeled as
    /// held at the sender (the fabric's parked `send`) and never enter,
    /// so the depth respects the configured bound.
    input_queue: BinaryHeap<Reverse<SimTime>>,
    /// The dedicated execution thread is busy until this instant: the
    /// most recently decided materialization finishes then, after every
    /// earlier one (decisions apply in commit order).
    exec_free: SimTime,
    /// Finish instants of in-flight materializations, maintained
    /// only when [`crate::compute::PipelineModel::exec_queue_capacity`]
    /// gates the stage; `len()` is the modeled exec-queue depth.
    exec_inflight: BinaryHeap<Reverse<SimTime>>,
    /// The modeled checkpoint stage (off the execute stage, like the
    /// fabric's checkpoint thread) is busy until this instant.
    ckpt_free: SimTime,
    /// Intra-region NIC egress is busy until this instant.
    nic_free: SimTime,
    /// WAN egress aggregate is busy until this instant.
    wan_free: SimTime,
    /// Timer generations for cancellation.
    timer_gens: BTreeMap<TimerKind, u64>,
}

type HeapEntry = Reverse<(SimTime, u64)>;

/// The simulator.
pub struct Engine {
    topo: Topology,
    /// Every delivery passes [`VerifiedMessage::check`] against the
    /// deployment's shape and a modeled context before `on_message`: the
    /// structural checks run, while signatures cost nothing on the host
    /// (the compute model charges them in virtual time).
    system: SystemConfig,
    crypto: CryptoCtx,
    replica_model: ComputeModel,
    client_model: ComputeModel,
    clock: SimTime,
    heap: BinaryHeap<HeapEntry>,
    payloads: BTreeMap<u64, Ev>,
    seq: u64,
    replicas: BTreeMap<ReplicaId, Box<dyn ReplicaProtocol>>,
    clients: BTreeMap<ClientId, Box<dyn ClientProtocol>>,
    nodes: BTreeMap<NodeId, NodeState>,
    faults: FaultState,
    /// Statistics for the current measurement window.
    pub stats: NetStats,
    submit_times: BTreeMap<ClientId, SimTime>,
    /// Decisions executed, per replica (whole run, not window).
    pub decided_counts: BTreeMap<ReplicaId, u64>,
    /// Optional per-replica ledgers (integration tests / examples).
    ledgers: Option<BTreeMap<ReplicaId, Ledger>>,
    /// Maximum events processed before declaring a runaway (safety).
    pub max_events: u64,
    events_processed: u64,
}

impl Engine {
    /// Create an engine over `topo` for the deployment `system`, checking
    /// deliveries with the modeled context `crypto`, with the given
    /// compute models.
    pub fn new(
        topo: Topology,
        system: SystemConfig,
        crypto: CryptoCtx,
        replica_model: ComputeModel,
        client_model: ComputeModel,
        faults: FaultState,
    ) -> Engine {
        Engine {
            topo,
            system,
            crypto,
            replica_model,
            client_model,
            clock: SimTime::ZERO,
            heap: BinaryHeap::new(),
            payloads: BTreeMap::new(),
            seq: 0,
            replicas: BTreeMap::new(),
            clients: BTreeMap::new(),
            nodes: BTreeMap::new(),
            faults,
            stats: NetStats::default(),
            submit_times: BTreeMap::new(),
            decided_counts: BTreeMap::new(),
            ledgers: None,
            max_events: 2_000_000_000,
            events_processed: 0,
        }
    }

    /// Track a full ledger per replica (costs memory; integration tests).
    pub fn attach_ledgers(&mut self) {
        self.ledgers = Some(BTreeMap::new());
    }

    /// The per-replica ledgers, if attached.
    pub fn ledgers(&self) -> Option<&BTreeMap<ReplicaId, Ledger>> {
        self.ledgers.as_ref()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Register a replica.
    pub fn add_replica(&mut self, r: Box<dyn ReplicaProtocol>) {
        let id = r.id();
        self.nodes.entry(id.into()).or_default();
        self.replicas.insert(id, r);
    }

    /// Register a client.
    pub fn add_client(&mut self, c: Box<dyn ClientProtocol>) {
        let id = c.id();
        self.nodes.entry(id.into()).or_default();
        self.clients.insert(id, c);
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        let id = self.seq;
        self.seq += 1;
        self.payloads.insert(id, ev);
        self.heap.push(Reverse((at, id)));
    }

    /// Schedule `on_start` for all replicas and the first request of all
    /// clients at time zero.
    pub fn start(&mut self) {
        let replica_ids: Vec<ReplicaId> = self.replicas.keys().copied().collect();
        for rid in replica_ids {
            let mut out = Outbox::new();
            self.replicas
                .get_mut(&rid)
                .expect("present")
                .on_start(SimTime::ZERO, &mut out);
            self.process_actions(rid.into(), SimTime::ZERO, out.take());
        }
        let client_ids: Vec<ClientId> = self.clients.keys().copied().collect();
        for cid in client_ids {
            self.push(SimTime::ZERO, Ev::ClientKick { client: cid });
        }
    }

    /// Schedule a statistics reset (end of warm-up) at `at`.
    pub fn schedule_stats_reset(&mut self, at: SimTime) {
        self.push(at, Ev::ResetStats);
    }

    /// Run the event loop until `until` (events after it stay queued).
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(Reverse((t, id))) = self.heap.peek().copied() {
            if t > until {
                break;
            }
            self.heap.pop();
            let ev = self.payloads.remove(&id).expect("payload present");
            self.clock = t;
            self.events_processed += 1;
            assert!(
                self.events_processed < self.max_events,
                "event budget exhausted: runaway simulation"
            );
            self.dispatch(t, ev);
        }
        self.clock = self.clock.max(until);
    }

    fn model_for(&self, node: NodeId) -> &ComputeModel {
        match node {
            NodeId::Replica(_) => &self.replica_model,
            NodeId::Client(_) => &self.client_model,
        }
    }

    fn dispatch(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::Deliver { to, from, msg } => {
                if let NodeId::Replica(r) = to {
                    if self.faults.is_crashed(r, t) {
                        return;
                    }
                }
                let model = self.model_for(to).clone();
                let verifiers = model.pipeline.verifier_threads;
                // Bounded virtual input queue (replica inboxes only —
                // the twin of the fabric's bounded input stage): depth is
                // the number of admitted messages whose service has not
                // started by `t`.
                let cap = model.pipeline.input_capacity;
                let bounded_inbox = cap > 0 && matches!(to, NodeId::Replica(_));
                let at_bound = {
                    let state = self.nodes.entry(to).or_default();
                    if bounded_inbox {
                        while state.input_queue.peek().is_some_and(|&Reverse(s)| s <= t) {
                            state.input_queue.pop();
                        }
                        state.input_queue.len() >= cap
                    } else {
                        false
                    }
                };
                if at_bound
                    && model.pipeline.input_overload == crate::compute::Overload::Shed
                    && msg.droppable()
                {
                    // Shed-on-full, exactly as the fabric's input stage
                    // does for droppable (retransmittable) traffic.
                    self.stats.shed_msgs += 1;
                    return;
                }
                let state = self.nodes.entry(to).or_default();
                // Verify stage: the declared signature/MAC work runs on the
                // earliest-free modeled verifier thread, in parallel with
                // the worker. With an empty pool (single-threaded layout)
                // the worker pays for verification itself.
                let (service_start, verified_at, worker_cost) = if verifiers == 0 {
                    (
                        t.max(state.busy_until),
                        t,
                        model.wall(model.receive_cost(&msg)),
                    )
                } else {
                    if state.verifier_free.len() < verifiers {
                        state.verifier_free.resize(verifiers, SimTime::ZERO);
                    }
                    let slot = state
                        .verifier_free
                        .iter_mut()
                        .min()
                        .expect("pool is non-empty");
                    let vstart = t.max(*slot);
                    let vdone = vstart + SimDuration(model.verify_cost(&msg));
                    *slot = vdone;
                    (vstart, vdone, model.wall(model.dispatch_cost(&msg)))
                };
                // Order stage: the worker picks the message up once both
                // it and the verifier are free.
                let start = verified_at.max(state.busy_until);
                let done = start + SimDuration(worker_cost);
                state.busy_until = done;
                if bounded_inbox {
                    if at_bound {
                        // Modeled blocking: the sender holds the message
                        // at the *source* until the pool frees (exactly
                        // the fabric's parked `send`), so it never
                        // occupies the replica-held queue — the queue
                        // stays at its bound and later droppable traffic
                        // competes for freed slots instead of starving
                        // behind blocked requests. The pool is FIFO and
                        // work-conserving, so the wait changes no
                        // schedule — it is made observable.
                        self.stats.blocked_wait += service_start - t;
                    } else {
                        state.input_queue.push(Reverse(service_start));
                        let depth = state.input_queue.len() as u64;
                        if depth > self.stats.max_input_depth {
                            self.stats.max_input_depth = depth;
                        }
                    }
                }
                // The input edge: a message the one validity check rejects
                // never reaches the state machine (its modeled verify and
                // dispatch cost is still paid above).
                let Some(verified) = VerifiedMessage::check(&self.system, &self.crypto, from, msg)
                else {
                    return;
                };
                let (from, msg) = verified.into_parts();
                let mut out = Outbox::new();
                match to {
                    NodeId::Replica(rid) => {
                        if let Some(r) = self.replicas.get_mut(&rid) {
                            r.on_message(done, from, msg, &mut out);
                        }
                    }
                    NodeId::Client(cid) => {
                        if let Some(c) = self.clients.get_mut(&cid) {
                            c.on_message(done, from, msg, &mut out);
                        }
                    }
                }
                self.process_actions(to, done, out.take());
            }
            Ev::Timer {
                node,
                kind,
                generation,
            } => {
                if let NodeId::Replica(r) = node {
                    if self.faults.is_crashed(r, t) {
                        return;
                    }
                }
                let current = self
                    .nodes
                    .get(&node)
                    .and_then(|s| s.timer_gens.get(&kind))
                    .copied();
                if current != Some(generation) {
                    return; // cancelled or superseded
                }
                let state = self.nodes.entry(node).or_default();
                let start = t.max(state.busy_until);
                let done = start + SimDuration(2_000); // timer dispatch cost
                state.busy_until = done;
                let mut out = Outbox::new();
                match node {
                    NodeId::Replica(rid) => {
                        if let Some(r) = self.replicas.get_mut(&rid) {
                            r.on_timer(done, kind, &mut out);
                        }
                    }
                    NodeId::Client(cid) => {
                        if let Some(c) = self.clients.get_mut(&cid) {
                            c.on_timer(done, kind, &mut out);
                        }
                    }
                }
                self.process_actions(node, done, out.take());
            }
            Ev::ClientKick { client } => {
                let node: NodeId = client.into();
                let state = self.nodes.entry(node).or_default();
                let start = t.max(state.busy_until);
                let done = start + SimDuration(2_000);
                state.busy_until = done;
                let mut out = Outbox::new();
                let submitted = if let Some(c) = self.clients.get_mut(&client) {
                    c.next_request(done, &mut out)
                } else {
                    false
                };
                if submitted {
                    self.submit_times.insert(client, done);
                }
                self.process_actions(node, done, out.take());
            }
            Ev::ResetStats => {
                self.stats = NetStats::default();
            }
        }
    }

    fn process_actions(&mut self, node: NodeId, done: SimTime, actions: Vec<Action>) {
        // Charge signing once per logical signed message kind in this
        // batch of actions.
        let model = self.model_for(node).clone();
        let mut signed_labels: Vec<&'static str> = Vec::new();
        let mut cursor = done;
        for a in &actions {
            if let Action::Send { msg, .. } = a {
                if ComputeModel::signs_on_send(msg) && !signed_labels.contains(&msg.label()) {
                    signed_labels.push(msg.label());
                    cursor += SimDuration(model.wall(model.sign_ns));
                }
            }
        }

        for a in actions {
            match a {
                Action::Send { to, msg } => {
                    cursor += SimDuration(model.wall(model.send_cost(&msg)));
                    self.route(node, to, msg, cursor);
                }
                Action::SetTimer { kind, after } => {
                    let state = self.nodes.entry(node).or_default();
                    let gen = state.timer_gens.entry(kind).or_insert(0);
                    *gen += 1;
                    let generation = *gen;
                    self.push(
                        cursor + after,
                        Ev::Timer {
                            node,
                            kind,
                            generation,
                        },
                    );
                }
                Action::CancelTimer { kind } => {
                    let state = self.nodes.entry(node).or_default();
                    *state.timer_gens.entry(kind).or_insert(0) += 1;
                }
                Action::Decided(decision) => {
                    // The worker always pays transaction execution: the
                    // state machines execute inline (inside `on_message`)
                    // to produce reply digests, in the real fabric too.
                    // The dedicated core additionally models the execution
                    // stage's *materialization* (table apply + ledger
                    // append), which is what the staged fabric moved off
                    // the worker's critical path.
                    let exec =
                        model.exec_cost_decision(decision.txn_count(), decision.program_instrs());
                    cursor += SimDuration(model.wall(exec));
                    if model.pipeline.dedicated_execution {
                        cursor = self.charge_execution(node, &model, &decision, cursor);
                    }
                    if let NodeId::Replica(rid) = node {
                        let decided = {
                            let e = self.decided_counts.entry(rid).or_insert(0);
                            *e += 1;
                            *e
                        };
                        if rid == ReplicaId::new(0, 0) {
                            self.stats.observer_decisions += 1;
                            self.stats.observer_txns += decision.txn_count() as u64;
                        }
                        self.append_ledger(rid, &decision);
                        // Checkpoint stage: at every interval boundary,
                        // charge the snapshot/certification cost on the
                        // dedicated checkpoint horizon (off the worker's
                        // critical path, like the fabric's checkpoint
                        // thread) and compact any tracked ledger to the
                        // boundary — the virtual twin of quorum
                        // stability, which in the fabric merely lags by
                        // a delivery round trip.
                        let k = model.pipeline.checkpoint_interval;
                        if k > 0 && decided.is_multiple_of(k) {
                            let cost = model.checkpoint_ns;
                            let state = self.nodes.entry(node).or_default();
                            state.ckpt_free = state.ckpt_free.max(cursor) + SimDuration(cost);
                            self.stats.checkpoints += 1;
                            if let Some(ledgers) = self.ledgers.as_mut() {
                                if let Some(l) = ledgers.get_mut(&rid) {
                                    l.compact(l.head_height());
                                }
                            }
                        }
                    }
                }
                Action::RequestComplete { txns, .. } => {
                    if let NodeId::Client(cid) = node {
                        if let Some(submitted) = self.submit_times.remove(&cid) {
                            self.stats.on_complete(txns, submitted, cursor);
                        }
                        self.push(cursor, Ev::ClientKick { client: cid });
                    }
                }
            }
        }
        // The node was busy for the whole action-processing stretch.
        let state = self.nodes.entry(node).or_default();
        state.busy_until = state.busy_until.max(cursor);
    }

    /// Charge `decision`'s materialization (table apply + ledger append)
    /// on the node's modeled execution stage and return the worker's
    /// cursor, advanced past any wait the exec-queue gate imposed.
    ///
    /// The whole cost lands on the one execution horizon, after every
    /// earlier decision's, and (with no gate configured) the cursor
    /// comes back untouched. When `exec_queue_capacity` is nonzero the
    /// worker blocks while that many materializations are still
    /// unfinished: the virtual twin of the fabric's bounded Block-policy
    /// exec queue.
    fn charge_execution(
        &mut self,
        node: NodeId,
        model: &ComputeModel,
        decision: &Decision,
        mut cursor: SimTime,
    ) -> SimTime {
        let window = model.pipeline.exec_queue_capacity;
        let state = self.nodes.entry(node).or_default();
        if window > 0 {
            // Retire everything already done, then block the worker until
            // the in-flight backlog fits the bound.
            while let Some(&Reverse(t)) = state.exec_inflight.peek() {
                if t <= cursor {
                    state.exec_inflight.pop();
                } else {
                    break;
                }
            }
            let mut waited = SimDuration::ZERO;
            while state.exec_inflight.len() >= window {
                let Reverse(t) = state.exec_inflight.pop().expect("len checked");
                if t > cursor {
                    waited += t - cursor;
                    cursor = t;
                }
            }
            if waited > SimDuration::ZERO {
                self.stats.exec_gate_waits += 1;
                self.stats.exec_gate_wait += waited;
            }
        }
        let exec = model.exec_cost_decision(decision.txn_count(), decision.program_instrs());
        state.exec_free = state.exec_free.max(cursor) + SimDuration(exec);
        if window > 0 {
            state.exec_inflight.push(Reverse(state.exec_free));
        }
        cursor
    }

    fn append_ledger(&mut self, rid: ReplicaId, decision: &Decision) {
        if let Some(ledgers) = self.ledgers.as_mut() {
            ledgers
                .entry(rid)
                .or_insert_with(Ledger::new)
                .append_decision(decision);
        }
    }

    fn region_of(&self, node: NodeId) -> usize {
        // Clusters are laid out in topology order: cluster index == region
        // index (scenario construction guarantees this).
        (node.cluster().as_usize()).min(self.topo.regions() - 1)
    }

    fn route(&mut self, from: NodeId, to: NodeId, msg: Message, t: SimTime) {
        if let NodeId::Replica(r) = from {
            if self.faults.is_crashed(r, t) {
                return;
            }
        }
        if let (NodeId::Replica(a), NodeId::Replica(b)) = (from, to) {
            if self.faults.is_dropped(a, b, t) {
                return;
            }
        }
        let src = self.region_of(from);
        let dst = self.region_of(to);
        let local = src == dst;
        self.stats.on_message(msg.label(), msg.wire_size(), local);

        if from == to {
            // Loopback: no network resources.
            self.push(t + SimDuration(1_000), Ev::Deliver { to, from, msg });
            return;
        }

        let size = msg.wire_size();
        let state = self.nodes.entry(from).or_default();
        let arrive = if local {
            // Intra-region: per-node NIC serialization + sub-ms latency.
            let ser = SimDuration::from_secs_f64(size as f64 / self.topo.node_nic_bps);
            let depart = t.max(state.nic_free);
            state.nic_free = depart + ser;
            depart + ser + self.topo.latency(src, dst)
        } else {
            // WAN: the sender's aggregate cross-region egress is the
            // shared resource (this is what centralizes a single busy
            // primary, §4.4); the Table 1 bandwidth then acts as the
            // per-flow rate (Table 1 measures machine pairs), and
            // propagation adds half the measured RTT.
            let ser_node = SimDuration::from_secs_f64(size as f64 / self.topo.node_wan_egress_bps);
            let depart = t.max(state.wan_free);
            state.wan_free = depart + ser_node;
            let ser_flow = self.topo.pipe_ser_delay(src, dst, size);
            depart + ser_node + ser_flow + self.topo.latency(src, dst)
        };
        self.push(arrive, Ev::Deliver { to, from, msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::region::Region;
    use rdb_crypto::sign::KeyStore;

    /// An engine over `topo` for a 4-replica-per-region system.
    fn engine(
        topo: Topology,
        replica_model: ComputeModel,
        client_model: ComputeModel,
        faults: FaultState,
    ) -> Engine {
        let system = SystemConfig::geo(topo.regions(), 4).unwrap();
        let ks = KeyStore::new(1);
        let observer = ks.register(ClientId::new(0, u32::MAX).into());
        let crypto = CryptoCtx::new(observer, ks.verifier(), false);
        Engine::new(topo, system, crypto, replica_model, client_model, faults)
    }

    /// A replica that answers any Noop with a Noop to a fixed peer and
    /// counts messages.
    struct Echo {
        id: ReplicaId,
        peer: ReplicaId,
        received: std::sync::Arc<std::sync::atomic::AtomicU64>,
        reply: bool,
    }

    impl ReplicaProtocol for Echo {
        fn id(&self) -> ReplicaId {
            self.id
        }
        fn on_start(&mut self, _now: SimTime, _out: &mut Outbox) {}
        fn on_message(&mut self, _now: SimTime, _from: NodeId, _msg: Message, out: &mut Outbox) {
            self.received
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.reply {
                out.send(self.peer, Message::Noop);
            }
        }
        fn on_timer(&mut self, _now: SimTime, _timer: TimerKind, _out: &mut Outbox) {}
    }

    fn two_node_engine(reply: bool) -> (Engine, std::sync::Arc<std::sync::atomic::AtomicU64>) {
        let topo = Topology::paper(&[Region::Oregon, Region::Sydney]);
        let mut e = engine(
            topo,
            ComputeModel::default(),
            ComputeModel::default(),
            FaultState::default(),
        );
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let a = ReplicaId::new(0, 0);
        let b = ReplicaId::new(1, 0);
        e.add_replica(Box::new(Echo {
            id: a,
            peer: b,
            received: counter.clone(),
            reply: false,
        }));
        e.add_replica(Box::new(Echo {
            id: b,
            peer: a,
            received: counter.clone(),
            reply,
        }));
        (e, counter)
    }

    #[test]
    fn wan_delivery_takes_half_rtt_plus_costs() {
        let (mut e, counter) = two_node_engine(false);
        // Inject a message from Oregon replica to Sydney replica at t=0.
        e.route(
            ReplicaId::new(0, 0).into(),
            ReplicaId::new(1, 0).into(),
            Message::Noop,
            SimTime::ZERO,
        );
        e.run_until(SimTime::ZERO + SimDuration::from_millis(100));
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 1);
        // Arrival no earlier than the 80.5 ms one-way latency.
        assert!(e.now() >= SimTime::ZERO + SimDuration::from_millis(80));
    }

    #[test]
    fn wan_egress_serializes_back_to_back_messages() {
        let (mut e, _counter) = two_node_engine(false);
        let from: NodeId = ReplicaId::new(0, 0).into();
        let to: NodeId = ReplicaId::new(1, 0).into();
        // Two large messages at the same instant are serialized by the
        // sender's WAN egress aggregate.
        let big = Message::Request(rdb_consensus::types::SignedBatch::noop(
            rdb_common::ids::ClusterId(0),
            1,
        ));
        e.route(from, to, big.clone(), SimTime::ZERO);
        let first_free = e.nodes[&from].wan_free;
        e.route(from, to, big, SimTime::ZERO);
        let second_free = e.nodes[&from].wan_free;
        assert!(second_free > first_free);
        assert!(first_free > SimTime::ZERO);
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerProto {
            id: ReplicaId,
            fired: std::sync::Arc<std::sync::atomic::AtomicU64>,
        }
        impl ReplicaProtocol for TimerProto {
            fn id(&self) -> ReplicaId {
                self.id
            }
            fn on_start(&mut self, _now: SimTime, out: &mut Outbox) {
                out.set_timer(TimerKind::Progress, SimDuration::from_millis(10));
                // Cancelled before it can fire:
                out.set_timer(
                    TimerKind::ClientRetry { seq: 1 },
                    SimDuration::from_millis(5),
                );
                out.cancel_timer(TimerKind::ClientRetry { seq: 1 });
            }
            fn on_message(&mut self, _n: SimTime, _f: NodeId, _m: Message, _o: &mut Outbox) {}
            fn on_timer(&mut self, _now: SimTime, kind: TimerKind, _out: &mut Outbox) {
                assert_eq!(kind, TimerKind::Progress, "cancelled timer fired");
                self.fired
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let topo = Topology::paper(&[Region::Oregon]);
        let mut e = engine(
            topo,
            ComputeModel::default(),
            ComputeModel::default(),
            FaultState::default(),
        );
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        e.add_replica(Box::new(TimerProto {
            id: ReplicaId::new(0, 0),
            fired: fired.clone(),
        }));
        e.start();
        e.run_until(SimTime::ZERO + SimDuration::from_millis(50));
        assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn rearming_supersedes_previous_timer() {
        struct Rearm {
            id: ReplicaId,
            fired: std::sync::Arc<std::sync::atomic::AtomicU64>,
        }
        impl ReplicaProtocol for Rearm {
            fn id(&self) -> ReplicaId {
                self.id
            }
            fn on_start(&mut self, _now: SimTime, out: &mut Outbox) {
                out.set_timer(TimerKind::Progress, SimDuration::from_millis(10));
                out.set_timer(TimerKind::Progress, SimDuration::from_millis(30));
            }
            fn on_message(&mut self, _n: SimTime, _f: NodeId, _m: Message, _o: &mut Outbox) {}
            fn on_timer(&mut self, now: SimTime, _k: TimerKind, _o: &mut Outbox) {
                // Must fire only once, at the re-armed deadline.
                assert!(now >= SimTime::ZERO + SimDuration::from_millis(30));
                self.fired
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let topo = Topology::paper(&[Region::Oregon]);
        let mut e = engine(
            topo,
            ComputeModel::default(),
            ComputeModel::default(),
            FaultState::default(),
        );
        let fired = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        e.add_replica(Box::new(Rearm {
            id: ReplicaId::new(0, 0),
            fired: fired.clone(),
        }));
        e.start();
        e.run_until(SimTime::ZERO + SimDuration::from_millis(100));
        assert_eq!(fired.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn crashed_replicas_neither_send_nor_receive() {
        let topo = Topology::paper(&[Region::Oregon, Region::Sydney]);
        let a = ReplicaId::new(0, 0);
        let b = ReplicaId::new(1, 0);
        let faults = FaultState::new(&[rdb_consensus::faults::FaultSpec::crash_at_secs(b, 0.0)]);
        let mut e = engine(
            topo,
            ComputeModel::default(),
            ComputeModel::default(),
            faults,
        );
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        e.add_replica(Box::new(Echo {
            id: a,
            peer: b,
            received: counter.clone(),
            reply: false,
        }));
        e.add_replica(Box::new(Echo {
            id: b,
            peer: a,
            received: counter.clone(),
            reply: true,
        }));
        e.route(a.into(), b.into(), Message::Noop, SimTime::ZERO);
        e.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "crashed replica processed a message"
        );
    }

    #[test]
    fn stats_reset_clears_window() {
        let (mut e, _c) = two_node_engine(false);
        e.route(
            ReplicaId::new(0, 0).into(),
            ReplicaId::new(1, 0).into(),
            Message::Noop,
            SimTime::ZERO,
        );
        assert_eq!(e.stats.msgs_global, 1);
        e.schedule_stats_reset(SimTime::ZERO + SimDuration::from_millis(1));
        e.run_until(SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(e.stats.msgs_global, 0);
    }

    #[test]
    fn verifier_pool_overlaps_signature_checks() {
        use crate::compute::PipelineModel;
        use rdb_crypto::digest::Digest;
        use rdb_crypto::sign::Signature;
        let commit = || Message::Commit {
            scope: rdb_consensus::messages::Scope::Global,
            view: 0,
            seq: 1,
            digest: Digest::ZERO,
            sig: Signature::default(),
        };
        let worker_busy_after = |pipeline: PipelineModel| {
            let topo = Topology::paper(&[Region::Oregon]);
            let model = ComputeModel {
                pipeline,
                ..ComputeModel::default()
            };
            let mut e = engine(topo, model.clone(), model, FaultState::default());
            let to = ReplicaId::new(0, 0);
            let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
            e.add_replica(Box::new(Echo {
                id: to,
                peer: to,
                received: counter,
                reply: false,
            }));
            for _ in 0..8 {
                e.route(
                    ReplicaId::new(0, 1).into(),
                    to.into(),
                    commit(),
                    SimTime::ZERO,
                );
            }
            e.run_until(SimTime::ZERO + SimDuration::from_secs(1));
            e.nodes[&NodeId::Replica(to)].busy_until
        };
        let staged = worker_busy_after(PipelineModel::with_verifiers(2));
        let single = worker_busy_after(PipelineModel::single_threaded());
        assert!(
            staged < single,
            "parallel verification must relieve the worker: staged {staged:?} vs single {single:?}"
        );
    }

    #[test]
    fn dedicated_execution_runs_off_the_worker_path() {
        use crate::compute::PipelineModel;
        use rdb_consensus::types::{ClientBatch, DecisionEntry, SignedBatch, Transaction};
        use rdb_crypto::digest::Digest;

        struct Decider {
            id: ReplicaId,
        }
        impl ReplicaProtocol for Decider {
            fn id(&self) -> ReplicaId {
                self.id
            }
            fn on_start(&mut self, _now: SimTime, _out: &mut Outbox) {}
            fn on_message(&mut self, _n: SimTime, _f: NodeId, _m: Message, out: &mut Outbox) {
                let client = rdb_common::ids::ClientId::new(0, 0);
                let batch = ClientBatch {
                    client,
                    batch_seq: 0,
                    txns: (0..1_000)
                        .map(|i| Transaction {
                            client,
                            seq: i,
                            op: rdb_store::Operation::NoOp,
                        })
                        .collect(),
                };
                out.decided(Decision {
                    seq: 1,
                    entries: vec![DecisionEntry::new(
                        None,
                        SignedBatch {
                            batch,
                            pubkey: Default::default(),
                            sig: Default::default(),
                        },
                    )],
                    state_digest: Digest::ZERO,
                });
            }
            fn on_timer(&mut self, _now: SimTime, _t: TimerKind, _out: &mut Outbox) {}
        }

        let run = |pipeline: PipelineModel| {
            let topo = Topology::paper(&[Region::Oregon]);
            let model = ComputeModel {
                pipeline,
                ..ComputeModel::default()
            };
            let mut e = engine(topo, model.clone(), model, FaultState::default());
            let to = ReplicaId::new(0, 0);
            e.add_replica(Box::new(Decider { id: to }));
            e.route(
                ReplicaId::new(0, 1).into(),
                to.into(),
                Message::Noop,
                SimTime::ZERO,
            );
            e.run_until(SimTime::ZERO + SimDuration::from_secs(1));
            let state = &e.nodes[&NodeId::Replica(to)];
            (state.busy_until, state.exec_free)
        };
        let (staged_busy, staged_exec) = run(PipelineModel::default());
        let (single_busy, single_exec) = run(PipelineModel::single_threaded());
        // Inline execution is worker work in both layouts (the state
        // machine computes reply digests there).
        assert_eq!(staged_busy, single_busy);
        // Staged: the 1000-txn materialization additionally occupies the
        // dedicated core, past the worker's own busy horizon.
        assert!(staged_exec > staged_busy);
        assert_eq!(single_exec, SimTime::ZERO);
    }

    /// A replica that answers every inbound message with one decided
    /// batch of `batch` single-key writes; `spread` keys the writes
    /// `0..batch` (key-disjoint) instead of all on key 0.
    struct WriteDecider {
        id: ReplicaId,
        seq: u64,
        batch: u64,
        spread: bool,
    }
    impl ReplicaProtocol for WriteDecider {
        fn id(&self) -> ReplicaId {
            self.id
        }
        fn on_start(&mut self, _now: SimTime, _out: &mut Outbox) {}
        fn on_message(&mut self, _n: SimTime, _f: NodeId, _m: Message, out: &mut Outbox) {
            use rdb_consensus::types::{ClientBatch, DecisionEntry, SignedBatch, Transaction};
            use rdb_crypto::digest::Digest;
            self.seq += 1;
            let client = rdb_common::ids::ClientId::new(0, 0);
            let batch = ClientBatch {
                client,
                batch_seq: self.seq,
                txns: (0..self.batch)
                    .map(|i| Transaction {
                        client,
                        seq: self.seq * self.batch + i,
                        op: rdb_store::Operation::Write {
                            key: if self.spread { i } else { 0 },
                            value: rdb_store::Value::from_u64(i),
                        },
                    })
                    .collect(),
            };
            out.decided(Decision {
                seq: self.seq,
                entries: vec![DecisionEntry::new(
                    None,
                    SignedBatch {
                        batch,
                        pubkey: Default::default(),
                        sig: Default::default(),
                    },
                )],
                state_digest: Digest::of(&self.seq.to_le_bytes()),
            });
        }
        fn on_timer(&mut self, _now: SimTime, _t: TimerKind, _out: &mut Outbox) {}
    }

    /// Execute cost per transaction that makes the modeled execute stage
    /// the bottleneck: a 4-write decision costs 8 ms, far above the
    /// worker's per-message cost.
    const SLOW_EXEC_NS: u64 = 2_000_000;

    /// Deliver `decisions` messages at once to a [`WriteDecider`] under
    /// `pipeline` and a per-transaction execute cost of `exec_ns_per_txn`;
    /// returns the worker's horizon, the execute stage's horizon and the
    /// run's stats.
    fn exec_run(
        pipeline: crate::compute::PipelineModel,
        exec_ns_per_txn: u64,
        spread: bool,
        decisions: u64,
    ) -> (SimTime, SimTime, NetStats) {
        let topo = Topology::paper(&[Region::Oregon]);
        let model = ComputeModel {
            pipeline,
            exec_ns_per_txn,
            ..ComputeModel::default()
        };
        let mut e = engine(topo, model.clone(), model, FaultState::default());
        let to = ReplicaId::new(0, 0);
        e.add_replica(Box::new(WriteDecider {
            id: to,
            seq: 0,
            batch: 4,
            spread,
        }));
        for _ in 0..decisions {
            e.route(
                ReplicaId::new(0, 1).into(),
                to.into(),
                Message::Noop,
                SimTime::ZERO,
            );
        }
        e.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let state = &e.nodes[&NodeId::Replica(to)];
        (state.busy_until, state.exec_free, e.stats.clone())
    }

    /// One execute thread: back-to-back decisions queue behind each other
    /// on the one horizon, so four more decisions push it out by exactly
    /// four decisions' cost, whatever keys they write. Fails if the
    /// model overlaps key-disjoint decisions or drops an earlier
    /// decision's cost from the horizon.
    #[test]
    fn back_to_back_decisions_serialize_on_the_execute_horizon() {
        use crate::compute::PipelineModel;
        let cost = ComputeModel {
            exec_ns_per_txn: SLOW_EXEC_NS,
            ..ComputeModel::default()
        }
        .exec_cost_decision(4, 0);
        let (_, four, _) = exec_run(PipelineModel::default(), SLOW_EXEC_NS, true, 4);
        let (_, eight, _) = exec_run(PipelineModel::default(), SLOW_EXEC_NS, true, 8);
        assert_eq!(eight - four, SimDuration(4 * cost));
        // Same-key and key-disjoint batches take the same time.
        let (_, conflict, _) = exec_run(PipelineModel::default(), SLOW_EXEC_NS, false, 8);
        assert_eq!(conflict, eight);
    }

    #[test]
    fn exec_gate_backpressures_worker() {
        use crate::compute::PipelineModel;
        // A tight window over a slow execute stage: the worker outruns
        // materialization and must block at the bound (PR 3's Block
        // policy).
        let gated = PipelineModel::default().with_exec_queue(2);
        let (busy_gated, _, stats) = exec_run(gated, SLOW_EXEC_NS, true, 12);
        // The gate actually engaged and its wait is visible.
        assert!(stats.exec_gate_waits > 0);
        assert!(stats.exec_gate_wait > SimDuration::ZERO);
        // Ungated, the same load never blocks the worker, which finishes
        // sooner.
        let (busy, _, stats) = exec_run(PipelineModel::default(), SLOW_EXEC_NS, true, 12);
        assert_eq!(stats.exec_gate_waits, 0);
        assert!(busy < busy_gated, "{busy:?} vs gated {busy_gated:?}");
    }

    #[test]
    fn modeled_checkpoint_stage_charges_off_worker_and_compacts() {
        use crate::compute::PipelineModel;
        use rdb_consensus::types::{ClientBatch, DecisionEntry, SignedBatch, Transaction};
        use rdb_crypto::digest::Digest;

        struct Decider {
            id: ReplicaId,
            seq: u64,
        }
        impl ReplicaProtocol for Decider {
            fn id(&self) -> ReplicaId {
                self.id
            }
            fn on_start(&mut self, _now: SimTime, _out: &mut Outbox) {}
            fn on_message(&mut self, _n: SimTime, _f: NodeId, _m: Message, out: &mut Outbox) {
                self.seq += 1;
                let client = rdb_common::ids::ClientId::new(0, 0);
                let batch = ClientBatch {
                    client,
                    batch_seq: self.seq,
                    txns: vec![Transaction {
                        client,
                        seq: self.seq,
                        op: rdb_store::Operation::NoOp,
                    }],
                };
                out.decided(Decision {
                    seq: self.seq,
                    entries: vec![DecisionEntry::new(
                        None,
                        SignedBatch {
                            batch,
                            pubkey: Default::default(),
                            sig: Default::default(),
                        },
                    )],
                    state_digest: Digest::of(&self.seq.to_le_bytes()),
                });
            }
            fn on_timer(&mut self, _now: SimTime, _t: TimerKind, _out: &mut Outbox) {}
        }

        let run = |interval: u64| {
            let topo = Topology::paper(&[Region::Oregon]);
            let model = ComputeModel {
                pipeline: PipelineModel::default().with_checkpointing(interval),
                ..ComputeModel::default()
            };
            let mut e = engine(topo, model.clone(), model, FaultState::default());
            e.attach_ledgers();
            let to = ReplicaId::new(0, 0);
            e.add_replica(Box::new(Decider { id: to, seq: 0 }));
            for i in 0..7u64 {
                e.route(
                    ReplicaId::new(0, 1).into(),
                    to.into(),
                    Message::Noop,
                    SimTime(i * 1_000_000),
                );
            }
            e.run_until(SimTime::ZERO + SimDuration::from_secs(1));
            let state = &e.nodes[&NodeId::Replica(to)];
            (
                e.stats.checkpoints,
                state.busy_until,
                state.ckpt_free,
                e.ledgers().unwrap()[&to].clone(),
            )
        };
        let (off_ckpts, off_busy, off_ckpt_free, off_ledger) = run(0);
        assert_eq!(off_ckpts, 0);
        assert_eq!(off_ckpt_free, SimTime::ZERO);
        assert_eq!(off_ledger.base_height(), 0, "no compaction when disabled");

        let (on_ckpts, on_busy, on_ckpt_free, on_ledger) = run(3);
        assert_eq!(on_ckpts, 2, "boundaries at decisions 3 and 6");
        // The checkpoint stage hangs off execution: its cost lands on the
        // dedicated horizon, never on the worker — the schedule of every
        // figure reproduction is unchanged.
        assert_eq!(on_busy, off_busy, "checkpointing must not touch the worker");
        assert!(on_ckpt_free > SimTime::ZERO);
        // Compaction tracked the boundaries; content is untouched.
        assert_eq!(on_ledger.base_height(), 6);
        assert_eq!(on_ledger.head_height(), off_ledger.head_height());
        assert_eq!(on_ledger.head_hash(), off_ledger.head_hash());
        for h in on_ledger.base_height()..=on_ledger.head_height() {
            assert_eq!(
                on_ledger.block(h).unwrap().hash(),
                off_ledger.block(h).unwrap().hash(),
                "retained block {h} diverged"
            );
        }
    }

    #[test]
    fn modeled_queue_sheds_droppable_at_exact_bound() {
        use crate::compute::{Overload, PipelineModel};
        use rdb_crypto::digest::Digest;
        use rdb_crypto::sign::Signature;
        let commit = || Message::Commit {
            scope: rdb_consensus::messages::Scope::Global,
            view: 0,
            seq: 1,
            digest: Digest::ZERO,
            sig: Signature::default(),
        };
        // Two verifier slots, queue bound 2, Shed policy. Five commits at
        // t=0: two start service immediately (free slots), two queue
        // (depth 2 = the bound), the fifth is shed. Fully deterministic.
        let topo = Topology::paper(&[Region::Oregon]);
        let model = ComputeModel {
            pipeline: PipelineModel::with_verifiers(2).with_input_queue(2, Overload::Shed),
            ..ComputeModel::default()
        };
        let mut e = engine(topo, model.clone(), model, FaultState::default());
        let to = ReplicaId::new(0, 0);
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        e.add_replica(Box::new(Echo {
            id: to,
            peer: to,
            received: counter.clone(),
            reply: false,
        }));
        for _ in 0..5 {
            e.route(
                ReplicaId::new(0, 1).into(),
                to.into(),
                commit(),
                SimTime::ZERO,
            );
        }
        e.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(e.stats.shed_msgs, 1, "exactly one commit over the bound");
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            4,
            "the four admitted commits are processed"
        );
        assert!(e.stats.max_input_depth <= 3, "depth bounded at cap + 1");
    }

    #[test]
    fn modeled_queue_blocks_undroppable_requests_without_loss() {
        use crate::compute::{Overload, PipelineModel};
        // Same bound, but Requests (non-droppable) arrive: nothing is
        // shed — admission waits, the wait is accounted, and every
        // message is eventually processed.
        let request = || {
            Message::Request(rdb_consensus::types::SignedBatch::noop(
                rdb_common::ids::ClusterId(0),
                1,
            ))
        };
        let topo = Topology::paper(&[Region::Oregon]);
        let model = ComputeModel {
            pipeline: PipelineModel::with_verifiers(2).with_input_queue(2, Overload::Shed),
            ..ComputeModel::default()
        };
        let mut e = engine(topo, model.clone(), model, FaultState::default());
        let to = ReplicaId::new(0, 0);
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        e.add_replica(Box::new(Echo {
            id: to,
            peer: to,
            received: counter.clone(),
            reply: false,
        }));
        for _ in 0..6 {
            e.route(
                ReplicaId::new(0, 1).into(),
                to.into(),
                request(),
                SimTime::ZERO,
            );
        }
        e.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(e.stats.shed_msgs, 0, "requests must never shed");
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 6);
        assert!(
            e.stats.blocked_wait > SimDuration::ZERO,
            "over-bound admissions must account their wait"
        );
    }

    #[test]
    fn block_policy_changes_no_schedule() {
        use crate::compute::{Overload, PipelineModel};
        // The Block bound is observability-only: a run with a tiny bound
        // and a run with no bound process events identically.
        let run = |capacity: usize| {
            let topo = Topology::paper(&[Region::Oregon, Region::Sydney]);
            let model = ComputeModel {
                pipeline: PipelineModel::with_verifiers(2)
                    .with_input_queue(capacity, Overload::Block),
                ..ComputeModel::default()
            };
            let mut e = engine(topo, model.clone(), model, FaultState::default());
            let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
            let a = ReplicaId::new(0, 0);
            let b = ReplicaId::new(1, 0);
            e.add_replica(Box::new(Echo {
                id: a,
                peer: b,
                received: counter.clone(),
                reply: false,
            }));
            e.add_replica(Box::new(Echo {
                id: b,
                peer: a,
                received: counter.clone(),
                reply: true,
            }));
            for i in 0..20 {
                e.route(a.into(), b.into(), Message::Noop, SimTime(i * 100));
            }
            e.run_until(SimTime::ZERO + SimDuration::from_secs(2));
            (
                e.events_processed(),
                counter.load(std::sync::atomic::Ordering::Relaxed),
                e.now(),
            )
        };
        let (bounded_ev, bounded_n, bounded_t) = run(1);
        let (unbounded_ev, unbounded_n, unbounded_t) = run(0);
        assert_eq!(bounded_ev, unbounded_ev);
        assert_eq!(bounded_n, unbounded_n);
        assert_eq!(bounded_t, unbounded_t);
    }

    #[test]
    fn deterministic_event_ordering() {
        // Two runs of the same schedule process the same number of events.
        let runs: Vec<u64> = (0..2)
            .map(|_| {
                let (mut e, _c) = two_node_engine(true);
                for i in 0..10 {
                    e.route(
                        ReplicaId::new(0, 0).into(),
                        ReplicaId::new(1, 0).into(),
                        Message::Noop,
                        SimTime(i * 1000),
                    );
                }
                e.run_until(SimTime::ZERO + SimDuration::from_secs(2));
                e.events_processed()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }
}
