//! The transport surface shared by both meshes — [`Envelope`],
//! [`Transport`], [`TransportHandle`], the inbox table with its one
//! delivery routine, scheduled partitions — and the in-process mesh:
//! crossbeam channels between nodes, with optional injected per-link
//! delays to emulate a geo-distributed deployment on one machine. The
//! socket mesh lives in [`crate::socket`].
//!
//! Replica inboxes registered via [`InProcTransport::register_bounded`]
//! are the pipeline's *input stage queue*: delivery applies the queue's
//! [`QueuePolicy`] — droppable consensus traffic is shed at the bound
//! (counted per stage), while client `Request`s block the delivering
//! thread, which is exactly how admission control propagates from an
//! overloaded replica back to the submitting client. Client inboxes stay
//! unbounded ([`InProcTransport::register`]): clients are closed-loop and
//! drain their own replies, so they are leaves of the blocking graph.
//!
//! Delayed links (a [`DelayFn`] topology) relax admission: a delayed
//! send parks in the delay wheel — modeling traffic in flight on the
//! WAN — and returns immediately, so the *sender* does not block. The
//! single pump thread then delivers without ever parking: droppable
//! traffic is shed per the inbox policy, and a non-droppable message
//! that finds the inbox full is requeued briefly and retried, i.e. it
//! stays "in the network" until the replica has room. In-flight wheel
//! memory is bounded by the closed-loop clients' outstanding requests
//! plus consensus traffic, not by wall-clock.

use crate::metrics::Metrics;
use crate::queue::{Overload, QueuePolicy};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use parking_lot::{Condvar, Mutex};
use rdb_common::ids::NodeId;
use rdb_common::time::SimDuration;
use rdb_consensus::messages::Message;
use rdb_consensus::stage::Stage;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload.
    pub msg: Message,
}

/// Computes the injected one-way delay between two nodes (None or zero for
/// direct delivery).
pub type DelayFn = Arc<dyn Fn(NodeId, NodeId) -> SimDuration + Send + Sync>;

struct DelayedEntry {
    due: Instant,
    seq: u64,
    env: Envelope,
}

impl PartialEq for DelayedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayedEntry {}
impl PartialOrd for DelayedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// What [`Inboxes::deliver`] does with a non-droppable message that finds
/// its inbox full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnFull {
    /// Park the delivering thread until the inbox has room — the end of
    /// the backpressure chain (a client's `Request` parks the submitting
    /// client thread itself).
    Park,
    /// Hand the envelope back to the caller to hold and retry, for
    /// threads that must never park on one peer's inbox.
    HandBack,
}

/// One registered node's inbox: its sender plus the input-stage queue
/// policy (None for unbounded client/test inboxes).
struct Inbox {
    tx: Sender<Envelope>,
    policy: Option<QueuePolicy>,
}

/// The inbox table of one mesh and the single inbox-delivery routine both
/// transports use: look the inbox up, apply its [`QueuePolicy`], account
/// the input stage. Each mesh keeps only its byte-moving core (delay
/// wheel / links + listeners) on top.
pub(crate) struct Inboxes {
    table: Mutex<HashMap<NodeId, Inbox>>,
    /// Replica-bound deliveries count as input-stage enqueues (so
    /// `queue_depth(Stage::Input)` is the live inbox backlog) and overload
    /// behavior lands in the input stage's `shed`/`blocked_ns`. A
    /// transport built without metrics counts into a private sink.
    metrics: Metrics,
}

impl Inboxes {
    pub(crate) fn new(metrics: Metrics) -> Inboxes {
        Inboxes {
            table: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// Register `node`: a bounded inbox under `policy` (a hand-built
    /// policy with `capacity: 0` is clamped to 1; the [`QueuePolicy`]
    /// constructors already guarantee ≥ 1), unbounded without one.
    pub(crate) fn register(&self, node: NodeId, policy: Option<QueuePolicy>) -> Receiver<Envelope> {
        let (tx, rx) = match policy {
            Some(p) => bounded(p.capacity.max(1)),
            None => unbounded(),
        };
        self.table.lock().insert(node, Inbox { tx, policy });
        rx
    }

    /// Remove `node`'s inbox: deliveries to it are dropped from now on.
    pub(crate) fn disconnect(&self, node: NodeId) {
        self.table.lock().remove(&node);
    }

    /// Deliver `env` into its recipient's inbox. `None` means the message
    /// is accounted for: enqueued, shed (droppable traffic at a full Shed
    /// inbox), or dropped because the recipient is disconnected or shut
    /// down. A non-droppable message at a full inbox parks the caller or
    /// comes back as `Some`, per `on_full`.
    pub(crate) fn deliver(&self, env: Envelope, on_full: OnFull) -> Option<Envelope> {
        // Clone the sender out of the table so a parked delivery never
        // holds the table lock: other deliveries keep flowing while one
        // producer waits on a full input queue.
        let (tx, policy) = {
            let table = self.table.lock();
            let inbox = table.get(&env.to)?; // disconnected (crash tests): drop
            (inbox.tx.clone(), inbox.policy)
        };
        // Input-stage accounting covers replica inboxes only.
        let metrics = matches!(env.to, NodeId::Replica(_)).then_some(&self.metrics);
        match tx.try_send(env) {
            Ok(()) => {
                if let Some(m) = metrics {
                    m.stage_enqueued(Stage::Input);
                }
            }
            Err(TrySendError::Disconnected(_)) => {}
            // Only bounded inboxes are ever full, so a policy exists.
            Err(TrySendError::Full(env)) => {
                if env.msg.droppable() && policy.is_some_and(|p| p.overload == Overload::Shed) {
                    if let Some(m) = metrics {
                        m.stage_shed(Stage::Input);
                    }
                } else if on_full == OnFull::HandBack {
                    return Some(env);
                } else {
                    let t0 = Instant::now();
                    let sent = tx.send(env).is_ok();
                    if let Some(m) = metrics {
                        m.stage_blocked(Stage::Input, t0.elapsed());
                        if sent {
                            m.stage_enqueued(Stage::Input);
                        }
                    }
                }
            }
        }
        None
    }
}

/// A scheduled bidirectional cut between two node groups: messages
/// crossing the cut are dropped while `from <= now < until`, after which
/// the partition heals. The check happens at *send* time — matching the
/// simulator's `FaultSpec::partition`, which drops at route time — so
/// traffic already in the delay wheel when the cut starts still arrives.
struct Partition {
    side_a: Vec<NodeId>,
    side_b: Vec<NodeId>,
    from: Instant,
    until: Instant,
}

impl Partition {
    fn cuts(&self, now: Instant, from: NodeId, to: NodeId) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        (self.side_a.contains(&from) && self.side_b.contains(&to))
            || (self.side_b.contains(&from) && self.side_a.contains(&to))
    }
}

/// Scheduled partitions plus the lock-free fast path. Shared by both
/// the in-process and the socket transport (both drop at send time).
///
/// `active` short-circuits the per-send check so the common (no faults)
/// path never takes the lock — and, since expired windows are pruned
/// inside [`PartitionSet::is_cut`] and the flag is cleared when the
/// list empties, a *healed* deployment returns to that lock-free path
/// instead of scanning a stale partition list forever.
///
/// Memory ordering: the store in [`PartitionSet::add`] is `Release` and
/// the load in [`PartitionSet::is_cut`] is `Acquire`, pairing them. The
/// partition-vec mutex already makes the race benign for cut *contents*
/// — any sender that decides to scan acquires the lock and sees a fully
/// written `Partition` — but the mutex cannot help a sender that never
/// reaches it: with a `Relaxed` load, a sender could observe
/// `active == false` arbitrarily long after `add` returned and skip a
/// window that has already started. Acquire/Release bounds that
/// visibility gap to the synchronization the caller already performs
/// after scheduling the partition (in practice: the builder schedules
/// partitions before spawning replica threads, and thread spawn is a
/// release edge).
pub(crate) struct PartitionSet {
    partitions: Mutex<Vec<Partition>>,
    active: AtomicBool,
}

impl PartitionSet {
    pub(crate) fn new() -> PartitionSet {
        PartitionSet {
            partitions: Mutex::new(Vec::new()),
            active: AtomicBool::new(false),
        }
    }

    /// Schedule a bidirectional cut between `side_a` and `side_b` over
    /// `[from, until)` (both relative to now).
    pub(crate) fn add(
        &self,
        side_a: Vec<NodeId>,
        side_b: Vec<NodeId>,
        from: Duration,
        until: Duration,
    ) {
        let now = Instant::now();
        self.partitions.lock().push(Partition {
            side_a,
            side_b,
            from: now + from,
            until: now + until,
        });
        self.active.store(true, Ordering::Release);
    }

    /// True when a currently-active partition cuts the `from -> to`
    /// link. Prunes windows whose `until` has passed; once the last one
    /// heals, the flag clears and subsequent sends take the lock-free
    /// fast path again.
    pub(crate) fn is_cut(&self, from: NodeId, to: NodeId) -> bool {
        if !self.active.load(Ordering::Acquire) {
            return false;
        }
        let now = Instant::now();
        let mut partitions = self.partitions.lock();
        partitions.retain(|p| now < p.until);
        if partitions.is_empty() {
            self.active.store(false, Ordering::Release);
            return false;
        }
        partitions.iter().any(|p| p.cuts(now, from, to))
    }

    /// Test probe: whether the next `is_cut` would short-circuit
    /// without touching the partition mutex.
    #[cfg(test)]
    pub(crate) fn fast_path_is_lock_free(&self) -> bool {
        !self.active.load(Ordering::Acquire)
    }
}

struct Shared {
    inboxes: Inboxes,
    delay: Option<DelayFn>,
    wheel: Mutex<BinaryHeap<Reverse<DelayedEntry>>>,
    wheel_cv: Condvar,
    /// Scheduled network partitions (see [`PartitionSet`] for the
    /// fast-path flag and pruning semantics).
    partitions: PartitionSet,
    running: AtomicBool,
    seq: std::sync::atomic::AtomicU64,
}

/// The in-process transport. Cloneable handle.
#[derive(Clone)]
pub struct InProcTransport {
    shared: Arc<Shared>,
}

/// A node's endpoint: its receiver plus a sending handle.
pub struct TransportHandle {
    /// This node.
    pub node: NodeId,
    /// Incoming envelopes.
    pub inbox: Receiver<Envelope>,
    transport: Transport,
}

/// Either transport behind one dispatching surface, so the replica and
/// client runtimes are transport-agnostic: [`TransportHandle`] /
/// [`TransportSender`] wrap this enum and every call site stays the
/// same whether messages travel over crossbeam channels or sockets.
///
/// In-process is the default everywhere — it keeps the repro figures
/// byte-identical and supports delay emulation and partitions. The
/// socket transport exists to span OS processes with real framing; see
/// `crate::socket` and the "Wire transport" chapter of
/// `docs/ARCHITECTURE.md` for the decision table.
#[derive(Clone)]
pub enum Transport {
    /// Channel mesh within one process.
    InProc(InProcTransport),
    /// TCP or Unix-domain sockets with length-prefixed frames.
    Socket(crate::socket::SocketTransport),
}

impl Transport {
    /// Register a node with an unbounded inbox (clients, tests).
    pub fn register(&self, node: NodeId) -> TransportHandle {
        match self {
            Transport::InProc(t) => t.register(node),
            Transport::Socket(t) => t.register(node),
        }
    }

    /// Register a node whose inbox is the bounded input-stage queue of
    /// its pipeline (see [`InProcTransport::register_bounded`]).
    pub fn register_bounded(&self, node: NodeId, policy: QueuePolicy) -> TransportHandle {
        match self {
            Transport::InProc(t) => t.register_bounded(node, policy),
            Transport::Socket(t) => t.register_bounded(node, policy),
        }
    }

    /// Schedule a bidirectional partition (see
    /// [`InProcTransport::partition`]). Supported on both transports:
    /// the socket transport drops at send time exactly like the
    /// in-process one (the cut models a WAN failure, not a closed
    /// socket).
    pub fn partition(
        &self,
        side_a: Vec<NodeId>,
        side_b: Vec<NodeId>,
        from: Duration,
        until: Duration,
    ) {
        match self {
            Transport::InProc(t) => t.partition(side_a, side_b, from, until),
            Transport::Socket(t) => t.partition(side_a, side_b, from, until),
        }
    }

    /// Send an envelope.
    pub fn send(&self, env: Envelope) {
        match self {
            Transport::InProc(t) => t.send(env),
            Transport::Socket(t) => t.send(env),
        }
    }

    /// Non-blocking send; `false` hands a non-droppable message back to
    /// the caller to hold and retry (see [`InProcTransport::try_send`]).
    pub fn try_send(&self, env: Envelope) -> bool {
        match self {
            Transport::InProc(t) => t.try_send(env),
            Transport::Socket(t) => t.try_send(env),
        }
    }

    /// Remove a node (crash tests).
    pub fn disconnect(&self, node: NodeId) {
        match self {
            Transport::InProc(t) => t.disconnect(node),
            Transport::Socket(t) => t.disconnect(node),
        }
    }

    /// Stop background threads (the delay pump / socket readers).
    pub fn shutdown(&self) {
        match self {
            Transport::InProc(t) => t.shutdown(),
            Transport::Socket(t) => t.shutdown(),
        }
    }
}

impl InProcTransport {
    /// Create a transport. `delay` injects per-link one-way delays (e.g.
    /// from `rdb-simnet`'s Table 1 topology); `None` delivers directly.
    pub fn new(delay: Option<DelayFn>) -> InProcTransport {
        InProcTransport::with_metrics(delay, None)
    }

    /// Like [`InProcTransport::new`], additionally recording every
    /// replica-bound delivery as an input-stage enqueue in `metrics`
    /// (and input-stage shed/blocked accounting for bounded inboxes).
    pub fn with_metrics(delay: Option<DelayFn>, metrics: Option<Metrics>) -> InProcTransport {
        let t = InProcTransport {
            shared: Arc::new(Shared {
                inboxes: Inboxes::new(metrics.unwrap_or_default()),
                delay,
                wheel: Mutex::new(BinaryHeap::new()),
                wheel_cv: Condvar::new(),
                partitions: PartitionSet::new(),
                running: AtomicBool::new(true),
                seq: std::sync::atomic::AtomicU64::new(0),
            }),
        };
        if t.shared.delay.is_some() {
            t.spawn_pump();
        }
        t
    }

    /// Register a node with an unbounded inbox (clients, tests).
    pub fn register(&self, node: NodeId) -> TransportHandle {
        self.handle(node, None)
    }

    /// Register a node whose inbox is the bounded input-stage queue of
    /// its pipeline: deliveries at the bound shed droppable traffic or
    /// block the sender per `policy` (see [`crate::queue`]).
    pub fn register_bounded(&self, node: NodeId, policy: QueuePolicy) -> TransportHandle {
        self.handle(node, Some(policy))
    }

    fn handle(&self, node: NodeId, policy: Option<QueuePolicy>) -> TransportHandle {
        TransportHandle {
            node,
            inbox: self.shared.inboxes.register(node, policy),
            transport: Transport::InProc(self.clone()),
        }
    }

    /// Schedule a bidirectional partition between `side_a` and `side_b`:
    /// messages crossing the cut are dropped from `from` until `until`
    /// (both relative to now, i.e. to deployment start when called from
    /// the builder), after which the link heals. Mirrors the simulator's
    /// `FaultSpec::partition` so one scenario script can inject the same
    /// fault in both runtimes.
    pub fn partition(
        &self,
        side_a: Vec<NodeId>,
        side_b: Vec<NodeId>,
        from: Duration,
        until: Duration,
    ) {
        self.shared.partitions.add(side_a, side_b, from, until);
    }

    /// Send an envelope (applying the delay policy). On a direct link a
    /// full inbox parks the caller for non-droppable traffic.
    pub fn send(&self, env: Envelope) {
        self.route(env, OnFull::Park);
    }

    /// Non-blocking send for producer stages that must never park on a
    /// peer's full inbox (the checkpoint thread delivering its
    /// non-droppable votes). Delayed links accept unconditionally (the
    /// message parks in the wheel, "in the network"). On a direct link a
    /// full inbox sheds droppable traffic per the inbox policy (returns
    /// `true`: the message is accounted for) but hands a non-droppable
    /// message **back to the caller** (`false`) to hold and retry —
    /// blocking here is exactly the cross-replica cycle the queue design
    /// forbids (see [`crate::queue`]).
    pub fn try_send(&self, env: Envelope) -> bool {
        self.route(env, OnFull::HandBack).is_none()
    }

    /// Route `env` over its link; `Some` hands it back (see
    /// [`Inboxes::deliver`]).
    fn route(&self, env: Envelope, on_full: OnFull) -> Option<Envelope> {
        if self.shared.partitions.is_cut(env.from, env.to) {
            return None; // dropped at the cut, like a crashed link
        }
        let delay = self
            .shared
            .delay
            .as_ref()
            .map_or(SimDuration::ZERO, |f| f(env.from, env.to));
        if delay == SimDuration::ZERO {
            return self.shared.inboxes.deliver(env, on_full);
        }
        self.park_in_wheel(Duration::from_nanos(delay.as_nanos()), env);
        self.shared.wheel_cv.notify_one();
        None
    }

    /// Hold `env` "in the network" for `after`; the pump delivers it.
    fn park_in_wheel(&self, after: Duration, env: Envelope) {
        let due = Instant::now() + after;
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        self.shared
            .wheel
            .lock()
            .push(Reverse(DelayedEntry { due, seq, env }));
    }

    /// Remove a node (its messages are dropped from now on). Used to
    /// crash replicas in failure tests.
    pub fn disconnect(&self, node: NodeId) {
        self.shared.inboxes.disconnect(node);
    }

    /// Stop the delay pump.
    pub fn shutdown(&self) {
        self.shared.running.store(false, Ordering::SeqCst);
        self.shared.wheel_cv.notify_all();
    }

    fn spawn_pump(&self) {
        let shared = Arc::clone(&self.shared);
        let me = self.clone();
        std::thread::Builder::new()
            .name("rdb-delay-pump".into())
            .spawn(move || {
                let mut wheel = shared.wheel.lock();
                while shared.running.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    // Deliver everything due.
                    loop {
                        match wheel.peek() {
                            Some(Reverse(e)) if e.due <= now => {
                                let Reverse(e) = wheel.pop().expect("peeked");
                                drop(wheel);
                                // The pump serves every delayed link, so
                                // it must never park on one replica's
                                // full inbox (that would stall delayed
                                // traffic cluster-wide): a non-droppable
                                // message that finds the queue full goes
                                // back into the wheel and is retried
                                // shortly — the delayed-link analogue of
                                // blocking admission on direct links. No
                                // notify: this is the pump thread.
                                if let Some(env) = shared.inboxes.deliver(e.env, OnFull::HandBack) {
                                    me.park_in_wheel(Duration::from_micros(200), env);
                                }
                                wheel = shared.wheel.lock();
                            }
                            _ => break,
                        }
                    }
                    match wheel.peek() {
                        Some(Reverse(e)) => {
                            let due = e.due;
                            let wait = due.saturating_duration_since(Instant::now());
                            shared
                                .wheel_cv
                                .wait_for(&mut wheel, wait.max(Duration::from_micros(50)));
                        }
                        None => {
                            shared
                                .wheel_cv
                                .wait_for(&mut wheel, Duration::from_millis(5));
                        }
                    }
                }
            })
            .expect("spawn delay pump");
    }
}

impl TransportHandle {
    /// Assemble a handle (used by the socket transport, whose inbox
    /// channels live in `crate::socket`).
    pub(crate) fn from_parts(
        node: NodeId,
        inbox: Receiver<Envelope>,
        transport: Transport,
    ) -> TransportHandle {
        TransportHandle {
            node,
            inbox,
            transport,
        }
    }

    /// Send a message from this node.
    pub fn send(&self, to: NodeId, msg: Message) {
        self.transport.send(Envelope {
            from: self.node,
            to,
            msg,
        });
    }

    /// Split into the inbox receiver and a send-only handle.
    ///
    /// With bounded inboxes, receiver ownership is load-bearing for
    /// shutdown: a peer parked in a blocking delivery is released only
    /// when *every* receiver of the target inbox is dropped. The replica
    /// pipeline therefore hands the receiver exclusively to its consumer
    /// threads (the verifier pool) and gives producer-only stages this
    /// sender — so a stopping replica's exiting consumers immediately
    /// disconnect its inbox and unblock any parked senders, instead of
    /// deadlocking the join on a receiver kept alive by a producer.
    pub fn split(self) -> (Receiver<Envelope>, TransportSender) {
        (
            self.inbox,
            TransportSender {
                node: self.node,
                transport: self.transport,
            },
        )
    }
}

/// The sending half of a [`TransportHandle`] (no inbox receiver).
/// Cloneable so that multiple producer-only stages of one replica (the
/// output thread and the checkpoint thread) can send concurrently.
#[derive(Clone)]
pub struct TransportSender {
    node: NodeId,
    transport: Transport,
}

impl TransportSender {
    /// Send a message from this node.
    pub fn send(&self, to: NodeId, msg: Message) {
        self.transport.send(Envelope {
            from: self.node,
            to,
            msg,
        });
    }

    /// Non-blocking send: `false` means the target inbox is full and the
    /// (non-droppable) message was handed back — hold it and retry. See
    /// [`InProcTransport::try_send`].
    pub fn try_send(&self, to: NodeId, msg: Message) -> bool {
        self.transport.try_send(Envelope {
            from: self.node,
            to,
            msg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::ids::ReplicaId;

    #[test]
    fn direct_delivery() {
        let t = InProcTransport::new(None);
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let ha = t.register(a);
        let hb = t.register(b);
        ha.send(b, Message::Noop);
        let env = hb.inbox.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.from, a);
        assert!(matches!(env.msg, Message::Noop));
    }

    #[test]
    fn delayed_delivery_takes_at_least_the_delay() {
        let delay: DelayFn = Arc::new(|_, _| SimDuration::from_millis(30));
        let t = InProcTransport::new(Some(delay));
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(1, 0).into();
        let _ha = t.register(a);
        let hb = t.register(b);
        let start = Instant::now();
        t.send(Envelope {
            from: a,
            to: b,
            msg: Message::Noop,
        });
        let _ = hb.inbox.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(28));
        t.shutdown();
    }

    #[test]
    fn delayed_ordering_respects_due_times() {
        // A message with a short delay overtakes one with a long delay.
        let delay: DelayFn = Arc::new(|from, _| match from {
            NodeId::Replica(r) if r.index == 0 => SimDuration::from_millis(80),
            _ => SimDuration::from_millis(10),
        });
        let t = InProcTransport::new(Some(delay));
        let slow: NodeId = ReplicaId::new(0, 0).into();
        let fast: NodeId = ReplicaId::new(0, 1).into();
        let dst: NodeId = ReplicaId::new(1, 0).into();
        let _h1 = t.register(slow);
        let _h2 = t.register(fast);
        let hd = t.register(dst);
        t.send(Envelope {
            from: slow,
            to: dst,
            msg: Message::Noop,
        });
        t.send(Envelope {
            from: fast,
            to: dst,
            msg: Message::Noop,
        });
        let first = hd.inbox.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(first.from, fast, "shorter delay must arrive first");
        t.shutdown();
    }

    #[test]
    fn delay_pump_sheds_or_requeues_instead_of_parking() {
        use crate::queue::QueuePolicy;
        use rdb_common::ids::ClientId;
        use rdb_consensus::types::SignedBatch;

        let delay: DelayFn = Arc::new(|_, _| SimDuration::from_millis(5));
        let t = InProcTransport::new(Some(delay));
        let client: NodeId = ClientId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let c: NodeId = ReplicaId::new(0, 2).into();
        let _hc_sender = t.register(client);
        let hb = t.register_bounded(b, QueuePolicy::shed(1));
        let hc = t.register(c);

        let request = || Message::Request(SignedBatch::noop(rdb_common::ids::ClusterId(0), 1));
        // Fill b's 1-slot inbox, then overflow it with one droppable
        // (shed) and one non-droppable (requeued) message, and follow
        // with traffic for c that must not be stalled behind them.
        t.send(Envelope {
            from: client,
            to: b,
            msg: Message::Noop,
        });
        t.send(Envelope {
            from: client,
            to: b,
            msg: Message::Noop,
        });
        t.send(Envelope {
            from: client,
            to: b,
            msg: request(),
        });
        t.send(Envelope {
            from: client,
            to: c,
            msg: Message::Noop,
        });

        // c's delivery proves the pump never parked on b's full inbox.
        hc.inbox
            .recv_timeout(Duration::from_secs(2))
            .expect("pump must keep serving other links");
        // Drain b: first the queued Noop, then the retried Request; the
        // second (droppable) Noop was shed and never arrives.
        let first = hb.inbox.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(matches!(first.msg, Message::Noop));
        let second = hb.inbox.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(
            matches!(second.msg, Message::Request(_)),
            "non-droppable overflow must be retried, not lost"
        );
        assert!(hb.inbox.recv_timeout(Duration::from_millis(100)).is_err());
        t.shutdown();
    }

    #[test]
    fn partition_drops_then_heals() {
        let t = InProcTransport::new(None);
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let ha = t.register(a);
        let hb = t.register(b);
        t.partition(vec![a], vec![b], Duration::ZERO, Duration::from_millis(150));
        // During the cut both directions drop.
        ha.send(b, Message::Noop);
        hb.send(a, Message::Noop);
        assert!(hb.inbox.recv_timeout(Duration::from_millis(50)).is_err());
        assert!(ha.inbox.recv_timeout(Duration::from_millis(50)).is_err());
        // After `until` the partition heals.
        std::thread::sleep(Duration::from_millis(120));
        ha.send(b, Message::Noop);
        assert!(hb.inbox.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn healed_partition_restores_the_lock_free_send_path() {
        // Regression: expired partitions used to linger in the list and
        // the `active` flag was never cleared, so every send after a
        // heal still took the partition mutex and scanned stale
        // windows.
        let t = InProcTransport::new(None);
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let ha = t.register(a);
        let hb = t.register(b);
        assert!(t.shared.partitions.fast_path_is_lock_free());
        t.partition(vec![a], vec![b], Duration::ZERO, Duration::from_millis(40));
        ha.send(b, Message::Noop);
        assert!(hb.inbox.recv_timeout(Duration::from_millis(30)).is_err());
        assert!(
            !t.shared.partitions.fast_path_is_lock_free(),
            "flag must be set while the cut is scheduled"
        );
        std::thread::sleep(Duration::from_millis(50));
        // The first send after the heal prunes the expired window...
        ha.send(b, Message::Noop);
        assert!(hb.inbox.recv_timeout(Duration::from_secs(1)).is_ok());
        // ...and every later send short-circuits without the lock.
        assert!(
            t.shared.partitions.fast_path_is_lock_free(),
            "post-heal sends must be lock-free again"
        );
    }

    #[test]
    fn overlapping_partitions_prune_independently() {
        let set = PartitionSet::new();
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        set.add(vec![a], vec![b], Duration::ZERO, Duration::from_millis(30));
        set.add(vec![a], vec![b], Duration::ZERO, Duration::from_millis(300));
        assert!(set.is_cut(a, b));
        std::thread::sleep(Duration::from_millis(50));
        // The short window expired but the long one still cuts: the
        // flag must survive the partial prune.
        assert!(set.is_cut(a, b));
        assert!(!set.fast_path_is_lock_free());
    }

    #[test]
    fn disconnect_drops_messages() {
        let t = InProcTransport::new(None);
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let ha = t.register(a);
        let hb = t.register(b);
        t.disconnect(b);
        ha.send(b, Message::Noop);
        assert!(hb.inbox.recv_timeout(Duration::from_millis(100)).is_err());
    }
}
