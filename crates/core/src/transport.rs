//! The transport: one `Router` above two byte-movers.
//!
//! The router owns, once, everything both meshes share: the inbox table
//! with its one delivery routine, the deployment's fault script, the
//! optional [`DelayFn`] with its delay wheel and pump thread, and the
//! running flag. Each mesh keeps only its byte-moving core: the
//! in-process mesh ([`InProcTransport`]) hands an [`Envelope`] straight to
//! the router, and the socket mesh ([`crate::socket`]) writes a frame
//! whose reader thread hands it to the router on the far side.
//! [`Transport`] is the one routing surface over both — fault check, then
//! arrive (in-process) or frame write (socket).
//!
//! The fault script is the simulator's: one read-only
//! [`FaultState`] built from the deployment's [`FaultSpec`]s, consulted
//! where the simulator consults it. At send, a crashed replica's
//! messages and a cut link's messages drop; at delivery (after any
//! injected delay), a message to a crashed replica drops. A crash is
//! therefore crash-stop: the replica's threads keep running, but nothing
//! it sends leaves and nothing reaches it.
//!
//! Replica inboxes registered via [`Transport::register_bounded`]
//! are the pipeline's *input stage queue*: delivery applies the queue's
//! [`QueuePolicy`] — droppable consensus traffic is shed at the bound
//! (counted per stage), while client `Request`s block the delivering
//! thread, which is exactly how admission control propagates from an
//! overloaded replica back to the submitting client. Client inboxes stay
//! unbounded ([`Transport::register`]): clients are closed-loop and
//! drain their own replies, so they are leaves of the blocking graph.
//!
//! Delayed links (a [`DelayFn`] topology, emulating a geo-distributed
//! deployment on one machine) relax admission. The delay sits in front
//! of the inbox: a delayed message parks in the delay wheel — modeling
//! traffic in flight on the WAN — and the thread that handed it over (the
//! sender in-process, the socket reader over TCP) returns immediately, so
//! it does not block. The single pump thread then delivers without ever
//! parking: droppable traffic is shed per the inbox policy, and a
//! non-droppable message that finds the inbox full is requeued briefly
//! and retried, i.e. it stays "in the network" until the replica has
//! room. In-flight wheel memory is bounded by the closed-loop clients'
//! outstanding requests plus consensus traffic, not by wall-clock.

use crate::deployment::TransportMode;
use crate::metrics::Metrics;
use crate::queue::{Overload, QueuePolicy};
use crate::socket::{fresh_epoch, SocketTransport};
use crate::sync::MutexExt;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use rdb_common::ids::NodeId;
use rdb_common::time::{SimDuration, SimTime};
use rdb_consensus::faults::{FaultSpec, FaultState};
use rdb_consensus::messages::Message;
use rdb_consensus::stage::Stage;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
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

/// The inbox table of one `Router` and the single inbox-delivery
/// routine both meshes use: look the inbox up, apply its
/// [`QueuePolicy`], account the input stage.
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
        self.table.guard().insert(node, Inbox { tx, policy });
        rx
    }

    /// Deliver `env` into its recipient's inbox. `None` means the message
    /// is accounted for: enqueued, shed (droppable traffic at a full Shed
    /// inbox), or dropped because the recipient is unregistered or shut
    /// down. A non-droppable message at a full inbox parks the caller or
    /// comes back as `Some`, per `on_full`.
    pub(crate) fn deliver(&self, env: Envelope, on_full: OnFull) -> Option<Envelope> {
        // Clone the sender out of the table so a parked delivery never
        // holds the table lock: other deliveries keep flowing while one
        // producer waits on a full input queue.
        let (tx, policy) = {
            let table = self.table.guard();
            let inbox = table.get(&env.to)?; // unregistered: drop
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

/// The deployment's fault script on its replicas' clock: a read-only
/// [`FaultState`] timed in the `SimTime` since `epoch`, the instant the
/// replicas' timer wheels count from. Fixed before any replica thread
/// starts, so consulting it takes no lock and no atomic.
pub(crate) struct FaultClock {
    epoch: Instant,
    state: FaultState,
}

impl FaultClock {
    /// `specs` on the clock started at `epoch`; `None` when there is no
    /// fault, so a fault-free router checks nothing but an `Option`.
    pub(crate) fn new(specs: &[FaultSpec], epoch: Instant) -> Option<FaultClock> {
        (!specs.is_empty()).then(|| FaultClock {
            epoch,
            state: FaultState::new(specs),
        })
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_nanos() as u64)
    }

    /// The simulator's send-time rule: a crashed replica sends nothing,
    /// and a cut replica-to-replica link drops.
    fn drops_send(&self, from: NodeId, to: NodeId) -> bool {
        let NodeId::Replica(a) = from else {
            return false;
        };
        let now = self.now();
        self.state.is_crashed(a, now)
            || matches!(to, NodeId::Replica(b) if self.state.is_dropped(a, b, now))
    }

    /// The simulator's delivery-time rule: a crashed replica receives
    /// nothing.
    fn drops_delivery(&self, to: NodeId) -> bool {
        matches!(to, NodeId::Replica(r) if self.state.is_crashed(r, self.now()))
    }
}

/// What both meshes share, once: inbox registration and delivery, the
/// fault script, the optional delay wheel with its pump thread, and the
/// running flag the mesh threads poll.
pub(crate) struct Router {
    inboxes: Inboxes,
    faults: Option<FaultClock>,
    delay: Option<DelayFn>,
    wheel: Mutex<BinaryHeap<Reverse<DelayedEntry>>>,
    wheel_cv: Condvar,
    seq: AtomicU64,
    running: AtomicBool,
    /// The delay pump (delayed routers only), joined by `shutdown`.
    pump: Mutex<Option<JoinHandle<()>>>,
}

impl Router {
    /// A running router. The pump thread exists only when `delay` is
    /// set, so a direct deployment runs no extra thread.
    pub(crate) fn new(
        delay: Option<DelayFn>,
        faults: Option<FaultClock>,
        metrics: Metrics,
    ) -> Arc<Router> {
        let router = Arc::new(Router {
            inboxes: Inboxes::new(metrics),
            faults,
            delay,
            wheel: Mutex::new(BinaryHeap::new()),
            wheel_cv: Condvar::new(),
            seq: AtomicU64::new(0),
            running: AtomicBool::new(true),
            pump: Mutex::new(None),
        });
        if router.delay.is_some() {
            // The pump holds the router weakly: a router dropped without
            // `shutdown` is freed, and the pump exits at its next round
            // instead of leaking.
            let weak = Arc::downgrade(&router);
            let pump = std::thread::Builder::new()
                .name("rdb-delay-pump".into())
                .spawn(move || while weak.upgrade().is_some_and(|r| r.pump_round()) {})
                .expect("spawn delay pump");
            *router.pump.guard() = Some(pump);
        }
        router
    }

    /// The counters inbox delivery accounts into.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.inboxes.metrics
    }

    /// False once [`Router::shutdown`] ran; mesh threads poll it.
    pub(crate) fn running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// Hand `env` to its recipient: into the delay wheel when its link is
    /// delayed (always accepted: the message is "in the network"),
    /// straight into the inbox otherwise. `Some` hands it back (see
    /// [`Inboxes::deliver`]).
    pub(crate) fn arrive(&self, env: Envelope, on_full: OnFull) -> Option<Envelope> {
        let delay = self
            .delay
            .as_ref()
            .map_or(SimDuration::ZERO, |f| f(env.from, env.to));
        if delay == SimDuration::ZERO {
            return self.deliver(env, on_full);
        }
        self.hold(Duration::from_nanos(delay.as_nanos()), env);
        self.wheel_cv.notify_one();
        None
    }

    /// Deliver `env` into its inbox unless its recipient has crashed by
    /// now, in which case it is dropped like a send to a dead host.
    fn deliver(&self, env: Envelope, on_full: OnFull) -> Option<Envelope> {
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.drops_delivery(env.to))
        {
            return None;
        }
        self.inboxes.deliver(env, on_full)
    }

    /// Hold `env` "in the network" for `after`; the pump delivers it.
    fn hold(&self, after: Duration, env: Envelope) {
        let due = Instant::now() + after;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.wheel
            .guard()
            .push(Reverse(DelayedEntry { due, seq, env }));
    }

    /// One pump round: deliver everything due, then wait for the next
    /// due time or a new arrival. `false` once the router is shut down.
    fn pump_round(&self) -> bool {
        let mut wheel = self.wheel.guard();
        let now = Instant::now();
        while wheel.peek().is_some_and(|Reverse(e)| e.due <= now) {
            let Reverse(e) = wheel.pop().expect("peeked");
            drop(wheel);
            // The pump serves every delayed link, so it must never park
            // on one replica's full inbox (that would stall delayed
            // traffic cluster-wide): a non-droppable message that finds
            // the queue full goes back into the wheel and is retried
            // shortly — the delayed-link analogue of blocking admission
            // on direct links. No notify: this is the pump thread.
            if let Some(env) = self.deliver(e.env, OnFull::HandBack) {
                self.hold(Duration::from_micros(200), env);
            }
            wheel = self.wheel.guard();
        }
        // Read under the wheel lock, which `shutdown` takes to clear the
        // flag, so its wake-up cannot slip in before the wait.
        if !self.running() {
            return false;
        }
        let wait = wheel.peek().map_or(Duration::from_millis(5), |Reverse(e)| {
            e.due
                .saturating_duration_since(Instant::now())
                .max(Duration::from_micros(50))
        });
        let _wheel = self
            .wheel_cv
            .wait_timeout(wheel, wait)
            .unwrap_or_else(PoisonError::into_inner);
        true
    }

    /// Clear the running flag and join the pump. A second call is a
    /// no-op.
    pub(crate) fn shutdown(&self) {
        {
            let _wheel = self.wheel.guard();
            self.running.store(false, Ordering::SeqCst);
        }
        self.wheel_cv.notify_all();
        if let Some(pump) = self.pump.guard().take() {
            let _ = pump.join();
        }
    }
}

/// The in-process mesh: envelopes go straight to the `Router` over
/// crossbeam channels, so no bytes move. Cloneable handle.
#[derive(Clone)]
pub struct InProcTransport {
    router: Arc<Router>,
}

impl InProcTransport {
    /// Create a transport. `delay` injects per-link one-way delays (e.g.
    /// from `rdb-simnet`'s Table 1 topology); `None` delivers directly.
    pub fn new(delay: Option<DelayFn>) -> InProcTransport {
        InProcTransport {
            router: Router::new(delay, None, Metrics::default()),
        }
    }
}

/// A node's endpoint: its receiver plus a sending handle.
pub struct TransportHandle {
    /// This node.
    pub node: NodeId,
    /// Incoming envelopes.
    pub inbox: Receiver<Envelope>,
    transport: Transport,
}

/// Either mesh behind one routing surface, so the replica and client
/// runtimes are transport-agnostic: [`TransportHandle`] /
/// [`TransportSender`] wrap this enum and every call site stays the
/// same whether messages travel over crossbeam channels or sockets.
/// Registration, the fault script and delays are the shared `Router`'s;
/// only the last hop differs per mesh.
///
/// In-process is the default everywhere — it keeps the repro figures
/// byte-identical. The socket transport exists to span OS processes
/// with real framing; see `crate::socket` and the "Wire transport"
/// chapter of `docs/ARCHITECTURE.md` for the decision table.
#[derive(Clone)]
pub enum Transport {
    /// Channel mesh within one process.
    InProc(InProcTransport),
    /// TCP sockets with length-prefixed frames.
    Socket(SocketTransport),
}

impl Transport {
    /// `mode`'s mesh over a fresh router carrying `delay` and `faults`
    /// and counting into `metrics` (the deployment's transport).
    pub(crate) fn new(
        mode: TransportMode,
        delay: Option<DelayFn>,
        faults: Option<FaultClock>,
        metrics: Metrics,
    ) -> Transport {
        let router = Router::new(delay, faults, metrics);
        match mode {
            TransportMode::InProcess => Transport::InProc(InProcTransport { router }),
            TransportMode::Tcp => Transport::Socket(SocketTransport::over(router, fresh_epoch())),
        }
    }

    fn router(&self) -> &Router {
        match self {
            Transport::InProc(t) => &t.router,
            Transport::Socket(t) => &t.router,
        }
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
        let inbox = self.router().inboxes.register(node, policy);
        if let Transport::Socket(t) = self {
            t.listen(node);
        }
        TransportHandle {
            node,
            inbox,
            transport: self.clone(),
        }
    }

    /// Send an envelope. On a direct in-process link a full inbox parks
    /// the caller for non-droppable traffic.
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
    /// [`Inboxes::deliver`]). Both meshes apply the fault script's send
    /// rule here, before the last hop: a cut link models a WAN failure,
    /// not a closed socket.
    fn route(&self, env: Envelope, on_full: OnFull) -> Option<Envelope> {
        let faults = self.router().faults.as_ref();
        if faults.is_some_and(|f| f.drops_send(env.from, env.to)) {
            return None;
        }
        match self {
            Transport::InProc(t) => t.router.arrive(env, on_full),
            Transport::Socket(t) => {
                // On sockets the kernel buffer plays the delay wheel's
                // role — a written frame is "in the network" — so the
                // message is always accounted for.
                t.send_frame(env);
                None
            }
        }
    }

    /// Stop background threads (the delay pump, socket accept loops and
    /// readers) and join them.
    pub fn shutdown(&self) {
        self.router().shutdown();
        if let Transport::Socket(t) = self {
            t.close();
        }
    }
}

impl TransportHandle {
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
    /// [`Transport::try_send`].
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

    const MESHES: [TransportMode; 2] = [TransportMode::InProcess, TransportMode::Tcp];

    fn send(t: &Transport, from: NodeId, to: NodeId, msg: Message) {
        t.send(Envelope { from, to, msg });
    }

    #[test]
    fn direct_delivery() {
        let t = Transport::InProc(InProcTransport::new(None));
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
        for mode in MESHES {
            let delay: DelayFn = Arc::new(|_, _| SimDuration::from_millis(30));
            let t = Transport::new(mode, Some(delay), None, Metrics::default());
            let a: NodeId = ReplicaId::new(0, 0).into();
            let b: NodeId = ReplicaId::new(1, 0).into();
            let _ha = t.register(a);
            let hb = t.register(b);
            let start = Instant::now();
            send(&t, a, b, Message::Noop);
            let _ = hb.inbox.recv_timeout(Duration::from_secs(2)).unwrap();
            assert!(start.elapsed() >= Duration::from_millis(28), "{mode:?}");
            t.shutdown();
        }
    }

    #[test]
    fn delayed_ordering_respects_due_times() {
        for mode in MESHES {
            // A message with a short delay overtakes one with a long delay.
            let delay: DelayFn = Arc::new(|from, _| match from {
                NodeId::Replica(r) if r.index == 0 => SimDuration::from_millis(80),
                _ => SimDuration::from_millis(10),
            });
            let t = Transport::new(mode, Some(delay), None, Metrics::default());
            let slow: NodeId = ReplicaId::new(0, 0).into();
            let fast: NodeId = ReplicaId::new(0, 1).into();
            let dst: NodeId = ReplicaId::new(1, 0).into();
            let _h1 = t.register(slow);
            let _h2 = t.register(fast);
            let hd = t.register(dst);
            send(&t, slow, dst, Message::Noop);
            send(&t, fast, dst, Message::Noop);
            let first = hd.inbox.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(
                first.from, fast,
                "{mode:?}: shorter delay must arrive first"
            );
            t.shutdown();
        }
    }

    #[test]
    fn delay_pump_sheds_or_requeues_instead_of_parking() {
        use rdb_common::ids::ClientId;
        use rdb_consensus::types::SignedBatch;

        for mode in MESHES {
            let delay: DelayFn = Arc::new(|_, _| SimDuration::from_millis(5));
            let metrics = Metrics::default();
            let t = Transport::new(mode, Some(delay), None, metrics.clone());
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
            send(&t, client, b, Message::Noop);
            send(&t, client, b, Message::Noop);
            send(&t, client, b, request());
            send(&t, client, c, Message::Noop);

            // c's delivery proves the pump never parked on b's full inbox.
            hc.inbox
                .recv_timeout(Duration::from_secs(2))
                .expect("pump must keep serving other links");
            // Over TCP, c's frame travels on its own connection and may
            // overtake b's: drain b only once the overflow was shed.
            let deadline = Instant::now() + Duration::from_secs(2);
            while metrics.stage_snapshot().row(Stage::Input).shed == 0 {
                assert!(Instant::now() < deadline, "{mode:?}: overflow never shed");
                std::thread::sleep(Duration::from_millis(1));
            }
            // Drain b: first the queued Noop, then the retried Request; the
            // second (droppable) Noop was shed and never arrives.
            let first = hb.inbox.recv_timeout(Duration::from_secs(2)).unwrap();
            assert!(matches!(first.msg, Message::Noop), "{mode:?}");
            let second = hb.inbox.recv_timeout(Duration::from_secs(2)).unwrap();
            assert!(
                matches!(second.msg, Message::Request(_)),
                "{mode:?}: non-droppable overflow must be retried, not lost"
            );
            assert!(hb.inbox.recv_timeout(Duration::from_millis(100)).is_err());
            t.shutdown();
        }
    }

    #[test]
    fn delay_pump_has_exited_when_shutdown_returns() {
        let delay: DelayFn = Arc::new(|_, _| SimDuration::from_millis(50));
        let router = Router::new(Some(delay.clone()), None, Metrics::default());
        // The pump thread's closure owns the only weak reference; it is
        // dropped exactly when the thread finishes.
        assert_eq!(Arc::weak_count(&router), 1);
        router.shutdown();
        assert_eq!(Arc::weak_count(&router), 0, "pump still running");
        router.shutdown(); // a second shutdown is a no-op

        // A router dropped without `shutdown` is freed, not kept alive
        // by its pump.
        let router = Router::new(Some(delay), None, Metrics::default());
        let weak = Arc::downgrade(&router);
        drop(router);
        let deadline = Instant::now() + Duration::from_secs(2);
        while weak.strong_count() > 0 {
            assert!(Instant::now() < deadline, "pump keeps the router alive");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A transport whose fault script starts now.
    fn faulty(mode: TransportMode, faults: &[FaultSpec]) -> Transport {
        let clock = FaultClock::new(faults, Instant::now());
        Transport::new(mode, None, clock, Metrics::default())
    }

    #[test]
    fn partition_drops_then_heals() {
        for mode in MESHES {
            let [a, b] = [ReplicaId::new(0, 0), ReplicaId::new(0, 1)];
            let heal = SimTime(SimDuration::from_millis(150).as_nanos());
            let t = faulty(mode, &FaultSpec::partition(&[a], &[b], SimTime::ZERO, heal));
            let ha = t.register(a.into());
            let hb = t.register(b.into());
            // During the cut both directions drop.
            ha.send(b.into(), Message::Noop);
            hb.send(a.into(), Message::Noop);
            assert!(hb.inbox.recv_timeout(Duration::from_millis(50)).is_err());
            assert!(ha.inbox.recv_timeout(Duration::from_millis(50)).is_err());
            // After `until` the partition heals.
            std::thread::sleep(Duration::from_millis(120));
            ha.send(b.into(), Message::Noop);
            assert!(
                hb.inbox.recv_timeout(Duration::from_secs(5)).is_ok(),
                "{mode:?}"
            );
            t.shutdown();
        }
    }

    #[test]
    fn crashed_replica_neither_sends_nor_receives() {
        // Crash-stop, as in the simulator: the crashed replica's own
        // sends drop too, not only deliveries to it.
        for mode in MESHES {
            let [r, peer, a, b] = [0, 1, 2, 3].map(|i| ReplicaId::new(0, i));
            let t = faulty(
                mode,
                &[FaultSpec::Crash {
                    replica: r,
                    at: SimTime::ZERO,
                }],
            );
            let hr = t.register(r.into());
            let hp = t.register(peer.into());
            let ha = t.register(a.into());
            let hb = t.register(b.into());
            hr.send(peer.into(), Message::Noop);
            hp.send(r.into(), Message::Noop);
            // An unrelated link still delivers.
            ha.send(b.into(), Message::Noop);
            let env = hb.inbox.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(env.from, a.into(), "{mode:?}");
            assert!(
                hp.inbox.recv_timeout(Duration::from_millis(200)).is_err(),
                "{mode:?}: a crashed replica's message was delivered"
            );
            assert!(
                hr.inbox.recv_timeout(Duration::from_millis(200)).is_err(),
                "{mode:?}: a crashed replica received a message"
            );
            t.shutdown();
        }
    }

    /// `ms` milliseconds after the fault script's epoch.
    fn at_ms(ms: u64) -> SimTime {
        SimTime(SimDuration::from_millis(ms).as_nanos())
    }

    #[test]
    fn an_empty_fault_script_adds_no_check() {
        // A fault-free router consults no schedule on the send path.
        assert!(FaultClock::new(&[], Instant::now()).is_none());
        for mode in MESHES {
            let t = faulty(mode, &[]);
            assert!(t.router().faults.is_none(), "{mode:?}");
            t.shutdown();
        }
    }

    #[test]
    fn crash_takes_effect_at_its_scheduled_time() {
        for mode in MESHES {
            let [r, peer] = [ReplicaId::new(0, 0), ReplicaId::new(0, 1)];
            let t = faulty(
                mode,
                &[FaultSpec::Crash {
                    replica: r,
                    at: at_ms(400),
                }],
            );
            // The script's epoch is no later than this.
            let start = Instant::now();
            let hr = t.register(r.into());
            let hp = t.register(peer.into());
            // Before its crash the replica still sends.
            hr.send(peer.into(), Message::Noop);
            assert!(
                hp.inbox.recv_timeout(Duration::from_secs(5)).is_ok(),
                "{mode:?}: a send before the crash was dropped"
            );
            std::thread::sleep(Duration::from_millis(420).saturating_sub(start.elapsed()));
            hr.send(peer.into(), Message::Noop);
            assert!(
                hp.inbox.recv_timeout(Duration::from_millis(200)).is_err(),
                "{mode:?}: a send after the crash was delivered"
            );
            t.shutdown();
        }
    }

    #[test]
    fn message_in_flight_to_a_replica_that_crashes_is_dropped() {
        // The delivery-time rule on a delayed link: sent while the
        // recipient was up, due after it crashed.
        for mode in MESHES {
            let [sender, victim, live] = [0, 1, 2].map(|i| ReplicaId::new(0, i));
            let delay: DelayFn = Arc::new(|_, _| SimDuration::from_millis(200));
            let crash = [FaultSpec::Crash {
                replica: victim,
                at: at_ms(100),
            }];
            let clock = FaultClock::new(&crash, Instant::now());
            let t = Transport::new(mode, Some(delay), clock, Metrics::default());
            let hs = t.register(sender.into());
            let hv = t.register(victim.into());
            let hl = t.register(live.into());
            hs.send(victim.into(), Message::Noop);
            hs.send(live.into(), Message::Noop);
            assert!(
                hl.inbox.recv_timeout(Duration::from_secs(5)).is_ok(),
                "{mode:?}: the live recipient's message was lost"
            );
            assert!(
                hv.inbox.recv_timeout(Duration::from_millis(200)).is_err(),
                "{mode:?}: a message reached a crashed replica"
            );
            t.shutdown();
        }
    }

    #[test]
    fn dropped_link_cuts_one_direction_only() {
        for mode in MESHES {
            let [a, b] = [ReplicaId::new(0, 0), ReplicaId::new(0, 1)];
            let t = faulty(mode, &[FaultSpec::drop_link(a, b, SimTime::ZERO)]);
            let ha = t.register(a.into());
            let hb = t.register(b.into());
            ha.send(b.into(), Message::Noop);
            hb.send(a.into(), Message::Noop);
            let env = ha.inbox.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(env.from, b.into(), "{mode:?}");
            assert!(
                hb.inbox.recv_timeout(Duration::from_millis(200)).is_err(),
                "{mode:?}: a message crossed the cut direction"
            );
            t.shutdown();
        }
    }
}
