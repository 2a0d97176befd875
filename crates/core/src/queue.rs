//! Bounded stage queues and the end-to-end backpressure policy.
//!
//! The paper's Figure-9 pipeline only sustains load because no stage can
//! be overrun: every inter-stage queue is *bounded*, and what happens at
//! the bound is an explicit, per-queue policy instead of unbounded memory
//! growth (the queue-collapse failure mode the "Looking Glass" companion
//! study documents in permissioned fabrics). This module is the one owner
//! of that decision:
//!
//! * [`QueuePolicy`] — the input queue's capacity plus its [`Overload`]
//!   behavior;
//! * [`StageQueues`] — the full per-replica layout (input → work → exec),
//!   with defaults derived from batch size and verifier fan-out via
//!   [`StageQueues::derive`];
//! * `StageSender` — the producer end of every bounded queue in the
//!   fabric (the replica inboxes and the two interior queues). It alone
//!   decides what a full queue does — park, shed, or hand the item back —
//!   and it alone counts the fed stage's `enqueued`, `shed` and
//!   `blocked_ns`, so no producer accounts a hand-off itself.
//!
//! ## What each policy means
//!
//! **Block** parks the producer until the consumer makes room. Inside one
//! replica this chains backwards — a full work queue blocks the
//! verifiers, which stops them draining the inbox, which fills the input
//! queue, which blocks the transport — until the pressure reaches the
//! *client thread* submitting new requests. That is admission control:
//! an overloaded deployment slows its clients instead of growing queues.
//! Every interior queue blocks: admitted traffic is never lost.
//!
//! **Shed** (input queue only) drops the item at the full queue and
//! counts it, but only for messages that are
//! [`droppable`](rdb_consensus::messages::Message::droppable) —
//! replica-to-replica consensus traffic that some retransmission path
//! (client retry timers, progress/view-change timers) will re-drive. A
//! non-droppable item (a client's original `Request`) blocks even on a
//! queue whose policy is Shed. Shedding replica-to-replica traffic is
//! also what keeps the in-process deployment deadlock-free: a replica's
//! worker sends only droppable traffic, so it never parks on another
//! replica's full inbox, and the only threads that block across nodes
//! are client submission threads — leaves of the flow graph.
//!
//! **Hand-back** is for threads that must not park on one peer's inbox
//! (the delay pump, the execute thread's checkpoint votes, the client
//! driver): a
//! non-droppable item at a full queue comes back to the caller to hold
//! and retry, and counts nothing until an attempt succeeds.
//!
//! `rdb-simnet` applies the same [`Overload`] and the same input bound
//! ([`rdb_consensus::stage::input_capacity`]) to its modeled input
//! queue, so saturation behaves identically — shed for droppable traffic,
//! delayed admission for requests — in virtual time.

use crate::metrics::Metrics;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use rdb_consensus::stage::{input_capacity, Stage};
use std::time::Instant;

pub use rdb_consensus::stage::Overload;

/// Capacity and overload behavior of one inter-stage queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Maximum queued items (≥ 1) before the overload policy applies.
    pub capacity: usize,
    /// What producers do at the bound.
    pub overload: Overload,
}

impl QueuePolicy {
    /// A blocking queue of `capacity` items.
    pub fn block(capacity: usize) -> QueuePolicy {
        QueuePolicy {
            capacity: capacity.max(1),
            overload: Overload::Block,
        }
    }

    /// A shedding queue of `capacity` items (droppable traffic is dropped
    /// at the bound; non-droppable traffic still blocks).
    pub fn shed(capacity: usize) -> QueuePolicy {
        QueuePolicy {
            capacity: capacity.max(1),
            overload: Overload::Shed,
        }
    }
}

/// The bounded-queue layout of one replica's pipeline, in flow order.
///
/// Three queues connect the pipeline stages (the transport's delivery *is*
/// the input stage, so the inbox doubles as the verify stage's feed; the
/// exec queue carries the peers' checkpoint votes beside the decisions,
/// because the execute thread is the checkpoint stage too; and the
/// worker hands its outbound messages to the transport itself, so the
/// output stage has no queue):
///
/// ```text
/// transport ─▶ [input] ─▶ verify ×N ─▶ [work] ─▶ order ─▶ [exec] ─▶ execute + checkpoint
///                           │                      │         ▲
///                           │                      └─▶ (output) ─▶ transport
///                           └─ (pipeline ckpt votes) ────────┘
/// ```
///
/// Only the input queue has a policy; the two interior queues always
/// block, so they are plain capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageQueues {
    /// Transport → verifier pool (the replica's inbox). Default policy is
    /// [`Overload::Shed`]: droppable consensus traffic is shed at the
    /// bound, client `Request`s block their submitter.
    pub input: QueuePolicy,
    /// Verifier pool → ordering worker (verified messages). A full work
    /// queue parks the verifiers, which lets the inbox fill and pushes the
    /// pressure to the transport edge.
    pub work: usize,
    /// Ordering worker → execute thread (finalized decisions), and
    /// verifier pool → execute thread (peer checkpoint votes). Decisions
    /// are agreed state and votes are not retransmittable — no timer
    /// re-drives a lost vote, so shedding one could stall stability (and
    /// the garbage collection it gates) forever — so nothing here is ever
    /// shed. The bound doubles as the overload signal: an execute thread
    /// slowed by its checkpoint work lets this queue fill, which parks the
    /// worker and throttles the whole replica, bounding exec-to-stable
    /// lag. The execute thread never parks on a peer's *inbox*: it
    /// delivers its votes with a hand-back send
    /// (`TransportSender::try_send`) and retries what comes back. Over
    /// TCP its frame write can still park on a full socket buffer (see
    /// `crate::socket`).
    pub exec: usize,
}

impl StageQueues {
    /// Derive the default layout from the workload shape, the way the
    /// paper's fabric sizes its queues to the deployment:
    ///
    /// * the *input* queue is [`input_capacity`], the bound the simulator
    ///   models too;
    /// * the *work* queue holds what the fan-out can verify ahead of the
    ///   worker — half the input bound, floor 32;
    /// * the *exec* queue holds a handful of in-flight decisions (each is
    ///   a whole batch; a deep queue here just hides execution lag).
    pub fn derive(batch_size: usize, verifier_threads: usize) -> StageQueues {
        let input = input_capacity(batch_size, verifier_threads);
        StageQueues {
            input: QueuePolicy::shed(input),
            work: (input / 2).max(32),
            exec: 16,
        }
    }
}

/// What a [`StageSender`] did with the item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendOutcome {
    /// Enqueued (possibly after blocking).
    Sent,
    /// Dropped at a full queue under [`Overload::Shed`].
    Shed,
    /// The consumer is gone (shutdown); the item was discarded.
    Disconnected,
}

/// The producer end of one bounded stage queue: the channel, its
/// [`Overload`] rule, and the stage it feeds, whose `enqueued`, `shed`
/// and `blocked_ns` counters it keeps. Cloning shares the queue.
pub(crate) struct StageSender<T> {
    tx: Sender<T>,
    overload: Overload,
    stage: Stage,
    metrics: Metrics,
}

impl<T> Clone for StageSender<T> {
    fn clone(&self) -> Self {
        StageSender {
            tx: self.tx.clone(),
            overload: self.overload,
            stage: self.stage,
            metrics: self.metrics.clone(),
        }
    }
}

/// A bounded queue of `policy.capacity` (at least 1) items feeding
/// `stage`, accounted in `metrics`.
pub(crate) fn stage_queue<T>(
    policy: QueuePolicy,
    stage: Stage,
    metrics: &Metrics,
) -> (StageSender<T>, Receiver<T>) {
    let (tx, rx) = bounded(policy.capacity.max(1));
    let sender = StageSender {
        tx,
        overload: policy.overload,
        stage,
        metrics: metrics.clone(),
    };
    (sender, rx)
}

impl<T> StageSender<T> {
    /// Another producer end of the same queue that counts its hand-offs
    /// in `stage`'s row: one consumer can be fed on behalf of two stages.
    pub(crate) fn for_stage(&self, stage: Stage) -> StageSender<T> {
        StageSender {
            stage,
            ..self.clone()
        }
    }

    /// Enqueue `item`, parking while the queue is full unless the item is
    /// `droppable` and the queue sheds. The park is charged to the stage's
    /// blocked time; the fast path is one `try_send` and reads no clock.
    pub(crate) fn send(&self, item: T, droppable: bool) -> SendOutcome {
        self.try_send(item, droppable).unwrap_or_else(|item| {
            let t0 = Instant::now();
            let sent = self.tx.send(item).is_ok();
            self.metrics.stage_blocked(self.stage, t0.elapsed());
            if sent {
                self.metrics.stage_enqueued(self.stage);
                SendOutcome::Sent
            } else {
                SendOutcome::Disconnected
            }
        })
    }

    /// Enqueue `item` without ever parking: `Err` hands an item that
    /// found the queue full (and could not be shed) back to the caller,
    /// counting nothing.
    pub(crate) fn try_send(&self, item: T, droppable: bool) -> Result<SendOutcome, T> {
        match self.tx.try_send(item) {
            Ok(()) => {
                self.metrics.stage_enqueued(self.stage);
                Ok(SendOutcome::Sent)
            }
            Err(TrySendError::Disconnected(_)) => Ok(SendOutcome::Disconnected),
            Err(TrySendError::Full(_)) if droppable && self.overload == Overload::Shed => {
                self.metrics.stage_shed(self.stage);
                Ok(SendOutcome::Shed)
            }
            Err(TrySendError::Full(item)) => Err(item),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StageRow;
    use std::time::Duration;

    fn row(m: &Metrics, stage: Stage) -> StageRow {
        m.stage_snapshot().row(stage).clone()
    }

    #[test]
    fn derive_scales_with_batch_and_fanout() {
        let small = StageQueues::derive(1, 1);
        assert_eq!(small.input.capacity, 64, "floor applies");
        assert_eq!(small.input.overload, Overload::Shed);
        let large = StageQueues::derive(100, 4);
        assert!(large.input.capacity > small.input.capacity);
        assert!(large.work > small.work);
    }

    #[test]
    fn policy_constructors_clamp_capacity() {
        assert_eq!(QueuePolicy::block(0).capacity, 1);
        assert_eq!(QueuePolicy::shed(0).capacity, 1);
    }

    /// Fails if a successful hand-off is counted zero times or twice.
    #[test]
    fn sent_counts_enqueued_exactly_once() {
        let m = Metrics::new();
        let (tx, rx) = stage_queue::<u32>(QueuePolicy::block(2), Stage::Order, &m);
        assert_eq!(tx.send(1, false), SendOutcome::Sent);
        assert_eq!(tx.try_send(2, true), Ok(SendOutcome::Sent));
        let r = row(&m, Stage::Order);
        assert_eq!((r.enqueued, r.shed, r.blocked), (2, 0, Duration::ZERO));
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [1, 2]);
    }

    /// Fails if a shed item is counted as enqueued, or not counted shed.
    #[test]
    fn shed_counts_shed_and_never_enqueued() {
        let m = Metrics::new();
        let (tx, rx) = stage_queue::<u32>(QueuePolicy::shed(1), Stage::Input, &m);
        assert_eq!(tx.send(1, true), SendOutcome::Sent);
        assert_eq!(tx.send(2, true), SendOutcome::Shed);
        assert_eq!(tx.try_send(3, true), Ok(SendOutcome::Shed));
        let r = row(&m, Stage::Input);
        assert_eq!((r.enqueued, r.shed), (1, 2));
        assert_eq!(
            rx.try_iter().collect::<Vec<_>>(),
            [1],
            "shed items never arrive"
        );
    }

    /// A parked send, on a Block queue and for a non-droppable item on a
    /// Shed queue. Fails if the wait is not charged to the stage or the
    /// item it delivers is not counted enqueued.
    #[test]
    fn parked_send_counts_blocked_time_then_enqueued() {
        for policy in [QueuePolicy::block(1), QueuePolicy::shed(1)] {
            let m = Metrics::new();
            let (tx, rx) = stage_queue::<u32>(policy, Stage::Order, &m);
            tx.send(1, false);
            let t = std::thread::spawn(move || tx.send(2, false));
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(
                row(&m, Stage::Order).enqueued,
                1,
                "{policy:?}: still parked"
            );
            assert_eq!(rx.recv().unwrap(), 1); // make room
            assert_eq!(t.join().unwrap(), SendOutcome::Sent);
            assert_eq!(rx.recv().unwrap(), 2);
            let r = row(&m, Stage::Order);
            assert_eq!((r.enqueued, r.shed), (2, 0), "{policy:?}");
            assert!(
                r.blocked >= Duration::from_millis(10),
                "{policy:?}: wait unaccounted"
            );
        }
    }

    /// Fails if a handed-back item is counted (enqueued, shed or blocked)
    /// before the attempt that enqueues it.
    #[test]
    fn handed_back_item_counts_nothing_until_a_later_attempt_succeeds() {
        let m = Metrics::new();
        let (tx, rx) = stage_queue::<u32>(QueuePolicy::shed(1), Stage::Input, &m);
        tx.send(1, false);
        assert_eq!(tx.try_send(2, false), Err(2), "non-droppable comes back");
        let r = row(&m, Stage::Input);
        assert_eq!((r.enqueued, r.shed, r.blocked), (1, 0, Duration::ZERO));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(tx.try_send(2, false), Ok(SendOutcome::Sent));
        let r = row(&m, Stage::Input);
        assert_eq!((r.enqueued, r.shed, r.blocked), (2, 0, Duration::ZERO));
    }

    /// Client inboxes are unbounded and outside the pipeline. Fails if a
    /// delivery to one is counted in the Input row.
    #[test]
    fn client_inbox_delivery_counts_no_input() {
        use crate::transport::{Envelope, Inboxes, OnFull};
        use rdb_common::ids::{ClientId, NodeId, ReplicaId};
        use rdb_consensus::messages::Message;

        let m = Metrics::new();
        let inboxes = Inboxes::new(m.clone());
        let client: NodeId = ClientId::new(0, 0).into();
        let replica: NodeId = ReplicaId::new(0, 0).into();
        let client_rx = inboxes.register(client, None);
        let replica_rx = inboxes.register(replica, Some(QueuePolicy::shed(4)));
        for to in [client, replica] {
            let env = Envelope {
                from: ReplicaId::new(0, 1).into(),
                to,
                msg: Message::Noop,
            };
            assert!(inboxes.deliver(env, OnFull::Park).is_none());
        }
        assert_eq!(client_rx.len() + replica_rx.len(), 2);
        assert_eq!(row(&m, Stage::Input).enqueued, 1, "only the replica's");
    }

    #[test]
    fn disconnected_consumer_reports_shutdown() {
        let m = Metrics::new();
        let (tx, rx) = stage_queue::<u32>(QueuePolicy::block(1), Stage::Order, &m);
        drop(rx);
        assert_eq!(tx.send(1, false), SendOutcome::Disconnected);
        assert_eq!(tx.try_send(1, false), Ok(SendOutcome::Disconnected));
        assert_eq!(row(&m, Stage::Order).enqueued, 0);
    }
}
