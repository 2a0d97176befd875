//! Bounded stage queues and the end-to-end backpressure policy.
//!
//! The paper's Figure-9 pipeline only sustains load because no stage can
//! be overrun: every inter-stage queue is *bounded*, and what happens at
//! the bound is an explicit, per-queue policy instead of unbounded memory
//! growth (the queue-collapse failure mode the "Looking Glass" companion
//! study documents in permissioned fabrics). This module is the shared
//! vocabulary for that policy:
//!
//! * [`QueuePolicy`] — one queue's capacity plus its [`Overload`]
//!   behavior;
//! * [`StageQueues`] — the full per-replica layout (input → work → exec →
//!   checkpoint → output), with defaults derived from batch size and
//!   verifier fan-out via [`StageQueues::derive`];
//! * [`send_with_policy`] — the one enqueue primitive every producer in
//!   the fabric uses, which implements Block (measured in the stage's
//!   `blocked_ns` counter) and Shed (counted in the stage's `shed`
//!   counter).
//!
//! ## What each policy means
//!
//! **Block** parks the producer until the consumer makes room. Inside one
//! replica this chains backwards — a full work queue blocks the
//! verifiers, which stops them draining the inbox, which fills the input
//! queue, which blocks the transport — until the pressure reaches the
//! *client thread* submitting new requests. That is admission control:
//! an overloaded deployment slows its clients instead of growing queues.
//!
//! **Shed** drops the item at the full queue and counts it, but only for
//! messages that are [`droppable`](rdb_consensus::messages::Message::droppable)
//! — replica-to-replica consensus traffic that some retransmission path
//! (client retry timers, progress/view-change timers) will re-drive. A
//! non-droppable item (a client's original `Request`) blocks even on a
//! queue whose policy is Shed. Shedding replica-to-replica traffic is
//! also what makes the deployment deadlock-free: no replica's output
//! thread can ever park forever on another replica's full inbox, so the
//! only threads that block across nodes are client submission threads —
//! leaves of the flow graph.
//!
//! `rdb-simnet` applies the same [`Overload`] and the same input bound
//! ([`rdb_consensus::stage::input_capacity`]) to its modeled input
//! queue, so saturation behaves identically — shed for droppable traffic,
//! delayed admission for requests — in virtual time.

use crate::metrics::Metrics;
use crossbeam::channel::{Sender, TrySendError};
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
/// Five queues connect the six pipeline stages (the transport's delivery
/// *is* the input stage, so the inbox doubles as the verify stage's feed;
/// the checkpoint queue hangs off the execute stage):
///
/// ```text
/// transport ─▶ [input] ─▶ verify ×N ─▶ [work] ─▶ order ─▶ [exec] ─▶ execute
///                  │                               │                   │
///                  │ (pipeline ckpt votes)         └─▶ [output] ─▶ output thread
///                  └────────▶ verify ─▶ [checkpoint] ◀─────────────────┘
///                                            └─▶ checkpoint thread
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageQueues {
    /// Transport → verifier pool (the replica's inbox). Default policy is
    /// [`Overload::Shed`]: droppable consensus traffic is shed at the
    /// bound, client `Request`s block their submitter.
    pub input: QueuePolicy,
    /// Verifier pool → ordering worker (verified messages). Blocking: a
    /// full work queue parks the verifiers, which lets the inbox fill and
    /// pushes the pressure to the transport edge.
    pub work: QueuePolicy,
    /// Ordering worker → execution thread (finalized decisions). Blocking:
    /// decisions are agreed state and must never be shed.
    pub exec: QueuePolicy,
    /// Execute stage → checkpoint thread (snapshot jobs), and verifier
    /// pool → checkpoint thread (peer checkpoint votes). **Must block**:
    /// checkpoints are not retransmittable state — no timer re-drives a
    /// lost snapshot or vote, so shedding here could stall stability (and
    /// the garbage collection it gates) forever. The bound doubles as the
    /// overload signal the ROADMAP called for: a backlogged checkpoint
    /// queue parks the *executor*, which fills the exec queue, parks the
    /// worker, and throttles the whole replica — bounding exec-to-stable
    /// lag instead of letting stable-state lag grow without bound. The
    /// chain is deadlock-free because the checkpoint thread itself never
    /// parks: it delivers its votes to peers with a non-blocking
    /// hold-and-retry send (`TransportSender::try_send`), so it always
    /// returns to drain its queue.
    pub checkpoint: QueuePolicy,
    /// Ordering worker → output thread (outbound messages). Blocking
    /// locally; the output thread itself sheds droppable traffic at *peer*
    /// inboxes, so this never deadlocks across replicas.
    pub output: QueuePolicy,
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
    ///   a whole batch; a deep queue here just hides execution lag);
    /// * the *checkpoint* queue is deliberately shallow (Block policy,
    ///   see the field docs): one interval's snapshot job plus a burst of
    ///   peer votes fit, and anything deeper would only delay the
    ///   execution throttle that bounds exec-to-stable lag;
    /// * the *output* queue covers the fan-out burst a single decision
    ///   emits (one message per peer replica and client), floor 64.
    pub fn derive(batch_size: usize, verifier_threads: usize) -> StageQueues {
        let input = input_capacity(batch_size, verifier_threads);
        StageQueues {
            input: QueuePolicy::shed(input),
            work: QueuePolicy::block((input / 2).max(32)),
            exec: QueuePolicy::block(16),
            checkpoint: QueuePolicy::block(8),
            output: QueuePolicy::block((input / 2).max(64)),
        }
    }
}

impl Default for StageQueues {
    /// The derivation at the default batch size (10) and one verifier.
    fn default() -> StageQueues {
        StageQueues::derive(10, 1)
    }
}

/// What [`send_with_policy`] did with the item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Enqueued (possibly after blocking).
    Sent,
    /// Dropped at a full queue under [`Overload::Shed`].
    Shed,
    /// The consumer is gone (shutdown); the item was discarded.
    Disconnected,
}

/// Enqueue `item` according to `policy`, recording overload behavior in
/// `metrics` against `stage` (the stage *fed by* this queue): a shed
/// increments the stage's `shed` counter, a blocking wait accumulates in
/// its `blocked_ns`. `droppable` is the item's own classification — only
/// droppable items are ever shed.
///
/// The fast path is one `try_send`; the clock is read only when the queue
/// is actually full.
pub fn send_with_policy<T>(
    tx: &Sender<T>,
    item: T,
    policy: QueuePolicy,
    droppable: bool,
    metrics: &Metrics,
    stage: Stage,
) -> SendOutcome {
    match tx.try_send(item) {
        Ok(()) => SendOutcome::Sent,
        Err(TrySendError::Disconnected(_)) => SendOutcome::Disconnected,
        Err(TrySendError::Full(item)) => {
            if droppable && policy.overload == Overload::Shed {
                metrics.stage_shed(stage);
                return SendOutcome::Shed;
            }
            let t0 = Instant::now();
            let sent = tx.send(item).is_ok();
            metrics.stage_blocked(stage, t0.elapsed());
            if sent {
                SendOutcome::Sent
            } else {
                SendOutcome::Disconnected
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use std::time::Duration;

    #[test]
    fn derive_scales_with_batch_and_fanout() {
        let small = StageQueues::derive(1, 1);
        assert_eq!(small.input.capacity, 64, "floor applies");
        assert_eq!(small.input.overload, Overload::Shed);
        let large = StageQueues::derive(100, 4);
        assert!(large.input.capacity > small.input.capacity);
        assert!(large.work.capacity > small.work.capacity);
        // Interior queues always block: admitted traffic is never lost —
        // and the checkpoint queue in particular (non-retransmittable).
        for q in [large.work, large.exec, large.checkpoint, large.output] {
            assert_eq!(q.overload, Overload::Block);
        }
        assert_eq!(StageQueues::default(), StageQueues::derive(10, 1));
    }

    #[test]
    fn policy_constructors_clamp_capacity() {
        assert_eq!(QueuePolicy::block(0).capacity, 1);
        assert_eq!(QueuePolicy::shed(0).capacity, 1);
    }

    #[test]
    fn shed_policy_drops_droppable_and_counts() {
        let (tx, rx) = bounded::<u32>(1);
        let m = Metrics::new();
        let p = QueuePolicy::shed(1);
        assert_eq!(
            send_with_policy(&tx, 1, p, true, &m, Stage::Input),
            SendOutcome::Sent
        );
        assert_eq!(
            send_with_policy(&tx, 2, p, true, &m, Stage::Input),
            SendOutcome::Shed
        );
        assert_eq!(m.stage_snapshot().row(Stage::Input).shed, 1);
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(rx.try_recv().is_err(), "shed item must not arrive");
    }

    #[test]
    fn non_droppable_blocks_even_under_shed_policy() {
        let (tx, rx) = bounded::<u32>(1);
        let m = Metrics::new();
        let p = QueuePolicy::shed(1);
        send_with_policy(&tx, 1, p, true, &m, Stage::Input);
        let m2 = m.clone();
        let t = std::thread::spawn(move || send_with_policy(&tx, 2, p, false, &m2, Stage::Input));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1); // make room
        assert_eq!(t.join().unwrap(), SendOutcome::Sent);
        assert_eq!(rx.recv().unwrap(), 2);
        let row = m.stage_snapshot().row(Stage::Input).clone();
        assert_eq!(row.shed, 0);
        assert!(row.blocked > Duration::ZERO, "wait must be accounted");
    }

    #[test]
    fn block_policy_waits_and_accounts_time() {
        let (tx, rx) = bounded::<u32>(1);
        let m = Metrics::new();
        let p = QueuePolicy::block(1);
        send_with_policy(&tx, 1, p, true, &m, Stage::Order);
        let m2 = m.clone();
        let t = std::thread::spawn(move || send_with_policy(&tx, 2, p, true, &m2, Stage::Order));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(t.join().unwrap(), SendOutcome::Sent);
        assert!(m.stage_snapshot().row(Stage::Order).blocked >= Duration::from_millis(10));
    }

    #[test]
    fn disconnected_consumer_reports_shutdown() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        let m = Metrics::new();
        assert_eq!(
            send_with_policy(&tx, 1, QueuePolicy::block(1), false, &m, Stage::Order),
            SendOutcome::Disconnected
        );
    }
}
