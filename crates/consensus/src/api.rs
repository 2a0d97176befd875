//! The sans-io protocol interface.
//!
//! Every consensus protocol in this crate (GeoBFT, PBFT, Zyzzyva, HotStuff,
//! Steward) is written as a *state machine with no I/O*: it receives
//! events — messages, timer expirations, client requests — and emits
//! [`Action`]s into an [`Outbox`]. The same state-machine code is driven by
//! two runtimes:
//!
//! * `rdb-simnet::Runner` — deterministic discrete-event simulation with a
//!   modeled network and compute costs (used for tests and to regenerate
//!   the paper's figures), and
//! * `resilientdb::Node` — the real multi-threaded pipelined fabric
//!   (paper Figure 9).

use crate::clients::CommitProof;
use crate::messages::Message;
use crate::types::Decision;
use rdb_common::ids::{ClusterId, NodeId, ReplicaId};
use rdb_common::time::{SimDuration, SimTime};

/// Identifies a protocol timer. Setting a timer with a kind that is already
/// armed re-arms it (the previous instance is superseded); cancelling an
/// unarmed kind is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimerKind {
    /// Client-side retransmission timer for the request with this sequence
    /// number.
    ClientRetry {
        /// Client-local request sequence number.
        seq: u64,
    },
    /// Replica-side progress timer: pending work exists and must complete
    /// before the timer fires, otherwise a (local) view change starts.
    Progress,
    /// GeoBFT: waiting for the commit certificate of `cluster` for `round`
    /// (§2.3: "every replica R ∈ C2 sets a timer for C1 at the start of
    /// round ρ").
    RemoteCluster {
        /// The cluster we expect a certificate from.
        cluster: ClusterId,
        /// The GeoBFT round the certificate is for.
        round: u64,
    },
    /// Zyzzyva client: deadline for gathering all `n` speculative
    /// responses before falling back to the commit phase.
    SpecWindow {
        /// Client-local request sequence number.
        seq: u64,
    },
    /// HotStuff: deadline for proposing a no-op when this replica's slot
    /// blocks the global execution order and it has no client batch.
    SlotNoOp {
        /// The blocked slot.
        slot: u64,
    },
    /// Steward representative: waiting for the global proposal to make
    /// progress.
    GlobalProgress,
}

/// An effect requested by a protocol state machine.
// `Send` dominates the size but is also ~all instances; boxing it would
// cost an allocation on the hottest path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Send `msg` to `to`. Sends to self are legal and are delivered by
    /// the driver without network cost (loopback).
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: Message,
    },
    /// Arm (or re-arm) a timer to fire `after` from now.
    SetTimer {
        /// Timer identity.
        kind: TimerKind,
        /// Delay from the current virtual time.
        after: SimDuration,
    },
    /// Cancel a timer if armed.
    CancelTimer {
        /// Timer identity.
        kind: TimerKind,
    },
    /// A replica finalized and executed a decision. Consumed by the driver
    /// to append to the ledger and account throughput.
    Decided(Decision),
    /// A client completed a request (received the required matching
    /// replies). Consumed by the driver to measure latency, to hand the
    /// proof to whoever awaits it and, in closed loop, to submit the next
    /// request.
    RequestComplete {
        /// Client-local sequence number of the completed request.
        seq: u64,
        /// Number of transactions in the completed batch.
        txns: usize,
        /// What the reply quorum attested.
        proof: CommitProof,
    },
}

/// Collects the actions emitted while handling one event.
#[derive(Debug, Default)]
pub struct Outbox {
    actions: Vec<Action>,
}

impl Outbox {
    /// Fresh, empty outbox.
    pub fn new() -> Outbox {
        Outbox::default()
    }

    /// Queue a unicast.
    pub fn send(&mut self, to: impl Into<NodeId>, msg: Message) {
        self.actions.push(Action::Send { to: to.into(), msg });
    }

    /// Queue the same message to every target. Each target gets a clone,
    /// which shares the message's batch transactions ([`crate::types::Txns`])
    /// rather than copying them.
    pub fn multicast<I, T>(&mut self, targets: I, msg: &Message)
    where
        I: IntoIterator<Item = T>,
        T: Into<NodeId>,
    {
        for t in targets {
            self.actions.push(Action::Send {
                to: t.into(),
                msg: msg.clone(),
            });
        }
    }

    /// Arm a timer.
    pub fn set_timer(&mut self, kind: TimerKind, after: SimDuration) {
        self.actions.push(Action::SetTimer { kind, after });
    }

    /// Cancel a timer.
    pub fn cancel_timer(&mut self, kind: TimerKind) {
        self.actions.push(Action::CancelTimer { kind });
    }

    /// Report a finalized decision.
    pub fn decided(&mut self, d: Decision) {
        self.actions.push(Action::Decided(d));
    }

    /// Report request completion (client side).
    pub fn request_complete(&mut self, seq: u64, txns: usize, proof: CommitProof) {
        self.actions
            .push(Action::RequestComplete { seq, txns, proof });
    }

    /// Queue a pre-built action. Used by protocol *wrappers* (see
    /// [`crate::adversary`]) that drain an inner protocol's outbox,
    /// transform some actions, and re-emit the rest unchanged.
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Drain the accumulated actions.
    pub fn take(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }

    /// Number of queued actions (for tests).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no actions are queued.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Peek at the queued actions (for tests).
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }
}

/// A replica-side protocol state machine.
pub trait ReplicaProtocol: Send {
    /// This replica's identity.
    fn id(&self) -> ReplicaId;

    /// Called once before any other event, at virtual time zero (or node
    /// start). Protocols arm initial timers here.
    fn on_start(&mut self, now: SimTime, out: &mut Outbox);

    /// Handle a message from `from` (a replica or a client).
    ///
    /// Precondition: the caller ran
    /// [`crate::stage::VerifiedMessage::check`] on it — every driver's
    /// input edge does, and a replica's own messages looped back to it are
    /// the one exception. Signatures, digest bindings and quorum shapes
    /// are therefore not re-checked here (§2.1's "discard any messages
    /// that are not well-formed" happened at the edge); the state machine
    /// drops only what its own state rejects (views, primaries, windows).
    fn on_message(&mut self, now: SimTime, from: NodeId, msg: Message, out: &mut Outbox);

    /// Handle a timer expiration.
    fn on_timer(&mut self, now: SimTime, timer: TimerKind, out: &mut Outbox);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Message, Scope};
    use crate::types::{SignedBatch, Txns};
    use rdb_common::ids::ReplicaId;

    #[test]
    fn outbox_collects_and_drains() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.set_timer(TimerKind::Progress, SimDuration::from_millis(5));
        out.cancel_timer(TimerKind::Progress);
        assert_eq!(out.len(), 2);
        let actions = out.take();
        assert_eq!(actions.len(), 2);
        assert!(out.is_empty());
    }

    /// Every target of a multicast pre-prepare reads the transactions
    /// the proposer holds: one allocation, not one copy per target.
    #[test]
    fn multicast_targets_share_one_batch() {
        let mut out = Outbox::new();
        let batch = SignedBatch::noop(ClusterId(0), 1);
        let msg = Message::PrePrepare {
            scope: Scope::Cluster(ClusterId(0)),
            view: 0,
            seq: 1,
            digest: batch.digest(),
            batch: batch.clone(),
        };
        let targets: Vec<ReplicaId> = (1..4).map(|i| ReplicaId::new(0, i)).collect();
        out.multicast(targets.clone(), &msg);
        assert_eq!(out.len(), 3);
        for (a, target) in out.actions().iter().zip(targets) {
            let Action::Send {
                to,
                msg: Message::PrePrepare { batch: sent, .. },
            } = a
            else {
                panic!("not a pre-prepare send: {a:?}");
            };
            assert_eq!(*to, NodeId::from(target));
            assert!(Txns::ptr_eq(&sent.batch.txns, &batch.batch.txns));
        }
    }
}
