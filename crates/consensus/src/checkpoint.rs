//! Protocol-agnostic checkpoint certification (§2.2 "checkpoints", and
//! the pipeline's checkpoint stage).
//!
//! The paper's replicas periodically exchange state digests so the group
//! can agree that everything up to some sequence number is *stable* —
//! executed by a quorum and safe to garbage-collect. Two layers of the
//! system need exactly that quorum rule:
//!
//! * the PBFT engine ([`crate::pbft_core::PbftCore`]) uses it to prune
//!   its instance log and advance the proposal window, and
//! * the fabric's **checkpoint pipeline stage** (`resilientdb`) uses it
//!   to certify the state the execution stage persisted against peers
//!   before compacting the ledger prefix.
//!
//! [`CheckpointTracker`] is that rule, factored out once: it records this
//! replica's own snapshot digests (its embedder counts the decisions
//! between them), tallies peer votes per `(seq, digest)`, and emits a
//! [`StableCheckpoint`] the moment a quorum agrees. Everything below the
//! stable point is pruned from the tracker itself, so its memory is
//! bounded by the in-flight (unstable) checkpoint count — never by run
//! length.
//!
//! ## Wire format and droppability
//!
//! Votes travel as [`Message::Checkpoint`]. Consensus-engine votes use
//! the engine's own [`Scope`] (`Global` or `Cluster(c)`); pipeline-stage
//! votes use the reserved [`PIPELINE_CHECKPOINT_SCOPE`], which no
//! consensus group ever matches — the two vote streams share a wire
//! format but can never be mixed up. Pipeline votes are **non-droppable**
//! ([`Message::droppable`]): no retransmission path re-drives a
//! checkpoint, so shedding one at a full queue could permanently delay
//! stability. Their sender (the fabric's execute thread) compensates
//! by never *parking* on a peer's full inbox — it holds the vote and
//! retries — which keeps the cross-replica blocking graph cycle-free
//! (see `resilientdb::queue`).

use crate::messages::{Message, Scope};
use rdb_common::ids::{ClusterId, ReplicaId};
use rdb_crypto::digest::Digest;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The reserved scope tag of *pipeline-stage* checkpoint votes.
///
/// Consensus groups are scoped `Global` or `Cluster(c)` with `c < z`;
/// `ClusterId(u16::MAX)` never names a real cluster, so every consensus
/// engine's `scope_matches` rejects these votes and only the pipeline's
/// checkpoint stage consumes them.
pub const PIPELINE_CHECKPOINT_SCOPE: Scope = Scope::Cluster(ClusterId(u16::MAX));

/// Build a pipeline-stage checkpoint vote for `seq` (a ledger height)
/// with the voter's state digest at that height.
pub fn pipeline_vote(seq: u64, state: Digest) -> Message {
    Message::Checkpoint {
        scope: PIPELINE_CHECKPOINT_SCOPE,
        seq,
        state,
    }
}

/// True when `msg` is a pipeline-stage checkpoint vote (as opposed to a
/// consensus-engine checkpoint, which the ordering worker consumes).
pub fn is_pipeline_vote(msg: &Message) -> bool {
    matches!(msg, Message::Checkpoint { scope, .. } if *scope == PIPELINE_CHECKPOINT_SCOPE)
}

/// A checkpoint that gathered a quorum of matching votes: everything at
/// or below `seq` is executed by a quorum and may be garbage-collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableCheckpoint {
    /// The certified sequence number (consensus seq or ledger height).
    pub seq: u64,
    /// The state digest the quorum agreed on.
    pub state: Digest,
}

/// The quorum rule of checkpoint certification, shared by the PBFT
/// engine and the fabric's checkpoint pipeline stage.
#[derive(Debug, Clone)]
pub struct CheckpointTracker {
    /// Matching votes required for stability (`n - f` of the group).
    quorum: usize,
    stable: u64,
    stable_state: Digest,
    /// Votes per unstable checkpoint: seq -> digest -> voters.
    votes: BTreeMap<u64, HashMap<Digest, HashSet<ReplicaId>>>,
    /// Own recorded (unstable) snapshot digests.
    own: BTreeMap<u64, Digest>,
}

impl CheckpointTracker {
    /// Maximum unstable checkpoint heights tracked at once. Votes come
    /// from authenticated *members*, but up to `f` of those are Byzantine
    /// and could vote for arbitrarily high never-stabilizing heights; a
    /// non-droppable vote also cannot be shed under overload. Capping the
    /// tracked set (evicting the highest height — the one furthest from
    /// stabilizing — when full) bounds the tracker's memory by a
    /// constant instead of by attacker persistence.
    pub const MAX_TRACKED: usize = 1024;

    /// A tracker requiring `quorum` matching votes.
    pub fn new(quorum: usize) -> CheckpointTracker {
        CheckpointTracker {
            quorum: quorum.max(1),
            stable: 0,
            stable_state: Digest::ZERO,
            votes: BTreeMap::new(),
            own: BTreeMap::new(),
        }
    }

    /// Record this replica's own snapshot at `seq`. Returns `false` when
    /// `seq` is already stable (nothing to certify).
    pub fn record_own(&mut self, seq: u64, state: Digest) -> bool {
        if seq <= self.stable {
            return false;
        }
        self.own.insert(seq, state);
        true
    }

    /// Tally a vote. Returns the newly stable checkpoint when `from`'s
    /// vote completes a quorum for `(seq, state)`. Tracked heights are
    /// capped at [`CheckpointTracker::MAX_TRACKED`]: when full, a vote
    /// for a height above everything tracked is ignored and otherwise
    /// the highest tracked height is evicted — lower heights are closer
    /// to stabilizing, so an attacker voting far ahead cannot displace
    /// real in-flight checkpoints or grow memory without bound.
    pub fn on_vote(
        &mut self,
        from: ReplicaId,
        seq: u64,
        state: Digest,
    ) -> Option<StableCheckpoint> {
        if seq <= self.stable {
            return None;
        }
        if !self.votes.contains_key(&seq) && self.votes.len() >= Self::MAX_TRACKED {
            let highest = *self.votes.keys().next_back().expect("non-empty at cap");
            if seq >= highest {
                return None;
            }
            self.votes.remove(&highest);
        }
        let voters = self.votes.entry(seq).or_default().entry(state).or_default();
        voters.insert(from);
        if voters.len() >= self.quorum {
            self.force_stable(seq, state);
            return Some(StableCheckpoint { seq, state });
        }
        None
    }

    /// Install `seq` as stable without a quorum of our own (e.g. learned
    /// through a new-view message) and prune everything at or below it.
    pub fn force_stable(&mut self, seq: u64, state: Digest) {
        if seq <= self.stable {
            return;
        }
        self.stable = seq;
        self.stable_state = state;
        self.votes.retain(|s, _| *s > seq);
        self.own.retain(|s, _| *s > seq);
    }

    /// The last stable checkpoint sequence (0 before any).
    pub fn stable_seq(&self) -> u64 {
        self.stable
    }

    /// The state digest of the last stable checkpoint.
    pub fn stable_state(&self) -> Digest {
        self.stable_state
    }

    /// Unstable checkpoints currently tracked (votes or own snapshots) —
    /// the tracker's memory watermark, bounded by in-flight checkpoints.
    pub fn tracked(&self) -> usize {
        self.votes.len().max(self.own.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(i: u16) -> ReplicaId {
        ReplicaId::new(0, i)
    }

    #[test]
    fn quorum_of_matching_votes_stabilizes() {
        let mut t = CheckpointTracker::new(3);
        let d = Digest::of(b"state@6");
        assert!(t.on_vote(rid(0), 6, d).is_none());
        assert!(t.on_vote(rid(1), 6, d).is_none());
        let sc = t.on_vote(rid(2), 6, d).expect("third vote completes");
        assert_eq!(sc, StableCheckpoint { seq: 6, state: d });
        assert_eq!(t.stable_seq(), 6);
        assert_eq!(t.stable_state(), d);
        // Late votes for the now-stable seq are ignored.
        assert!(t.on_vote(rid(3), 6, d).is_none());
    }

    #[test]
    fn conflicting_digests_never_pool_votes() {
        let mut t = CheckpointTracker::new(3);
        let a = Digest::of(b"a");
        let b = Digest::of(b"b");
        assert!(t.on_vote(rid(0), 4, a).is_none());
        assert!(t.on_vote(rid(1), 4, b).is_none());
        assert!(t.on_vote(rid(2), 4, b).is_none());
        // Only the b-quorum completes; a's single vote cannot.
        assert!(t.on_vote(rid(3), 4, b).is_some());
    }

    #[test]
    fn duplicate_votes_count_once() {
        let mut t = CheckpointTracker::new(2);
        let d = Digest::of(b"s");
        assert!(t.on_vote(rid(0), 2, d).is_none());
        assert!(t.on_vote(rid(0), 2, d).is_none(), "same voter re-voting");
        assert!(t.on_vote(rid(1), 2, d).is_some());
    }

    #[test]
    fn stability_prunes_tracker_memory() {
        let mut t = CheckpointTracker::new(3);
        for seq in 1..=50u64 {
            t.record_own(seq, Digest::of(&seq.to_le_bytes()));
            t.on_vote(rid(0), seq, Digest::of(&seq.to_le_bytes()));
        }
        assert_eq!(t.tracked(), 50);
        let d = Digest::of(&50u64.to_le_bytes());
        t.on_vote(rid(1), 50, d);
        t.on_vote(rid(2), 50, d);
        assert_eq!(t.stable_seq(), 50);
        assert_eq!(t.tracked(), 0, "everything below stable is pruned");
        assert!(!t.record_own(50, d), "stable seqs are not re-certified");
    }

    #[test]
    fn far_future_votes_cannot_grow_the_tracker() {
        let mut t = CheckpointTracker::new(3);
        // A Byzantine member floods votes for never-stabilizing heights.
        for i in 0..5_000u64 {
            t.on_vote(rid(0), u64::MAX - i, Digest::of(&i.to_le_bytes()));
        }
        assert!(t.tracked() <= CheckpointTracker::MAX_TRACKED);
        // Honest low-height checkpoints still stabilize: their votes
        // evict the attacker's high heights rather than being refused.
        let d = Digest::of(b"real");
        assert!(t.on_vote(rid(1), 6, d).is_none());
        assert!(t.on_vote(rid(2), 6, d).is_none());
        assert!(t.on_vote(rid(3), 6, d).is_some(), "honest quorum blocked");
        assert_eq!(t.stable_seq(), 6);
    }

    #[test]
    fn pipeline_votes_are_scoped_outside_every_group() {
        let v = pipeline_vote(7, Digest::of(b"s"));
        assert!(is_pipeline_vote(&v));
        assert!(!v.droppable(), "no retransmission path re-drives these");
        // Engine-scoped checkpoints are a different stream and stay
        // droppable (the protocol survives losing them).
        let engine = Message::Checkpoint {
            scope: Scope::Global,
            seq: 7,
            state: Digest::ZERO,
        };
        assert!(!is_pipeline_vote(&engine));
        assert!(engine.droppable());
    }
}
