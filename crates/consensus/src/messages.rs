//! Every message exchanged by the five protocols, with the modeled wire
//! sizes used for bandwidth accounting.
//!
//! A single enum keeps dispatch in the drivers trivial and lets the
//! network layer compute sizes uniformly. Variants are grouped by
//! protocol; the PBFT group is shared: GeoBFT runs it per cluster (scoped
//! by [`Scope::Cluster`]) and plain PBFT runs it across all replicas
//! ([`Scope::Global`]).

use crate::certificate::CommitCertificate;
use crate::types::{ReplyData, SignedBatch};
use rdb_common::ids::{ClientId, ClusterId, ReplicaId};
use rdb_common::wire;
use rdb_crypto::digest::Digest;
use rdb_crypto::sign::Signature;
use serde::{Deserialize, Serialize};

/// Which replica group a PBFT-core message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scope {
    /// All `z * n` replicas form one PBFT group (plain PBFT, Zyzzyva,
    /// HotStuff addressing).
    Global,
    /// The `n` replicas of one cluster (GeoBFT local replication, Steward
    /// local agreement).
    Cluster(ClusterId),
}

/// The four HotStuff phases (basic, non-chained HotStuff; the paper's
/// implementation runs parallel primaries without a pacemaker, §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HsPhase {
    /// Leader proposes; replicas send prepare votes.
    Prepare,
    /// Leader has a prepare QC; replicas send pre-commit votes.
    PreCommit,
    /// Leader has a pre-commit QC; replicas send commit votes.
    Commit,
    /// Leader has a commit QC; replicas execute.
    Decide,
}

impl HsPhase {
    /// The phase a QC of this phase justifies proposing (none after
    /// Decide).
    pub fn next(self) -> Option<HsPhase> {
        match self {
            HsPhase::Prepare => Some(HsPhase::PreCommit),
            HsPhase::PreCommit => Some(HsPhase::Commit),
            HsPhase::Commit => Some(HsPhase::Decide),
            HsPhase::Decide => None,
        }
    }
}

/// A HotStuff quorum certificate: `n - f` signed votes for `(slot, phase,
/// digest)`. The paper's implementation skips threshold signatures, so the
/// QC carries the individual votes (§3, "Other protocols").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HsQc {
    /// The slot this QC certifies.
    pub slot: u64,
    /// The phase the votes were cast in.
    pub phase: HsPhase,
    /// The proposal digest.
    pub digest: Digest,
    /// The votes: (voter, signature over the vote payload).
    pub votes: Vec<(ReplicaId, Signature)>,
}

impl HsQc {
    /// Modeled wire size: digest plus one signed entry per vote.
    pub fn wire_size(&self) -> usize {
        wire::DIGEST_BYTES + self.votes.len() * (wire::PUBKEY_BYTES + wire::SIG_BYTES)
    }
}

/// A prepared-instance proof inside a PBFT view-change message: the
/// instance sequence, digest, and the client batch so the new primary can
/// re-propose it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreparedProof {
    /// Sequence number of the prepared instance.
    pub seq: u64,
    /// Digest of the prepared batch.
    pub digest: Digest,
    /// The batch itself.
    pub batch: SignedBatch,
}

/// All protocol messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    // ------------------------------------------------------ client path --
    /// Client submits a signed batch to a replica.
    Request(SignedBatch),
    /// A replica forwards a client request to the (current) primary; used
    /// on client retransmission and by relay nodes.
    Forward(SignedBatch),
    /// Execution result for one client batch. `view` lets clients learn
    /// the current primary.
    Reply {
        /// The reply payload.
        data: ReplyData,
        /// The sender's current view (primary hint for the client).
        view: u64,
    },

    // ------------------------------------------- PBFT core (scoped) ------
    /// Primary proposes `batch` at `seq` in `view`.
    PrePrepare {
        /// Replica group.
        scope: Scope,
        /// Current view within the group.
        view: u64,
        /// Assigned sequence number.
        seq: u64,
        /// The proposed client batch.
        batch: SignedBatch,
        /// Digest of `batch` (recomputed and checked by receivers).
        digest: Digest,
    },
    /// First-phase agreement vote (MAC-authenticated, not signed — §2.2:
    /// only client requests and commit messages carry signatures).
    Prepare {
        /// Replica group.
        scope: Scope,
        /// View.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Batch digest being prepared.
        digest: Digest,
    },
    /// Second-phase vote, signed so that `n - f` of them form a commit
    /// certificate (§2.2).
    Commit {
        /// Replica group.
        scope: Scope,
        /// View.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Batch digest being committed.
        digest: Digest,
        /// Signature over [`crate::certificate::commit_payload`].
        sig: Signature,
    },
    /// Periodic state checkpoint (garbage-collects the instance log).
    Checkpoint {
        /// Replica group.
        scope: Scope,
        /// Sequence number the checkpoint covers (all seq' <= seq executed).
        seq: u64,
        /// Digest of the store state at that point.
        state: Digest,
    },
    /// A replica votes to move the group to `new_view`.
    ViewChange {
        /// Replica group.
        scope: Scope,
        /// The proposed view.
        new_view: u64,
        /// Last stable checkpoint sequence known to the sender.
        stable_seq: u64,
        /// Prepared-but-unexecuted instances that must survive the change.
        prepared: Vec<PreparedProof>,
    },
    /// The new primary installs `view`, re-proposing the union of prepared
    /// instances from `n - f` view-change messages.
    NewView {
        /// Replica group.
        scope: Scope,
        /// The installed view.
        view: u64,
        /// Instances the new primary re-proposes: (seq, batch).
        preprepares: Vec<(u64, SignedBatch)>,
        /// Stable checkpoint the view starts from.
        stable_seq: u64,
    },

    // ------------------------------------------------ GeoBFT global ------
    /// Optimistic inter-cluster sharing of a commit certificate (global
    /// phase primary -> f+1 remote replicas; local phase broadcast) —
    /// Figure 5 of the paper.
    GlobalShare {
        /// The certificate (embeds the client batch).
        cert: CommitCertificate,
    },
    /// "Detect remote view-change": local agreement in the observing
    /// cluster that `target` failed to share round `round` (Figure 7,
    /// initiation role).
    Drvc {
        /// The cluster suspected of failing to share.
        target: ClusterId,
        /// The round whose certificate is missing.
        round: u64,
        /// The requester-side view-change counter `v1` (replay protection).
        v: u64,
    },
    /// Remote view-change request sent across clusters after `n - f` DRVC
    /// agreement, and forwarded within the target cluster (Figure 7,
    /// response role). Signed: it crosses cluster boundaries.
    Rvc {
        /// The cluster being asked to change its primary.
        target: ClusterId,
        /// The round that triggered the request.
        round: u64,
        /// The requester-side counter `v`.
        v: u64,
        /// The requesting replica (from the observing cluster).
        requester: ReplicaId,
        /// Requester's signature over the request.
        sig: Signature,
    },

    // ---------------------------------------------------- Zyzzyva --------
    /// Primary orders a request and broadcasts it for speculative
    /// execution.
    OrderReq {
        /// View.
        view: u64,
        /// Assigned sequence number.
        seq: u64,
        /// The ordered batch.
        batch: SignedBatch,
        /// Rolling history digest `h_seq = H(h_{seq-1} || d_seq)`.
        history: Digest,
    },
    /// Replica's signed speculative response, sent directly to the client.
    SpecResponse {
        /// View.
        view: u64,
        /// Global sequence number the batch executed at.
        seq: u64,
        /// The client batch being answered.
        batch_seq: u64,
        /// The answering replica.
        replica: ReplicaId,
        /// Batch digest.
        digest: Digest,
        /// History digest after executing `seq`.
        history: Digest,
        /// Execution result digest.
        result: Digest,
        /// Per-transaction execution outcomes (what `result` digests;
        /// empty under modeled execution). Carried so the service API's
        /// read-backs work on Zyzzyva too; the signature covers `result`,
        /// and receivers validate `results` against it.
        results: rdb_store::TxnEffect,
        /// Signature over the response (clients aggregate these).
        sig: Signature,
    },
    /// Client fallback: a commit certificate of `2F + 1` matching
    /// speculative responses, broadcast to all replicas.
    ZyzCommit {
        /// The client issuing the certificate.
        client: ClientId,
        /// The client batch seq being committed.
        batch_seq: u64,
        /// (view, seq, digest, history) the responses agreed on.
        view: u64,
        /// Global sequence number.
        seq: u64,
        /// Batch digest.
        digest: Digest,
        /// Agreed history digest.
        history: Digest,
        /// The aggregated responder signatures.
        sigs: Vec<(ReplicaId, Signature)>,
    },
    /// Replica acknowledgement of a [`Message::ZyzCommit`].
    LocalCommit {
        /// View.
        view: u64,
        /// Global sequence number.
        seq: u64,
        /// The client batch seq.
        batch_seq: u64,
        /// Acknowledging replica.
        replica: ReplicaId,
    },

    // ---------------------------------------------------- HotStuff -------
    /// Leader message for one phase of one slot. In `Prepare` it carries
    /// the batch; later phases carry the QC justifying the phase switch.
    HsProposal {
        /// The slot (global sequence number).
        slot: u64,
        /// The phase this message drives.
        phase: HsPhase,
        /// The proposed batch (Prepare phase only).
        batch: Option<SignedBatch>,
        /// Digest of the proposal.
        digest: Digest,
        /// QC of the previous phase (absent for Prepare).
        justify: Option<HsQc>,
    },
    /// Replica vote for `(slot, phase, digest)`, sent to the slot leader.
    HsVote {
        /// The slot.
        slot: u64,
        /// The phase voted in.
        phase: HsPhase,
        /// The digest voted for.
        digest: Digest,
        /// The voter.
        replica: ReplicaId,
        /// Vote signature.
        sig: Signature,
    },

    // ----------------------------------------------------- Steward -------
    /// The primary cluster's certified proposal for global sequence `seq`,
    /// sent to remote cluster representatives and relayed locally.
    StewardProposal {
        /// Global sequence number.
        seq: u64,
        /// The primary cluster's commit certificate for the batch.
        cert: CommitCertificate,
    },
    /// A replica's signed local accept, collected by its cluster
    /// representative.
    StewardLocalAccept {
        /// Global sequence number.
        seq: u64,
        /// Digest accepted.
        digest: Digest,
        /// The accepting replica.
        replica: ReplicaId,
        /// Accept signature.
        sig: Signature,
    },
    /// A cluster's aggregated accept (stand-in for Steward's
    /// threshold-signed site message), shared with every other cluster.
    StewardAccept {
        /// Global sequence number.
        seq: u64,
        /// The accepting cluster.
        cluster: ClusterId,
        /// Digest accepted.
        digest: Digest,
        /// `n - f` accept signatures from that cluster.
        sigs: Vec<(ReplicaId, Signature)>,
    },

    /// Test-only empty message.
    Noop,
}

impl Message {
    /// Modeled wire size in bytes (see `rdb_common::wire` for calibration
    /// against §4 of the paper).
    pub fn wire_size(&self) -> usize {
        match self {
            Message::Request(sb) | Message::Forward(sb) => wire::HEADER_BYTES + sb.wire_size(),
            Message::Reply { data, .. } => data.wire_size(),
            Message::PrePrepare { batch, .. } => wire::preprepare_bytes(batch.batch.len()),
            Message::Prepare { .. }
            | Message::Checkpoint { .. }
            | Message::Drvc { .. }
            | Message::LocalCommit { .. }
            | Message::HsVote { .. }
            | Message::StewardLocalAccept { .. }
            | Message::Commit { .. }
            | Message::Rvc { .. } => wire::control_bytes(),
            Message::ViewChange { prepared, .. } => {
                wire::control_bytes()
                    + prepared
                        .iter()
                        .map(|p| wire::DIGEST_BYTES + 8 + p.batch.wire_size())
                        .sum::<usize>()
            }
            Message::NewView { preprepares, .. } => {
                wire::control_bytes()
                    + preprepares
                        .iter()
                        .map(|(_, b)| 8 + b.wire_size())
                        .sum::<usize>()
            }
            Message::GlobalShare { cert } => wire::HEADER_BYTES + cert.wire_size(),
            Message::OrderReq { batch, .. } => {
                wire::preprepare_bytes(batch.batch.len()) + wire::DIGEST_BYTES
            }
            Message::SpecResponse { .. } => {
                // A full response (result) plus the binding digests + sig.
                wire::control_bytes() + 2 * wire::DIGEST_BYTES
            }
            Message::ZyzCommit { sigs, .. } => {
                wire::control_bytes()
                    + sigs.len() * (wire::PUBKEY_BYTES + wire::SIG_BYTES)
                    + 2 * wire::DIGEST_BYTES
            }
            Message::HsProposal { batch, justify, .. } => {
                let base = match batch {
                    Some(b) => wire::preprepare_bytes(b.batch.len()),
                    None => wire::control_bytes(),
                };
                base + justify.as_ref().map_or(0, |qc| qc.wire_size())
            }
            Message::StewardProposal { cert, .. } => wire::HEADER_BYTES + cert.wire_size(),
            Message::StewardAccept { sigs, .. } => {
                wire::control_bytes() + sigs.len() * (wire::PUBKEY_BYTES + wire::SIG_BYTES)
            }
            Message::Noop => wire::HEADER_BYTES,
        }
    }

    /// Short label for statistics and traces.
    pub fn label(&self) -> &'static str {
        match self {
            Message::Request(_) => "request",
            Message::Forward(_) => "forward",
            Message::Reply { .. } => "reply",
            Message::PrePrepare { .. } => "preprepare",
            Message::Prepare { .. } => "prepare",
            Message::Commit { .. } => "commit",
            Message::Checkpoint { .. } => "checkpoint",
            Message::ViewChange { .. } => "view-change",
            Message::NewView { .. } => "new-view",
            Message::GlobalShare { .. } => "global-share",
            Message::Drvc { .. } => "drvc",
            Message::Rvc { .. } => "rvc",
            Message::OrderReq { .. } => "order-req",
            Message::SpecResponse { .. } => "spec-response",
            Message::ZyzCommit { .. } => "zyz-commit",
            Message::LocalCommit { .. } => "local-commit",
            Message::HsProposal { .. } => "hs-proposal",
            Message::HsVote { .. } => "hs-vote",
            Message::StewardProposal { .. } => "steward-proposal",
            Message::StewardLocalAccept { .. } => "steward-local-accept",
            Message::StewardAccept { .. } => "steward-accept",
            Message::Noop => "noop",
        }
    }

    /// Whether an overloaded replica may shed this message instead of
    /// blocking its sender (the queue policy of the fabric's bounded input
    /// stage, and of the simulator's modeled queue).
    ///
    /// A BFT protocol already treats every replica-to-replica message as
    /// lossy: a shed message is indistinguishable from a network drop, and
    /// some retransmission path recovers it — the client's retry timer
    /// re-submits batches that never reach a reply quorum
    /// ([`Message::Forward`], [`Message::Reply`], [`Message::OrderReq`],
    /// speculative responses), and progress/view-change timers re-drive
    /// every ordering round ([`Message::PrePrepare`], [`Message::Prepare`],
    /// [`Message::Commit`], certificates, votes, view changes). Shedding
    /// them under overload is exactly the load-shedding the paper's fabric
    /// relies on to avoid queue collapse.
    ///
    /// Two exceptions exist. [`Message::Request`]: the client's original
    /// submission is the *admission edge* of the system. Shedding it would
    /// silently burn a full client retry timeout while the replica stays
    /// overloaded; blocking the submitting client instead is what
    /// propagates backpressure end to end (an overloaded deployment slows
    /// its clients rather than growing queues). Requests therefore always
    /// block on a full input queue, regardless of the stage's configured
    /// overload policy.
    ///
    /// And *pipeline-stage* checkpoint votes
    /// ([`crate::checkpoint::PIPELINE_CHECKPOINT_SCOPE`]): checkpoints
    /// are not retransmittable state — no timer re-drives them, so a shed
    /// vote could delay stability (and the garbage collection it gates)
    /// indefinitely. Their sender, the checkpoint stage, never *parks* on
    /// a peer's full inbox either (it holds the vote and retries), so the
    /// non-droppable classification cannot create a cross-replica
    /// blocking cycle. Consensus-engine checkpoints (`Global` /
    /// `Cluster(c)` scopes) stay droppable: the engines tolerate losing
    /// them (stability merely lags).
    pub fn droppable(&self) -> bool {
        match self {
            Message::Request(_) => false,
            Message::Checkpoint { scope, .. } => {
                *scope != crate::checkpoint::PIPELINE_CHECKPOINT_SCOPE
            }
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClientBatch, Transaction};
    use rdb_store::{Operation, Value};

    fn batch(n: usize) -> SignedBatch {
        let client = ClientId::new(0, 0);
        SignedBatch {
            batch: ClientBatch {
                client,
                batch_seq: 0,
                txns: (0..n as u64)
                    .map(|i| Transaction {
                        client,
                        seq: i,
                        op: Operation::Write {
                            key: i,
                            value: Value::from_u64(i),
                        },
                    })
                    .collect(),
            },
            pubkey: Default::default(),
            sig: Default::default(),
        }
    }

    #[test]
    fn only_requests_and_pipeline_checkpoints_are_undroppable() {
        // The admission edge and non-retransmittable checkpoint votes
        // block; everything else is lossy-by-design (recovered by client
        // retry or protocol timers).
        assert!(!Message::Request(batch(1)).droppable());
        assert!(!crate::checkpoint::pipeline_vote(1, Digest::ZERO).droppable());
        assert!(Message::Checkpoint {
            scope: Scope::Global,
            seq: 1,
            state: Digest::ZERO,
        }
        .droppable());
        assert!(Message::Checkpoint {
            scope: Scope::Cluster(ClusterId(0)),
            seq: 1,
            state: Digest::ZERO,
        }
        .droppable());
        assert!(Message::Forward(batch(1)).droppable());
        assert!(Message::PrePrepare {
            scope: Scope::Global,
            view: 0,
            seq: 0,
            digest: Digest::ZERO,
            batch: batch(1),
        }
        .droppable());
        assert!(Message::Prepare {
            scope: Scope::Global,
            view: 0,
            seq: 0,
            digest: Digest::ZERO,
        }
        .droppable());
        assert!(Message::Noop.droppable());
    }

    #[test]
    fn preprepare_size_matches_paper_at_batch_100() {
        let m = Message::PrePrepare {
            scope: Scope::Global,
            view: 0,
            seq: 0,
            digest: Digest::ZERO,
            batch: batch(100),
        };
        let sz = m.wire_size();
        assert!((5300..=5500).contains(&sz), "preprepare = {sz}");
    }

    #[test]
    fn control_messages_are_250_bytes() {
        let m = Message::Prepare {
            scope: Scope::Global,
            view: 0,
            seq: 0,
            digest: Digest::ZERO,
        };
        assert_eq!(m.wire_size(), 250);
        let c = Message::Commit {
            scope: Scope::Global,
            view: 0,
            seq: 0,
            digest: Digest::ZERO,
            sig: Signature::default(),
        };
        assert_eq!(c.wire_size(), 250);
    }

    #[test]
    fn reply_size_matches_paper_at_batch_100() {
        let m = Message::Reply {
            data: ReplyData {
                client: ClientId::new(0, 0),
                batch_seq: 0,
                seq: 1,
                block_height: 1,
                result_digest: Digest::ZERO,
                results: rdb_store::TxnEffect::default(),
                txns: 100,
            },
            view: 0,
        };
        let sz = m.wire_size();
        assert!((1400..=1600).contains(&sz), "reply = {sz}");
    }

    #[test]
    fn view_change_size_grows_with_prepared_set() {
        let empty = Message::ViewChange {
            scope: Scope::Global,
            new_view: 1,
            stable_seq: 0,
            prepared: vec![],
        };
        let loaded = Message::ViewChange {
            scope: Scope::Global,
            new_view: 1,
            stable_seq: 0,
            prepared: vec![PreparedProof {
                seq: 1,
                digest: Digest::ZERO,
                batch: batch(100),
            }],
        };
        assert!(loaded.wire_size() > empty.wire_size() + 5000);
    }

    #[test]
    fn qc_size_scales_with_votes() {
        let qc = |k: usize| HsQc {
            slot: 0,
            phase: HsPhase::Prepare,
            digest: Digest::ZERO,
            votes: (0..k as u16)
                .map(|i| (ReplicaId::new(0, i), Signature::default()))
                .collect(),
        };
        assert_eq!(
            qc(10).wire_size() - qc(5).wire_size(),
            5 * (wire::PUBKEY_BYTES + wire::SIG_BYTES)
        );
    }

    #[test]
    fn every_variant_has_a_label_and_size() {
        let msgs = vec![
            Message::Request(batch(1)),
            Message::Noop,
            Message::Drvc {
                target: ClusterId(0),
                round: 0,
                v: 0,
            },
            Message::Rvc {
                target: ClusterId(0),
                round: 0,
                v: 0,
                requester: ReplicaId::new(1, 0),
                sig: Signature::default(),
            },
        ];
        for m in msgs {
            assert!(!m.label().is_empty());
            assert!(m.wire_size() > 0);
        }
    }
}
