//! The Figure-9 pipeline vocabulary, shared by the threaded fabric
//! (`resilientdb`) and the discrete-event simulator (`rdb-simnet`).
//!
//! The paper's central systems claim (§3, Figure 9) is that a replica is a
//! *pipeline*: input threads receive messages, a pool of threads verifies
//! signatures in parallel, a single worker orders, a dedicated thread
//! executes, and output threads drain the network (here the ordering
//! worker hands its messages to the network itself, in the fabric and in
//! `rdb-simnet` alike, so output is a stage without a thread). For that
//! split to be sound, verification must be *pure*: a function of the
//! message, its sender, the [`SystemConfig`] and the key material only,
//! with no protocol state. This module is that function:
//!
//! * [`Stage`] names the five stages so runtimes and metrics agree on the
//!   vocabulary, and [`Overload`] / [`input_capacity`] are the one
//!   queue policy and input bound both runtimes apply;
//! * [`Message::verification_cost`] declares, per message, how much
//!   signature/MAC work the verifier stage will spend (the simulator
//!   charges exactly this on its modeled verifier pool);
//! * [`Message::verify`] performs that work against a [`CryptoCtx`];
//! * [`VerifiedMessage`] is the proof-carrying result handed to the
//!   ordering stage.
//!
//! `Message::verify` is the **only** validity check in the workspace:
//! every driver runs [`VerifiedMessage::check`] on every delivery before
//! `on_message` — the fabric's verifier pool and client driver, the
//! simulator's delivery event, and the in-crate test routers — and no
//! state machine re-checks a signature, a digest binding or a quorum's
//! shape. It checks everything that is a pure function of its inputs:
//! signatures, digest bindings, certificate and QC shape (quorum size,
//! membership, distinctness) and sender/signer agreement. The structural
//! checks run under any context; key lookups and signature checks only
//! under a real one, so the simulator's modeled crypto stays free. What
//! reads protocol state (views, primaries, windows, agreement with the
//! locally known digest) stays in the state machines. The one unchecked
//! path is a replica's own messages, which the fabric loops straight back
//! into its worker.

use crate::certificate::{cluster_quorum, distinct_quorum};
use crate::crypto_ctx::CryptoCtx;
use crate::geobft::rvc_payload;
use crate::hotstuff::{hs_vote_payload, skip_digest};
use crate::messages::{HsPhase, HsQc, Message};
use crate::pbft_core::scoped_commit_payload;
use crate::steward::{accept_payload, PRIMARY_CLUSTER};
use crate::types::SignedBatch;
use crate::zyzzyva::spec_response_payload;
use rdb_common::config::SystemConfig;
use rdb_common::ids::NodeId;
use rdb_crypto::digest::Digest;
use serde::{Deserialize, Serialize};

/// One stage of the replica pipeline (paper Figure 9, plus the
/// checkpoint stage that garbage-collects stable state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Transport receive: envelopes enter the pipeline.
    Input,
    /// Parallel signature/MAC verification (fan-out pool).
    Verify,
    /// The ordering state machine (consensus worker).
    Order,
    /// Applying decisions to the store and the ledger.
    Execute,
    /// Certifying executed state against peers and compacting the
    /// stable ledger prefix, off the execute stage (§2.2 checkpoints).
    Checkpoint,
    /// Handing outgoing messages to the transport. The ordering worker
    /// does it after each callback, so the stage has no queue: one item
    /// per message handed over, busy for the time inside the send, and
    /// never blocked.
    Output,
}

impl Stage {
    /// Number of stages (sizes per-stage counter arrays).
    pub const COUNT: usize = 6;

    /// All stages, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Input,
        Stage::Verify,
        Stage::Order,
        Stage::Execute,
        Stage::Checkpoint,
        Stage::Output,
    ];

    /// Stable index (for per-stage counter arrays).
    pub fn index(self) -> usize {
        match self {
            Stage::Input => 0,
            Stage::Verify => 1,
            Stage::Order => 2,
            Stage::Execute => 3,
            Stage::Checkpoint => 4,
            Stage::Output => 5,
        }
    }

    /// Short label for metrics and traces.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Input => "input",
            Stage::Verify => "verify",
            Stage::Order => "order",
            Stage::Execute => "execute",
            Stage::Checkpoint => "checkpoint",
            Stage::Output => "output",
        }
    }
}

/// What a producer does when a bounded stage queue is full: the fabric's
/// per-queue policy and the simulator's modeled input queue share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Overload {
    /// Park the producer until the consumer makes room; the wait is
    /// accumulated as the stage's blocked time. Applied to the input
    /// stage it propagates all the way back to the submitting client.
    /// Because the simulator's modeled verifier pool is work-conserving
    /// and FIFO, Block changes no simulated schedule there — it only makes
    /// the queueing observable.
    ///
    /// Caveat for the fabric's *input* queue: Block parks whoever
    /// delivers — including peer replicas' workers. Under flood,
    /// an all-Block geometry whose queues are small relative to the
    /// in-flight message volume can park workers on each other's
    /// inboxes in a cycle; the derived default for the input stage is
    /// therefore [`Overload::Shed`], which keeps replica-to-replica
    /// deliveries non-blocking and the flow graph cycle-free.
    Block,
    /// Drop droppable items at the full queue (counted in the stage's
    /// `shed` counter); non-droppable items still block. Safe only for
    /// traffic some retransmission path re-drives — see
    /// [`Message::droppable`].
    Shed,
}

/// The derived input-queue bound of one replica: one burst of consensus
/// chatter per in-flight batch across the verifier fan-out — `32 ·
/// fan-out` envelopes — plus `4 ·` batch size for request bursts, floor
/// 64.
pub fn input_capacity(batch_size: usize, verifier_threads: usize) -> usize {
    (32 * verifier_threads.max(1) + 4 * batch_size.max(1)).max(64)
}

/// Declared verification work for one message copy: how many signature
/// verifications and MAC checks the verifier stage performs on receipt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerificationCost {
    /// Digital-signature verifications (ED25519-priced).
    pub sigs: u32,
    /// MAC checks (AES-CMAC-priced).
    pub macs: u32,
}

impl VerificationCost {
    /// Total nanoseconds at the given unit prices.
    pub fn ns(&self, verify_ns: u64, mac_ns: u64) -> u64 {
        u64::from(self.sigs) * verify_ns + u64::from(self.macs) * mac_ns
    }
}

impl Message {
    /// How much crypto work receiving one copy of this message costs,
    /// mirroring what [`Message::verify`] actually checks (plus the session
    /// MAC on every authenticated channel message). Certificates and QCs
    /// carry `n - f` individual signatures each receiver re-checks — the
    /// paper omits threshold signatures (§3).
    pub fn verification_cost(&self) -> VerificationCost {
        match self {
            // Client batch signature + session MAC.
            Message::Request(_)
            | Message::Forward(_)
            | Message::PrePrepare { .. }
            | Message::OrderReq { .. }
            | Message::Commit { .. } => VerificationCost { sigs: 1, macs: 1 },
            // MAC-authenticated control traffic.
            Message::Prepare { .. }
            | Message::Checkpoint { .. }
            | Message::Drvc { .. }
            | Message::LocalCommit { .. }
            | Message::Reply { .. }
            | Message::ViewChange { .. }
            | Message::NewView { .. } => VerificationCost { sigs: 0, macs: 1 },
            // Certificates: client signature + every commit signature.
            Message::GlobalShare { cert } | Message::StewardProposal { cert, .. } => {
                VerificationCost {
                    sigs: 1 + cert.commits.len() as u32,
                    macs: 1,
                }
            }
            Message::Rvc { .. } | Message::SpecResponse { .. } => {
                VerificationCost { sigs: 1, macs: 0 }
            }
            // The replicas validate a ZyzCommit against their own history
            // digest instead of re-checking the embedded spec-response
            // signatures (those bind the execution `result`, which the
            // commit certificate does not carry) — so receipt costs one
            // MAC, mirroring [`Message::verify`].
            Message::ZyzCommit { .. } => VerificationCost { sigs: 0, macs: 1 },
            Message::HsProposal { batch, justify, .. } => VerificationCost {
                sigs: u32::from(batch.is_some())
                    + justify.as_ref().map_or(0, |qc| qc.votes.len() as u32),
                macs: 1,
            },
            Message::HsVote { .. } | Message::StewardLocalAccept { .. } => {
                VerificationCost { sigs: 1, macs: 0 }
            }
            Message::StewardAccept { sigs, .. } => VerificationCost {
                sigs: sigs.len() as u32,
                macs: 0,
            },
            Message::Noop => VerificationCost { sigs: 0, macs: 0 },
        }
    }

    /// Pure verification of this message as received from `from` — the
    /// one validity check (see the module docs for what it covers).
    /// Returns `false` for messages that must be dropped (§2.1: "Replicas
    /// will discard any messages that are not well-formed").
    pub fn verify(&self, from: NodeId, system: &SystemConfig, ctx: &CryptoCtx) -> bool {
        match self {
            Message::Request(sb) | Message::Forward(sb) | Message::OrderReq { batch: sb, .. } => {
                ctx.verify_batch(sb, &sb.digest())
            }
            Message::PrePrepare { batch, digest, .. } => batch_binds(ctx, batch, digest),
            Message::Commit {
                scope,
                seq,
                digest,
                sig,
                ..
            } => ctx.verify(from, &scoped_commit_payload(*scope, *seq, digest), sig),
            Message::GlobalShare { cert } => cert.verify(system, ctx),
            // A Steward proposal is the primary cluster's certificate for
            // the proposed sequence number.
            Message::StewardProposal { seq, cert } => {
                cert.cluster == PRIMARY_CLUSTER && cert.round == *seq && cert.verify(system, ctx)
            }
            Message::Rvc {
                target,
                round,
                v,
                requester,
                sig,
            } => {
                // Forwarded within the target cluster, so the signer is
                // the embedded requester — a replica of another cluster —
                // not the envelope sender.
                let payload = rvc_payload(*target, *round, *v, *requester);
                system.contains(*requester)
                    && requester.cluster != *target
                    && ctx.verify((*requester).into(), &payload, sig)
            }
            Message::SpecResponse {
                view,
                seq,
                replica,
                digest,
                history,
                result,
                sig,
                ..
            } => {
                let payload = spec_response_payload(*view, *seq, digest, history, result);
                from == NodeId::from(*replica) && ctx.verify(from, &payload, sig)
            }
            Message::HsProposal {
                slot,
                phase,
                batch,
                digest,
                justify,
            } => {
                // A Prepare carries the batch; every later phase carries
                // the QC of the phase before it, over the same slot and
                // digest.
                match (batch, justify) {
                    (Some(b), None) => *phase == HsPhase::Prepare && batch_binds(ctx, b, digest),
                    (None, Some(qc)) => {
                        qc.phase.next() == Some(*phase)
                            && (qc.slot, qc.digest) == (*slot, *digest)
                            && verify_qc(system, ctx, qc)
                    }
                    _ => false,
                }
            }
            Message::HsVote {
                slot,
                phase,
                digest,
                replica,
                sig,
            } => {
                // Skip votes are cast over the Prepare phase regardless of
                // the phase field (see `hotstuff::handle_skip_vote`).
                let phase = if *digest == skip_digest(*slot) {
                    HsPhase::Prepare
                } else {
                    *phase
                };
                let payload = hs_vote_payload(*slot, phase, digest);
                from == NodeId::from(*replica) && ctx.verify(from, &payload, sig)
            }
            Message::StewardLocalAccept {
                seq,
                digest,
                replica,
                sig,
            } => {
                // The payload binds the sender's cluster (representatives
                // only take these from their own).
                let payload = accept_payload(from.cluster(), *seq, digest);
                from == NodeId::from(*replica) && ctx.verify(from, &payload, sig)
            }
            Message::StewardAccept {
                seq,
                cluster,
                digest,
                sigs,
            } => {
                let payload = accept_payload(*cluster, *seq, digest);
                cluster_quorum(system, *cluster, sigs.iter().map(|(r, _)| *r))
                    && ctx.verify_many(&payload, sigs.iter().map(|(r, s)| (NodeId::from(*r), *s)))
            }
            Message::ViewChange { prepared, .. } => {
                prepared.iter().all(|p| p.batch.digest() == p.digest)
            }
            // A commit certificate needs 2F + 1 speculative responses; the
            // replicas match it against their own history digest instead
            // of re-checking the embedded signatures.
            Message::ZyzCommit { sigs, .. } => sigs.len() > 2 * system.global_f(),
            Message::LocalCommit { replica, .. } => from == NodeId::from(*replica),
            // MAC-authenticated or unauthenticated traffic. Nothing checks
            // the client signatures on a NewView's re-proposals or on a
            // ViewChange's prepared batches yet: a known gap, recorded in
            // the ROADMAP.
            Message::Reply { .. }
            | Message::Prepare { .. }
            | Message::Checkpoint { .. }
            | Message::NewView { .. }
            | Message::Drvc { .. }
            | Message::Noop => true,
        }
    }
}

/// `batch` hashes to `digest` and carries its client's signature over it:
/// one hash serves both checks.
fn batch_binds(ctx: &CryptoCtx, batch: &SignedBatch, digest: &Digest) -> bool {
    batch.digest() == *digest && ctx.verify_batch(batch, digest)
}

/// `n - f` distinct replicas (over the whole system) voted `qc`.
fn verify_qc(system: &SystemConfig, ctx: &CryptoCtx, qc: &HsQc) -> bool {
    let voters = qc.votes.iter().map(|(r, _)| *r);
    let payload = hs_vote_payload(qc.slot, qc.phase, &qc.digest);
    distinct_quorum(voters, system.global_quorum(), |r| system.contains(r))
        && ctx.verify_many(
            &payload,
            qc.votes.iter().map(|(r, s)| (NodeId::from(*r), *s)),
        )
}

/// A message that passed [`Message::verify`]: the proof-carrying hand-off
/// from a node's input edge ([`Stage::Verify`] in the fabric) to its state
/// machine.
#[derive(Debug, Clone)]
pub struct VerifiedMessage {
    from: NodeId,
    msg: Message,
}

impl VerifiedMessage {
    /// Verify `msg` from `from` and wrap it; `None` means the message is
    /// malformed and must be dropped (never handed to `on_message`).
    pub fn check(
        system: &SystemConfig,
        ctx: &CryptoCtx,
        from: NodeId,
        msg: Message,
    ) -> Option<VerifiedMessage> {
        if msg.verify(from, system, ctx) {
            Some(VerifiedMessage { from, msg })
        } else {
            None
        }
    }

    /// The envelope sender.
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// The verified message.
    pub fn message(&self) -> &Message {
        &self.msg
    }

    /// Consume into `(from, msg)` for dispatch into the state machine.
    pub fn into_parts(self) -> (NodeId, Message) {
        (self.from, self.msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{commit_payload, CommitCertificate, CommitSig};
    use crate::messages::Scope;
    use crate::types::{ClientBatch, Transaction};
    use rdb_common::ids::{ClientId, ClusterId, ReplicaId};
    use rdb_crypto::sign::{KeyStore, Signature, Signer};
    use rdb_store::Operation;
    use std::collections::HashMap;

    struct Fixture {
        system: SystemConfig,
        ks: KeyStore,
        ctx: CryptoCtx,
    }

    fn fixture() -> Fixture {
        let system = SystemConfig::geo(2, 4).unwrap();
        let ks = KeyStore::new(11);
        let signer = ks.register(ReplicaId::new(0, 1).into());
        let ctx = CryptoCtx::new(signer, ks.verifier(), true);
        Fixture { system, ks, ctx }
    }

    fn signed_batch(ks: &KeyStore, client: ClientId, valid: bool) -> SignedBatch {
        let signer = ks.register(client.into());
        let batch = ClientBatch {
            client,
            batch_seq: 0,
            txns: vec![Transaction {
                client,
                seq: 0,
                op: Operation::NoOp,
            }]
            .into(),
        };
        let digest = batch.digest();
        let sig = if valid {
            signer.sign(digest.as_bytes())
        } else {
            signer.sign(b"forged")
        };
        SignedBatch {
            batch,
            pubkey: signer.public_key(),
            sig,
        }
    }

    #[test]
    fn stage_indices_are_dense_and_ordered() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn cost_matches_verified_work() {
        let f = fixture();
        let sb = signed_batch(&f.ks, ClientId::new(0, 0), true);
        assert_eq!(
            Message::Request(sb.clone()).verification_cost(),
            VerificationCost { sigs: 1, macs: 1 }
        );
        let cert = CommitCertificate {
            cluster: ClusterId(0),
            round: 1,
            digest: sb.digest(),
            batch: sb,
            commits: (0..3)
                .map(|i| CommitSig {
                    replica: ReplicaId::new(0, i),
                    sig: Signature::default(),
                })
                .collect(),
        };
        assert_eq!(
            Message::GlobalShare { cert }.verification_cost(),
            VerificationCost { sigs: 4, macs: 1 }
        );
        assert_eq!(
            Message::Noop.verification_cost(),
            VerificationCost::default()
        );
        // 1 sig (ED25519) must dominate macs at realistic prices.
        assert_eq!(
            VerificationCost { sigs: 2, macs: 3 }.ns(60_000, 1_000),
            123_000
        );
    }

    #[test]
    fn request_verification_accepts_valid_and_drops_forged() {
        let f = fixture();
        let good = signed_batch(&f.ks, ClientId::new(0, 0), true);
        let bad = signed_batch(&f.ks, ClientId::new(0, 1), false);
        let from: NodeId = ClientId::new(0, 0).into();
        assert!(Message::Request(good).verify(from, &f.system, &f.ctx));
        assert!(!Message::Request(bad).verify(from, &f.system, &f.ctx));
    }

    #[test]
    fn preprepare_checks_digest_binding() {
        let f = fixture();
        let sb = signed_batch(&f.ks, ClientId::new(0, 0), true);
        let from: NodeId = ReplicaId::new(0, 0).into();
        let ok = Message::PrePrepare {
            scope: Scope::Global,
            view: 0,
            seq: 1,
            digest: sb.digest(),
            batch: sb.clone(),
        };
        assert!(ok.verify(from, &f.system, &f.ctx));
        let mismatched = Message::PrePrepare {
            scope: Scope::Global,
            view: 0,
            seq: 1,
            digest: Digest::of(b"other"),
            batch: sb,
        };
        assert!(!mismatched.verify(from, &f.system, &f.ctx));
    }

    #[test]
    fn commit_signature_must_match_sender() {
        let f = fixture();
        let sender = ReplicaId::new(0, 2);
        let signer = f.ks.register(sender.into());
        let digest = Digest::of(b"batch");
        let payload = scoped_commit_payload(Scope::Cluster(ClusterId(0)), 3, &digest);
        let msg = |sig| Message::Commit {
            scope: Scope::Cluster(ClusterId(0)),
            view: 0,
            seq: 3,
            digest,
            sig,
        };
        assert!(msg(signer.sign(&payload)).verify(sender.into(), &f.system, &f.ctx));
        assert!(!msg(Signature::default()).verify(sender.into(), &f.system, &f.ctx));
        // Same signature presented as another replica fails.
        let other = ReplicaId::new(0, 3);
        let _ = f.ks.register(other.into());
        assert!(!msg(signer.sign(&payload)).verify(other.into(), &f.system, &f.ctx));
    }

    #[test]
    fn certificate_messages_verify_end_to_end() {
        let f = fixture();
        let sb = signed_batch(&f.ks, ClientId::new(0, 7), true);
        let digest = sb.digest();
        let payload = commit_payload(ClusterId(0), 1, &digest);
        let commits: Vec<CommitSig> = (0..3)
            .map(|i| {
                let r = ReplicaId::new(0, i);
                let s = if i == 1 {
                    // Re-use the fixture's own signer for its id.
                    f.ctx.sign(&payload)
                } else {
                    f.ks.register(r.into()).sign(&payload)
                };
                CommitSig { replica: r, sig: s }
            })
            .collect();
        let cert = CommitCertificate {
            cluster: ClusterId(0),
            round: 1,
            digest,
            batch: sb,
            commits,
        };
        let from: NodeId = ReplicaId::new(0, 0).into();
        assert!(Message::GlobalShare { cert: cert.clone() }.verify(from, &f.system, &f.ctx));
        let mut tampered = cert;
        tampered.commits[0].sig = Signature::default();
        assert!(!Message::GlobalShare { cert: tampered }.verify(from, &f.system, &f.ctx));
    }

    #[test]
    fn hotstuff_vote_and_skip_vote_verify() {
        let f = fixture();
        let voter = ReplicaId::new(1, 0);
        let signer = f.ks.register(voter.into());
        let digest = Digest::of(b"proposal");
        let vote = Message::HsVote {
            slot: 5,
            phase: HsPhase::PreCommit,
            digest,
            replica: voter,
            sig: signer.sign(&hs_vote_payload(5, HsPhase::PreCommit, &digest)),
        };
        assert!(vote.verify(voter.into(), &f.system, &f.ctx));
        // Skip votes sign the Prepare payload over the skip digest.
        let sd = skip_digest(9);
        let skip = Message::HsVote {
            slot: 9,
            phase: HsPhase::Commit,
            digest: sd,
            replica: voter,
            sig: signer.sign(&hs_vote_payload(9, HsPhase::Prepare, &sd)),
        };
        assert!(skip.verify(voter.into(), &f.system, &f.ctx));
    }

    #[test]
    fn verified_message_wraps_only_valid_traffic() {
        let f = fixture();
        let good = signed_batch(&f.ks, ClientId::new(1, 0), true);
        let bad = signed_batch(&f.ks, ClientId::new(1, 1), false);
        let from: NodeId = ClientId::new(1, 0).into();
        let vm = VerifiedMessage::check(&f.system, &f.ctx, from, Message::Request(good.clone()))
            .expect("valid request passes");
        assert_eq!(vm.from(), from);
        assert!(matches!(vm.message(), Message::Request(_)));
        let (got_from, got_msg) = vm.into_parts();
        assert_eq!(got_from, from);
        assert_eq!(got_msg, Message::Request(good));
        assert!(VerifiedMessage::check(&f.system, &f.ctx, from, Message::Request(bad)).is_none());
    }

    /// Keys for every replica of a 4 × 4 system and for the exemplars'
    /// batch client, and a real and a modeled checking context.
    struct Keys {
        system: SystemConfig,
        signers: HashMap<NodeId, Signer>,
        real: CryptoCtx,
        modeled: CryptoCtx,
    }

    impl Keys {
        fn new() -> Keys {
            let system = SystemConfig::geo(4, 4).unwrap();
            let ks = KeyStore::new(5);
            let client: NodeId = ClientId::new(1, 7).into();
            let nodes = system.all_replicas().map(NodeId::from).chain([client]);
            let signers = nodes.map(|n| (n, ks.register(n))).collect();
            let observer = |index| ks.register(ClientId::new(0, index).into());
            let real = CryptoCtx::new(observer(u32::MAX), ks.verifier(), true);
            let modeled = CryptoCtx::new(observer(u32::MAX - 1), ks.verifier(), false);
            Keys {
                system,
                signers,
                real,
                modeled,
            }
        }

        fn sign(&self, node: impl Into<NodeId>, payload: &[u8]) -> Signature {
            self.signers[&node.into()].sign(payload)
        }

        /// `sb` signed by its client.
        fn batch(&self, sb: SignedBatch) -> SignedBatch {
            let signer = &self.signers[&sb.batch.client.into()];
            SignedBatch {
                sig: signer.sign(sb.batch.digest().as_bytes()),
                pubkey: signer.public_key(),
                batch: sb.batch,
            }
        }

        /// `n` replicas of `cluster`, or of the whole system when `None`,
        /// each signing `payload`.
        fn votes(
            &self,
            cluster: Option<u16>,
            n: usize,
            payload: &[u8],
        ) -> Vec<(ReplicaId, Signature)> {
            let members = self.system.all_replicas();
            let members = members.filter(|r| cluster.is_none_or(|c| r.cluster.0 == c));
            members
                .take(n)
                .map(|r| (r, self.sign(r, payload)))
                .collect()
        }

        fn cert(&self, mut cert: CommitCertificate) -> CommitCertificate {
            cert.batch = self.batch(cert.batch);
            cert.digest = cert.batch.digest();
            let payload = commit_payload(cert.cluster, cert.round, &cert.digest);
            let votes = self.votes(Some(cert.cluster.0), self.system.quorum(), &payload);
            cert.commits = votes
                .into_iter()
                .map(|(replica, sig)| CommitSig { replica, sig })
                .collect();
            cert
        }

        /// The exemplar `msg`, made valid: real signatures, bound digests,
        /// full quorums; with the sender it must come from.
        fn valid(&self, msg: Message) -> (NodeId, Message) {
            let r = |c, i| NodeId::from(ReplicaId::new(c, i));
            match msg {
                Message::Request(sb) => {
                    (ClientId::new(1, 7).into(), Message::Request(self.batch(sb)))
                }
                Message::Forward(sb) => (r(1, 0), Message::Forward(self.batch(sb))),
                Message::PrePrepare {
                    scope,
                    view,
                    seq,
                    batch,
                    ..
                } => {
                    let batch = self.batch(batch);
                    let digest = batch.digest();
                    let msg = Message::PrePrepare {
                        scope,
                        view,
                        seq,
                        batch,
                        digest,
                    };
                    (r(2, 0), msg)
                }
                Message::OrderReq {
                    view,
                    seq,
                    batch,
                    history,
                } => {
                    let batch = self.batch(batch);
                    (
                        r(0, 0),
                        Message::OrderReq {
                            view,
                            seq,
                            batch,
                            history,
                        },
                    )
                }
                Message::Commit {
                    scope,
                    view,
                    seq,
                    digest,
                    ..
                } => {
                    let sig = self.sign(r(0, 1), &scoped_commit_payload(scope, seq, &digest));
                    (
                        r(0, 1),
                        Message::Commit {
                            scope,
                            view,
                            seq,
                            digest,
                            sig,
                        },
                    )
                }
                Message::ViewChange {
                    scope,
                    new_view,
                    stable_seq,
                    mut prepared,
                } => {
                    for p in &mut prepared {
                        p.batch = self.batch(p.batch.clone());
                        p.digest = p.batch.digest();
                    }
                    let msg = Message::ViewChange {
                        scope,
                        new_view,
                        stable_seq,
                        prepared,
                    };
                    (r(0, 1), msg)
                }
                Message::GlobalShare { cert } => (
                    r(1, 0),
                    Message::GlobalShare {
                        cert: self.cert(cert),
                    },
                ),
                Message::StewardProposal { seq, mut cert } => {
                    cert.cluster = PRIMARY_CLUSTER;
                    cert.round = seq;
                    let cert = self.cert(cert);
                    (r(0, 0), Message::StewardProposal { seq, cert })
                }
                Message::Rvc {
                    target,
                    round,
                    v,
                    requester,
                    ..
                } => {
                    let sig = self.sign(requester, &rvc_payload(target, round, v, requester));
                    let msg = Message::Rvc {
                        target,
                        round,
                        v,
                        requester,
                        sig,
                    };
                    (requester.into(), msg)
                }
                Message::SpecResponse {
                    view,
                    seq,
                    batch_seq,
                    replica,
                    digest,
                    history,
                    result,
                    results,
                    ..
                } => {
                    let payload = spec_response_payload(view, seq, &digest, &history, &result);
                    let msg = Message::SpecResponse {
                        view,
                        seq,
                        batch_seq,
                        replica,
                        digest,
                        history,
                        result,
                        results,
                        sig: self.sign(replica, &payload),
                    };
                    (replica.into(), msg)
                }
                Message::ZyzCommit {
                    client,
                    batch_seq,
                    view,
                    seq,
                    digest,
                    history,
                    ..
                } => {
                    let quorum = 2 * self.system.global_f() + 1;
                    let msg = Message::ZyzCommit {
                        client,
                        batch_seq,
                        view,
                        seq,
                        digest,
                        history,
                        sigs: self.votes(None, quorum, b"unchecked"),
                    };
                    (client.into(), msg)
                }
                Message::LocalCommit { ref replica, .. } => ((*replica).into(), msg),
                Message::HsProposal {
                    slot,
                    phase,
                    batch,
                    digest,
                    ..
                } => {
                    let (batch, digest, justify) = match phase {
                        HsPhase::Prepare => {
                            let batch = self.batch(batch.expect("exemplar batch"));
                            let digest = batch.digest();
                            (Some(batch), digest, None)
                        }
                        _ => {
                            let prev = [HsPhase::Prepare, HsPhase::PreCommit, HsPhase::Commit]
                                .into_iter()
                                .find(|p| p.next() == Some(phase))
                                .expect("a later phase");
                            let payload = hs_vote_payload(slot, prev, &digest);
                            let votes = self.votes(None, self.system.global_quorum(), &payload);
                            let qc = HsQc {
                                slot,
                                phase: prev,
                                digest,
                                votes,
                            };
                            (None, digest, Some(qc))
                        }
                    };
                    let msg = Message::HsProposal {
                        slot,
                        phase,
                        batch,
                        digest,
                        justify,
                    };
                    (r(0, 0), msg)
                }
                Message::HsVote {
                    slot,
                    phase,
                    digest,
                    replica,
                    ..
                } => {
                    let sig = self.sign(replica, &hs_vote_payload(slot, phase, &digest));
                    (
                        replica.into(),
                        Message::HsVote {
                            slot,
                            phase,
                            digest,
                            replica,
                            sig,
                        },
                    )
                }
                Message::StewardLocalAccept {
                    seq,
                    digest,
                    replica,
                    ..
                } => {
                    let sig = self.sign(replica, &accept_payload(replica.cluster, seq, &digest));
                    let msg = Message::StewardLocalAccept {
                        seq,
                        digest,
                        replica,
                        sig,
                    };
                    (replica.into(), msg)
                }
                Message::StewardAccept {
                    seq,
                    cluster,
                    digest,
                    ..
                } => {
                    let payload = accept_payload(cluster, seq, &digest);
                    let sigs = self.votes(Some(cluster.0), self.system.quorum(), &payload);
                    (
                        r(0, 0),
                        Message::StewardAccept {
                            seq,
                            cluster,
                            digest,
                            sigs,
                        },
                    )
                }
                Message::Reply { .. }
                | Message::Prepare { .. }
                | Message::Checkpoint { .. }
                | Message::NewView { .. }
                | Message::Drvc { .. }
                | Message::Noop => (r(0, 0), msg),
            }
        }
    }

    /// The signatures `verify` checks (as many as `verification_cost`
    /// declares).
    fn checked_sigs(msg: &mut Message) -> Vec<&mut Signature> {
        match msg {
            Message::Request(sb)
            | Message::Forward(sb)
            | Message::OrderReq { batch: sb, .. }
            | Message::PrePrepare { batch: sb, .. } => vec![&mut sb.sig],
            Message::GlobalShare { cert } | Message::StewardProposal { cert, .. } => {
                let commits = cert.commits.iter_mut().map(|c| &mut c.sig);
                std::iter::once(&mut cert.batch.sig)
                    .chain(commits)
                    .collect()
            }
            Message::Commit { sig, .. }
            | Message::Rvc { sig, .. }
            | Message::SpecResponse { sig, .. }
            | Message::HsVote { sig, .. }
            | Message::StewardLocalAccept { sig, .. } => vec![sig],
            Message::HsProposal { batch, justify, .. } => {
                let votes = justify.iter_mut().flat_map(|qc| qc.votes.iter_mut());
                let batch = batch.iter_mut().map(|b| &mut b.sig);
                batch.chain(votes.map(|(_, s)| s)).collect()
            }
            Message::StewardAccept { sigs, .. } => sigs.iter_mut().map(|(_, s)| s).collect(),
            _ => vec![],
        }
    }

    /// Break the message's digest binding, if it has one.
    fn break_binding(msg: &mut Message) -> bool {
        let digest = match msg {
            Message::PrePrepare { digest, .. } | Message::HsProposal { digest, .. } => digest,
            Message::GlobalShare { cert } | Message::StewardProposal { cert, .. } => {
                &mut cert.digest
            }
            Message::ViewChange { prepared, .. } => &mut prepared[0].digest,
            _ => return false,
        };
        digest.0[0] ^= 1;
        true
    }

    /// Every variant, through the exemplar set that pins the frame bytes:
    /// valid traffic passes under both contexts; a flipped byte in any
    /// checked signature fails only under a real one; a broken digest
    /// binding fails under both.
    #[test]
    fn every_variant_verifies_through_the_one_check() {
        let keys = Keys::new();
        let check =
            |ctx: &CryptoCtx, from: NodeId, msg: &Message| msg.verify(from, &keys.system, ctx);
        let mut bindings = 0;
        for exemplar in crate::codec::tests::exemplars() {
            let (from, msg) = keys.valid(exemplar);
            let label = msg.label();
            assert!(check(&keys.real, from, &msg), "{label} valid");
            assert!(check(&keys.modeled, from, &msg), "{label} valid, modeled");
            let sigs = msg.verification_cost().sigs;
            if sigs > 0 {
                assert_eq!(checked_sigs(&mut msg.clone()).len() as u32, sigs, "{label}");
                for i in 0..sigs as usize {
                    let mut forged = msg.clone();
                    checked_sigs(&mut forged)[i].0[7] ^= 0x80;
                    assert!(!check(&keys.real, from, &forged), "{label} signature {i}");
                    assert!(
                        check(&keys.modeled, from, &forged),
                        "{label} signature {i}, modeled"
                    );
                }
            }
            let mut unbound = msg;
            if break_binding(&mut unbound) {
                bindings += 1;
                assert!(!check(&keys.real, from, &unbound), "{label} binding");
                assert!(
                    !check(&keys.modeled, from, &unbound),
                    "{label} binding, modeled"
                );
            }
        }
        // PrePrepare, both HsProposals, ViewChange, GlobalShare and
        // StewardProposal.
        assert_eq!(bindings, 6);
    }

    /// Only the canonical no-op (`SignedBatch::noop`) travels without a
    /// client signature. A batch under the reserved no-op client index
    /// that carries a real operation is an unsigned client batch, and
    /// every message that carries a batch drops it under a real context.
    #[test]
    fn noop_shaped_batches_with_operations_are_rejected() {
        let keys = Keys::new();
        let genuine = SignedBatch::noop(PRIMARY_CLUSTER, 4);
        let mut forged = genuine.clone();
        forged.batch.txns.make_mut()[0].op = Operation::Write {
            key: 1,
            value: rdb_store::Value::from_u64(9),
        };
        let carriers = |sb: SignedBatch| {
            let digest = sb.digest();
            let payload = commit_payload(PRIMARY_CLUSTER, 4, &digest);
            let votes = keys.votes(Some(0), keys.system.quorum(), &payload);
            let cert = CommitCertificate {
                cluster: PRIMARY_CLUSTER,
                round: 4,
                digest,
                batch: sb.clone(),
                commits: votes
                    .into_iter()
                    .map(|(replica, sig)| CommitSig { replica, sig })
                    .collect(),
            };
            [
                Message::Request(sb.clone()),
                Message::Forward(sb.clone()),
                Message::OrderReq {
                    view: 0,
                    seq: 4,
                    batch: sb.clone(),
                    history: digest,
                },
                Message::PrePrepare {
                    scope: Scope::Cluster(PRIMARY_CLUSTER),
                    view: 0,
                    seq: 4,
                    batch: sb.clone(),
                    digest,
                },
                Message::HsProposal {
                    slot: 4,
                    phase: HsPhase::Prepare,
                    batch: Some(sb),
                    digest,
                    justify: None,
                },
                Message::GlobalShare { cert: cert.clone() },
                Message::StewardProposal { seq: 4, cert },
            ]
        };
        let from = NodeId::from(ReplicaId::new(0, 0));
        for (sb, ok) in [(genuine, true), (forged, false)] {
            for msg in carriers(sb) {
                let label = msg.label();
                assert_eq!(msg.verify(from, &keys.system, &keys.real), ok, "{label}");
                assert!(
                    msg.verify(from, &keys.system, &keys.modeled),
                    "{label}, modeled"
                );
            }
        }
    }

    /// What a message's shape must satisfy holds under any context.
    #[test]
    fn shape_checks_run_under_any_context() {
        let keys = Keys::new();
        let (r, d) = (ReplicaId::new, Digest::of(b"shape"));
        let vote = |replica| Message::HsVote {
            slot: 3,
            phase: HsPhase::Prepare,
            digest: d,
            replica,
            sig: keys.sign(replica, &hs_vote_payload(3, HsPhase::Prepare, &d)),
        };
        let accept = |n| {
            let payload = accept_payload(ClusterId(2), 1, &d);
            let sigs = keys.votes(Some(2), n, &payload);
            Message::StewardAccept {
                seq: 1,
                cluster: ClusterId(2),
                digest: d,
                sigs,
            }
        };
        let rvc = |requester| Message::Rvc {
            target: ClusterId(1),
            round: 1,
            v: 0,
            requester,
            sig: keys.sign(requester, &rvc_payload(ClusterId(1), 1, 0, requester)),
        };
        let proposal = |batch, justify| Message::HsProposal {
            slot: 3,
            phase: HsPhase::PreCommit,
            batch,
            digest: d,
            justify,
        };
        let qc = |phase| HsQc {
            slot: 3,
            phase,
            digest: d,
            votes: keys.votes(
                None,
                keys.system.global_quorum(),
                &hs_vote_payload(3, phase, &d),
            ),
        };
        let cases = [
            ("vote", r(0, 1), vote(r(0, 1)), true),
            (
                "vote relayed under another name",
                r(0, 2),
                vote(r(0, 1)),
                false,
            ),
            ("accept", r(2, 0), accept(3), true),
            ("accept short of n - f", r(2, 0), accept(2), false),
            ("rvc", r(0, 2), rvc(r(0, 2)), true),
            ("rvc from the target cluster", r(1, 2), rvc(r(1, 2)), false),
            (
                "precommit",
                r(0, 3),
                proposal(None, Some(qc(HsPhase::Prepare))),
                true,
            ),
            (
                "precommit over the wrong phase",
                r(0, 3),
                proposal(None, Some(qc(HsPhase::Commit))),
                false,
            ),
            (
                "precommit without a QC",
                r(0, 3),
                proposal(None, None),
                false,
            ),
        ];
        for (what, from, msg, ok) in cases {
            for ctx in [&keys.real, &keys.modeled] {
                assert_eq!(
                    msg.verify(from.into(), &keys.system, ctx),
                    ok,
                    "{what} {ctx:?}"
                );
            }
        }
    }
}
