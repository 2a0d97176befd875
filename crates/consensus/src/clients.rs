//! The client: one sans-io state machine for all five protocols.
//!
//! The paper gives a client one rule — accept a result once `f + 1`
//! replicas *of its own cluster* report the same outcome (§2.4); for
//! Zyzzyva, once all `n` replicas do, else once `2F + 1` of them
//! acknowledge a commit certificate (§3). [`QuorumClient`] is that rule:
//!
//! * any number of batches in flight, each with its own retransmission
//!   timer ([`TimerKind::ClientRetry`]) on a doubling, capped back-off —
//!   a retransmission is broadcast so that replicas forward it to the
//!   current primary and start view-change pressure (§2.2);
//! * a reply votes on the whole `(seq, block height, result digest)`
//!   outcome, so a forged height or sequence number joins no honest
//!   quorum;
//! * its `results` must hash to the digest it claims
//!   ([`crate::exec::digest_under`] over the *locally known* batch
//!   digest) before it may vote, so forged read values cannot ride an
//!   honest digest;
//! * one vote per replica and batch, so `f` colluding replicas never
//!   assemble `f + 1`;
//! * votes count only from the client's reply set ([`retry_targets`]: its
//!   own cluster under GeoBFT and Steward), so faulty replicas of
//!   *different* clusters cannot pool theirs;
//! * Zyzzyva's signed speculative responses are the same tally's votes,
//!   and its commit certificate ([`TimerKind::SpecWindow`],
//!   `ZyzCommit` / `LocalCommit`) the same tally's second phase.
//!
//! A batch enters through [`QuorumClient::submit`] and leaves as an
//! [`crate::api::Action::RequestComplete`] carrying its [`CommitProof`]. With a
//! [`BatchSource`] attached the client also is a [`ClientProtocol`]: a
//! closed-loop driver calls `next_request` after every completion —
//! exactly the behaviour of the paper's YCSB clients.

use crate::api::{ClientProtocol, Outbox, TimerKind};
use crate::config::ProtocolConfig;
use crate::crypto_ctx::CryptoCtx;
use crate::exec::digest_under;
use crate::messages::Message;
use crate::types::{ClientBatch, SignedBatch};
use rdb_common::ids::{ClientId, NodeId, ReplicaId};
use rdb_common::time::{SimDuration, SimTime};
use rdb_crypto::digest::Digest;
use rdb_crypto::sign::Signature;
use rdb_store::TxnEffect;
use std::collections::HashMap;

/// Evidence that a submitted batch committed: the agreed log position and
/// execution outcome, attested by a reply quorum (`f + 1` matching
/// replies, §2.4 — at least one of which is from a non-faulty replica).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitProof {
    /// The log position (consensus sequence number / GeoBFT round) the
    /// batch committed at.
    pub seq: u64,
    /// Ledger height of the block carrying the batch.
    pub block_height: u64,
    /// Digest of the execution effect the quorum agreed on.
    pub result_digest: Digest,
    /// The replicas whose matching replies formed the quorum, in arrival
    /// order.
    pub attesting_replicas: Vec<ReplicaId>,
    /// Per-transaction execution outcomes, in submission order: reads
    /// carry the committed values ([`rdb_store::ExecOutcome::ReadValue`]),
    /// read-modify-writes their post-increment counters. Validated
    /// against `result_digest`, so the payload is as trustworthy as the
    /// digest quorum itself.
    pub results: TxnEffect,
}

impl CommitProof {
    /// Number of distinct replicas that attested to this outcome.
    pub fn quorum_size(&self) -> usize {
        self.attesting_replicas.len()
    }
}

/// Where a client sends fresh requests and retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetPolicy {
    /// Send to the primary of the global group (PBFT, Zyzzyva). Learned
    /// from the `view` field of replies.
    GlobalPrimary,
    /// Send to the primary of the client's local cluster (GeoBFT). §2:
    /// "GeoBFT assigns each client to a single cluster."
    LocalPrimary,
    /// Send to a fixed home replica chosen by client index (HotStuff's
    /// parallel primaries).
    HomeReplica,
    /// Send to the local cluster representative, who forwards to the
    /// primary cluster (Steward).
    LocalRepresentative,
}

/// Produces the client's next batch of transactions. Implemented by the
/// workload generator (`rdb-workload`).
pub type BatchSource = Box<dyn FnMut(u64) -> ClientBatch + Send>;

/// The replica a fresh request from `id` goes to under `policy` (given
/// the client's current primary hint).
pub fn entry_target(
    policy: TargetPolicy,
    sys: &rdb_common::config::SystemConfig,
    id: ClientId,
    view_hint: u64,
) -> ReplicaId {
    match policy {
        TargetPolicy::GlobalPrimary => {
            let members: Vec<ReplicaId> = sys.all_replicas().collect();
            members[(view_hint % members.len() as u64) as usize]
        }
        TargetPolicy::LocalPrimary => sys.primary_of(id.cluster, view_hint),
        TargetPolicy::HomeReplica => {
            let members: Vec<ReplicaId> = sys.all_replicas().collect();
            members[(id.index as usize) % members.len()]
        }
        TargetPolicy::LocalRepresentative => ReplicaId {
            cluster: id.cluster,
            index: 0,
        },
    }
}

/// The retransmission broadcast set of a client under `policy`, which is
/// also its reply set — the replicas whose replies it counts: its local
/// cluster for topology-aware protocols, everyone for global ones.
pub fn retry_targets(
    policy: TargetPolicy,
    sys: &rdb_common::config::SystemConfig,
    id: ClientId,
) -> Vec<ReplicaId> {
    match policy {
        TargetPolicy::GlobalPrimary | TargetPolicy::HomeReplica => sys.all_replicas().collect(),
        TargetPolicy::LocalPrimary | TargetPolicy::LocalRepresentative => {
            sys.replicas_of(id.cluster).collect()
        }
    }
}

/// What one reply attests. Replies match when all of it does.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Outcome {
    seq: u64,
    block_height: u64,
    result_digest: Digest,
    /// Zyzzyva's rolling history digest after `seq` ([`Digest::ZERO`] in a
    /// [`Message::Reply`]): a commit certificate names one history.
    history: Digest,
}

/// The replicas that reported one outcome.
struct Tally {
    outcome: Outcome,
    /// The outcome's payload, validated, from its first vote.
    results: TxnEffect,
    /// In arrival order.
    voters: Vec<ReplicaId>,
    /// The voters' signatures over the outcome, in step with `voters`
    /// (speculative responses only).
    sigs: Vec<Signature>,
}

/// One batch in flight.
struct InFlight {
    /// Kept for retransmission.
    signed: SignedBatch,
    /// What honest result digests are bound to.
    digest: Digest,
    /// One per reported outcome, in order of first arrival.
    tallies: Vec<Tally>,
    /// The delay the retransmission timer was last armed with.
    retry: SimDuration,
    /// Zyzzyva's second phase, once it started: the tally whose commit
    /// certificate went out and the replicas that acknowledged it.
    committing: Option<(usize, Vec<ReplicaId>)>,
}

/// The client (see the module docs).
pub struct QuorumClient {
    id: ClientId,
    cfg: ProtocolConfig,
    crypto: CryptoCtx,
    policy: TargetPolicy,
    /// Matching replies that complete a batch (see
    /// [`crate::registry::reply_quorum`]).
    reply_quorum: usize,
    /// Zyzzyva only (see [`crate::registry::commit_quorum`]): replicas
    /// answer with signed speculative responses, and this many matching
    /// ones certify a commit when `reply_quorum` stays out of reach.
    commit_quorum: Option<usize>,
    /// The only replicas whose replies count, and where retransmissions
    /// go: [`retry_targets`].
    reply_set: Vec<ReplicaId>,
    source: Option<BatchSource>,
    next_seq: u64,
    view_hint: u64,
    in_flight: HashMap<u64, InFlight>,
}

impl QuorumClient {
    /// A client with no batch source: batches enter through
    /// [`QuorumClient::submit`]. The quorums are protocol-specific; see
    /// [`crate::registry`].
    pub fn new(
        id: ClientId,
        cfg: ProtocolConfig,
        crypto: CryptoCtx,
        policy: TargetPolicy,
        reply_quorum: usize,
        commit_quorum: Option<usize>,
    ) -> QuorumClient {
        QuorumClient {
            id,
            reply_set: retry_targets(policy, &cfg.system, id),
            cfg,
            crypto,
            policy,
            reply_quorum,
            commit_quorum,
            source: None,
            next_seq: 0,
            view_hint: 0,
            in_flight: HashMap::new(),
        }
    }

    /// Attach the source [`ClientProtocol::next_request`] draws from.
    pub fn with_source(mut self, source: BatchSource) -> QuorumClient {
        self.source = Some(source);
        self
    }

    /// Where a fresh request goes right now.
    fn entry(&self) -> ReplicaId {
        entry_target(self.policy, &self.cfg.system, self.id, self.view_hint)
    }

    /// Batches submitted and not yet complete.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Track `signed`, whose batch digest is `digest`, until a reply
    /// quorum completes it: send it to the entry replica and arm its
    /// timers.
    pub fn submit(&mut self, signed: SignedBatch, digest: Digest, out: &mut Outbox) {
        debug_assert_eq!(signed.batch.client, self.id);
        debug_assert_eq!(digest, signed.digest(), "carried batch digest");
        let seq = signed.batch.batch_seq;
        out.send(self.entry(), Message::Request(signed.clone()));
        if self.commit_quorum.is_some() {
            out.set_timer(TimerKind::SpecWindow { seq }, self.cfg.spec_window);
        }
        out.set_timer(TimerKind::ClientRetry { seq }, self.cfg.client_retry);
        self.in_flight.insert(
            seq,
            InFlight {
                digest,
                signed,
                tallies: Vec::new(),
                retry: self.cfg.client_retry,
                committing: None,
            },
        );
    }

    /// Count `replica`'s vote for `outcome` of batch `batch_seq`; `spec`
    /// is the `(batch digest, signature)` of a speculative response, whose
    /// signature the input edge already checked.
    fn vote(
        &mut self,
        replica: ReplicaId,
        batch_seq: u64,
        outcome: Outcome,
        results: TxnEffect,
        spec: Option<(Digest, Signature)>,
        out: &mut Outbox,
    ) {
        let Some(batch) = self.in_flight.get_mut(&batch_seq) else {
            return; // unknown or already complete
        };
        if batch.tallies.iter().any(|t| t.voters.contains(&replica)) {
            return; // one vote per replica
        }
        if spec.is_some_and(|(digest, _)| digest != batch.digest) {
            return;
        }
        if digest_under(self.cfg.exec_mode, &batch.digest, &results) != outcome.result_digest {
            return; // forged results payload
        }
        let idx = match batch.tallies.iter().position(|t| t.outcome == outcome) {
            Some(idx) => idx,
            None => {
                batch.tallies.push(Tally {
                    outcome,
                    results,
                    voters: Vec::new(),
                    sigs: Vec::new(),
                });
                batch.tallies.len() - 1
            }
        };
        let tally = &mut batch.tallies[idx];
        tally.voters.push(replica);
        tally.sigs.extend(spec.map(|(_, sig)| sig));
        if tally.voters.len() >= self.reply_quorum {
            self.complete(batch_seq, idx, out);
        }
    }

    /// Batch `batch_seq` is done: `tally` is the outcome its proof carries.
    fn complete(&mut self, batch_seq: u64, tally: usize, out: &mut Outbox) {
        let mut batch = self.in_flight.remove(&batch_seq).expect("in flight");
        let Tally {
            outcome,
            results,
            voters,
            ..
        } = batch.tallies.swap_remove(tally);
        out.cancel_timer(TimerKind::ClientRetry { seq: batch_seq });
        if self.commit_quorum.is_some() {
            out.cancel_timer(TimerKind::SpecWindow { seq: batch_seq });
        }
        out.request_complete(
            batch_seq,
            batch.signed.batch.len(),
            CommitProof {
                seq: outcome.seq,
                block_height: outcome.block_height,
                result_digest: outcome.result_digest,
                attesting_replicas: voters,
                results,
            },
        );
    }
}

impl ClientProtocol for QuorumClient {
    fn id(&self) -> ClientId {
        self.id
    }

    fn next_request(&mut self, _now: SimTime, out: &mut Outbox) -> bool {
        let Some(source) = self.source.as_mut() else {
            return false;
        };
        let batch = source(self.next_seq);
        self.next_seq += 1;
        debug_assert_eq!(batch.client, self.id);
        let (signed, digest) = self.crypto.sign_batch(batch);
        self.submit(signed, digest, out);
        true
    }

    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Message, out: &mut Outbox) {
        let NodeId::Replica(replica) = from else {
            return;
        };
        if !self.reply_set.contains(&replica) {
            return; // not a replica this client's quorum is made of
        }
        match msg {
            Message::Reply { data, view } if self.commit_quorum.is_none() => {
                self.view_hint = self.view_hint.max(view);
                if data.client != self.id {
                    return;
                }
                let outcome = Outcome {
                    seq: data.seq,
                    block_height: data.block_height,
                    result_digest: data.result_digest,
                    history: Digest::ZERO,
                };
                self.vote(replica, data.batch_seq, outcome, data.results, None, out);
            }
            // Zyzzyva keeps one log, one block per sequence number. The
            // input edge checked that the sender signed it.
            Message::SpecResponse {
                seq,
                batch_seq,
                digest,
                history,
                result,
                results,
                sig,
                ..
            } if self.commit_quorum.is_some() => {
                let outcome = Outcome {
                    seq,
                    block_height: seq,
                    result_digest: result,
                    history,
                };
                let spec = Some((digest, sig));
                self.vote(replica, batch_seq, outcome, results, spec, out);
            }
            Message::LocalCommit { seq, batch_seq, .. } => {
                let Some(quorum) = self.commit_quorum else {
                    return;
                };
                let Some(batch) = self.in_flight.get_mut(&batch_seq) else {
                    return;
                };
                let Some((tally, acks)) = batch.committing.as_mut() else {
                    return;
                };
                // Only for the position the certificate named, once each.
                if seq != batch.tallies[*tally].outcome.seq || acks.contains(&replica) {
                    return;
                }
                acks.push(replica);
                if acks.len() >= quorum {
                    let tally = *tally;
                    self.complete(batch_seq, tally, out);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _now: SimTime, timer: TimerKind, out: &mut Outbox) {
        match timer {
            TimerKind::ClientRetry { seq } => {
                let entry = self.entry();
                let Some(batch) = self.in_flight.get_mut(&seq) else {
                    return;
                };
                let msg = Message::Request(batch.signed.clone());
                if self.commit_quorum.is_some() {
                    // A Zyzzyva backup only forwards to the primary, which
                    // is where new requests go anyway.
                    out.send(entry, msg);
                } else {
                    // §2.2: a client whose request stalls broadcasts it;
                    // replicas forward to the primary, which either
                    // proposes it or gets view-changed away.
                    out.multicast(self.reply_set.iter().copied(), &msg);
                }
                // Exponential back-off, capped: unbounded doubling would
                // let a long outage push the next retransmission
                // arbitrarily far out.
                batch.retry = batch.retry.doubled().min(self.cfg.client_retry_cap);
                out.set_timer(TimerKind::ClientRetry { seq }, batch.retry);
            }
            TimerKind::SpecWindow { seq } => {
                let Some(quorum) = self.commit_quorum else {
                    return;
                };
                let Some(batch) = self.in_flight.get_mut(&seq) else {
                    return;
                };
                if batch.committing.is_some() {
                    return;
                }
                // The largest tally, the first to arrive among equals
                // (`max_by_key` keeps the last maximum it sees).
                let best = batch.tallies.iter().enumerate().rev();
                match best.max_by_key(|(_, t)| t.voters.len()) {
                    Some((idx, tally)) if tally.voters.len() >= quorum => {
                        // Commit phase: a certificate of 2F + 1 matching
                        // responses, to all replicas.
                        let signers = tally.voters.iter().copied().zip(tally.sigs.iter().copied());
                        let msg = Message::ZyzCommit {
                            client: self.id,
                            batch_seq: seq,
                            view: 0,
                            seq: tally.outcome.seq,
                            digest: batch.digest,
                            history: tally.outcome.history,
                            sigs: signers.take(quorum).collect(),
                        };
                        batch.committing = Some((idx, Vec::new()));
                        out.multicast(self.reply_set.iter().copied(), &msg);
                    }
                    // Not enough responses yet: extend the window and keep
                    // waiting (the retry timer handles retransmission).
                    _ => out.set_timer(TimerKind::SpecWindow { seq }, self.cfg.spec_window),
                }
            }
            _ => {}
        }
    }
}

/// A trivial batch source for tests and examples: `count` write
/// transactions round-robining over `keys` keys.
pub fn synthetic_source(client: ClientId, count: usize, keys: u64) -> BatchSource {
    Box::new(move |batch_seq| ClientBatch {
        client,
        batch_seq,
        txns: (0..count as u64)
            .map(|i| crate::types::Transaction {
                client,
                seq: batch_seq * count as u64 + i,
                op: rdb_store::Operation::Write {
                    key: (batch_seq * 31 + i * 7) % keys,
                    value: rdb_store::Value::from_u64(batch_seq * 1000 + i),
                },
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Action;
    use crate::config::{ExecMode, ProtocolKind};
    use crate::exec::result_digest;
    use crate::registry;
    use crate::testkit::Edge;
    use crate::types::ReplyData;
    use crate::zyzzyva::spec_response_payload;
    use rdb_common::config::SystemConfig;
    use rdb_crypto::sign::{KeyStore, Signer};
    use rdb_store::ExecOutcome;

    const ME: ClientId = ClientId {
        cluster: rdb_common::ids::ClusterId(1),
        index: 5,
    };

    /// A client of one kind in a 2 × 4 deployment (real execution, real
    /// signatures), plus what it takes to answer it like a replica.
    struct Rig {
        kind: ProtocolKind,
        cfg: ProtocolConfig,
        signers: Vec<(ReplicaId, Signer)>,
        client: QuorumClient,
        edge: Edge,
    }

    /// What a replica claims about a batch.
    #[derive(Clone)]
    struct Claim {
        seq: u64,
        height: u64,
        digest: Digest,
        results: TxnEffect,
    }

    impl Rig {
        fn new(kind: ProtocolKind) -> Rig {
            let mut cfg = ProtocolConfig::new(SystemConfig::geo(2, 4).unwrap());
            cfg.exec_mode = ExecMode::Real;
            let ks = KeyStore::new(3);
            let signers = cfg
                .system
                .all_replicas()
                .map(|r| (r, ks.register(r.into())))
                .collect();
            let crypto = CryptoCtx::new(ks.register(ME.into()), ks.verifier(), true);
            let client = registry::client(kind, cfg.clone(), ME, crypto)
                .with_source(synthetic_source(ME, 3, 100));
            Rig {
                edge: Edge::new(&cfg.system, &ks),
                kind,
                cfg,
                signers,
                client,
            }
        }

        /// Closed-loop submit; the actions and the batch they carry.
        fn next_request(&mut self) -> (Vec<Action>, SignedBatch) {
            let mut out = Outbox::new();
            assert!(self.client.next_request(SimTime::ZERO, &mut out));
            let actions = out.take();
            let Some(Action::Send {
                msg: Message::Request(sb),
                ..
            }) = actions.first()
            else {
                panic!("a submit starts with the request")
            };
            let sb = sb.clone();
            (actions, sb)
        }

        fn local(&self) -> Vec<ReplicaId> {
            self.cfg.system.replicas_of(ME.cluster).collect()
        }

        fn foreign(&self) -> Vec<ReplicaId> {
            let all = self.cfg.system.all_replicas();
            all.filter(|r| r.cluster != ME.cluster).collect()
        }

        /// The replicas an honest quorum is drawn from, nearest first.
        fn everyone(&self) -> Vec<ReplicaId> {
            [self.local(), self.foreign()].concat()
        }

        /// What every honest replica reports for `sb` (three writes).
        fn honest(&self, sb: &SignedBatch) -> Claim {
            let results = TxnEffect {
                outcomes: vec![ExecOutcome::Done; 3],
            };
            let seq = sb.batch.batch_seq + 7;
            Claim {
                seq,
                // Zyzzyva's responses carry no height: it is the seq.
                height: seq,
                digest: result_digest(&sb.digest(), &results),
                results,
            }
        }

        /// `replica`'s answer to `sb` in this kind's reply format.
        fn attest(&self, replica: ReplicaId, sb: &SignedBatch, claim: &Claim) -> Message {
            if self.kind != ProtocolKind::Zyzzyva {
                return Message::Reply {
                    data: ReplyData {
                        client: ME,
                        batch_seq: sb.batch.batch_seq,
                        seq: claim.seq,
                        block_height: claim.height,
                        result_digest: claim.digest,
                        results: claim.results.clone(),
                        txns: 3,
                    },
                    view: 0,
                };
            }
            let (_, signer) = self.signers.iter().find(|(r, _)| *r == replica).unwrap();
            let history = Digest::of(b"history");
            let payload =
                spec_response_payload(0, claim.seq, &sb.digest(), &history, &claim.digest);
            Message::SpecResponse {
                view: 0,
                seq: claim.seq,
                batch_seq: sb.batch.batch_seq,
                replica,
                digest: sb.digest(),
                history,
                result: claim.digest,
                results: claim.results.clone(),
                sig: signer.sign(&payload),
            }
        }

        fn deliver(&mut self, from: impl Into<NodeId>, msg: Message) -> Vec<Action> {
            let client = &mut self.client;
            self.edge.deliver(from.into(), msg, |from, msg, out| {
                client.on_message(SimTime::ZERO, from, msg, out)
            })
        }

        fn fire(&mut self, timer: TimerKind) -> Vec<Action> {
            let mut out = Outbox::new();
            self.client.on_timer(SimTime::ZERO, timer, &mut out);
            out.take()
        }

        /// `replica` reports `claim`; the proof if that completed `sb`.
        fn vote(
            &mut self,
            replica: ReplicaId,
            sb: &SignedBatch,
            claim: &Claim,
        ) -> Option<CommitProof> {
            let msg = self.attest(replica, sb, claim);
            proof(&self.deliver(replica, msg))
        }

        /// Honest replies from `voters` in order, stopping at completion.
        /// Zyzzyva, its fast path spoiled by whoever did not vote
        /// honestly, finishes through the commit phase.
        fn honest_quorum(&mut self, voters: &[ReplicaId], sb: &SignedBatch) -> Option<CommitProof> {
            let claim = self.honest(sb);
            for r in voters {
                if let Some(proof) = self.vote(*r, sb, &claim) {
                    return Some(proof);
                }
            }
            if self.kind != ProtocolKind::Zyzzyva {
                return None;
            }
            let seq = sb.batch.batch_seq;
            let actions = self.fire(TimerKind::SpecWindow { seq });
            let Some(Action::Send {
                msg: Message::ZyzCommit { seq: cert_seq, .. },
                ..
            }) = actions.first()
            else {
                return None; // no certificate yet: the window was extended
            };
            let cert_seq = *cert_seq;
            for r in voters {
                let ack = Message::LocalCommit {
                    view: 0,
                    seq: cert_seq,
                    batch_seq: seq,
                    replica: *r,
                };
                if let Some(proof) = proof(&self.deliver(*r, ack)) {
                    return Some(proof);
                }
            }
            None
        }
    }

    fn proof(actions: &[Action]) -> Option<CommitProof> {
        actions.iter().find_map(|a| match a {
            Action::RequestComplete { proof, .. } => Some(proof.clone()),
            _ => None,
        })
    }

    fn sends(actions: &[Action]) -> Vec<NodeId> {
        let to = |a: &Action| match a {
            Action::Send { to, .. } => Some(*to),
            _ => None,
        };
        actions.iter().filter_map(to).collect()
    }

    /// The Byzantine-reply table: per kind, what one faulty replica (the
    /// first of the client's own cluster) may send, and that an honest
    /// quorum of the others completes regardless — with the honest
    /// outcome, and without the liar among the attestors.
    #[test]
    fn byzantine_replies_never_complete_and_never_block_an_honest_quorum() {
        for kind in ProtocolKind::ALL {
            type Lie = fn(&mut Claim, &Digest);
            let lies: [(&str, Lie); 3] = [
                ("self-consistent forged results", |c, batch| {
                    c.results.outcomes[1] = ExecOutcome::Counter(666);
                    c.digest = result_digest(batch, &c.results);
                }),
                ("forged seq", |c, _| {
                    c.seq += 5;
                    c.height += 5;
                }),
                ("forged height", |c, _| c.height += 5),
            ];
            for (what, lie) in lies {
                let mut rig = Rig::new(kind);
                let (_, sb) = rig.next_request();
                let honest = rig.honest(&sb);
                let mut forged = honest.clone();
                lie(&mut forged, &sb.digest());
                if kind == ProtocolKind::Zyzzyva && forged.height != forged.seq {
                    continue; // a speculative response carries no height
                }
                let everyone = rig.everyone();
                let (liar, others) = everyone.split_first().unwrap();
                // The liar repeating itself is still one replica.
                for _ in 0..3 {
                    assert!(rig.vote(*liar, &sb, &forged).is_none(), "{kind} {what}");
                }
                let proof = rig
                    .honest_quorum(others, &sb)
                    .unwrap_or_else(|| panic!("{kind}: honest quorum after {what}"));
                assert_eq!(
                    (proof.seq, proof.block_height, proof.result_digest),
                    (honest.seq, honest.height, honest.digest),
                    "{kind} {what}"
                );
                assert_eq!(proof.results, honest.results);
                assert!(!proof.attesting_replicas.contains(liar), "{kind} {what}");
                assert_eq!(rig.client.in_flight(), 0);
            }
        }
    }

    #[test]
    fn results_not_hashing_to_their_claimed_digest_are_discarded() {
        // A Byzantine replica votes the *honest* digest but attaches
        // forged outcomes: the mismatch disqualifies the reply entirely —
        // it does not even consume the replica's vote.
        for kind in ProtocolKind::ALL {
            let mut rig = Rig::new(kind);
            let (_, sb) = rig.next_request();
            let honest = rig.honest(&sb);
            let mut forged = honest.clone();
            forged.results.outcomes[1] = ExecOutcome::Counter(666);
            let everyone = rig.everyone();
            assert!(rig.vote(everyone[0], &sb, &forged).is_none());
            let proof = rig.honest_quorum(&everyone, &sb).expect("honest quorum");
            assert_eq!(proof.results, honest.results);
            assert_eq!(proof.attesting_replicas[0], everyone[0], "{kind}");
        }
    }

    #[test]
    fn duplicate_replica_votes_count_once() {
        for kind in ProtocolKind::ALL {
            let mut rig = Rig::new(kind);
            let (_, sb) = rig.next_request();
            let honest = rig.honest(&sb);
            let everyone = rig.everyone();
            for _ in 0..9 {
                assert!(rig.vote(everyone[0], &sb, &honest).is_none(), "{kind}");
            }
            let proof = rig.honest_quorum(&everyone[1..], &sb).expect("quorum");
            let quorum = registry::reply_quorum(kind, &rig.cfg);
            assert_eq!(proof.attesting_replicas, everyone[..quorum], "{kind}");
        }
    }

    /// `z·f ≥ f + 1`: one faulty replica in each of two clusters must not
    /// reach a *local* quorum. Replies from outside the client's reply set
    /// do not vote; for the global protocols everyone is inside it.
    #[test]
    fn replies_from_outside_the_reply_set_do_not_vote() {
        for kind in ProtocolKind::ALL {
            let mut rig = Rig::new(kind);
            let (_, sb) = rig.next_request();
            let honest = rig.honest(&sb);
            let quorum = registry::reply_quorum(kind, &rig.cfg);
            let (local, foreign) = (rig.local(), rig.foreign());
            assert!(rig.vote(local[0], &sb, &honest).is_none());
            let mut done = None;
            for r in &foreign {
                done = done.or(rig.vote(*r, &sb, &honest));
            }
            if kind.is_topology_aware() {
                assert!(done.is_none(), "{kind}: foreign replicas completed");
                let proof = rig.vote(local[1], &sb, &honest).expect("local f + 1");
                assert_eq!(proof.attesting_replicas, local[..2]);
            } else if quorum <= 1 + foreign.len() {
                let proof = done.expect("global quorum");
                assert_eq!(proof.quorum_size(), quorum, "{kind}");
            } else {
                assert!(done.is_none(), "{kind} needs all n");
            }
        }
    }

    #[test]
    fn stale_and_misaddressed_replies_are_ignored() {
        for kind in ProtocolKind::ALL {
            let mut rig = Rig::new(kind);
            let (_, sb) = rig.next_request();
            let honest = rig.honest(&sb);
            let local = rig.local();
            // A reply for a batch that is not in flight.
            let mut other = sb.clone();
            other.batch.batch_seq = 99;
            let stale = rig.attest(local[0], &other, &honest);
            assert!(rig.deliver(local[0], stale).is_empty());
            // A reply relayed under another replica's name, or by a client.
            let msg = rig.attest(local[1], &sb, &honest);
            if kind == ProtocolKind::Zyzzyva {
                assert!(rig.deliver(local[0], msg.clone()).is_empty());
            }
            assert!(rig.deliver(ClientId::new(1, 6), msg).is_empty());
            // None of it cost anybody's vote.
            let proof = rig.honest_quorum(&rig.everyone(), &sb).expect("quorum");
            assert_eq!(proof.attesting_replicas[..2], local[..2]);
        }
    }

    #[test]
    fn a_speculative_response_with_a_bad_signature_does_not_vote() {
        let mut rig = Rig::new(ProtocolKind::Zyzzyva);
        let (_, sb) = rig.next_request();
        let everyone = rig.everyone();
        // A response claiming another position, which would spend
        // everyone[0]'s one vote on an outcome nobody else reports ...
        let mut lie = rig.honest(&sb);
        lie.seq += 5;
        lie.height += 5;
        let Message::SpecResponse {
            view,
            seq,
            batch_seq,
            replica,
            digest,
            history,
            result,
            results,
            ..
        } = rig.attest(everyone[0], &sb, &lie)
        else {
            unreachable!()
        };
        // ... signed by somebody else.
        let payload = spec_response_payload(view, seq, &digest, &history, &result);
        let forged = Message::SpecResponse {
            view,
            seq,
            batch_seq,
            replica,
            digest,
            history,
            result,
            results,
            sig: rig.signers[1].1.sign(&payload),
        };
        rig.deliver(everyone[0], forged);
        // The vote is still free: all n honest responses take the fast path.
        let proof = rig.honest_quorum(&everyone, &sb).expect("fast path");
        assert_eq!(proof.attesting_replicas, everyone);
    }

    #[test]
    fn commit_phase_counts_local_commits_for_the_certified_position_only() {
        let mut rig = Rig::new(ProtocolKind::Zyzzyva);
        let (_, sb) = rig.next_request();
        let honest = rig.honest(&sb);
        let everyone = rig.everyone();
        let batch_seq = sb.batch.batch_seq;
        let ack = |replica: ReplicaId, seq: u64| Message::LocalCommit {
            view: 0,
            seq,
            batch_seq,
            replica,
        };
        // Too few responses: the window is extended, no certificate.
        for r in &everyone[..4] {
            assert!(rig.vote(*r, &sb, &honest).is_none());
        }
        let extended = rig.fire(TimerKind::SpecWindow { seq: batch_seq });
        assert_eq!(
            extended,
            vec![Action::SetTimer {
                kind: TimerKind::SpecWindow { seq: batch_seq },
                after: rig.cfg.spec_window
            }]
        );
        // Acknowledgements before any certificate went out count nothing.
        for r in &everyone {
            assert!(rig.deliver(*r, ack(*r, honest.seq)).is_empty());
        }
        // 2F + 1 = 5 of 8: the certificate carries the first five
        // signatures, in arrival order, whatever the process's hash seed.
        assert!(rig.vote(everyone[4], &sb, &honest).is_none());
        let actions = rig.fire(TimerKind::SpecWindow { seq: batch_seq });
        assert_eq!(sends(&actions).len(), 8, "to every replica");
        let Some(Action::Send {
            msg: Message::ZyzCommit { seq, sigs, .. },
            ..
        }) = actions.first()
        else {
            panic!("expected the certificate")
        };
        assert_eq!(*seq, honest.seq);
        let signers: Vec<ReplicaId> = sigs.iter().map(|(r, _)| *r).collect();
        assert_eq!(signers, everyone[..5]);
        // Wrong position, somebody else's name, a repeat: none counts.
        for r in &everyone[..4] {
            assert!(rig.deliver(*r, ack(*r, honest.seq + 1)).is_empty());
            assert!(rig.deliver(*r, ack(everyone[7], honest.seq)).is_empty());
            assert!(rig.deliver(*r, ack(*r, honest.seq)).is_empty());
            assert!(rig.deliver(*r, ack(*r, honest.seq)).is_empty());
        }
        let done = rig.deliver(everyone[4], ack(everyone[4], honest.seq));
        let proof = proof(&done).expect("the fifth acknowledgement completes");
        assert_eq!(proof.attesting_replicas, everyone[..5]);
        assert_eq!(rig.client.in_flight(), 0);
    }

    #[test]
    fn a_tie_between_outcomes_goes_to_the_first_to_arrive() {
        // Two outcomes with three signed responses each, against a commit
        // quorum lowered so that both qualify.
        let mut rig = Rig::new(ProtocolKind::Zyzzyva);
        rig.client.commit_quorum = Some(3);
        let (_, sb) = rig.next_request();
        let first = rig.honest(&sb);
        let mut second = first.clone();
        second.seq += 1;
        second.height += 1;
        let everyone = rig.everyone();
        for pair in everyone[..6].chunks(2) {
            assert!(rig.vote(pair[0], &sb, &first).is_none());
            assert!(rig.vote(pair[1], &sb, &second).is_none());
        }
        let actions = rig.fire(TimerKind::SpecWindow { seq: 0 });
        let Some(Action::Send {
            msg: Message::ZyzCommit { seq, .. },
            ..
        }) = actions.first()
        else {
            panic!("expected the certificate")
        };
        assert_eq!(*seq, first.seq);
    }

    /// Open loop: many batches tracked at once, answered out of order.
    #[test]
    fn open_loop_batches_complete_independently_and_leave_nothing_behind() {
        let mut rig = Rig::new(ProtocolKind::Pbft);
        let mut source = synthetic_source(ME, 3, 100);
        let batches: Vec<SignedBatch> = (0..65)
            .map(|seq| rig.client.crypto.sign_batch(source(seq)).0)
            .collect();
        for sb in &batches {
            let mut out = Outbox::new();
            rig.client.submit(sb.clone(), sb.digest(), &mut out);
            assert_eq!(out.len(), 2, "one send, one timer");
        }
        assert_eq!(rig.client.in_flight(), 65);
        // Replies for the first 64 arrive newest first; each completes
        // exactly once, with its own proof.
        let voters = rig.everyone();
        for sb in batches[..64].iter().rev() {
            let proof = rig.honest_quorum(&voters, sb).expect("completes");
            assert_eq!(proof.seq, rig.honest(sb).seq);
            assert_eq!(proof.result_digest, rig.honest(sb).digest);
            assert!(rig.honest_quorum(&voters, sb).is_none(), "completed twice");
        }
        assert_eq!(rig.client.in_flight(), 1);
        // The unanswered one retransmits on its own back-off ...
        let (base, cap) = (rig.cfg.client_retry, rig.cfg.client_retry_cap);
        let retry = TimerKind::ClientRetry { seq: 64 };
        let mut delay = base;
        for _ in 0..40 {
            let actions = rig.fire(retry);
            assert_eq!(sends(&actions).len(), 8, "broadcast to all z*n");
            delay = delay.doubled().min(cap);
            let rearm = Action::SetTimer {
                kind: retry,
                after: delay,
            };
            assert_eq!(actions.last(), Some(&rearm));
        }
        assert_eq!(delay, cap, "back-off settles at the ceiling");
        // ... which a batch submitted later does not inherit.
        let (late, digest) = rig.client.crypto.sign_batch(source(65));
        rig.client.submit(late, digest, &mut Outbox::new());
        let actions = rig.fire(TimerKind::ClientRetry { seq: 65 });
        let rearm = Action::SetTimer {
            kind: TimerKind::ClientRetry { seq: 65 },
            after: base.doubled(),
        };
        assert_eq!(actions.last(), Some(&rearm));
        // Timers of completed batches find nothing to do.
        assert!(rig.fire(TimerKind::ClientRetry { seq: 3 }).is_empty());
        assert!(rig.fire(TimerKind::SpecWindow { seq: 3 }).is_empty());
        for sb in [&batches[64], &rig.client.crypto.sign_batch(source(65)).0] {
            assert!(rig.honest_quorum(&voters, sb).is_some());
        }
        assert_eq!(rig.client.in_flight(), 0);
    }

    /// What the closed-loop drivers (and so every simulator figure) see,
    /// pinned literally per kind: submit, quorum, next submit.
    #[test]
    fn closed_loop_exchange_is_pinned_per_kind() {
        for kind in ProtocolKind::ALL {
            let mut rig = Rig::new(kind);
            let (retry, window) = (rig.cfg.client_retry, rig.cfg.spec_window);
            let zyzzyva = kind == ProtocolKind::Zyzzyva;
            let entry = match kind {
                ProtocolKind::GeoBft | ProtocolKind::Steward => ReplicaId::new(1, 0),
                ProtocolKind::Pbft | ProtocolKind::Zyzzyva => ReplicaId::new(0, 0),
                ProtocolKind::HotStuff => ReplicaId::new(1, 1), // 5 % 8
            };
            let submit = |seq: u64, sb: &SignedBatch| {
                let mut expect = vec![Action::Send {
                    to: entry.into(),
                    msg: Message::Request(sb.clone()),
                }];
                if zyzzyva {
                    expect.push(Action::SetTimer {
                        kind: TimerKind::SpecWindow { seq },
                        after: window,
                    });
                }
                expect.push(Action::SetTimer {
                    kind: TimerKind::ClientRetry { seq },
                    after: retry,
                });
                expect
            };
            for seq in 0..2 {
                let (actions, sb) = rig.next_request();
                assert_eq!(sb.batch.batch_seq, seq);
                assert_eq!(actions, submit(seq, &sb), "{kind}");
                let honest = rig.honest(&sb);
                let quorum = registry::reply_quorum(kind, &rig.cfg);
                let voters = rig.everyone();
                for r in &voters[..quorum - 1] {
                    let msg = rig.attest(*r, &sb, &honest);
                    assert_eq!(rig.deliver(*r, msg), vec![], "{kind}");
                }
                let last = voters[quorum - 1];
                let msg = rig.attest(last, &sb, &honest);
                let mut expect = vec![Action::CancelTimer {
                    kind: TimerKind::ClientRetry { seq },
                }];
                if zyzzyva {
                    expect.push(Action::CancelTimer {
                        kind: TimerKind::SpecWindow { seq },
                    });
                }
                expect.push(Action::RequestComplete {
                    seq,
                    txns: 3,
                    proof: CommitProof {
                        seq: honest.seq,
                        block_height: honest.height,
                        result_digest: honest.digest,
                        attesting_replicas: voters[..quorum].to_vec(),
                        results: honest.results,
                    },
                });
                assert_eq!(rig.deliver(last, msg), expect, "{kind}");
            }
        }
    }

    /// ... and: submit, retry timer (twice), quorum.
    #[test]
    fn closed_loop_retransmission_is_pinned_per_kind() {
        for kind in ProtocolKind::ALL {
            let mut rig = Rig::new(kind);
            let (_, sb) = rig.next_request();
            let request = Message::Request(sb.clone());
            // Zyzzyva backups only forward, so it re-asks the primary; the
            // others broadcast to their reply set.
            let targets = match kind {
                ProtocolKind::Zyzzyva => vec![ReplicaId::new(0, 0)],
                ProtocolKind::GeoBft | ProtocolKind::Steward => rig.local(),
                ProtocolKind::Pbft | ProtocolKind::HotStuff => {
                    rig.cfg.system.all_replicas().collect()
                }
            };
            let retry = TimerKind::ClientRetry { seq: 0 };
            let mut delay = rig.cfg.client_retry;
            for _ in 0..2 {
                delay = delay.doubled();
                let mut expect: Vec<Action> = targets
                    .iter()
                    .map(|r| Action::Send {
                        to: (*r).into(),
                        msg: request.clone(),
                    })
                    .collect();
                expect.push(Action::SetTimer {
                    kind: retry,
                    after: delay,
                });
                assert_eq!(rig.fire(retry), expect, "{kind}");
            }
            let proof = rig.honest_quorum(&rig.everyone(), &sb).expect("quorum");
            assert_eq!(proof.seq, rig.honest(&sb).seq);
            // The next batch starts from the base delay again.
            let (actions, _) = rig.next_request();
            let rearm = Action::SetTimer {
                kind: TimerKind::ClientRetry { seq: 1 },
                after: rig.cfg.client_retry,
            };
            assert_eq!(actions.last(), Some(&rearm), "{kind}");
        }
    }

    #[test]
    fn a_reply_view_redirects_the_next_request() {
        let mut rig = Rig::new(ProtocolKind::GeoBft);
        let (_, sb) = rig.next_request();
        let local = rig.local();
        let Message::Reply { data, .. } = rig.attest(local[0], &sb, &rig.honest(&sb)) else {
            unreachable!()
        };
        rig.deliver(local[0], Message::Reply { data, view: 2 });
        let (actions, _) = rig.next_request();
        assert_eq!(sends(&actions), vec![NodeId::from(ReplicaId::new(1, 2))]);
    }

    #[test]
    fn requests_are_signed_by_the_client() {
        let mut rig = Rig::new(ProtocolKind::GeoBft);
        let (_, sb) = rig.next_request();
        assert!(rig.client.crypto.verify_batch(&sb, &sb.digest()));
    }

    #[test]
    fn a_client_without_a_source_has_no_next_request() {
        let rig = Rig::new(ProtocolKind::Pbft);
        let mut bare = registry::client(rig.kind, rig.cfg.clone(), ME, rig.client.crypto.clone());
        let mut out = Outbox::new();
        assert!(!bare.next_request(SimTime::ZERO, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn modeled_execution_checks_the_modeled_digest() {
        let mut rig = Rig::new(ProtocolKind::Pbft);
        rig.client.cfg.exec_mode = ExecMode::Modeled;
        let (_, sb) = rig.next_request();
        let voters = rig.everyone();
        // A real-execution digest is not what a modeled replica reports.
        assert!(rig.honest_quorum(&voters, &sb).is_none());
        let modeled = Claim {
            digest: digest_under(ExecMode::Modeled, &sb.digest(), &TxnEffect::default()),
            results: TxnEffect::default(),
            ..rig.honest(&sb)
        };
        let mut done = None;
        for r in &voters[3..] {
            done = done.or(rig.vote(*r, &sb, &modeled));
        }
        assert_eq!(done.expect("F + 1 = 3").result_digest, modeled.digest);
    }
}
