//! Zyzzyva — speculative Byzantine fault tolerance (Kotla et al.), as
//! characterized in the paper (§1.1, §3):
//!
//! * "designed with the most optimal case in mind: it requires non-faulty
//!   clients and depends on clients to aid in the recovery of any
//!   failures";
//! * "clients in Zyzzyva require identical responses from all n replicas.
//!   If these are not received, the client initiates recovery of any
//!   requests with sufficient n − f responses by broadcasting certificates
//!   of these requests. This will greatly reduce performance when any
//!   replicas are faulty."
//!
//! The replica side is minimal: the primary orders requests and replicas
//! *speculatively execute* in order, answering clients directly with
//! signed responses that embed a rolling history digest. The client side
//! carries the protocol's complexity: [`crate::clients::QuorumClient`]
//! counts those responses and, short of all `n`, runs the commit phase.

use crate::api::{Outbox, ReplicaProtocol, TimerKind};
use crate::config::ProtocolConfig;
use crate::crypto_ctx::CryptoCtx;
use crate::exec::CommitTail;
use crate::messages::Message;
use crate::types::{DecisionEntry, SignedBatch};
use rdb_common::ids::{ClientId, NodeId, ReplicaId};
use rdb_common::time::SimTime;
use rdb_crypto::digest::Digest;
use rdb_store::KvStore;
use std::collections::{BTreeMap, HashMap};

/// Canonical bytes a replica signs in a speculative response.
pub fn spec_response_payload(
    view: u64,
    seq: u64,
    digest: &Digest,
    history: &Digest,
    result: &Digest,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 + 96 + 4);
    out.extend_from_slice(b"spec");
    out.extend_from_slice(&view.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(digest.as_bytes());
    out.extend_from_slice(history.as_bytes());
    out.extend_from_slice(result.as_bytes());
    out
}

/// A Zyzzyva replica.
pub struct ZyzzyvaReplica {
    cfg: ProtocolConfig,
    id: ReplicaId,
    crypto: CryptoCtx,
    tail: CommitTail,
    members: Vec<ReplicaId>,
    /// Fixed view 0: the paper excludes Zyzzyva from primary-failure
    /// experiments ("it already fails to deal with non-primary failures").
    view: u64,
    /// Primary: next sequence number to assign.
    next_seq: u64,
    /// Ordered-but-not-executed requests (waiting for gaps to fill).
    ordered: BTreeMap<u64, SignedBatch>,
    /// Next sequence to execute speculatively.
    exec_next: u64,
    /// Rolling history digest `h_s = H(h_{s-1} || d_s)`.
    history: Digest,
    /// Executed requests (for commit-phase acknowledgements):
    /// seq -> (digest, history after execution, client, batch_seq).
    executed: BTreeMap<u64, (Digest, Digest, ClientId, u64)>,
    /// Primary-side dedupe of proposed client batches.
    proposed: HashMap<(ClientId, u64), u64>,
}

impl ZyzzyvaReplica {
    /// Build a replica.
    pub fn new(cfg: ProtocolConfig, id: ReplicaId, crypto: CryptoCtx, store: KvStore) -> Self {
        let members = cfg.system.all_replicas().collect();
        let tail = CommitTail::new(&cfg, store);
        ZyzzyvaReplica {
            cfg,
            id,
            crypto,
            tail,
            members,
            view: 0,
            next_seq: 1,
            ordered: BTreeMap::new(),
            exec_next: 1,
            history: Digest::ZERO,
            executed: BTreeMap::new(),
            proposed: HashMap::new(),
        }
    }

    fn primary(&self) -> ReplicaId {
        self.members[(self.view % self.members.len() as u64) as usize]
    }

    fn is_primary(&self) -> bool {
        self.primary() == self.id
    }

    fn handle_request(&mut self, sb: SignedBatch, out: &mut Outbox) {
        if !self.is_primary() {
            out.send(self.primary(), Message::Forward(sb));
            return;
        }
        let key = (sb.batch.client, sb.batch.batch_seq);
        if self.proposed.contains_key(&key) {
            return; // duplicate; the speculative response was already sent
        }
        // Window control: don't run unboundedly ahead of execution.
        if self.next_seq >= self.exec_next + self.cfg.window {
            return; // dropped; the client will retransmit
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.proposed.insert(key, seq);
        let digest = sb.digest();
        let msg = Message::OrderReq {
            view: self.view,
            seq,
            batch: sb,
            history: digest,
        };
        out.multicast(self.members.iter().copied(), &msg);
    }

    fn handle_order_req(
        &mut self,
        from: ReplicaId,
        seq: u64,
        batch: SignedBatch,
        out: &mut Outbox,
    ) {
        if from != self.primary() {
            return;
        }
        if seq < self.exec_next || seq >= self.exec_next + 2 * self.cfg.window {
            return;
        }
        self.ordered.entry(seq).or_insert(batch);
        self.try_speculative_execute(out);
    }

    fn try_speculative_execute(&mut self, out: &mut Outbox) {
        while let Some(batch) = self.ordered.remove(&self.exec_next) {
            let seq = self.exec_next;
            self.exec_next += 1;
            let digest = batch.digest();
            self.history = Digest::combine(&self.history, &digest);
            let (result, results) = self.tail.execute(&batch, &digest);
            let client = batch.batch.client;
            let batch_seq = batch.batch.batch_seq;
            self.executed
                .insert(seq, (digest, self.history, client, batch_seq));
            // Speculative response straight to the client, signed. The
            // signature covers the result digest; the outcome list rides
            // along unsigned and is validated against it by receivers.
            let sig = self.crypto.sign(&spec_response_payload(
                self.view,
                seq,
                &digest,
                &self.history,
                &result,
            ));
            out.send(
                client,
                Message::SpecResponse {
                    view: self.view,
                    seq,
                    batch_seq,
                    replica: self.id,
                    digest,
                    history: self.history,
                    result,
                    results,
                    sig,
                },
            );
            // Speculative execution takes no checkpoints.
            let entry = DecisionEntry {
                origin: None,
                batch,
                digest,
            };
            self.tail.decided(seq, [entry], out);
            // Prune the executed log to a window.
            let keep_from = self.exec_next.saturating_sub(4 * self.cfg.window);
            self.executed.retain(|s, _| *s >= keep_from);
        }
    }

    /// A commit certificate (its 2F + 1 size checked at the input edge)
    /// is acknowledged when it names what this replica executed.
    fn handle_zyz_commit(
        &mut self,
        client: ClientId,
        batch_seq: u64,
        seq: u64,
        digest: Digest,
        out: &mut Outbox,
    ) {
        let Some((d, _h, c, bs)) = self.executed.get(&seq) else {
            return; // not executed here yet; the client will retry
        };
        if *d != digest || *c != client || *bs != batch_seq {
            return;
        }
        out.send(
            client,
            Message::LocalCommit {
                view: self.view,
                seq,
                batch_seq,
                replica: self.id,
            },
        );
    }
}

impl ReplicaProtocol for ZyzzyvaReplica {
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_start(&mut self, _now: SimTime, _out: &mut Outbox) {}

    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Message, out: &mut Outbox) {
        match msg {
            Message::Request(sb) | Message::Forward(sb) => self.handle_request(sb, out),
            Message::OrderReq { seq, batch, .. } => {
                if let NodeId::Replica(from) = from {
                    self.handle_order_req(from, seq, batch, out);
                }
            }
            Message::ZyzCommit {
                client,
                batch_seq,
                seq,
                digest,
                ..
            } => self.handle_zyz_commit(client, batch_seq, seq, digest, out),
            _ => {}
        }
    }

    fn on_timer(&mut self, _now: SimTime, _timer: TimerKind, _out: &mut Outbox) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Action, ClientProtocol};
    use crate::clients::{synthetic_source, QuorumClient};
    use crate::config::{ExecMode, ProtocolKind};
    use crate::testkit::Edge;
    use rdb_common::config::SystemConfig;
    use rdb_crypto::sign::{KeyStore, Signature};

    fn setup(n: usize) -> (Vec<ZyzzyvaReplica>, QuorumClient, KeyStore, Edge) {
        let system = SystemConfig::geo(1, n).unwrap();
        let mut cfg = ProtocolConfig::new(system.clone());
        cfg.exec_mode = ExecMode::Real;
        let ks = KeyStore::new(33);
        let replicas: Vec<ZyzzyvaReplica> = system
            .all_replicas()
            .map(|r| {
                let signer = ks.register(NodeId::Replica(r));
                let crypto = CryptoCtx::new(signer, ks.verifier(), true);
                ZyzzyvaReplica::new(cfg.clone(), r, crypto, KvStore::with_ycsb_records(50))
            })
            .collect();
        let cid = ClientId::new(0, 0);
        let signer = ks.register(NodeId::Client(cid));
        let crypto = CryptoCtx::new(signer, ks.verifier(), true);
        let client = crate::registry::client(ProtocolKind::Zyzzyva, cfg.clone(), cid, crypto)
            .with_source(synthetic_source(cid, 3, 30));
        let edge = Edge::new(&system, &ks);
        (replicas, client, ks, edge)
    }

    /// `msg` from `from` through the input edge into `replica`.
    fn deliver(
        edge: &Edge,
        replica: &mut ZyzzyvaReplica,
        from: NodeId,
        msg: Message,
    ) -> Vec<Action> {
        edge.deliver(from, msg, |from, msg, out| {
            replica.on_message(SimTime::ZERO, from, msg, out)
        })
    }

    /// Deliver actions among replicas + the one client until quiescent.
    fn pump(
        edge: &Edge,
        replicas: &mut [ZyzzyvaReplica],
        client: &mut QuorumClient,
        initial: Vec<Action>,
        skip_replica: Option<usize>,
    ) -> bool {
        let mut queue: Vec<(NodeId, Action)> = initial
            .into_iter()
            .map(|a| (NodeId::Client(client.id()), a))
            .collect();
        let mut completed = false;
        let mut steps = 0;
        while let Some((from, action)) = queue.pop() {
            steps += 1;
            assert!(steps < 100_000);
            match action {
                Action::Send { to, msg } => match to {
                    NodeId::Replica(r) => {
                        let idx = r.index as usize;
                        if Some(idx) == skip_replica {
                            continue;
                        }
                        let actions = deliver(edge, &mut replicas[idx], from, msg);
                        queue.extend(actions.into_iter().map(|a| (NodeId::Replica(r), a)));
                    }
                    NodeId::Client(c) => {
                        let actions = edge.deliver(from, msg, |from, msg, out| {
                            client.on_message(SimTime::ZERO, from, msg, out)
                        });
                        queue.extend(actions.into_iter().map(|a| (NodeId::Client(c), a)));
                    }
                },
                Action::RequestComplete { .. } => completed = true,
                _ => {}
            }
        }
        completed
    }

    #[test]
    fn fast_path_completes_with_all_replicas() {
        let (mut replicas, mut client, _ks, edge) = setup(4);
        let mut out = Outbox::new();
        client.next_request(SimTime::ZERO, &mut out);
        let completed = pump(&edge, &mut replicas, &mut client, out.take(), None);
        assert!(completed, "all 4 spec responses => fast-path completion");
        // All replicas executed speculatively and agree.
        let s0 = replicas[0].tail.state_digest();
        assert!(replicas.iter().all(|r| r.tail.state_digest() == s0));
        assert!(replicas.iter().all(|r| r.tail.decisions() == 1));
    }

    #[test]
    fn one_failure_stalls_fast_path_until_commit_phase() {
        let (mut replicas, mut client, _ks, edge) = setup(4);
        let mut out = Outbox::new();
        client.next_request(SimTime::ZERO, &mut out);
        // Replica 3 is down: only 3 of 4 responses arrive.
        let completed = pump(&edge, &mut replicas, &mut client, out.take(), Some(3));
        assert!(!completed, "fast path requires all n responses");

        // The spec-window timer fires: 3 = 2F+1 responses are enough for
        // the commit phase.
        let mut out = Outbox::new();
        client.on_timer(SimTime::ZERO, TimerKind::SpecWindow { seq: 0 }, &mut out);
        let actions = out.take();
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Message::ZyzCommit { .. },
                ..
            }
        )));
        let completed = pump(&edge, &mut replicas, &mut client, actions, Some(3));
        assert!(completed, "commit phase completes with 2F+1 local-commits");
    }

    #[test]
    fn too_few_responses_extends_window() {
        let (_replicas, mut client, _ks, _edge) = setup(4);
        let mut out = Outbox::new();
        client.next_request(SimTime::ZERO, &mut out);
        drop(out); // nobody answers
        let mut out = Outbox::new();
        client.on_timer(SimTime::ZERO, TimerKind::SpecWindow { seq: 0 }, &mut out);
        let actions = out.take();
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer {
                kind: TimerKind::SpecWindow { seq: 0 },
                ..
            }
        )));
        assert!(!actions.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Message::ZyzCommit { .. },
                ..
            }
        )));
    }

    #[test]
    fn replicas_execute_in_seq_order_despite_reordering() {
        let (mut replicas, _client, ks, edge) = setup(4);
        // Hand a backup replica order-reqs out of order.
        let c = ClientId::new(0, 9);
        let signer = ks.register(NodeId::Client(c));
        let mut src = synthetic_source(c, 2, 20);
        let mut mk = |seq: u64| {
            let b = src(seq);
            let sig = signer.sign(b.digest().as_bytes());
            SignedBatch {
                pubkey: signer.public_key(),
                sig,
                batch: b,
            }
        };
        let order = |seq: u64, batch| Message::OrderReq {
            view: 0,
            seq,
            batch,
            history: Digest::ZERO,
        };
        let (b1, b2) = (mk(0), mk(1));
        let primary = ReplicaId::new(0, 0).into();
        deliver(&edge, &mut replicas[1], primary, order(2, b2));
        assert_eq!(replicas[1].tail.decisions(), 0, "gap at seq 1");
        deliver(&edge, &mut replicas[1], primary, order(1, b1));
        assert_eq!(replicas[1].tail.decisions(), 2, "both executed in order");
    }

    #[test]
    fn order_req_from_non_primary_rejected() {
        let (mut replicas, _client, ks, edge) = setup(4);
        let c = ClientId::new(0, 9);
        let signer = ks.register(NodeId::Client(c));
        let mut src = synthetic_source(c, 2, 20);
        let b = src(0);
        let sig = signer.sign(b.digest().as_bytes());
        let sb = SignedBatch {
            pubkey: signer.public_key(),
            sig,
            batch: b,
        };
        let msg = Message::OrderReq {
            view: 0,
            seq: 1,
            batch: sb,
            history: Digest::ZERO,
        };
        let actions = deliver(&edge, &mut replicas[1], ReplicaId::new(0, 2).into(), msg);
        assert_eq!(replicas[1].tail.decisions(), 0);
        assert!(actions.is_empty());
    }

    #[test]
    fn commit_certificate_with_too_few_sigs_ignored() {
        let (mut replicas, mut client, _ks, edge) = setup(4);
        let mut out = Outbox::new();
        client.next_request(SimTime::ZERO, &mut out);
        pump(&edge, &mut replicas, &mut client, out.take(), None);
        // A certificate naming exactly what replica 1 executed, with one
        // signature fewer than the 2F + 1 = 3 it needs.
        let (digest, history, ..) = replicas[1].executed[&1];
        let cert = |signers: u16| Message::ZyzCommit {
            client: client.id(),
            batch_seq: 0,
            view: 0,
            seq: 1,
            digest,
            history,
            sigs: (0..signers)
                .map(|i| (ReplicaId::new(0, i), Signature::default()))
                .collect(),
        };
        let from = client.id().into();
        assert!(deliver(&edge, &mut replicas[1], from, cert(2)).is_empty());
        let full = deliver(&edge, &mut replicas[1], from, cert(3));
        assert_eq!(full.len(), 1, "a full certificate is acknowledged");
    }
}
