//! Steward — hierarchical wide-area BFT (Amir et al.), as characterized
//! by the paper (§1.1, §3):
//!
//! * "groups replicas into clusters, similar to GeoBFT. Different from
//!   GeoBFT, Steward designates one of these clusters as the *primary
//!   cluster*, which coordinates all operations";
//! * threshold signatures are omitted, as in the paper's implementation:
//!   aggregated messages carry `n - f` individual signatures instead;
//! * no view-change support — the paper itself excludes Steward from the
//!   primary-failure experiment because "it does not provide a
//!   readily-usable and complete view-change implementation".
//!
//! Normal case per global sequence number `s`:
//!
//! 1. Clients submit to their local representative (replica 0 of their
//!    cluster), who forwards to the primary cluster.
//! 2. The primary cluster replicates the batch with PBFT (the shared
//!    engine, cluster scope) and produces a commit certificate.
//! 3. The primary-cluster primary sends `StewardProposal(s, cert)` to
//!    `f + 1` replicas of every other cluster; receivers relay it locally.
//! 4. Every replica sends a signed `StewardLocalAccept` to its local
//!    representative; the representative aggregates `n - f` of them into
//!    a `StewardAccept` (the stand-in for Steward's threshold-signed site
//!    message) and sends it to `f + 1` replicas of every other cluster —
//!    the `O(z²)` global message complexity of Table 2.
//! 5. A replica executes `s` once it holds the proposal and accepts from
//!    a majority of clusters, then answers its local clients.

use crate::api::{Outbox, ReplicaProtocol, TimerKind};
use crate::certificate::CommitCertificate;
use crate::config::ProtocolConfig;
use crate::crypto_ctx::CryptoCtx;
use crate::exec::CommitTail;
use crate::messages::{Message, Scope};
use crate::pbft_core::{CoreEvent, PbftCore};
use crate::types::{DecisionEntry, SignedBatch};
use rdb_common::ids::{ClusterId, NodeId, ReplicaId};
use rdb_common::time::SimTime;
use rdb_crypto::digest::Digest;
use rdb_crypto::sign::Signature;
use rdb_store::KvStore;
use std::collections::{BTreeMap, HashSet};

/// The cluster coordinating all operations (placed in Oregon by §4).
pub const PRIMARY_CLUSTER: ClusterId = ClusterId(0);

/// Signing payload of a local/cluster accept.
pub fn accept_payload(cluster: ClusterId, seq: u64, digest: &Digest) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 2 + 8 + 32);
    out.extend_from_slice(b"staccept");
    out.extend_from_slice(&cluster.0.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(digest.as_bytes());
    out
}

/// Per-sequence state.
#[derive(Default)]
struct StInst {
    cert: Option<CommitCertificate>,
    /// Relayed the proposal locally already.
    relayed: bool,
    /// Representative: collected local accept signatures.
    local_accepts: BTreeMap<ReplicaId, Signature>,
    /// Representative: aggregated accept already sent.
    accept_sent: bool,
    /// Own local accept sent to the representative.
    local_accept_sent: bool,
    /// Clusters whose aggregated accept this replica verified.
    cluster_accepts: HashSet<ClusterId>,
    /// Accepts relayed locally (dedupe per origin cluster).
    relayed_accepts: HashSet<ClusterId>,
}

/// A Steward replica.
pub struct StewardReplica {
    cfg: ProtocolConfig,
    id: ReplicaId,
    crypto: CryptoCtx,
    tail: CommitTail,
    my_cluster: ClusterId,
    /// PBFT engine; only primary-cluster members participate in it.
    core: Option<PbftCore>,
    insts: BTreeMap<u64, StInst>,
    exec_next: u64,
}

impl StewardReplica {
    /// Build a replica.
    pub fn new(cfg: ProtocolConfig, id: ReplicaId, crypto: CryptoCtx, store: KvStore) -> Self {
        let my_cluster = id.cluster;
        let core = (my_cluster == PRIMARY_CLUSTER).then(|| {
            PbftCore::new(
                Scope::Cluster(PRIMARY_CLUSTER),
                cfg.clone(),
                id,
                crypto.clone(),
            )
        });
        let tail = CommitTail::new(&cfg, store);
        StewardReplica {
            cfg,
            id,
            crypto,
            tail,
            my_cluster,
            core,
            insts: BTreeMap::new(),
            exec_next: 1,
        }
    }

    fn is_representative(&self) -> bool {
        self.id.index == 0
    }

    fn representative(&self) -> ReplicaId {
        ReplicaId {
            cluster: self.my_cluster,
            index: 0,
        }
    }

    fn majority_clusters(&self) -> usize {
        self.cfg.system.z() / 2 + 1
    }

    // ------------------------------------------------------------------
    // Request routing
    // ------------------------------------------------------------------

    fn handle_request(&mut self, from: NodeId, sb: SignedBatch, out: &mut Outbox) {
        let primary = self.core.as_ref().is_some_and(|c| c.is_primary());
        if !self.tail.admit(from, &sb, 0, primary, out) {
            return;
        }
        match &mut self.core {
            Some(core) => {
                if core.is_primary() {
                    core.enqueue_request(sb, out);
                } else {
                    let primary = core.primary();
                    core.track_forwarded(sb.clone(), out);
                    out.send(primary, Message::Forward(sb));
                }
            }
            None => {
                // Remote cluster: the representative relays to the primary
                // cluster's representative, other replicas relay to their
                // own representative first.
                if self.is_representative() {
                    out.send(
                        ReplicaId {
                            cluster: PRIMARY_CLUSTER,
                            index: 0,
                        },
                        Message::Forward(sb),
                    );
                } else {
                    out.send(self.representative(), Message::Forward(sb));
                }
            }
        }
    }

    fn process_core_events(&mut self, events: Vec<CoreEvent>, out: &mut Outbox) {
        for e in events {
            if let CoreEvent::Committed {
                seq,
                batch,
                digest,
                commits,
            } = e
            {
                debug_assert_eq!(digest, batch.digest(), "carried batch digest");
                let cert = CommitCertificate {
                    cluster: PRIMARY_CLUSTER,
                    round: seq,
                    digest,
                    batch,
                    commits,
                };
                // The primary-cluster primary disseminates the proposal to
                // f + 1 replicas of every other cluster.
                let is_primary = self.core.as_ref().is_some_and(|c| c.is_primary());
                if is_primary {
                    let fanout = self.cfg.system.weak_quorum();
                    let msg = Message::StewardProposal {
                        seq,
                        cert: cert.clone(),
                    };
                    for c in self.cfg.system.cluster_ids() {
                        if c == PRIMARY_CLUSTER {
                            continue;
                        }
                        let targets = (0..fanout as u16).map(|i| ReplicaId {
                            cluster: c,
                            index: i,
                        });
                        out.multicast(targets, &msg);
                    }
                }
                self.accept_proposal(seq, cert, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Proposal dissemination and accepts
    // ------------------------------------------------------------------

    fn handle_proposal(
        &mut self,
        from: NodeId,
        seq: u64,
        cert: CommitCertificate,
        out: &mut Outbox,
    ) {
        // Relay the first externally-received copy within the cluster.
        let inst = self.insts.entry(seq).or_default();
        let need_relay = from.cluster() != self.my_cluster
            && !inst.relayed
            && self.my_cluster != PRIMARY_CLUSTER;
        if need_relay {
            inst.relayed = true;
            let peers: Vec<ReplicaId> = self
                .cfg
                .system
                .replicas_of(self.my_cluster)
                .filter(|r| *r != self.id)
                .collect();
            out.multicast(
                peers,
                &Message::StewardProposal {
                    seq,
                    cert: cert.clone(),
                },
            );
        }
        self.accept_proposal(seq, cert, out);
    }

    fn accept_proposal(&mut self, seq: u64, cert: CommitCertificate, out: &mut Outbox) {
        let digest = cert.digest;
        let inst = self.insts.entry(seq).or_default();
        if inst.cert.is_none() {
            inst.cert = Some(cert);
        }
        if !inst.local_accept_sent {
            inst.local_accept_sent = true;
            let sig = self
                .crypto
                .sign(&accept_payload(self.my_cluster, seq, &digest));
            out.send(
                self.representative(),
                Message::StewardLocalAccept {
                    seq,
                    digest,
                    replica: self.id,
                    sig,
                },
            );
        }
        self.try_execute(out);
    }

    fn handle_local_accept(
        &mut self,
        from: ReplicaId,
        seq: u64,
        digest: Digest,
        sig: Signature,
        out: &mut Outbox,
    ) {
        if !self.is_representative() || from.cluster != self.my_cluster {
            return;
        }
        let quorum = self.cfg.system.quorum();
        let fanout = self.cfg.system.weak_quorum();
        let my_cluster = self.my_cluster;
        let inst = self.insts.entry(seq).or_default();
        // Only collect accepts matching the certified digest (when known).
        if let Some(cert) = &inst.cert {
            if cert.digest != digest {
                return;
            }
        }
        inst.local_accepts.insert(from, sig);
        if inst.local_accepts.len() >= quorum && !inst.accept_sent {
            inst.accept_sent = true;
            let sigs: Vec<(ReplicaId, Signature)> = inst
                .local_accepts
                .iter()
                .take(quorum)
                .map(|(r, s)| (*r, *s))
                .collect();
            let msg = Message::StewardAccept {
                seq,
                cluster: my_cluster,
                digest,
                sigs,
            };
            // To every other cluster (f + 1 fanout) and locally.
            for c in self.cfg.system.cluster_ids() {
                if c == my_cluster {
                    continue;
                }
                let targets = (0..fanout as u16).map(|i| ReplicaId {
                    cluster: c,
                    index: i,
                });
                out.multicast(targets, &msg);
            }
            let peers: Vec<ReplicaId> = self
                .cfg
                .system
                .replicas_of(my_cluster)
                .filter(|r| r.index != 0)
                .collect();
            out.multicast(peers, &msg);
            // The representative's own bookkeeping.
            self.record_cluster_accept(seq, my_cluster, out);
        }
    }

    fn handle_cluster_accept(
        &mut self,
        from: NodeId,
        seq: u64,
        cluster: ClusterId,
        digest: Digest,
        sigs: &[(ReplicaId, Signature)],
        out: &mut Outbox,
    ) {
        // Relay externally-received accepts locally, once per cluster.
        let inst = self.insts.entry(seq).or_default();
        if from.cluster() != self.my_cluster && inst.relayed_accepts.insert(cluster) {
            let peers: Vec<ReplicaId> = self
                .cfg
                .system
                .replicas_of(self.my_cluster)
                .filter(|r| *r != self.id)
                .collect();
            out.multicast(
                peers,
                &Message::StewardAccept {
                    seq,
                    cluster,
                    digest,
                    sigs: sigs.to_vec(),
                },
            );
        }
        self.record_cluster_accept(seq, cluster, out);
    }

    fn record_cluster_accept(&mut self, seq: u64, cluster: ClusterId, out: &mut Outbox) {
        let inst = self.insts.entry(seq).or_default();
        inst.cluster_accepts.insert(cluster);
        self.try_execute(out);
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    fn try_execute(&mut self, out: &mut Outbox) {
        loop {
            let seq = self.exec_next;
            let majority = self.majority_clusters();
            let ready = self
                .insts
                .get(&seq)
                .is_some_and(|i| i.cert.is_some() && i.cluster_accepts.len() >= majority);
            if !ready {
                break;
            }
            let inst = self.insts.remove(&seq).expect("present");
            self.exec_next += 1;
            let cert = inst.cert.expect("checked");
            let entry = DecisionEntry {
                origin: Some(PRIMARY_CLUSTER),
                batch: cert.batch,
                digest: cert.digest,
            };
            // Replicas of the client's own cluster reply.
            let local = Some(self.my_cluster);
            let checkpoint = self.tail.commit(seq, 0, [entry], local, out);
            // Checkpoint the primary-cluster engine periodically.
            if let (Some(state), Some(core)) = (checkpoint, &mut self.core) {
                core.record_checkpoint(seq, state, out);
            }
        }
    }
}

impl ReplicaProtocol for StewardReplica {
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_start(&mut self, _now: SimTime, _out: &mut Outbox) {}

    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Message, out: &mut Outbox) {
        match msg {
            Message::Request(sb) | Message::Forward(sb) => self.handle_request(from, sb, out),
            Message::StewardProposal { seq, cert } => self.handle_proposal(from, seq, cert, out),
            // The input edge checked that `replica` sent and signed it.
            Message::StewardLocalAccept {
                seq,
                digest,
                replica,
                sig,
            } => self.handle_local_accept(replica, seq, digest, sig, out),
            Message::StewardAccept {
                seq,
                cluster,
                digest,
                sigs,
            } => self.handle_cluster_accept(from, seq, cluster, digest, &sigs, out),
            core_msg => {
                let NodeId::Replica(from) = from else { return };
                if from.cluster != PRIMARY_CLUSTER {
                    return;
                }
                if let Some(core) = &mut self.core {
                    let events = core.handle_message(from, core_msg, out);
                    self.process_core_events(events, out);
                }
            }
        }
    }

    fn on_timer(&mut self, _now: SimTime, timer: TimerKind, out: &mut Outbox) {
        if timer == TimerKind::Progress {
            if let Some(core) = &mut self.core {
                core.on_progress_timeout(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Action;
    use crate::clients::synthetic_source;
    use crate::config::ExecMode;
    use crate::exec::tests::assert_admission_bounded;
    use crate::testkit::{self, Edge, RoutedDecisions, RoutedReplies};
    use rdb_common::config::SystemConfig;
    use rdb_common::ids::ClientId;
    use rdb_crypto::sign::KeyStore;

    struct Net {
        replicas: Vec<StewardReplica>,
        n: usize,
        edge: Edge,
    }

    impl Net {
        fn new(z: usize, n: usize) -> (Net, KeyStore, ProtocolConfig) {
            let system = SystemConfig::geo(z, n).unwrap();
            let mut cfg = ProtocolConfig::new(system.clone());
            cfg.exec_mode = ExecMode::Real;
            let ks = KeyStore::new(55);
            let replicas = system
                .all_replicas()
                .map(|r| {
                    let signer = ks.register(NodeId::Replica(r));
                    let crypto = CryptoCtx::new(signer, ks.verifier(), true);
                    StewardReplica::new(cfg.clone(), r, crypto, KvStore::with_ycsb_records(50))
                })
                .collect();
            let edge = Edge::new(&system, &ks);
            (Net { replicas, n, edge }, ks, cfg)
        }

        fn index(&self, r: ReplicaId) -> usize {
            r.cluster.as_usize() * self.n + r.index as usize
        }

        /// `msg` through the input edge into `to`; what it emitted.
        fn deliver(&mut self, to: ReplicaId, from: NodeId, msg: Message) -> Vec<Action> {
            let idx = self.index(to);
            let replica = &mut self.replicas[idx];
            self.edge.deliver(from, msg, |from, msg, out| {
                replica.on_message(SimTime::ZERO, from, msg, out)
            })
        }

        fn route(
            &mut self,
            initial: Vec<(NodeId, NodeId, Message)>,
        ) -> (RoutedReplies, RoutedDecisions) {
            testkit::route(&self.edge, &mut self.replicas, initial)
        }
    }

    fn signed(ks: &KeyStore, client: ClientId, seq: u64) -> SignedBatch {
        let signer = ks.register(NodeId::Client(client));
        let mut src = synthetic_source(client, 3, 30);
        let b = src(seq);
        let sig = signer.sign(b.digest().as_bytes());
        SignedBatch {
            pubkey: signer.public_key(),
            sig,
            batch: b,
        }
    }

    #[test]
    fn remote_client_request_reaches_primary_cluster_and_executes_globally() {
        let (mut net, ks, _cfg) = Net::new(3, 4);
        // A client in cluster 2 submits to its local representative.
        let client = ClientId::new(2, 0);
        let sb = signed(&ks, client, 0);
        let (replies, decisions) = net.route(vec![(
            NodeId::Client(client),
            ReplicaId::new(2, 0).into(),
            Message::Request(sb),
        )]);
        // All 12 replicas execute the decision.
        assert_eq!(decisions.len(), 12);
        // Replies come from the client's local cluster only.
        assert!(!replies.is_empty());
        assert!(replies.iter().all(|(r, _)| r.cluster == ClusterId(2)));
        // State identical everywhere.
        let s0 = net.replicas[0].tail.state_digest();
        assert!(net.replicas.iter().all(|r| r.tail.state_digest() == s0));
    }

    #[test]
    fn local_primary_cluster_client_works_too() {
        let (mut net, ks, _cfg) = Net::new(2, 4);
        let client = ClientId::new(0, 0);
        let sb = signed(&ks, client, 0);
        let (replies, decisions) = net.route(vec![(
            NodeId::Client(client),
            ReplicaId::new(0, 0).into(),
            Message::Request(sb),
        )]);
        assert_eq!(decisions.len(), 8);
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(|(r, _)| r.cluster == ClusterId(0)));
    }

    #[test]
    fn accept_with_insufficient_signatures_rejected() {
        let (mut net, _ks, _cfg) = Net::new(2, 4);
        // Two valid signatures of the n - f = 3 a cluster accept needs.
        let payload = accept_payload(ClusterId(0), 1, &Digest::ZERO);
        let sigs = (0..2)
            .map(|i| {
                (
                    ReplicaId::new(0, i),
                    net.replicas[i as usize].crypto.sign(&payload),
                )
            })
            .collect();
        let accept = Message::StewardAccept {
            seq: 1,
            cluster: ClusterId(0),
            digest: Digest::ZERO,
            sigs,
        };
        let actions = net.deliver(ReplicaId::new(1, 1), ReplicaId::new(0, 0).into(), accept);
        assert!(actions.is_empty());
    }

    #[test]
    fn forged_proposal_certificate_rejected() {
        let (mut net, ks, _cfg) = Net::new(2, 4);
        let client = ClientId::new(0, 5);
        let sb = signed(&ks, client, 0);
        let cert = CommitCertificate {
            cluster: PRIMARY_CLUSTER,
            round: 1,
            digest: sb.digest(),
            batch: sb,
            commits: (0..3u16)
                .map(|i| crate::certificate::CommitSig {
                    replica: ReplicaId::new(0, i),
                    sig: Signature([9u8; 64]),
                })
                .collect(),
        };
        let target = ReplicaId::new(1, 0);
        let proposal = Message::StewardProposal { seq: 1, cert };
        let actions = net.deliver(target, ReplicaId::new(0, 0).into(), proposal);
        assert!(actions.is_empty());
        assert_eq!(net.replicas[net.index(target)].tail.decisions(), 0);
    }

    #[test]
    fn multiple_sequential_requests_execute_in_order() {
        let (mut net, ks, _cfg) = Net::new(2, 4);
        let mut initial = Vec::new();
        for i in 0..4u32 {
            let client = ClientId::new(1, i);
            let sb = signed(&ks, client, 0);
            initial.push((
                NodeId::Client(client),
                ReplicaId::new(1, 0).into(),
                Message::Request(sb),
            ));
        }
        let (_, decisions) = net.route(initial);
        assert_eq!(decisions.len(), 8 * 4);
        for rid in net.replicas.iter().map(|r| r.id()).collect::<Vec<_>>() {
            let seqs: Vec<u64> = decisions
                .iter()
                .filter(|(r, _)| *r == rid)
                .map(|(_, d)| d.seq)
                .collect();
            assert_eq!(seqs, vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn admission_state_stays_bounded() {
        let (mut net, ks, cfg) = Net::new(2, 4);
        let resident = |r: &StewardReplica| r.tail.resident_entries();
        let representative = |_| ReplicaId::new(0, 0);
        let replicas = &mut net.replicas;
        assert_admission_bounded(&cfg, &net.edge, &ks, replicas, representative, resident);
        let mut primary_cluster = net.replicas[..4].iter().filter_map(|r| r.core.as_ref());
        assert!(primary_cluster.all(|c| c.stable_seq() > 2 * cfg.window));
    }
}
