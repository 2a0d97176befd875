//! GeoBFT — the Geo-Scale Byzantine Fault-Tolerant consensus protocol
//! (§2 of the paper, the primary contribution).
//!
//! Each round `ρ` has three steps (Figure 1):
//!
//! 1. **Local replication** (§2.2): every cluster independently replicates
//!    one client batch using PBFT (the shared [`PbftCore`] engine, scoped
//!    to the cluster). Success yields a commit certificate
//!    `[⟨T⟩c, ρ]_C` of `n - f` signed commit messages.
//! 2. **Inter-cluster sharing** (§2.3): the cluster's primary sends the
//!    certificate to `f + 1` replicas of every other cluster (global
//!    phase); each receiver broadcasts it locally (local phase, Figure 5).
//!    Failures are handled by the *remote view-change* protocol
//!    (Figure 7): observers agree locally via `DRVC`, send signed `RVC`
//!    requests to their same-index peer in the failed cluster, and `f + 1`
//!    forwarded `RVC`s force a local view change there.
//! 3. **Ordering and execution** (§2.4): once a replica holds certificates
//!    from all `z` clusters for round `ρ` it executes the `z` batches in
//!    cluster order and answers its *local* clients.
//!
//! Steps pipeline across rounds (§2.5): local replication of `ρ + 2`,
//! sharing of `ρ + 1`, and execution of `ρ` proceed concurrently, bounded
//! by the PBFT window.

use crate::api::{Outbox, ReplicaProtocol, TimerKind};
use crate::certificate::{CommitCertificate, CommitSig};
use crate::config::ProtocolConfig;
use crate::crypto_ctx::CryptoCtx;
use crate::exec::CommitTail;
use crate::messages::{Message, Scope};
use crate::pbft_core::{CoreEvent, PbftCore};
use crate::types::{DecisionEntry, SignedBatch};
use rdb_common::ids::{ClusterId, NodeId, ReplicaId};
use rdb_common::time::{SimDuration, SimTime};
use rdb_crypto::digest::Digest;
use rdb_crypto::sign::Signature;
use rdb_store::KvStore;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Canonical bytes signed in a remote view-change request.
pub fn rvc_payload(target: ClusterId, round: u64, v: u64, requester: ReplicaId) -> Vec<u8> {
    let mut out = Vec::with_capacity(3 + 2 + 8 + 8 + 4);
    out.extend_from_slice(b"rvc");
    out.extend_from_slice(&target.0.to_le_bytes());
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&v.to_le_bytes());
    out.extend_from_slice(&requester.cluster.0.to_le_bytes());
    out.extend_from_slice(&requester.index.to_le_bytes());
    out
}

/// Observer-side state about one remote cluster (Figure 7, initiation
/// role).
#[derive(Debug)]
struct RemoteTracker {
    /// Current timeout (exponential back-off, §2.3).
    timeout: SimDuration,
    /// `v1`: how many remote view-changes this replica has requested for
    /// the remote cluster.
    v: u64,
    /// The round the armed timer refers to (at most one at a time; the
    /// next needed certificate is always for `exec_next`).
    armed_round: Option<u64>,
    /// DRVC votes received, keyed by (round, v).
    drvc_votes: HashMap<(u64, u64), HashSet<ReplicaId>>,
    /// (round, v) pairs this replica already broadcast a DRVC for.
    drvc_sent: HashSet<(u64, u64)>,
    /// (round, v) pairs this replica already sent an RVC for.
    rvc_sent: HashSet<(u64, u64)>,
}

impl RemoteTracker {
    fn new(timeout: SimDuration) -> Self {
        RemoteTracker {
            timeout,
            v: 0,
            armed_round: None,
            drvc_votes: HashMap::new(),
            drvc_sent: HashSet::new(),
            rvc_sent: HashSet::new(),
        }
    }
}

/// Target-side state about one requesting cluster (Figure 7, response
/// role).
#[derive(Debug, Default)]
struct RequesterState {
    /// RVC votes, keyed by (round, v) -> requesters seen.
    rvc_votes: HashMap<(u64, u64), HashSet<ReplicaId>>,
    /// RVCs already forwarded locally (dedupe), keyed by
    /// (round, v, requester index).
    forwarded: HashSet<(u64, u64, u16)>,
    /// Highest `v` already honored (replay protection: "C' did not yet
    /// request a v-th remote view-change").
    honored_v: Option<u64>,
    /// Rounds named in honored requests; the next elected primary re-shares
    /// from the smallest of these.
    requested_rounds: BTreeSet<u64>,
}

/// A GeoBFT replica.
pub struct GeoBftReplica {
    cfg: ProtocolConfig,
    id: ReplicaId,
    crypto: CryptoCtx,
    core: PbftCore,
    tail: CommitTail,
    my_cluster: ClusterId,

    /// Certificates pending execution: round -> cluster -> certificate.
    certs: BTreeMap<u64, HashMap<ClusterId, CommitCertificate>>,
    /// Recently seen certificates (kept past execution so stragglers and
    /// DRVC responses can be served), keyed by (round, cluster).
    cert_cache: BTreeMap<(u64, u16), CommitCertificate>,
    /// Own-cluster certificates kept for primary re-sharing.
    own_certs: BTreeMap<u64, CommitCertificate>,
    /// (round, cluster) pairs already re-broadcast locally (Figure 5,
    /// local phase dedupe).
    shared_locally: HashSet<(u64, ClusterId)>,

    /// Next round to execute.
    exec_next: u64,

    /// Observer-side remote view-change state, one per remote cluster.
    remote: HashMap<ClusterId, RemoteTracker>,
    /// Target-side remote view-change state, one per requesting cluster.
    requesters: HashMap<ClusterId, RequesterState>,
}

impl GeoBftReplica {
    /// Build a replica.
    pub fn new(cfg: ProtocolConfig, id: ReplicaId, crypto: CryptoCtx, store: KvStore) -> Self {
        let my_cluster = id.cluster;
        let core = PbftCore::new(Scope::Cluster(my_cluster), cfg.clone(), id, crypto.clone());
        let tail = CommitTail::new(&cfg, store);
        let remote = cfg
            .system
            .cluster_ids()
            .filter(|c| *c != my_cluster)
            .map(|c| (c, RemoteTracker::new(cfg.remote_timeout)))
            .collect();
        GeoBftReplica {
            cfg,
            id,
            crypto,
            core,
            tail,
            my_cluster,
            certs: BTreeMap::new(),
            cert_cache: BTreeMap::new(),
            own_certs: BTreeMap::new(),
            shared_locally: HashSet::new(),
            exec_next: 1,
            remote,
            requesters: HashMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Client path + local replication
    // ------------------------------------------------------------------

    fn handle_request(&mut self, from: NodeId, sb: SignedBatch, out: &mut Outbox) {
        // Only requests from this cluster's clients are served (§2:
        // "GeoBFT assigns each client to a single cluster").
        if sb.batch.client.cluster != self.my_cluster {
            return;
        }
        if self.tail.cached_reply(&sb, self.core.view(), out) {
            return;
        }
        if self.core.is_primary() {
            self.core.enqueue_request(sb, out);
        } else if from.is_replica() {
            // Already a forward; just track.
            self.core.track_forwarded(sb, out);
        } else {
            let primary = self.core.primary();
            self.core.track_forwarded(sb.clone(), out);
            out.send(primary, Message::Forward(sb));
        }
    }

    fn process_core_events(&mut self, events: Vec<CoreEvent>, out: &mut Outbox) {
        for e in events {
            match e {
                CoreEvent::Committed {
                    seq: round,
                    batch,
                    digest,
                    commits,
                } => self.on_local_commit(round, batch, digest, commits, out),
                CoreEvent::ViewInstalled { .. } => self.on_view_installed(out),
                CoreEvent::CheckpointStable { .. } => {
                    self.prune_caches();
                }
            }
        }
    }

    /// Local replication of `round` finished: build the certificate over
    /// the digest the pre-prepare bound, store it, and (as primary) start
    /// the optimistic global sharing of Figure 5.
    fn on_local_commit(
        &mut self,
        round: u64,
        batch: SignedBatch,
        digest: Digest,
        commits: Vec<CommitSig>,
        out: &mut Outbox,
    ) {
        debug_assert_eq!(digest, batch.digest(), "carried batch digest");
        let cert = CommitCertificate {
            cluster: self.my_cluster,
            round,
            digest,
            batch,
            commits,
        };
        self.own_certs.insert(round, cert.clone());
        self.store_certificate(cert.clone(), out);

        if self.core.is_primary() {
            self.share_globally(&cert, out);
        }
        self.try_execute(out);
    }

    /// Global phase of Figure 5: send `(⟨T⟩c, [⟨T⟩c, ρ]_C)` to `f + 1`
    /// replicas in every other cluster.
    fn share_globally(&self, cert: &CommitCertificate, out: &mut Outbox) {
        let fanout = self.cfg.sharing_fanout();
        let msg = Message::GlobalShare { cert: cert.clone() };
        for c in self.cfg.system.cluster_ids() {
            if c == self.my_cluster {
                continue;
            }
            let targets = (0..fanout as u16).map(|i| ReplicaId {
                cluster: c,
                index: i,
            });
            out.multicast(targets, &msg);
        }
    }

    // ------------------------------------------------------------------
    // Inter-cluster sharing, receive side
    // ------------------------------------------------------------------

    fn handle_global_share(&mut self, from: NodeId, cert: CommitCertificate, out: &mut Outbox) {
        let known = self.cert_cache.contains_key(&(cert.round, cert.cluster.0));
        if !known {
            // No-op detection (§2.5): remote clusters are already working
            // on rounds our primary has nothing for.
            let incoming_round = cert.round;
            self.store_certificate(cert.clone(), out);
            while self.core.next_propose() <= incoming_round
                && self
                    .core
                    .propose_noop_if_idle(self.core.next_propose(), out)
            {}
        }
        // Local phase of Figure 5: the first copy arriving from outside
        // the cluster is re-broadcast to all local replicas.
        if from.cluster() != self.my_cluster
            && self.shared_locally.insert((cert.round, cert.cluster))
        {
            let peers: Vec<ReplicaId> = self
                .cfg
                .system
                .replicas_of(self.my_cluster)
                .filter(|r| *r != self.id)
                .collect();
            out.multicast(peers, &Message::GlobalShare { cert });
        }
        self.try_execute(out);
    }

    fn store_certificate(&mut self, cert: CommitCertificate, out: &mut Outbox) {
        let round = cert.round;
        let cluster = cert.cluster;
        self.cert_cache.insert((round, cluster.0), cert.clone());
        if round >= self.exec_next {
            self.certs.entry(round).or_default().insert(cluster, cert);
        }
        // The awaited certificate arrived: disarm the failure detector and
        // reset its back-off (§2.3 — back-off covers *subsequent*
        // failures).
        if cluster != self.my_cluster {
            if let Some(tracker) = self.remote.get_mut(&cluster) {
                if tracker.armed_round == Some(round) {
                    tracker.armed_round = None;
                    tracker.timeout = self.cfg.remote_timeout;
                    out.cancel_timer(TimerKind::RemoteCluster { cluster, round });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Ordering and execution (§2.4)
    // ------------------------------------------------------------------

    fn try_execute(&mut self, out: &mut Outbox) {
        let z = self.cfg.system.z();
        loop {
            let round = self.exec_next;
            let ready = self.certs.get(&round).is_some_and(|m| m.len() == z);
            if !ready {
                break;
            }
            let mut map = self.certs.remove(&round).expect("checked above");
            // One entry per cluster, in cluster order (§2.4), each with
            // the digest its certificate binds.
            let entries = self.cfg.system.cluster_ids().map(|c| {
                let cert = map.remove(&c).expect("all certificates present");
                DecisionEntry {
                    origin: Some(c),
                    batch: cert.batch,
                    digest: cert.digest,
                }
            });
            self.exec_next += 1;
            // Replicas inform only their local clients (§2.4).
            let view = self.core.view();
            let local = Some(self.my_cluster);
            if let Some(state) = self.tail.commit(round, view, entries, local, out) {
                self.core.record_checkpoint(round, state, out);
                self.prune_caches();
            }
        }
        self.arm_remote_timers(out);
    }

    fn prune_caches(&mut self) {
        let keep_from = self.exec_next.saturating_sub(2 * self.cfg.window);
        self.cert_cache.retain(|(r, _), _| *r >= keep_from);
        self.own_certs.retain(|r, _| *r >= keep_from);
        self.shared_locally.retain(|(r, _)| *r >= keep_from);
    }

    // ------------------------------------------------------------------
    // Remote view-change, observer side (Figure 7, initiation role)
    // ------------------------------------------------------------------

    /// Arm a failure-detection timer per remote cluster for the round we
    /// are blocked on ("every replica R ∈ C2 sets a timer for C1 at the
    /// start of round ρ").
    fn arm_remote_timers(&mut self, out: &mut Outbox) {
        let round = self.exec_next;
        let have: HashSet<ClusterId> = self
            .certs
            .get(&round)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        for (cluster, tracker) in self.remote.iter_mut() {
            if have.contains(cluster) {
                continue;
            }
            match tracker.armed_round {
                Some(r) if r == round => {}
                _ => {
                    tracker.armed_round = Some(round);
                    out.set_timer(
                        TimerKind::RemoteCluster {
                            cluster: *cluster,
                            round,
                        },
                        tracker.timeout,
                    );
                }
            }
        }
    }

    fn on_remote_timeout(&mut self, cluster: ClusterId, round: u64, out: &mut Outbox) {
        if round != self.exec_next {
            return; // stale timer
        }
        if self
            .certs
            .get(&round)
            .is_some_and(|m| m.contains_key(&cluster))
        {
            return; // certificate arrived concurrently
        }
        let Some(tracker) = self.remote.get_mut(&cluster) else {
            return;
        };
        // Figure 7, lines 2-4: broadcast DRVC(C1, ρ, v1), then v1 += 1.
        let v = tracker.v;
        tracker.v += 1;
        tracker.drvc_sent.insert((round, v));
        let peers: Vec<ReplicaId> = self.cfg.system.replicas_of(self.my_cluster).collect();
        out.multicast(
            peers,
            &Message::Drvc {
                target: cluster,
                round,
                v,
            },
        );
        // Exponential back-off for the next detection of the same cluster.
        tracker.timeout = tracker.timeout.doubled();
        tracker.armed_round = Some(round);
        out.set_timer(TimerKind::RemoteCluster { cluster, round }, tracker.timeout);
    }

    fn handle_drvc(
        &mut self,
        from: ReplicaId,
        target: ClusterId,
        round: u64,
        v: u64,
        out: &mut Outbox,
    ) {
        if from.cluster != self.my_cluster || target == self.my_cluster {
            return;
        }
        // Lines 5-7: if we already have the certificate, help the peer.
        if from != self.id {
            if let Some(cert) = self.cert_cache.get(&(round, target.0)) {
                out.send(from, Message::GlobalShare { cert: cert.clone() });
                return;
            }
        }
        let n_f = self.cfg.system.quorum();
        let f_1 = self.cfg.system.weak_quorum();
        let my_index = self.id.index;
        let Some(tracker) = self.remote.get_mut(&target) else {
            return;
        };
        let votes = tracker.drvc_votes.entry((round, v)).or_default();
        votes.insert(from);
        let count = votes.len();

        // Lines 8-11: f + 1 identical DRVCs pull a lagging replica into
        // the detection.
        if count >= f_1 && tracker.v <= v && !tracker.drvc_sent.contains(&(round, v)) {
            tracker.v = v + 1;
            tracker.drvc_sent.insert((round, v));
            let peers: Vec<ReplicaId> = self.cfg.system.replicas_of(self.my_cluster).collect();
            out.multicast(peers, &Message::Drvc { target, round, v });
        }

        // Lines 12-13: n - f agreement => send the signed RVC to our
        // same-index peer in the target cluster.
        let tracker = self.remote.get_mut(&target).expect("present");
        let count = tracker.drvc_votes.get(&(round, v)).map_or(0, |s| s.len());
        if count >= n_f && tracker.rvc_sent.insert((round, v)) {
            let sig = self.crypto.sign(&rvc_payload(target, round, v, self.id));
            let peer = ReplicaId {
                cluster: target,
                index: my_index,
            };
            out.send(
                peer,
                Message::Rvc {
                    target,
                    round,
                    v,
                    requester: self.id,
                    sig,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Remote view-change, target side (Figure 7, response role)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn handle_rvc(
        &mut self,
        from: NodeId,
        target: ClusterId,
        round: u64,
        v: u64,
        requester: ReplicaId,
        sig: Signature,
        out: &mut Outbox,
    ) {
        // The input edge checked the requester's signature and that it
        // belongs to another cluster.
        if target != self.my_cluster {
            return;
        }
        let rc = requester.cluster;
        let f_1 = self.cfg.system.weak_quorum();
        let state = self.requesters.entry(rc).or_default();

        // Lines 14-15: first external copy is forwarded to the whole
        // cluster.
        let external = from.cluster() != self.my_cluster;
        if external && state.forwarded.insert((round, v, requester.index)) {
            let peers: Vec<ReplicaId> = self
                .cfg
                .system
                .replicas_of(self.my_cluster)
                .filter(|r| *r != self.id)
                .collect();
            out.multicast(
                peers,
                &Message::Rvc {
                    target,
                    round,
                    v,
                    requester,
                    sig,
                },
            );
        }

        // Line 16: f + 1 RVCs from distinct replicas of the same cluster,
        // no concurrent local view change, and a fresh `v`.
        let votes = state.rvc_votes.entry((round, v)).or_default();
        votes.insert(requester);
        if votes.len() >= f_1
            && state.honored_v.is_none_or(|h| v > h)
            && !self.core.in_view_change()
        {
            let state = self.requesters.get_mut(&rc).expect("present");
            state.honored_v = Some(v);
            state.requested_rounds.insert(round);
            // Line 17: detect failure of our own primary.
            self.core.force_view_change(out);
        }
    }

    /// A local view change completed. If we are the new primary, resume
    /// the global sharing the previous primary may have withheld (§2.3:
    /// "it takes one of the remote view-change requests it received and
    /// determines the rounds for which it needs to send requests").
    fn on_view_installed(&mut self, out: &mut Outbox) {
        if !self.core.is_primary() {
            return;
        }
        let mut floor: Option<u64> = None;
        for state in self.requesters.values_mut() {
            if let Some(r) = state.requested_rounds.iter().next() {
                floor = Some(floor.map_or(*r, |f: u64| f.min(*r)));
            }
            state.requested_rounds.clear();
        }
        if let Some(floor) = floor {
            let to_share: Vec<CommitCertificate> = self
                .own_certs
                .range(floor..)
                .map(|(_, c)| c.clone())
                .collect();
            for cert in to_share {
                self.share_globally(&cert, out);
            }
        }
    }
}

impl ReplicaProtocol for GeoBftReplica {
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_start(&mut self, _now: SimTime, out: &mut Outbox) {
        self.arm_remote_timers(out);
    }

    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Message, out: &mut Outbox) {
        match msg {
            Message::Request(sb) => self.handle_request(from, sb, out),
            Message::Forward(sb) => {
                if from.cluster() == self.my_cluster && self.core.is_primary() {
                    self.core.enqueue_request(sb, out);
                }
            }
            Message::GlobalShare { cert } => self.handle_global_share(from, cert, out),
            Message::Drvc { target, round, v } => {
                if let NodeId::Replica(from) = from {
                    self.handle_drvc(from, target, round, v, out);
                }
            }
            Message::Rvc {
                target,
                round,
                v,
                requester,
                sig,
            } => self.handle_rvc(from, target, round, v, requester, sig, out),
            core_msg => {
                let NodeId::Replica(from) = from else {
                    return;
                };
                // Local PBFT messages only travel within the cluster.
                if from.cluster != self.my_cluster {
                    return;
                }
                let events = self.core.handle_message(from, core_msg, out);
                self.process_core_events(events, out);
            }
        }
    }

    fn on_timer(&mut self, _now: SimTime, timer: TimerKind, out: &mut Outbox) {
        match timer {
            TimerKind::Progress => {
                self.core.on_progress_timeout(out);
            }
            TimerKind::RemoteCluster { cluster, round } => {
                self.on_remote_timeout(cluster, round, out);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{apply_adversary, AdversarySpec};
    use crate::api::Action;
    use crate::clients::synthetic_source;
    use crate::config::ExecMode;
    use crate::testkit::{Edge, RoutedDecisions, RoutedReplies};
    use rdb_common::config::SystemConfig;
    use rdb_common::ids::ClientId;
    use rdb_crypto::sign::KeyStore;
    use std::collections::VecDeque;

    struct GeoNet {
        replicas: Vec<GeoBftReplica>,
        /// A replica that runs inside an adversary wrapper: deliveries to
        /// it go to the wrapper, and its honest slot in `replicas` idles.
        byzantine: Option<(ReplicaId, Box<dyn ReplicaProtocol>)>,
        n: usize,
        edge: Edge,
    }

    impl GeoNet {
        fn new(z: usize, n: usize) -> (GeoNet, KeyStore, ProtocolConfig) {
            Self::with_adversary(z, n, None)
        }

        fn with_adversary(
            z: usize,
            n: usize,
            adversary: Option<(ReplicaId, AdversarySpec)>,
        ) -> (GeoNet, KeyStore, ProtocolConfig) {
            let system = SystemConfig::geo(z, n).unwrap();
            let mut cfg = ProtocolConfig::new(system.clone());
            cfg.exec_mode = ExecMode::Real;
            let ks = KeyStore::new(21);
            let mut replicas = Vec::new();
            let mut byzantine = None;
            for r in system.all_replicas() {
                let signer = ks.register(NodeId::Replica(r));
                let crypto = CryptoCtx::new(signer, ks.verifier(), true);
                let replica = || {
                    let store = KvStore::with_ycsb_records(50);
                    GeoBftReplica::new(cfg.clone(), r, crypto.clone(), store)
                };
                if let Some((_, spec)) = adversary.as_ref().filter(|(a, _)| *a == r) {
                    byzantine = Some((r, apply_adversary(Box::new(replica()), spec)));
                }
                replicas.push(replica());
            }
            let edge = Edge::new(&system, &ks);
            let net = GeoNet {
                replicas,
                byzantine,
                n,
                edge,
            };
            (net, ks, cfg)
        }

        fn index(&self, r: ReplicaId) -> usize {
            r.cluster.as_usize() * self.n + r.index as usize
        }

        /// `msg` through the input edge into `to`; what it emitted.
        fn deliver(&mut self, to: ReplicaId, from: NodeId, msg: Message) -> Vec<Action> {
            let idx = self.index(to);
            let replica: &mut dyn ReplicaProtocol = match &mut self.byzantine {
                Some((r, wrapped)) if *r == to => wrapped.as_mut(),
                _ => &mut self.replicas[idx],
            };
            self.edge.deliver(from, msg, |from, msg, out| {
                replica.on_message(SimTime::ZERO, from, msg, out)
            })
        }

        fn route(
            &mut self,
            initial: Vec<(NodeId, NodeId, Message)>,
        ) -> (RoutedReplies, RoutedDecisions) {
            let mut queue: VecDeque<(NodeId, NodeId, Message)> = initial.into();
            let mut replies = Vec::new();
            let mut decisions = Vec::new();
            let mut steps = 0;
            while let Some((from, to, msg)) = queue.pop_front() {
                steps += 1;
                assert!(steps < 5_000_000, "no quiescence");
                let NodeId::Replica(rid) = to else {
                    if let Message::Reply { data, .. } = msg {
                        if let NodeId::Replica(sender) = from {
                            replies.push((sender, data));
                        }
                    }
                    continue;
                };
                for a in self.deliver(rid, from, msg) {
                    match a {
                        Action::Send { to: t, msg: m } => queue.push_back((to, t, m)),
                        Action::Decided(d) => decisions.push((rid, d)),
                        _ => {}
                    }
                }
            }
            (replies, decisions)
        }
    }

    fn signed_batch(ks: &KeyStore, client: ClientId, seq: u64) -> SignedBatch {
        let signer = ks.register(NodeId::Client(client));
        let mut src = synthetic_source(client, 4, 40);
        let batch = src(seq);
        let sig = signer.sign(batch.digest().as_bytes());
        SignedBatch {
            pubkey: signer.public_key(),
            sig,
            batch,
        }
    }

    #[test]
    fn round_with_two_active_clusters_executes_everywhere() {
        let (mut net, ks, _cfg) = GeoNet::new(2, 4);
        let c1 = ClientId::new(0, 0);
        let c2 = ClientId::new(1, 0);
        let initial = vec![
            (
                NodeId::Client(c1),
                ReplicaId::new(0, 0).into(),
                Message::Request(signed_batch(&ks, c1, 0)),
            ),
            (
                NodeId::Client(c2),
                ReplicaId::new(1, 0).into(),
                Message::Request(signed_batch(&ks, c2, 0)),
            ),
        ];
        let (replies, decisions) = net.route(initial);
        // Every replica executes round 1 with both batches.
        assert_eq!(decisions.len(), 8);
        for (_, d) in &decisions {
            assert_eq!(d.seq, 1);
            assert_eq!(d.entries.len(), 2);
            assert_eq!(d.entries[0].origin, Some(ClusterId(0)));
            assert_eq!(d.entries[1].origin, Some(ClusterId(1)));
        }
        // All states identical (non-divergence, Theorem 2.8).
        let s0 = net.replicas[0].tail.state_digest();
        assert!(net.replicas.iter().all(|r| r.tail.state_digest() == s0));
        // Replies are local only: each client got n = 4 replies from its
        // own cluster.
        for client in [c1, c2] {
            let from: Vec<ReplicaId> = replies
                .iter()
                .filter(|(_, r)| r.client == client)
                .map(|(s, _)| *s)
                .collect();
            assert_eq!(from.len(), 4);
            assert!(from.iter().all(|r| r.cluster == client.cluster));
        }
    }

    #[test]
    fn idle_cluster_proposes_noop_and_round_completes() {
        let (mut net, ks, _cfg) = GeoNet::new(2, 4);
        // Only cluster 0 has a client.
        let c1 = ClientId::new(0, 0);
        let initial = vec![(
            NodeId::Client(c1),
            ReplicaId::new(0, 0).into(),
            Message::Request(signed_batch(&ks, c1, 0)),
        )];
        let (_, decisions) = net.route(initial);
        assert_eq!(decisions.len(), 8, "all replicas executed round 1");
        for (_, d) in &decisions {
            assert!(
                d.entries[1].batch.is_noop(),
                "cluster 2 contributed a no-op"
            );
            assert!(!d.entries[0].batch.is_noop());
        }
    }

    #[test]
    fn certificates_unverifiable_are_dropped() {
        let (mut net, ks, _cfg) = GeoNet::new(2, 4);
        let c1 = ClientId::new(0, 0);
        let sb = signed_batch(&ks, c1, 0);
        // Handcraft a bogus certificate with no valid commit signatures.
        let cert = CommitCertificate {
            cluster: ClusterId(0),
            round: 1,
            digest: sb.digest(),
            batch: sb,
            commits: (0..3u16)
                .map(|i| CommitSig {
                    replica: ReplicaId::new(0, i),
                    sig: Signature([7u8; 64]),
                })
                .collect(),
        };
        let target = ReplicaId::new(1, 0);
        let share = Message::GlobalShare { cert };
        let actions = net.deliver(target, ReplicaId::new(0, 0).into(), share);
        assert!(actions.is_empty(), "forged certificate produced actions");
        assert!(net.replicas[net.index(target)].cert_cache.is_empty());
    }

    #[test]
    fn drvc_is_answered_with_cached_certificate() {
        let (mut net, ks, _cfg) = GeoNet::new(2, 4);
        let c1 = ClientId::new(0, 0);
        let c2 = ClientId::new(1, 0);
        net.route(vec![
            (
                NodeId::Client(c1),
                ReplicaId::new(0, 0).into(),
                Message::Request(signed_batch(&ks, c1, 0)),
            ),
            (
                NodeId::Client(c2),
                ReplicaId::new(1, 0).into(),
                Message::Request(signed_batch(&ks, c2, 0)),
            ),
        ]);
        // Replica (1,1) pretends it missed cluster 0's certificate and
        // sends a DRVC; peer (1,0) must answer with the certificate.
        let drvc = Message::Drvc {
            target: ClusterId(0),
            round: 1,
            v: 0,
        };
        let actions = net.deliver(ReplicaId::new(1, 0), ReplicaId::new(1, 1).into(), drvc);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send {
                to: NodeId::Replica(r),
                msg: Message::GlobalShare { cert }
            } if *r == ReplicaId::new(1, 1) && cert.cluster == ClusterId(0) && cert.round == 1
        )));
    }

    #[test]
    fn f_plus_1_rvcs_trigger_local_view_change() {
        let (mut net, _ks, _cfg) = GeoNet::new(2, 4);
        // Replicas of cluster 1 send RVCs to replica (0,2) targeting
        // cluster 0 (f = 1 so f+1 = 2 needed).
        let target_replica = net.index(ReplicaId::new(0, 2));
        let mut actions = Vec::new();
        for i in 0..2u16 {
            let requester = ReplicaId::new(1, i);
            let sig = {
                let r = &net.replicas[net.index(requester)];
                r.crypto.sign(&rvc_payload(ClusterId(0), 1, 0, requester))
            };
            let rvc = Message::Rvc {
                target: ClusterId(0),
                round: 1,
                v: 0,
                requester,
                sig,
            };
            actions.extend(net.deliver(ReplicaId::new(0, 2), requester.into(), rvc));
        }
        assert!(
            net.replicas[target_replica].core.in_view_change(),
            "f+1 RVCs must force a local view change (Fig 7 line 16-17)"
        );
        // Each external RVC was forwarded to the three local peers.
        let forwards = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Message::Rvc { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(forwards, 2 * 3);
    }

    #[test]
    fn rvc_replay_with_same_v_is_honored_once() {
        let (mut net, _ks, _cfg) = GeoNet::new(2, 4);
        let target_replica = net.index(ReplicaId::new(0, 2));
        let send_rvcs = |net: &mut GeoNet, v: u64| {
            for i in 0..2u16 {
                let requester = ReplicaId::new(1, i);
                let sig = {
                    let r = &net.replicas[net.index(requester)];
                    r.crypto.sign(&rvc_payload(ClusterId(0), 1, v, requester))
                };
                let rvc = Message::Rvc {
                    target: ClusterId(0),
                    round: 1,
                    v,
                    requester,
                    sig,
                };
                net.deliver(ReplicaId::new(0, 2), requester.into(), rvc);
            }
        };
        send_rvcs(&mut net, 0);
        assert!(net.replicas[target_replica].core.in_view_change());
        let honored = net.replicas[target_replica]
            .requesters
            .get(&ClusterId(1))
            .and_then(|s| s.honored_v);
        assert_eq!(honored, Some(0));
        send_rvcs(&mut net, 0);
        assert_eq!(
            net.replicas[target_replica]
                .requesters
                .get(&ClusterId(1))
                .and_then(|s| s.honored_v),
            Some(0)
        );
    }

    #[test]
    fn remote_timeout_broadcasts_drvc_with_backoff() {
        let (mut net, _ks, cfg) = GeoNet::new(2, 4);
        let idx = net.index(ReplicaId::new(1, 2));
        let mut out = Outbox::new();
        net.replicas[idx].on_start(SimTime::ZERO, &mut out);
        // A timer for (cluster 0, round 1) must have been armed.
        let armed = out.take().iter().any(|a| {
            matches!(
                a,
                Action::SetTimer {
                    kind: TimerKind::RemoteCluster {
                        cluster: ClusterId(0),
                        round: 1
                    },
                    ..
                }
            )
        });
        assert!(armed);
        // Fire it: DRVC broadcast to the 4 local replicas + re-armed with
        // doubled timeout.
        let mut out = Outbox::new();
        net.replicas[idx].on_timer(
            SimTime::ZERO,
            TimerKind::RemoteCluster {
                cluster: ClusterId(0),
                round: 1,
            },
            &mut out,
        );
        let actions = out.take();
        let drvcs = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Message::Drvc { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(drvcs, 4);
        let rearmed = actions.iter().any(|a| {
            matches!(a, Action::SetTimer { kind: TimerKind::RemoteCluster { .. }, after }
                if *after == cfg.remote_timeout.doubled())
        });
        assert!(rearmed, "exponential back-off re-arms the timer");
    }

    #[test]
    fn suppressing_primary_blocks_execution_without_remote_vc() {
        // The Byzantine primary of cluster 0 completes local replication
        // but never shares (Example 2.4 case 1): cluster 1 cannot execute.
        let suppressor = (ReplicaId::new(0, 0), AdversarySpec::SuppressGlobalShare);
        let (mut net, ks, _cfg) = GeoNet::with_adversary(2, 4, Some(suppressor));
        let c1 = ClientId::new(0, 0);
        let c2 = ClientId::new(1, 0);
        let (_, decisions) = net.route(vec![
            (
                NodeId::Client(c1),
                ReplicaId::new(0, 0).into(),
                Message::Request(signed_batch(&ks, c1, 0)),
            ),
            (
                NodeId::Client(c2),
                ReplicaId::new(1, 0).into(),
                Message::Request(signed_batch(&ks, c2, 0)),
            ),
        ]);
        // Cluster 1 replicas cannot finish round 1 (no cert from cluster
        // 0). Cluster 0 replicas *can* (they have their own commit and
        // cluster 1's shared cert).
        for (rid, d) in &decisions {
            assert_eq!(rid.cluster, ClusterId(0));
            assert_eq!(d.seq, 1);
        }
        let c1_exec: Vec<u64> = net.replicas[4..]
            .iter()
            .map(|r| r.tail.decisions())
            .collect();
        assert_eq!(c1_exec, vec![0, 0, 0, 0]);
    }
}
