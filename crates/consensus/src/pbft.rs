//! Plain PBFT across all `z·n` replicas — the classic baseline of every
//! figure in the paper (§1.1, §4).
//!
//! One global primary (placed in Oregon in the paper's geo experiments)
//! coordinates the three-phase protocol over the whole replica set. The
//! engine itself lives in [`crate::pbft_core`]; this module adds the
//! client-facing plumbing: request intake and forwarding, and handing
//! committed batches to the [`CommitTail`] in sequence order.

use crate::api::{Outbox, ReplicaProtocol, TimerKind};
use crate::config::ProtocolConfig;
use crate::crypto_ctx::CryptoCtx;
use crate::exec::CommitTail;
use crate::messages::{Message, Scope};
use crate::pbft_core::{CoreEvent, PbftCore};
use crate::types::{DecisionEntry, SignedBatch};
use rdb_common::ids::{NodeId, ReplicaId};
use rdb_common::time::SimTime;
use rdb_store::KvStore;
use std::collections::BTreeMap;

/// A PBFT replica.
pub struct PbftReplica {
    id: ReplicaId,
    core: PbftCore,
    tail: CommitTail,
    /// Committed but not yet executed instances (execution is in sequence
    /// order).
    committed: BTreeMap<u64, DecisionEntry>,
    /// Next sequence number to execute.
    exec_next: u64,
}

impl PbftReplica {
    /// Build a replica. `store` should be pre-loaded identically on every
    /// replica (§4).
    pub fn new(cfg: ProtocolConfig, id: ReplicaId, crypto: CryptoCtx, store: KvStore) -> Self {
        let tail = CommitTail::new(&cfg, store);
        PbftReplica {
            id,
            core: PbftCore::new(Scope::Global, cfg, id, crypto),
            tail,
            committed: BTreeMap::new(),
            exec_next: 1,
        }
    }

    fn handle_request(&mut self, from: NodeId, sb: SignedBatch, out: &mut Outbox) {
        let primary = self.core.is_primary();
        if !self.tail.admit(from, &sb, self.core.view(), primary, out) {
            return;
        }
        if primary {
            self.core.enqueue_request(sb, out);
        } else {
            // Forward to the current primary and watch for progress; a
            // primary that ignores the request gets view-changed away
            // (§2.2).
            let primary = self.core.primary();
            self.core.track_forwarded(sb.clone(), out);
            out.send(primary, Message::Forward(sb));
        }
    }

    fn process_events(&mut self, events: Vec<CoreEvent>, out: &mut Outbox) {
        for e in events {
            // Re-proposing after a view change and pruning below a stable
            // checkpoint both happen inside the core.
            if let CoreEvent::Committed {
                seq, batch, digest, ..
            } = e
            {
                if seq >= self.exec_next {
                    let entry = DecisionEntry {
                        origin: None,
                        batch,
                        digest,
                    };
                    self.committed.insert(seq, entry);
                }
                self.try_execute(out);
            }
        }
    }

    fn try_execute(&mut self, out: &mut Outbox) {
        while let Some(entry) = self.committed.remove(&self.exec_next) {
            let seq = self.exec_next;
            self.exec_next += 1;
            // Every replica answers every client (global F + 1 quorum).
            let view = self.core.view();
            if let Some(state) = self.tail.commit(seq, view, [entry], None, out) {
                self.core.record_checkpoint(seq, state, out);
            }
        }
    }
}

impl ReplicaProtocol for PbftReplica {
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_start(&mut self, _now: SimTime, _out: &mut Outbox) {}

    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Message, out: &mut Outbox) {
        match msg {
            Message::Request(sb) => self.handle_request(from, sb, out),
            Message::Forward(sb) => {
                if self.core.is_primary() {
                    self.handle_request(from, sb, out);
                }
            }
            other => {
                let NodeId::Replica(from) = from else {
                    return; // core messages never come from clients
                };
                let events = self.core.handle_message(from, other, out);
                self.process_events(events, out);
            }
        }
    }

    fn on_timer(&mut self, _now: SimTime, timer: TimerKind, out: &mut Outbox) {
        if timer == TimerKind::Progress {
            self.core.on_progress_timeout(out);
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

    /// Build a full global-PBFT deployment (replicas only) and a router.
    struct Net {
        replicas: Vec<PbftReplica>,
        ids: Vec<ReplicaId>,
        edge: Edge,
    }

    impl Net {
        fn new(z: usize, n: usize, exec: ExecMode) -> (Net, KeyStore, ProtocolConfig) {
            let system = SystemConfig::geo(z, n).unwrap();
            let mut cfg = ProtocolConfig::new(system.clone());
            cfg.exec_mode = exec;
            let ks = KeyStore::new(11);
            let mut replicas = Vec::new();
            let mut ids = Vec::new();
            for r in system.all_replicas() {
                let signer = ks.register(NodeId::Replica(r));
                let crypto = CryptoCtx::new(signer, ks.verifier(), true);
                replicas.push(PbftReplica::new(
                    cfg.clone(),
                    r,
                    crypto,
                    KvStore::with_ycsb_records(50),
                ));
                ids.push(r);
            }
            let edge = Edge::new(&system, &ks);
            (
                Net {
                    replicas,
                    ids,
                    edge,
                },
                ks,
                cfg,
            )
        }

        fn index(&self, r: ReplicaId) -> usize {
            self.ids.iter().position(|x| *x == r).unwrap()
        }

        /// `msg` through the input edge into `to`; what it emitted.
        fn deliver(&mut self, to: ReplicaId, from: NodeId, msg: Message) -> Vec<Action> {
            let idx = self.index(to);
            let replica = &mut self.replicas[idx];
            self.edge.deliver(from, msg, |from, msg, out| {
                replica.on_message(SimTime::ZERO, from, msg, out)
            })
        }

        /// Deliver messages until quiescence; returns (replies, decisions).
        fn route(
            &mut self,
            initial: Vec<(NodeId, NodeId, Message)>,
        ) -> (RoutedReplies, RoutedDecisions) {
            testkit::route(&self.edge, &mut self.replicas, initial)
        }
    }

    fn signed_batch(ks: &KeyStore, client: ClientId, seq: u64) -> SignedBatch {
        let signer = ks.register(NodeId::Client(client));
        let mut src = synthetic_source(client, 5, 50);
        let batch = src(seq);
        let sig = signer.sign(batch.digest().as_bytes());
        SignedBatch {
            pubkey: signer.public_key(),
            sig,
            batch,
        }
    }

    #[test]
    fn end_to_end_commit_and_reply() {
        let (mut net, ks, _cfg) = Net::new(1, 4, ExecMode::Real);
        let client = ClientId::new(0, 0);
        let sb = signed_batch(&ks, client, 0);
        let primary: NodeId = ReplicaId::new(0, 0).into();
        let (replies, decisions) = net.route(vec![(
            NodeId::Client(client),
            primary,
            Message::Request(sb.clone()),
        )]);
        // All 4 replicas execute and reply identically.
        assert_eq!(replies.len(), 4);
        let d0 = replies[0].1.result_digest;
        assert!(replies.iter().all(|(_, r)| r.result_digest == d0));
        assert_eq!(decisions.len(), 4);
        // Stores agree.
        let s0 = net.replicas[0].tail.state_digest();
        assert!(net.replicas.iter().all(|r| r.tail.state_digest() == s0));
    }

    #[test]
    fn request_to_backup_is_forwarded_and_still_commits() {
        let (mut net, ks, _cfg) = Net::new(1, 4, ExecMode::Real);
        let client = ClientId::new(0, 1);
        let sb = signed_batch(&ks, client, 0);
        let backup: NodeId = ReplicaId::new(0, 2).into();
        let (replies, _) = net.route(vec![(NodeId::Client(client), backup, Message::Request(sb))]);
        assert_eq!(replies.len(), 4);
    }

    #[test]
    fn sequence_of_requests_executes_in_order_across_replicas() {
        let (mut net, ks, _cfg) = Net::new(2, 4, ExecMode::Real);
        let primary: NodeId = ReplicaId::new(0, 0).into();
        let mut initial = Vec::new();
        for i in 0..5u64 {
            let client = ClientId::new((i % 2) as u16, i as u32 + 10);
            let sb = signed_batch(&ks, client, 0);
            initial.push((NodeId::Client(client), primary, Message::Request(sb)));
        }
        let (_, decisions) = net.route(initial);
        // 8 replicas x 5 decisions.
        assert_eq!(decisions.len(), 40);
        // Per-replica decision sequence must be 1..=5 in order.
        for rid in net.ids.clone() {
            let seqs: Vec<u64> = decisions
                .iter()
                .filter(|(r, _)| *r == rid)
                .map(|(_, d)| d.seq)
                .collect();
            assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        }
        // Final states agree everywhere.
        let s0 = net.replicas[0].tail.state_digest();
        assert!(net.replicas.iter().all(|r| r.tail.state_digest() == s0));
    }

    #[test]
    fn checkpoint_interval_triggers_stability() {
        let (mut net, ks, cfg) = Net::new(1, 4, ExecMode::Real);
        let primary: NodeId = ReplicaId::new(0, 0).into();
        let k = cfg.checkpoint_interval;
        let mut initial = Vec::new();
        for i in 0..k {
            let client = ClientId::new(0, i as u32 + 30);
            let sb = signed_batch(&ks, client, 0);
            initial.push((NodeId::Client(client), primary, Message::Request(sb)));
        }
        net.route(initial);
        for r in &net.replicas {
            assert_eq!(r.core.stable_seq(), k);
        }
    }
    #[test]
    fn duplicate_requests_propose_once() {
        let (mut net, ks, _cfg) = Net::new(1, 4, ExecMode::Real);
        let client = ClientId::new(0, 0);
        let sb = signed_batch(&ks, client, 0);
        let primary = ReplicaId::new(0, 0);
        let mut proposed = Vec::new();
        for _ in 0..2 {
            let actions = net.deliver(primary, client.into(), Message::Request(sb.clone()));
            proposed.extend(actions.into_iter().filter_map(|a| match a {
                Action::Send {
                    msg: Message::PrePrepare { seq, .. },
                    ..
                } => Some(seq),
                _ => None,
            }));
        }
        assert_eq!(proposed, vec![1; 4], "one pre-prepare to each member");
        assert_eq!(net.replicas[0].core.next_propose(), 2);
    }

    /// Every replica votes to replace its primary; routed to quiescence.
    fn change_view(net: &mut Net) {
        let mut votes = Vec::new();
        for r in &mut net.replicas {
            let mut out = Outbox::new();
            r.core.force_view_change(&mut out);
            for a in out.take() {
                if let Action::Send { to, msg } = a {
                    votes.push((r.id.into(), to, msg));
                }
            }
        }
        net.route(votes);
    }

    /// A backup's `Forward` of a batch that executed in view 0 reaches the
    /// primary of view 1, which never proposed it: it is not ordered again.
    #[test]
    fn forward_of_an_executed_batch_is_not_ordered_after_a_view_change() {
        let (mut net, ks, _cfg) = Net::new(1, 4, ExecMode::Real);
        let client = ClientId::new(0, 0);
        let sb = signed_batch(&ks, client, 0);
        let r = |i| ReplicaId::new(0, i);
        let request = Message::Request(sb.clone());
        let (_, decisions) = net.route(vec![(client.into(), r(0).into(), request)]);
        assert_eq!(decisions.len(), 4);
        change_view(&mut net);
        assert!(net.replicas.iter().all(|x| x.core.view() == 1));
        let (_, decisions) = net.route(vec![(r(2).into(), r(1).into(), Message::Forward(sb))]);
        assert!(
            decisions.is_empty(),
            "ordered again: {} decisions",
            decisions.len()
        );
        assert!(net.replicas.iter().all(|x| x.tail.decisions() == 1));
    }

    #[test]
    fn admission_state_stays_bounded() {
        let (mut net, ks, cfg) = Net::new(1, 4, ExecMode::Modeled);
        let resident = |r: &PbftReplica| r.tail.resident_entries();
        let primary = |_| ReplicaId::new(0, 0);
        assert_admission_bounded(&cfg, &net.edge, &ks, &mut net.replicas, primary, resident);
        assert!(net
            .replicas
            .iter()
            .all(|r| r.core.stable_seq() > 2 * cfg.window));
    }
}
