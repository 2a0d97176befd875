//! In-crate test harness: synchronous message routing between protocol
//! state machines, without the discrete-event simulator.
//!
//! Only compiled for tests. Timers are ignored (tests trigger timeouts by
//! calling the timeout handlers directly), and messages are delivered in
//! FIFO order, which suffices for normal-case and view-change unit tests.
//! Every router delivers through an [`Edge`], the same
//! [`VerifiedMessage::check`] both runtimes run before `on_message`.

use crate::api::{Action, Outbox, ReplicaProtocol};
use crate::config::ProtocolConfig;
use crate::crypto_ctx::CryptoCtx;
use crate::messages::{Message, Scope};
use crate::pbft_core::{CoreEvent, PbftCore};
use crate::stage::VerifiedMessage;
use crate::types::{ClientBatch, SignedBatch, Transaction};
use rdb_common::config::SystemConfig;
use rdb_common::ids::{ClientId, NodeId, ReplicaId};
use rdb_common::time::SimTime;
use rdb_crypto::sign::{KeyStore, Signer};
use rdb_store::{Operation, Value};
use std::collections::{HashMap, VecDeque};

/// Replies collected while routing a protocol network to quiescence.
pub(crate) type RoutedReplies = Vec<(ReplicaId, crate::types::ReplyData)>;
/// Decisions collected while routing a protocol network to quiescence.
pub(crate) type RoutedDecisions = Vec<(ReplicaId, crate::types::Decision)>;

/// A node's input edge: a message reaches a state machine only if
/// [`VerifiedMessage::check`] passes it under a real context.
pub(crate) struct Edge {
    system: SystemConfig,
    ctx: CryptoCtx,
}

impl Edge {
    /// An edge for `system` checking signatures against `ks`'s keys.
    pub fn new(system: &SystemConfig, ks: &KeyStore) -> Edge {
        let observer = ks.register(NodeId::Client(ClientId::new(0, u32::MAX)));
        Edge {
            system: system.clone(),
            ctx: CryptoCtx::new(observer, ks.verifier(), true),
        }
    }

    /// Hand `msg` from `from` to `handle` if it verifies; returns what
    /// `handle` emitted (nothing for a dropped message).
    pub fn deliver(
        &self,
        from: NodeId,
        msg: Message,
        handle: impl FnOnce(NodeId, Message, &mut Outbox),
    ) -> Vec<Action> {
        let mut out = Outbox::new();
        if let Some(vm) = VerifiedMessage::check(&self.system, &self.ctx, from, msg) {
            let (from, msg) = vm.into_parts();
            handle(from, msg, &mut out);
        }
        out.take()
    }
}

/// A single-cluster test fixture of `n` PBFT cores with real crypto.
pub(crate) struct TestCluster {
    pub edge: Edge,
    pub scope: Scope,
    pub ids: Vec<ReplicaId>,
    pub cores: Vec<PbftCore>,
    pub cryptos: Vec<CryptoCtx>,
    pub ks: KeyStore,
    client_signers: HashMap<ClientId, Signer>,
}

impl TestCluster {
    /// Build an `n`-replica cluster (cluster 0) with real signature
    /// checking.
    pub fn new(n: usize) -> TestCluster {
        let system = SystemConfig::geo(1, n).expect("valid test system");
        let cfg = ProtocolConfig::new(system.clone());
        let ks = KeyStore::new(0xFEED);
        let scope = Scope::Cluster(rdb_common::ids::ClusterId(0));
        let mut ids = Vec::new();
        let mut cores = Vec::new();
        let mut cryptos = Vec::new();
        for r in system.replicas_of(rdb_common::ids::ClusterId(0)) {
            let signer = ks.register(NodeId::Replica(r));
            let crypto = CryptoCtx::new(signer, ks.verifier(), true);
            ids.push(r);
            cryptos.push(crypto.clone());
            cores.push(PbftCore::new(scope, cfg.clone(), r, crypto));
        }
        TestCluster {
            edge: Edge::new(&system, &ks),
            scope,
            ids,
            cores,
            cryptos,
            ks,
            client_signers: HashMap::new(),
        }
    }

    /// Create (and cache) a signed batch from client `client_idx` with
    /// `txns` write transactions.
    pub fn signed_batch(&mut self, client_idx: u32, batch_seq: u64, txns: usize) -> SignedBatch {
        let client = ClientId::new(0, client_idx);
        let signer = self
            .client_signers
            .entry(client)
            .or_insert_with(|| self.ks.register(NodeId::Client(client)));
        let batch = ClientBatch {
            client,
            batch_seq,
            txns: (0..txns as u64)
                .map(|i| Transaction {
                    client,
                    seq: batch_seq * 1000 + i,
                    op: Operation::Write {
                        key: i,
                        value: Value::from_u64(batch_seq * 1000 + i),
                    },
                })
                .collect(),
        };
        let sig = signer.sign(batch.digest().as_bytes());
        SignedBatch {
            pubkey: signer.public_key(),
            sig,
            batch,
        }
    }
}

/// Route the actions of `initial` outboxes (paired with the index of the
/// core that produced them) until quiescence. Returns every
/// [`CoreEvent`] tagged with the index of the core that emitted it.
pub(crate) fn route_batches(
    tc: &mut TestCluster,
    initial: Vec<(usize, Outbox)>,
    mut deliver_to: impl FnMut(usize) -> bool,
) -> Vec<(usize, CoreEvent)> {
    let mut queue: VecDeque<(usize, usize, Message)> = VecDeque::new();
    let index_of = |r: ReplicaId| r.index as usize;

    let push_actions = |from: usize, actions: Vec<Action>, queue: &mut VecDeque<_>| {
        for a in actions {
            if let Action::Send {
                to: NodeId::Replica(r),
                msg,
            } = a
            {
                queue.push_back((from, index_of(r), msg));
            }
        }
    };

    let mut events = Vec::new();
    for (from, mut out) in initial {
        push_actions(from, out.take(), &mut queue);
    }
    let mut steps = 0usize;
    while let Some((from, to, msg)) = queue.pop_front() {
        steps += 1;
        assert!(steps < 2_000_000, "routing did not quiesce");
        if !deliver_to(to) {
            continue;
        }
        let core = &mut tc.cores[to];
        let actions = tc.edge.deliver(tc.ids[from].into(), msg, |from, msg, out| {
            let NodeId::Replica(from) = from else {
                unreachable!("cores only hear replicas")
            };
            events.extend(
                core.handle_message(from, msg, out)
                    .into_iter()
                    .map(|e| (to, e)),
            );
        });
        push_actions(to, actions, &mut queue);
    }
    events
}

/// Route until quiescent, delivering everything; the initial outbox is
/// attributed to core 0.
pub(crate) fn route_core_messages(tc: &mut TestCluster, out: Outbox) -> Vec<(usize, CoreEvent)> {
    route_batches(tc, vec![(0, out)], |_| true)
}

/// Deliver `initial` (from, to, message) triples and everything they
/// trigger among `replicas`, through `edge`, until quiescence. Returns
/// the replies sent to clients and the decisions.
pub(crate) fn route<R: ReplicaProtocol>(
    edge: &Edge,
    replicas: &mut [R],
    initial: Vec<(NodeId, NodeId, Message)>,
) -> (RoutedReplies, RoutedDecisions) {
    let mut queue: VecDeque<(NodeId, NodeId, Message)> = initial.into();
    let (mut replies, mut decisions) = (Vec::new(), Vec::new());
    let mut steps = 0usize;
    while let Some((from, to, msg)) = queue.pop_front() {
        steps += 1;
        assert!(steps < 5_000_000, "routing did not quiesce");
        let NodeId::Replica(rid) = to else {
            if let (NodeId::Replica(sender), Message::Reply { data, .. }) = (from, msg) {
                replies.push((sender, data));
            }
            continue;
        };
        let replica = replicas.iter_mut().find(|r| r.id() == rid);
        let replica = replica.expect("known replica");
        let actions = edge.deliver(from, msg, |from, msg, out| {
            replica.on_message(SimTime::ZERO, from, msg, out)
        });
        for a in actions {
            match a {
                Action::Send { to: next, msg } => queue.push_back((to, next, msg)),
                Action::Decided(d) => decisions.push((rid, d)),
                _ => {}
            }
        }
    }
    (replies, decisions)
}
