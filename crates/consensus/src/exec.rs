//! The commit tail shared by all replica implementations (§2.4, Figure 9).
//! The five protocols only *order*. Whether a client batch is new to this
//! replica ([`CommitTail::admit`], before anything proposes or forwards
//! it) and what happens to it once its position is final — execution,
//! exactly once per `(client, batch_seq)`, the [`ReplyData`] and its
//! retransmission cache, the reported [`Decision`], the checkpoint cadence
//! — is decided here, in [`CommitTail`], and nowhere else. A decided entry
//! naming a batch that already executed is committed as the no-op block
//! of its position, so every honest replica's ledger, execute stage and
//! replay agree on what ran.

use crate::api::Outbox;
use crate::config::{ExecMode, ProtocolConfig};
use crate::messages::Message;
use crate::types::{Decision, DecisionEntry, ReplyData, SignedBatch};
use rdb_common::ids::{ClientId, ClusterId, NodeId};
use rdb_crypto::digest::Digest;
use rdb_crypto::sha256::Sha256;
use rdb_store::{KvStore, TxnEffect};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// The canonical digest of one batch's execution effect: a hash binding
/// the batch digest to every per-operation outcome, in order. Replicas
/// include it in client replies; clients match `f + 1` identical ones
/// (§2.4). Because the digest is recomputable from `(batch digest,
/// results)`, a client session can also reject a reply whose carried
/// `results` payload does not hash to its claimed `result_digest` — a
/// Byzantine replica cannot smuggle forged read values under an honest
/// digest.
pub fn result_digest(batch_digest: &Digest, effect: &TxnEffect) -> Digest {
    let mut h = Sha256::new();
    h.update(b"exec-real");
    h.update(batch_digest.as_bytes());
    for outcome in &effect.outcomes {
        match outcome {
            rdb_store::ExecOutcome::Done => {
                h.update(&[0u8]);
            }
            rdb_store::ExecOutcome::ReadValue(v) => {
                h.update(&[1u8]);
                if let Some(v) = v {
                    h.update(&v.0);
                }
            }
            rdb_store::ExecOutcome::Counter(c) => {
                h.update(&[2u8]);
                h.update(&c.to_le_bytes());
            }
            rdb_store::ExecOutcome::Scanned(n) => {
                h.update(&[3u8]);
                h.update(&n.to_le_bytes());
            }
            rdb_store::ExecOutcome::Txn(outcome) => {
                h.update(&[4u8]);
                h.update(&outcome.canonical_bytes());
            }
        }
    }
    Digest(h.finalize())
}

/// The result digest a replica running `mode` reports for a batch that
/// executed to `effect` — what [`CommitTail::execute`] produces and what a
/// client holds a reply's `results` against before the reply may vote.
/// [`ExecMode::Modeled`] executes nothing: its digest is a constant of the
/// batch and covers no outcomes (honest modeled replies carry none).
pub fn digest_under(mode: ExecMode, batch_digest: &Digest, effect: &TxnEffect) -> Digest {
    match mode {
        ExecMode::Real => result_digest(batch_digest, effect),
        ExecMode::Modeled => Digest::of_parts(&[b"exec-modeled", batch_digest.as_bytes()]),
    }
}

/// One client's batches as this replica knows them: the admission state
/// and the latest replies sent to it.
#[derive(Default)]
struct ClientLog {
    /// Every batch numbered below this has executed ...
    executed_below: u64,
    /// ... and so have these above it: an open-loop client keeps many
    /// batches in flight, and they may commit out of order.
    executed_ahead: BTreeSet<u64>,
    /// Admitted for ordering by this replica and not executed yet.
    ordered: BTreeSet<u64>,
    /// Oldest first, at most `CommitTail::reply_window`.
    replies: VecDeque<ReplyData>,
}

impl ClientLog {
    fn executed(&self, batch_seq: u64) -> bool {
        batch_seq < self.executed_below || self.executed_ahead.contains(&batch_seq)
    }
}

/// A replica's commit tail: decides which client batches are new, owns
/// the table, executes ordered batches on it (or models that, see
/// [`ExecMode`]), numbers the blocks, answers and remembers the clients,
/// and reports decisions.
pub struct CommitTail {
    store: KvStore,
    mode: ExecMode,
    checkpoint_interval: u64,
    /// Replies remembered per client (`cfg.window`, the depth the
    /// protocols themselves pipeline to).
    reply_window: usize,
    /// Blocks so far (one per executed entry), so this is also the height
    /// of the latest one.
    blocks: u64,
    decisions: u64,
    clients: HashMap<ClientId, ClientLog>,
}

impl CommitTail {
    /// A tail over `store`, which should be pre-loaded identically on
    /// every replica (§4).
    pub fn new(cfg: &ProtocolConfig, store: KvStore) -> CommitTail {
        CommitTail {
            store,
            mode: cfg.exec_mode,
            checkpoint_interval: cfg.checkpoint_interval,
            reply_window: cfg.window as usize,
            blocks: 0,
            decisions: 0,
            clients: HashMap::new(),
        }
    }

    /// Decisions reported so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Digest of the table's current state.
    pub fn state_digest(&self) -> Digest {
        self.store.state_digest()
    }

    /// Whether this replica acts on the client batch `sb`, which reached
    /// it from `from` — the one admission check of every protocol. A
    /// batch that executed here is never ordered, forwarded or tracked
    /// again; its reply, if still remembered, is re-sent (stamped `view`)
    /// when the client itself asked. An orderer (`order`: the primary, or
    /// a HotStuff leader) admits a batch once until it executes. A
    /// forwarder admits every retransmission, so a lost forward is sent
    /// again.
    pub fn admit(
        &mut self,
        from: NodeId,
        sb: &SignedBatch,
        view: u64,
        order: bool,
        out: &mut Outbox,
    ) -> bool {
        let (client, batch_seq) = (sb.batch.client, sb.batch.batch_seq);
        let log = self.clients.entry(client).or_default();
        if log.executed(batch_seq) {
            let reply = log.replies.iter().find(|r| r.batch_seq == batch_seq);
            if let Some(data) = reply.filter(|_| from == NodeId::Client(client)) {
                let data = data.clone();
                out.send(client, Message::Reply { data, view });
            }
            return false;
        }
        !order || log.ordered.insert(batch_seq)
    }

    /// Execute `entry`, decided at `seq`, as the next block: the *result
    /// digest* clients match `f + 1` of (§2.4) and the per-transaction
    /// outcomes, deterministic across replicas. A client batch executes
    /// once: an entry naming one that already executed becomes the
    /// no-op block of its position instead, with no table write, and
    /// `None` is returned. Under [`ExecMode::Modeled`] the table is
    /// untouched and the outcomes empty (the simulator charges the cost
    /// in virtual time); the digest is the historical modeled constant,
    /// which keeps figure reproductions byte-identical.
    pub fn execute(&mut self, seq: u64, entry: &mut DecisionEntry) -> Option<(Digest, TxnEffect)> {
        debug_assert_eq!(entry.digest, entry.batch.digest(), "carried batch digest");
        self.blocks += 1;
        let batch = &entry.batch.batch;
        if !entry.batch.is_noop() {
            let log = self.clients.entry(batch.client).or_default();
            if log.executed(batch.batch_seq) {
                let cluster = entry.origin.unwrap_or(ClusterId(u16::MAX));
                *entry = DecisionEntry::new(entry.origin, SignedBatch::noop(cluster, seq));
                return None;
            }
            log.ordered.remove(&batch.batch_seq);
            if batch.batch_seq >= log.executed_below {
                log.executed_ahead.insert(batch.batch_seq);
            }
            while log.executed_ahead.remove(&log.executed_below) {
                log.executed_below += 1;
            }
        }
        let effect = match self.mode {
            ExecMode::Real => self.store.execute_batch(batch.operations()),
            ExecMode::Modeled => TxnEffect::default(),
        };
        Some((digest_under(self.mode, &entry.digest, &effect), effect))
    }

    /// Report the executed entries as the decision at `seq`, with the
    /// record images their execution wrote (drained from the table, so
    /// every protocol calls this right after [`CommitTail::execute`]).
    /// Returns the state digest to vote on when the decision closes a
    /// checkpoint interval.
    pub fn decided(
        &mut self,
        seq: u64,
        entries: impl IntoIterator<Item = DecisionEntry>,
        out: &mut Outbox,
    ) -> Option<Digest> {
        self.decisions += 1;
        let state_digest = self.store.state_digest();
        let entries = entries.into_iter().collect();
        out.decided(Decision {
            seq,
            entries,
            state_digest,
            writes: self.store.take_captured(),
        });
        let boundary = self.decisions.is_multiple_of(self.checkpoint_interval);
        boundary.then_some(state_digest)
    }

    /// The whole tail for the decision at `seq`: execute `entries` in
    /// order, answer (and remember the [`Message::Reply`], stamped `view`,
    /// to) the clients of cluster `local` — every client when `None`;
    /// replicas inform only the clients their protocol assigns to them,
    /// §2.4 — then report the decision like [`CommitTail::decided`].
    pub fn commit(
        &mut self,
        seq: u64,
        view: u64,
        entries: impl IntoIterator<Item = DecisionEntry>,
        local: Option<ClusterId>,
        out: &mut Outbox,
    ) -> Option<Digest> {
        let mut entries: Vec<DecisionEntry> = entries.into_iter().collect();
        for entry in &mut entries {
            let Some((result_digest, results)) = self.execute(seq, entry) else {
                continue;
            };
            let batch = &entry.batch.batch;
            if entry.batch.is_noop() || local.is_some_and(|c| c != batch.client.cluster) {
                continue;
            }
            let data = ReplyData {
                client: batch.client,
                batch_seq: batch.batch_seq,
                seq,
                block_height: self.blocks,
                result_digest,
                results,
                txns: batch.len() as u32,
            };
            let log = self.clients.entry(batch.client).or_default();
            if log.replies.len() >= self.reply_window {
                log.replies.pop_front();
            }
            log.replies.push_back(data.clone());
            out.send(batch.client, Message::Reply { data, view });
        }
        self.decided(seq, entries, out)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::api::{Action, ReplicaProtocol, TimerKind};
    use crate::config::ProtocolKind;
    use crate::crypto_ctx::CryptoCtx;
    use crate::geobft::GeoBftReplica;
    use crate::hotstuff::HotStuffReplica;
    use crate::pbft::PbftReplica;
    use crate::registry::build_replica;
    use crate::steward::StewardReplica;
    use crate::testkit::{self, Edge};
    use crate::types::{ClientBatch, Transaction};
    use crate::zyzzyva::ZyzzyvaReplica;
    use rdb_common::config::SystemConfig;
    use rdb_common::ids::{NodeId, ReplicaId};
    use rdb_common::time::SimTime;
    use rdb_crypto::sign::{KeyStore, Signer};
    use rdb_store::{ExecOutcome, Operation, Outcomes, Value};

    impl CommitTail {
        /// Entries of the admission state: batches executed ahead of
        /// their client's watermark, and batches ordered here but not
        /// executed.
        pub(crate) fn resident_entries(&self) -> usize {
            let logs = self.clients.values();
            logs.map(|l| l.executed_ahead.len() + l.ordered.len()).sum()
        }
    }

    /// Route more than `2 · cfg.window` client batches, whole checkpoint
    /// intervals of them, one at a time: one increment each from clients
    /// 1..=3 of cluster 0, whose batches arrive in swapped pairs (1, 0, 3, 2,
    /// ...), so some execute ahead of their predecessor; batch `i` enters at
    /// `entry(i)`. Each must be decided, and afterwards every replica's
    /// admission state (`resident`: its tail's `resident_entries()`) must be
    /// at most `cfg.window` entries.
    pub(crate) fn assert_admission_bounded<R: ReplicaProtocol>(
        cfg: &ProtocolConfig,
        edge: &Edge,
        ks: &KeyStore,
        replicas: &mut [R],
        entry: impl Fn(u64) -> ReplicaId,
        resident: impl Fn(&R) -> usize,
    ) {
        let signers: Vec<Signer> = (1..=3)
            .map(|i| ks.register(ClientId::new(0, i).into()))
            .collect();
        let k = cfg.checkpoint_interval;
        for i in 0..(2 * cfg.window / k + 1) * k {
            let client = ClientId::new(0, 1 + (i % 3) as u32);
            let (signer, batch_seq) = (&signers[(i % 3) as usize], (i / 3) ^ 1);
            let op = Operation::Rmw {
                key: i % 8,
                delta: 1,
            };
            let mut sb = unsigned(client, batch_seq, vec![op]);
            sb.sig = signer.sign(sb.batch.digest().as_bytes());
            sb.pubkey = signer.public_key();
            let request = (client.into(), entry(i).into(), Message::Request(sb));
            let (_, decisions) = testkit::route(edge, replicas, vec![request]);
            let decided = decisions
                .iter()
                .flat_map(|(_, d)| &d.entries)
                .any(|e| (e.batch.batch.client, e.batch.batch.batch_seq) == (client, batch_seq));
            assert!(decided, "batch {batch_seq} of {client:?} was not decided");
            for r in replicas.iter() {
                let entries = resident(r);
                assert!(entries <= cfg.window as usize, "{:?}: {entries}", r.id());
            }
        }
    }

    /// Route six client batches, one at a time, through a deployment of
    /// `z` clusters of `new` replicas (batch `i` enters at `entry(i)`), twice:
    /// over tails whose tables capture writes and over tails whose do not.
    /// With capture, every replica's `Decision.writes`, applied in order
    /// onto a copy of the preload, reproduce that decision's
    /// `state_digest` (the execute stage's snapshot mirror); without, each
    /// decision's `writes` is empty.
    fn assert_decision_writes_replay<R: ReplicaProtocol>(
        z: usize,
        new: fn(ProtocolConfig, ReplicaId, CryptoCtx, KvStore) -> R,
        entry: impl Fn(u64) -> ReplicaId,
    ) {
        for capture in [true, false] {
            let cfg = cfg(z, ExecMode::Real);
            let ks = KeyStore::new(7);
            let preload = KvStore::with_ycsb_records(50);
            let mut replicas: Vec<R> = cfg
                .system
                .all_replicas()
                .map(|id| {
                    let crypto =
                        CryptoCtx::new(ks.register(NodeId::Replica(id)), ks.verifier(), true);
                    let mut store = preload.clone();
                    if capture {
                        store.enable_capture();
                    }
                    new(cfg.clone(), id, crypto, store)
                })
                .collect();
            let edge = Edge::new(&cfg.system, &ks);
            let client = ClientId::new(0, 0);
            let signer = ks.register(NodeId::Client(client));
            let mut mirrors: HashMap<ReplicaId, KvStore> = HashMap::new();
            for i in 0..6u64 {
                let write = Operation::Write {
                    key: 60 + i,
                    value: Value::from_u64(i),
                };
                let ops = vec![
                    Operation::Rmw {
                        key: i % 3,
                        delta: 1,
                    },
                    write,
                ];
                let mut sb = unsigned(client, i, ops);
                sb.sig = signer.sign(sb.batch.digest().as_bytes());
                sb.pubkey = signer.public_key();
                let request = (client.into(), entry(i).into(), Message::Request(sb));
                let (_, decisions) = testkit::route(&edge, &mut replicas, vec![request]);
                assert!(!decisions.is_empty(), "batch {i} was not decided");
                for (rid, d) in decisions {
                    if !capture {
                        assert!(d.writes.is_empty(), "{rid} captured");
                        continue;
                    }
                    let mirror = mirrors.entry(rid).or_insert_with(|| preload.clone());
                    for (key, value, version) in d.writes {
                        mirror.restore_record(key, value, version);
                    }
                    assert_eq!(mirror.state_digest(), d.state_digest, "{rid}");
                }
            }
            if capture {
                assert_eq!(mirrors.len(), replicas.len(), "a replica decided nothing");
                let moved = mirrors
                    .values()
                    .all(|m| m.state_digest() != preload.state_digest());
                assert!(moved, "no writes reached a mirror");
            }
        }
    }

    #[test]
    fn pbft_decision_writes_replay_to_its_state_digest() {
        assert_decision_writes_replay(1, PbftReplica::new, |_| ReplicaId::new(0, 0));
    }

    #[test]
    fn geobft_decision_writes_replay_to_its_state_digest() {
        assert_decision_writes_replay(2, GeoBftReplica::new, |_| ReplicaId::new(0, 0));
    }

    #[test]
    fn steward_decision_writes_replay_to_its_state_digest() {
        assert_decision_writes_replay(2, StewardReplica::new, |_| ReplicaId::new(0, 0));
    }

    #[test]
    fn zyzzyva_decision_writes_replay_to_its_state_digest() {
        assert_decision_writes_replay(1, ZyzzyvaReplica::new, |_| ReplicaId::new(0, 0));
    }

    /// Batch `i` goes to the leader of slot `i + 1`, so slots fill in order.
    #[test]
    fn hotstuff_decision_writes_replay_to_its_state_digest() {
        let leader = |i: u64| ReplicaId::new(0, ((i + 1) % 4) as u16);
        assert_decision_writes_replay(1, HotStuffReplica::new, leader);
    }

    fn cfg(z: usize, mode: ExecMode) -> ProtocolConfig {
        let mut cfg = ProtocolConfig::new(SystemConfig::geo(z, 4).unwrap());
        cfg.exec_mode = mode;
        cfg
    }

    fn tail(mode: ExecMode, store: KvStore) -> CommitTail {
        CommitTail::new(&cfg(1, mode), store)
    }

    /// `sb`'s first execution on `t`.
    fn run(t: &mut CommitTail, sb: &SignedBatch) -> (Digest, TxnEffect) {
        let mut entry = DecisionEntry::new(None, sb.clone());
        t.execute(1, &mut entry).expect("first execution")
    }

    fn unsigned(client: ClientId, batch_seq: u64, ops: Vec<Operation>) -> SignedBatch {
        let txns = ops.into_iter().enumerate();
        SignedBatch {
            batch: ClientBatch {
                client,
                batch_seq,
                txns: txns
                    .map(|(i, op)| Transaction {
                        client,
                        seq: i as u64,
                        op,
                    })
                    .collect(),
            },
            pubkey: Default::default(),
            sig: Default::default(),
        }
    }

    /// Writes 42 to key 3, then reads it back.
    fn batch() -> SignedBatch {
        let write = Operation::Write {
            key: 3,
            value: Value::from_u64(42),
        };
        unsigned(
            ClientId::new(0, 0),
            0,
            vec![write, Operation::Read { key: 3 }],
        )
    }

    #[test]
    fn real_execution_is_deterministic_across_replicas() {
        let mut t1 = tail(ExecMode::Real, KvStore::with_ycsb_records(10));
        let mut t2 = tail(ExecMode::Real, KvStore::with_ycsb_records(10));
        let b = batch();
        assert_eq!(run(&mut t1, &b).0, run(&mut t2, &b).0);
        assert_eq!(t1.state_digest(), t2.state_digest());
        assert_eq!(t1.store.get(3), Some(Value::from_u64(42)));
    }

    #[test]
    fn real_execution_result_reflects_reads() {
        // The same read against different prior states gives different
        // outcomes and hence different result digests.
        let ro = unsigned(ClientId::new(0, 0), 1, vec![Operation::Read { key: 3 }]);
        let mut written = KvStore::new();
        written.execute(&Operation::Write {
            key: 3,
            value: Value::from_u64(9),
        });
        assert_ne!(
            run(&mut tail(ExecMode::Real, KvStore::new()), &ro).0,
            run(&mut tail(ExecMode::Real, written), &ro).0
        );
    }

    #[test]
    fn reply_results_match_their_digest() {
        let mut t = tail(ExecMode::Real, KvStore::with_ycsb_records(10));
        let b = batch();
        let (d, effect) = run(&mut t, &b);
        assert_eq!(result_digest(&b.digest(), &effect), d);
        // The batch writes 42 then reads it back: the carried outcomes
        // expose the read value end-to-end.
        assert_eq!(
            effect.outcomes,
            vec![
                ExecOutcome::Done,
                ExecOutcome::ReadValue(Some(Value::from_u64(42)))
            ]
        );
        // Tampered results no longer hash to the claimed digest.
        let mut forged = effect.clone();
        forged.outcomes.make_mut()[1] = ExecOutcome::ReadValue(Some(Value::from_u64(7)));
        assert_ne!(result_digest(&b.digest(), &forged), d);
    }

    #[test]
    fn modeled_execution_carries_no_results() {
        let mut t = tail(ExecMode::Modeled, KvStore::with_ycsb_records(10));
        let b = batch();
        assert!(run(&mut t, &b).1.outcomes.is_empty());
    }

    #[test]
    fn modeled_execution_leaves_store_untouched() {
        let mut t = tail(ExecMode::Modeled, KvStore::with_ycsb_records(10));
        let before = t.state_digest();
        let b = batch();
        assert_ne!(run(&mut t, &b).0, Digest::ZERO);
        assert_eq!(t.state_digest(), before);
    }

    #[test]
    fn modeled_digest_is_batch_specific() {
        let mut t = tail(ExecMode::Modeled, KvStore::new());
        let noop = SignedBatch::noop(rdb_common::ids::ClusterId(0), 1);
        let b = batch();
        assert_ne!(run(&mut t, &b).0, run(&mut t, &noop).0);
    }

    fn replies(out: &mut Outbox) -> Vec<ReplyData> {
        let sent = out.take().into_iter().filter_map(|a| match a {
            Action::Send {
                msg: Message::Reply { data, .. },
                ..
            } => Some(data),
            _ => None,
        });
        sent.collect()
    }

    #[test]
    fn blocks_are_numbered_across_decisions_and_modeled_mode_touches_nothing() {
        let entry = |client: u32, batch_seq: u64| {
            let ops = vec![Operation::Rmw { key: 1, delta: 1 }];
            DecisionEntry::new(None, unsigned(ClientId::new(0, client), batch_seq, ops))
        };
        for mode in [ExecMode::Real, ExecMode::Modeled] {
            let mut t = tail(mode, KvStore::with_ycsb_records(10));
            let before = t.state_digest();
            let mut out = Outbox::new();
            t.commit(1, 0, [entry(0, 0), entry(1, 0)], None, &mut out);
            t.commit(2, 0, [entry(0, 1)], None, &mut out);
            assert_eq!(t.decisions(), 2);
            let sent = replies(&mut out);
            let heights: Vec<u64> = sent.iter().map(|r| r.block_height).collect();
            assert_eq!(heights, vec![1, 2, 3], "{mode:?}");
            let seqs: Vec<u64> = sent.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, vec![1, 1, 2], "{mode:?}");
            if mode == ExecMode::Modeled {
                let b = entry(0, 0).batch;
                let historical = Digest::of_parts(&[b"exec-modeled", b.digest().as_bytes()]);
                assert_eq!(sent[0].result_digest, historical);
                assert!(sent.iter().all(|r| r.results.outcomes.is_empty()));
                assert_eq!(t.state_digest(), before);
            } else {
                assert_ne!(t.state_digest(), before);
                // The reply sent and the reply remembered share outcomes.
                let logged = &t.clients[&ClientId::new(0, 0)].replies;
                let shared = |r: &ReplyData| {
                    let sent = sent
                        .iter()
                        .find(|s| (s.client, s.batch_seq) == (r.client, r.batch_seq));
                    Outcomes::ptr_eq(&sent.unwrap().results.outcomes, &r.results.outcomes)
                };
                assert_eq!(logged.len(), 2);
                assert!(logged.iter().all(shared));
                assert!(logged.iter().all(|r| r.results.outcomes.len() == 1));
            }
        }
    }

    #[test]
    fn reply_window_is_bounded_and_evicted_batches_stay_executed() {
        let mut t = tail(ExecMode::Modeled, KvStore::new());
        let window = t.reply_window as u64;
        let client = ClientId::new(0, 0);
        let b = |batch_seq| unsigned(client, batch_seq, vec![Operation::NoOp]);
        let mut out = Outbox::new();
        // Batch 1 commits before batch 0 (out of submission order).
        for (seq, batch_seq) in [1, 0].into_iter().chain(2..=window).enumerate() {
            let entry = DecisionEntry::new(None, b(batch_seq));
            t.commit(seq as u64 + 1, 0, [entry], None, &mut out);
        }
        out.take();
        assert_eq!(t.clients[&client].replies.len() as u64, window);
        let from = NodeId::Client(client);
        // Evicted: executed, so the caller drops it, but nothing to re-send.
        assert!(!t.admit(from, &b(1), 0, true, &mut out));
        assert!(out.is_empty());
        // Still cached, and re-sent only to the client that asked.
        let forwarder = NodeId::Replica(ReplicaId::new(0, 1));
        assert!(!t.admit(forwarder, &b(0), 0, true, &mut out));
        assert!(out.is_empty());
        assert!(!t.admit(from, &b(0), 0, true, &mut out));
        assert_eq!(replies(&mut out)[0].batch_seq, 0);
        // Never seen: the caller orders it, once; a forwarder passes it on
        // every time.
        let fresh = b(window + 1);
        assert!(t.admit(from, &fresh, 0, true, &mut out));
        assert!(!t.admit(from, &fresh, 0, true, &mut out));
        assert!(t.admit(from, &fresh, 0, false, &mut out));
        let other = unsigned(ClientId::new(0, 9), 0, vec![]);
        assert!(t.admit(
            NodeId::Client(other.batch.client),
            &other,
            0,
            true,
            &mut out
        ));
        assert!(out.is_empty());
        assert_eq!(t.resident_entries(), 2);
    }

    #[test]
    fn a_decided_duplicate_commits_as_the_noop_block_of_its_position() {
        let mut t = tail(ExecMode::Real, KvStore::with_ycsb_records(10));
        let client = ClientId::new(0, 0);
        let b = unsigned(client, 0, vec![Operation::Rmw { key: 1, delta: 1 }]);
        let entry = || DecisionEntry::new(Some(ClusterId(1)), b.clone());
        let mut out = Outbox::new();
        t.commit(1, 0, [entry()], None, &mut out);
        let once = t.state_digest();
        t.commit(2, 0, [entry()], None, &mut out);
        assert_eq!(t.state_digest(), once, "no table write");
        assert_eq!(t.blocks, 2);
        let actions = out.take();
        let decisions: Vec<&Decision> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Decided(d) => Some(d),
                _ => None,
            })
            .collect();
        let noop = SignedBatch::noop(ClusterId(1), 2);
        assert_eq!(decisions[0].entries, vec![entry()]);
        assert_eq!(
            decisions[1].entries,
            vec![DecisionEntry::new(Some(ClusterId(1)), noop)]
        );
        let replied = actions.iter().filter(|a| matches!(a, Action::Send { .. }));
        assert_eq!(replied.count(), 1, "no reply for the duplicate");
    }

    /// Deliver `initial` and everything it triggers until quiescence
    /// (timers are not driven); returns the replies sent to clients.
    fn route(
        edge: &Edge,
        replicas: &mut [Box<dyn ReplicaProtocol>],
        initial: Vec<(NodeId, ReplicaId, Message)>,
    ) -> Vec<ReplyData> {
        let mut queue: VecDeque<(NodeId, NodeId, Message)> = initial
            .into_iter()
            .map(|(from, to, msg)| (from, to.into(), msg))
            .collect();
        let mut sent = Vec::new();
        while let Some((from, to, msg)) = queue.pop_front() {
            let NodeId::Replica(rid) = to else {
                if let Message::Reply { data, .. } = msg {
                    sent.push(data);
                }
                continue;
            };
            let replica = replicas
                .iter_mut()
                .find(|r| r.id() == rid)
                .expect("known replica");
            let actions = edge.deliver(from, msg, |from, msg, out| {
                replica.on_message(SimTime::ZERO, from, msg, out)
            });
            for a in actions {
                if let Action::Send { to: next, msg } = a {
                    queue.push_back((to, next, msg));
                }
            }
        }
        sent
    }

    /// The shared bug of the per-protocol reply caches this tail replaced:
    /// they remembered only a client's *latest* reply, so an open-loop
    /// client's retransmission of an older, already executed batch missed
    /// the cache, was forwarded and tracked by the backup, and — never
    /// committing a second time — left the progress timer armed until it
    /// view-changed an honest primary.
    #[test]
    fn older_retransmission_is_answered_from_the_cache() {
        let r = ReplicaId::new;
        // (protocol, clusters, entry replica of batch 0, of batch 1, backup)
        let table = [
            (ProtocolKind::Pbft, 1, r(0, 0), r(0, 0), r(0, 2)),
            (ProtocolKind::GeoBft, 2, r(0, 0), r(0, 0), r(0, 2)),
            (ProtocolKind::Steward, 2, r(0, 0), r(0, 0), r(0, 2)),
            // Parallel primaries: replica i leads slots i, i + 4, ...; slots
            // 1 and 2 execute without waiting for an idle leader's timer.
            (ProtocolKind::HotStuff, 1, r(0, 1), r(0, 2), r(0, 3)),
        ];
        for (kind, z, entry0, entry1, backup) in table {
            let cfg = cfg(z, ExecMode::Real);
            let ks = KeyStore::new(7);
            let mut replicas: Vec<Box<dyn ReplicaProtocol>> = cfg
                .system
                .all_replicas()
                .map(|id| {
                    let crypto =
                        CryptoCtx::new(ks.register(NodeId::Replica(id)), ks.verifier(), true);
                    let store = KvStore::with_ycsb_records(50);
                    build_replica(kind, cfg.clone(), id, crypto, store)
                })
                .collect();
            let edge = Edge::new(&cfg.system, &ks);
            let client = ClientId::new(0, 0);
            let signer = ks.register(NodeId::Client(client));
            let request = |batch_seq: u64| {
                let mut sb = unsigned(client, batch_seq, vec![Operation::Rmw { key: 5, delta: 1 }]);
                sb.sig = signer.sign(sb.batch.digest().as_bytes());
                sb.pubkey = signer.public_key();
                Message::Request(sb)
            };
            let mut originals = Vec::new();
            for (batch_seq, entry) in [(0, entry0), (1, entry1)] {
                let sent = route(
                    &edge,
                    &mut replicas,
                    vec![(client.into(), entry, request(batch_seq))],
                );
                let reply = sent.into_iter().find(|d| d.batch_seq == batch_seq);
                originals.push(reply.unwrap_or_else(|| panic!("{kind}: no reply")));
            }

            // Batch 0 is no longer the client's latest executed batch; a
            // backup must still answer it — and the latest one — with the
            // original reply and nothing else.
            for (batch_seq, target) in [(0, backup), (1, entry1)] {
                let target = replicas.iter_mut().find(|x| x.id() == target).unwrap();
                let actions = edge.deliver(client.into(), request(batch_seq), |from, msg, out| {
                    target.on_message(SimTime::ZERO, from, msg, out)
                });
                let forwarded_or_tracked = actions.iter().any(|a| {
                    matches!(
                        a,
                        Action::Send {
                            msg: Message::Forward(_),
                            ..
                        } | Action::SetTimer {
                            kind: TimerKind::Progress,
                            ..
                        }
                    )
                });
                assert!(!forwarded_or_tracked, "{kind}: {actions:?}");
                assert!(
                    matches!(&actions[..], [Action::Send { to, msg: Message::Reply { data, .. } }]
                        if *to == NodeId::Client(client) && *data == originals[batch_seq as usize]),
                    "{kind}: {actions:?}"
                );
            }
        }
    }
}
