//! The verifier, execution and checkpoint stages of the replica pipeline
//! (paper Figure 9, plus §2.2's checkpoints as their own stage).
//!
//! [`crate::node::ReplicaRuntime`] wires these into the full
//! input → verify ×N → order → execute → checkpoint/output thread chain.
//! The stages here are the ones that moved *off* the ordering worker in
//! the staged refactor:
//!
//! * **Verify** — a configurable pool of threads draining the raw envelope
//!   queue in batches, running the one validity check from
//!   `rdb-consensus` ([`VerifiedMessage::check`]), and forwarding only
//!   valid traffic to the worker, whose state machine checks nothing
//!   again.
//!   Pipeline-level checkpoint votes (reserved scope, see
//!   [`rdb_consensus::checkpoint`]) are routed straight to the checkpoint
//!   stage — the worker never sees them.
//! * **Execute** — one thread taking finalized [`Decision`]s in commit
//!   order and appending each to the `rdb-ledger` chain (and, in durable
//!   mode, writing the decision's WAL batch), so ledger hashing and disk
//!   writes do not sit on the consensus critical path. It executes
//!   nothing: the commit tail executed each decision once, on the
//!   replica's one table, and the decision carries the state digest and
//!   the record images this stage persists. Every
//!   [`CheckpointConfig::interval`] decisions it sends that digest to the
//!   checkpoint queue.
//! * **Checkpoint** — a dedicated thread that certifies the execution
//!   stage's snapshots against peers (a
//!   [`rdb_consensus::checkpoint::CheckpointTracker`] quorum over
//!   non-droppable `Message::Checkpoint` votes) and, as checkpoints
//!   become stable, compacts the ledger prefix behind a recovery anchor
//!   (`Ledger::compact`). Its queue is Block-policy by design: a
//!   backlogged checkpoint stage parks the executor and throttles the
//!   replica, bounding exec-to-stable lag (see [`crate::queue`]).
//!
//! Every hand-off between stages runs over a *bounded* queue sized by
//! [`PipelineConfig::queues`] and fed through [`crate::queue`]'s one
//! sender: the verifier pool blocks on a full work queue, which is how
//! backpressure propagates backwards from the worker to the transport
//! edge and ultimately to submitting clients.

use crate::metrics::Metrics;
use crate::queue::{SendOutcome, StageQueues, StageSender};
use crate::storage::{self, Gap, SharedBackend};
use crate::sync::MutexExt;
use crate::transport::{Envelope, TransportSender};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use rdb_common::config::SystemConfig;
use rdb_common::ids::{NodeId, ReplicaId};
use rdb_consensus::checkpoint::{self, CheckpointTracker, StableCheckpoint};
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_consensus::messages::Message;
use rdb_consensus::stage::{Stage, VerifiedMessage};
use rdb_consensus::types::Decision;
use rdb_crypto::digest::Digest;
use rdb_ledger::{Block, Ledger};
use rdb_store::KvStore;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The checkpoint stage's tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Decisions between checkpoints; `0` disables the stage entirely
    /// (no snapshot jobs, no votes, no ledger compaction — the pre-PR
    /// behavior, and the default: figure reproductions and equivalence
    /// tests compare full ledgers unless they opt in).
    pub interval: u64,
    /// Keep a [`KvStore`] clone of the last *stable* checkpoint — the
    /// state a restarting replica recovers from
    /// (`rdb_ledger::recover_from_checkpoint`). Costs one copy of the
    /// table's private overlay per checkpoint (the preload is shared);
    /// recovery tests and snapshot-shipping deployments enable it.
    pub retain_snapshot: bool,
    /// Fault injection for the test harness: sleep this long inside the
    /// checkpoint thread per snapshot job, emulating slow snapshot I/O.
    /// With a Block checkpoint queue this visibly throttles execution —
    /// which is exactly the designed overload behavior under test.
    pub fault_delay: Duration,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval: 0,
            retain_snapshot: false,
            fault_delay: Duration::ZERO,
        }
    }
}

impl CheckpointConfig {
    /// Checkpoint every `interval` decisions.
    pub fn every(interval: u64) -> CheckpointConfig {
        CheckpointConfig {
            interval,
            ..CheckpointConfig::default()
        }
    }

    /// Whether the checkpoint stage runs at all.
    pub fn enabled(&self) -> bool {
        self.interval > 0
    }

    /// Whether the checkpoint stage runs and keeps table snapshots.
    pub(crate) fn retains_snapshots(&self) -> bool {
        self.enabled() && self.retain_snapshot
    }
}

/// Thread and queue layout of one replica's pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Parallel verifier threads between input and worker.
    pub verifier_threads: usize,
    /// Bounded inter-stage queue layout (see [`crate::queue`]). Every
    /// channel between stages is bounded — an overloaded replica sheds
    /// droppable traffic or blocks its producers instead of growing
    /// memory without bound.
    pub queues: StageQueues,
    /// Checkpoint stage configuration (disabled by default).
    pub checkpoint: CheckpointConfig,
}

/// The verifier pool sized to the hardware, like the paper's fabric
/// sizes its thread pools to the testbed's cores: one verifier on small
/// hosts, two on ~8-core machines, up to four beyond that. Extra pool
/// threads on a starved host only add context switches.
pub(crate) fn default_verifier_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / 4).clamp(1, 4)
}

/// Maximum envelopes one verifier drains per wakeup (batched checking
/// amortizes queue synchronization).
const VERIFY_BATCH: usize = 16;

/// What the verifier stage needs to run [`VerifiedMessage::check`]: the
/// node's crypto context and the system layout for certificate and quorum
/// membership checks.
#[derive(Clone)]
pub struct VerifyCtx {
    /// The node's (real) crypto context.
    pub crypto: CryptoCtx,
    /// Deployment shape (cluster membership, quorum sizes).
    pub system: SystemConfig,
}

/// One item on the checkpoint stage's queue: the execute stage's local
/// snapshot jobs and the peer votes the verifier pool routes here.
#[derive(Debug)]
pub(crate) enum CheckpointMsg {
    /// The execute stage crossed an interval boundary: certify this
    /// ledger height with the state digest its decision carried.
    Snapshot {
        /// Ledger height the snapshot covers.
        height: u64,
        /// The replica's state digest at that height.
        state: Digest,
        /// A table clone ([`CheckpointConfig::retain_snapshot`]).
        snapshot: Option<KvStore>,
    },
    /// A verified pipeline-scope checkpoint vote from a peer.
    Vote {
        /// The voting replica.
        from: ReplicaId,
        /// Ledger height voted for.
        height: u64,
        /// State digest voted for.
        state: Digest,
    },
}

/// Spawn a pool of `threads` verifiers: `verify_rx` (the transport
/// inbox — its delivery is the input stage) → checked → `work_tx`
/// (pipeline-scope checkpoint votes go to `ckpt_tx` instead — the
/// checkpoint stage, not the worker, counts them).
// The parameters mirror the stage wiring one-to-one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_verifiers(
    node: NodeId,
    threads: usize,
    verify: VerifyCtx,
    verify_rx: Receiver<Envelope>,
    work_tx: StageSender<VerifiedMessage>,
    ckpt_tx: Option<StageSender<CheckpointMsg>>,
    metrics: Metrics,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    (0..threads.max(1))
        .map(|i| {
            let verify = verify.clone();
            let rx = verify_rx.clone();
            let tx = work_tx.clone();
            let ckpt_tx = ckpt_tx.clone();
            let metrics = metrics.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("{node}-verify{i}"))
                .spawn(move || verifier_loop(&verify, &rx, &tx, ckpt_tx.as_ref(), &metrics, &stop))
                .expect("spawn verifier thread")
        })
        .collect()
}

fn verifier_loop(
    verify: &VerifyCtx,
    rx: &Receiver<Envelope>,
    tx: &StageSender<VerifiedMessage>,
    ckpt_tx: Option<&StageSender<CheckpointMsg>>,
    metrics: &Metrics,
    stop: &AtomicBool,
) {
    let mut batch = Vec::with_capacity(VERIFY_BATCH);
    while !stop.load(Ordering::Relaxed) {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(env) => {
                batch.push(env);
                while batch.len() < VERIFY_BATCH {
                    match rx.try_recv() {
                        Ok(env) => batch.push(env),
                        Err(_) => break,
                    }
                }
                // Envelopes leave the input stage (the transport inbox)
                // and enter verification.
                metrics.stage_batch(Stage::Input, batch.len() as u64, 0, Duration::ZERO);
                metrics.stage_enqueued_many(Stage::Verify, batch.len() as u64);
                let t0 = Instant::now();
                let (mut ok, mut dropped) = (0u64, 0u64);
                for env in batch.drain(..) {
                    match VerifiedMessage::check(&verify.system, &verify.crypto, env.from, env.msg)
                    {
                        Some(vm) => {
                            // Pipeline-scope checkpoint votes feed the
                            // checkpoint stage, never the worker. A full
                            // checkpoint queue parks this verifier; the
                            // checkpoint thread never parks on a peer's
                            // inbox, so it comes back to drain (over TCP
                            // its frame write can still park; see
                            // `crate::socket`).
                            if let (Some(ckpt_tx), Message::Checkpoint { seq, state, .. }) =
                                (ckpt_tx, vm.message())
                            {
                                if checkpoint::is_pipeline_vote(vm.message()) {
                                    let NodeId::Replica(from) = vm.from() else {
                                        // Clients cannot vote: discarded
                                        // here like any malformed traffic.
                                        dropped += 1;
                                        continue;
                                    };
                                    ok += 1;
                                    let vote = CheckpointMsg::Vote {
                                        from,
                                        height: *seq,
                                        state: *state,
                                    };
                                    ckpt_tx.send(vote, false);
                                    continue;
                                }
                            }
                            ok += 1;
                            // A full work queue parks this verifier, which
                            // stops it draining the inbox and pushes the
                            // pressure to the transport edge.
                            if tx.send(vm, false) == SendOutcome::Disconnected {
                                return; // worker gone
                            }
                        }
                        None => dropped += 1,
                    }
                }
                metrics.stage_batch(Stage::Verify, ok, dropped, t0.elapsed());
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Where a replica's execute stage starts, besides its ledger.
pub(crate) struct ExecStart {
    /// Digest of the replica's own boot table, taken before restart
    /// alignment: the stage's state until its first decision.
    state: Digest,
    /// A copy of that table, kept only when checkpoints retain snapshots
    /// ([`CheckpointConfig::retain_snapshot`]): the mirror each
    /// decision's record images move forward.
    mirror: Option<KvStore>,
    /// What restart alignment handed a laggard, written with the first
    /// decision ([`storage::align_heads`]).
    pub(crate) gap: Gap,
}

impl ExecStart {
    /// The start of a replica that booted on `table`, with no gap.
    pub(crate) fn new(table: &KvStore, cfg: CheckpointConfig) -> ExecStart {
        ExecStart {
            state: table.state_digest(),
            mirror: cfg.retains_snapshots().then(|| table.clone()),
            gap: Gap::default(),
        }
    }
}

/// Spawn the execution stage: `exec_rx` → ledger append (into the shared
/// ledger the checkpoint stage compacts), plus the decision's WAL batch
/// when `backend` is set, in commit order. It executes nothing: the
/// commit tail already did, on the replica's one table, and each
/// [`Decision`] carries the resulting state digest and, when that table
/// captures writes, the record images persisted here. Runs until the
/// worker drops its sender, so every decision emitted before shutdown is
/// persisted. Returns on join the state digest of the last decision it
/// appended (the boot table's before any), which must equal the ledger
/// head's, making the stage auditable. A restarted replica's gap, the
/// blocks it lacks below the highest recovered head and the images their
/// replay wrote (`storage::align_heads`), goes in with its first
/// decision.
///
/// Boundaries fall every [`CheckpointConfig::interval`] decisions and
/// certify the decision's state digest, with a clone of the mirror when
/// snapshots are retained; snapshot jobs go into the Block-policy
/// checkpoint queue, and when the checkpoint stage lags, that send parks
/// this thread, which is precisely the throttle that bounds
/// exec-to-stable lag.
// The parameters mirror the stage wiring one-to-one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_executor(
    node: NodeId,
    start: ExecStart,
    exec_rx: Receiver<Decision>,
    ledger: Arc<Mutex<Ledger>>,
    ckpt_tx: Option<StageSender<CheckpointMsg>>,
    cfg: CheckpointConfig,
    backend: Option<SharedBackend>,
    metrics: Metrics,
) -> JoinHandle<Digest> {
    std::thread::Builder::new()
        .name(format!("{node}-execute"))
        .spawn(move || execute_loop(start, exec_rx, ledger, ckpt_tx, cfg, backend, metrics))
        .expect("spawn execution thread")
}

fn execute_loop(
    start: ExecStart,
    exec_rx: Receiver<Decision>,
    ledger: Arc<Mutex<Ledger>>,
    ckpt_tx: Option<StageSender<CheckpointMsg>>,
    cfg: CheckpointConfig,
    backend: Option<SharedBackend>,
    metrics: Metrics,
) -> Digest {
    let ExecStart {
        mut state,
        mut mirror,
        mut gap,
    } = start;
    let mut checkpointing = cfg.enabled() && ckpt_tx.is_some();
    let mut decided = 0u64;
    for decision in exec_rx.iter() {
        let t0 = Instant::now();
        // A restarted replica below the highest recovered head appends
        // the audited blocks it lacks (`storage::align_heads`) with its
        // first decision, in the same ledger update and WAL batch, so the
        // decision lands at the height it lands at on every replica.
        let Gap {
            blocks: filled,
            writes: filled_writes,
        } = std::mem::take(&mut gap);
        let writes = || filled_writes.iter().chain(&decision.writes);
        let (height, new_blocks) = {
            let mut l = ledger.guard();
            let prev = l.head_height();
            for block in filled {
                l.append(block.batch, block.certificate, block.state_digest);
            }
            l.append_decision(&decision);
            let head = l.head_height();
            // Durable mode: clone the block(s) this decision appended
            // while still under the lock, so the persisted chain segment
            // is exactly what the ledger linked.
            let new_blocks: Vec<Block> = if backend.is_some() {
                (prev + 1..=head)
                    .map(|h| l.block(h).expect("just appended").clone())
                    .collect()
            } else {
                Vec::new()
            };
            (head, new_blocks)
        };
        if let Some(be) = &backend {
            // One decision = one atomic WAL batch: blocks + absolute table
            // images + applied watermark. A torn tail therefore truncates
            // to a decision boundary on recovery.
            storage::persist_decision(be, &new_blocks, writes(), height)
                .expect("durable storage write failed");
        }
        if let Some(mirror) = &mut mirror {
            for &(key, value, version) in writes() {
                mirror.restore_record(key, value, version);
            }
        }
        state = decision.state_digest;
        metrics.stage_processed(Stage::Execute, t0.elapsed());
        decided += 1;

        // Checkpoint interval boundary, counted in decisions: certify the
        // state at the height this decision brought the ledger to.
        if checkpointing && decided.is_multiple_of(cfg.interval) {
            let tx = ckpt_tx.as_ref().expect("checkpointing implies sender");
            let snapshot = CheckpointMsg::Snapshot {
                height,
                state,
                snapshot: mirror.clone(),
            };
            if tx.send(snapshot, false) == SendOutcome::Disconnected {
                checkpointing = false;
            }
        }
    }
    state
}

/// What the checkpoint stage knew when its replica stopped.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// Last quorum-certified (stable) ledger height (0 before any).
    pub stable_height: u64,
    /// The state digest the quorum certified at that height.
    pub stable_state: Digest,
    /// Stable checkpoints certified over the run, oldest first:
    /// `(height, state digest, anchor block hash)`. The block hash binds
    /// the *entire* chain prefix up to the checkpoint, so two replicas
    /// (or the simulator and the fabric) certifying the same height with
    /// the same hash committed byte-identical prefixes.
    pub certified: Vec<(u64, Digest, Digest)>,
    /// The retained [`KvStore`] snapshot of the last stable checkpoint
    /// ([`CheckpointConfig::retain_snapshot`]) — the state a restarting
    /// replica pairs with a peer's ledger suffix.
    pub snapshot: Option<(u64, KvStore)>,
    /// Unstable checkpoints still tracked at shutdown (the tracker's
    /// memory watermark — bounded by in-flight checkpoints, not by run
    /// length).
    pub tracked: usize,
    /// Highest snapshot height this replica's *own* checkpoint thread
    /// pulled off its queue (0 before any). This is the local throttle
    /// watermark: the Block-policy checkpoint queue bounds how far the
    /// executor's head can run past it, independent of whether a quorum
    /// of peers kept pace to certify those heights.
    pub processed_height: u64,
}

/// Spawn the checkpoint stage: snapshot jobs and peer votes →
/// quorum certification → ledger compaction.
///
/// The quorum is `N - F` over *all* `z·n` replicas (ledger heights are
/// protocol-independent, so pipeline checkpoints certify across the
/// whole deployment regardless of how the protocol scopes its consensus
/// groups). Votes leave through [`TransportSender::try_send`] — held and
/// retried on a full peer inbox, never parked on — so in-process this
/// thread always returns to drain its queue, keeping the blocking chain
/// executor → checkpoint queue → this thread deadlock-free. Over TCP the
/// vote's frame write can park on a full socket buffer, so there the
/// chain can stall behind a peer that stopped reading.
///
/// Compaction deliberately lags by one checkpoint: when height `H_k`
/// becomes stable the ledger is compacted to `H_{k-1}`, keeping the last
/// full interval as a grace window so that a peer restarting from *its*
/// latest stable checkpoint (at most one interval behind ours) still
/// finds its recovery anchor retained here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_checkpointer(
    node: NodeId,
    system: SystemConfig,
    cfg: CheckpointConfig,
    ckpt_rx: Receiver<CheckpointMsg>,
    sender: TransportSender,
    ledger: Arc<Mutex<Ledger>>,
    backend: Option<SharedBackend>,
    metrics: Metrics,
) -> JoinHandle<CheckpointReport> {
    std::thread::Builder::new()
        .name(format!("{node}-checkpoint"))
        .spawn(move || {
            let NodeId::Replica(me) = node else {
                panic!("checkpoint stage runs on replicas only");
            };
            let peers: Vec<NodeId> = system
                .all_replicas()
                .map(NodeId::from)
                .filter(|p| *p != node)
                .collect();
            let members: Vec<ReplicaId> = system.all_replicas().collect();
            let mut tracker = CheckpointTracker::new(cfg.interval, system.global_quorum());
            let mut pending_snapshots: BTreeMap<u64, KvStore> = BTreeMap::new();
            let mut stable_snapshot: Option<(u64, KvStore)> = None;
            let mut certified: Vec<(u64, Digest, Digest)> = Vec::new();
            // Stable checkpoints whose anchor block the (lagging) local
            // ledger has not materialized yet; resolved in height order
            // once the executor catches up.
            let mut unresolved: VecDeque<StableCheckpoint> = VecDeque::new();
            let mut prev_stable = 0u64;
            let mut processed_height = 0u64;
            // Votes a full peer inbox handed back; retried every loop
            // iteration (the checkpoint stage's own "retransmission").
            let mut held: VecDeque<(NodeId, Message)> = VecDeque::new();
            loop {
                let msg = match ckpt_rx.recv_timeout(Duration::from_millis(5)) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                };
                let mut newly_stable = None;
                match msg {
                    Some(CheckpointMsg::Snapshot {
                        height,
                        state,
                        snapshot,
                    }) => {
                        let t0 = Instant::now();
                        if !cfg.fault_delay.is_zero() {
                            std::thread::sleep(cfg.fault_delay); // injected fault
                        }
                        processed_height = processed_height.max(height);
                        if tracker.record_own(height, state) {
                            if let Some(s) = snapshot {
                                pending_snapshots.insert(height, s);
                                // Stability lag keeps snapshots pending;
                                // bound them by keeping only the freshest
                                // few full-table clones (a dropped height
                                // only means stable_snapshot does not
                                // advance when that height stabilizes).
                                while pending_snapshots.len() > 8 {
                                    let oldest =
                                        *pending_snapshots.keys().next().expect("non-empty");
                                    pending_snapshots.remove(&oldest);
                                }
                            }
                            newly_stable = tracker.on_vote(me, height, state);
                            let vote = checkpoint::pipeline_vote(height, state);
                            for p in &peers {
                                if !sender.try_send(*p, vote.clone()) {
                                    held.push_back((*p, vote.clone()));
                                }
                            }
                        } else if let Some(s) = snapshot {
                            // A peer quorum certified this height before
                            // our own snapshot job drained (we are the
                            // laggard). The height is already stable, so
                            // the snapshot is immediately a valid — and
                            // fresher — recovery anchor.
                            if stable_snapshot.as_ref().is_none_or(|(h, _)| *h < height) {
                                stable_snapshot = Some((height, s));
                            }
                        }
                        metrics.stage_processed(Stage::Checkpoint, t0.elapsed());
                    }
                    Some(CheckpointMsg::Vote {
                        from,
                        height,
                        state,
                    }) => {
                        let t0 = Instant::now();
                        if members.contains(&from) {
                            newly_stable = tracker.on_vote(from, height, state);
                        }
                        metrics.stage_processed(Stage::Checkpoint, t0.elapsed());
                    }
                    None => {}
                }
                if let Some(stable) = newly_stable {
                    let t0 = Instant::now();
                    {
                        let mut l = ledger.guard();
                        // Lag-one compaction: keep the last interval as
                        // the peers' recovery grace window.
                        l.compact(prev_stable);
                    }
                    prev_stable = stable.seq;
                    unresolved.push_back(stable);
                    if let Some(s) = pending_snapshots.remove(&stable.seq) {
                        stable_snapshot = Some((stable.seq, s));
                    }
                    pending_snapshots.retain(|h, _| *h > stable.seq);
                    metrics.stage_batch(Stage::Checkpoint, 0, 0, t0.elapsed());
                }
                // Record certified anchors whose block the local ledger
                // has materialized. A quorum can stabilize a height this
                // replica's executor has not reached yet (quorum without
                // us); the anchor hash is then recorded as soon as the
                // block exists instead of being lost.
                while let Some(front) = unresolved.front().copied() {
                    let (anchor_hash, base) = {
                        let l = ledger.guard();
                        (l.hash_at(front.seq), l.base_height())
                    };
                    match anchor_hash {
                        Some(hash) => {
                            if let Some(be) = &backend {
                                // Durable mode: record the certified
                                // checkpoint and flush the engine — the
                                // stable prefix moves into run files and
                                // the WAL resets. The ledger blocks this
                                // stability compacts out of memory stay
                                // archived in the blocks keyspace (the
                                // executor persisted them at append).
                                storage::persist_checkpoint(be, front.seq, front.state, hash)
                                    .expect("durable checkpoint write failed");
                            }
                            certified.push((front.seq, front.state, hash));
                            unresolved.pop_front();
                        }
                        // A later stability compacted past this anchor
                        // before the executor ever materialized it — its
                        // hash is unrecordable; skip it instead of
                        // head-of-line blocking every later entry.
                        None if front.seq < base => {
                            unresolved.pop_front();
                        }
                        None => break, // executor not there yet
                    }
                }
                // Retry held votes without ever parking.
                for _ in 0..held.len() {
                    let (to, msg) = held.pop_front().expect("counted");
                    if !sender.try_send(to, msg.clone()) {
                        held.push_back((to, msg));
                    }
                }
            }
            CheckpointReport {
                stable_height: tracker.stable_seq(),
                stable_state: tracker.stable_state(),
                certified,
                snapshot: stable_snapshot,
                tracked: tracker.tracked().max(pending_snapshots.len()),
                processed_height,
            }
        })
        .expect("spawn checkpoint thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{stage_queue, QueuePolicy};
    use crossbeam::channel::{bounded, unbounded};
    use rdb_common::ids::{ClientId, ClusterId, ReplicaId};
    use rdb_consensus::api::{Action, Outbox};
    use rdb_consensus::config::{ExecMode, ProtocolConfig};
    use rdb_consensus::exec::CommitTail;
    use rdb_consensus::messages::{Message, Scope};
    use rdb_consensus::types::{ClientBatch, DecisionEntry, SignedBatch, Transaction};
    use rdb_crypto::digest::Digest;
    use rdb_crypto::sign::KeyStore;
    use rdb_storage::{LogBackend, LogConfig, StorageBackend};
    use rdb_store::Operation;

    fn verify_ctx() -> (VerifyCtx, KeyStore) {
        let system = SystemConfig::geo(1, 4).unwrap();
        let ks = KeyStore::new(5);
        let signer = ks.register(ReplicaId::new(0, 0).into());
        let crypto = CryptoCtx::new(signer, ks.verifier(), true);
        (VerifyCtx { crypto, system }, ks)
    }

    fn request(ks: &KeyStore, index: u32, valid: bool) -> Envelope {
        let client = ClientId::new(0, index);
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
        Envelope {
            from: client.into(),
            to: ReplicaId::new(0, 0).into(),
            msg: Message::Request(SignedBatch {
                batch,
                pubkey: signer.public_key(),
                sig,
            }),
        }
    }

    #[test]
    fn verifier_pool_passes_valid_and_drops_forged() {
        let (verify, ks) = verify_ctx();
        let (verify_tx, verify_rx) = unbounded::<Envelope>();
        let metrics = Metrics::new();
        let (work_tx, work_rx) = stage_queue(QueuePolicy::block(16), Stage::Order, &metrics);
        let stop = Arc::new(AtomicBool::new(false));
        let handles = spawn_verifiers(
            ReplicaId::new(0, 0).into(),
            3,
            verify,
            verify_rx,
            work_tx,
            None,
            metrics.clone(),
            Arc::clone(&stop),
        );
        assert_eq!(handles.len(), 3);
        // 8 valid requests interleaved with 4 forgeries.
        for i in 0..12u32 {
            verify_tx.send(request(&ks, i, i % 3 != 2)).unwrap();
        }
        let mut passed = Vec::new();
        for _ in 0..8 {
            passed.push(
                work_rx
                    .recv_timeout(Duration::from_secs(5))
                    .expect("valid request forwarded"),
            );
        }
        // Nothing else comes through: the forgeries are gone.
        assert!(work_rx.recv_timeout(Duration::from_millis(100)).is_err());
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
        let snap = metrics.stage_snapshot();
        assert_eq!(snap.row(Stage::Verify).processed, 8);
        assert_eq!(snap.row(Stage::Verify).dropped, 4);
        assert_eq!(snap.row(Stage::Verify).queue_depth, 0);
        for vm in passed {
            assert!(matches!(vm.message(), Message::Request(_)));
        }
    }

    /// Interior queues never shed: droppable consensus traffic at a full
    /// work queue parks the verifier like any other item. Fails if the
    /// work queue sheds.
    #[test]
    fn verifier_pool_holds_droppable_traffic_at_full_work_queue() {
        let (verify, _ks) = verify_ctx();
        let (verify_tx, verify_rx) = unbounded::<Envelope>();
        let metrics = Metrics::new();
        let (work_tx, work_rx) = stage_queue(QueuePolicy::block(2), Stage::Order, &metrics);
        let stop = Arc::new(AtomicBool::new(false));
        let handles = spawn_verifiers(
            ReplicaId::new(0, 0).into(),
            1,
            verify,
            verify_rx,
            work_tx,
            None,
            metrics.clone(),
            Arc::clone(&stop),
        );
        let from: NodeId = ReplicaId::new(0, 1).into();
        for seq in 0..6u64 {
            verify_tx
                .send(Envelope {
                    from,
                    to: ReplicaId::new(0, 0).into(),
                    msg: Message::Prepare {
                        scope: Scope::Global,
                        view: 0,
                        seq,
                        digest: Digest::ZERO,
                    },
                })
                .unwrap();
        }
        // Nobody drains yet: the first two fill the queue and the
        // verifier parks on the third.
        let deadline = Instant::now() + Duration::from_secs(5);
        while work_rx.len() < 2 {
            assert!(Instant::now() < deadline, "queue never filled");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(work_rx.len(), 2, "queue depth stays at its bound");
        let mut got = 0;
        while got < 6 {
            work_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("every prepare comes through");
            got += 1;
        }
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
        let snap = metrics.stage_snapshot();
        assert_eq!(snap.row(Stage::Order).shed, 0, "interior queues never shed");
        assert_eq!(snap.row(Stage::Order).enqueued, 6);
        assert_eq!(snap.row(Stage::Verify).processed, 6, "all were verified");
    }

    #[test]
    fn verifier_pool_blocks_on_undroppable_traffic() {
        let (verify, ks) = verify_ctx();
        let (verify_tx, verify_rx) = unbounded::<Envelope>();
        let metrics = Metrics::new();
        let (work_tx, work_rx) = stage_queue(QueuePolicy::block(1), Stage::Order, &metrics);
        let stop = Arc::new(AtomicBool::new(false));
        let handles = spawn_verifiers(
            ReplicaId::new(0, 0).into(),
            1,
            verify,
            verify_rx,
            work_tx,
            None,
            metrics.clone(),
            Arc::clone(&stop),
        );
        for i in 0..4u32 {
            verify_tx.send(request(&ks, i, true)).unwrap();
        }
        // Drain slowly: every request must come through despite the
        // 1-slot queue.
        let mut got = 0;
        while got < 4 {
            std::thread::sleep(Duration::from_millis(10));
            if work_rx.recv_timeout(Duration::from_secs(5)).is_ok() {
                got += 1;
            }
        }
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
        let snap = metrics.stage_snapshot();
        assert_eq!(snap.row(Stage::Order).shed, 0, "requests must not shed");
        assert_eq!(snap.row(Stage::Order).enqueued, 4);
        assert!(
            snap.row(Stage::Order).blocked > Duration::ZERO,
            "the verifier must have waited for room: {}",
            snap.summary()
        );
    }

    /// Entry `seq`: client 0's batch `seq`, of `ops`.
    fn entry(seq: u64, ops: Vec<Operation>) -> DecisionEntry {
        let client = ClientId::new(0, 0);
        let txns = ops
            .into_iter()
            .map(|op| Transaction { client, seq, op })
            .collect();
        let batch = ClientBatch {
            client,
            batch_seq: seq,
            txns,
        };
        let signed = SignedBatch {
            batch,
            pubkey: Default::default(),
            sig: Default::default(),
        };
        DecisionEntry::new(Some(ClusterId(0)), signed)
    }

    /// The decisions a real commit tail over `preload`, its table
    /// capturing writes as the fabric's does, reports for `batches`, one
    /// decision each: real state digests and record images.
    fn tail_decisions(preload: &KvStore, batches: Vec<Vec<Operation>>) -> Vec<Decision> {
        let mut cfg = ProtocolConfig::new(SystemConfig::geo(1, 4).unwrap());
        cfg.exec_mode = ExecMode::Real;
        let mut table = preload.clone();
        table.enable_capture();
        let mut tail = CommitTail::new(&cfg, table);
        let mut out = Outbox::new();
        for (seq, ops) in (1..).zip(batches) {
            tail.commit(seq, 0, [entry(seq, ops)], None, &mut out);
        }
        let actions = out.take().into_iter();
        let decided = actions.filter_map(|a| match a {
            Action::Decided(d) => Some(d),
            _ => None,
        });
        decided.collect()
    }

    /// `n` batches of one write each (key = value = seq).
    fn write_batches(n: u64) -> Vec<Vec<Operation>> {
        (1..=n)
            .map(|seq| {
                let value = rdb_store::Value::from_u64(seq);
                vec![Operation::Write { key: seq, value }]
            })
            .collect()
    }

    /// What a finished `spawn_executor` run left behind.
    struct ExecRun {
        digest: Digest,
        ledger: Ledger,
        jobs: Vec<CheckpointMsg>,
        metrics: Metrics,
    }

    /// Drive `spawn_executor` over `decisions` for a replica that booted
    /// on `store`. With `ckpt_alive` false the checkpoint stage has
    /// already exited: its queue's receiver is dropped before the first
    /// decision arrives.
    fn run_executor(
        store: KvStore,
        decisions: &[Decision],
        cfg: CheckpointConfig,
        backend: Option<SharedBackend>,
        ckpt_alive: bool,
    ) -> ExecRun {
        let start = (store, Ledger::new(), Gap::default());
        run_restarted_executor(start, decisions, cfg, backend, ckpt_alive)
    }

    /// A restarted replica's executor inputs: its recovered table and
    /// ledger, and the gap restart alignment handed it.
    type Restart = (KvStore, Ledger, Gap);

    /// [`run_executor`] for a restarted replica.
    fn run_restarted_executor(
        (store, ledger, gap): Restart,
        decisions: &[Decision],
        cfg: CheckpointConfig,
        backend: Option<SharedBackend>,
        ckpt_alive: bool,
    ) -> ExecRun {
        let (exec_tx, exec_rx) = unbounded::<Decision>();
        let metrics = Metrics::new();
        let (ckpt_tx, ckpt_rx) = stage_queue(QueuePolicy::block(64), Stage::Checkpoint, &metrics);
        let ckpt_rx = ckpt_alive.then_some(ckpt_rx);
        let ledger = Arc::new(std::sync::Mutex::new(ledger));
        let mut start = ExecStart::new(&store, cfg);
        start.gap = gap;
        let handle = spawn_executor(
            ReplicaId::new(0, 0).into(),
            start,
            exec_rx,
            Arc::clone(&ledger),
            cfg.enabled().then_some(ckpt_tx),
            cfg,
            backend,
            metrics.clone(),
        );
        for d in decisions {
            exec_tx.send(d.clone()).unwrap();
        }
        drop(exec_tx); // worker shutdown: executor drains and returns
        let digest = handle.join().unwrap();
        let jobs: Vec<CheckpointMsg> = ckpt_rx.map_or_else(Vec::new, |rx| rx.iter().collect());
        let Ok(ledger) = Arc::try_unwrap(ledger) else {
            unreachable!("executor joined");
        };
        ExecRun {
            digest,
            ledger: ledger.into_inner().unwrap(),
            jobs,
            metrics,
        }
    }

    /// The reference the executor is pinned to: the same decisions
    /// executed again, independently of the tail that reported them, in
    /// order, with [`KvStore::execute_batch`], and appended to a ledger.
    /// Returns the ledger and the table after each prefix (`[0]` =
    /// before any).
    fn reference(mut store: KvStore, decisions: &[Decision]) -> (Ledger, Vec<KvStore>) {
        let mut ledger = Ledger::new();
        let mut prefixes = vec![store.clone()];
        for d in decisions {
            for entry in &d.entries {
                store.execute_batch(entry.batch.batch.operations());
            }
            ledger.append_decision(d);
            prefixes.push(store.clone());
        }
        (ledger, prefixes)
    }

    /// Multi-key batches: a key written twice in one batch and again in
    /// the next, a read-modify-write, a transfer program and a read.
    fn mixed_batches(n: u64) -> Vec<Vec<Operation>> {
        use rdb_store::txn::TxnProgram;
        (1..=n)
            .map(|seq| {
                let write = |key: u64, v: u64| Operation::Write {
                    key,
                    value: rdb_store::Value::from_u64(v),
                };
                vec![
                    write(seq, seq),
                    write(seq + 1, 7 * seq),
                    Operation::Rmw { key: 5, delta: seq },
                    write(seq, 100 + seq),
                    Operation::Txn(TxnProgram::transfer(40 + seq, 21 + seq, 3)),
                    Operation::Read { key: 2 },
                ]
            })
            .collect()
    }

    /// A fresh durable engine in a per-test directory, initialized like a
    /// first-boot replica; returns the directory, the shared engine and
    /// its WAL record count before any decision.
    fn durable_engine(name: &str) -> (std::path::PathBuf, SharedBackend, u64) {
        let dir = std::env::temp_dir().join(format!("rdb-core-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = LogBackend::open(&dir, LogConfig::default()).unwrap();
        storage::init_replica(&mut engine).unwrap();
        let before = engine.stats().wal_records;
        (dir, Arc::new(Mutex::new(engine)), before)
    }

    /// Every record of `store`, ordered by key.
    fn sorted_records(store: &KvStore) -> Vec<(u64, rdb_store::Value, u64)> {
        let mut records: Vec<_> = store.records().collect();
        records.sort_unstable_by_key(|r| r.0);
        records
    }

    #[test]
    fn executor_applies_decisions_in_order() {
        let decisions = tail_decisions(&KvStore::new(), write_batches(5));
        let run = run_executor(
            KvStore::new(),
            &decisions,
            CheckpointConfig::default(),
            None,
            true,
        );
        // The stage reports the state an inline application of the same
        // writes reaches.
        let (ref_ledger, prefixes) = reference(KvStore::new(), &decisions);
        assert_eq!(run.digest, prefixes[5].state_digest());
        assert_eq!(run.ledger.head_height(), 5);
        assert_eq!(run.ledger.head_hash(), ref_ledger.head_hash());
        // FIFO hand-off preserves decision order in the chain.
        for h in 1..=5u64 {
            let block = run.ledger.block(h).expect("block present");
            assert_eq!(block.batch.batch.batch_seq, h);
            assert_eq!(block.state_digest, prefixes[h as usize].state_digest());
        }
        run.ledger.verify(None).expect("chain linkage intact");
        let snap = run.metrics.stage_snapshot();
        assert_eq!(snap.row(Stage::Execute).processed, 5);
        assert!(
            snap.row(Stage::Execute).busy > Duration::ZERO,
            "Execute busy time covers the append"
        );
    }

    #[test]
    fn executor_checkpoints_at_interval_boundaries() {
        let cfg = CheckpointConfig {
            interval: 3,
            retain_snapshot: true,
            fault_delay: Duration::ZERO,
        };
        let preload = KvStore::with_ycsb_records(64);
        let decisions = tail_decisions(&preload, write_batches(10));
        let (ref_ledger, prefixes) = reference(preload.clone(), &decisions);
        let run = run_executor(preload, &decisions, cfg, None, true);
        assert_eq!(run.digest, prefixes[10].state_digest());
        assert_eq!(run.ledger.head_hash(), ref_ledger.head_hash());
        // Interval 3 over 10 decisions: snapshot jobs at 3, 6 and 9.
        assert_eq!(run.jobs.len(), 3);
        for (job, expect_h) in run.jobs.iter().zip([3u64, 6, 9]) {
            let CheckpointMsg::Snapshot {
                height,
                state,
                snapshot,
            } = job
            else {
                panic!("the executor only emits snapshots");
            };
            let expected = &prefixes[expect_h as usize];
            assert_eq!(*height, expect_h);
            assert_eq!(*state, expected.state_digest(), "table digest");
            let snap = snapshot.as_ref().expect("retained");
            assert_eq!(snap.state_digest(), *state);
            assert_eq!(sorted_records(snap), sorted_records(expected));
            assert!(snap.verify_fingerprint(), "snapshot digest is live");
        }
        let snap = run.metrics.stage_snapshot();
        assert_eq!(snap.row(Stage::Checkpoint).enqueued, 3);
    }

    /// A checkpoint stage that has exited must not stop execution: the
    /// first boundary send finds the queue disconnected, the executor
    /// stops snapshotting and applies the rest. Fails if a disconnected
    /// checkpoint queue ends the loop or panics the thread.
    #[test]
    fn executor_keeps_applying_after_checkpoint_stage_exits() {
        let preload = KvStore::with_ycsb_records(64);
        let decisions = tail_decisions(&preload, write_batches(10));
        let (ref_ledger, prefixes) = reference(preload.clone(), &decisions);
        let run = run_executor(preload, &decisions, CheckpointConfig::every(3), None, false);
        assert_eq!(run.digest, prefixes[10].state_digest());
        assert_eq!(run.ledger.head_hash(), ref_ledger.head_hash());
        let snap = run.metrics.stage_snapshot();
        assert_eq!(snap.row(Stage::Execute).processed, 10);
        assert_eq!(snap.row(Stage::Checkpoint).enqueued, 0);
    }

    #[test]
    fn durable_executor_persists_one_batch_per_decision() {
        const N: u64 = 12;
        let preload = KvStore::with_ycsb_records(64);
        let decisions = tail_decisions(&preload, mixed_batches(N));
        let (ref_ledger, prefixes) = reference(preload.clone(), &decisions);
        let (dir, backend, before) = durable_engine("exec-wal");
        let run = run_executor(
            preload.clone(),
            &decisions,
            CheckpointConfig::default(),
            Some(Arc::clone(&backend)),
            true,
        );
        let engine = backend.guard();
        // One atomic WAL batch per decision, so a torn tail still
        // truncates to a decision boundary.
        assert_eq!(engine.stats().wal_records - before, N);
        let (table, ledger) = storage::recover_replica(&engine, &preload).unwrap();
        assert_eq!(ledger.head_height(), N);
        assert_eq!(ledger.head_hash(), run.ledger.head_hash());
        assert_eq!(ledger.head_hash(), ref_ledger.head_hash());
        assert_eq!(table.state_digest(), run.digest);
        assert_eq!(table.state_digest(), prefixes[N as usize].state_digest());
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Durable mode and checkpointing together: the WAL and the snapshot
    /// mirror take the same record images, and the snapshot certified at
    /// the last boundary is the very state the WAL recovers. Fails if
    /// either drops a decision's writes, or if a snapshot names another
    /// height than the one its state belongs to.
    #[test]
    fn durable_checkpointed_executor_recovers_the_last_snapshot() {
        const N: u64 = 12;
        let preload = KvStore::with_ycsb_records(64);
        let decisions = tail_decisions(&preload, mixed_batches(N));
        let (ref_ledger, prefixes) = reference(preload.clone(), &decisions);
        let (dir, backend, before) = durable_engine("exec-wal-ckpt");
        let cfg = CheckpointConfig {
            interval: 4,
            retain_snapshot: true,
            fault_delay: Duration::ZERO,
        };
        let run = run_executor(
            preload.clone(),
            &decisions,
            cfg,
            Some(Arc::clone(&backend)),
            true,
        );
        let engine = backend.guard();
        assert_eq!(engine.stats().wal_records - before, N);
        let (table, ledger) = storage::recover_replica(&engine, &preload).unwrap();
        assert_eq!(ledger.head_hash(), run.ledger.head_hash());
        assert_eq!(ledger.head_hash(), ref_ledger.head_hash());
        assert_eq!(table.state_digest(), run.digest);
        assert_eq!(table.state_digest(), prefixes[N as usize].state_digest());
        assert_eq!(run.jobs.len(), 3, "boundaries at 4, 8 and 12");
        let Some(CheckpointMsg::Snapshot {
            height,
            state,
            snapshot: Some(last),
        }) = run.jobs.last()
        else {
            panic!("the last job is a retained snapshot");
        };
        assert_eq!(*height, N);
        assert_eq!(*state, run.digest);
        assert_eq!(last.state_digest(), table.state_digest());
        assert_eq!(sorted_records(last), sorted_records(&table));
        assert!(last.verify_fingerprint(), "snapshot digest is live");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A restarted replica that stopped at height 1 of a 4-decision
    /// history, handed blocks 2 and 3 and the images their replay wrote
    /// by restart alignment.
    fn restarted_at_one(preload: &KvStore) -> (Ledger, Vec<KvStore>, Vec<Decision>, Restart) {
        let decisions = tail_decisions(preload, mixed_batches(4));
        let (full, prefixes) = reference(preload.clone(), &decisions);
        let own = Ledger::from_blocks_unchecked(full.blocks()[..2].to_vec());
        let mut table = prefixes[1].clone();
        table.enable_capture();
        let blocks = full.blocks()[2..4].to_vec();
        for block in &blocks {
            table.execute_batch(block.batch.batch.operations());
        }
        let gap = Gap {
            blocks,
            writes: table.take_captured(),
        };
        let start = (prefixes[1].clone(), own, gap);
        (full, prefixes, decisions, start)
    }

    /// The gap goes in with the first decision, so that decision lands at
    /// the height every other replica gives it. Fails if the executor
    /// ignores its gap.
    #[test]
    fn executor_fills_its_recovered_gap_with_its_first_decision() {
        let preload = KvStore::with_ycsb_records(64);
        let (full, prefixes, decisions, start) = restarted_at_one(&preload);
        let run = run_restarted_executor(
            start,
            &decisions[3..],
            CheckpointConfig::default(),
            None,
            true,
        );
        assert_eq!(run.ledger.head_height(), 4);
        assert_eq!(run.ledger.head_hash(), full.head_hash());
        assert_eq!(run.digest, prefixes[4].state_digest());
        let snap = run.metrics.stage_snapshot();
        assert_eq!(snap.row(Stage::Execute).processed, 1);
    }

    /// A restart that executes nothing recovers the replica exactly as it
    /// stopped. Fails if the gap is applied before a decision arrives.
    #[test]
    fn executor_without_decisions_keeps_its_recovered_head() {
        let preload = KvStore::with_ycsb_records(64);
        let (full, prefixes, _, start) = restarted_at_one(&preload);
        let run = run_restarted_executor(start, &[], CheckpointConfig::default(), None, true);
        assert_eq!(run.ledger.head_height(), 1);
        assert_eq!(Some(run.ledger.head_hash()), full.hash_at(1));
        assert_eq!(run.digest, prefixes[1].state_digest());
    }

    /// Durable mode writes the gap into the first decision's WAL batch:
    /// the next boot recovers a contiguous chain through the decision, at
    /// the reference state. Fails if the gap's blocks or images stay out
    /// of the batch.
    #[test]
    fn durable_executor_persists_its_gap_with_its_first_decision() {
        let preload = KvStore::with_ycsb_records(64);
        let (full, prefixes, decisions, (_, own, gap)) = restarted_at_one(&preload);
        let (dir, backend, _) = durable_engine("exec-gap");
        // The first incarnation persisted decision 1 and stopped.
        let first = run_executor(
            preload.clone(),
            &decisions[..1],
            CheckpointConfig::default(),
            Some(Arc::clone(&backend)),
            true,
        );
        assert_eq!(first.ledger.head_hash(), own.head_hash());
        let before = backend.guard().stats().wal_records;
        let run = run_restarted_executor(
            (prefixes[1].clone(), own, gap),
            &decisions[3..],
            CheckpointConfig::default(),
            Some(Arc::clone(&backend)),
            true,
        );
        let engine = backend.guard();
        assert_eq!(engine.stats().wal_records - before, 1, "one batch");
        let (table, ledger) = storage::recover_replica(&engine, &preload).unwrap();
        assert_eq!(ledger.head_hash(), full.head_hash());
        assert_eq!(table.state_digest(), prefixes[4].state_digest());
        assert_eq!(table.state_digest(), run.digest);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointer_certifies_quorum_and_compacts_with_lag() {
        use crate::transport::{InProcTransport, Transport};
        let system = SystemConfig::geo(1, 4).unwrap();
        let transport = Transport::InProc(InProcTransport::new(None));
        let me: NodeId = ReplicaId::new(0, 0).into();
        let handle = transport.register(me);
        let peer_handles: Vec<_> = (1..4u16)
            .map(|i| transport.register(ReplicaId::new(0, i).into()))
            .collect();
        let (_inbox, sender) = handle.split();

        // A ledger of 5 blocks whose state digests we will certify.
        let ledger = Arc::new(std::sync::Mutex::new(Ledger::new()));
        let mut states = vec![Digest::ZERO];
        {
            let mut l = ledger.guard();
            for i in 1..=5u64 {
                let d = Digest::of(&i.to_le_bytes());
                l.append(SignedBatch::noop(ClusterId(0), i), None, d);
                states.push(d);
            }
        }

        let (ckpt_tx, ckpt_rx) = bounded::<CheckpointMsg>(8);
        let metrics = Metrics::new();
        let cfg = CheckpointConfig::every(2);
        let h = spawn_checkpointer(
            me,
            system,
            cfg,
            ckpt_rx,
            sender,
            Arc::clone(&ledger),
            None,
            metrics.clone(),
        );

        let vote = |from: u16, height: u64| CheckpointMsg::Vote {
            from: ReplicaId::new(0, from),
            height,
            state: states[height as usize],
        };
        // Own snapshot at 2 + two peer votes = quorum 3 of 4.
        ckpt_tx
            .send(CheckpointMsg::Snapshot {
                height: 2,
                state: states[2],
                snapshot: None,
            })
            .unwrap();
        ckpt_tx.send(vote(1, 2)).unwrap();
        ckpt_tx.send(vote(2, 2)).unwrap();
        // Second checkpoint at 4.
        ckpt_tx
            .send(CheckpointMsg::Snapshot {
                height: 4,
                state: states[4],
                snapshot: None,
            })
            .unwrap();
        ckpt_tx.send(vote(1, 4)).unwrap();
        ckpt_tx.send(vote(3, 4)).unwrap();
        drop(ckpt_tx);
        let report = h.join().unwrap();

        assert_eq!(report.stable_height, 4);
        assert_eq!(report.stable_state, states[4]);
        assert_eq!(report.certified.len(), 2);
        assert_eq!(report.certified[0].0, 2);
        assert_eq!(report.certified[1].0, 4);
        assert_eq!(report.tracked, 0, "stability pruned the tracker");
        // Lag-one compaction: stabilizing 4 compacts to 2 (the grace
        // window for peers restarting from *their* last checkpoint).
        let Ok(l) = Arc::try_unwrap(ledger) else {
            unreachable!("checkpointer joined");
        };
        let l = l.into_inner().unwrap();
        assert_eq!(l.base_height(), 2);
        assert_eq!(l.head_height(), 5);
        l.verify(None).expect("compacted chain intact");
        // Both checkpoints were broadcast to every peer as non-droppable
        // pipeline-scope votes.
        for ph in &peer_handles {
            let mut got = Vec::new();
            while let Ok(env) = ph.inbox.recv_timeout(Duration::from_millis(200)) {
                assert!(rdb_consensus::checkpoint::is_pipeline_vote(&env.msg));
                assert!(!env.msg.droppable());
                got.push(env.msg);
                if got.len() == 2 {
                    break;
                }
            }
            assert_eq!(got.len(), 2, "peer missed a checkpoint vote");
        }
    }
}
