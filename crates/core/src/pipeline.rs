//! The verifier and execution stages of the replica pipeline (paper
//! Figure 9), and §2.2's checkpoints, which run on the execute thread.
//!
//! [`crate::node::ReplicaRuntime`] wires these into the full
//! input → verify ×N → order → execute thread chain, whose worker hands
//! its messages to the transport itself (the output stage).
//! The stages here are the ones that moved *off* the ordering worker in
//! the staged refactor:
//!
//! * **Verify** — a configurable pool of threads draining the raw envelope
//!   queue in batches, running the one validity check from
//!   `rdb-consensus` ([`VerifiedMessage::check`]), and forwarding only
//!   valid traffic to the worker, whose state machine checks nothing
//!   again.
//!   Pipeline-level checkpoint votes (reserved scope, see
//!   [`rdb_consensus::checkpoint`]) are routed straight to the execute
//!   thread's queue, counted as Checkpoint traffic — the worker never
//!   sees them.
//! * **Execute** — one thread taking finalized [`Decision`]s in commit
//!   order and appending each to the `rdb-ledger` chain (and, in durable
//!   mode, writing the decision's WAL batch), so ledger hashing and disk
//!   writes do not sit on the consensus critical path. It executes
//!   nothing: the commit tail executed each decision once, on the
//!   replica's one table, and the decision carries the state digest and
//!   the record images this stage persists. It is the one owner of the
//!   replica's ledger, its durable engine and its snapshot mirror, so
//!   none of them sits behind a lock.
//! * **Checkpoint** — a `Checkpointer` the execute thread owns and calls,
//!   with no thread or queue of its own. Every
//!   [`CheckpointConfig::interval`] decisions it certifies the decision's
//!   state digest against peers (a
//!   [`rdb_consensus::checkpoint::CheckpointTracker`] quorum over
//!   non-droppable `Message::Checkpoint` votes, which arrive on the
//!   execute thread's queue) and, as checkpoints become stable, compacts
//!   the ledger prefix behind a recovery anchor (`Ledger::compact`). Slow
//!   checkpoint work slows the execute thread, whose bounded queue then
//!   fills and parks the worker: the throttle that bounds exec-to-stable
//!   lag (see [`crate::queue`]).
//!
//! Every hand-off between stages runs over a *bounded* queue sized by
//! [`PipelineConfig::queues`] and fed through [`crate::queue`]'s one
//! sender: the verifier pool blocks on a full work queue, which is how
//! backpressure propagates backwards from the worker to the transport
//! edge and ultimately to submitting clients.

use crate::metrics::Metrics;
use crate::node::ReplicaStopReport;
use crate::queue::{SendOutcome, StageQueues, StageSender};
use crate::storage::{self, Gap};
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
use rdb_ledger::Ledger;
use rdb_storage::{LogBackend, StorageBackend};
use rdb_store::KvStore;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The checkpoint stage's tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Decisions between checkpoints; `0` disables the stage entirely
    /// (no snapshots, no votes, no ledger compaction — the pre-PR
    /// behavior, and the default: figure reproductions and equivalence
    /// tests compare full ledgers unless they opt in).
    pub interval: u64,
    /// Keep a [`KvStore`] clone of the last *stable* checkpoint — the
    /// state a restarting replica recovers from
    /// (`rdb_ledger::recover_from_checkpoint`). Costs one copy of the
    /// table's private overlay per checkpoint (the preload is shared);
    /// recovery tests and snapshot-shipping deployments enable it.
    pub retain_snapshot: bool,
    /// Fault injection for the test harness: sleep this long on the
    /// execute thread at each of its checkpoint boundaries, emulating
    /// slow snapshot I/O. The execute queue then fills and parks the
    /// worker, which visibly throttles the replica — exactly the designed
    /// overload behavior under test.
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

/// One item on the execute thread's queue: the worker's decisions and
/// the peer checkpoint votes the verifier pool routes here.
pub(crate) enum ExecInput {
    /// A finalized decision, in commit order.
    Decision(Decision),
    /// A verified pipeline-scope checkpoint vote: `from` voted for ledger
    /// height `height` at `state`.
    Vote {
        from: ReplicaId,
        height: u64,
        state: Digest,
    },
}

/// Spawn a pool of `threads` verifiers: `verify_rx` (the transport
/// inbox — its delivery is the input stage) → checked → `work_tx`
/// (pipeline-scope checkpoint votes go to `vote_tx` instead, the execute
/// thread's queue counted as Checkpoint traffic — the checkpoint stage,
/// not the worker, counts them).
// The parameters mirror the stage wiring one-to-one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_verifiers(
    node: NodeId,
    threads: usize,
    verify: VerifyCtx,
    verify_rx: Receiver<Envelope>,
    work_tx: StageSender<VerifiedMessage>,
    vote_tx: Option<StageSender<ExecInput>>,
    metrics: Metrics,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    (0..threads.max(1))
        .map(|i| {
            let verify = verify.clone();
            let rx = verify_rx.clone();
            let tx = work_tx.clone();
            let vote_tx = vote_tx.clone();
            let metrics = metrics.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("{node}-verify{i}"))
                .spawn(move || verifier_loop(&verify, &rx, &tx, vote_tx.as_ref(), &metrics, &stop))
                .expect("spawn verifier thread")
        })
        .collect()
}

fn verifier_loop(
    verify: &VerifyCtx,
    rx: &Receiver<Envelope>,
    tx: &StageSender<VerifiedMessage>,
    vote_tx: Option<&StageSender<ExecInput>>,
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
                            // checkpoint stage on the execute thread,
                            // never the worker. A full exec queue parks
                            // this verifier; the execute thread never
                            // parks on a peer's inbox, so it comes back to
                            // drain (over TCP its frame write can still
                            // park; see `crate::socket`).
                            if let (Some(vote_tx), Message::Checkpoint { seq, state, .. }) =
                                (vote_tx, vm.message())
                            {
                                if checkpoint::is_pipeline_vote(vm.message()) {
                                    let NodeId::Replica(from) = vm.from() else {
                                        // Clients cannot vote: discarded
                                        // here like any malformed traffic.
                                        dropped += 1;
                                        continue;
                                    };
                                    ok += 1;
                                    let vote = ExecInput::Vote {
                                        from,
                                        height: *seq,
                                        state: *state,
                                    };
                                    vote_tx.send(vote, false);
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

/// How long the execute thread waits for input while it holds votes a
/// full peer inbox handed back, before it retries them.
const VOTE_RETRY: Duration = Duration::from_millis(5);

/// Spawn the execute thread, the one owner of the replica's `ledger`,
/// its durable engine (`backend`), its snapshot mirror and its
/// `checkpointer` (when checkpointing is on). It appends `exec_rx`'s
/// decisions to the ledger in commit order, plus each one's WAL batch
/// when `backend` is set, and hands peer checkpoint votes to the
/// checkpointer. It executes nothing: the commit tail already did, on the
/// replica's one table, and each [`Decision`] carries the resulting state
/// digest and, when that table captures writes, the record images
/// persisted here. A restarted replica's gap (`storage::align_heads`)
/// goes in with its first decision.
///
/// Every [`CheckpointConfig::interval`] decisions, right after the
/// append, the checkpointer certifies the decision's state digest (with a
/// clone of the mirror when snapshots are retained). Slow checkpoint work
/// slows this thread, and its bounded queue then parks the worker: the
/// throttle that bounds exec-to-stable lag.
///
/// The thread blocks in `recv`, with a timeout only while it holds
/// handed-back votes, until the worker and the verifiers drop their
/// senders, so every decision emitted before shutdown is persisted. Then
/// it flushes the engine, folds the engine's counters into `metrics` and
/// returns the ledger, the checkpoint report and the state digest of the
/// last decision it appended (the boot table's before any), which must
/// equal the ledger head's, making the stage auditable.
pub(crate) fn spawn_executor(
    node: NodeId,
    start: ExecStart,
    ledger: Ledger,
    backend: Option<LogBackend>,
    checkpointer: Option<Checkpointer>,
    exec_rx: Receiver<ExecInput>,
    metrics: Metrics,
) -> JoinHandle<ReplicaStopReport> {
    std::thread::Builder::new()
        .name(format!("{node}-execute"))
        .spawn(move || execute_loop(start, ledger, backend, checkpointer, exec_rx, metrics))
        .expect("spawn execution thread")
}

fn execute_loop(
    start: ExecStart,
    mut ledger: Ledger,
    mut backend: Option<LogBackend>,
    mut checkpointer: Option<Checkpointer>,
    exec_rx: Receiver<ExecInput>,
    metrics: Metrics,
) -> ReplicaStopReport {
    let ExecStart {
        mut state,
        mut mirror,
        mut gap,
    } = start;
    let mut decided = 0u64;
    loop {
        let next = if checkpointer.as_ref().is_some_and(|c| !c.held.is_empty()) {
            exec_rx.recv_timeout(VOTE_RETRY)
        } else {
            exec_rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
        };
        match next {
            Ok(ExecInput::Decision(decision)) => {
                let t0 = Instant::now();
                // A restarted replica below the highest recovered head
                // appends the audited blocks it lacks with its first
                // decision, in the same WAL batch, so the decision lands at
                // the height it lands at on every replica.
                let Gap {
                    blocks: filled,
                    writes: filled_writes,
                } = std::mem::take(&mut gap);
                let writes = || filled_writes.iter().chain(&decision.writes);
                let prev = ledger.head_height();
                for block in filled {
                    ledger.append(block.batch, block.certificate, block.state_digest);
                }
                ledger.append_decision(&decision);
                let height = ledger.head_height();
                if let Some(be) = &mut backend {
                    // One decision = one atomic WAL batch: the blocks it
                    // appended + absolute table images + applied
                    // watermark. A torn tail therefore truncates to a
                    // decision boundary on recovery.
                    let blocks = (prev + 1..=height).map(|h| ledger.block(h).expect("appended"));
                    storage::persist_decision(be, blocks, writes(), height)
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
                if let Some(c) = &mut checkpointer {
                    let t0 = Instant::now();
                    c.resolve(&ledger, backend.as_mut());
                    // Checkpoint interval boundary, counted in decisions:
                    // certify the state at the height this decision
                    // brought the ledger to.
                    if decided.is_multiple_of(c.cfg.interval) {
                        let snapshot = mirror.clone();
                        c.on_boundary(height, state, snapshot, &mut ledger, backend.as_mut());
                    }
                    metrics.stage_batch(Stage::Checkpoint, 0, 0, t0.elapsed());
                }
            }
            Ok(ExecInput::Vote {
                from,
                height,
                state: voted,
            }) => {
                if let Some(c) = &mut checkpointer {
                    let t0 = Instant::now();
                    c.on_vote(from, height, voted, &mut ledger, backend.as_mut());
                    metrics.stage_processed(Stage::Checkpoint, t0.elapsed());
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if let Some(c) = &mut checkpointer {
            c.retry_held();
        }
    }
    // Seal the engine: flush the memtables to runs and fold its counters
    // into the deployment's metrics.
    if let Some(be) = &mut backend {
        be.flush().expect("flush durable engine at shutdown");
        metrics.storage_merge(&be.stats());
    }
    ReplicaStopReport {
        ledger,
        exec_digest: state,
        checkpoint: checkpointer.map(Checkpointer::report),
    }
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
    /// Highest own checkpoint boundary the execute thread processed (0
    /// before any): the local throttle watermark. Each boundary is handled
    /// right after the append that reaches it, so the head stays within
    /// one interval of it whether or not a peer quorum kept pace.
    pub processed_height: u64,
}

/// The checkpoint stage, with no thread or queue of its own: the execute
/// thread calls it at each own interval boundary, for each peer vote,
/// after each append and to retry held votes, passing in the ledger and
/// the engine it owns.
///
/// The quorum is `N - F` over *all* `z·n` replicas (ledger heights are
/// protocol-independent, so pipeline checkpoints certify across the
/// whole deployment regardless of how the protocol scopes its consensus
/// groups). Votes leave through [`TransportSender::try_send`] — held and
/// retried on a full peer inbox, never parked on — so in-process the
/// execute thread always returns to drain its queue, keeping the
/// blocking chain verifiers → exec queue → execute thread deadlock-free.
/// Over TCP the vote's frame write can park on a full socket buffer, so
/// there the chain can stall behind a peer that stopped reading.
///
/// Compaction deliberately lags by one checkpoint: when height `H_k`
/// becomes stable the ledger is compacted to `H_{k-1}`, keeping the last
/// full interval as a grace window so that a peer restarting from *its*
/// latest stable checkpoint (at most one interval behind ours) still
/// finds its recovery anchor retained here. Nor does it pass a retained
/// snapshot (0 before the first): a state transfer starts from there.
pub(crate) struct Checkpointer {
    cfg: CheckpointConfig,
    me: ReplicaId,
    /// Every replica: the voters, and (but `me`) this replica's audience.
    members: Vec<ReplicaId>,
    sender: TransportSender,
    tracker: CheckpointTracker,
    /// Own snapshots awaiting stability, the freshest few only.
    pending_snapshots: BTreeMap<u64, KvStore>,
    stable_snapshot: Option<(u64, KvStore)>,
    certified: Vec<(u64, Digest, Digest)>,
    /// Stable checkpoints whose anchor block the (lagging) local ledger
    /// has not reached yet, in height order.
    unresolved: VecDeque<StableCheckpoint>,
    prev_stable: u64,
    processed_height: u64,
    /// Votes a full peer inbox handed back, retried on every turn of the
    /// execute loop (the checkpoint stage's own "retransmission").
    held: VecDeque<(NodeId, Message)>,
}

impl Checkpointer {
    /// Replica `me`'s checkpoint stage in `system`, voting through
    /// `sender`.
    pub(crate) fn new(
        me: ReplicaId,
        system: &SystemConfig,
        cfg: CheckpointConfig,
        sender: TransportSender,
    ) -> Checkpointer {
        Checkpointer {
            cfg,
            me,
            members: system.all_replicas().collect(),
            sender,
            tracker: CheckpointTracker::new(system.global_quorum()),
            pending_snapshots: BTreeMap::new(),
            stable_snapshot: None,
            certified: Vec::new(),
            unresolved: VecDeque::new(),
            prev_stable: 0,
            processed_height: 0,
            held: VecDeque::new(),
        }
    }

    /// An own interval boundary: the ledger reached `height` at `state`
    /// (`snapshot`: a clone of the mirror when snapshots are retained).
    fn on_boundary(
        &mut self,
        height: u64,
        state: Digest,
        snapshot: Option<KvStore>,
        ledger: &mut Ledger,
        backend: Option<&mut LogBackend>,
    ) {
        if !self.cfg.fault_delay.is_zero() {
            std::thread::sleep(self.cfg.fault_delay); // injected fault
        }
        self.processed_height = self.processed_height.max(height);
        if self.tracker.record_own(height, state) {
            if let Some(s) = snapshot {
                self.pending_snapshots.insert(height, s);
                // Stability lag keeps snapshots pending; bound them by
                // keeping only the freshest few full-table clones (a
                // dropped height only means stable_snapshot does not
                // advance when that height stabilizes).
                while self.pending_snapshots.len() > 8 {
                    self.pending_snapshots.pop_first();
                }
            }
            let vote = checkpoint::pipeline_vote(height, state);
            for &peer in self.members.iter().filter(|&&r| r != self.me) {
                if !self.sender.try_send(peer.into(), vote.clone()) {
                    self.held.push_back((peer.into(), vote.clone()));
                }
            }
            let stable = self.tracker.on_vote(self.me, height, state);
            self.settle(stable, ledger, backend);
        } else if let Some(s) = snapshot {
            // A peer quorum certified this height before this replica
            // reached it (we are the laggard). The height is already
            // stable, so the snapshot is immediately a valid — and
            // fresher — recovery anchor.
            if self.stable_snapshot.as_ref().is_none_or(|s| s.0 < height) {
                self.stable_snapshot = Some((height, s));
            }
        }
    }

    /// A verified vote from a peer.
    fn on_vote(
        &mut self,
        from: ReplicaId,
        height: u64,
        state: Digest,
        ledger: &mut Ledger,
        backend: Option<&mut LogBackend>,
    ) {
        if self.members.contains(&from) {
            let stable = self.tracker.on_vote(from, height, state);
            self.settle(stable, ledger, backend);
        }
    }

    /// Retry the votes a full peer inbox handed back, without parking.
    fn retry_held(&mut self) {
        for _ in 0..self.held.len() {
            let (to, msg) = self.held.pop_front().expect("counted");
            if !self.sender.try_send(to, msg.clone()) {
                self.held.push_back((to, msg));
            }
        }
    }

    /// Act on a newly stable checkpoint, if any: lag-one compaction
    /// (floored at the retained snapshot), then record its anchor once
    /// its block exists.
    fn settle(
        &mut self,
        stable: Option<StableCheckpoint>,
        ledger: &mut Ledger,
        backend: Option<&mut LogBackend>,
    ) {
        let Some(stable) = stable else {
            return;
        };
        let mut floor = self.prev_stable;
        if self.cfg.retains_snapshots() {
            floor = floor.min(self.stable_snapshot.as_ref().map_or(0, |(h, _)| *h));
        }
        ledger.compact(floor);
        self.prev_stable = stable.seq;
        self.unresolved.push_back(stable);
        if let Some(s) = self.pending_snapshots.remove(&stable.seq) {
            self.stable_snapshot = Some((stable.seq, s));
        }
        self.pending_snapshots.retain(|h, _| *h > stable.seq);
        self.resolve(ledger, backend);
    }

    /// Record, in height order, every certified anchor whose block the
    /// ledger holds; the execute thread calls this after each append, so
    /// an anchor a peer quorum stabilized ahead of this replica is
    /// recorded as soon as its block exists. In durable mode each is
    /// persisted and the engine flushed: the stable prefix moves into run
    /// files and the WAL resets (the blocks a stability compacts out of
    /// memory stay archived in the blocks keyspace).
    fn resolve(&mut self, ledger: &Ledger, mut backend: Option<&mut LogBackend>) {
        while let Some(&front) = self.unresolved.front() {
            match ledger.hash_at(front.seq) {
                Some(hash) => {
                    if let Some(be) = backend.as_deref_mut() {
                        storage::persist_checkpoint(be, front.seq, front.state, hash)
                            .expect("durable checkpoint write failed");
                    }
                    self.certified.push((front.seq, front.state, hash));
                }
                // A later stability compacted past this anchor before it
                // was recorded: its hash is unrecordable, so skip it
                // instead of head-of-line blocking every later entry.
                None if front.seq < ledger.base_height() => {}
                None => break, // the ledger is not there yet
            }
            self.unresolved.pop_front();
        }
    }

    fn report(self) -> CheckpointReport {
        CheckpointReport {
            stable_height: self.tracker.stable_seq(),
            stable_state: self.tracker.stable_state(),
            certified: self.certified,
            snapshot: self.stable_snapshot,
            tracked: self.tracker.tracked().max(self.pending_snapshots.len()),
            processed_height: self.processed_height,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{stage_queue, QueuePolicy};
    use crate::transport::{InProcTransport, Transport, TransportHandle};
    use crossbeam::channel::unbounded;
    use rdb_common::ids::{ClientId, ClusterId, ReplicaId};
    use rdb_consensus::api::{Action, Outbox};
    use rdb_consensus::config::{ExecMode, ProtocolConfig};
    use rdb_consensus::exec::CommitTail;
    use rdb_consensus::messages::{Message, Scope};
    use rdb_consensus::types::{ClientBatch, DecisionEntry, SignedBatch, Transaction};
    use rdb_crypto::digest::Digest;
    use rdb_crypto::sign::KeyStore;
    use rdb_storage::{Keyspace, LogConfig};
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

    /// Replica (0, 0)'s checkpoint stage in a 1×4 deployment on an
    /// in-process mesh, and the three peers' handles, whose inboxes take
    /// `peer_inbox`'s bound (unbounded when `None`).
    fn checkpointer(
        cfg: CheckpointConfig,
        peer_inbox: Option<QueuePolicy>,
    ) -> (Checkpointer, Vec<TransportHandle>) {
        let transport = Transport::InProc(InProcTransport::new(None));
        let me = ReplicaId::new(0, 0);
        let (_inbox, sender) = transport.register(me.into()).split();
        let peers = (1..4u16)
            .map(|i| {
                let peer = ReplicaId::new(0, i).into();
                match peer_inbox {
                    Some(policy) => transport.register_bounded(peer, policy),
                    None => transport.register(peer),
                }
            })
            .collect();
        let system = SystemConfig::geo(1, 4).unwrap();
        (Checkpointer::new(me, &system, cfg, sender), peers)
    }

    /// What a finished `spawn_executor` run left behind.
    struct ExecRun {
        digest: Digest,
        ledger: Ledger,
        checkpoint: Option<CheckpointReport>,
        metrics: Metrics,
        /// The peers the checkpoint stage voted to.
        peers: Vec<TransportHandle>,
    }

    /// Each decision as the worker hands it over.
    fn decided(decisions: &[Decision]) -> Vec<ExecInput> {
        decisions.iter().cloned().map(ExecInput::Decision).collect()
    }

    /// A peer's vote for `height` at `state`, as the verifiers hand it
    /// over.
    fn peer_vote(from: u16, height: u64, state: Digest) -> ExecInput {
        ExecInput::Vote {
            from: ReplicaId::new(0, from),
            height,
            state,
        }
    }

    /// Drive `spawn_executor` over `inputs` for a replica that booted on
    /// `store`: decisions on the worker's sender, votes on the verifiers'.
    fn run_executor(
        store: KvStore,
        inputs: Vec<ExecInput>,
        cfg: CheckpointConfig,
        backend: Option<LogBackend>,
    ) -> ExecRun {
        let start = (store, Ledger::new(), Gap::default());
        run_restarted_executor(start, inputs, cfg, backend)
    }

    /// A restarted replica's executor inputs: its recovered table and
    /// ledger, and the gap restart alignment handed it.
    type Restart = (KvStore, Ledger, Gap);

    /// [`run_executor`] for a restarted replica.
    fn run_restarted_executor(
        (store, ledger, gap): Restart,
        inputs: Vec<ExecInput>,
        cfg: CheckpointConfig,
        backend: Option<LogBackend>,
    ) -> ExecRun {
        let metrics = Metrics::new();
        let (exec_tx, exec_rx) = stage_queue(QueuePolicy::block(64), Stage::Execute, &metrics);
        let vote_tx = exec_tx.for_stage(Stage::Checkpoint);
        let (checkpointer, peers) = checkpointer(cfg, None);
        let mut start = ExecStart::new(&store, cfg);
        start.gap = gap;
        let handle = spawn_executor(
            ReplicaId::new(0, 0).into(),
            start,
            ledger,
            backend,
            cfg.enabled().then_some(checkpointer),
            exec_rx,
            metrics.clone(),
        );
        for input in inputs {
            match input {
                ExecInput::Decision(_) => exec_tx.send(input, false),
                ExecInput::Vote { .. } => vote_tx.send(input, false),
            };
        }
        drop((exec_tx, vote_tx)); // shutdown: the executor drains and returns
        let report = handle.join().unwrap();
        ExecRun {
            digest: report.exec_digest,
            ledger: report.ledger,
            checkpoint: report.checkpoint,
            metrics,
            peers,
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
    /// first-boot replica; returns the directory, the engine and its WAL
    /// record count before any decision.
    fn durable_engine(name: &str) -> (std::path::PathBuf, LogBackend, u64) {
        let dir = std::env::temp_dir().join(format!("rdb-core-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = open(&dir);
        storage::init_replica(&mut engine).unwrap();
        let before = engine.stats().wal_records;
        (dir, engine, before)
    }

    fn open(dir: &std::path::Path) -> LogBackend {
        LogBackend::open(dir, LogConfig::default()).unwrap()
    }

    /// WAL batches the run's engine appended, as its execute thread
    /// reported them at exit.
    fn wal_records(run: &ExecRun) -> u64 {
        run.metrics.storage_snapshot().stats.wal_records
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
            decided(&decisions),
            CheckpointConfig::default(),
            None,
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
        assert!(run.checkpoint.is_none(), "checkpointing is off");
        let snap = run.metrics.stage_snapshot();
        assert_eq!(snap.row(Stage::Execute).processed, 5);
        assert!(
            snap.row(Stage::Execute).busy > Duration::ZERO,
            "Execute busy time covers the append"
        );
    }

    /// Boundaries are certified on the execute thread, right after the
    /// append that reaches them: with two peers voting for each, every
    /// boundary becomes stable with the reference anchor, the ledger
    /// compacts one interval behind, and the retained snapshot is the
    /// table at the last boundary. Fails if a boundary is missed, votes
    /// for the wrong state, or snapshots another height's table.
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
        let state = |h: u64| prefixes[h as usize].state_digest();
        let mut inputs = Vec::new();
        for (h, d) in (1u64..).zip(&decisions) {
            inputs.push(ExecInput::Decision(d.clone()));
            if h % 3 == 0 {
                // With this replica's own vote, a quorum of 3 of 4.
                inputs.extend((1..3).map(|from| peer_vote(from, h, state(h))));
            }
        }
        let run = run_executor(preload, inputs, cfg, None);
        assert_eq!(run.digest, prefixes[10].state_digest());
        assert_eq!(run.ledger.head_hash(), ref_ledger.head_hash());
        // Interval 3 over 10 decisions: boundaries at 3, 6 and 9.
        let ckpt = run.checkpoint.expect("checkpointing is on");
        let anchor = |h: u64| (h, state(h), ref_ledger.hash_at(h).expect("reference"));
        assert_eq!(ckpt.certified, [3, 6, 9].map(anchor));
        assert_eq!((ckpt.stable_height, ckpt.processed_height), (9, 9));
        assert_eq!(run.ledger.base_height(), 6, "lag-one compaction");
        let (height, snap) = ckpt.snapshot.as_ref().expect("retained");
        assert_eq!(*height, 9);
        assert_eq!(snap.state_digest(), state(9), "table digest");
        assert_eq!(sorted_records(snap), sorted_records(&prefixes[9]));
        assert!(snap.verify_fingerprint(), "snapshot digest is live");
        // Every peer got this replica's vote for each boundary.
        let own_votes = [3, 6, 9].map(|h| checkpoint::pipeline_vote(h, state(h)));
        for peer in &run.peers {
            let got: Vec<Message> = peer.inbox.try_iter().map(|env| env.msg).collect();
            assert_eq!(got, own_votes);
        }
        // The Checkpoint row counts the peer votes through the queue; the
        // boundaries are busy time on the execute thread.
        let snap = run.metrics.stage_snapshot();
        let row = snap.row(Stage::Checkpoint);
        assert_eq!((row.enqueued, row.processed, row.queue_depth), (6, 6, 0));
        assert!(row.busy > Duration::ZERO);
        assert_eq!(snap.row(Stage::Execute).processed, 10);
    }

    /// A vote a full peer inbox handed back is held and retried while no
    /// other input arrives: the execute thread wakes on its retry timeout
    /// only while it holds votes. Fails if held votes wait for the next
    /// decision or are lost.
    #[test]
    fn executor_retries_votes_a_full_peer_inbox_handed_back() {
        let preload = KvStore::with_ycsb_records(64);
        let decisions = tail_decisions(&preload, write_batches(4));
        let metrics = Metrics::new();
        let (exec_tx, exec_rx) = stage_queue(QueuePolicy::block(8), Stage::Execute, &metrics);
        let cfg = CheckpointConfig::every(2);
        let (c, peers) = checkpointer(cfg, Some(QueuePolicy::block(1)));
        let handle = spawn_executor(
            ReplicaId::new(0, 0).into(),
            ExecStart::new(&preload, cfg),
            Ledger::new(),
            None,
            Some(c),
            exec_rx,
            metrics.clone(),
        );
        for d in decided(&decisions) {
            exec_tx.send(d, false);
        }
        // Boundaries at 2 and 4: each one-slot peer inbox takes the vote
        // at 2 and hands the vote at 4 back.
        let heights = |peer: &TransportHandle| {
            let vote = peer.inbox.recv_timeout(Duration::from_secs(5));
            match vote.expect("a vote arrives").msg {
                Message::Checkpoint { seq, .. } => seq,
                other => panic!("not a vote: {other:?}"),
            }
        };
        for peer in &peers {
            assert_eq!(heights(peer), 2);
        }
        // Nothing else is sent, and the queue stays open.
        for peer in &peers {
            assert_eq!(heights(peer), 4, "the held vote is retried");
        }
        drop(exec_tx);
        let report = handle.join().unwrap();
        assert_eq!(report.ledger.head_height(), 4);
        assert_eq!(report.checkpoint.expect("on").processed_height, 4);
    }

    #[test]
    fn durable_executor_persists_one_batch_per_decision() {
        const N: u64 = 12;
        let preload = KvStore::with_ycsb_records(64);
        let decisions = tail_decisions(&preload, mixed_batches(N));
        let (ref_ledger, prefixes) = reference(preload.clone(), &decisions);
        let (dir, engine, before) = durable_engine("exec-wal");
        let run = run_executor(
            preload.clone(),
            decided(&decisions),
            CheckpointConfig::default(),
            Some(engine),
        );
        // One atomic WAL batch per decision, so a torn tail still
        // truncates to a decision boundary.
        assert_eq!(wal_records(&run) - before, N);
        let (table, ledger) = storage::recover_replica(&open(&dir), &preload).unwrap();
        assert_eq!(ledger.head_height(), N);
        assert_eq!(ledger.head_hash(), run.ledger.head_hash());
        assert_eq!(ledger.head_hash(), ref_ledger.head_hash());
        assert_eq!(table.state_digest(), run.digest);
        assert_eq!(table.state_digest(), prefixes[N as usize].state_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Durable mode and checkpointing together: the WAL and the snapshot
    /// mirror take the same record images, and the snapshot certified at
    /// the last boundary is the very state the engine recovers, with that
    /// checkpoint persisted beside it. Fails if either drops a decision's
    /// writes, if a snapshot names another height than the one its state
    /// belongs to, or if the certified checkpoint is not persisted.
    #[test]
    fn durable_checkpointed_executor_recovers_the_last_snapshot() {
        const N: u64 = 12;
        let preload = KvStore::with_ycsb_records(64);
        let decisions = tail_decisions(&preload, mixed_batches(N));
        let (ref_ledger, prefixes) = reference(preload.clone(), &decisions);
        let (dir, engine, before) = durable_engine("exec-wal-ckpt");
        let cfg = CheckpointConfig {
            interval: 4,
            retain_snapshot: true,
            fault_delay: Duration::ZERO,
        };
        // Two peers certify the last boundary with this replica.
        let last = prefixes[N as usize].state_digest();
        let mut inputs = decided(&decisions);
        inputs.extend((1..3).map(|from| peer_vote(from, N, last)));
        let run = run_executor(preload.clone(), inputs, cfg, Some(engine));
        // One batch per decision, plus the certified checkpoint's.
        assert_eq!(wal_records(&run) - before, N + 1);
        let engine = open(&dir);
        let (table, ledger) = storage::recover_replica(&engine, &preload).unwrap();
        assert_eq!(ledger.head_hash(), run.ledger.head_hash());
        assert_eq!(ledger.head_hash(), ref_ledger.head_hash());
        assert_eq!(table.state_digest(), run.digest);
        assert_eq!(table.state_digest(), last);
        let ckpt = run.checkpoint.expect("checkpointing is on");
        assert_eq!(ckpt.processed_height, N, "boundaries at 4, 8 and 12");
        assert_eq!(ckpt.certified, [(N, last, ref_ledger.head_hash())]);
        let Some((height, snapshot)) = &ckpt.snapshot else {
            panic!("the last boundary's snapshot is retained");
        };
        assert_eq!(*height, N);
        assert_eq!(snapshot.state_digest(), table.state_digest());
        assert_eq!(sorted_records(snapshot), sorted_records(&table));
        assert!(snapshot.verify_fingerprint(), "snapshot digest is live");
        assert_eq!(
            engine.get(Keyspace::Checkpoints, &N.to_be_bytes()),
            Some([*last.as_bytes(), *ref_ledger.head_hash().as_bytes()].concat())
        );
        assert_eq!(
            engine.get(Keyspace::Meta, b"stable"),
            Some(N.to_le_bytes().to_vec())
        );
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
            decided(&decisions[3..]),
            CheckpointConfig::default(),
            None,
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
        let run = run_restarted_executor(start, Vec::new(), CheckpointConfig::default(), None);
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
        let (dir, engine, _) = durable_engine("exec-gap");
        // The first incarnation persisted decision 1 and stopped.
        let first = run_executor(
            preload.clone(),
            decided(&decisions[..1]),
            CheckpointConfig::default(),
            Some(engine),
        );
        assert_eq!(first.ledger.head_hash(), own.head_hash());
        let engine = open(&dir);
        let before = engine.stats().wal_records;
        let run = run_restarted_executor(
            (prefixes[1].clone(), own, gap),
            decided(&decisions[3..]),
            CheckpointConfig::default(),
            Some(engine),
        );
        assert_eq!(wal_records(&run) - before, 1, "one batch");
        let (table, ledger) = storage::recover_replica(&open(&dir), &preload).unwrap();
        assert_eq!(ledger.head_hash(), full.head_hash());
        assert_eq!(table.state_digest(), prefixes[4].state_digest());
        assert_eq!(table.state_digest(), run.digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Height `h`'s state digest in the checkpoint stage tests.
    fn state(h: u64) -> Digest {
        Digest::of(&h.to_le_bytes())
    }

    /// Append no-op blocks at [`state`] until `ledger` stands at `head`.
    fn grow(ledger: &mut Ledger, head: u64) {
        for h in ledger.head_height() + 1..=head {
            ledger.append(SignedBatch::noop(ClusterId(0), h), None, state(h));
        }
    }

    /// One call into the checkpoint stage: an own boundary, or a peer's
    /// vote.
    enum Step {
        Own(u64, Option<KvStore>),
        Vote(u16, u64),
    }

    fn own(height: u64, snapshot: Option<KvStore>) -> Step {
        Step::Own(height, snapshot)
    }

    fn vote(from: u16, height: u64) -> Step {
        Step::Vote(from, height)
    }

    /// Run replica (0, 0)'s checkpoint stage of a 1×4 deployment over a
    /// ledger of `blocks` blocks through `steps`: its report, its ledger,
    /// and the three peers' transport handles.
    fn run_checkpointer(
        cfg: CheckpointConfig,
        blocks: u64,
        steps: Vec<Step>,
    ) -> (CheckpointReport, Ledger, Vec<TransportHandle>) {
        let (mut c, peers) = checkpointer(cfg, None);
        let mut ledger = Ledger::new();
        grow(&mut ledger, blocks);
        for step in steps {
            match step {
                Step::Own(h, snapshot) => c.on_boundary(h, state(h), snapshot, &mut ledger, None),
                Step::Vote(from, h) => {
                    c.on_vote(ReplicaId::new(0, from), h, state(h), &mut ledger, None)
                }
            }
        }
        (c.report(), ledger, peers)
    }

    #[test]
    fn checkpointer_certifies_quorum_and_compacts_with_lag() {
        let (report, l, peer_handles) = run_checkpointer(
            CheckpointConfig::every(2),
            5,
            vec![
                // Own snapshot at 2 + two peer votes = quorum 3 of 4.
                own(2, None),
                vote(1, 2),
                vote(2, 2),
                // Second checkpoint at 4.
                own(4, None),
                vote(1, 4),
                vote(3, 4),
            ],
        );

        assert_eq!(report.stable_height, 4);
        assert_eq!(report.stable_state, state(4));
        assert_eq!(report.certified.len(), 2);
        assert_eq!(report.certified[0].0, 2);
        assert_eq!(report.certified[1].0, 4);
        assert_eq!(report.tracked, 0, "stability pruned the tracker");
        // Lag-one compaction: stabilizing 4 compacts to 2 (the grace
        // window for peers restarting from *their* last checkpoint).
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

    /// With retained snapshots, compaction stops at the retained
    /// snapshot's height: peers make 2 and 4 stable before this replica
    /// reaches its own boundary at 2, that boundary then comes alone, and
    /// a third stability at 6 would compact to 4 under the lag-one rule
    /// alone. The ledger keeps every block above the reported snapshot, so
    /// a state transfer from that snapshot can start.
    #[test]
    fn compaction_never_passes_the_retained_snapshot() {
        let cfg = CheckpointConfig {
            retain_snapshot: true,
            ..CheckpointConfig::every(2)
        };
        let table = KvStore::with_ycsb_records(4);
        let stable = |h| (1..4).map(move |from| vote(from, h));
        let mut steps: Vec<_> = stable(2).chain(stable(4)).collect();
        steps.push(own(2, Some(table)));
        steps.extend(stable(6));
        let (report, l, _peers) = run_checkpointer(cfg, 7, steps);
        assert_eq!(report.stable_height, 6);
        let (snapshot, _) = report
            .snapshot
            .expect("the late boundary's snapshot is retained");
        assert_eq!(snapshot, 2);
        assert!(
            l.base_height() <= snapshot,
            "ledger base {} passed the retained snapshot at {snapshot}",
            l.base_height()
        );
        assert_eq!(l.base_height(), 2, "compaction still follows the snapshot");
        l.verify(None).expect("compacted chain intact");
    }

    /// With retained snapshots and none of this replica's own yet, peers
    /// making 2 and 4 stable compact nothing: the ledger keeps its genesis
    /// until a snapshot exists to transfer from.
    #[test]
    fn compaction_waits_for_the_first_retained_snapshot() {
        let cfg = CheckpointConfig {
            retain_snapshot: true,
            ..CheckpointConfig::every(2)
        };
        let steps = [2, 4]
            .into_iter()
            .flat_map(|h| (1..4).map(move |from| vote(from, h)))
            .collect();
        let (report, l, _peers) = run_checkpointer(cfg, 5, steps);
        assert_eq!(report.stable_height, 4);
        assert!(report.snapshot.is_none());
        assert_eq!(l.base_height(), 0);
        assert_eq!(l.head_height(), 5);
        l.verify(None).expect("uncompacted chain intact");
    }

    /// A peer quorum can make a height stable before this replica's
    /// ledger reaches it: the anchor is recorded, and in durable mode
    /// persisted, right after the append that materializes its block, and
    /// not before. Fails if an anchor is dropped because its block came
    /// late, or recorded before the block exists.
    #[test]
    fn an_anchor_ahead_of_the_ledger_is_recorded_once_its_block_exists() {
        for durable in [false, true] {
            let (mut c, _peers) = checkpointer(CheckpointConfig::every(2), None);
            let engine = durable.then(|| durable_engine("anchor-ahead"));
            let (dir, mut engine) = engine.map(|(dir, e, _)| (dir, e)).unzip();
            let mut ledger = Ledger::new();
            grow(&mut ledger, 2);
            for from in 1..4 {
                let from = ReplicaId::new(0, from);
                c.on_vote(from, 4, state(4), &mut ledger, engine.as_mut());
            }
            assert_eq!(c.tracker.stable_seq(), 4, "a peer quorum without us");
            assert!(c.certified.is_empty(), "block 4 does not exist yet");
            grow(&mut ledger, 3);
            c.resolve(&ledger, engine.as_mut());
            assert!(c.certified.is_empty(), "block 4 does not exist yet");
            grow(&mut ledger, 4);
            c.resolve(&ledger, engine.as_mut());
            let hash = ledger.hash_at(4).expect("appended");
            assert_eq!(c.certified, [(4, state(4), hash)]);
            if let Some(engine) = &engine {
                assert_eq!(
                    engine.get(Keyspace::Checkpoints, &4u64.to_be_bytes()),
                    Some([*state(4).as_bytes(), *hash.as_bytes()].concat())
                );
                let stable = engine.get(Keyspace::Meta, b"stable");
                assert_eq!(stable, Some(4u64.to_le_bytes().to_vec()));
            }
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// An anchor that a later stability compacted past before it was
    /// recorded is skipped, and does not hold back the anchors after it.
    /// The execute loop records anchors after every append, so here the
    /// ledger grows without telling the stage, the one way left to reach
    /// this. Fails if the unrecordable anchor head-of-line blocks the
    /// queue.
    #[test]
    fn an_anchor_compacted_past_before_it_was_recorded_is_skipped() {
        let (mut c, _peers) = checkpointer(CheckpointConfig::every(2), None);
        let mut ledger = Ledger::new();
        grow(&mut ledger, 1);
        let stabilize = |c: &mut Checkpointer, ledger: &mut Ledger, h| {
            for from in 1..4 {
                c.on_vote(ReplicaId::new(0, from), h, state(h), ledger, None);
            }
        };
        stabilize(&mut c, &mut ledger, 2);
        stabilize(&mut c, &mut ledger, 4);
        assert!(c.certified.is_empty(), "neither block exists");
        grow(&mut ledger, 5);
        // Stability at 6 compacts to 4, past the anchor at 2.
        stabilize(&mut c, &mut ledger, 6);
        assert_eq!(ledger.base_height(), 4);
        let heights = |c: &Checkpointer| c.certified.iter().map(|a| a.0).collect::<Vec<_>>();
        assert_eq!(heights(&c), [4], "2 is skipped, 4 is recorded");
        grow(&mut ledger, 6);
        c.resolve(&ledger, None);
        assert_eq!(heights(&c), [4, 6]);
        assert!(c.unresolved.is_empty());
    }
}
