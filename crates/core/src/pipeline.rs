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
//! * **Execute** — a scheduler thread that is also lane 0, plus one
//!   thread for each further key-sharded lane
//!   ([`PipelineConfig::exec_lanes`]), applying finalized [`Decision`]s to
//!   the node's `rdb-store` table; the scheduler retires them strictly in
//!   commit order, appending to the `rdb-ledger` chain (and, in durable
//!   mode, writing the decision's WAL batch), so neither store writes nor
//!   ledger hashing sit on the consensus critical path. Every
//!   [`CheckpointConfig::interval`] decisions it snapshots the table
//!   digest into the checkpoint queue.
//! * **Checkpoint** — a dedicated thread that certifies the execution
//!   stage's snapshots against peers (a
//!   [`rdb_consensus::checkpoint::CheckpointTracker`] quorum over
//!   non-droppable `Message::Checkpoint` votes) and, as checkpoints
//!   become stable, compacts the ledger prefix behind a recovery anchor
//!   (`Ledger::compact`). Its queue is Block-policy by design: a
//!   backlogged checkpoint stage parks the executor and throttles the
//!   replica, bounding exec-to-stable lag (see [`crate::queue`]).
//!
//! Every hand-off between stages runs over a *bounded* channel sized by
//! [`PipelineConfig::queues`] (see [`crate::queue`] for the overload
//! policies): the verifier pool blocks on a full work queue, which is how
//! backpressure propagates backwards from the worker to the transport
//! edge and ultimately to submitting clients.

use crate::metrics::Metrics;
use crate::queue::{send_with_policy, QueuePolicy, SendOutcome, StageQueues};
use crate::storage::{self, SharedBackend};
use crate::transport::{Envelope, TransportSender};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use rdb_common::config::SystemConfig;
use rdb_common::ids::{NodeId, ReplicaId};
use rdb_consensus::checkpoint::{self, CheckpointTracker, StableCheckpoint};
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_consensus::messages::Message;
use rdb_consensus::stage::{Stage, VerifiedMessage};
use rdb_consensus::types::Decision;
use rdb_crypto::digest::Digest;
use rdb_ledger::Ledger;
use rdb_store::lanes::{self as store_lanes, LaneItem};
use rdb_store::{KvStore, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
    /// Keep a full [`KvStore`] clone of the last *stable* checkpoint —
    /// the state a restarting replica recovers from
    /// (`rdb_ledger::recover_from_checkpoint`). Costs one table copy per
    /// checkpoint; recovery tests and snapshot-shipping deployments
    /// enable it.
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
}

/// Thread and queue layout of one replica's pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Parallel verifier threads between input and worker.
    pub verifier_threads: usize,
    /// Bounded inter-stage queue layout (capacity + overload policy per
    /// queue; see [`crate::queue`]). Every channel between stages is
    /// bounded — an overloaded replica sheds droppable traffic or blocks
    /// its producers instead of growing memory without bound.
    pub queues: StageQueues,
    /// Checkpoint stage configuration (disabled by default).
    pub checkpoint: CheckpointConfig,
    /// Key-sharded execution lanes (default `1`): key `k` executes on lane
    /// `k % n`, decisions touching disjoint lanes proceed in parallel, and
    /// a commit-order reorder window derived from the exec queue's
    /// capacity bounds out-of-order completion (see the lane-pool section
    /// below). One lane is the degenerate case of the same pool, not a
    /// separate executor. Clamped to [`rdb_store::MAX_LANES`].
    pub exec_lanes: usize,
}

impl Default for PipelineConfig {
    /// Sizes the verifier pool to the hardware, like the paper's fabric
    /// sizes its thread pools to the testbed's cores: one verifier on
    /// small hosts, two on ~8-core machines, up to four beyond that.
    /// Extra pool threads on a starved host only add context switches.
    /// Queues are derived from the default batch size and that fan-out
    /// ([`StageQueues::derive`]).
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let verifier_threads = (cores / 4).clamp(1, 4);
        PipelineConfig {
            verifier_threads,
            queues: StageQueues::derive(10, verifier_threads),
            checkpoint: CheckpointConfig::default(),
            exec_lanes: 1,
        }
    }
}

impl PipelineConfig {
    /// A pipeline with `n` verifier threads (at least one); queues are
    /// re-derived for that fan-out.
    pub fn with_verifiers(n: usize) -> PipelineConfig {
        let n = n.max(1);
        PipelineConfig {
            verifier_threads: n,
            queues: StageQueues::derive(10, n),
            ..PipelineConfig::default()
        }
    }

    /// Set the execution-lane fan-out (clamped to
    /// `1..=`[`rdb_store::MAX_LANES`]).
    pub fn with_exec_lanes(mut self, n: usize) -> PipelineConfig {
        self.exec_lanes = n.clamp(1, rdb_store::MAX_LANES);
        self
    }

    /// The commit-order reorder window of the lane pool: how many
    /// decisions may be in flight (dispatched to lanes, not yet retired)
    /// at once. Derived jointly with the exec queue's bound — the window
    /// *is* the exec queue capacity, so out-of-order completion never
    /// exceeds what the bounded-queue invariant already admits between
    /// the worker and the execute stage.
    pub fn reorder_window(&self) -> usize {
        self.queues.exec.capacity.max(1)
    }
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
    /// ledger height with the materialized table's digest.
    Snapshot {
        /// Ledger height the snapshot covers.
        height: u64,
        /// Digest of the materialized table at that height.
        state: Digest,
        /// A full table clone ([`CheckpointConfig::retain_snapshot`]).
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

/// Spawn the verifier pool: `verify_rx` (the transport inbox — its
/// delivery is the input stage) → checked → `work_tx` (pipeline-scope
/// checkpoint votes go to `ckpt_tx` instead — the checkpoint stage, not
/// the worker, counts them).
// The parameters mirror the stage wiring one-to-one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_verifiers(
    node: NodeId,
    cfg: PipelineConfig,
    verify: VerifyCtx,
    verify_rx: Receiver<Envelope>,
    work_tx: Sender<VerifiedMessage>,
    ckpt_tx: Option<Sender<CheckpointMsg>>,
    metrics: Metrics,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    (0..cfg.verifier_threads.max(1))
        .map(|i| {
            let verify = verify.clone();
            let rx = verify_rx.clone();
            let tx = work_tx.clone();
            let ckpt_tx = ckpt_tx.clone();
            let metrics = metrics.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("{node}-verify{i}"))
                .spawn(move || {
                    verifier_loop(&verify, &rx, &tx, ckpt_tx.as_ref(), &metrics, &stop, cfg)
                })
                .expect("spawn verifier thread")
        })
        .collect()
}

fn verifier_loop(
    verify: &VerifyCtx,
    rx: &Receiver<Envelope>,
    tx: &Sender<VerifiedMessage>,
    ckpt_tx: Option<&Sender<CheckpointMsg>>,
    metrics: &Metrics,
    stop: &AtomicBool,
    cfg: PipelineConfig,
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
                let (mut ok, mut dropped, mut forwarded) = (0u64, 0u64, 0u64);
                for env in batch.drain(..) {
                    match VerifiedMessage::check(&verify.system, &verify.crypto, env.from, env.msg)
                    {
                        Some(vm) => {
                            // Pipeline-scope checkpoint votes feed the
                            // checkpoint stage, never the worker. They
                            // are non-droppable, so a full checkpoint
                            // queue parks this verifier — safe, because
                            // the checkpoint thread never parks and
                            // always comes back to drain (crate::queue).
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
                                    if send_with_policy(
                                        ckpt_tx,
                                        vote,
                                        cfg.queues.checkpoint,
                                        false,
                                        metrics,
                                        Stage::Checkpoint,
                                    ) == SendOutcome::Sent
                                    {
                                        metrics.stage_enqueued(Stage::Checkpoint);
                                    }
                                    continue;
                                }
                            }
                            ok += 1;
                            let droppable = vm.message().droppable();
                            // A full work queue parks this verifier
                            // (Block) — which stops it draining the inbox
                            // and pushes the pressure to the transport
                            // edge — or sheds droppable traffic (Shed),
                            // counted against the Order stage.
                            match send_with_policy(
                                tx,
                                vm,
                                cfg.queues.work,
                                droppable,
                                metrics,
                                Stage::Order,
                            ) {
                                SendOutcome::Sent => forwarded += 1,
                                SendOutcome::Shed => {}
                                SendOutcome::Disconnected => return, // worker gone
                            }
                        }
                        None => dropped += 1,
                    }
                }
                metrics.stage_enqueued_many(Stage::Order, forwarded);
                metrics.stage_batch(Stage::Verify, ok, dropped, t0.elapsed());
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Spawn the execution stage: `exec_rx` → lane apply → commit-order
/// retirement (ledger append into the shared ledger the checkpoint stage
/// compacts, plus the decision's WAL batch when `backend` is set). Runs
/// until the worker drops its sender, so every decision emitted before
/// shutdown is persisted. Returns the materialized table's state digest
/// on join — which must equal the last appended block's `state_digest`
/// (the ordering state machine executed the same decisions against an
/// identically-preloaded store), making the off-path materialization
/// independently auditable.
///
/// With checkpointing enabled the lanes keep their fingerprints *live*
/// (per-write hashing instead of the deferred rebuild): checkpoint
/// snapshots need an O(1) honest table digest at every interval boundary
/// — that hashing is the execute-side cost of checkpointing. Boundaries
/// fall every [`CheckpointConfig::interval`] decisions; snapshot jobs go
/// into the Block-policy checkpoint queue, and when the checkpoint stage
/// lags, that send parks the scheduler, which is precisely the throttle
/// that bounds exec-to-stable lag.
// The parameters mirror the stage wiring one-to-one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_executor(
    node: NodeId,
    store: KvStore,
    exec_rx: Receiver<Decision>,
    ledger: Arc<Mutex<Ledger>>,
    ckpt_tx: Option<Sender<CheckpointMsg>>,
    cfg: CheckpointConfig,
    queue: QueuePolicy,
    lanes: usize,
    reorder_window: usize,
    backend: Option<SharedBackend>,
    metrics: Metrics,
) -> JoinHandle<rdb_crypto::digest::Digest> {
    let lanes = lanes.clamp(1, rdb_store::MAX_LANES);
    std::thread::Builder::new()
        .name(format!("{node}-execute"))
        .spawn(move || {
            run_lane_pool(
                node,
                store,
                exec_rx,
                ledger,
                ckpt_tx,
                cfg,
                queue,
                lanes,
                reorder_window,
                backend,
                metrics,
            )
        })
        .expect("spawn execution thread")
}

// ------------------------------------------------------------------------
// The key-sharded lane pool — the only executor; PipelineConfig::exec_lanes
// == 1 is its degenerate case (lane 0 owns every key, so the whole stage
// is the one execute thread).
//
// The execute thread is a *scheduler*: it analyzes each decision's key
// footprint (rdb_store::lanes::partition_batch), fans the per-lane work
// lists out to N lanes that each own the key-disjoint slice of the table
// with keys ≡ lane (mod N), and retires decisions strictly in commit
// order once every lane they touched reports completion. Lane 0 is the
// scheduler itself — it runs that lane's jobs where it would otherwise
// sit waiting for completions, after handing the other lanes theirs — and
// lanes 1..N are threads. N lanes are N threads; at N = 1 a decision is
// planned, applied, appended and persisted without a thread hand-off.
// Conflict-awareness falls out of the partition: two decisions touching
// the same shard land on the same lane's FIFO and serialize; decisions
// with disjoint footprints run on different lanes concurrently.
//
// Out-of-order completion is bounded by the reorder window W
// (PipelineConfig::reorder_window — the exec queue's capacity): at most W
// decisions are in flight between dispatch and retirement. Lane job
// queues are bounded too; a full queue parks the *scheduler* only, and
// lane threads always drain (their completion/reply channels never
// block), so the scheduler/lane graph stays deadlock-free.
//
// Retirement is the one serialization point, so everything that must
// happen in commit order happens there: the ledger append, Stage::Execute
// accounting, and — in durable mode — the decision's single atomic WAL
// batch. Lane stores run with write capture on; every completion carries
// the (key, value, version) images its job wrote, and retirement
// concatenates them behind the decision's blocks. Lanes own disjoint keys
// and each lane's completions arrive in FIFO order, so the concatenation
// is last-write-wins-correct per key and the on-disk format never learns
// how many lanes wrote it.
//
// Cross-lane transaction programs (rdb_store::txn) are synchronization
// points within their decision: the scheduler follows the batch's
// execution plan (rdb_store::lanes::plan_batch), and for each
// PlanStep::Program it *gathers* the program's static read footprint from
// the owning lanes (a Gather job rides each lane's FIFO, so it observes
// exactly the writes of every earlier operation), evaluates the register
// machine once on the scheduler, and *scatters* the write set back as
// Program jobs — which again ride the FIFOs, so every later operation
// observes them. The home lane's Program job also carries the stats
// note, keeping merged lane statistics identical to in-order execution
// on one table (KvStore::execute_batch).

/// A captured table write: `(key, value, new version)`.
type Image = (u64, Value, u64);

/// A lane's answer to a checkpoint barrier: its index, its 40-byte
/// fingerprint part, and (when snapshots are retained) a clone of its
/// table slice.
type LanePart = (usize, ([u8; 32], u64), Option<KvStore>);

/// One unit of work for a lane: run in place on lane 0, queued on a lane
/// thread's bounded FIFO otherwise.
enum LaneJob {
    /// Apply this decision's lane-local items. `id` is the decision's
    /// dispatch ordinal, echoed in the completion message.
    Apply {
        id: u64,
        items: Vec<LaneItem>,
        fingerprint: bool,
    },
    /// Read the lane-owned keys of a cross-lane program's footprint and
    /// reply with their current values. The reply channel is the
    /// completion signal — no `LaneDone` is sent.
    Gather {
        keys: Vec<u64>,
        reply: Sender<Vec<(u64, Option<Value>)>>,
    },
    /// Scatter a cross-lane program's lane-owned writes (possibly empty)
    /// onto this lane; `note` is `Some(aborted)` on the program's home
    /// lane, which owns the stats bump.
    Program {
        id: u64,
        writes: Vec<(u64, Value)>,
        note: Option<bool>,
        fingerprint: bool,
    },
    /// Checkpoint barrier (queue already drained): report the lane's
    /// fingerprint part — and a clone of its table slice when snapshots
    /// are retained — so the scheduler can certify the combined digest.
    Checkpoint {
        reply: Sender<LanePart>,
        snapshot: bool,
    },
}

/// A lane finished an `Apply` or `Program` job of decision `id`.
struct LaneDone {
    lane: usize,
    id: u64,
    /// Time the lane spent on the job (part of the decision's
    /// Stage::Execute busy time).
    busy: Duration,
    /// The writes the job captured (empty unless durable).
    images: Vec<Image>,
}

/// One in-flight decision in the reorder window.
struct InFlight {
    decision: Decision,
    /// Outstanding jobs per lane for this decision (a decision with
    /// cross-lane programs dispatches several jobs to the same lane:
    /// its plan's `Items` segments plus program write scatters).
    waiting: Vec<u16>,
    /// Total outstanding jobs; the decision is ready to retire at 0.
    left: u32,
    /// Scheduler-side partition + dispatch + program-evaluation cost plus
    /// the lanes' apply time, reported as the decision's Stage::Execute
    /// busy time at retirement.
    busy: Duration,
    /// Captured writes of the completed jobs, for the WAL batch.
    images: Vec<Image>,
}

impl InFlight {
    /// Bitmask of lanes this decision is still waiting on.
    fn waiting_mask(&self) -> u64 {
        self.waiting
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .fold(0u64, |m, (lane, _)| m | 1u64 << lane)
    }
}

/// Run one job against a lane's table slice. `Apply` and `Program` jobs
/// yield the completion that counts against their decision; `Gather` and
/// `Checkpoint` answer on the job's own reply channel.
fn run_job(lane: usize, store: &mut KvStore, job: LaneJob, metrics: &Metrics) -> Option<LaneDone> {
    let (id, t0, ops) = match job {
        LaneJob::Apply {
            id,
            items,
            fingerprint,
        } => {
            let t0 = Instant::now();
            for item in &items {
                store.execute_partial(&item.op, item.home, fingerprint);
            }
            (id, t0, items.len() as u64)
        }
        LaneJob::Gather { keys, reply } => {
            let values = keys.iter().map(|&k| (k, store.get(k))).collect();
            let _ = reply.send(values);
            return None;
        }
        LaneJob::Program {
            id,
            writes,
            note,
            fingerprint,
        } => {
            let t0 = Instant::now();
            for (key, value) in &writes {
                store.apply_program_write(*key, *value, fingerprint);
            }
            // The home lane counts the program as one op, like
            // per-operation accounting on one table.
            let ops = match note {
                Some(aborted) => {
                    store.note_program(aborted);
                    1
                }
                None => 0,
            };
            (id, t0, ops)
        }
        LaneJob::Checkpoint { reply, snapshot } => {
            let snap = snapshot.then(|| store.clone());
            let _ = reply.send((lane, store.fingerprint_part(), snap));
            return None;
        }
    };
    let busy = t0.elapsed();
    metrics.lane_batch(lane, ops, busy);
    Some(LaneDone {
        lane,
        id,
        busy,
        images: store.take_captured(),
    })
}

fn lane_loop(
    lane: usize,
    mut store: KvStore,
    jobs: Receiver<LaneJob>,
    done: Sender<LaneDone>,
    metrics: Metrics,
) -> KvStore {
    for job in jobs.iter() {
        if let Some(completion) = run_job(lane, &mut store, job, &metrics) {
            if done.send(completion).is_err() {
                break; // scheduler gone: shutting down
            }
        }
    }
    store
}

#[allow(clippy::too_many_arguments)]
fn run_lane_pool(
    node: NodeId,
    mut store: KvStore,
    exec_rx: Receiver<Decision>,
    ledger: Arc<Mutex<Ledger>>,
    ckpt_tx: Option<Sender<CheckpointMsg>>,
    cfg: CheckpointConfig,
    queue: QueuePolicy,
    lanes: usize,
    reorder_window: usize,
    backend: Option<SharedBackend>,
    metrics: Metrics,
) -> Digest {
    let mut checkpointing = cfg.enabled() && ckpt_tx.is_some();
    // Checkpoint certification needs honest per-lane fingerprints at
    // every barrier, so lanes hash incrementally; otherwise the
    // decision's state digest is authoritative (the ordering state
    // machine computed it) and lanes defer to one dirty-shard rebuild at
    // shutdown.
    let fingerprint = checkpointing;
    let window = reorder_window.max(1);
    metrics.set_exec_lanes(lanes);
    if backend.is_some() {
        // Durable mode: capture every table write as an absolute
        // (key, value, version) image so the decision's WAL batch carries
        // the exact post-state, not a delta to replay. Lane stores
        // inherit the flag from the table they are split from.
        store.enable_capture();
    }

    // Lane 0 is the scheduler itself; lanes 1.. get a thread each.
    let mut lane_stores = store.split_lanes(lanes).into_iter();
    let mut home = lane_stores.next().expect("at least one lane");
    let (done_tx, done_rx) = crossbeam::channel::unbounded::<LaneDone>();
    let mut job_txs: Vec<Sender<LaneJob>> = Vec::with_capacity(lanes - 1);
    let mut lane_handles: Vec<JoinHandle<KvStore>> = Vec::with_capacity(lanes - 1);
    for (lane, lane_store) in (1..).zip(lane_stores) {
        // Window-bounded FIFO: at most `window` decisions are in flight;
        // a plain decision sends this lane at most one job (the +1 covers
        // the barrier probe), so its dispatch never blocks. Decisions with
        // cross-lane programs may send several jobs and can park the
        // scheduler on a full FIFO — safe, because lanes always drain.
        let (tx, rx) = crossbeam::channel::bounded::<LaneJob>(window + 1);
        let done = done_tx.clone();
        let lane_metrics = metrics.clone();
        let handle = std::thread::Builder::new()
            .name(format!("{node}-exec-lane{lane}"))
            .spawn(move || lane_loop(lane, lane_store, rx, done, lane_metrics))
            .expect("spawn lane thread");
        job_txs.push(tx);
        lane_handles.push(handle);
    }
    drop(done_tx);
    // Hand `job` to `lane`. A lane-0 job runs here and now, and its
    // completion (if the job has one) comes back as the return value;
    // every other lane's arrives on `done_rx` later.
    let mut dispatch = |lane: usize, job: LaneJob| -> Option<LaneDone> {
        if lane == 0 {
            run_job(0, &mut home, job, &metrics)
        } else {
            job_txs[lane - 1].send(job).expect("lane thread alive");
            None
        }
    };

    // The reorder window: decisions dispatched but not yet retired, in
    // commit order. `retired` counts retirements, so in-flight decision
    // `id` lives at index `id - retired`.
    let mut window_q: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let mut next_id = 0u64;
    let mut retired = 0u64;
    let mut decided = 0u64;

    // Mark a completion against the window.
    let mark = |window_q: &mut VecDeque<InFlight>, retired: u64, done: LaneDone| {
        let idx = (done.id - retired) as usize;
        let f = &mut window_q[idx];
        f.waiting[done.lane] -= 1;
        f.left -= 1;
        f.busy += done.busy;
        f.images.extend(done.images);
    };
    // Retire every ready decision at the window head, in commit order:
    // append to the shared ledger, persist, account the Execute stage.
    let retire_ready = |window_q: &mut VecDeque<InFlight>, retired: &mut u64| {
        while window_q.front().is_some_and(|f| f.left == 0) {
            let f = window_q.pop_front().expect("checked front");
            let t0 = Instant::now();
            let (height, new_blocks) = {
                let mut l = ledger.lock();
                let prev = l.head_height();
                l.append_decision(&f.decision);
                let head = l.head_height();
                // Durable mode: clone the block(s) this decision appended
                // while still under the lock, so the persisted chain
                // segment is exactly what the ledger linked.
                let new_blocks: Vec<rdb_ledger::Block> = if backend.is_some() {
                    (prev + 1..=head)
                        .map(|h| l.block(h).expect("just appended").clone())
                        .collect()
                } else {
                    Vec::new()
                };
                (head, new_blocks)
            };
            if let Some(be) = &backend {
                // One decision = one atomic WAL batch: blocks + absolute
                // table images from every lane + applied watermark. A torn
                // tail therefore truncates to a decision boundary on
                // recovery.
                storage::persist_decision(be, &new_blocks, &f.images, height)
                    .expect("durable storage write failed");
            }
            metrics.stage_processed(Stage::Execute, f.busy + t0.elapsed());
            *retired += 1;
        }
    };
    // Wait for completions until at most `keep` decisions are in flight,
    // attributing each wait to the lanes the window head is still missing
    // (the conflict stall).
    let drain_to = |window_q: &mut VecDeque<InFlight>, retired: &mut u64, keep: usize| {
        while window_q.len() > keep {
            let head_mask = window_q.front().map_or(0, |f| f.waiting_mask());
            let t0 = Instant::now();
            let Ok(done) = done_rx.recv() else {
                break; // every lane thread exited (panic): give up
            };
            metrics.lane_stalled(head_mask, t0.elapsed());
            mark(window_q, *retired, done);
            retire_ready(window_q, retired);
        }
    };

    loop {
        // With work in flight, take a new decision only if one is already
        // queued (keeps the lanes fed); otherwise wait for a completion,
        // so the window head retires — and its WAL batch lands — without
        // waiting for unrelated later traffic.
        let decision = if window_q.is_empty() {
            match exec_rx.recv() {
                Ok(decision) => decision,
                Err(_) => break,
            }
        } else {
            match exec_rx.try_recv() {
                Ok(decision) => decision,
                Err(TryRecvError::Empty) => {
                    // Idle, not stalled: nothing is queued behind the
                    // lanes, so this wait is not booked as conflict stall.
                    match done_rx.recv() {
                        Ok(done) => mark(&mut window_q, retired, done),
                        Err(_) => break, // every lane thread exited
                    }
                    retire_ready(&mut window_q, &mut retired);
                    continue;
                }
                Err(TryRecvError::Disconnected) => break,
            }
        };
        // Reorder-window bound: park until the head retires.
        drain_to(&mut window_q, &mut retired, window - 1);
        let t0 = Instant::now();
        let ops = decision
            .entries
            .iter()
            .flat_map(|e| e.batch.batch.operations());
        let plan = store_lanes::plan_batch(ops, lanes);
        let mut waiting = vec![0u16; lanes];
        let mut left = 0u32;
        // Lane 0's captured writes; its apply time is inside `t0`.
        let mut images: Vec<Image> = Vec::new();
        for step in plan {
            match step {
                store_lanes::PlanStep::Items(parts) => {
                    // Highest lane first, so the threads are already
                    // working while the scheduler applies lane 0's share.
                    for (lane, items) in parts.into_iter().enumerate().rev() {
                        if items.is_empty() {
                            continue;
                        }
                        let job = LaneJob::Apply {
                            id: next_id,
                            items,
                            fingerprint,
                        };
                        match dispatch(lane, job) {
                            Some(done) => images.extend(done.images),
                            None => {
                                waiting[lane] += 1;
                                left += 1;
                            }
                        }
                    }
                }
                store_lanes::PlanStep::Program(step) => {
                    // Gather the static footprint from the owning lanes.
                    // The Gather job rides each lane's FIFO behind every
                    // earlier job of this (and prior) decisions, so the
                    // values it reads are exactly the in-order state.
                    let mut lane_keys: Vec<Vec<u64>> = vec![Vec::new(); lanes];
                    for key in step.prog.keys() {
                        lane_keys[store_lanes::lane_of(key, lanes)].push(key);
                    }
                    let (reply_tx, reply_rx) =
                        crossbeam::channel::bounded::<Vec<(u64, Option<Value>)>>(lanes);
                    let mut expected = 0;
                    for (lane, keys) in lane_keys.into_iter().enumerate() {
                        if keys.is_empty() {
                            continue;
                        }
                        expected += 1;
                        let reply = reply_tx.clone();
                        dispatch(lane, LaneJob::Gather { keys, reply });
                    }
                    drop(reply_tx);
                    let mut values: BTreeMap<u64, Option<Value>> = BTreeMap::new();
                    for _ in 0..expected {
                        for (key, value) in reply_rx.recv().expect("lane thread alive") {
                            values.insert(key, value);
                        }
                    }
                    // Evaluate once on the scheduler, then scatter the
                    // write set back onto the owning lanes; the home lane
                    // additionally books the program's stats.
                    let (outcome, writes) =
                        step.prog.eval_values(|k| values.get(&k).copied().flatten());
                    let mut lane_writes: Vec<Vec<(u64, Value)>> = vec![Vec::new(); lanes];
                    for (key, value) in writes {
                        lane_writes[store_lanes::lane_of(key, lanes)].push((key, value));
                    }
                    for (lane, writes) in lane_writes.into_iter().enumerate() {
                        let note = (lane == step.home).then(|| outcome.is_aborted());
                        if writes.is_empty() && note.is_none() {
                            continue;
                        }
                        let job = LaneJob::Program {
                            id: next_id,
                            writes,
                            note,
                            fingerprint,
                        };
                        match dispatch(lane, job) {
                            Some(done) => images.extend(done.images),
                            None => {
                                waiting[lane] += 1;
                                left += 1;
                            }
                        }
                    }
                }
            }
        }
        window_q.push_back(InFlight {
            decision,
            waiting,
            left,
            busy: t0.elapsed(),
            images,
        });
        next_id += 1;
        decided += 1;

        // Opportunistically drain completions and retire.
        while let Ok(done) = done_rx.try_recv() {
            mark(&mut window_q, retired, done);
        }
        retire_ready(&mut window_q, &mut retired);

        // Checkpoint interval boundary, counted in decisions: drain the
        // window so the lanes have materialized exactly the committed
        // prefix, then certify the combined digest at the boundary height.
        if checkpointing && decided.is_multiple_of(cfg.interval) {
            drain_to(&mut window_q, &mut retired, 0);
            let height = ledger.lock().head_height();
            let (reply_tx, reply_rx) = crossbeam::channel::bounded::<LanePart>(lanes);
            for lane in (0..lanes).rev() {
                let job = LaneJob::Checkpoint {
                    reply: reply_tx.clone(),
                    snapshot: cfg.retain_snapshot,
                };
                dispatch(lane, job);
            }
            drop(reply_tx);
            let mut parts: Vec<([u8; 32], u64)> = Vec::with_capacity(lanes);
            let mut snaps: Vec<KvStore> = Vec::new();
            for _ in 0..lanes {
                let (_, part, snap) = reply_rx.recv().expect("lane thread alive");
                parts.push(part);
                snaps.extend(snap);
            }
            let state = KvStore::digest_from_parts(parts);
            let snapshot = cfg.retain_snapshot.then(|| KvStore::merge_lanes(snaps));
            let tx = ckpt_tx.as_ref().expect("checkpointing implies sender");
            match send_with_policy(
                tx,
                CheckpointMsg::Snapshot {
                    height,
                    state,
                    snapshot,
                },
                queue,
                false,
                &metrics,
                Stage::Checkpoint,
            ) {
                SendOutcome::Sent => metrics.stage_enqueued(Stage::Checkpoint),
                SendOutcome::Shed => unreachable!("snapshots never shed"),
                SendOutcome::Disconnected => checkpointing = false,
            }
        }
    }

    // Worker gone: drain the window, stop the lanes, reassemble the
    // combined digest for the execution-stage audit.
    drain_to(&mut window_q, &mut retired, 0);
    drop(job_txs);
    drop(done_rx);
    let mut stores = vec![home];
    stores.extend(
        lane_handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked")),
    );
    if !fingerprint {
        for s in &mut stores {
            // Dirty-shard rebuild: only the slices this lane wrote.
            s.rebuild_fingerprint();
        }
    }
    KvStore::combined_state_digest(&stores)
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
/// retried on a full peer inbox, never parked on — so this thread always
/// returns to drain its queue, keeping the Block-policy backpressure
/// chain (executor → checkpoint queue → this thread) deadlock-free.
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
                        let mut l = ledger.lock();
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
                        let l = ledger.lock();
                        (l.block(front.seq).map(|b| b.hash()), l.base_height())
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
    use crate::queue::QueuePolicy;
    use crossbeam::channel::{bounded, unbounded};
    use rdb_common::ids::{ClientId, ClusterId, ReplicaId};
    use rdb_consensus::messages::{Message, Scope};
    use rdb_consensus::types::{ClientBatch, DecisionEntry, SignedBatch, Transaction};
    use rdb_crypto::digest::Digest;
    use rdb_crypto::sign::KeyStore;
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
            }],
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
        let (work_tx, work_rx) = unbounded::<VerifiedMessage>();
        let metrics = Metrics::new();
        let stop = Arc::new(AtomicBool::new(false));
        let handles = spawn_verifiers(
            ReplicaId::new(0, 0).into(),
            PipelineConfig::with_verifiers(3),
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

    #[test]
    fn verifier_pool_sheds_droppable_traffic_at_full_work_queue() {
        let (verify, _ks) = verify_ctx();
        let (verify_tx, verify_rx) = unbounded::<Envelope>();
        // A work queue of 2 that nobody drains: the first two verified
        // messages fill it, the rest must be shed (Prepares are
        // droppable), never blocking the verifier.
        let (work_tx, work_rx) = bounded::<VerifiedMessage>(2);
        let metrics = Metrics::new();
        let stop = Arc::new(AtomicBool::new(false));
        let mut cfg = PipelineConfig::with_verifiers(1);
        cfg.queues.work = QueuePolicy::shed(2);
        let handles = spawn_verifiers(
            ReplicaId::new(0, 0).into(),
            cfg,
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
        // The verifier keeps draining (never parks): wait until all six
        // messages are accounted for as forwarded-or-shed.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = metrics.stage_snapshot();
            let row = snap.row(Stage::Order);
            if row.enqueued + row.shed == 6 {
                break;
            }
            assert!(Instant::now() < deadline, "stalled: {}", snap.summary());
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
        let snap = metrics.stage_snapshot();
        assert_eq!(snap.row(Stage::Order).enqueued, 2);
        assert_eq!(snap.row(Stage::Order).shed, 4);
        assert_eq!(snap.row(Stage::Verify).processed, 6, "all were verified");
        assert_eq!(work_rx.len(), 2, "queue depth stayed at its bound");
    }

    #[test]
    fn verifier_pool_blocks_on_undroppable_traffic() {
        let (verify, ks) = verify_ctx();
        let (verify_tx, verify_rx) = unbounded::<Envelope>();
        let (work_tx, work_rx) = bounded::<VerifiedMessage>(1);
        let metrics = Metrics::new();
        let stop = Arc::new(AtomicBool::new(false));
        let mut cfg = PipelineConfig::with_verifiers(1);
        // Even under Shed, client Requests are non-droppable: the
        // verifier parks on the full queue instead of losing them.
        cfg.queues.work = QueuePolicy::shed(1);
        let handles = spawn_verifiers(
            ReplicaId::new(0, 0).into(),
            cfg,
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

    /// A decision carrying one client batch of `ops`.
    fn decision(seq: u64, ops: Vec<Operation>) -> Decision {
        let client = ClientId::new(0, 0);
        let txns = ops
            .into_iter()
            .map(|op| Transaction { client, seq, op })
            .collect();
        Decision {
            seq,
            entries: vec![DecisionEntry {
                origin: Some(ClusterId(0)),
                batch: SignedBatch {
                    batch: ClientBatch {
                        client,
                        batch_seq: seq,
                        txns,
                    },
                    pubkey: Default::default(),
                    sig: Default::default(),
                },
            }],
            state_digest: Digest::of(&seq.to_le_bytes()),
        }
    }

    /// `n` decisions of one write each (key = value = seq).
    fn write_decisions(n: u64) -> Vec<Decision> {
        (1..=n)
            .map(|seq| {
                let value = rdb_store::Value::from_u64(seq);
                decision(seq, vec![Operation::Write { key: seq, value }])
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

    /// Drive `spawn_executor` at `lanes` over `decisions` on `store`.
    fn run_executor(
        lanes: usize,
        window: usize,
        store: KvStore,
        decisions: &[Decision],
        cfg: CheckpointConfig,
        backend: Option<SharedBackend>,
    ) -> ExecRun {
        let (exec_tx, exec_rx) = unbounded::<Decision>();
        let (ckpt_tx, ckpt_rx) = bounded::<CheckpointMsg>(64);
        let metrics = Metrics::new();
        let ledger = Arc::new(parking_lot::Mutex::new(Ledger::new()));
        let handle = spawn_executor(
            ReplicaId::new(0, 0).into(),
            store,
            exec_rx,
            Arc::clone(&ledger),
            cfg.enabled().then_some(ckpt_tx),
            cfg,
            QueuePolicy::block(8),
            lanes,
            window,
            backend,
            metrics.clone(),
        );
        for d in decisions {
            exec_tx.send(d.clone()).unwrap();
        }
        drop(exec_tx); // worker shutdown: executor drains and returns
        let digest = handle.join().unwrap();
        let jobs: Vec<CheckpointMsg> = ckpt_rx.iter().collect();
        let Ok(ledger) = Arc::try_unwrap(ledger) else {
            unreachable!("executor joined");
        };
        ExecRun {
            digest,
            ledger: ledger.into_inner(),
            jobs,
            metrics,
        }
    }

    /// The reference the pool is pinned to: the same decisions applied
    /// inline, in order, with [`KvStore::execute_batch`] (the ordering
    /// state machine's own executor) and appended to a ledger. Returns
    /// the ledger and the table after each prefix (`[0]` = before any).
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

    #[test]
    fn executor_applies_decisions_in_order() {
        let decisions = write_decisions(5);
        let run = run_executor(
            1,
            8,
            KvStore::new(),
            &decisions,
            CheckpointConfig::default(),
            None,
        );
        // The materialized table matches an inline application of the
        // same writes (fingerprint rebuilt after the deferred applies).
        let (_, prefixes) = reference(KvStore::new(), &decisions);
        assert_eq!(run.digest, prefixes[5].state_digest());
        assert_eq!(run.ledger.head_height(), 5);
        // FIFO hand-off preserves decision order in the chain.
        for h in 1..=5u64 {
            let block = run.ledger.block(h).expect("block present");
            assert_eq!(block.batch.batch.batch_seq, h);
            assert_eq!(block.state_digest, Digest::of(&h.to_le_bytes()));
        }
        run.ledger.verify(None).expect("chain linkage intact");
        let snap = run.metrics.stage_snapshot();
        assert_eq!(snap.row(Stage::Execute).processed, 5);
        assert!(
            snap.row(Stage::Execute).busy >= snap.lanes[0].busy,
            "Execute busy time includes the lanes' apply time"
        );
    }

    #[test]
    fn lane_pool_is_byte_identical_to_sequential() {
        let decisions = write_decisions(20);
        let (ref_ledger, prefixes) = reference(KvStore::with_ycsb_records(64), &decisions);
        for lanes in [1usize, 2, 4] {
            let run = run_executor(
                lanes,
                8,
                KvStore::with_ycsb_records(64),
                &decisions,
                CheckpointConfig::default(),
                None,
            );
            assert_eq!(run.digest, prefixes[20].state_digest(), "lanes={lanes}");
            assert_eq!(run.ledger.head_height(), ref_ledger.head_height());
            for h in 1..=20u64 {
                assert_eq!(
                    run.ledger.block(h).unwrap().hash(),
                    ref_ledger.block(h).unwrap().hash(),
                    "block {h} diverged at lanes={lanes}"
                );
            }
            let snap = run.metrics.stage_snapshot();
            assert_eq!(snap.row(Stage::Execute).processed, 20);
            assert_eq!(snap.lanes.len(), lanes, "per-lane rows surfaced");
            let lane_ops: u64 = snap.lanes.iter().map(|l| l.ops).sum();
            assert_eq!(lane_ops, 20, "one write per decision, counted once");
        }
    }

    #[test]
    fn lane_pool_checkpoints_at_identical_boundaries() {
        let cfg = CheckpointConfig {
            interval: 3,
            retain_snapshot: true,
            fault_delay: Duration::ZERO,
        };
        let decisions = write_decisions(10);
        let (_, prefixes) = reference(KvStore::with_ycsb_records(64), &decisions);
        for lanes in [1usize, 4] {
            let run = run_executor(
                lanes,
                8,
                KvStore::with_ycsb_records(64),
                &decisions,
                cfg,
                None,
            );
            assert_eq!(run.digest, prefixes[10].state_digest(), "lanes={lanes}");
            // Interval 3 over 10 decisions: snapshot jobs at 3, 6 and 9.
            assert_eq!(run.jobs.len(), 3, "lanes={lanes}");
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
                assert_eq!(*state, expected.state_digest(), "combined lane digest");
                let snap = snapshot.as_ref().expect("retained");
                assert_eq!(snap.state_digest(), *state);
                assert_eq!(snap.stats(), expected.stats(), "merged lane stats match");
                assert!(snap.verify_fingerprint(), "snapshot digest is live");
            }
            let snap = run.metrics.stage_snapshot();
            assert_eq!(snap.row(Stage::Checkpoint).enqueued, 3);
        }
    }

    #[test]
    fn lane_pool_respects_tiny_reorder_window() {
        // Window of 1 degenerates to lock-step dispatch; still correct.
        let decisions = write_decisions(12);
        let (ref_ledger, prefixes) = reference(KvStore::with_ycsb_records(64), &decisions);
        let run = run_executor(
            4,
            1,
            KvStore::with_ycsb_records(64),
            &decisions,
            CheckpointConfig::default(),
            None,
        );
        assert_eq!(run.digest, prefixes[12].state_digest());
        assert_eq!(
            run.ledger.block(12).unwrap().hash(),
            ref_ledger.block(12).unwrap().hash()
        );
    }

    #[test]
    fn durable_executor_persists_one_batch_per_decision_at_any_lane_count() {
        use rdb_storage::{LogBackend, LogConfig, StorageBackend};
        use rdb_store::txn::TxnProgram;
        // Multi-key decisions: keys on every lane, a key written twice in
        // one decision and again in the next, and a cross-lane program.
        const N: u64 = 12;
        let decisions: Vec<Decision> = (1..=N)
            .map(|seq| {
                let write = |key: u64, v: u64| Operation::Write {
                    key,
                    value: rdb_store::Value::from_u64(v),
                };
                decision(
                    seq,
                    vec![
                        write(seq, seq),
                        write(seq + 1, 7 * seq),
                        Operation::Rmw { key: 5, delta: seq },
                        write(seq, 100 + seq),
                        Operation::Txn(TxnProgram::transfer(40 + seq, 21 + seq, 3)),
                        Operation::Read { key: 2 },
                    ],
                )
            })
            .collect();
        for lanes in [1usize, 4] {
            let dir = std::env::temp_dir()
                .join(format!("rdb-core-exec-wal-{lanes}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let preload = KvStore::with_ycsb_records(64);
            let mut engine = LogBackend::open(&dir, LogConfig::default()).unwrap();
            storage::init_replica(&mut engine, &preload).unwrap();
            let before = engine.stats().wal_records;
            let backend: SharedBackend = Arc::new(Mutex::new(engine));
            let run = run_executor(
                lanes,
                8,
                preload,
                &decisions,
                CheckpointConfig::default(),
                Some(Arc::clone(&backend)),
            );
            let engine = backend.lock();
            // One atomic WAL batch per decision, so a torn tail still
            // truncates to a decision boundary.
            assert_eq!(engine.stats().wal_records - before, N, "lanes={lanes}");
            let (table, ledger) = storage::recover_replica(&engine).unwrap();
            assert_eq!(ledger.head_height(), N);
            assert_eq!(ledger.head_hash(), run.ledger.head_hash());
            assert_eq!(table.state_digest(), run.digest, "lanes={lanes}");
            drop(engine);
            let _ = std::fs::remove_dir_all(&dir);
        }
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
        let ledger = Arc::new(parking_lot::Mutex::new(Ledger::new()));
        let mut states = vec![Digest::ZERO];
        {
            let mut l = ledger.lock();
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
        let l = l.into_inner();
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
