//! The replica runtime: the per-replica staged pipeline, and the timer
//! wheel it shares with the client driver ([`crate::service`]).
//!
//! A replica runs the full Figure-9 pipeline (see the crate docs):
//! input → verifier pool → ordering worker → execution → output, each on
//! its own OS thread(s), connected by *bounded* MPMC channels sized by
//! [`PipelineConfig::queues`] (see [`crate::queue`] for the overload
//! policies) and metered by per-stage counters in [`Metrics`].

use crate::metrics::Metrics;
use crate::pipeline::{
    spawn_checkpointer, spawn_executor, spawn_verifiers, CheckpointMsg, CheckpointReport,
    PipelineConfig, VerifyCtx,
};
use crate::queue::{send_with_policy, StageQueues};
use crate::transport::TransportHandle;
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use rdb_common::ids::NodeId;
use rdb_common::time::SimTime;
use rdb_consensus::api::{Action, Outbox, ReplicaProtocol, TimerKind};
use rdb_consensus::messages::Message;
use rdb_consensus::stage::Stage;
use rdb_consensus::types::Decision;
use rdb_ledger::Ledger;
use rdb_store::KvStore;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Below this size the wheel never bothers compacting.
const WHEEL_MIN_WATERMARK: usize = 64;

/// Timer bookkeeping shared by both runtimes.
///
/// Cancellation is generation-based: cancelling (or re-arming) a kind
/// bumps its generation, orphaning any heap entry carrying the old one.
/// Per-request kinds (`ClientRetry{seq}`, `SpecWindow{seq}`) mint a fresh
/// kind per sequence number, so on long runs the orphaned heap entries and
/// the `gens` slots would otherwise grow without bound; once the
/// structures outgrow a watermark, [`TimerWheel::compact`] rebuilds them
/// keeping only live entries.
pub(crate) struct TimerWheel {
    epoch: Instant,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Instant, u64, TimerKind)>>,
    gens: HashMap<TimerKind, u64>,
    /// Compact when `heap` or `gens` outgrow this; doubled after each
    /// compaction so the amortized cost stays O(log n) per operation.
    watermark: usize,
}

impl TimerWheel {
    pub(crate) fn new(epoch: Instant) -> TimerWheel {
        TimerWheel {
            epoch,
            heap: std::collections::BinaryHeap::new(),
            gens: HashMap::new(),
            watermark: WHEEL_MIN_WATERMARK,
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_nanos() as u64)
    }

    /// The virtual time of an already-taken [`Instant`] (hot paths reuse
    /// one clock read for virtual time and busy accounting).
    fn time_of(&self, t: Instant) -> SimTime {
        SimTime(t.saturating_duration_since(self.epoch).as_nanos() as u64)
    }

    pub(crate) fn set(&mut self, kind: TimerKind, after: rdb_common::time::SimDuration) {
        let gen = self.gens.entry(kind).or_insert(0);
        *gen += 1;
        let due = Instant::now() + Duration::from_nanos(after.as_nanos());
        self.heap.push(std::cmp::Reverse((due, *gen, kind)));
        self.maybe_compact();
    }

    pub(crate) fn cancel(&mut self, kind: TimerKind) {
        *self.gens.entry(kind).or_insert(0) += 1;
        self.maybe_compact();
    }

    fn maybe_compact(&mut self) {
        if self.heap.len().max(self.gens.len()) > self.watermark {
            self.compact();
        }
    }

    /// Drop heap entries whose generation is stale, then forget
    /// generations with no remaining heap entry. The latter is safe
    /// exactly because the former ran first: a kind re-armed later
    /// restarts at generation 1 and no orphaned entry that could match it
    /// survives compaction.
    fn compact(&mut self) {
        let gens = &self.gens;
        let live: Vec<_> = std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .filter(|std::cmp::Reverse((_, gen, kind))| gens.get(kind).copied() == Some(*gen))
            .collect();
        self.heap = live.into();
        let live_kinds: HashSet<TimerKind> = self
            .heap
            .iter()
            .map(|std::cmp::Reverse((_, _, kind))| *kind)
            .collect();
        self.gens.retain(|kind, _| live_kinds.contains(kind));
        self.watermark = (self.heap.len() * 2).max(WHEEL_MIN_WATERMARK);
    }

    /// Pop all due timers whose generation is current.
    pub(crate) fn due(&mut self) -> Vec<TimerKind> {
        let now = Instant::now();
        let mut fired = Vec::new();
        while let Some(std::cmp::Reverse((due, gen, kind))) = self.heap.peek().copied() {
            if due > now {
                break;
            }
            self.heap.pop();
            if self.gens.get(&kind).copied() == Some(gen) {
                fired.push(kind);
            }
        }
        fired
    }

    /// Time until the next (possibly stale) timer.
    pub(crate) fn next_wait(&self) -> Duration {
        match self.heap.peek() {
            Some(std::cmp::Reverse((due, _, _))) => due
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(20)),
            None => Duration::from_millis(20),
        }
    }

    #[cfg(test)]
    fn sizes(&self) -> (usize, usize) {
        (self.heap.len(), self.gens.len())
    }
}

/// A running replica: the staged pipeline of paper Figure 9, plus the
/// checkpoint stage off execution (§2.2 checkpoints).
///
/// ```text
/// transport ─▶ inbox ─▶ [verify ×N] ─▶ worker ─▶ execute ─▶ ledger
///   (input)       │                      │           │
///                 │ (ckpt votes)         │           ▼
///                 └──────────▶ checkpoint ◀── snapshot jobs
///                                        │
///                                        └────▶ output ─▶ transport
/// ```
///
/// The transport's delivery into the node's inbox *is* the input stage
/// (in-process there is no socket to drain, so a dedicated forwarding
/// thread would only add a hand-off); the verifier pool consumes the
/// inbox directly. The checkpoint thread exists only when
/// [`crate::pipeline::CheckpointConfig::interval`] is nonzero.
pub struct ReplicaRuntime {
    node: NodeId,
    shutdown: Arc<AtomicBool>,
    verifier_handles: Vec<JoinHandle<()>>,
    worker_handle: JoinHandle<()>,
    exec_handle: JoinHandle<rdb_crypto::digest::Digest>,
    checkpoint_handle: Option<JoinHandle<CheckpointReport>>,
    output_handle: JoinHandle<()>,
    ledger: Arc<Mutex<Ledger>>,
}

/// Everything a stopped replica hands back.
pub struct ReplicaStopReport {
    /// The replica's ledger (compacted behind its recovery anchor when
    /// the checkpoint stage ran).
    pub ledger: Ledger,
    /// State digest of the execution stage's materialized table.
    pub exec_digest: rdb_crypto::digest::Digest,
    /// The checkpoint stage's final state (None when disabled).
    pub checkpoint: Option<CheckpointReport>,
}

impl ReplicaRuntime {
    /// Spawn the pipeline for `protocol` on `handle`.
    ///
    /// The verifier pool runs [`rdb_consensus::stage::VerifiedMessage::check`]
    /// (with `verify`) on every inbound message, so the worker hands
    /// `protocol` only checked traffic — the precondition of
    /// [`ReplicaProtocol::on_message`] — plus its own loopback messages
    /// (see `dispatch_replica_actions`). `exec_store` is the execution stage's state table (preloaded like
    /// the protocol's own store so state digests line up).
    ///
    /// `initial_ledger` is the chain the execution stage appends onto —
    /// [`Ledger::new`] on a fresh boot, or a ledger recovered from durable
    /// storage on restart; `gap` holds the blocks a restarted replica
    /// lacks below the highest recovered head (empty otherwise), which the
    /// execution stage applies with its first decision. `backend` is the
    /// replica's durable engine
    /// handle (`None` for memory deployments): the executor WAL-logs every
    /// decision through it as it retires, and the checkpoint stage
    /// persists certified checkpoints and flushes.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        mut protocol: Box<dyn ReplicaProtocol>,
        handle: TransportHandle,
        metrics: Metrics,
        epoch: Instant,
        verify: VerifyCtx,
        exec_store: KvStore,
        initial_ledger: Ledger,
        gap: Vec<rdb_ledger::Block>,
        backend: Option<crate::storage::SharedBackend>,
        pipeline: PipelineConfig,
    ) -> ReplicaRuntime {
        let node = handle.node;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Every inter-stage channel is bounded (the tentpole of the
        // backpressure design): an overloaded stage parks or sheds its
        // producers instead of growing memory without bound. Capacities
        // are clamped to ≥ 1 in case a policy was built by hand instead
        // of through the QueuePolicy constructors.
        let queues = pipeline.queues;
        let (work_tx, work_rx) =
            bounded::<rdb_consensus::stage::VerifiedMessage>(queues.work.capacity.max(1));
        let (exec_tx, exec_rx) = bounded::<Decision>(queues.exec.capacity.max(1));
        let (out_tx, out_rx) = bounded::<(NodeId, Message)>(queues.output.capacity.max(1));

        // The verifier pool must be the *sole* owner of the inbox
        // receiver (see `TransportHandle::split`): when the verifiers
        // exit during shutdown, the inbox disconnects and releases any
        // peer parked in a blocking delivery to this replica.
        let (inbox, sender) = handle.split();

        // The ledger is shared between its writer (the execution stage
        // appends) and the checkpoint stage (compacts the stable prefix).
        let ledger = Arc::new(Mutex::new(initial_ledger));

        // Checkpoint stage: snapshot jobs + peer votes -> quorum
        // certification -> ledger compaction. Only spawned when enabled.
        let system = verify.system.clone();
        let (ckpt_tx, checkpoint_handle) = if pipeline.checkpoint.enabled() {
            let (ckpt_tx, ckpt_rx) = bounded::<CheckpointMsg>(queues.checkpoint.capacity.max(1));
            let handle = spawn_checkpointer(
                node,
                system,
                pipeline.checkpoint,
                ckpt_rx,
                sender.clone(),
                Arc::clone(&ledger),
                backend.clone(),
                metrics.clone(),
            );
            (Some(ckpt_tx), Some(handle))
        } else {
            (None, None)
        };

        // Input + verify stages: N parallel threads draining the transport
        // inbox with batched signature checks.
        let verifier_handles = spawn_verifiers(
            node,
            pipeline,
            verify,
            inbox,
            work_tx,
            ckpt_tx.clone(),
            metrics.clone(),
            Arc::clone(&shutdown),
        );

        // Execute stage: decisions -> store + ledger, off the worker path.
        let exec_handle = spawn_executor(
            node,
            exec_store,
            exec_rx,
            Arc::clone(&ledger),
            gap,
            ckpt_tx,
            pipeline.checkpoint,
            queues.checkpoint,
            backend,
            metrics.clone(),
        );

        // Output stage: output queue -> transport.
        let stop = Arc::clone(&shutdown);
        let out_metrics = metrics.clone();
        let output_handle = std::thread::Builder::new()
            .name(format!("{node}-output"))
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match out_rx.recv_timeout(Duration::from_millis(20)) {
                        Ok((to, msg)) => {
                            out_metrics.record_message();
                            sender.send(to, msg);
                            out_metrics.stage_processed(Stage::Output, Duration::ZERO);
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            })
            .expect("spawn output thread");

        // Order stage: the state machine and timers, nothing else.
        let stop = Arc::clone(&shutdown);
        let worker_metrics = metrics;
        let worker_handle = std::thread::Builder::new()
            .name(format!("{node}-worker"))
            .spawn(move || {
                let mut wheel = TimerWheel::new(epoch);
                let mut out = Outbox::new();
                protocol.on_start(wheel.now(), &mut out);
                dispatch_replica_actions(
                    protocol.as_mut(),
                    node,
                    out.take(),
                    &mut wheel,
                    &out_tx,
                    &exec_tx,
                    &worker_metrics,
                    &queues,
                );
                while !stop.load(Ordering::Relaxed) {
                    match work_rx.recv_timeout(wheel.next_wait()) {
                        Ok(vm) => {
                            // One clock read serves both the protocol's
                            // virtual time and the busy measurement.
                            let t0 = Instant::now();
                            let now = wheel.time_of(t0);
                            let (from, msg) = vm.into_parts();
                            let mut out = Outbox::new();
                            protocol.on_message(now, from, msg, &mut out);
                            dispatch_replica_actions(
                                protocol.as_mut(),
                                node,
                                out.take(),
                                &mut wheel,
                                &out_tx,
                                &exec_tx,
                                &worker_metrics,
                                &queues,
                            );
                            worker_metrics.stage_processed(Stage::Order, t0.elapsed());
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                    for kind in wheel.due() {
                        let t0 = Instant::now();
                        let mut out = Outbox::new();
                        protocol.on_timer(wheel.now(), kind, &mut out);
                        dispatch_replica_actions(
                            protocol.as_mut(),
                            node,
                            out.take(),
                            &mut wheel,
                            &out_tx,
                            &exec_tx,
                            &worker_metrics,
                            &queues,
                        );
                        worker_metrics.stage_batch(Stage::Order, 0, 0, t0.elapsed());
                    }
                }
                // Dropping `exec_tx` here lets the executor drain and exit.
            })
            .expect("spawn worker thread");

        ReplicaRuntime {
            node,
            shutdown,
            verifier_handles,
            worker_handle,
            exec_handle,
            checkpoint_handle,
            output_handle,
            ledger,
        }
    }

    /// The node this runtime serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Raise the stop flag without joining. Deployment teardown signals
    /// *every* replica before joining any, so all pipelines stop within
    /// about one loop iteration of each other; joining one replica's
    /// (possibly slow, fault-injected) drain while its peers kept
    /// committing would skew cross-replica watermarks — late-stopped
    /// replicas' heads would run on while their stable checkpoints froze
    /// the moment earlier-stopped peers broke the vote quorum.
    pub fn signal_stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Stop the pipeline and return the replica's ledger, the execution
    /// stage's materialized-table state digest and the checkpoint stage's
    /// final state. The execution stage drains every decision the worker
    /// emitted before exiting.
    pub fn stop(self) -> ReplicaStopReport {
        self.shutdown.store(true, Ordering::SeqCst);
        // Join order follows sender ownership: verifiers (hold work_tx +
        // ckpt_tx) first, then the worker (exec_tx), then the executor
        // (ckpt_tx) — at which point the checkpoint queue disconnects and
        // its never-parking thread drains out.
        for v in self.verifier_handles {
            v.join().expect("verifier thread");
        }
        self.worker_handle.join().expect("worker thread");
        let exec_digest = self.exec_handle.join().expect("execution thread");
        let checkpoint = self
            .checkpoint_handle
            .map(|h| h.join().expect("checkpoint thread"));
        self.output_handle.join().expect("output thread");
        let Ok(ledger) = Arc::try_unwrap(self.ledger) else {
            unreachable!("all ledger holders joined");
        };
        let ledger = ledger.into_inner().unwrap_or_else(PoisonError::into_inner);
        ReplicaStopReport {
            ledger,
            exec_digest,
            checkpoint,
        }
    }
}

/// Run a protocol callback's actions, delivering self-addressed sends
/// straight back into the protocol until it quiesces.
///
/// Protocols multicast votes to *all* members including themselves
/// (`Outbox::multicast`). Routing that self-edge through the transport
/// would thread it through the replica's own bounded input queue, closing
/// a blocking cycle wholly inside one replica — input → work → output →
/// own input — whose capacity (unlike the cross-replica cycles the queue
/// design sizes for, see `tests/pipeline_equivalence.rs`) a single
/// saturated replica can exhaust and deadlock on. The worker handles them
/// inline as ordering work instead, and this is the one delivery path that
/// skips [`rdb_consensus::stage::VerifiedMessage::check`]: a replica's own
/// messages are trusted, not verified.
#[allow(clippy::too_many_arguments)]
fn dispatch_replica_actions(
    protocol: &mut dyn ReplicaProtocol,
    node: NodeId,
    actions: Vec<Action>,
    wheel: &mut TimerWheel,
    out_tx: &Sender<(NodeId, Message)>,
    exec_tx: &Sender<Decision>,
    metrics: &Metrics,
    queues: &StageQueues,
) {
    let mut loopback = VecDeque::new();
    process_replica_actions(
        actions,
        node,
        &mut loopback,
        wheel,
        out_tx,
        exec_tx,
        metrics,
        queues,
    );
    while let Some(msg) = loopback.pop_front() {
        let mut out = Outbox::new();
        protocol.on_message(wheel.now(), node, msg, &mut out);
        process_replica_actions(
            out.take(),
            node,
            &mut loopback,
            wheel,
            out_tx,
            exec_tx,
            metrics,
            queues,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn process_replica_actions(
    actions: Vec<Action>,
    node: NodeId,
    loopback: &mut VecDeque<Message>,
    wheel: &mut TimerWheel,
    out_tx: &Sender<(NodeId, Message)>,
    exec_tx: &Sender<Decision>,
    metrics: &Metrics,
    queues: &StageQueues,
) {
    let (mut sends, mut decisions) = (0u64, 0u64);
    for a in actions {
        match a {
            Action::Send { to, msg } if to == node => loopback.push_back(msg),
            Action::Send { to, msg } => {
                // The worker blocks on a full output queue (its wait is
                // the Output stage's blocked_ns); a Shed policy may drop
                // droppable outbound traffic instead.
                let droppable = msg.droppable();
                if send_with_policy(
                    out_tx,
                    (to, msg),
                    queues.output,
                    droppable,
                    metrics,
                    Stage::Output,
                ) == crate::queue::SendOutcome::Sent
                {
                    sends += 1;
                }
            }
            Action::SetTimer { kind, after } => wheel.set(kind, after),
            Action::CancelTimer { kind } => wheel.cancel(kind),
            Action::Decided(decision) => {
                metrics.record_decision();
                // Decisions are agreed state: never shed, always block
                // (the executor drains continuously, so this wait is
                // bounded by execution lag, not by peers).
                if send_with_policy(
                    exec_tx,
                    decision,
                    queues.exec,
                    false,
                    metrics,
                    Stage::Execute,
                ) == crate::queue::SendOutcome::Sent
                {
                    decisions += 1;
                }
            }
            Action::RequestComplete { .. } => {}
        }
    }
    metrics.stage_enqueued_many(Stage::Output, sends);
    metrics.stage_enqueued_many(Stage::Execute, decisions);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::time::SimDuration;

    fn wheel() -> TimerWheel {
        TimerWheel::new(Instant::now())
    }

    #[test]
    fn wheel_compacts_cancelled_per_request_timers() {
        let mut w = wheel();
        // A long run arming and cancelling a fresh kind per request: both
        // structures must stay bounded by the watermark mechanism.
        for seq in 0..10_000u64 {
            let kind = TimerKind::ClientRetry { seq };
            w.set(kind, SimDuration::from_secs(3_600));
            w.cancel(kind);
        }
        let (heap, gens) = w.sizes();
        assert!(heap <= WHEEL_MIN_WATERMARK, "heap grew to {heap}");
        assert!(gens <= WHEEL_MIN_WATERMARK, "gens grew to {gens}");
    }

    #[test]
    fn wheel_compaction_preserves_live_timers() {
        let mut w = wheel();
        let keep = TimerKind::Progress;
        w.set(keep, SimDuration::from_millis(1));
        for seq in 0..1_000u64 {
            let kind = TimerKind::SpecWindow { seq };
            w.set(kind, SimDuration::from_secs(3_600));
            w.cancel(kind);
        }
        let (heap, _) = w.sizes();
        assert!(heap < 1_000, "stale entries not reclaimed");
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(w.due(), vec![keep], "live timer lost in compaction");
    }

    #[test]
    fn wheel_compaction_does_not_resurrect_cancelled_kinds() {
        let mut w = wheel();
        let kind = TimerKind::ClientRetry { seq: 7 };
        // Arm + cancel, then force a compaction (drops the gens slot).
        w.set(kind, SimDuration::from_millis(1));
        w.cancel(kind);
        w.compact();
        // Re-arming restarts at generation 1; the old generation-1 entry
        // must not have survived to fire a duplicate.
        w.set(kind, SimDuration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(w.due(), vec![kind], "exactly one firing after re-arm");
        assert_eq!(w.due(), Vec::new());
    }

    #[test]
    fn wheel_rearm_supersedes_across_compaction() {
        let mut w = wheel();
        let kind = TimerKind::Progress;
        w.set(kind, SimDuration::from_millis(1));
        w.set(kind, SimDuration::from_millis(50)); // supersedes
        w.compact();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(w.due(), Vec::new(), "superseded timer fired early");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(w.due(), vec![kind]);
    }
}
