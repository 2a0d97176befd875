//! The replica runtime: the per-replica staged pipeline, and the timer
//! wheel it shares with the client driver ([`crate::service`]).
//!
//! A replica runs the full Figure-9 pipeline (see the crate docs):
//! input → verifier pool → ordering worker → execution, each on its own
//! OS thread(s), connected by *bounded* MPMC channels sized by
//! [`PipelineConfig::queues`] and fed through [`crate::queue`]'s one
//! sender, which meters every hand-off in per-stage [`Metrics`] counters.
//! The output stage is the worker's hand-off of its messages to the
//! transport, after each callback.

use crate::metrics::Metrics;
use crate::pipeline::{
    spawn_executor, spawn_verifiers, CheckpointReport, Checkpointer, ExecInput, ExecStart,
    PipelineConfig, VerifyCtx,
};
use crate::queue::{stage_queue, QueuePolicy, StageSender};
use crate::transport::{TransportHandle, TransportSender};
use crossbeam::channel::RecvTimeoutError;
use rdb_common::ids::NodeId;
use rdb_common::time::SimTime;
use rdb_consensus::api::{Action, Outbox, ReplicaProtocol, TimerKind};
use rdb_consensus::messages::Message;
use rdb_consensus::stage::Stage;
use rdb_ledger::Ledger;
use rdb_storage::LogBackend;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Below this size the wheel never bothers compacting.
const WHEEL_MIN_WATERMARK: usize = 64;

/// Timer bookkeeping shared by both runtimes.
///
/// One rule, the simulator's too: every arming takes a fresh generation
/// from a per-wheel counter (never reused), `gens` maps each *armed* kind
/// to its live generation, and an entry leaves `gens` when its timer
/// fires or is cancelled. A heap entry fires only if its generation is
/// still the kind's live one, so re-arming supersedes and cancelling
/// orphans it. `gens` is therefore bounded by the armed timers; the
/// orphaned heap entries are dropped by [`TimerWheel::compact`] once the
/// heap outgrows a watermark.
pub(crate) struct TimerWheel {
    epoch: Instant,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Instant, u64, TimerKind)>>,
    gens: HashMap<TimerKind, u64>,
    next_gen: u64,
    /// Compact when `heap` outgrows this; doubled after each compaction
    /// so the amortized cost stays O(log n) per operation.
    watermark: usize,
}

impl TimerWheel {
    pub(crate) fn new(epoch: Instant) -> TimerWheel {
        TimerWheel {
            epoch,
            heap: std::collections::BinaryHeap::new(),
            gens: HashMap::new(),
            next_gen: 0,
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
        self.next_gen += 1;
        self.gens.insert(kind, self.next_gen);
        let due = Instant::now() + Duration::from_nanos(after.as_nanos());
        self.heap
            .push(std::cmp::Reverse((due, self.next_gen, kind)));
        if self.heap.len() > self.watermark {
            self.compact();
        }
    }

    pub(crate) fn cancel(&mut self, kind: TimerKind) {
        self.gens.remove(&kind);
    }

    /// Drop heap entries whose generation is no longer live.
    fn compact(&mut self) {
        let gens = &self.gens;
        self.heap
            .retain(|std::cmp::Reverse((_, gen, kind))| gens.get(kind) == Some(gen));
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
            if self.gens.get(&kind) == Some(&gen) {
                self.gens.remove(&kind);
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

/// A running replica: the staged pipeline of paper Figure 9, with §2.2's
/// checkpoints on the execute thread.
///
/// ```text
/// transport ─▶ inbox ─▶ [verify ×N] ─▶ worker ─▶ execute + checkpoint ─▶ ledger (+ engine)
///   (input)               │              │          ▲
///                         └ (votes) ─────┼──────────┘
///                                        └─ (output) ─▶ transport
/// ```
///
/// The transport's delivery into the node's inbox *is* the input stage
/// (in-process there is no socket to drain, so a dedicated forwarding
/// thread would only add a hand-off); the verifier pool consumes the
/// inbox directly. Likewise the worker's hand-off of its messages to the
/// transport *is* the output stage: in-process a send is one push into a
/// peer inbox that sheds the worker's (droppable) traffic when full, so
/// an output thread would only add a hand-off too. Over TCP the worker
/// writes the frame itself and parks on a full socket buffer. The
/// execute thread owns the ledger and, in durable mode, the engine; when
/// [`crate::pipeline::CheckpointConfig::interval`] is nonzero it also
/// certifies and compacts them. A replica, checkpointed or not, thus runs
/// `verifier_threads + 2` threads.
pub struct ReplicaRuntime {
    node: NodeId,
    shutdown: Arc<AtomicBool>,
    verifier_handles: Vec<JoinHandle<()>>,
    worker_handle: JoinHandle<()>,
    exec_handle: JoinHandle<ReplicaStopReport>,
}

/// Everything a stopped replica hands back.
pub struct ReplicaStopReport {
    /// The replica's ledger (compacted behind its recovery anchor when
    /// the checkpoint stage ran).
    pub ledger: Ledger,
    /// State digest of the last decision the execution stage persisted
    /// (of the replica's boot table before any).
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
    /// (see `Worker::dispatch`). `protocol` holds the replica's
    /// one table; the execution stage executes nothing and starts from
    /// `exec` (the boot table's digest, the snapshot mirror when
    /// snapshots are retained, and a restarted replica's gap, which it
    /// writes with its first decision).
    ///
    /// `initial_ledger` is the chain the execution stage appends onto —
    /// [`Ledger::new`] on a fresh boot, or a ledger recovered from durable
    /// storage on restart. `backend` is the replica's durable engine
    /// (`None` for memory deployments): the execute thread owns it, WAL-logs
    /// every decision through it as it retires, persists certified
    /// checkpoints, and flushes it on exit.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        protocol: Box<dyn ReplicaProtocol>,
        handle: TransportHandle,
        metrics: Metrics,
        epoch: Instant,
        verify: VerifyCtx,
        exec: ExecStart,
        initial_ledger: Ledger,
        backend: Option<LogBackend>,
        pipeline: PipelineConfig,
    ) -> ReplicaRuntime {
        let node = handle.node;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Every inter-stage channel is bounded and blocking: an
        // overloaded stage parks its producers instead of growing memory
        // without bound.
        let queues = pipeline.queues;
        let (work_tx, work_rx) =
            stage_queue(QueuePolicy::block(queues.work), Stage::Order, &metrics);
        let (exec_tx, exec_rx) =
            stage_queue(QueuePolicy::block(queues.exec), Stage::Execute, &metrics);

        // The verifier pool must be the *sole* owner of the inbox
        // receiver (see `TransportHandle::split`): when the verifiers
        // exit during shutdown, the inbox disconnects and releases any
        // peer parked in a blocking delivery to this replica.
        let (inbox, sender) = handle.split();

        // Checkpoint stage: own boundaries + peer votes -> quorum
        // certification -> ledger compaction, on the execute thread. The
        // verifiers' votes ride the exec queue beside the worker's
        // decisions, counted as Checkpoint traffic.
        let (vote_tx, checkpointer) = match node {
            NodeId::Replica(me) if pipeline.checkpoint.enabled() => (
                Some(exec_tx.for_stage(Stage::Checkpoint)),
                Some(Checkpointer::new(
                    me,
                    &verify.system,
                    pipeline.checkpoint,
                    sender.clone(),
                )),
            ),
            _ => (None, None),
        };

        // Input + verify stages: N parallel threads draining the transport
        // inbox with batched signature checks.
        let verifier_handles = spawn_verifiers(
            node,
            pipeline.verifier_threads,
            verify,
            inbox,
            work_tx,
            vote_tx,
            metrics.clone(),
            Arc::clone(&shutdown),
        );

        // Execute stage: decisions -> ledger (+ WAL), off the worker path,
        // plus the checkpoint stage.
        let exec_handle = spawn_executor(
            node,
            exec,
            initial_ledger,
            backend,
            checkpointer,
            exec_rx,
            metrics.clone(),
        );

        // Order stage: the state machine and timers; then the output
        // stage, the hand-off of each callback's messages to the transport.
        let stop = Arc::clone(&shutdown);
        let mut worker = Worker {
            protocol,
            node,
            wheel: TimerWheel::new(epoch),
            loopback: VecDeque::new(),
            sends: Vec::new(),
            exec_tx,
            sender,
            metrics,
        };
        let worker_handle = std::thread::Builder::new()
            .name(format!("{node}-worker"))
            .spawn(move || {
                let mut out = Outbox::new();
                let t0 = Instant::now();
                worker.protocol.on_start(worker.wheel.time_of(t0), &mut out);
                worker.dispatch(&mut out, t0, 0);
                while !stop.load(Ordering::Relaxed) {
                    match work_rx.recv_timeout(worker.wheel.next_wait()) {
                        Ok(vm) => {
                            // One clock read serves both the protocol's
                            // virtual time and the busy measurement.
                            let t0 = Instant::now();
                            let (from, msg) = vm.into_parts();
                            let now = worker.wheel.time_of(t0);
                            worker.protocol.on_message(now, from, msg, &mut out);
                            worker.dispatch(&mut out, t0, 1);
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                    for kind in worker.wheel.due() {
                        let t0 = Instant::now();
                        let now = worker.wheel.time_of(t0);
                        worker.protocol.on_timer(now, kind, &mut out);
                        worker.dispatch(&mut out, t0, 0);
                    }
                }
                // Dropping the worker's `exec_tx` here lets the executor
                // drain and exit.
            })
            .expect("spawn worker thread");

        ReplicaRuntime {
            node,
            shutdown,
            verifier_handles,
            worker_handle,
            exec_handle,
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

    /// Stop the pipeline and return the replica's ledger, the state digest
    /// of the last decision the execution stage persisted and the
    /// checkpoint stage's final state. The execution stage drains every
    /// decision the worker emitted before exiting.
    pub fn stop(self) -> ReplicaStopReport {
        self.shutdown.store(true, Ordering::SeqCst);
        // Join order follows sender ownership: verifiers (hold work_tx
        // and the vote sender) first, then the worker (exec_tx) — at which
        // point the exec queue disconnects and the execute thread drains
        // it, flushes its engine and returns what it owns.
        for v in self.verifier_handles {
            v.join().expect("verifier thread");
        }
        self.worker_handle.join().expect("worker thread");
        self.exec_handle.join().expect("execution thread")
    }
}

/// The ordering worker: the protocol state machine, its timers, and the
/// producer ends of its two hand-offs, to the execute thread and to the
/// transport.
struct Worker {
    protocol: Box<dyn ReplicaProtocol>,
    node: NodeId,
    wheel: TimerWheel,
    /// Self-addressed messages not yet delivered back to `protocol`.
    loopback: VecDeque<Message>,
    /// The callback's messages for other nodes, in emission order.
    sends: Vec<(NodeId, Message)>,
    exec_tx: StageSender<ExecInput>,
    sender: TransportSender,
    metrics: Metrics,
}

impl Worker {
    /// Finish a protocol callback that started at `t0` and left its
    /// actions in `out`: run them, delivering self-addressed sends
    /// straight back into the protocol until it quiesces, and count that
    /// as Order work (`processed` items); then hand the collected sends to
    /// the transport, the output stage.
    ///
    /// Protocols multicast votes to *all* members including themselves
    /// (`Outbox::multicast`). Routing that self-edge through the transport
    /// would thread it through the replica's own bounded input queue,
    /// closing a blocking cycle wholly inside one replica — input → work →
    /// own input — whose capacity (unlike the cross-replica cycles the
    /// queue design sizes for, see `tests/pipeline_equivalence.rs`) a
    /// single saturated replica can exhaust and deadlock on. The worker
    /// handles them inline as ordering work instead, and this is the one
    /// delivery path that skips
    /// [`rdb_consensus::stage::VerifiedMessage::check`]: a replica's own
    /// messages are trusted, not verified.
    fn dispatch(&mut self, out: &mut Outbox, t0: Instant, processed: u64) {
        self.process(out.take());
        while let Some(msg) = self.loopback.pop_front() {
            self.protocol
                .on_message(self.wheel.now(), self.node, msg, out);
            self.process(out.take());
        }
        let t1 = Instant::now();
        self.metrics
            .stage_batch(Stage::Order, processed, 0, t1 - t0);
        self.hand_off(t1);
    }

    fn process(&mut self, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send { to, msg } if to == self.node => self.loopback.push_back(msg),
                Action::Send { to, msg } => self.sends.push((to, msg)),
                Action::SetTimer { kind, after } => self.wheel.set(kind, after),
                Action::CancelTimer { kind } => self.wheel.cancel(kind),
                Action::Decided(decision) => {
                    self.metrics.record_decision();
                    // Decisions are agreed state and always block (the
                    // executor drains continuously, so this wait is
                    // bounded by execution lag, not by peers).
                    self.exec_tx.send(ExecInput::Decision(decision), false);
                }
                Action::RequestComplete { .. } => {}
            }
        }
    }

    /// The output stage: hand the collected sends to the transport, from
    /// `t0`, the instant the callback's ordering work ended. The Output
    /// row counts one item per message handed over (`enqueued` equals
    /// `processed`: nothing queues) and its busy time is the time spent in
    /// [`TransportSender::send`], which the Order row excludes.
    ///
    /// In-process every message the worker emits is droppable (only
    /// clients send `Request`s; pipeline checkpoint votes leave the
    /// execute thread), so under the default Shed input policy a full peer
    /// inbox sheds it and the worker never parks here. It parks on a
    /// peer's full inbox under an all-Block input policy, and over TCP on
    /// a full socket buffer while it writes the frame.
    fn hand_off(&mut self, t0: Instant) {
        if self.sends.is_empty() {
            return;
        }
        let n = self.sends.len() as u64;
        for (to, msg) in self.sends.drain(..) {
            self.sender.send(to, msg);
        }
        self.metrics.stage_enqueued_many(Stage::Output, n);
        self.metrics.stage_batch(Stage::Output, n, 0, t0.elapsed());
    }
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
