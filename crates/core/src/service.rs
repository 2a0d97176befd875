//! The client service API: a live fabric handle plus open-loop client
//! sessions with submit → await → read-back semantics.
//!
//! The paper's fabric is a *service* (§2.1): clients hand it transactions
//! and receive the result of execution once `f + 1` replicas attest to
//! the same outcome. This module turns the in-process deployment from a
//! closed black box (`DeploymentBuilder::run()` and a report) into that
//! service:
//!
//! * [`crate::DeploymentBuilder::start`] boots the replicas and returns a
//!   live [`Fabric`];
//! * [`Fabric::session`] mints an open-loop [`ClientSession`] bound to
//!   one cluster;
//! * [`ClientSession::submit`] signs a batch of [`Operation`]s and sends
//!   it through the replica's *bounded input queue* — a client `Request`
//!   is non-droppable and blocks the submitter at the bound, so the
//!   pipeline's admission control applies to API traffic for free
//!   (see [`crate::queue`]);
//! * the returned [`Ticket`] resolves to a [`CommitProof`] once `f + 1`
//!   replicas reported byte-identical results — including the
//!   per-transaction [`rdb_store::ExecOutcome`]s, so a `Read` returns
//!   the actual committed value, not just a digest;
//! * [`Fabric::shutdown`] stops everything and returns the familiar
//!   [`crate::DeploymentReport`].
//!
//! The closed-loop YCSB harness is a thin driver over the same surface:
//! `run()` ≡ `start()` + [`Fabric::spawn_ycsb_clients`] + sleep +
//! `shutdown()`.
//!
//! ## One client, one driver
//!
//! Every client identity — a session or a harness client — is one
//! [`rdb_consensus::clients::QuorumClient`], the sans-io state machine
//! that is the workspace's only reply tally (its module docs hold the
//! trust model of a ticket: triple vote, payload check, one vote per
//! replica, reply-set membership, and Zyzzyva's commit phase), and one
//! driver thread (`drive`): inbox + `TimerWheel` + `dispatch`. A batch
//! enters through one door (`ClientCore::submit`) — built and
//! signed outside the client's lock, its `Request` sent on the submitting
//! thread after the lock is released, so admission control parks the
//! submitter and never the driver. A session is that door handed to the
//! application; a harness client is the driver walking through it itself,
//! once at start and once per completion.

use crate::metrics::Metrics;
use crate::node::{ReplicaRuntime, TimerWheel};
use crate::pipeline::PipelineConfig;
use crate::sync::MutexExt;
use crate::transport::{Envelope, Transport, TransportSender};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use rdb_common::config::SystemConfig;
use rdb_common::ids::{ClientId, ClusterId, NodeId, ReplicaId};
use rdb_consensus::api::{Action, ClientProtocol, Outbox};
use rdb_consensus::clients::{BatchSource, QuorumClient};
use rdb_consensus::config::{ProtocolConfig, ProtocolKind};
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_consensus::messages::Message;
use rdb_consensus::registry;
use rdb_consensus::stage::VerifiedMessage;
use rdb_consensus::types::{ClientBatch, Transaction};
use rdb_crypto::sign::KeyStore;
use rdb_storage::StorageBackend;
use rdb_store::Operation;
use rdb_workload::ycsb::{batch_source, YcsbConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use rdb_consensus::clients::CommitProof;

/// Session client indices start here, far above any closed-loop harness
/// client (`u32::MAX` stays reserved for the primaries' no-op batches).
const SESSION_INDEX_BASE: u32 = 1 << 30;

enum TicketState {
    Pending,
    Committed(CommitProof),
    Aborted(&'static str),
}

struct TicketCell {
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl TicketCell {
    fn new() -> TicketCell {
        TicketCell {
            state: Mutex::new(TicketState::Pending),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, state: TicketState) {
        let mut s = self.state.guard();
        if matches!(*s, TicketState::Pending) {
            *s = state;
            self.cv.notify_all();
        }
    }
}

/// A submitted-but-unresolved batch: the handle [`ClientSession::submit`]
/// returns. Resolves once the session gathered the reply quorum.
pub struct Ticket {
    /// Session-local batch sequence number of the submission.
    batch_seq: u64,
    cell: Arc<TicketCell>,
}

impl Ticket {
    /// The session-local batch sequence number this ticket tracks.
    pub fn batch_seq(&self) -> u64 {
        self.batch_seq
    }

    /// Block until the batch commits and return its proof.
    ///
    /// # Panics
    ///
    /// Panics if the fabric was shut down while the ticket was still
    /// pending — resolve tickets before calling [`Fabric::shutdown`]
    /// (or use [`Ticket::wait_timeout`] to keep control).
    pub fn wait(self) -> CommitProof {
        let mut state = self.cell.state.guard();
        loop {
            match &*state {
                TicketState::Pending => {
                    state = self
                        .cell
                        .cv
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner)
                }
                TicketState::Committed(proof) => return proof.clone(),
                TicketState::Aborted(reason) => panic!("ticket aborted: {reason}"),
            }
        }
    }

    /// Like [`Ticket::wait`], giving up after `timeout`. Returns `None`
    /// on timeout or if the fabric shut down with the ticket pending —
    /// poll [`Ticket::aborted`] to tell the two apart.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<CommitProof> {
        let deadline = Instant::now() + timeout;
        let mut state = self.cell.state.guard();
        loop {
            match &*state {
                TicketState::Committed(proof) => return Some(proof.clone()),
                TicketState::Aborted(_) => return None,
                TicketState::Pending => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    state = self
                        .cell
                        .cv
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    /// Non-blocking probe: the proof if the batch already committed.
    /// `None` means pending *or* aborted — check [`Ticket::aborted`] in
    /// poll loops so they can terminate when the ticket is dead.
    pub fn try_wait(&self) -> Option<CommitProof> {
        match &*self.cell.state.guard() {
            TicketState::Committed(proof) => Some(proof.clone()),
            _ => None,
        }
    }

    /// Whether the ticket can no longer resolve (the fabric shut down
    /// with it pending, or the submission raced shutdown); `Some` carries
    /// the reason. A ticket that is merely still in flight returns
    /// `None`.
    pub fn aborted(&self) -> Option<&'static str> {
        match &*self.cell.state.guard() {
            TicketState::Aborted(reason) => Some(reason),
            _ => None,
        }
    }
}

/// What one client identity's submitters and its driver thread share
/// under one lock.
struct ClientState {
    client: QuorumClient,
    wheel: TimerWheel,
    /// Per batch in flight: when it was submitted and, for a session's,
    /// the ticket to resolve.
    in_flight: HashMap<u64, (Instant, Option<Arc<TicketCell>>)>,
    /// Set by [`ClientCore::stop`]; nothing is submitted after it.
    stopped: bool,
}

/// Apply what the client asked for: timers to the wheel, completions to
/// the metrics and the tickets. Sends are collected into `sends` — the
/// caller knows whether its thread may park on them. Returns the number
/// of batches completed.
fn dispatch(
    state: &mut ClientState,
    actions: Vec<Action>,
    metrics: &Metrics,
    sends: &mut Vec<(NodeId, Message)>,
) -> usize {
    let mut completed = 0;
    for a in actions {
        match a {
            Action::Send { to, msg } => sends.push((to, msg)),
            Action::SetTimer { kind, after } => state.wheel.set(kind, after),
            Action::CancelTimer { kind } => state.wheel.cancel(kind),
            Action::RequestComplete { seq, txns, proof } => {
                // Absent once `stop` aborted it.
                if let Some((submitted, cell)) = state.in_flight.remove(&seq) {
                    metrics.record_completion(txns, submitted.elapsed());
                    if let Some(cell) = cell {
                        cell.resolve(TicketState::Committed(proof));
                    }
                    completed += 1;
                }
            }
            Action::Decided(_) => {}
        }
    }
    completed
}

/// One client identity: the door batches enter through, shared by its
/// submitters and its driver thread.
pub(crate) struct ClientCore {
    id: ClientId,
    /// For signing outside the lock (the client holds its own copy), and
    /// with `system`, for checking replies before the client sees them.
    crypto: CryptoCtx,
    system: SystemConfig,
    sender: TransportSender,
    metrics: Metrics,
    state: Mutex<ClientState>,
    next_batch: AtomicU64,
    next_txn: AtomicU64,
}

impl ClientCore {
    /// Sign `batch`, start tracking it and send it to its entry replica.
    /// The send is the admission edge: a `Request` is non-droppable, so it
    /// parks the calling thread while the replica's input queue is full.
    fn submit(&self, batch: ClientBatch, cell: Option<Arc<TicketCell>>) {
        let submitted = Instant::now();
        let seq = batch.batch_seq;
        let (signed, digest) = self.crypto.sign_batch(batch);
        let mut sends = Vec::new();
        {
            let mut state = self.state.guard();
            // A session outlives its fabric (it is a cheap clonable
            // handle); submitting after shutdown must fail fast, not hang
            // forever on a request nobody will answer. `stop` flips the
            // flag under this lock, so a ticket is either registered in
            // time to be aborted there or never registered.
            if state.stopped {
                if let Some(cell) = cell {
                    cell.resolve(TicketState::Aborted("session's fabric already shut down"));
                }
                return;
            }
            // Registered *before* the request leaves, so a reply can never
            // race past an unregistered submission.
            state.in_flight.insert(seq, (submitted, cell));
            let mut out = Outbox::new();
            state.client.submit(signed, digest, &mut out);
            dispatch(&mut state, out.take(), &self.metrics, &mut sends);
        }
        for (to, msg) in sends {
            self.sender.send(to, msg);
        }
    }

    /// Stop accepting batches and abort every unresolved ticket; the
    /// driver thread exits at its next wake-up.
    fn stop(&self, reason: &'static str) {
        let mut state = self.state.guard();
        state.stopped = true;
        for (_, (_, cell)) in state.in_flight.drain() {
            if let Some(cell) = cell {
                cell.resolve(TicketState::Aborted(reason));
            }
        }
    }
}

/// The driver loop of one client identity: feed the client its replies —
/// each through [`VerifiedMessage::check`] first, outside the lock — and
/// its due timers until stopped. Whatever those make it send (a
/// retransmission, a commit certificate) goes out best-effort by
/// `try_send` — this thread must never park on a replica's full inbox,
/// and the next back-off re-drives what a saturated replica missed. With
/// a `source` the client is closed-loop: the driver submits one batch at
/// start and one per completion, parking at the admission edge like any
/// submitter.
fn drive(core: &ClientCore, inbox: Receiver<Envelope>, mut source: Option<BatchSource>) {
    let mut next = |owed: usize| {
        let Some(source) = source.as_mut() else {
            return;
        };
        for _ in 0..owed {
            let seq = core.next_batch.fetch_add(1, Ordering::Relaxed);
            core.submit(source(seq), None);
        }
    };
    next(1);
    let mut wait = Duration::ZERO;
    loop {
        let reply = match inbox.recv_timeout(wait) {
            Ok(env) => VerifiedMessage::check(&core.system, &core.crypto, env.from, env.msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let mut sends = Vec::new();
        let mut completed = 0;
        {
            let mut guard = core.state.guard();
            let state = &mut *guard;
            if state.stopped {
                return;
            }
            let mut out = Outbox::new();
            if let Some(reply) = reply {
                let now = state.wheel.now();
                let (from, msg) = reply.into_parts();
                state.client.on_message(now, from, msg, &mut out);
                completed += dispatch(state, out.take(), &core.metrics, &mut sends);
            }
            for kind in state.wheel.due() {
                let now = state.wheel.now();
                state.client.on_timer(now, kind, &mut out);
                completed += dispatch(state, out.take(), &core.metrics, &mut sends);
            }
            wait = state.wheel.next_wait();
        }
        for (to, msg) in sends {
            let _ = core.sender.try_send(to, msg);
        }
        next(completed);
    }
}

/// An open-loop client session bound to one cluster. Cheap to clone;
/// [`ClientSession::submit`] is safe to call from many threads at once
/// (each submission gets its own ticket). Minted by [`Fabric::session`];
/// lives until the fabric shuts down.
#[derive(Clone)]
pub struct ClientSession {
    core: Arc<ClientCore>,
}

impl ClientSession {
    /// This session's client identity.
    pub fn id(&self) -> ClientId {
        self.core.id
    }

    /// Sign `ops` as one batch and submit it to the fabric. The send
    /// rides the target replica's bounded input queue: if the replica is
    /// overloaded, this call *blocks* until there is room — the same
    /// admission control the closed-loop harness clients get
    /// (see [`crate::queue`]).
    ///
    /// Returns immediately after admission with a [`Ticket`] that
    /// resolves once `f + 1` replicas attested the same outcome.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty: an empty batch has no outcome to prove.
    pub fn submit(&self, ops: Vec<Operation>) -> Ticket {
        assert!(!ops.is_empty(), "cannot submit an empty batch");
        let core = &self.core;
        let batch_seq = core.next_batch.fetch_add(1, Ordering::Relaxed);
        let base_seq = core.next_txn.fetch_add(ops.len() as u64, Ordering::Relaxed);
        let txns: Vec<Transaction> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| Transaction {
                client: core.id,
                seq: base_seq + i as u64,
                op,
            })
            .collect();
        let batch = ClientBatch {
            client: core.id,
            batch_seq,
            txns,
        };
        let cell = Arc::new(TicketCell::new());
        core.submit(batch, Some(Arc::clone(&cell)));
        Ticket { batch_seq, cell }
    }

    /// Convenience: submit a single-operation batch.
    pub fn submit_one(&self, op: Operation) -> Ticket {
        self.submit(vec![op])
    }
}

/// A live, running deployment: replicas are up and serving. Mint
/// [`ClientSession`]s with [`Fabric::session`], drive the classic
/// closed-loop YCSB workload with [`Fabric::spawn_ycsb_clients`], and
/// finish with [`Fabric::shutdown`] to collect the
/// [`crate::DeploymentReport`].
pub struct Fabric {
    pub(crate) kind: ProtocolKind,
    pub(crate) system: SystemConfig,
    pub(crate) cfg: ProtocolConfig,
    pub(crate) ycsb: YcsbConfig,
    pub(crate) seed: u64,
    pub(crate) pipeline: PipelineConfig,
    pub(crate) metrics: Metrics,
    pub(crate) transport: Transport,
    pub(crate) keystore: KeyStore,
    pub(crate) epoch: Instant,
    pub(crate) replicas: Vec<ReplicaRuntime>,
    /// Every client identity — sessions and harness clients alike — with
    /// its driver thread.
    pub(crate) clients: Mutex<Vec<(Arc<ClientCore>, JoinHandle<()>)>>,
    pub(crate) next_ycsb_client: AtomicUsize,
    pub(crate) next_session: AtomicU32,
    pub(crate) crashed: Vec<ReplicaId>,
    pub(crate) backends: Vec<(ReplicaId, crate::storage::SharedBackend)>,
}

impl Fabric {
    /// The protocol this deployment runs.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// Reboot a durable deployment from its data directory: read back the
    /// manifest pinned at first boot and [`crate::DeploymentBuilder::start`]
    /// an identically-shaped fabric in
    /// [`crate::StorageMode::Durable`] mode. Every replica whose engine
    /// directory is initialized recovers its table and ledger from disk —
    /// the restarted fabric's ledger heads and state digests equal
    /// whatever the previous incarnation durably committed (protocol
    /// state machines start fresh; recovered history is served, not
    /// resumed). Replicas may have stopped at unequal heights: every
    /// protocol starts on the highest recovered head's state, and a
    /// replica below it appends the audited blocks it lacks with its first
    /// new decision, so new decisions land at one height everywhere.
    pub fn restart_from(path: impl AsRef<std::path::Path>) -> std::io::Result<Fabric> {
        let root = path.as_ref();
        let m = crate::storage::read_manifest(root)?;
        Ok(crate::DeploymentBuilder::new(m.kind, m.z, m.n)
            .batch_size(m.batch_size)
            .records(m.records)
            .seed(m.seed)
            .checkpoint_interval(m.checkpoint_interval)
            .storage(crate::StorageMode::Durable(root.to_path_buf()))
            .start())
    }

    /// The deployment shape (clusters, replicas, quorums).
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// Client batches completed so far (closed-loop clients and resolved
    /// session tickets combined) — a cheap liveness probe.
    pub fn completed_batches(&self) -> u64 {
        self.metrics.completed_batches()
    }

    /// Mint an open-loop client session homed in `cluster` (§2: "GeoBFT
    /// assigns each client to a single cluster"; for the global protocols
    /// the cluster only shapes the client's identity). Sessions submit
    /// through the same admission edge as the closed-loop harness and are
    /// torn down by [`Fabric::shutdown`].
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is outside the deployment.
    pub fn session(&self, cluster: ClusterId) -> ClientSession {
        assert!(
            cluster.as_usize() < self.system.z(),
            "cluster {cluster:?} outside this {}-cluster deployment",
            self.system.z()
        );
        let index = SESSION_INDEX_BASE + self.next_session.fetch_add(1, Ordering::Relaxed);
        let core = self.spawn_client(ClientId { cluster, index }, None);
        ClientSession { core }
    }

    /// Register client `id` with the keystore and the transport and start
    /// its driver thread: closed-loop over `source`, or idle until a
    /// session submits.
    fn spawn_client(&self, id: ClientId, source: Option<BatchSource>) -> Arc<ClientCore> {
        let signer = self.keystore.register(id.into());
        let crypto = CryptoCtx::new(signer, self.keystore.verifier(), true);
        let (inbox, sender) = self.transport.register(id.into()).split();
        let role = if source.is_some() {
            "client"
        } else {
            "session"
        };
        let core = Arc::new(ClientCore {
            id,
            crypto: crypto.clone(),
            system: self.system.clone(),
            sender,
            metrics: self.metrics.clone(),
            state: Mutex::new(ClientState {
                client: registry::client(self.kind, self.cfg.clone(), id, crypto),
                wheel: TimerWheel::new(self.epoch),
                in_flight: HashMap::new(),
                stopped: false,
            }),
            next_batch: AtomicU64::new(0),
            next_txn: AtomicU64::new(0),
        });
        let driver = Arc::clone(&core);
        let thread = std::thread::Builder::new()
            .name(format!("{id}-{role}"))
            .spawn(move || drive(&driver, inbox, source))
            .expect("spawn client driver thread");
        self.clients.guard().push((Arc::clone(&core), thread));
        core
    }

    /// Spawn `count` closed-loop YCSB clients, spread round-robin over
    /// the clusters — the paper's benchmark workload, now a plain driver
    /// over the running fabric. Call repeatedly to add load; every client
    /// keeps submitting until [`Fabric::shutdown`].
    pub fn spawn_ycsb_clients(&self, count: usize) {
        let ycsb = self.ycsb.clone();
        self.spawn_source_clients(count, move |cid, seed| {
            batch_source(ycsb.clone(), cid, seed)
        });
    }

    /// Spawn `count` closed-loop clients whose batches come from a custom
    /// per-client source (`factory(client, seed)`), spread round-robin
    /// over the clusters with the *same* client identities and seed the
    /// simulator's `Scenario` assigns — so a deployment driven by the
    /// same factory in both runtimes proposes byte-identical batches.
    /// The scenario harness uses this for SmallBank-style
    /// transaction-program workloads.
    pub fn spawn_source_clients(
        &self,
        count: usize,
        factory: impl Fn(ClientId, u64) -> rdb_consensus::clients::BatchSource,
    ) {
        let z = self.system.z();
        let offset = self.next_ycsb_client.fetch_add(count, Ordering::Relaxed);
        for i in offset..offset + count {
            let cid = ClientId::new((i % z) as u16, (i / z) as u32);
            self.spawn_client(cid, Some(factory(cid, self.seed)));
        }
    }

    /// Stop every thread of the deployment — the clients first (pending
    /// tickets abort), then the replica pipelines, then the transport —
    /// and hand back what the replicas ended with. Idempotent: both [`Fabric::shutdown`] and
    /// [`Drop`] funnel through here, and a second call finds everything
    /// already drained.
    fn stop_all(&mut self) -> Vec<(NodeId, crate::node::ReplicaStopReport)> {
        // Clients first, so no retransmission races the replica teardown
        // and every still-unresolved ticket fails loudly.
        let clients = std::mem::take(&mut *self.clients.guard());
        for (core, _) in &clients {
            core.stop("fabric shut down with the ticket unresolved");
        }
        for (_, driver) in clients {
            driver.join().expect("client driver thread");
        }
        // Two-phase replica stop: signal everyone, then join. See
        // `ReplicaRuntime::signal_stop` for why joining one replica while
        // its peers keep running would skew cross-replica watermarks.
        let replicas = std::mem::take(&mut self.replicas);
        for r in &replicas {
            r.signal_stop();
        }
        let stopped = replicas
            .into_iter()
            .map(|r| {
                let node = r.node();
                (node, r.stop())
            })
            .collect();
        // Durable engines: the executor threads (the WAL writers) are
        // joined, so seal each engine — flush the memtables to runs and
        // fold its counters into the metrics for the report.
        for (_, be) in std::mem::take(&mut self.backends) {
            let mut be = be.guard();
            be.flush().expect("flush durable engine at shutdown");
            self.metrics.storage_merge(&be.stats());
        }
        self.transport.shutdown();
        stopped
    }

    /// Stop everything — the clients first (pending tickets abort), then
    /// the replica pipelines — and assemble the run's
    /// [`crate::DeploymentReport`].
    pub fn shutdown(mut self) -> crate::DeploymentReport {
        let mut ledgers = HashMap::new();
        let mut exec_state_digests = HashMap::new();
        let mut checkpoints = HashMap::new();
        for (node, stopped) in self.stop_all() {
            if let NodeId::Replica(rid) = node {
                ledgers.insert(rid, stopped.ledger);
                exec_state_digests.insert(rid, stopped.exec_digest);
                if let Some(ckpt) = stopped.checkpoint {
                    checkpoints.insert(rid, ckpt);
                }
            }
        }

        let elapsed = self.epoch.elapsed();
        let metrics = &self.metrics;
        crate::DeploymentReport {
            kind: self.kind,
            system: self.system.clone(),
            pipeline: self.pipeline,
            stages: metrics.stage_snapshot(),
            elapsed,
            throughput_txn_s: metrics.completed_txns() as f64 / elapsed.as_secs_f64(),
            completed_batches: metrics.completed_batches(),
            completed_txns: metrics.completed_txns(),
            decided: metrics.decided(),
            messages_sent: metrics.messages_sent(),
            avg_latency: metrics.avg_latency(),
            p50_latency: metrics.latency_percentile(0.5),
            p99_latency: metrics.latency_percentile(0.99),
            p999_latency: metrics.latency_percentile(0.999),
            net: metrics.net_snapshot(),
            storage: metrics.storage_snapshot(),
            ledgers,
            exec_state_digests,
            checkpoints,
            crashed: std::mem::take(&mut self.crashed),
        }
    }
}

impl Drop for Fabric {
    /// A fabric dropped without [`Fabric::shutdown`] still tears the
    /// deployment down — replica pipelines, client drivers and transport
    /// threads are joined, not leaked. (After `shutdown` this is a
    /// no-op: everything was already drained.)
    fn drop(&mut self) {
        let _ = self.stop_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_crypto::digest::Digest;
    use rdb_store::TxnEffect;

    #[test]
    fn ticket_wait_timeout_and_try_wait_observe_resolution() {
        let cell = Arc::new(TicketCell::new());
        let ticket = Ticket {
            batch_seq: 0,
            cell: Arc::clone(&cell),
        };
        assert!(ticket.try_wait().is_none());
        assert!(ticket.aborted().is_none(), "pending is not aborted");
        assert!(ticket.wait_timeout(Duration::from_millis(10)).is_none());
        let proof = CommitProof {
            seq: 1,
            block_height: 1,
            result_digest: Digest::ZERO,
            attesting_replicas: vec![ReplicaId::new(0, 0)],
            results: TxnEffect::default(),
        };
        cell.resolve(TicketState::Committed(proof.clone()));
        assert_eq!(ticket.try_wait(), Some(proof.clone()));
        assert_eq!(ticket.wait(), proof);
    }

    #[test]
    fn aborted_tickets_are_distinguishable_from_pending() {
        let cell = Arc::new(TicketCell::new());
        let ticket = Ticket {
            batch_seq: 0,
            cell: Arc::clone(&cell),
        };
        cell.resolve(TicketState::Aborted("gone"));
        // Poll loops terminate on `aborted`, which wait_timeout/try_wait
        // alone cannot signal.
        assert_eq!(ticket.aborted(), Some("gone"));
        assert!(ticket.try_wait().is_none());
        assert!(ticket.wait_timeout(Duration::from_millis(1)).is_none());
    }
}
