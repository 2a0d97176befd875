//! Full in-process deployments: build, run, measure, audit.

use crate::metrics::{Metrics, NetSnapshot, StageSnapshot, StorageSnapshot};
use crate::node::ReplicaRuntime;
use crate::pipeline::{
    default_verifier_threads, CheckpointConfig, CheckpointReport, ExecStart, PipelineConfig,
    VerifyCtx,
};
use crate::queue::{QueuePolicy, StageQueues};
use crate::service::Fabric;
use crate::storage::{self, Manifest, StorageMode};
use crate::transport::{DelayFn, FaultClock, Transport};
use rdb_common::config::SystemConfig;
use rdb_common::ids::ReplicaId;
use rdb_common::time::SimDuration;
use rdb_consensus::adversary::AdversarySpec;
use rdb_consensus::config::{ExecMode, ProtocolConfig, ProtocolKind};
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_consensus::faults::FaultSpec;
use rdb_consensus::registry;
use rdb_crypto::sign::KeyStore;
use rdb_ledger::Ledger;
use rdb_store::KvStore;
use rdb_workload::ycsb::YcsbConfig;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Which mesh carries the deployment's messages. Both sit under one
/// router (`crate::transport`), so inbox registration, the fault script
/// and injected link delays behave the same on either; only the last hop
/// differs.
///
/// `InProcess` (the default) moves [`crate::transport::Envelope`]s over
/// crossbeam channels — zero serialization, and what every figure
/// reproduction uses, so repro output stays byte-identical. `Tcp`
/// serializes every message through
/// [`rdb_consensus::codec::WireCodec`] and carries it over real loopback
/// connections (see `crate::socket`): same protocols, same ledgers, real
/// bytes on a real wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// In-process channel mesh (default).
    #[default]
    InProcess,
    /// TCP over 127.0.0.1.
    Tcp,
}

/// Builder for an in-process ResilientDB deployment.
///
/// Faults come in two kinds, each described once for both runtimes.
/// Crashes and link cuts are a [`FaultSpec`] script
/// ([`DeploymentBuilder::faults`]), the same values the simulator's
/// `Scenario::faults` takes, applied by the transport router at send and
/// at delivery on the replicas' own clock. Byzantine behaviour is an
/// [`AdversarySpec`] protocol wrapper ([`DeploymentBuilder::adversary`]),
/// the same one the simulator installs.
pub struct DeploymentBuilder {
    kind: ProtocolKind,
    transport_mode: TransportMode,
    z: usize,
    n: usize,
    batch_size: usize,
    clients: usize,
    duration: Duration,
    records: u64,
    seed: u64,
    delay: Option<DelayFn>,
    faults: Vec<FaultSpec>,
    adversaries: Vec<(ReplicaId, AdversarySpec)>,
    progress_timeout: SimDuration,
    client_retry: SimDuration,
    remote_timeout: SimDuration,
    verifier_threads: usize,
    input_queue: Option<QueuePolicy>,
    work_queue: Option<usize>,
    exec_queue: Option<usize>,
    checkpoint: CheckpointConfig,
    storage: StorageMode,
}

impl DeploymentBuilder {
    /// A deployment of `z` clusters x `n` replicas running `kind`.
    pub fn new(kind: ProtocolKind, z: usize, n: usize) -> DeploymentBuilder {
        DeploymentBuilder {
            kind,
            transport_mode: TransportMode::InProcess,
            z,
            n,
            batch_size: 10,
            clients: z, // one client per cluster by default
            duration: Duration::from_millis(500),
            records: 10_000,
            seed: 42,
            delay: None,
            faults: Vec::new(),
            adversaries: Vec::new(),
            progress_timeout: SimDuration::from_millis(2_000),
            client_retry: SimDuration::from_millis(4_000),
            remote_timeout: SimDuration::from_millis(1_500),
            verifier_threads: default_verifier_threads(),
            input_queue: None,
            work_queue: None,
            exec_queue: None,
            checkpoint: CheckpointConfig::default(),
            storage: StorageMode::Memory,
        }
    }

    /// Where replica state lives ([`StorageMode::Memory`] by default —
    /// the pre-durability behavior, and what every figure reproduction
    /// uses). [`StorageMode::Durable`] roots one log-structured engine
    /// per replica under the given directory, owned by the replica's
    /// execute thread: it WAL-logs every applied decision, persists each
    /// certified checkpoint and flushes the engine on exit. A directory
    /// holding a previous run's state is *recovered from*: its ledger is
    /// read back and the table records it persisted are laid over the
    /// shared preload, which no boot writes.
    /// See [`crate::Fabric::restart_from`] for the full restart path.
    pub fn storage(mut self, mode: StorageMode) -> Self {
        self.storage = mode;
        self
    }

    /// Enable the checkpoint stage on every replica's execute thread:
    /// certify the replica's state digest against peers and compact the
    /// ledger prefix every `k` decisions (`0`, the default, disables the
    /// stage — ledgers stay full, matching pre-checkpoint reproductions
    /// byte for byte).
    pub fn checkpoint_interval(mut self, k: u64) -> Self {
        self.checkpoint.interval = k;
        self
    }

    /// Retain a full store snapshot of the last stable checkpoint on
    /// every replica (the state a restarting replica recovers from; see
    /// `rdb_ledger::recover_from_checkpoint`). Costs a mirror table per
    /// replica, moved forward by each decision's record images, and one
    /// clone of it per checkpoint.
    pub fn checkpoint_snapshots(mut self, retain: bool) -> Self {
        self.checkpoint.retain_snapshot = retain;
        self
    }

    /// Fault injection: slow every checkpoint boundary by `d` on the
    /// execute thread. The bounded exec queue then fills and parks the
    /// worker, throttling execution — the designed overload behavior the
    /// backpressure tests assert.
    pub fn checkpoint_fault_delay(mut self, d: Duration) -> Self {
        self.checkpoint.fault_delay = d;
        self
    }

    /// Verifier-stage fan-out per replica (paper Figure 9; at least one).
    /// Unset, the pool is sized to the host: `(cores / 4).clamp(1, 4)`.
    pub fn verifier_threads(mut self, n: usize) -> Self {
        self.verifier_threads = n.max(1);
        self
    }

    /// Override the input-stage queue (the replica inbox the transport
    /// delivers into). Unset, it is derived from batch size and verifier
    /// fan-out with policy [`crate::queue::Overload::Shed`] — see
    /// [`StageQueues::derive`]. Droppable consensus traffic is shed at
    /// the bound; client `Request`s always block their submitter.
    pub fn input_queue(mut self, p: QueuePolicy) -> Self {
        self.input_queue = Some(p);
        self
    }

    /// Override the verify → order work queue's capacity (derived
    /// otherwise; a full work queue parks the verifier pool).
    pub fn order_queue(mut self, capacity: usize) -> Self {
        self.work_queue = Some(capacity);
        self
    }

    /// Override the capacity of the execute thread's queue: order →
    /// execute decisions and verify → checkpoint votes. It blocks and
    /// never sheds — decisions are agreed state and votes are not
    /// retransmittable — and its bound is what throttles the replica
    /// when execution or checkpointing lags.
    pub fn exec_queue(mut self, capacity: usize) -> Self {
        self.exec_queue = Some(capacity);
        self
    }

    /// Transactions per client batch.
    pub fn batch_size(mut self, b: usize) -> Self {
        self.batch_size = b;
        self
    }

    /// Number of closed-loop clients (spread round-robin over clusters).
    pub fn clients(mut self, c: usize) -> Self {
        self.clients = c;
        self
    }

    /// How long to run the workload.
    pub fn duration(mut self, d: Duration) -> Self {
        self.duration = d;
        self
    }

    /// Records preloaded into every replica's store.
    pub fn records(mut self, r: u64) -> Self {
        self.records = r;
        self
    }

    /// Deployment seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Inject per-link one-way delays (e.g. Table 1 emulation), over
    /// either [`TransportMode`]. The delay wheel sits in front of the
    /// receiving inbox, so over TCP the delay adds to the loopback
    /// latency.
    pub fn delay(mut self, f: DelayFn) -> Self {
        self.delay = Some(f);
        self
    }

    /// Select the transport ([`TransportMode::InProcess`] by default).
    /// `Tcp` carries every message as length-prefixed frames over
    /// real loopback connections; the workload, protocols and committed
    /// ledgers are unchanged (see `tests/pipeline_equivalence.rs`).
    pub fn transport_mode(mut self, mode: TransportMode) -> Self {
        self.transport_mode = mode;
        self
    }

    /// Add `faults` to the deployment's fault script, timed from
    /// deployment start exactly as the simulator times them from virtual
    /// zero. A `Crash` is crash-stop: from its instant on, nothing the
    /// replica sends leaves and nothing reaches it, and the report
    /// excludes it from the audits. A `DropLink` (and so
    /// `FaultSpec::partition`) drops replica-to-replica traffic on its
    /// link while the cut lasts; client traffic is unaffected.
    pub fn faults(mut self, faults: Vec<FaultSpec>) -> Self {
        self.faults.extend(faults);
        self
    }

    /// Install Byzantine behaviour on `replica` (a protocol wrapper from
    /// [`rdb_consensus::adversary`], applied at build time — the same
    /// wrapper the simulator installs, so attacks replay identically in
    /// both runtimes).
    pub fn adversary(mut self, replica: ReplicaId, spec: AdversarySpec) -> Self {
        self.adversaries.push((replica, spec));
        self
    }

    /// Shorten protocol timeouts (failure tests).
    pub fn fast_timeouts(mut self) -> Self {
        self.progress_timeout = SimDuration::from_millis(300);
        self.client_retry = SimDuration::from_millis(500);
        self.remote_timeout = SimDuration::from_millis(250);
        self
    }

    /// Boot the deployment and return a live [`Fabric`] handle: replicas
    /// are up and serving, but no clients exist yet. Mint open-loop
    /// sessions with [`Fabric::session`], add closed-loop YCSB load with
    /// [`Fabric::spawn_ycsb_clients`], and collect the report with
    /// [`Fabric::shutdown`]. The builder's `clients` / `duration`
    /// settings only drive the [`DeploymentBuilder::run`] convenience
    /// wrapper — `start` ignores them.
    pub fn start(self) -> Fabric {
        // Queues are derived from this deployment's batch size and
        // verifier fan-out, then per-stage overrides apply.
        let derived = StageQueues::derive(self.batch_size, self.verifier_threads);
        let pipeline = PipelineConfig {
            verifier_threads: self.verifier_threads,
            queues: StageQueues {
                input: self.input_queue.unwrap_or(derived.input),
                work: self.work_queue.unwrap_or(derived.work),
                exec: self.exec_queue.unwrap_or(derived.exec),
            },
            checkpoint: self.checkpoint,
        };

        let system = SystemConfig::geo(self.z, self.n).expect("valid system");
        let mut cfg = ProtocolConfig::new(system.clone());
        cfg.batch_size = self.batch_size;
        cfg.exec_mode = ExecMode::Real;
        cfg.progress_timeout = self.progress_timeout;
        cfg.client_retry = self.client_retry;
        cfg.remote_timeout = self.remote_timeout;

        let ycsb = YcsbConfig {
            record_count: self.records,
            batch_size: self.batch_size,
            ..YcsbConfig::default()
        };

        let metrics = Metrics::new();
        let ks = KeyStore::new(self.seed);

        // Durable mode: pin the deployment parameters to the data
        // directory before any engine opens (a restart reads them back
        // via the manifest).
        let durable_root = match &self.storage {
            StorageMode::Memory => None,
            StorageMode::Durable(root) => Some(root.clone()),
        };
        if let Some(root) = &durable_root {
            let manifest = Manifest {
                kind: self.kind,
                z: self.z,
                n: self.n,
                batch_size: self.batch_size,
                records: self.records,
                seed: self.seed,
                checkpoint_interval: self.checkpoint.interval,
            };
            storage::write_manifest_if_absent(root, &manifest)
                .unwrap_or_else(|e| panic!("write manifest under {}: {e}", root.display()));
        }

        // Build every replica's state (keys, its one table, protocol)
        // before starting the clock: store preloading is setup, not run.
        // The preload is built once and every replica's table is a clone
        // of it: one shared preload, one private overlay per replica.
        let preload = KvStore::with_ycsb_records(self.records);
        let mut booted = Vec::new();
        for rid in system.all_replicas().collect::<Vec<_>>() {
            let signer = ks.register(rid.into());
            let crypto = CryptoCtx::new(signer, ks.verifier(), true);
            // Memory mode takes the shared preload. Durable mode opens
            // the replica's engine first: an initialized directory lays
            // the records it persisted over the shared preload and
            // recovers its ledger; a fresh one takes the preload as it is
            // and writes only its init marker.
            let (table, ledger, backend) = match &durable_root {
                None => (preload.clone(), Ledger::new(), None),
                Some(root) => {
                    let dir = storage::replica_dir(root, rid);
                    let mut engine =
                        rdb_storage::LogBackend::open(&dir, rdb_storage::LogConfig::default())
                            .unwrap_or_else(|e| {
                                panic!("open durable engine {}: {e}", dir.display())
                            });
                    let (table, ledger) = if storage::is_initialized(&engine) {
                        storage::recover_replica(&engine, &preload)
                            .unwrap_or_else(|e| panic!("recover replica {rid}: {e}"))
                    } else {
                        storage::init_replica(&mut engine)
                            .unwrap_or_else(|e| panic!("initialize replica {rid}: {e}"));
                        (preload.clone(), Ledger::new())
                    };
                    (table, ledger, Some(engine))
                }
            };
            booted.push((rid, crypto, table, ledger, backend));
        }
        drop(preload);
        // The execute stage starts from each replica's own boot table.
        // Durable mode: the replicas may have stopped at unequal heights,
        // and consensus restarts fresh over their tables, so every
        // protocol starts on the highest recovered head's state and every
        // laggard's executor holds the gap it lacks.
        let mut starts: Vec<_> = booted
            .iter()
            .map(|(_, _, table, ..)| ExecStart::new(table, pipeline.checkpoint))
            .collect();
        if durable_root.is_some() {
            let crypto = booted[0].1.clone();
            let heads = booted.iter_mut().map(|(_, _, t, l, _)| (t, &*l)).collect();
            let gaps = storage::align_heads(heads, &system, &crypto)
                .unwrap_or_else(|e| panic!("align recovered replicas: {e}"));
            for (start, gap) in starts.iter_mut().zip(gaps) {
                start.gap = gap;
            }
        }
        // The commit tail hands the execute stage the record images it
        // writes when the stage persists them or retains snapshots.
        let capture = durable_root.is_some() || pipeline.checkpoint.retains_snapshots();
        let mut prepared = Vec::new();
        for ((rid, crypto, mut table, ledger, backend), exec) in booted.into_iter().zip(starts) {
            // The verifier stage runs the one validity check
            // (`Message::verify`) on every inbound message; the worker's
            // state machine only signs with the same context. The
            // protocol's commit tail owns the replica's one table.
            let verify = VerifyCtx {
                crypto: crypto.clone(),
                system: system.clone(),
            };
            let spec = self
                .adversaries
                .iter()
                .find(|(r, _)| *r == rid)
                .map(|(_, s)| s);
            if capture {
                table.enable_capture();
            }
            let protocol = registry::build_replica_with_adversary(
                self.kind,
                cfg.clone(),
                rid,
                crypto,
                table,
                spec,
            );
            prepared.push((rid, protocol, verify, exec, ledger, backend));
        }

        // The fault script runs on the clock the replicas' timer wheels
        // read, and is fixed before any of their threads starts.
        let epoch = Instant::now();
        let transport = Transport::new(
            self.transport_mode,
            self.delay.clone(),
            FaultClock::new(&self.faults, epoch),
            metrics.clone(),
        );
        // Every inbox (the bounded input-stage queue) exists before the
        // first replica can send.
        let handles: Vec<_> = prepared
            .iter()
            .map(|(rid, ..)| transport.register_bounded((*rid).into(), pipeline.queues.input))
            .collect();
        let mut replicas = Vec::new();
        for ((_, protocol, verify, exec, ledger, backend), handle) in
            prepared.into_iter().zip(handles)
        {
            replicas.push(ReplicaRuntime::spawn(
                protocol,
                handle,
                metrics.clone(),
                epoch,
                verify,
                exec,
                ledger,
                backend,
                pipeline,
            ));
        }

        Fabric {
            kind: self.kind,
            system,
            cfg,
            ycsb,
            seed: self.seed,
            pipeline,
            metrics,
            transport,
            keystore: ks,
            epoch,
            replicas,
            clients: std::sync::Mutex::new(Vec::new()),
            next_ycsb_client: std::sync::atomic::AtomicUsize::new(0),
            next_session: std::sync::atomic::AtomicU32::new(0),
            crashed: self
                .faults
                .iter()
                .filter_map(|f| match f {
                    FaultSpec::Crash { replica, .. } => Some(*replica),
                    FaultSpec::DropLink { .. } => None,
                })
                .collect(),
        }
    }

    /// The classic closed-loop harness, now a thin driver over the
    /// service API: [`DeploymentBuilder::start`], the configured number
    /// of [`Fabric::spawn_ycsb_clients`], run for the configured
    /// duration, [`Fabric::shutdown`], report.
    pub fn run(self) -> DeploymentReport {
        let clients = self.clients;
        let duration = self.duration;
        let fabric = self.start();
        fabric.spawn_ycsb_clients(clients);
        std::thread::sleep(duration);
        fabric.shutdown()
    }
}

/// What a deployment run produced.
pub struct DeploymentReport {
    /// Protocol.
    pub kind: ProtocolKind,
    /// The deployment shape.
    pub system: SystemConfig,
    /// Thread layout the replicas ran with.
    pub pipeline: PipelineConfig,
    /// Per-stage pipeline counters, summed over all replicas (processed
    /// counts, verification drops, queue depths, busy time).
    pub stages: StageSnapshot,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Client-observed throughput.
    pub throughput_txn_s: f64,
    /// Completed client batches.
    pub completed_batches: u64,
    /// Completed transactions.
    pub completed_txns: u64,
    /// Replica decisions (sum over replicas).
    pub decided: u64,
    /// Messages the replicas' workers handed to the transport (the
    /// Output row's `processed`).
    pub messages_sent: u64,
    /// Mean client latency (exact).
    pub avg_latency: Duration,
    /// Median client latency (within 1/16, like every percentile here:
    /// see [`Metrics::latency_percentile`]).
    pub p50_latency: Duration,
    /// Tail latency.
    pub p99_latency: Duration,
    /// Far-tail latency.
    pub p999_latency: Duration,
    /// Final ledger of every replica.
    pub ledgers: HashMap<ReplicaId, Ledger>,
    /// Per replica, the state digest of the last decision its execution
    /// stage persisted, or of its own boot table (before restart
    /// alignment) when it persisted none; see
    /// [`DeploymentReport::audit_execution_stage`].
    pub exec_state_digests: HashMap<ReplicaId, rdb_crypto::digest::Digest>,
    /// Per-replica checkpoint stage state (empty unless
    /// [`DeploymentBuilder::checkpoint_interval`] enabled the stage):
    /// stable height, certified checkpoint history and, when retained,
    /// the recovery snapshot.
    pub checkpoints: HashMap<ReplicaId, CheckpointReport>,
    /// Per-link wire counters (bytes/frames in and out, reconnects).
    /// Empty for [`TransportMode::InProcess`], which moves no bytes.
    pub net: NetSnapshot,
    /// Durable-engine counters summed over all replicas (WAL records and
    /// bytes, memtable flushes, run bytes, compactions). Zero engines in
    /// the default [`StorageMode::Memory`].
    pub storage: StorageSnapshot,
    /// Replicas the fault script crashed (its `Crash` entries).
    pub crashed: Vec<ReplicaId>,
}

impl DeploymentReport {
    /// Check that every non-crashed replica's execution stage persisted
    /// every decision its commit tail executed: the state digest of the
    /// last decision it appended is the one its ledger head records.
    /// Replicas that committed nothing are skipped.
    pub fn audit_execution_stage(&self) -> Result<(), String> {
        for (rid, ledger) in &self.ledgers {
            if self.crashed.contains(rid) || ledger.head_height() == 0 {
                continue;
            }
            let expected = ledger
                .block(ledger.head_height())
                .expect("head present")
                .state_digest;
            match self.exec_state_digests.get(rid) {
                Some(got) if *got == expected => {}
                Some(got) => {
                    return Err(format!(
                        "replica {rid}: execution-stage state {got:?} != ledger head state {expected:?}"
                    ));
                }
                None => return Err(format!("replica {rid}: no execution-stage digest")),
            }
        }
        Ok(())
    }

    /// Mean ordering-worker occupancy: the fraction of the run each
    /// replica's worker thread spent inside the state machine. The
    /// `pipeline` bench plots this against verifier fan-out.
    pub fn worker_occupancy(&self) -> f64 {
        let replicas = self.system.z() * self.system.n();
        self.stages
            .row(rdb_consensus::stage::Stage::Order)
            .occupancy(self.elapsed, replicas)
    }

    /// The common committed prefix length across non-crashed replicas
    /// (number of blocks, excluding genesis).
    pub fn common_prefix_blocks(&self) -> u64 {
        self.ledgers
            .iter()
            .filter(|(rid, _)| !self.crashed.contains(rid))
            .map(|(_, l)| l.head_height())
            .min()
            .unwrap_or(0)
    }

    /// Check that all (non-crashed) replica ledgers are internally
    /// consistent and agree pairwise over every height both replicas of
    /// a pair retain ([`rdb_ledger::agreement`]), compacted or not.
    /// Returns the common prefix height.
    pub fn audit_ledgers(&self) -> Result<u64, String> {
        let mut live: Vec<(&ReplicaId, &Ledger)> = self
            .ledgers
            .iter()
            .filter(|(rid, _)| !self.crashed.contains(rid))
            .collect();
        live.sort_by_key(|(rid, _)| **rid);
        rdb_ledger::agreement(live).map_err(|e| e.to_string())
    }

    /// One-line summary. Durable runs append the storage counters.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} z={} n={}: {:.0} txn/s, {} batches, avg latency {:?}, {} decisions, common prefix {} blocks",
            self.kind,
            self.system.z(),
            self.system.n(),
            self.throughput_txn_s,
            self.completed_batches,
            self.avg_latency,
            self.decided,
            self.common_prefix_blocks(),
        );
        let storage = self.storage.summary();
        if !storage.is_empty() {
            line.push_str("; ");
            line.push_str(&storage);
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pbft_in_process_deployment_commits_and_agrees() {
        let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
            .batch_size(5)
            .clients(2)
            .records(500)
            .duration(Duration::from_millis(600))
            .run();
        assert!(
            report.completed_batches > 0,
            "no progress: {}",
            report.summary()
        );
        let common = report.audit_ledgers().expect("ledgers consistent");
        assert!(common > 0);
    }

    #[test]
    fn geobft_two_cluster_deployment_round_executes() {
        let report = DeploymentBuilder::new(ProtocolKind::GeoBft, 2, 4)
            .batch_size(5)
            .clients(2)
            .records(500)
            .duration(Duration::from_millis(800))
            .run();
        assert!(
            report.completed_batches > 0,
            "no progress: {}",
            report.summary()
        );
        let common = report.audit_ledgers().expect("ledgers consistent");
        // Every GeoBFT round appends z = 2 blocks.
        assert!(common >= 2);
    }

    /// The worker times each hand-off to the transport as the Output
    /// stage, which has no queue. Fails if it records its sends with no
    /// duration, counts a message it did not hand over, or charges the
    /// row a wait.
    #[test]
    fn output_stage_reports_its_busy_time() {
        let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
            .batch_size(5)
            .clients(1)
            .records(100)
            .duration(Duration::from_millis(300))
            .run();
        let output = report.stages.row(rdb_consensus::stage::Stage::Output);
        let rows = report.stages.summary();
        assert!(output.processed > 0, "{}", report.summary());
        assert!(output.busy > Duration::ZERO, "{rows}");
        assert_eq!(output.enqueued, output.processed, "{rows}");
        assert_eq!(output.blocked, Duration::ZERO, "{rows}");
        assert_eq!(report.messages_sent, output.processed);
    }

    #[test]
    fn crash_of_backup_preserves_progress_and_agreement() {
        let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
            .batch_size(5)
            .clients(2)
            .records(500)
            .duration(Duration::from_millis(900))
            .faults(vec![FaultSpec::crash_at_secs(ReplicaId::new(0, 3), 0.2)])
            .run();
        assert!(report.completed_batches > 0);
        report.audit_ledgers().expect("live ledgers consistent");
    }
}
