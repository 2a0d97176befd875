//! High-level experiment scenarios: build a full deployment (replicas +
//! closed-loop YCSB clients + faults) for any protocol, run
//! warm-up + measurement, and report the metrics the paper's figures
//! plot.
//!
//! Defaults mirror §4 of the paper: six-region Google Cloud topology
//! (Table 1), 160 k logical clients equally distributed across regions,
//! YCSB write-only workload over 600 k records, batch size 100. The
//! simulated durations are shorter than the paper's 180 s runs (warm-up +
//! measurement are configurable); throughput is a rate, so the window
//! only affects noise.

use crate::compute::ComputeModel;
use crate::engine::Engine;
use crate::stats::NetStats;
use crate::topology::Topology;
use rdb_common::config::SystemConfig;
use rdb_common::ids::{ClientId, ReplicaId};
use rdb_common::time::{SimDuration, SimTime};
use rdb_consensus::adversary::AdversarySpec;
use rdb_consensus::clients::BatchSource;
use rdb_consensus::config::{ExecMode, ProtocolConfig, ProtocolKind};
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_consensus::faults::{FaultSpec, FaultState};
use rdb_consensus::registry;
use rdb_crypto::sign::KeyStore;
use rdb_store::KvStore;
use rdb_workload::ycsb::{batch_source, YcsbConfig};
use serde::Serialize;

/// Pipeline-parallelism calibration per protocol: how many cores of the
/// 8-core N1 machines each implementation keeps busy in the Figure 9
/// pipeline. These and [`protocol_window`] are the only per-protocol
/// fudge factors in the model.
pub fn protocol_parallelism(kind: ProtocolKind) -> f64 {
    match kind {
        ProtocolKind::GeoBft => 1.3,
        ProtocolKind::Pbft => 2.0,
        ProtocolKind::Zyzzyva => 1.0,
        ProtocolKind::HotStuff => 2.2,
        ProtocolKind::Steward => 1.0,
    }
}

/// Out-of-order pipelining window per protocol. PBFT-family protocols keep
/// a deep in-flight window (ResilientDB processes consensus instances out
/// of order); Steward's wide-area ordering is nearly sequential, which is
/// part of why the paper finds it slow.
pub fn protocol_window(kind: ProtocolKind) -> u64 {
    match kind {
        ProtocolKind::GeoBft => 48,
        ProtocolKind::Pbft => 48,
        ProtocolKind::Zyzzyva => 64,
        ProtocolKind::HotStuff => 24,
        ProtocolKind::Steward => 8,
    }
}

/// A full experiment configuration.
#[derive(Clone)]
pub struct Scenario {
    /// Protocol under test.
    pub kind: ProtocolKind,
    /// Protocol tunables (embeds the z x n system configuration).
    pub cfg: ProtocolConfig,
    /// Network topology; defaults to the Table 1 paper topology over the
    /// system's regions.
    pub topology: Option<Topology>,
    /// Base compute model (protocol parallelism applied automatically).
    pub compute: ComputeModel,
    /// Total logical clients (paper: 160 000), grouped into one
    /// closed-loop batch client per `batch_size` logical clients.
    pub logical_clients: usize,
    /// Warm-up duration (excluded from measurement).
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Deployment seed (keys, workload).
    pub seed: u64,
    /// Faults to inject.
    pub faults: Vec<FaultSpec>,
    /// Workload shape.
    pub ycsb: YcsbConfig,
    /// Keep a full ledger per replica (memory-heavy; tests/examples).
    pub track_ledgers: bool,
    /// With `ExecMode::Real`, preload this many YCSB records per replica.
    pub real_exec_records: u64,
    /// Byzantine behaviour per replica (see
    /// [`rdb_consensus::adversary`]); applied as protocol wrappers at
    /// deployment time.
    pub adversaries: Vec<(ReplicaId, AdversarySpec)>,
    /// Replace the YCSB workload with a custom per-client batch source
    /// (`factory(client, seed)`); used by the scenario harness for
    /// SmallBank-style transaction-program workloads. `Arc` so
    /// [`Scenario`] stays `Clone`.
    pub source_factory: Option<std::sync::Arc<dyn Fn(ClientId, u64) -> BatchSource + Send + Sync>>,
}

impl Scenario {
    /// A paper-style scenario: `z` clusters of `n` replicas running
    /// `kind`, batch size 100, Table 1 topology.
    pub fn paper(kind: ProtocolKind, z: usize, n: usize) -> Scenario {
        let system = SystemConfig::geo(z, n).expect("valid system");
        let mut cfg = ProtocolConfig::new(system);
        cfg.exec_mode = ExecMode::Modeled;
        cfg.window = protocol_window(kind);
        // Zyzzyva clients wait this long for the full n responses before
        // falling back to the commit phase — the conservative timeout that
        // wrecks Zyzzyva under failures (§4.3, [Clement et al.]).
        cfg.spec_window = SimDuration::from_millis(1_500);
        Scenario {
            kind,
            cfg,
            topology: None,
            compute: ComputeModel::default(),
            logical_clients: 160_000,
            warmup: SimDuration::from_millis(1_500),
            measure: SimDuration::from_secs(3),
            seed: 0xD1CE,
            faults: Vec::new(),
            ycsb: YcsbConfig::default(),
            track_ledgers: false,
            real_exec_records: 1_000,
            adversaries: Vec::new(),
            source_factory: None,
        }
    }

    /// Set the batch size on both the protocol and the workload.
    pub fn with_batch_size(mut self, batch: usize) -> Scenario {
        self.cfg.batch_size = batch;
        self.ycsb.batch_size = batch;
        self
    }

    /// Shorter windows for tests.
    pub fn quick(mut self) -> Scenario {
        self.warmup = SimDuration::from_millis(500);
        self.measure = SimDuration::from_millis(1_500);
        self
    }

    /// Number of closed-loop batch clients (each stands for `batch_size`
    /// logical clients, keeping the paper's outstanding-transaction count).
    pub fn batch_clients(&self) -> usize {
        (self.logical_clients / self.ycsb.batch_size.max(1)).max(self.cfg.system.z())
    }

    /// Execute the scenario, returning only the metrics.
    pub fn run(self) -> RunMetrics {
        self.run_full().0
    }

    /// Execute the scenario, also returning per-replica ledgers when
    /// [`Scenario::track_ledgers`] is set.
    pub fn run_full(
        self,
    ) -> (
        RunMetrics,
        Option<std::collections::BTreeMap<ReplicaId, rdb_ledger::Ledger>>,
    ) {
        let z = self.cfg.system.z();
        let n = self.cfg.system.n();
        let topology = self
            .topology
            .clone()
            .unwrap_or_else(|| Topology::paper(&self.cfg.system.regions));

        let replica_model = self
            .compute
            .clone()
            .with_parallelism(protocol_parallelism(self.kind));
        // Client pools have plenty of cores in aggregate (8 x 4-core
        // machines in the paper); they are not the bottleneck.
        let client_model = ComputeModel {
            parallelism: 64.0,
            ..self.compute.clone()
        };

        // Keys are generated but signature checking is modeled: the
        // compute model charges virtual time instead.
        let ks = KeyStore::new(self.seed);
        let observer = ks.register(ClientId::new(0, u32::MAX).into());
        let edge = CryptoCtx::new(observer, ks.verifier(), false);
        let mut engine = Engine::new(
            topology,
            self.cfg.system.clone(),
            edge,
            replica_model,
            client_model,
            FaultState::new(&self.faults),
        );
        if self.track_ledgers {
            engine.attach_ledgers();
        }

        // One preload per run; every replica's table is a clone of it.
        // Modeled execution leaves the state untouched.
        let preload = match self.cfg.exec_mode {
            ExecMode::Real => KvStore::with_ycsb_records(self.real_exec_records),
            ExecMode::Modeled => KvStore::new(),
        };
        for rid in self.cfg.system.all_replicas().collect::<Vec<_>>() {
            let signer = ks.register(rid.into());
            let crypto = CryptoCtx::new(signer, ks.verifier(), false);
            let store = preload.clone();
            let adversary = self
                .adversaries
                .iter()
                .find(|(r, _)| *r == rid)
                .map(|(_, spec)| spec);
            engine.add_replica(registry::build_replica_with_adversary(
                self.kind,
                self.cfg.clone(),
                rid,
                crypto,
                store,
                adversary,
            ));
        }

        // Clients, equally distributed across clusters (§4).
        let clients = self.batch_clients();
        for i in 0..clients {
            let cid = ClientId::new((i % z) as u16, (i / z) as u32);
            let signer = ks.register(cid.into());
            let crypto = CryptoCtx::new(signer, ks.verifier(), false);
            let source = match &self.source_factory {
                Some(factory) => factory(cid, self.seed),
                None => batch_source(self.ycsb.clone(), cid, self.seed),
            };
            engine.add_client(registry::build_client(
                self.kind,
                self.cfg.clone(),
                cid,
                crypto,
                source,
            ));
        }

        engine.start();
        let t_warm = SimTime::ZERO + self.warmup;
        let t_end = t_warm + self.measure;
        engine.schedule_stats_reset(t_warm);
        engine.run_until(t_end);

        let stats = std::mem::take(&mut engine.stats);
        let ledgers = if self.track_ledgers {
            engine.ledgers().cloned()
        } else {
            None
        };
        let secs = self.measure.as_secs_f64();
        let decisions = stats.observer_decisions.max(1);
        let metrics = RunMetrics {
            protocol: self.kind.name().to_string(),
            z,
            n,
            batch: self.ycsb.batch_size,
            throughput_txn_s: stats.completed_txns as f64 / secs,
            avg_latency_s: stats.avg_latency().as_secs_f64(),
            p50_latency_s: stats.latency_percentile(0.5).as_secs_f64(),
            p99_latency_s: stats.latency_percentile(0.99).as_secs_f64(),
            decisions_per_s: stats.observer_decisions as f64 / secs,
            msgs_local_per_decision: stats.msgs_local as f64 / decisions as f64,
            msgs_global_per_decision: stats.msgs_global as f64 / decisions as f64,
            global_mb_per_s: stats.bytes_global as f64 / secs / 1e6,
            completed_batches: stats.completed_batches,
            shed_msgs: stats.shed_msgs,
            blocked_s: stats.blocked_wait.as_secs_f64(),
            max_input_depth: stats.max_input_depth,
            checkpoints: stats.checkpoints,
            events: engine.events_processed(),
            stats,
        };
        (metrics, ledgers)
    }
}

/// Results of one scenario run — one data point in a figure.
#[derive(Debug, Clone, Serialize)]
pub struct RunMetrics {
    /// Protocol name as in the paper's figures.
    pub protocol: String,
    /// Number of clusters.
    pub z: usize,
    /// Replicas per cluster.
    pub n: usize,
    /// Batch size.
    pub batch: usize,
    /// Client-observed transactions per second (the paper's y-axis).
    pub throughput_txn_s: f64,
    /// Mean client latency in seconds (the paper's latency axis).
    pub avg_latency_s: f64,
    /// Median client latency.
    pub p50_latency_s: f64,
    /// Tail client latency.
    pub p99_latency_s: f64,
    /// Consensus decisions per second at the observer replica.
    pub decisions_per_s: f64,
    /// Intra-region messages per decision (Table 2 "local").
    pub msgs_local_per_decision: f64,
    /// Inter-region messages per decision (Table 2 "global").
    pub msgs_global_per_decision: f64,
    /// WAN traffic in MB/s.
    pub global_mb_per_s: f64,
    /// Completed client batches in the window.
    pub completed_batches: u64,
    /// Droppable messages shed at full modeled input queues (nonzero
    /// only with `Overload::Shed` and offered load past capacity).
    pub shed_msgs: u64,
    /// Virtual seconds messages spent waiting for admission at full
    /// modeled input queues (the modeled backpressure).
    pub blocked_s: f64,
    /// Deepest modeled input-queue backlog at any replica — bounded by
    /// `PipelineModel::input_capacity + 1` when a bound is set.
    pub max_input_depth: u64,
    /// Pipeline checkpoints taken across all replicas (modeled stage).
    /// Skipped in JSON output so figure reproductions stay byte-stable
    /// against pre-checkpoint baselines.
    #[serde(skip)]
    pub checkpoints: u64,
    /// Events processed (simulation cost).
    pub events: u64,
    /// Raw statistics.
    #[serde(skip)]
    pub stats: NetStats,
}

impl RunMetrics {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<9} z={} n={:<2} batch={:<3} | {:>9.0} txn/s | lat {:>6.3}s | {:>6.1} dec/s | msgs/dec local {:>7.1} global {:>6.1}",
            self.protocol,
            self.z,
            self.n,
            self.batch,
            self.throughput_txn_s,
            self.avg_latency_s,
            self.decisions_per_s,
            self.msgs_local_per_decision,
            self.msgs_global_per_decision,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: ProtocolKind, z: usize, n: usize) -> Scenario {
        let mut s = Scenario::paper(kind, z, n).quick();
        s.logical_clients = 2_000;
        s.ycsb = YcsbConfig {
            record_count: 1_000,
            batch_size: 50,
            ..YcsbConfig::default()
        };
        s.cfg.batch_size = 50;
        s
    }

    #[test]
    fn geobft_two_clusters_makes_progress() {
        let m = tiny(ProtocolKind::GeoBft, 2, 4).run();
        assert!(m.throughput_txn_s > 0.0, "no throughput: {m:?}");
        assert!(m.avg_latency_s > 0.0);
        assert!(m.decisions_per_s > 0.0);
    }

    #[test]
    fn pbft_single_cluster_makes_progress() {
        let m = tiny(ProtocolKind::Pbft, 1, 4).run();
        assert!(m.throughput_txn_s > 0.0, "no throughput: {m:?}");
    }

    #[test]
    fn all_protocols_make_progress_at_2x4() {
        for kind in ProtocolKind::ALL {
            let m = tiny(kind, 2, 4).run();
            assert!(
                m.completed_batches > 0,
                "{kind} made no progress: {}",
                m.summary()
            );
        }
    }

    #[test]
    fn modeled_verifier_fanout_scales_throughput() {
        // The staged compute model must show the paper's Figure-9 effect:
        // on a verification-bound workload, adding verifier threads lifts
        // throughput (1 -> 4), deterministically and regardless of host
        // cores.
        let run = |fanout: usize| {
            let mut s = tiny(ProtocolKind::Pbft, 1, 4);
            s.compute.pipeline = crate::compute::PipelineModel::with_verifiers(fanout);
            s.run().throughput_txn_s
        };
        let narrow = run(1);
        let wide = run(4);
        assert!(
            wide > narrow,
            "fan-out 4 ({wide:.0} txn/s) must beat fan-out 1 ({narrow:.0} txn/s)"
        );
    }

    #[test]
    fn geobft_beats_pbft_at_geo_scale() {
        // The headline claim, at small scale: with several distant
        // regions, GeoBFT outperforms PBFT.
        let geo = tiny(ProtocolKind::GeoBft, 4, 4).run();
        let pbft = tiny(ProtocolKind::Pbft, 4, 4).run();
        assert!(
            geo.throughput_txn_s > pbft.throughput_txn_s,
            "GeoBFT {} <= PBFT {}",
            geo.summary(),
            pbft.summary()
        );
    }

    #[test]
    fn geobft_survives_suppressing_primary() {
        // Byzantine primary of cluster 0 withholds certificates; the
        // remote view-change protocol must restore progress.
        let mut s = tiny(ProtocolKind::GeoBft, 2, 4);
        s.cfg.remote_timeout = SimDuration::from_millis(200);
        s.cfg.progress_timeout = SimDuration::from_millis(400);
        s.adversaries = vec![(ReplicaId::new(0, 0), AdversarySpec::SuppressGlobalShare)];
        let m = s.run();
        assert!(
            m.completed_batches > 0,
            "no progress under Byzantine primary: {}",
            m.summary()
        );
    }

    #[test]
    fn crash_of_backup_does_not_halt_geobft() {
        let mut s = tiny(ProtocolKind::GeoBft, 2, 4);
        s.faults = vec![FaultSpec::crash_at_secs(ReplicaId::new(1, 3), 0.0)];
        let m = s.run();
        assert!(m.completed_batches > 0);
    }
}
