//! Cross-runtime equivalence: the same PBFT deployment driven through the
//! deterministic simulator (`rdb-simnet`, modeled compute/virtual time)
//! and the real threaded fabric (`resilientdb`, OS threads + real
//! signatures) must commit the *same blockchain* — same batches, same
//! order, same post-execution state digests, hence identical block
//! hashes over the common prefix.
//!
//! This pins down the contract behind the staged refactor: both runtimes
//! drive the same sans-io state machines through the same pipeline
//! abstraction (verify → order → execute), so only timing may differ —
//! never content.

use rdb_common::ids::ReplicaId;
use rdb_consensus::config::{ExecMode, ProtocolKind};
use rdb_ledger::Ledger;
use rdb_simnet::Scenario;
use rdb_workload::ycsb::YcsbConfig;
use resilientdb::{DeploymentBuilder, DeploymentReport, StorageMode};
use std::time::Duration;

mod support;

/// The closed-loop YCSB harness, written out over the service API: boot
/// the fabric, attach the workload clients, let it run, collect the
/// report. `DeploymentBuilder::run()` is exactly this sequence; driving
/// it explicitly here pins the harness-over-API contract.
fn drive(builder: DeploymentBuilder, clients: usize, duration: Duration) -> DeploymentReport {
    let fabric = builder.start();
    fabric.spawn_ycsb_clients(clients);
    std::thread::sleep(duration);
    fabric.shutdown()
}

const SEED: u64 = 7;
const RECORDS: u64 = 500;
const BATCH: usize = 5;

/// One closed-loop client, PBFT over a single 4-replica cluster, real
/// YCSB execution — in the simulator.
fn simnet_ledger() -> Ledger {
    let mut s = Scenario::paper(ProtocolKind::Pbft, 1, 4).quick();
    s.cfg.exec_mode = ExecMode::Real;
    s.cfg.batch_size = BATCH;
    s.real_exec_records = RECORDS;
    s.track_ledgers = true;
    s.seed = SEED;
    // Exactly one closed-loop batch client => a deterministic proposal
    // order (client batch_seq order).
    s.logical_clients = BATCH;
    s.ycsb = YcsbConfig {
        record_count: RECORDS,
        batch_size: BATCH,
        ..YcsbConfig::default()
    };
    let (metrics, ledgers) = s.run_full();
    assert!(metrics.completed_batches > 0, "simnet made no progress");
    ledgers
        .expect("ledgers tracked")
        .remove(&ReplicaId::new(0, 0))
        .expect("observer replica ledger")
}

/// The same deployment on the real staged pipeline.
fn fabric_ledgers() -> DeploymentReport {
    let builder = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(BATCH)
        .records(RECORDS)
        .seed(SEED);
    drive(builder, 1, Duration::from_millis(900))
}

#[test]
fn simnet_and_fabric_commit_identical_ledgers() {
    let sim = simnet_ledger();
    let report = fabric_ledgers();
    assert!(report.completed_batches > 0, "{}", report.summary());
    let common = report.audit_ledgers().expect("fabric ledgers consistent");
    report
        .audit_execution_stage()
        .expect("materialized tables match ledger heads");
    let fabric = &report.ledgers[&ReplicaId::new(0, 0)];

    let prefix = common.min(sim.head_height());
    assert!(
        prefix >= 3,
        "need a non-trivial common prefix (fabric {common}, simnet {})",
        sim.head_height()
    );
    for h in 1..=prefix {
        let a = sim.block(h).expect("simnet block");
        let b = fabric.block(h).expect("fabric block");
        assert_eq!(
            a.batch.digest(),
            b.batch.digest(),
            "batch divergence at height {h}"
        );
        assert_eq!(
            a.state_digest, b.state_digest,
            "execution state divergence at height {h}"
        );
        assert_eq!(a.hash(), b.hash(), "block hash divergence at height {h}");
    }
}

#[test]
fn socket_transport_commits_identical_ledgers() {
    // Cross-transport equivalence: the same deployment with every
    // message serialized through `rdb_consensus::codec` and carried over
    // real loopback TCP connections must commit a ledger byte-identical
    // to the in-process transport and the simulator. Serialization and
    // sockets may only change timing — never content.
    use resilientdb::TransportMode;

    let sim = simnet_ledger();
    let inproc = fabric_ledgers();
    assert!(inproc.completed_batches > 0, "{}", inproc.summary());
    inproc.audit_ledgers().expect("in-proc ledgers consistent");

    let builder = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(BATCH)
        .records(RECORDS)
        .seed(SEED)
        .transport_mode(TransportMode::Tcp);
    let report = drive(builder, 1, Duration::from_millis(1_200));
    assert!(report.completed_batches > 0, "{}", report.summary());
    let common = report.audit_ledgers().expect("socket ledgers consistent");
    report
        .audit_execution_stage()
        .expect("materialized tables match ledger heads");

    let socket = &report.ledgers[&ReplicaId::new(0, 0)];
    let inproc_ledger = &inproc.ledgers[&ReplicaId::new(0, 0)];
    let prefix = common
        .min(sim.head_height())
        .min(inproc_ledger.head_height());
    assert!(
        prefix >= 3,
        "need a non-trivial common prefix (socket {common}, in-proc {}, simnet {})",
        inproc_ledger.head_height(),
        sim.head_height()
    );
    for h in 1..=prefix {
        let a = sim.block(h).expect("simnet block");
        let b = inproc_ledger.block(h).expect("in-proc block");
        let c = socket.block(h).expect("socket block");
        assert_eq!(
            a.hash(),
            c.hash(),
            "socket vs simnet block divergence at height {h}"
        );
        assert_eq!(
            b.hash(),
            c.hash(),
            "socket vs in-proc block divergence at height {h}"
        );
    }

    // Real bytes moved: the in-process run reports no links, the socket
    // run reports every loaded link with frame counts behind the bytes.
    assert!(inproc.net.links.is_empty(), "in-proc moved bytes?");
    assert!(!report.net.links.is_empty(), "socket run reports no links");
    assert!(report.net.total_bytes_out() > 0);
    assert!(report.net.total_frames_out() > 0);
    for link in &report.net.links {
        assert!(
            link.bytes_out == 0 || link.frames_out > 0,
            "bytes without frames on {:?}->{:?}",
            link.from,
            link.to
        );
    }

    // Frame sizes on the wire match the paper's §4 size model: the codec
    // pads every frame to `Message::wire_size()`, so each modeled
    // message costs exactly model + FRAME_OVERHEAD header bytes. (The
    // codec's own tests cover every variant; here we pin the three the
    // bandwidth model is built from — batched PrePrepare, certificate,
    // client response — at this deployment's batch size.)
    use rdb_common::ids::ClusterId;
    use rdb_consensus::codec::{frame_size, FRAME_OVERHEAD};
    use rdb_consensus::messages::Message;
    let cluster = ClusterId(0);
    let preprepare = Message::PrePrepare {
        scope: rdb_consensus::Scope::Cluster(cluster),
        view: 0,
        seq: 1,
        batch: rdb_consensus::SignedBatch::noop(cluster, 0),
        digest: Default::default(),
    };
    // A noop batch carries one transaction.
    assert_eq!(
        frame_size(&preprepare),
        rdb_common::wire::preprepare_bytes(1) + FRAME_OVERHEAD
    );
    let commit = Message::Commit {
        scope: rdb_consensus::Scope::Global,
        view: 0,
        seq: 1,
        digest: Default::default(),
        sig: Default::default(),
    };
    assert_eq!(
        frame_size(&commit),
        rdb_common::wire::control_bytes() + FRAME_OVERHEAD
    );
}

#[test]
fn executor_commits_simnet_identical_ledgers_in_memory_and_durable() {
    // The one execute thread must be invisible in the committed chain:
    // the same deployment commits ledgers byte-identical to the
    // simulator — same batches, same post-execution state digests, same
    // block hashes — and the materialized tables still audit against the
    // ledger heads. The same holds with durable storage, whose WAL batch
    // is written by that same thread, one per decision.
    use rdb_consensus::stage::Stage;
    let sim = simnet_ledger();
    for durable in [false, true] {
        let tmp = durable.then(|| support::TempDir::new("equivalence-exec"));
        let storage = match &tmp {
            Some(tmp) => StorageMode::Durable(tmp.path().to_path_buf()),
            None => StorageMode::Memory,
        };
        let builder = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
            .batch_size(BATCH)
            .records(RECORDS)
            .seed(SEED)
            .storage(storage);
        let report = drive(builder, 1, Duration::from_millis(900));
        assert!(
            report.completed_batches > 0,
            "durable={durable}: {}",
            report.summary()
        );
        let common = report
            .audit_ledgers()
            .unwrap_or_else(|e| panic!("durable={durable}: fabric ledgers inconsistent: {e}"));
        report
            .audit_execution_stage()
            .unwrap_or_else(|e| panic!("durable={durable}: execution audit failed: {e}"));
        let fabric = &report.ledgers[&ReplicaId::new(0, 0)];
        let prefix = common.min(sim.head_height());
        assert!(
            prefix >= 3,
            "durable={durable}: need a non-trivial common prefix (fabric {common}, simnet {})",
            sim.head_height()
        );
        for h in 1..=prefix {
            let a = sim.block(h).expect("simnet block");
            let b = fabric.block(h).expect("fabric block");
            assert_eq!(
                a.batch.digest(),
                b.batch.digest(),
                "durable={durable}: batch divergence at height {h}"
            );
            assert_eq!(
                a.state_digest, b.state_digest,
                "durable={durable}: execution state divergence at height {h}"
            );
            assert_eq!(
                a.hash(),
                b.hash(),
                "durable={durable}: block hash divergence at height {h}"
            );
        }
        // The execute stage accounted every decision it appended: PBFT
        // appends one block per decision, on every replica.
        let appended: u64 = report.ledgers.values().map(|l| l.head_height()).sum();
        assert_eq!(
            report.stages.row(Stage::Execute).processed,
            appended,
            "durable={durable}: execute stage lost decisions"
        );
    }
}

#[test]
fn saturated_bounded_queues_commit_identical_ledgers() {
    // The same single-client deployment, but with the smallest sane
    // queue bounds on the fabric side (a consensus burst of a 4-replica
    // PBFT round can fill a 6-deep inbox, so the blocking machinery is
    // genuinely exercised on every queue) and the mirrored modeled bound
    // on the simnet side. Block policies are lossless, so backpressure
    // may change *timing* — never *content*: the committed chains must
    // stay byte-identical over the common prefix. (The lossy Shed path
    // is exercised under multi-client flood in `tests/backpressure.rs`,
    // where content equality is checked across replicas instead.)
    use rdb_simnet::{Overload, PipelineModel};
    use resilientdb::QueuePolicy;

    let sim = {
        let mut s = rdb_simnet::Scenario::paper(ProtocolKind::Pbft, 1, 4).quick();
        s.cfg.exec_mode = ExecMode::Real;
        s.cfg.batch_size = BATCH;
        s.real_exec_records = RECORDS;
        s.track_ledgers = true;
        s.seed = SEED;
        s.logical_clients = BATCH;
        s.ycsb = rdb_workload::ycsb::YcsbConfig {
            record_count: RECORDS,
            batch_size: BATCH,
            ..rdb_workload::ycsb::YcsbConfig::default()
        };
        // A 6-deep modeled bound; Block keeps the modeled schedule
        // identical while making the queueing observable.
        s.compute.pipeline = PipelineModel::with_verifiers(2).with_input_queue(6, Overload::Block);
        let (metrics, ledgers) = s.run_full();
        assert!(metrics.completed_batches > 0, "simnet made no progress");
        ledgers
            .expect("ledgers tracked")
            .remove(&ReplicaId::new(0, 0))
            .expect("observer replica ledger")
    };

    let builder = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(BATCH)
        .records(RECORDS)
        .seed(SEED)
        // One PBFT instance keeps ~n² + n ≈ 20 messages in flight; these
        // bounds bite (single queues fill) while the sum along any
        // replica-to-replica blocking cycle (work + output + inbox, both
        // directions ≈ 44) stays above it, so lossless Block can never
        // wedge the deployment. The capacity argument covers *cross*-
        // replica cycles only: the runtime delivers a replica's votes to
        // itself inline on the worker (see `dispatch_replica_actions`),
        // so no self-loop cycle through these queues exists.
        .input_queue(QueuePolicy::block(6))
        .order_queue(QueuePolicy::block(8))
        .exec_queue(QueuePolicy::block(2))
        .output_queue(QueuePolicy::block(8));
    let report = drive(builder, 1, Duration::from_millis(1_200));
    assert!(report.completed_batches > 0, "{}", report.summary());
    let common = report.audit_ledgers().expect("fabric ledgers consistent");
    report
        .audit_execution_stage()
        .expect("materialized tables match ledger heads");
    let fabric = &report.ledgers[&ReplicaId::new(0, 0)];

    let prefix = common.min(sim.head_height());
    assert!(
        prefix >= 3,
        "need a non-trivial common prefix under saturation (fabric {common}, simnet {})",
        sim.head_height()
    );
    for h in 1..=prefix {
        let a = sim.block(h).expect("simnet block");
        let b = fabric.block(h).expect("fabric block");
        assert_eq!(a.hash(), b.hash(), "block hash divergence at height {h}");
    }
}

#[test]
fn checkpoint_compaction_preserves_ledger_equivalence_under_saturation() {
    // Both runtimes run the checkpoint stage (interval 2) — the fabric
    // additionally under tiny lossless Block bounds on every queue, so
    // compaction and backpressure interact. The fabric certifies each
    // stable checkpoint with the anchor *block hash*, which binds the
    // entire chain prefix below it: every certified anchor that falls in
    // the simulator's retained window must carry the exact hash and
    // state digest the simulator's (independently compacted) ledger
    // records — byte-identical committed ledgers, proven through the
    // compaction machinery itself.
    use rdb_simnet::{Overload, PipelineModel};
    use resilientdb::QueuePolicy;
    const K: u64 = 2;

    let sim_run = |checkpointing: bool| {
        let mut s = rdb_simnet::Scenario::paper(ProtocolKind::Pbft, 1, 4).quick();
        s.cfg.exec_mode = ExecMode::Real;
        s.cfg.batch_size = BATCH;
        s.real_exec_records = RECORDS;
        s.track_ledgers = true;
        s.seed = SEED;
        s.logical_clients = BATCH;
        s.ycsb = rdb_workload::ycsb::YcsbConfig {
            record_count: RECORDS,
            batch_size: BATCH,
            ..rdb_workload::ycsb::YcsbConfig::default()
        };
        s.compute.pipeline = PipelineModel::with_verifiers(2)
            .with_input_queue(6, Overload::Block)
            .with_checkpointing(if checkpointing { K } else { 0 });
        let (metrics, ledgers) = s.run_full();
        assert!(metrics.completed_batches > 0, "simnet made no progress");
        assert_eq!(metrics.checkpoints > 0, checkpointing);
        ledgers
            .expect("ledgers tracked")
            .remove(&ReplicaId::new(0, 0))
            .expect("observer replica ledger")
    };
    // The modeled checkpoint stage charges off the worker's critical
    // path, so the committed chain is identical with and without it —
    // the compacted run's retained suffix must be byte-identical to the
    // full run's blocks, and the full run gives us every height the
    // (much slower, saturated) fabric will certify.
    let sim_full = sim_run(false);
    let sim = sim_run(true);
    assert!(sim.base_height() > 0, "simnet compaction never ran");
    assert_eq!(
        sim.head_hash(),
        sim_full.head_hash(),
        "checkpointing changed the schedule"
    );
    for h in sim.base_height()..=sim.head_height() {
        assert_eq!(
            sim.block(h).unwrap().hash(),
            sim_full.block(h).unwrap().hash(),
            "compacted suffix diverged at {h}"
        );
    }

    let builder = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(BATCH)
        .records(RECORDS)
        .seed(SEED)
        .checkpoint_interval(K)
        .input_queue(QueuePolicy::block(6))
        .order_queue(QueuePolicy::block(8))
        .exec_queue(QueuePolicy::block(2))
        .checkpoint_queue(QueuePolicy::block(2))
        .output_queue(QueuePolicy::block(8));
    let report = drive(builder, 1, Duration::from_millis(1_500));
    assert!(report.completed_batches > 0, "{}", report.summary());
    report.audit_ledgers().expect("fabric ledgers consistent");
    report
        .audit_execution_stage()
        .expect("materialized tables match ledger heads");

    let observer = ReplicaId::new(0, 0);
    let fabric = &report.ledgers[&observer];
    assert!(
        fabric.base_height() > 0,
        "fabric compaction never ran (stable {})",
        report.checkpoints[&observer].stable_height
    );

    // Every anchor the fabric quorum certified inside the simulator's
    // chain must match it byte for byte: the anchor block hash binds the
    // whole prefix below it, so one matching anchor proves the entire
    // committed history up to that height is identical across runtimes.
    let ckpt = &report.checkpoints[&observer];
    assert!(!ckpt.certified.is_empty(), "fabric never certified");
    let mut compared = 0;
    for (height, state, hash) in &ckpt.certified {
        let Some(block) = sim_full.block(*height) else {
            break; // the fabric outran the simulated window
        };
        assert_eq!(block.hash(), *hash, "anchor hash divergence at {height}");
        assert_eq!(
            block.state_digest, *state,
            "certified state divergence at {height}"
        );
        compared += 1;
    }
    assert!(
        compared > 0,
        "no certified anchor fell inside the simnet chain (head {})",
        sim_full.head_height()
    );
    // The checkpoint stage really ran under pressure on every replica.
    use rdb_consensus::stage::Stage;
    let row = report.stages.row(Stage::Checkpoint);
    assert!(row.processed > 0, "{}", report.stages.summary());
}

#[test]
fn staged_pipeline_reports_stage_flow() {
    use rdb_consensus::stage::Stage;
    let builder = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(BATCH)
        .records(RECORDS)
        .verifier_threads(4);
    let report = drive(builder, 2, Duration::from_millis(600));
    assert!(report.completed_batches > 0, "{}", report.summary());
    let stages = &report.stages;
    // Every stage saw traffic, in pipeline order.
    assert!(stages.row(Stage::Input).processed > 0);
    assert!(stages.row(Stage::Input).enqueued >= stages.row(Stage::Input).processed);
    assert!(stages.row(Stage::Verify).processed > 0);
    assert!(stages.row(Stage::Order).processed > 0);
    assert!(stages.row(Stage::Output).processed > 0);
    // All traffic is honestly signed: the verifier pool dropped nothing.
    assert_eq!(stages.row(Stage::Verify).dropped, 0);
    // Execution saw exactly the decided count and kept up.
    assert_eq!(stages.row(Stage::Execute).enqueued, report.decided);
    assert_eq!(stages.row(Stage::Execute).processed, report.decided);
    // The worker spent real, measured time ordering.
    assert!(report.worker_occupancy() > 0.0);
}

#[test]
fn wide_verifier_fanout_preserves_safety_and_progress() {
    // Reordering across 4 parallel verifiers must not break agreement.
    let builder = DeploymentBuilder::new(ProtocolKind::GeoBft, 2, 4)
        .batch_size(BATCH)
        .records(RECORDS)
        .verifier_threads(4);
    let report = drive(builder, 2, Duration::from_millis(900));
    assert!(report.completed_batches > 0, "{}", report.summary());
    let blocks = report.audit_ledgers().expect("consistent ledgers");
    assert!(blocks >= 2, "expected at least one full GeoBFT round");
    report
        .audit_execution_stage()
        .expect("materialized tables match ledger heads");
}
