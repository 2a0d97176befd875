//! Overload behavior of the bounded-queue pipeline (fabric and simnet).
//!
//! The tentpole contract: an overloaded replica must *not* grow memory
//! without bound. Its input queue stays at its configured capacity, the
//! overflow shows up in the per-stage `shed` (droppable consensus
//! traffic) and `blocked_ns` (client admission) counters, and — because
//! shedding is restricted to retransmittable traffic — safety is
//! untouched: every replica still commits the same chain.

use rdb_consensus::config::ProtocolKind;
use rdb_consensus::stage::Stage;
use resilientdb::{DeploymentBuilder, QueuePolicy};
use std::time::Duration;

const INPUT_CAP: usize = 12;
const REPLICAS: u64 = 4;

/// Flood a 4-replica PBFT cluster with 16 closed-loop clients against a
/// 12-envelope shedding input bound — offered load far past what the
/// queues admit — with the checkpoint stage running (interval 4), so
/// stable-state garbage collection is exercised under exactly the
/// overload it exists for. Shedding is recovered by retransmission, so
/// the deployment runs with fast protocol timeouts: within the window,
/// client retries re-drive any instance whose messages were shed
/// (without them, a fully shed instance would just stay stalled — which
/// on a loaded CI host can be every instance). Checkpoint votes are
/// non-droppable and delivered with the never-parking hold-and-retry
/// send, so the flood cannot lose or deadlock them.
fn flooded() -> resilientdb::DeploymentReport {
    DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .clients(16)
        .records(500)
        .verifier_threads(2)
        .input_queue(QueuePolicy::shed(INPUT_CAP))
        .checkpoint_interval(4)
        .fast_timeouts()
        .duration(Duration::from_millis(1_500))
        .run()
}

#[test]
fn flooded_replica_bounds_queues_and_keeps_agreement() {
    let report = flooded();
    let stages = &report.stages;
    let input = stages.row(Stage::Input);

    // 1. Flat memory: the aggregate input backlog (all replicas) can
    //    never exceed the per-replica bound times the replica count.
    assert!(
        input.queue_depth <= INPUT_CAP as u64 * REPLICAS,
        "input backlog past the bound: {}",
        stages.summary()
    );

    // 2. The overload was real and was absorbed by the policy: droppable
    //    consensus traffic was shed and/or client admission blocked.
    assert!(
        input.shed > 0 || !input.blocked.is_zero(),
        "no overload signal despite 16 clients on a {INPUT_CAP}-deep queue: {}",
        stages.summary()
    );

    // 3. Graceful degradation, not collapse: the deployment still
    //    commits.
    assert!(
        report.completed_batches > 0,
        "no progress under overload: {}",
        report.summary()
    );

    // 4. Shedding never touches safety: every ledger is internally
    //    valid and all replicas agree on the committed common prefix.
    //    (That prefix can legitimately be empty on a starved host — a
    //    backup whose inbound commits were all shed commits nothing in
    //    the window and would catch up via recovery — so progress is
    //    asserted on the deepest chain, not the shallowest.)
    report.audit_ledgers().expect("ledgers consistent");
    let deepest = report
        .ledgers
        .values()
        .map(|l| l.head_height())
        .max()
        .unwrap_or(0);
    assert!(deepest > 0, "no replica committed anything");
    report
        .audit_execution_stage()
        .expect("materialized tables match ledger heads");

    // 5. Checkpointing under flood: any replica that reached a stable
    //    checkpoint must also have pruned the consensus ledger behind
    //    its recovery anchor — stable-state lag does not grow with the
    //    flood (the Looking-Glass failure mode the stage exists for).
    //    (A starved backup whose votes were all delayed can legitimately
    //    end the short window without a second stable checkpoint; the
    //    deepest replica is asserted below.)
    let best = report
        .checkpoints
        .iter()
        .max_by_key(|(_, c)| c.stable_height)
        .expect("checkpoint stage ran");
    assert!(
        best.1.stable_height > 0,
        "no replica certified a checkpoint under flood"
    );
    for (rid, ckpt) in &report.checkpoints {
        let ledger = &report.ledgers[rid];
        if ckpt.certified.len() >= 2 {
            assert!(
                ledger.base_height() > 0,
                "replica {rid} certified {} checkpoints but never pruned",
                ckpt.certified.len()
            );
        }
        assert!(
            ckpt.tracked <= 64,
            "replica {rid} tracker grew to {} in-flight checkpoints",
            ckpt.tracked
        );
    }
}

#[test]
fn blocking_input_policy_never_sheds() {
    // A moderate load against a pure Block input policy: zero sheds —
    // all backpressure lands on producers as blocked time. (Deliberately
    // not a flood: an all-Block input under heavy replica-to-replica
    // traffic can park workers on peer inboxes in a cycle, which
    // is exactly why the derived default input policy is Shed — see
    // `resilientdb::queue`.)
    let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .clients(3)
        .records(500)
        .input_queue(QueuePolicy::block(INPUT_CAP))
        .duration(Duration::from_millis(700))
        .run();
    let input = report.stages.row(Stage::Input);
    assert_eq!(input.shed, 0, "Block policy must not shed");
    assert!(
        input.queue_depth <= INPUT_CAP as u64 * REPLICAS,
        "input backlog past the bound: {}",
        report.stages.summary()
    );
    assert!(report.completed_batches > 0, "{}", report.summary());
    report.audit_ledgers().expect("ledgers consistent");
}

#[test]
fn slow_checkpoint_stage_throttles_execution_and_bounds_stable_lag() {
    // Fault injection: every checkpoint boundary is artificially slowed
    // on the execute thread, which runs the checkpoint stage. Because the
    // exec queue is Block-policy (decisions are agreed state and
    // checkpoint votes are not retransmittable), the worker parks on the
    // full queue instead of letting checkpoint lag grow without bound:
    // the wait must show up as `blocked_ns` on the execute stage, each
    // replica's head must stay within one interval of its own checkpoint
    // progress, and the certified watermark must track the quorum's.
    const K: u64 = 2;
    // Small work/exec queues keep the *shutdown drain* bounded too: when
    // the pipeline stops, the worker and executor drain their queues
    // after the verifiers (and with them, inbound peer votes) are gone,
    // so the stable watermark freezes while the head still advances by
    // up to the drained backlog.
    const ORDER_CAP: u64 = 8;
    const EXEC_CAP: u64 = 2;
    let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .clients(4)
        .records(300)
        .checkpoint_interval(K)
        .order_queue(ORDER_CAP as usize)
        .exec_queue(EXEC_CAP as usize)
        .checkpoint_fault_delay(Duration::from_millis(5))
        .duration(Duration::from_millis(1_500))
        .run();

    // Progress despite the throttle, with agreement intact.
    assert!(report.completed_batches > 0, "{}", report.summary());
    report.audit_ledgers().expect("ledgers consistent");
    report
        .audit_execution_stage()
        .expect("materialized tables match ledger heads");

    assert!(
        report.stages.row(Stage::Checkpoint).processed > 0,
        "{}",
        report.stages.summary()
    );
    assert!(
        !report.stages.row(Stage::Execute).blocked.is_zero(),
        "the slowed checkpoint stage never pushed back on the worker: {}",
        report.stages.summary()
    );

    // The throttle itself is *local*: the execute thread handles each
    // checkpoint boundary right after the append that reaches it, so a
    // replica's head can never run a whole interval past the last
    // boundary it processed. That holds regardless of OS scheduling, so
    // it is asserted per replica.
    let local_bound = K - 1;
    // *Stability* additionally needs a quorum (N - F = 3 of 4) of votes,
    // so the certified watermark can only ever track the 2nd-slowest
    // replica's checkpoint progress (the quorum pivot). On a loaded host
    // the scheduler can starve one replica hundreds of heights behind
    // its peers; that spread is real but is not the throttle's to bound,
    // so stability is measured against the pivot, not each replica's own
    // head. Slack: a vote round trip at the pivot replica, plus the
    // shutdown drain (the worker and executor drain their queues after
    // the verifiers — and with them, inbound peer votes — are gone).
    let pivot_bound = K * 4 + ORDER_CAP + EXEC_CAP + K;
    let mut processed: Vec<u64> = report
        .checkpoints
        .values()
        .map(|c| c.processed_height)
        .collect();
    processed.sort_unstable();
    let pivot = processed[1]; // 2nd-lowest: the quorum-achievable height
    for (rid, ckpt) in &report.checkpoints {
        assert!(
            ckpt.stable_height > 0,
            "replica {rid} never reached a stable checkpoint"
        );
        let head = report.ledgers[rid].head_height();
        let local_lag = head - ckpt.processed_height.min(head);
        assert!(
            local_lag <= local_bound,
            "replica {rid}: head {head} ran {local_lag} past its own \
             checkpoint boundary at {} (bound {local_bound})",
            ckpt.processed_height
        );
        let stable_lag = pivot.saturating_sub(ckpt.stable_height);
        assert!(
            stable_lag <= pivot_bound,
            "replica {rid}: stable height {} trails the quorum pivot \
             {pivot} by {stable_lag} (bound {pivot_bound})",
            ckpt.stable_height
        );
    }
}

mod simnet {
    use rdb_consensus::config::ProtocolKind;
    use rdb_simnet::{Overload, PipelineModel, Scenario};
    use rdb_workload::ycsb::YcsbConfig;

    const CAP: usize = 32;

    fn saturated() -> Scenario {
        let mut s = Scenario::paper(ProtocolKind::Pbft, 1, 4).quick();
        s.logical_clients = 8_000; // 160 batch clients on one cluster
        s.ycsb = YcsbConfig {
            record_count: 1_000,
            batch_size: 50,
            ..YcsbConfig::default()
        };
        s.cfg.batch_size = 50;
        // Shedding is recovered by retransmission; give the recovery
        // timers a chance to fire inside the short simulated window.
        s.cfg.client_retry = rdb_common::time::SimDuration::from_millis(250);
        s.cfg.progress_timeout = rdb_common::time::SimDuration::from_millis(600);
        // Measure from t=0 so the initial admission burst (where most
        // shedding happens) is part of the reported statistics.
        s.warmup = rdb_common::time::SimDuration::ZERO;
        s.compute.pipeline = PipelineModel::with_verifiers(2).with_input_queue(CAP, Overload::Shed);
        s
    }

    #[test]
    fn modeled_queue_full_behavior_is_deterministic() {
        // The modeled overload policy must be perfectly reproducible:
        // two identical saturated runs shed the same messages and end at
        // bit-identical metrics.
        let a = saturated().run();
        let b = saturated().run();
        assert!(
            a.shed_msgs > 0,
            "saturation must shed at CAP={CAP}: {}",
            a.summary()
        );
        assert!(
            a.max_input_depth <= CAP as u64 + 1,
            "modeled depth {} past the bound",
            a.max_input_depth
        );
        assert_eq!(a.shed_msgs, b.shed_msgs);
        assert_eq!(a.completed_batches, b.completed_batches);
        assert_eq!(a.events, b.events);
        assert_eq!(a.throughput_txn_s.to_bits(), b.throughput_txn_s.to_bits());
        assert_eq!(a.blocked_s.to_bits(), b.blocked_s.to_bits());
    }

    #[test]
    fn modeled_saturation_degrades_gracefully() {
        // Despite shedding, the closed loop keeps committing: bounded
        // queues turn overload into throughput flattening, not collapse.
        let m = saturated().run();
        assert!(
            m.completed_batches > 0,
            "no progress under modeled overload: {}",
            m.summary()
        );
        assert!(m.blocked_s >= 0.0);
    }
}
