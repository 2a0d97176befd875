//! End-to-end coverage of the client service API: start a fabric, submit
//! through open-loop sessions, await commit proofs, read back committed
//! values — the paper's §2.1 service contract ("clients receive the
//! result of execution with f+1 matching attestations"), exercised
//! against the real threaded pipeline.

use rdb_common::ids::{ClusterId, ReplicaId};
use rdb_consensus::config::ProtocolKind;
use rdb_consensus::FaultSpec;
use rdb_store::{ExecOutcome, Operation, Value};
use resilientdb::DeploymentBuilder;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);

/// A `Read` submitted through a session returns the value written by a
/// prior committed `Write`, each carrying an f+1 commit proof — the
/// acceptance test of the service API redesign.
#[test]
fn read_returns_previously_written_value_with_quorum_proof() {
    let fabric = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .records(500)
        .start();
    // Global F = 1 for 4 replicas: proofs need F + 1 = 2 attestations.
    let quorum = 2;
    let session = fabric.session(ClusterId(0));

    let value = Value::from_u64(0xC0FFEE);
    let write = session
        .submit_one(Operation::Write { key: 42, value })
        .wait_timeout(WAIT)
        .expect("write must commit");
    assert!(
        write.quorum_size() >= quorum,
        "write proof carries only {} attestations",
        write.quorum_size()
    );
    assert_eq!(write.results.outcomes, vec![ExecOutcome::Done]);
    assert!(write.block_height > 0, "committed batches occupy a block");

    let read = session
        .submit_one(Operation::Read { key: 42 })
        .wait_timeout(WAIT)
        .expect("read must commit");
    assert!(read.quorum_size() >= quorum);
    assert_eq!(
        read.results.outcomes,
        vec![ExecOutcome::ReadValue(Some(value))],
        "the read must observe the committed write"
    );
    // Total order: the read executed after the write.
    assert!(read.seq > write.seq);
    assert!(read.block_height > write.block_height);

    let report = fabric.shutdown();
    report.audit_ledgers().expect("ledgers consistent");
    // The proofs' heights are real chain positions: the blocks exist and
    // carry this session's batches. Shutdown follows f + 1 replies, so a
    // replica may stop before executing the read; the audit above tied
    // every chain to one prefix, and the longest holds both blocks.
    let ledger = report
        .ledgers
        .values()
        .max_by_key(|l| l.head_height())
        .expect("a replica ledger");
    for proof in [&write, &read] {
        let block = ledger
            .block(proof.block_height)
            .expect("proof height within the chain");
        assert_eq!(block.batch.batch.client, session.id());
    }
}

/// The same read-back contract on a topology-aware protocol: GeoBFT
/// sessions are homed in one cluster and complete on a *local* f+1
/// quorum (§2.4), and writes from one cluster are visible to reads from
/// another (global total order).
#[test]
fn geobft_sessions_read_across_clusters_with_local_quorums() {
    let fabric = DeploymentBuilder::new(ProtocolKind::GeoBft, 2, 4)
        .batch_size(5)
        .records(500)
        .start();
    let local_quorum = fabric.system().weak_quorum(); // f + 1 = 2
    let west = fabric.session(ClusterId(0));
    let east = fabric.session(ClusterId(1));

    let write = west
        .submit_one(Operation::Write {
            key: 7,
            value: Value::from_u64(1234),
        })
        .wait_timeout(WAIT)
        .expect("write via cluster 0 must commit");
    assert!(write.quorum_size() >= local_quorum);
    // GeoBFT replicas answer only their local clients: every attestor is
    // from the session's own cluster.
    assert!(write
        .attesting_replicas
        .iter()
        .all(|r| r.cluster == ClusterId(0)));

    let read = east
        .submit_one(Operation::Read { key: 7 })
        .wait_timeout(WAIT)
        .expect("read via cluster 1 must commit");
    assert!(read
        .attesting_replicas
        .iter()
        .all(|r| r.cluster == ClusterId(1)));
    assert_eq!(
        read.results.outcomes,
        vec![ExecOutcome::ReadValue(Some(Value::from_u64(1234)))],
        "cross-cluster read must observe the committed write"
    );

    let report = fabric.shutdown();
    report.audit_ledgers().expect("ledgers consistent");
}

/// Concurrent submissions from many threads through one fabric handle:
/// every ticket resolves, and each batch commits exactly once in the
/// chain (no duplicate proposals from the session plumbing, no lost
/// submissions).
#[test]
fn concurrent_submissions_commit_exactly_once_each() {
    const THREADS: usize = 4;
    const BATCHES_PER_THREAD: usize = 5;

    let fabric = Arc::new(
        DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
            .batch_size(5)
            .records(500)
            .start(),
    );

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let fabric = Arc::clone(&fabric);
            std::thread::spawn(move || {
                // One session per thread, all through the same handle;
                // sessions themselves are also Sync (submit is &self).
                let session = fabric.session(ClusterId(0));
                let mut proofs = Vec::new();
                for b in 0..BATCHES_PER_THREAD {
                    let key = (t * BATCHES_PER_THREAD + b) as u64;
                    let ticket = session.submit(vec![
                        Operation::Write {
                            key,
                            value: Value::from_u64(key + 1),
                        },
                        Operation::Read { key },
                    ]);
                    let proof = ticket
                        .wait_timeout(WAIT)
                        .expect("concurrent submission must commit");
                    assert_eq!(
                        proof.results.outcomes[1],
                        ExecOutcome::ReadValue(Some(Value::from_u64(key + 1)))
                    );
                    proofs.push((session.id(), b as u64, proof));
                }
                proofs
            })
        })
        .collect();

    let mut all = Vec::new();
    for w in workers {
        all.extend(w.join().expect("worker thread"));
    }
    assert_eq!(all.len(), THREADS * BATCHES_PER_THREAD);

    let fabric = Arc::into_inner(fabric).expect("workers joined");
    let report = fabric.shutdown();
    report.audit_ledgers().expect("ledgers consistent");

    // Exactly-once: each (client, batch_seq) occupies exactly one block,
    // on every replica.
    for ledger in report.ledgers.values() {
        let mut seen = HashMap::new();
        for h in 1..=ledger.head_height() {
            let b = &ledger.block(h).expect("block").batch.batch;
            *seen.entry((b.client, b.batch_seq)).or_insert(0u32) += 1;
        }
        for (client, batch_seq, proof) in &all {
            assert_eq!(
                seen.get(&(*client, *batch_seq)),
                Some(&1),
                "batch {batch_seq} of {client} must commit exactly once"
            );
            // And the proof points at the very block that carries it.
            let block = ledger.block(proof.block_height).expect("proof height");
            assert_eq!(block.batch.batch.client, *client);
            assert_eq!(block.batch.batch.batch_seq, *batch_seq);
        }
    }
}

/// A session handle outlives its fabric; submitting through it after
/// shutdown must abort the ticket deterministically instead of hanging
/// on a request nobody will answer.
#[test]
fn submit_after_shutdown_aborts_instead_of_hanging() {
    let fabric = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .records(100)
        .start();
    let session = fabric.session(ClusterId(0));
    fabric.shutdown();
    let ticket = session.submit_one(Operation::Read { key: 0 });
    assert!(
        ticket.aborted().is_some(),
        "post-shutdown submissions must abort immediately"
    );
    assert!(ticket.wait_timeout(Duration::from_secs(1)).is_none());
}

/// Dropping a fabric without `shutdown()` still joins every thread of
/// the deployment (replica pipelines, client drivers, crash schedulers) —
/// the test would hang or leak otherwise.
#[test]
fn dropping_a_fabric_tears_the_deployment_down() {
    let fabric = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .records(100)
        .start();
    let session = fabric.session(ClusterId(0));
    let proof = session
        .submit_one(Operation::Write {
            key: 1,
            value: Value::from_u64(1),
        })
        .wait_timeout(WAIT)
        .expect("live fabric commits");
    assert!(proof.quorum_size() >= 2);
    drop(fabric);
    // The deployment is gone: a late submission aborts rather than
    // waiting on joined replicas.
    let late = session.submit_one(Operation::Read { key: 1 });
    assert!(late.aborted().is_some());
    assert!(late.wait_timeout(Duration::from_secs(1)).is_none());
}

/// Sessions and the closed-loop YCSB harness share one fabric: the
/// harness hammers the input queues while a session interleaves its own
/// batches, and both kinds of traffic commit into one agreed chain.
#[test]
fn sessions_coexist_with_closed_loop_harness_load() {
    let fabric = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .records(500)
        .start();
    fabric.spawn_ycsb_clients(2);

    // A key far outside the YCSB active set (0..records), so harness
    // writes cannot interleave with the counter sequence.
    let session = fabric.session(ClusterId(0));
    for i in 0..3u64 {
        let proof = session
            .submit_one(Operation::Rmw {
                key: 1_000_009,
                delta: 1,
            })
            .wait_timeout(WAIT)
            .expect("session batch must commit under harness load");
        // RMW counters expose the total order directly: each increment
        // observes the previous one.
        assert_eq!(proof.results.outcomes, vec![ExecOutcome::Counter(i + 1)]);
    }

    let report = fabric.shutdown();
    assert!(
        report.completed_batches > 3,
        "harness clients made no progress: {}",
        report.summary()
    );
    report.audit_ledgers().expect("ledgers consistent");
    report
        .audit_execution_stage()
        .expect("materialized tables match ledger heads");
}

/// A crashed replica puts Zyzzyva's all-`n` fast path out of reach; the
/// session's client then runs the protocol's commit phase — a certificate
/// of `2F + 1` matching speculative responses, acknowledged by `2F + 1`
/// replicas — so the ticket resolves under the very fault the protocol
/// tolerates, exactly as it does for a closed-loop client.
#[test]
fn zyzzyva_session_under_replica_fault_commits_through_the_commit_phase() {
    let fabric = DeploymentBuilder::new(ProtocolKind::Zyzzyva, 1, 4)
        .batch_size(5)
        .records(500)
        .fast_timeouts()
        // Down from the start: the all-`n` speculative quorum never forms.
        .faults(vec![FaultSpec::crash_at_secs(ReplicaId::new(0, 3), 0.0)])
        .start();

    let session = fabric.session(ClusterId(0));
    let value = Value::from_u64(11);
    let write = session
        .submit_one(Operation::Write { key: 3, value })
        .wait_timeout(WAIT)
        .expect("write must commit through the commit phase");
    // 2F + 1 = 3 of the 4 replicas signed the certified outcome.
    assert!(write.quorum_size() >= 3, "only {}", write.quorum_size());
    let read = session
        .submit_one(Operation::Read { key: 3 })
        .wait_timeout(WAIT)
        .expect("read must commit through the commit phase");
    assert_eq!(
        read.results.outcomes,
        vec![ExecOutcome::ReadValue(Some(value))]
    );
    assert!(read.seq > write.seq);

    let report = fabric.shutdown();
    report.audit_ledgers().expect("ledgers consistent");
}

/// A ticket that genuinely cannot resolve — two of four Zyzzyva replicas
/// down leave fewer than `2F + 1` responders — surfaces deterministically:
/// `wait_timeout` returns `None` (instead of hanging forever) while the
/// ticket is merely pending (`aborted()` is `None`), and after shutdown
/// the ticket is dead and says why (`aborted()` is `Some`).
#[test]
fn shutdown_aborts_a_ticket_that_cannot_resolve() {
    let fabric = DeploymentBuilder::new(ProtocolKind::Zyzzyva, 1, 4)
        .batch_size(5)
        .records(500)
        .fast_timeouts()
        .faults(
            [2, 3]
                .map(|i| FaultSpec::crash_at_secs(ReplicaId::new(0, i), 0.0))
                .into(),
        )
        .start();

    let session = fabric.session(ClusterId(0));
    let ticket = session.submit_one(Operation::Write {
        key: 3,
        value: Value::from_u64(11),
    });

    // Deterministic miss, not a hang: neither phase can complete.
    assert!(
        ticket.wait_timeout(Duration::from_millis(800)).is_none(),
        "ticket resolved with half the replicas down"
    );
    // A timed-out ticket is still *pending*, not dead: the fabric is up
    // and a recovered replica could in principle still complete it.
    assert!(ticket.aborted().is_none(), "pending ticket reported dead");
    assert!(ticket.try_wait().is_none());

    let report = fabric.shutdown();
    // Shutdown with the ticket pending kills it, and `aborted` carries
    // the reason — this is what lets poll loops terminate.
    assert!(
        ticket.aborted().is_some(),
        "shutdown must abort pending tickets"
    );
    assert!(ticket.wait_timeout(Duration::from_millis(10)).is_none());
    // The honest replicas still audit clean: the stalled session is a
    // client-side liveness artifact, not a safety problem.
    report.audit_ledgers().expect("ledgers consistent");
}
