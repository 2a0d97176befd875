//! Kill → reboot → byte-identical ledger head and state digest: the
//! durable storage subsystem end to end. A fabric started in
//! [`StorageMode::Durable`] WAL-logs every applied decision; a second
//! incarnation booted from the same data directory via
//! [`Fabric::restart_from`] must recover each replica's table and ledger
//! exactly as committed — and keep serving reads of that state, appending
//! new decisions at one height on every replica however unequal the
//! heights they stopped at.

mod support;

use rdb_common::ids::{ClusterId, ReplicaId};
use rdb_consensus::config::ProtocolKind;
use rdb_consensus::FaultSpec;
use rdb_store::{ExecOutcome, Operation, Value};
use resilientdb::{DeploymentBuilder, Fabric, StorageMode};

#[test]
fn durable_fabric_restart_recovers_identical_ledger_and_state() {
    let tmp = support::TempDir::new("durable-restart");
    let fabric = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(4)
        .records(200)
        .storage(StorageMode::Durable(tmp.path().to_path_buf()))
        .start();

    // Commit deterministic traffic: single writes, then one batch of
    // four writes in a single decision. No traffic follows the restart,
    // so this pins recovery alone.
    let session = fabric.session(ClusterId(0));
    let write = |key: u64| Operation::Write {
        key,
        value: Value::from_u64(1_000 + key),
    };
    for i in 0..6u64 {
        let proof = session.submit_one(write(i)).wait();
        assert!(proof.quorum_size() >= 2);
    }
    let proof = session.submit((10..14u64).map(write).collect()).wait();
    assert!(proof.quorum_size() >= 2);
    let before = fabric.shutdown();
    assert!(before.decided > 0, "{}", before.summary());
    assert_eq!(before.storage.engines, 4, "one durable engine per replica");
    assert!(
        before.storage.stats.wal_records > 0,
        "decisions were logged"
    );
    before.audit_ledgers().expect("writer ledgers consistent");
    before
        .audit_execution_stage()
        .expect("tables match ledger heads");

    // Reboot from disk. The manifest pins the deployment shape; every
    // replica recovers rather than preloads.
    let rebooted = Fabric::restart_from(tmp.path()).expect("restart from data dir");
    let after = rebooted.shutdown();
    assert_eq!(after.storage.engines, 4);
    assert!(
        after.storage.stats.keys_recovered > 0,
        "recovery scanned keys from disk"
    );

    for (rid, ledger) in &before.ledgers {
        let recovered = after
            .ledgers
            .get(rid)
            .expect("replica present after restart");
        assert_eq!(
            recovered.head_height(),
            ledger.head_height(),
            "replica {rid}: recovered ledger height"
        );
        assert_eq!(
            recovered.head_hash(),
            ledger.head_hash(),
            "replica {rid}: recovered head hash is byte-identical"
        );
        assert_eq!(
            after.exec_state_digests.get(rid),
            before.exec_state_digests.get(rid),
            "replica {rid}: recovered table digest"
        );
    }
    after
        .audit_execution_stage()
        .expect("recovered tables match recovered ledger heads");
}

#[test]
fn durable_restart_serves_previously_committed_values() {
    let tmp = support::TempDir::new("durable-serve");
    let value = Value::from_u64(424_242);
    {
        let fabric = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
            .batch_size(4)
            .records(100)
            .storage(StorageMode::Durable(tmp.path().to_path_buf()))
            .start();
        let session = fabric.session(ClusterId(0));
        let proof = session
            .submit_one(Operation::Write { key: 7, value })
            .wait();
        assert!(proof.quorum_size() >= 2);
        drop(session);
        drop(fabric.shutdown());
    }

    // The rebooted fabric runs consensus fresh, but over recovered
    // tables: a quorum read must return the pre-restart value.
    let rebooted = Fabric::restart_from(tmp.path()).expect("restart from data dir");
    let session = rebooted.session(ClusterId(0));
    let proof = session.submit_one(Operation::Read { key: 7 }).wait();
    assert_eq!(
        proof.results.outcomes[0],
        ExecOutcome::ReadValue(Some(value)),
        "committed write must survive the restart"
    );
    drop(session);
    let report = rebooted.shutdown();
    report
        .audit_ledgers()
        .expect("post-restart ledgers extend the recovered chain consistently");
}

/// Every replica that executed a decision after the restart holds the
/// chain of the replica that had committed the most before it, extended:
/// the one chain `audit_ledgers` then checks. A replica that executed
/// nothing after the restart still holds exactly what it recovered.
fn assert_one_chain_after_restart(
    before: &resilientdb::DeploymentReport,
    after: &resilientdb::DeploymentReport,
) {
    let highest = before
        .ledgers
        .values()
        .max_by_key(|l| l.head_height())
        .expect("replicas present");
    for (rid, recovered) in &before.ledgers {
        let now = &after.ledgers[rid];
        if now.head_hash() == recovered.head_hash() {
            continue;
        }
        assert_eq!(
            now.hash_at(highest.head_height()),
            Some(highest.head_hash()),
            "replica {rid} appended after the restart without the highest chain"
        );
    }
    after.audit_ledgers().expect("one chain after the restart");
    after
        .audit_execution_stage()
        .expect("tables match ledger heads");
}

/// Boot with one backup crashed from the start, so it stops at height 0
/// while its peers commit. A restart without traffic recovers it at 0;
/// a restart with traffic appends the next decisions at one height on
/// every replica, and the protocol serves the highest head's state.
#[test]
fn restart_aligns_replicas_stopped_at_unequal_heights() {
    let tmp = support::TempDir::new("durable-unequal");
    let behind = ReplicaId::new(0, 3);
    let fabric = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(4)
        .records(100)
        .storage(StorageMode::Durable(tmp.path().to_path_buf()))
        .faults(vec![FaultSpec::crash_at_secs(behind, 0.0)])
        .start();
    let session = fabric.session(ClusterId(0));
    for key in 0..3u64 {
        let value = Value::from_u64(500 + key);
        session.submit_one(Operation::Write { key, value }).wait();
    }
    drop(session);
    let before = fabric.shutdown();
    assert_eq!(before.ledgers[&behind].head_height(), 0);

    let idle = Fabric::restart_from(tmp.path())
        .expect("restart from data dir")
        .shutdown();
    for (rid, ledger) in &before.ledgers {
        assert_eq!(idle.ledgers[rid].head_hash(), ledger.head_hash(), "{rid}");
    }

    let rebooted = Fabric::restart_from(tmp.path()).expect("restart from data dir");
    let session = rebooted.session(ClusterId(0));
    for key in 10..13u64 {
        let value = Value::from_u64(key);
        session.submit_one(Operation::Write { key, value }).wait();
    }
    let proof = session.submit_one(Operation::Read { key: 2 }).wait();
    assert_eq!(
        proof.results.outcomes[0],
        ExecOutcome::ReadValue(Some(Value::from_u64(502)))
    );
    drop(session);
    let after = rebooted.shutdown();
    assert!(after.crashed.is_empty(), "the manifest holds no faults");
    assert_one_chain_after_restart(&before, &after);
}

/// A replica whose data directory was lost boots from the preload; its
/// protocol starts on its peers' state and its executor on their chain.
#[test]
fn wiped_replica_is_rebuilt_from_its_peers_at_restart() {
    let tmp = support::TempDir::new("durable-wiped");
    let fabric = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(4)
        .records(100)
        .storage(StorageMode::Durable(tmp.path().to_path_buf()))
        .start();
    let session = fabric.session(ClusterId(0));
    for key in 0..3u64 {
        let value = Value::from_u64(700 + key);
        session.submit_one(Operation::Write { key, value }).wait();
    }
    drop(session);
    let mut before = fabric.shutdown();

    let wiped = ReplicaId::new(0, 1);
    std::fs::remove_dir_all(tmp.path().join("replica-0-1")).expect("wipe one replica");
    before.ledgers.insert(wiped, rdb_ledger::Ledger::new());
    let rebooted = Fabric::restart_from(tmp.path()).expect("restart from data dir");
    let session = rebooted.session(ClusterId(0));
    for key in 0..3u64 {
        let proof = session.submit_one(Operation::Rmw { key, delta: 1 }).wait();
        assert!(proof.quorum_size() >= 2);
    }
    drop(session);
    let after = rebooted.shutdown();
    assert_one_chain_after_restart(&before, &after);
}
