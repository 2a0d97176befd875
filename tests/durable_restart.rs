//! Kill → reboot → byte-identical ledger head and state digest: the
//! durable storage subsystem end to end. A fabric started in
//! [`StorageMode::Durable`] WAL-logs every applied decision; a second
//! incarnation booted from the same data directory via
//! [`Fabric::restart_from`] must recover each replica's table and ledger
//! exactly as committed — and keep serving reads of that state.

mod support;

use rdb_common::ids::ClusterId;
use rdb_consensus::config::ProtocolKind;
use rdb_store::{ExecOutcome, Operation, Value};
use resilientdb::{DeploymentBuilder, Fabric, StorageMode};

#[test]
fn durable_fabric_restart_recovers_identical_ledger_and_state() {
    // The on-disk format is lane-agnostic: whatever lane count wrote the
    // directory, `restart_from` (which reboots at the default, 1) must
    // recover every replica exactly.
    for lanes in [1usize, 4] {
        let tmp = support::TempDir::new("durable-restart");
        let fabric = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
            .batch_size(4)
            .records(200)
            .exec_lanes(lanes)
            .storage(StorageMode::Durable(tmp.path().to_path_buf()))
            .start();

        // Commit deterministic traffic: single writes whose keys cover
        // every lane, then one batch that spans all lanes in a single
        // decision. No traffic follows the restart, so this pins recovery
        // alone.
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
            .expect("lane tables match ledger heads");

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
                "lanes={lanes} replica {rid}: recovered ledger height"
            );
            assert_eq!(
                recovered.head_hash(),
                ledger.head_hash(),
                "lanes={lanes} replica {rid}: recovered head hash is byte-identical"
            );
            assert_eq!(
                after.exec_state_digests.get(rid),
                before.exec_state_digests.get(rid),
                "lanes={lanes} replica {rid}: recovered table digest"
            );
        }
        after
            .audit_execution_stage()
            .expect("recovered tables match recovered ledger heads");
    }
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
