//! Cross-crate integration: the real threaded fabric (`resilientdb`)
//! running full deployments with real signatures and real YCSB execution
//! on OS threads — the closest analogue to deploying the system.

use rdb_common::ids::ReplicaId;
use rdb_consensus::config::ProtocolKind;
use rdb_consensus::{FaultSpec, Txns};
use rdb_store::KvStore;
use resilientdb::{DeploymentBuilder, DeploymentReport};
use std::collections::HashSet;
use std::time::Duration;

/// Over the heights every replica's ledger holds past genesis: how many
/// there are, and at how many all replicas' blocks share one transaction
/// allocation ([`Txns::ptr_eq`]) rather than holding copies.
fn shared_batches(report: &DeploymentReport) -> (u64, u64) {
    let ledgers: Vec<_> = report.ledgers.values().collect();
    let common = ledgers.iter().map(|l| l.head_height()).min().unwrap_or(0);
    let shared = (1..=common)
        .filter(|&h| {
            let mut txns = ledgers
                .iter()
                .map(|l| &l.block(h).expect("retained").batch.batch.txns);
            let first = txns.next().expect("a replica");
            txns.all(|t| Txns::ptr_eq(t, first))
        })
        .count();
    (common, shared as u64)
}

#[test]
fn geobft_fabric_deployment_reaches_consensus() {
    let report = DeploymentBuilder::new(ProtocolKind::GeoBft, 2, 4)
        .batch_size(5)
        .clients(2)
        .records(500)
        .duration(Duration::from_millis(900))
        .run();
    assert!(report.completed_batches > 0, "{}", report.summary());
    let blocks = report.audit_ledgers().expect("consistent ledgers");
    assert!(blocks >= 2, "expected at least one full GeoBFT round");
    // In one process, all eight ledgers hold each batch once.
    let (heights, shared) = shared_batches(&report);
    assert_eq!(shared, heights, "blocks holding private copies");
}

/// All eight replicas hold one preload between them and privately only
/// what they wrote. Each replica's retained checkpoint snapshot is a
/// clone of its table: every snapshot shares one base with every other
/// ([`KvStore::shares_base`]), and its private records are exactly the
/// distinct keys the replica executed writes to up to that checkpoint —
/// the records whose version moved off the preload's 1, which include
/// every key written by the blocks its ledger still holds below it.
#[test]
fn geobft_replicas_share_one_preload() {
    const RECORDS: u64 = 500;
    let report = DeploymentBuilder::new(ProtocolKind::GeoBft, 2, 4)
        .batch_size(5)
        .clients(2)
        .records(RECORDS)
        .checkpoint_interval(2)
        .checkpoint_snapshots(true)
        .duration(Duration::from_millis(1_200))
        .run();
    assert!(report.completed_batches > 0, "{}", report.summary());
    let snapshots: Vec<_> = report
        .checkpoints
        .iter()
        .filter_map(|(rid, c)| c.snapshot.as_ref().map(|(h, table)| (rid, *h, table)))
        .collect();
    assert_eq!(snapshots.len(), 8, "a replica retained no snapshot");
    let (_, _, first) = snapshots[0];
    for (rid, height, table) in snapshots {
        assert!(
            KvStore::shares_base(table, first),
            "{rid} copied the preload"
        );
        let written: HashSet<u64> = table
            .records()
            .filter(|&(key, _, version)| key >= RECORDS || version > 1)
            .map(|(key, ..)| key)
            .collect();
        assert!(!written.is_empty(), "{rid} executed no write by {height}");
        assert_eq!(table.private_records(), written.len(), "{rid}");
        let ledger = &report.ledgers[rid];
        for h in ledger.base_height() + 1..=height {
            let block = ledger.block(h).expect("retained");
            let keys = block.batch.batch.operations().filter(|op| op.is_write());
            for key in keys.filter_map(|op| op.primary_key()) {
                assert!(written.contains(&key), "{rid}: key {key} of block {h}");
            }
        }
    }
}

#[test]
fn pbft_fabric_deployment_reaches_consensus() {
    let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .clients(3)
        .records(500)
        .duration(Duration::from_millis(700))
        .run();
    assert!(report.completed_batches > 0, "{}", report.summary());
    report.audit_ledgers().expect("consistent ledgers");
    let (heights, shared) = shared_batches(&report);
    assert!(heights > 0, "no common height");
    assert_eq!(shared, heights, "blocks holding private copies");
}

#[test]
fn zyzzyva_fabric_deployment_fast_path() {
    let report = DeploymentBuilder::new(ProtocolKind::Zyzzyva, 1, 4)
        .batch_size(5)
        .clients(2)
        .records(500)
        .duration(Duration::from_millis(700))
        .run();
    assert!(report.completed_batches > 0, "{}", report.summary());
}

#[test]
fn hotstuff_fabric_deployment_reaches_consensus() {
    let report = DeploymentBuilder::new(ProtocolKind::HotStuff, 1, 4)
        .batch_size(5)
        .clients(4)
        .records(500)
        .fast_timeouts()
        .duration(Duration::from_millis(1_200))
        .run();
    assert!(report.completed_batches > 0, "{}", report.summary());
    report.audit_ledgers().expect("consistent ledgers");
}

#[test]
fn steward_fabric_deployment_reaches_consensus() {
    let report = DeploymentBuilder::new(ProtocolKind::Steward, 2, 4)
        .batch_size(5)
        .clients(2)
        .records(500)
        .duration(Duration::from_millis(900))
        .run();
    assert!(report.completed_batches > 0, "{}", report.summary());
    report.audit_ledgers().expect("consistent ledgers");
}

#[test]
fn fabric_with_emulated_wan_delays_still_commits() {
    // 20 ms one-way between clusters, direct within a cluster: a
    // two-region deployment on loopback, over both meshes (the delay
    // wheel sits in front of the inbox either way).
    use rdb_common::ids::NodeId;
    use rdb_common::time::SimDuration;
    use resilientdb::TransportMode;
    use std::sync::Arc;
    let delay: resilientdb::transport::DelayFn = Arc::new(|from: NodeId, to: NodeId| {
        if from.cluster() != to.cluster() {
            SimDuration::from_millis(20)
        } else {
            SimDuration::ZERO
        }
    });
    for mode in [TransportMode::InProcess, TransportMode::Tcp] {
        let report = DeploymentBuilder::new(ProtocolKind::GeoBft, 2, 4)
            .batch_size(5)
            .clients(2)
            .records(500)
            .delay(delay.clone())
            .transport_mode(mode)
            .duration(Duration::from_millis(1_500))
            .run();
        assert!(
            report.completed_batches > 0,
            "{mode:?}: {}",
            report.summary()
        );
        report
            .audit_ledgers()
            .unwrap_or_else(|e| panic!("{mode:?}: inconsistent ledgers: {e}"));
        // Real bytes crossed the wire only over TCP.
        assert_eq!(
            report.net.links.is_empty(),
            mode == TransportMode::InProcess,
            "{mode:?}: {}",
            report.net.summary()
        );
        // In one process the replicas share each batch; over TCP each
        // decodes its own copy, and the audit above found the ledgers
        // byte-identical all the same.
        let (heights, shared) = shared_batches(&report);
        assert!(heights > 0, "{mode:?}: no common height");
        let expected = if mode == TransportMode::InProcess {
            heights
        } else {
            0
        };
        assert_eq!(shared, expected, "{mode:?}: {heights} common heights");
    }
}

#[test]
fn fabric_survives_backup_crash_mid_run() {
    let report = DeploymentBuilder::new(ProtocolKind::GeoBft, 2, 4)
        .batch_size(5)
        .clients(2)
        .records(500)
        .fast_timeouts()
        .faults(vec![FaultSpec::crash_at_secs(ReplicaId::new(1, 3), 0.3)])
        .duration(Duration::from_millis(1_200))
        .run();
    assert!(report.completed_batches > 0, "{}", report.summary());
    report.audit_ledgers().expect("live ledgers consistent");
}
