//! Cross-crate integration: the real threaded fabric (`resilientdb`)
//! running full deployments with real signatures and real YCSB execution
//! on OS threads — the closest analogue to deploying the system.

use rdb_common::ids::ReplicaId;
use rdb_consensus::config::ProtocolKind;
use rdb_consensus::FaultSpec;
use resilientdb::DeploymentBuilder;
use std::time::Duration;

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
