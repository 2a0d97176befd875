//! Cross-crate integration: GeoBFT's failure handling (§2.3 of the
//! paper) under the simulator's fault script and adversary wrappers, and
//! the withholding primary of Example 2.4 on the threaded fabric too.

use rdb_common::ids::ReplicaId;
use rdb_common::time::SimDuration;
use rdb_consensus::config::{ExecMode, ProtocolKind};
use rdb_consensus::AdversarySpec;
use rdb_scenario::harness::assert_agreement;
use rdb_simnet::{FaultSpec, Scenario};
use rdb_workload::ycsb::YcsbConfig;
use resilientdb::DeploymentBuilder;
use std::time::Duration;

fn geo_scenario(z: usize, n: usize) -> Scenario {
    let mut s = Scenario::paper(ProtocolKind::GeoBft, z, n).quick();
    s.logical_clients = 2_000;
    s.ycsb = YcsbConfig {
        record_count: 500,
        batch_size: 20,
        ..YcsbConfig::default()
    };
    s.cfg.batch_size = 20;
    s.cfg.exec_mode = ExecMode::Real;
    s.real_exec_records = 500;
    s.track_ledgers = true;
    s.cfg.remote_timeout = SimDuration::from_millis(200);
    s.cfg.progress_timeout = SimDuration::from_millis(350);
    s.cfg.client_retry = SimDuration::from_millis(700);
    s
}

#[test]
fn byzantine_primary_withholding_certificates_is_replaced() {
    // Example 2.4 case (1): the Oregon primary completes local replication
    // but never shares certificates. Remote clusters must detect it
    // (timeouts -> DRVC agreement -> RVC), force Oregon through a local
    // view change, and the new primary must resume sharing.
    let mut s = geo_scenario(2, 4);
    s.adversaries = vec![(ReplicaId::new(0, 0), AdversarySpec::SuppressGlobalShare)];
    let (metrics, ledgers) = s.run_full();
    assert!(
        metrics.completed_batches > 0,
        "no recovery from withholding primary: {}",
        metrics.summary()
    );
    // All replicas (including cluster 1, which was starved) agree, over
    // at least one full round.
    let ledgers = ledgers.expect("tracked");
    assert_agreement(&ledgers, &[], 2, "withholding primary");
}

#[test]
fn byzantine_primary_withholding_certificates_is_replaced_on_the_fabric() {
    // The same wrapper on the threaded fabric. Cluster 1 can execute a
    // round only with cluster 0's certificate, which the wrapped primary
    // never sends: a common prefix of a full round (z = 2 blocks) on
    // every replica is reachable only through cluster 0's view change.
    let report = DeploymentBuilder::new(ProtocolKind::GeoBft, 2, 4)
        .batch_size(5)
        .clients(2)
        .records(500)
        .fast_timeouts()
        .adversary(ReplicaId::new(0, 0), AdversarySpec::SuppressGlobalShare)
        .duration(Duration::from_millis(2_000))
        .run();
    let common = report
        .audit_ledgers()
        .unwrap_or_else(|e| panic!("ledgers inconsistent: {e}"));
    assert!(
        common >= 2,
        "cluster 1 never executed a round: {}",
        report.summary()
    );
}

#[test]
fn crashed_remote_primary_is_detected_and_replaced() {
    // The primary of cluster 0 crashes outright mid-run; both its local
    // cluster (via the PBFT progress timers) and the remote cluster (via
    // the remote view-change protocol) push for replacement.
    let mut s = geo_scenario(2, 4);
    s.faults = vec![FaultSpec::crash_at_secs(ReplicaId::new(0, 0), 0.7)];
    let (metrics, _) = s.run_full();
    assert!(
        metrics.completed_batches > 0,
        "no progress after primary crash: {}",
        metrics.summary()
    );
}

#[test]
fn f_crashed_backups_per_cluster_do_not_block_rounds() {
    let mut s = geo_scenario(2, 4); // f = 1
    s.faults = vec![
        FaultSpec::crash_at_secs(ReplicaId::new(0, 3), 0.0),
        FaultSpec::crash_at_secs(ReplicaId::new(1, 3), 0.0),
    ];
    let (metrics, ledgers) = s.run_full();
    assert!(metrics.completed_batches > 0);
    // Live replicas agree.
    let ledgers = ledgers.expect("tracked");
    let crashed = [ReplicaId::new(0, 3), ReplicaId::new(1, 3)];
    assert_agreement(&ledgers, &crashed, 2, "f crashed backups");
}

#[test]
fn fanout_one_with_crashed_relays_recovers_via_drvc_help() {
    // Ablation cross-check: with fanout 1, the only receiver of each
    // certificate share in cluster 1 is replica (1,0); crash it. Rounds
    // must still complete eventually (DRVC responses serve cached
    // certificates; remote view changes re-share), just more slowly.
    let mut s = geo_scenario(2, 4);
    s.cfg.fanout_override = Some(1);
    s.faults = vec![FaultSpec::crash_at_secs(ReplicaId::new(1, 0), 0.0)];
    s.measure = SimDuration::from_secs(4);
    let (metrics, _) = s.run_full();
    assert!(
        metrics.completed_batches > 0,
        "fanout-1 with crashed relay never recovered: {}",
        metrics.summary()
    );
}

#[test]
fn dropped_link_between_primaries_is_tolerated() {
    // An asymmetric link failure between the two primaries: certificate
    // sharing from cluster 0 to replica (1,0) is lost, but the fanout
    // covers f + 1 = 2 receivers, so the second receiver carries the
    // local phase (Proposition 2.5).
    let mut s = geo_scenario(2, 4);
    s.faults = vec![FaultSpec::drop_link(
        ReplicaId::new(0, 0),
        ReplicaId::new(1, 0),
        rdb_common::time::SimTime::ZERO,
    )];
    let (metrics, _) = s.run_full();
    assert!(metrics.completed_batches > 0);
}
