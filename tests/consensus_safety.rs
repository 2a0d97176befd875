//! Cross-crate integration: every protocol, run on the discrete-event
//! simulator with *real* execution against preloaded YCSB stores and
//! per-replica ledgers, must satisfy the paper's consensus definition
//! (Definition 2.2 / Theorem 2.8):
//!
//! * **termination** — non-faulty replicas keep executing transactions;
//! * **non-divergence** — all non-faulty replicas execute the same
//!   transactions in the same order (identical ledger prefixes and
//!   identical state digests at equal heights).

use rdb_consensus::config::{ExecMode, ProtocolKind};
use rdb_ledger::Ledger;
use rdb_scenario::harness::assert_agreement;
use rdb_simnet::Scenario;
use rdb_workload::ycsb::YcsbConfig;
use std::collections::BTreeMap;

fn run_with_ledgers(
    kind: ProtocolKind,
    z: usize,
    n: usize,
) -> (f64, BTreeMap<rdb_common::ids::ReplicaId, Ledger>) {
    let mut s = Scenario::paper(kind, z, n).quick();
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
    let (metrics, ledgers) = s.run_full();
    (metrics.throughput_txn_s, ledgers.expect("tracked"))
}

#[test]
fn geobft_terminates_and_does_not_diverge() {
    let (tps, ledgers) = run_with_ledgers(ProtocolKind::GeoBft, 2, 4);
    assert!(tps > 0.0, "no progress");
    // Each round appends z = 2 blocks; expect several rounds.
    assert_agreement(&ledgers, &[], 4, "geobft");
}

#[test]
fn pbft_terminates_and_does_not_diverge() {
    let (tps, ledgers) = run_with_ledgers(ProtocolKind::Pbft, 2, 4);
    assert!(tps > 0.0, "no progress");
    assert_agreement(&ledgers, &[], 4, "pbft");
}

#[test]
fn zyzzyva_terminates_and_does_not_diverge() {
    let (tps, ledgers) = run_with_ledgers(ProtocolKind::Zyzzyva, 1, 4);
    assert!(tps > 0.0, "no progress");
    assert_agreement(&ledgers, &[], 4, "zyzzyva");
}

#[test]
fn hotstuff_terminates_and_does_not_diverge() {
    let (tps, ledgers) = run_with_ledgers(ProtocolKind::HotStuff, 2, 4);
    assert!(tps > 0.0, "no progress");
    assert_agreement(&ledgers, &[], 4, "hotstuff");
}

#[test]
fn steward_terminates_and_does_not_diverge() {
    let (tps, ledgers) = run_with_ledgers(ProtocolKind::Steward, 2, 4);
    assert!(tps > 0.0, "no progress");
    assert_agreement(&ledgers, &[], 4, "steward");
}

#[test]
fn geobft_three_clusters_orders_rounds_identically() {
    let (_, ledgers) = run_with_ledgers(ProtocolKind::GeoBft, 3, 4);
    assert_agreement(&ledgers, &[], 6, "geobft z=3");
    // GeoBFT block order within a round follows cluster ids (§2.4): the
    // i-th block of a round originates from cluster (i mod z) — verify on
    // one ledger via the batch's client cluster (no-ops carry synthetic
    // clients of the proposing cluster).
    let ledger = ledgers.values().next().expect("non-empty");
    let common = ledger.head_height();
    let z = 3u64;
    for h in 1..=common {
        let block = ledger.block(h).expect("in range");
        let expected_cluster = ((h - 1) % z) as u16;
        assert_eq!(
            block.batch.batch.client.cluster.0, expected_cluster,
            "block {h} out of cluster order"
        );
    }
}

// ---------------------------------------------------------------------
// Byzantine primaries, driven through the scenario harness
// ---------------------------------------------------------------------
//
// `rdb_scenario::byzantine_primary` wraps the view-0 leader in
// `AdversarySpec::EquivocatePrimary` (victims receive well-formed
// conflicting proposals) and itself asserts the full safety story on the
// deterministic simulator: liveness survives the attack, every honest
// replica's chain verifies and agrees block-for-block (Zyzzyva/HotStuff
// victims are excluded — their frozen or forked chain is the documented
// blast radius), and an independent replay of the observer's ledger
// reproduces every recorded state digest. The assertions here on the
// returned outcome pin the *workload* reality: real transaction programs
// committed under the attack, aborts included.

fn assert_byzantine_outcome(outcome: rdb_scenario::ScenarioOutcome) {
    assert!(outcome.blocks > 0, "no blocks committed under the attack");
    assert!(
        outcome.programs > 0,
        "no programs committed under the attack"
    );
    assert!(
        outcome.aborts > 0 && outcome.aborts < outcome.programs,
        "SmallBank load must surface both committed and aborted transfers"
    );
}

#[test]
fn pbft_equivocating_primary_forces_view_change_without_divergence() {
    assert_byzantine_outcome(rdb_scenario::byzantine_primary(
        ProtocolKind::Pbft,
        rdb_scenario::Mode::Quick,
    ));
}

#[test]
fn geobft_equivocating_primary_is_contained_to_its_cluster() {
    assert_byzantine_outcome(rdb_scenario::byzantine_primary(
        ProtocolKind::GeoBft,
        rdb_scenario::Mode::Quick,
    ));
}

#[test]
fn zyzzyva_equivocating_primary_cannot_certify_the_forged_history() {
    assert_byzantine_outcome(rdb_scenario::byzantine_primary(
        ProtocolKind::Zyzzyva,
        rdb_scenario::Mode::Quick,
    ));
}

#[test]
fn hotstuff_equivocating_primary_isolates_only_its_victim() {
    assert_byzantine_outcome(rdb_scenario::byzantine_primary(
        ProtocolKind::HotStuff,
        rdb_scenario::Mode::Quick,
    ));
}
