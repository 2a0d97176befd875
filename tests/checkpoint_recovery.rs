//! The checkpoint stage's fault-injection recovery harness: run a
//! cluster past several checkpoint intervals, kill it, and restart a
//! replica from its last *stable* checkpoint — the retained store
//! snapshot plus a peer's audited (and compacted) ledger. The replica
//! must rejoin with a byte-identical ledger suffix and the exact head
//! state the quorum certified, and the pre-checkpoint consensus state
//! must actually have been pruned (memory watermark assertions on the
//! ledger and the vote tracker).

use rdb_common::config::SystemConfig;
use rdb_common::ids::{NodeId, ReplicaId};
use rdb_consensus::config::ProtocolKind;
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_consensus::FaultSpec;
use rdb_crypto::sign::KeyStore;
use rdb_ledger::{recover_from_checkpoint, AuditError, Ledger};
use resilientdb::{DeploymentBuilder, DeploymentReport};
use std::time::Duration;

const INTERVAL: u64 = 4;

fn run_checkpointed_cluster() -> DeploymentReport {
    DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .clients(2)
        .records(300)
        .checkpoint_interval(INTERVAL)
        .checkpoint_snapshots(true)
        .duration(Duration::from_millis(1_500))
        .run()
}

fn audit_ctx() -> (SystemConfig, CryptoCtx) {
    let cfg = SystemConfig::geo(1, 4).unwrap();
    let ks = KeyStore::new(42);
    let signer = ks.register(NodeId::Replica(ReplicaId::new(0, 0)));
    (cfg, CryptoCtx::new(signer, ks.verifier(), true))
}

#[test]
fn replica_restarts_from_its_last_stable_checkpoint() {
    let report = run_checkpointed_cluster();
    assert!(report.completed_batches > 0, "{}", report.summary());
    report.audit_ledgers().expect("ledgers consistent");
    report
        .audit_execution_stage()
        .expect("materialized tables match ledger heads");

    // Every replica ran past several checkpoint intervals and pruned.
    for (rid, ckpt) in &report.checkpoints {
        let ledger = &report.ledgers[rid];
        assert!(
            ckpt.certified.len() >= 2,
            "replica {rid} certified only {} checkpoints",
            ckpt.certified.len()
        );
        assert!(ckpt.stable_height >= 2 * INTERVAL, "replica {rid}");
        // Memory watermark: the ledger prefix below the (lag-one)
        // recovery anchor is gone — retained blocks cover exactly
        // [base, head], not the whole run.
        assert!(
            ledger.base_height() > 0,
            "replica {rid} never compacted its ledger"
        );
        assert!(ledger.base_height() <= ckpt.stable_height);
        assert_eq!(
            ledger.len() as u64,
            ledger.head_height() - ledger.base_height() + 1,
            "replica {rid} retained pruned blocks"
        );
        // And the vote tracker pruned everything stability covered.
        assert!(
            ckpt.tracked <= 8,
            "replica {rid} tracker holds {} unstable checkpoints",
            ckpt.tracked
        );
        // The retained snapshot is a quorum-certified checkpoint's state
        // (at most the stable height; a laggard's own snapshot can trail
        // stability learned from peers), with a live (audited)
        // fingerprint that matches the ledger's record of that height.
        let (h, snapshot) = ckpt.snapshot.as_ref().expect("snapshot retained");
        assert!(*h > 0 && *h <= ckpt.stable_height);
        assert!(snapshot.verify_fingerprint(), "snapshot digest stale");
        // The snapshot is the state its quorum certified at that height:
        // the execute stage's mirror followed the tail's writes exactly.
        let certified = ckpt.certified.iter().find(|(at, ..)| at == h);
        let (_, state, _) = certified.expect("the snapshot's height was certified");
        assert_eq!(snapshot.state_digest(), *state, "replica {rid}");
        if let Some(block) = ledger.block(*h) {
            assert_eq!(snapshot.state_digest(), block.state_digest);
        }
    }

    // "Kill" the cluster (it is stopped), then restart the replica with
    // the most advanced stable checkpoint from exactly that checkpoint.
    let (restarting, ckpt) = report
        .checkpoints
        .iter()
        .max_by_key(|(_, c)| c.stable_height)
        .expect("checkpoint reports present");
    let (anchor_height, snapshot) = ckpt.snapshot.clone().expect("snapshot retained");
    let own_ledger = &report.ledgers[restarting];

    // Any peer that committed at least as far and still retains the
    // anchor height serves the recovery. Lag-one compaction guarantees
    // one exists: every peer's base is its *previous* stable checkpoint,
    // strictly below its stable height <= ours, and a quorum executed
    // past our stable height.
    let (peer_id, peer_ledger) = report
        .ledgers
        .iter()
        .filter(|(rid, _)| *rid != restarting)
        .find(|(_, l)| l.base_height() <= anchor_height && l.head_height() >= anchor_height)
        .expect("a peer retains our recovery anchor");

    let (cfg, crypto) = audit_ctx();
    // Fork-check against our own retained suffix when the peer's chain
    // is long enough to be audited against it.
    let trusted: Option<&Ledger> =
        (peer_ledger.head_height() >= own_ledger.head_height()).then_some(own_ledger);
    let recovered =
        recover_from_checkpoint(peer_ledger, trusted, &cfg, &crypto, anchor_height, snapshot)
            .expect("recovery from the stable checkpoint");

    // The replica rejoins with the peer's certified head state...
    let peer_head = peer_ledger.block(peer_ledger.head_height()).unwrap();
    assert_eq!(recovered.state_digest(), peer_head.state_digest);
    // ...and the ledger suffix both replicas retain is byte-identical.
    assert!(
        own_ledger.base_height().max(peer_ledger.base_height())
            <= own_ledger.head_height().min(peer_ledger.head_height()),
        "no shared suffix between {restarting} and {peer_id}"
    );
    rdb_ledger::agreement([(restarting, own_ledger), (peer_id, peer_ledger)])
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn crashed_replica_recovers_via_state_transfer_when_its_anchor_is_pruned() {
    // Crash a backup early: by the time the cluster stops, the live
    // replicas have checkpointed far past anything the crashed replica
    // stabilized, so suffix replay from its own (ancient) checkpoint hits
    // the pruned gap — and the documented fallback is a state transfer:
    // restart from a *peer's* stable snapshot instead.
    let crashed = ReplicaId::new(0, 3);
    let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .clients(2)
        .records(300)
        .checkpoint_interval(2)
        .checkpoint_snapshots(true)
        .faults(vec![FaultSpec::crash_at_secs(crashed, 0.25)])
        .duration(Duration::from_millis(2_000))
        .run();
    assert!(report.completed_batches > 0, "{}", report.summary());
    report.audit_ledgers().expect("live ledgers consistent");

    let (cfg, crypto) = audit_ctx();
    let (donor, donor_ckpt) = report
        .checkpoints
        .iter()
        .filter(|(rid, _)| **rid != crashed)
        .max_by_key(|(_, c)| c.stable_height)
        .expect("live checkpoint reports");
    let donor_ledger = &report.ledgers[donor];
    let crashed_ckpt = &report.checkpoints[&crashed];

    // The gap is real: the donor pruned the crashed replica's era — if
    // not (a slow run that checkpointed little), the plain suffix path
    // must succeed instead and the scenario is vacuous but safe.
    if let Some((old_anchor, old_snapshot)) = crashed_ckpt.snapshot.clone() {
        if donor_ledger.base_height() > old_anchor {
            let err = recover_from_checkpoint(
                donor_ledger,
                None,
                &cfg,
                &crypto,
                old_anchor,
                old_snapshot,
            )
            .expect_err("replay across the pruned gap must be refused");
            assert!(matches!(err, AuditError::PrunedGap { .. }), "{err}");
        }
    }

    // State transfer: adopt the donor's stable snapshot and replay only
    // the donor's retained suffix.
    let (h, donor_snapshot) = donor_ckpt.snapshot.clone().expect("donor snapshot");
    let recovered = recover_from_checkpoint(donor_ledger, None, &cfg, &crypto, h, donor_snapshot)
        .expect("state transfer from the donor's checkpoint");
    let head = donor_ledger.block(donor_ledger.head_height()).unwrap();
    assert_eq!(recovered.state_digest(), head.state_digest);
}
