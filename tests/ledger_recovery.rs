//! Cross-crate integration: recovering a replica from a peer's ledger
//! (§3 of the paper) using real history produced by the fabric.

use rdb_common::config::SystemConfig;
use rdb_common::ids::{NodeId, ReplicaId};
use rdb_consensus::config::ProtocolKind;
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_crypto::digest::Digest;
use rdb_crypto::sign::KeyStore;
use rdb_ledger::{audit_chain, recover_from, AuditError, Ledger};
use rdb_store::KvStore;
use resilientdb::DeploymentBuilder;
use std::time::Duration;

fn deployment_history() -> (Ledger, SystemConfig) {
    let report = DeploymentBuilder::new(ProtocolKind::Pbft, 1, 4)
        .batch_size(5)
        .clients(2)
        .records(300)
        .duration(Duration::from_millis(700))
        .run();
    assert!(report.completed_batches > 0);
    report.audit_ledgers().expect("consistent");
    let ledger = report.ledgers[&ReplicaId::new(0, 1)].clone();
    (ledger, SystemConfig::geo(1, 4).unwrap())
}

fn fresh_crypto() -> CryptoCtx {
    let ks = KeyStore::new(0xBEEF);
    let signer = ks.register(NodeId::Replica(ReplicaId::new(0, 7)));
    CryptoCtx::new(signer, ks.verifier(), false)
}

#[test]
fn recovering_replica_replays_real_history_to_matching_state() {
    let (ledger, cfg) = deployment_history();
    let crypto = fresh_crypto();
    let recovered = recover_from(
        &ledger,
        None,
        &cfg,
        &crypto,
        KvStore::with_ycsb_records(300),
    )
    .expect("audit passes");
    // The replay reaches the state the head records...
    let head = ledger.block(ledger.head_height()).unwrap();
    assert_eq!(recovered.state_digest(), head.state_digest);
    // ...and the replayed transaction count equals the chain's content.
    let expected: u64 = ledger
        .blocks()
        .iter()
        .skip(1)
        .map(|b| b.batch.batch.len() as u64)
        .sum();
    assert_eq!(recovered.applied_txns(), expected);
}

#[test]
fn well_linked_history_with_forged_state_is_rejected() {
    let (ledger, cfg) = deployment_history();
    let crypto = fresh_crypto();
    // The same batches, rechained with one constant state digest: every
    // hash link holds, but no replay reaches the recorded state.
    let mut forged = Ledger::new();
    for block in &ledger.blocks()[1..] {
        forged.append(block.batch.clone(), None, Digest::of(b"forged"));
    }
    audit_chain(&forged, None, &cfg, &crypto).expect("the chain itself is consistent");
    let err = recover_from(
        &forged,
        None,
        &cfg,
        &crypto,
        KvStore::with_ycsb_records(300),
    )
    .unwrap_err();
    assert!(matches!(err, AuditError::Corrupt(_)), "{err}");
}

#[test]
fn tampering_with_deployment_history_is_caught() {
    let (ledger, cfg) = deployment_history();
    let crypto = fresh_crypto();
    let mut blocks = ledger.blocks().to_vec();
    assert!(blocks.len() > 2, "need history to tamper with");
    // Malicious peer swaps a block's payload.
    blocks[1].batch = rdb_consensus::types::SignedBatch::noop(rdb_common::ids::ClusterId(0), 123);
    let tampered = Ledger::from_blocks_unchecked(blocks);
    let err = audit_chain(&tampered, None, &cfg, &crypto).unwrap_err();
    assert!(matches!(err, AuditError::Corrupt(_)), "{err}");
}

#[test]
fn truncated_peer_is_rejected_against_trusted_prefix() {
    let (ledger, cfg) = deployment_history();
    let crypto = fresh_crypto();
    let truncated =
        Ledger::from_blocks_unchecked(ledger.blocks()[..ledger.blocks().len() - 1].to_vec());
    // Internally valid...
    audit_chain(&truncated, None, &cfg, &crypto).expect("prefix is valid");
    // ...but rejected when we already trust the longer chain.
    let err = audit_chain(&truncated, Some(&ledger), &cfg, &crypto).unwrap_err();
    assert!(matches!(err, AuditError::TooShort { .. }), "{err}");
}
