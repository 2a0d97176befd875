//! Property tests for ledger compaction: for *any* decision sequence and
//! *any* checkpoint interval, compacting the stable prefix must be
//! invisible to everything downstream — audits give the same verdict,
//! the head hash never moves, retained blocks are byte-identical, and
//! checkpoint recovery reaches exactly the state a full-genesis replay
//! reaches.

use proptest::prelude::*;
use rdb_common::config::SystemConfig;
use rdb_common::ids::{ClientId, NodeId, ReplicaId};
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_consensus::types::{ClientBatch, Decision, DecisionEntry, SignedBatch, Transaction};
use rdb_crypto::sign::KeyStore;
use rdb_ledger::{agreement, audit_chain, recover_from_checkpoint, Ledger};
use rdb_store::{KvStore, Operation, Value};

fn ctx() -> (SystemConfig, CryptoCtx) {
    let cfg = SystemConfig::geo(1, 4).unwrap();
    let ks = KeyStore::new(5);
    let signer = ks.register(NodeId::Replica(ReplicaId::new(0, 0)));
    (cfg, CryptoCtx::new(signer, ks.verifier(), true))
}

/// Deterministically derive a decision sequence from a seed: each
/// decision carries one batch of 1..=3 write/rmw operations, and blocks
/// record the real post-execution state digest — the same shape the
/// fabric's execution stage appends.
fn build_ledger(seed: u64, decisions: u64) -> (Ledger, Vec<KvStore>) {
    let client = ClientId::new(0, 0);
    let mut ledger = Ledger::new();
    let mut store = KvStore::new();
    let mut states = vec![store.clone()];
    let mut x = seed | 1;
    for seq in 1..=decisions {
        let mut txns = Vec::new();
        let n_ops = 1 + (x % 3);
        for i in 0..n_ops {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let op = if x.is_multiple_of(2) {
                Operation::Write {
                    key: x % 17,
                    value: Value::from_u64(x),
                }
            } else {
                Operation::Rmw {
                    key: x % 17,
                    delta: x % 100,
                }
            };
            txns.push(Transaction {
                client,
                seq: seq * 10 + i,
                op,
            });
        }
        let batch = ClientBatch {
            client,
            batch_seq: seq,
            txns: txns.into(),
        };
        let decision = Decision {
            seq,
            entries: vec![DecisionEntry::new(
                None,
                SignedBatch {
                    batch,
                    pubkey: Default::default(),
                    sig: Default::default(),
                },
            )],
            state_digest: rdb_crypto::digest::Digest::ZERO, // patched below
            writes: Vec::new(),
        };
        for entry in &decision.entries {
            for op in entry.batch.batch.operations() {
                store.execute(op);
            }
        }
        let decision = Decision {
            state_digest: store.state_digest(),
            ..decision
        };
        ledger.append_decision(&decision);
        states.push(store.clone());
    }
    (ledger, states)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// compact-then-audit equals audit of the uncompacted chain, at every
    /// interval boundary, and the head hash never changes.
    #[test]
    fn compaction_is_audit_invariant(
        seed in any::<u64>(),
        decisions in 1u64..40,
        interval in 1u64..10,
    ) {
        let (cfg, crypto) = ctx();
        let (full, _) = build_ledger(seed, decisions);
        prop_assert!(audit_chain(&full, None, &cfg, &crypto).is_ok());
        let head_before = full.head_hash();

        let mut compacted = full.clone();
        // Compact incrementally at every interval boundary, the way the
        // checkpoint stage does as stability advances.
        let mut boundary = interval;
        while boundary <= decisions {
            compacted.compact(boundary);
            prop_assert!(
                audit_chain(&compacted, None, &cfg, &crypto).is_ok(),
                "compaction at {boundary} broke the audit"
            );
            boundary += interval;
        }
        prop_assert_eq!(compacted.head_hash(), head_before, "head hash moved");
        prop_assert_eq!(compacted.head_height(), full.head_height());

        // Retained blocks are byte-identical to the uncompacted chain.
        prop_assert_eq!(agreement([("compacted", &compacted), ("full", &full)]), Ok(decisions));
        // Cross-audits link the two over the overlap in both directions.
        prop_assert!(audit_chain(&compacted, Some(&full), &cfg, &crypto).is_ok());
        prop_assert!(audit_chain(&full, Some(&compacted), &cfg, &crypto).is_ok());
    }

    /// Recovery from any checkpoint boundary reaches the head state a
    /// full replay reaches.
    #[test]
    fn checkpoint_recovery_matches_full_replay(
        seed in any::<u64>(),
        decisions in 2u64..30,
        interval in 1u64..8,
    ) {
        let (cfg, crypto) = ctx();
        let (full, states) = build_ledger(seed, decisions);
        let interval = interval.min(decisions);
        let anchor = (decisions / interval) * interval; // last boundary >= 1
        let mut peer = full.clone();
        peer.compact(anchor);
        let recovered = recover_from_checkpoint(
            &peer, None, &cfg, &crypto, anchor, states[anchor as usize].clone(),
        ).unwrap();
        prop_assert_eq!(
            recovered.state_digest(),
            states[decisions as usize].state_digest(),
            "suffix replay from the anchor must land on the head state"
        );
    }
}
