//! Property-based cross-crate invariants: workload determinism, batch
//! signing, certificate assembly, and GeoBFT safety under randomized
//! fault placement.

use proptest::prelude::*;
use rdb_common::config::SystemConfig;
use rdb_common::ids::{ClientId, NodeId, ReplicaId};
use rdb_consensus::certificate::{commit_payload, CommitCertificate, CommitSig};
use rdb_consensus::config::{ExecMode, ProtocolKind};
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_crypto::sign::KeyStore;
use rdb_simnet::{FaultSpec, Scenario};
use rdb_workload::ycsb::{YcsbConfig, YcsbWorkload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The YCSB stream is a pure function of (config, client, seed).
    #[test]
    fn workload_streams_are_deterministic(seed in any::<u64>(), batch in 1usize..64) {
        let cfg = YcsbConfig { record_count: 1_000, batch_size: batch, ..YcsbConfig::default() };
        let client = ClientId::new(0, 1);
        let mut a = YcsbWorkload::new(cfg.clone(), client, seed);
        let mut b = YcsbWorkload::new(cfg, client, seed);
        for s in 0..4u64 {
            prop_assert_eq!(a.next_batch(s), b.next_batch(s));
        }
    }

    /// Batch digests commit to content: any two distinct batch sequences
    /// from the same client digest differently.
    #[test]
    fn batch_digests_are_distinct(seed in any::<u64>()) {
        let cfg = YcsbConfig { record_count: 1_000, batch_size: 8, ..YcsbConfig::default() };
        let mut w = YcsbWorkload::new(cfg, ClientId::new(0, 0), seed);
        let d1 = w.next_batch(0).digest();
        let d2 = w.next_batch(1).digest();
        prop_assert_ne!(d1, d2);
    }

    /// A certificate with any quorum of honest signatures verifies; any
    /// single corrupted signature position breaks it.
    #[test]
    fn certificates_verify_iff_untampered(corrupt_idx in 0usize..3) {
        let cfg = SystemConfig::geo(1, 4).unwrap();
        let ks = KeyStore::new(7);
        let observer = ks.register(NodeId::Replica(ReplicaId::new(0, 3)));
        let crypto = CryptoCtx::new(observer, ks.verifier(), true);

        let client = ClientId::new(0, 0);
        let client_signer = ks.register(NodeId::Client(client));
        let mut w = YcsbWorkload::new(
            YcsbConfig { record_count: 100, batch_size: 4, ..YcsbConfig::default() },
            client,
            1,
        );
        let batch = w.next_batch(0);
        let digest = batch.digest();
        let sb = rdb_consensus::types::SignedBatch {
            sig: client_signer.sign(digest.as_bytes()),
            pubkey: client_signer.public_key(),
            batch,
        };
        let payload = commit_payload(rdb_common::ids::ClusterId(0), 3, &digest);
        let commits: Vec<CommitSig> = (0..3u16)
            .map(|i| {
                let r = ReplicaId::new(0, i);
                let s = ks.register(NodeId::Replica(r));
                CommitSig { replica: r, sig: s.sign(&payload) }
            })
            .collect();
        let mut cert = CommitCertificate {
            cluster: rdb_common::ids::ClusterId(0),
            round: 3,
            digest,
            batch: sb,
            commits,
        };
        prop_assert!(cert.verify(&cfg, &crypto));
        cert.commits[corrupt_idx].sig = rdb_crypto::sign::Signature([0xEE; 64]);
        prop_assert!(!cert.verify(&cfg, &crypto));
    }
}

proptest! {
    // Full simulations are expensive: a handful of randomized cases.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// GeoBFT safety under randomized crash placement: whatever single
    /// backup crashes (and whenever), all live replicas' ledgers agree on
    /// their common prefix.
    #[test]
    fn geobft_safety_under_random_backup_crash(
        cluster in 0u16..2,
        index in 1u16..4,       // never the initial primary (index 0)
        at_ms in 0u64..1_000,
    ) {
        let mut s = Scenario::paper(ProtocolKind::GeoBft, 2, 4).quick();
        s.logical_clients = 1_000;
        s.ycsb = YcsbConfig { record_count: 200, batch_size: 10, ..YcsbConfig::default() };
        s.cfg.batch_size = 10;
        s.cfg.exec_mode = ExecMode::Real;
        s.real_exec_records = 200;
        s.track_ledgers = true;
        let crashed = ReplicaId::new(cluster, index);
        s.faults = vec![FaultSpec::crash_at_secs(crashed, at_ms as f64 / 1000.0)];
        let (metrics, ledgers) = s.run_full();
        prop_assert!(metrics.completed_batches > 0, "no progress");
        let ledgers = ledgers.expect("tracked");
        let live = ledgers.iter().filter(|(rid, _)| **rid != crashed);
        let agreed = rdb_ledger::agreement(live);
        prop_assert!(agreed.is_ok(), "{}", agreed.unwrap_err());
    }
}
