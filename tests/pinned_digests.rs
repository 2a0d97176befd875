//! The hash bytes are a contract: every SHA-256 user in the workspace —
//! batch digests, block hashes, result digests, signatures and the table
//! fingerprint — must produce exactly these values over fixed inputs,
//! whichever compression kernel the CPU selects and however a hasher is
//! fed. The hex strings were captured before the SHA-NI kernel and the
//! one-update transaction encoding existed; a change here is a change to
//! every ledger, certificate and reply digest.

use rdb_common::ids::{ClientId, ClusterId, NodeId, ReplicaId};
use rdb_consensus::certificate::{CommitCertificate, CommitSig};
use rdb_consensus::exec::result_digest;
use rdb_consensus::types::{ClientBatch, SignedBatch, Transaction};
use rdb_crypto::digest::Digest;
use rdb_crypto::sign::{KeyStore, Signature};
use rdb_ledger::Block;
use rdb_store::{KvStore, Operation, TxnEffect, TxnProgram, Value};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A 5-transaction batch of one operation shape.
fn batch_of(op: impl Fn(u64) -> Operation) -> ClientBatch {
    let client = ClientId::new(1, 3);
    ClientBatch {
        client,
        batch_seq: 42,
        txns: (0..5)
            .map(|i| Transaction {
                client,
                seq: 100 + i,
                op: op(i),
            })
            .collect(),
    }
}

fn batches() -> Vec<(&'static str, ClientBatch)> {
    vec![
        (
            "write",
            batch_of(|i| Operation::Write {
                key: 7 * i,
                value: Value::from_u64(i ^ 0xDEAD),
            }),
        ),
        ("read", batch_of(|i| Operation::Read { key: 11 * i })),
        (
            "insert",
            batch_of(|i| Operation::Insert {
                key: 1_000 + i,
                value: Value::from_u64(i << 32),
            }),
        ),
        (
            "rmw",
            batch_of(|i| Operation::Rmw {
                key: i,
                delta: 1 + i,
            }),
        ),
        (
            "scan",
            batch_of(|i| Operation::Scan {
                key: 3 * i,
                count: 10 + i as u32,
            }),
        ),
        (
            "txn",
            batch_of(|i| Operation::Txn(TxnProgram::transfer_checked(i, i + 1, 5 + i))),
        ),
        ("noop", ClientBatch::noop(ClusterId(1), 9)),
    ]
}

/// Every pinned value, by name.
fn pinned_values() -> Vec<(String, String)> {
    let mut values: Vec<(String, String)> = batches()
        .into_iter()
        .map(|(name, b)| (format!("batch.{name}"), b.digest().to_hex()))
        .collect();

    let signer = KeyStore::new(0x5EED).register(NodeId::Client(ClientId::new(1, 3)));
    let write = batches().swap_remove(0).1;
    let sig: Signature = signer.sign(write.digest().as_bytes());
    values.push(("signature".into(), hex(&sig.0)));

    let batch = SignedBatch {
        pubkey: signer.public_key(),
        sig,
        batch: write,
    };
    let certificate = CommitCertificate {
        cluster: ClusterId(1),
        round: 17,
        digest: batch.digest(),
        batch: batch.clone(),
        commits: (0..3)
            .map(|i| CommitSig {
                replica: ReplicaId::new(1, i),
                sig: Signature([i as u8 + 1; 64]),
            })
            .collect(),
    };
    let block = Block {
        height: 17,
        parent: Digest::of(b"parent"),
        batch: batch.clone(),
        certificate: Some(certificate),
        state_digest: Digest::of(b"state"),
    };
    values.push(("block.certified".into(), block.hash().to_hex()));
    let bare = Block {
        certificate: None,
        ..block
    };
    values.push(("block.bare".into(), bare.hash().to_hex()));

    let mut store = KvStore::with_ycsb_records(1_000);
    let mixed = batch_of(|i| match i {
        0 => Operation::Write {
            key: 5,
            value: Value::from_u64(55),
        },
        1 => Operation::Read { key: 5 },
        2 => Operation::Rmw { key: 6, delta: 4 },
        3 => Operation::Scan {
            key: 990,
            count: 20,
        },
        _ => Operation::Txn(TxnProgram::transfer_checked(5, 6, 1_000_000)),
    });
    let effect = store.execute_batch(mixed.operations());
    values.push((
        "result_digest".into(),
        result_digest(&mixed.digest(), &effect).to_hex(),
    ));
    values.push((
        "result_digest.empty".into(),
        result_digest(&Digest::ZERO, &TxnEffect::default()).to_hex(),
    ));
    values.push(("state_digest".into(), store.state_digest().to_hex()));
    values
}

#[test]
fn hashes_of_fixed_inputs_are_pinned() {
    let pinned: &[(&str, &str)] = &[
        (
            "batch.write",
            "151dff20d49515cbd64d7c8f2fc5f638922373515e89ef7bd950930ff6ebea1a",
        ),
        (
            "batch.read",
            "27177c19120f7cb85e80d281787fd06f6aea635bba92f105e915e75aa6fa876a",
        ),
        (
            "batch.insert",
            "e8e8efb92cbf39315e4c600f509b523b106cf4e3e81f7ef228c396975286826d",
        ),
        (
            "batch.rmw",
            "8a0ffc1cfe786b402f72fbd3f6089f9c8a58a81d11abf29a3bfbff2294d53f0b",
        ),
        (
            "batch.scan",
            "e545fd96352fc7447c2486fa30139dcb0710571c37bd3f0915aa7621ef47b4c2",
        ),
        (
            "batch.txn",
            "ec80ea83d932d3a96ce44ef38f45a119cb4e4b5201429d589b2eee4a4d84aa0d",
        ),
        (
            "batch.noop",
            "1ef0183dc19e51cba9eada540f37567cf9bc7f5c9e21568e91e2425f474ada5a",
        ),
        (
            "signature",
            "0317e9acbd0c95990e30577f418d7661e36aa155c2958a1260c30b50bbf1e97b\
             f4f7fe479b424525ea01f5f1eb8647acc4c3dfcae7545a922e189f29bd8aa08e",
        ),
        (
            "block.certified",
            "036831ddcb263b9e62a250012aaa7a914fe66bfb7657989ad6f141eb5cdd0115",
        ),
        (
            "block.bare",
            "c0c51644a5144f01779565efca5bd54fea50cd91393dec7a633512db64f03778",
        ),
        (
            "result_digest",
            "4d8e48acf4000d9696377fc9eb12f2065954788f0e976e63c3d0fe5a810f52b6",
        ),
        (
            "result_digest.empty",
            "067e86a2d1e9da8c109ae2bda44a632d96e8b49c86a8a6140a7bb2b1e387250e",
        ),
        (
            "state_digest",
            "f300e96e486886fa986e25334fa3f2d275635a8be250a7531f6b777b4cf2aa01",
        ),
    ];
    let values = pinned_values();
    for (name, value) in &values {
        println!("{name} {value}");
    }
    let got: Vec<(&str, &str)> = values
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect();
    assert_eq!(got, pinned);
}
