//! Ledger blocks.

use rdb_consensus::certificate::CommitCertificate;
use rdb_consensus::types::SignedBatch;
use rdb_crypto::digest::Digest;
use rdb_crypto::sha256::Sha256;
use serde::{Deserialize, Serialize};

/// One block: the i-th executed client batch, its proof, and the chain
/// linkage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// Position in the ledger (0 = genesis).
    pub height: u64,
    /// Hash of the previous block ([`Digest::ZERO`] for genesis).
    pub parent: Digest,
    /// The executed client batch.
    pub batch: SignedBatch,
    /// The commit certificate proving consensus on the batch. `None` only
    /// for the genesis block and for protocols that do not produce
    /// transferable certificates (Zyzzyva's speculative path, HotStuff
    /// QCs are recorded as certificates by the driver where available).
    pub certificate: Option<CommitCertificate>,
    /// Digest of the replica state after executing this block.
    pub state_digest: Digest,
}

// The on-disk encoding (the `blocks` keyspace of a durable replica): the
// same codec, and the same batch and certificate bytes, as on the wire.
rdb_consensus::wire_struct! { Block {
    height: u64,
    parent: Digest,
    batch: SignedBatch,
    certificate: Option<CommitCertificate>,
    state_digest: Digest,
} }

impl Block {
    /// The genesis block of every ledger.
    pub fn genesis() -> Block {
        Block {
            height: 0,
            parent: Digest::ZERO,
            batch: SignedBatch::noop(rdb_common::ids::ClusterId(u16::MAX), 0),
            certificate: None,
            state_digest: Digest::ZERO,
        }
    }

    /// The block's hash: binds height, parent, batch content, certificate
    /// identity and post-state.
    pub fn hash(&self) -> Digest {
        self.hash_over(&self.batch.digest())
    }

    /// [`Block::hash`] for a caller that already holds the batch digest
    /// (`batch_digest` must equal `self.batch.digest()`), so the batch is
    /// not hashed again.
    pub(crate) fn hash_over(&self, batch_digest: &Digest) -> Digest {
        let mut h = Sha256::new();
        h.update(b"rdb-block");
        h.update(&self.height.to_le_bytes());
        h.update(self.parent.as_bytes());
        h.update(batch_digest.as_bytes());
        match &self.certificate {
            Some(c) => {
                h.update(&[1u8]);
                h.update(&c.cluster.0.to_le_bytes());
                h.update(&c.round.to_le_bytes());
                h.update(c.digest.as_bytes());
                h.update(&(c.commits.len() as u64).to_le_bytes());
                for cs in &c.commits {
                    h.update(&cs.replica.cluster.0.to_le_bytes());
                    h.update(&cs.replica.index.to_le_bytes());
                    h.update(&cs.sig.0);
                }
            }
            None => {
                h.update(&[0u8]);
            }
        }
        h.update(self.state_digest.as_bytes());
        Digest(h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdb_common::ids::{ClientId, ClusterId, ReplicaId};
    use rdb_consensus::certificate::CommitSig;
    use rdb_consensus::codec::{decode, encode, Wire};
    use rdb_consensus::types::{ClientBatch, Transaction};
    use rdb_crypto::sign::{PublicKey, Signature};
    use rdb_store::{Operation, TxnProgram, Value};

    fn arb_op() -> impl Strategy<Value = Operation> {
        prop_oneof![
            (any::<u64>(), any::<u64>()).prop_map(|(key, v)| Operation::Write {
                key,
                value: Value::from_u64(v)
            }),
            any::<u64>().prop_map(|key| Operation::Read { key }),
            (any::<u64>(), any::<u32>()).prop_map(|(key, count)| Operation::Scan { key, count }),
            Just(Operation::NoOp),
            (any::<u64>(), any::<u64>(), 1u64..1000)
                .prop_map(|(a, b, amt)| Operation::Txn(TxnProgram::transfer_checked(a, b, amt))),
        ]
    }

    /// Blocks with and without a certificate, over batches of every
    /// operation shape the fabric persists.
    fn arb_block() -> impl Strategy<Value = Block> {
        (
            (any::<u64>(), any::<u16>(), any::<u32>(), any::<u8>()),
            proptest::collection::vec(arb_op(), 0..6),
            proptest::collection::vec(any::<u16>(), 0..4),
            any::<bool>(),
        )
            .prop_map(
                |((height, cluster, index, fill), ops, signers, certified)| {
                    let client = ClientId::new(cluster, index);
                    let txns = ops.into_iter().enumerate();
                    let batch = SignedBatch {
                        batch: ClientBatch {
                            client,
                            batch_seq: height ^ 1,
                            txns: txns
                                .map(|(i, op)| Transaction {
                                    client,
                                    seq: i as u64,
                                    op,
                                })
                                .collect(),
                        },
                        pubkey: PublicKey([fill; 32]),
                        sig: Signature([fill.wrapping_add(1); 64]),
                    };
                    let certificate = certified.then(|| CommitCertificate {
                        cluster: ClusterId(cluster),
                        round: height,
                        digest: batch.digest(),
                        batch: batch.clone(),
                        commits: signers
                            .into_iter()
                            .map(|i| CommitSig {
                                replica: ReplicaId::new(cluster, i),
                                sig: Signature([i as u8; 64]),
                            })
                            .collect(),
                    });
                    Block {
                        height,
                        parent: Digest::of(&height.to_le_bytes()),
                        batch,
                        certificate,
                        state_digest: Digest::of(&[fill]),
                    }
                },
            )
    }

    proptest! {
        #[test]
        fn wire_encoding_round_trips_and_rejects_damage(block in arb_block()) {
            let mut raw = encode(&block);
            let back: Block = decode(&raw).unwrap();
            prop_assert_eq!(back.hash(), block.hash());
            prop_assert_eq!(back, block);
            prop_assert!(Block::MIN_BYTES <= raw.len());
            // Every strict prefix, and one byte too many, is an error.
            for cut in 0..raw.len() {
                prop_assert!(decode::<Block>(&raw[..cut]).is_err(), "prefix {}", cut);
            }
            raw.push(0);
            prop_assert!(decode::<Block>(&raw).is_err());
        }
    }

    #[test]
    fn genesis_is_stable() {
        assert_eq!(Block::genesis().hash(), Block::genesis().hash());
        assert_eq!(Block::genesis().height, 0);
        assert_eq!(Block::genesis().parent, Digest::ZERO);
    }

    #[test]
    fn hash_binds_every_field() {
        let base = Block {
            height: 1,
            parent: Block::genesis().hash(),
            batch: SignedBatch::noop(ClusterId(0), 1),
            certificate: None,
            state_digest: Digest::of(b"s"),
        };
        let h = base.hash();

        let mut b = base.clone();
        b.height = 2;
        assert_ne!(b.hash(), h);

        let mut b = base.clone();
        b.parent = Digest::of(b"other");
        assert_ne!(b.hash(), h);

        let mut b = base.clone();
        b.batch = SignedBatch::noop(ClusterId(1), 1);
        assert_ne!(b.hash(), h);

        let mut b = base.clone();
        b.state_digest = Digest::of(b"t");
        assert_ne!(b.hash(), h);
    }
}
