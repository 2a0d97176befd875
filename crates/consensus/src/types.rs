//! Transactions, client batches and decisions — the payloads consensus
//! orders.

use rdb_common::ids::{ClientId, ClusterId};
use rdb_common::wire;
use rdb_crypto::digest::Digest;
use rdb_crypto::sha256::Sha256;
use rdb_crypto::sign::{PublicKey, Signature};
use rdb_store::Operation;
use serde::{Deserialize, Serialize};

/// One client transaction `T` (a YCSB query in the evaluation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// The issuing client.
    pub client: ClientId,
    /// Client-local transaction sequence number (unique per client).
    pub seq: u64,
    /// The operation to execute.
    pub op: Operation,
}

impl Transaction {
    /// Longest canonical encoding without a program: the 14-byte
    /// `(cluster, index, seq)` header, the operation tag, a key and a
    /// 24-byte value.
    const MAX_FIXED_BYTES: usize = 2 + 4 + 8 + 1 + 8 + 24;

    /// Feed the canonical byte representation into a hasher: everything
    /// but a program's instructions goes in as one `update` from a stack
    /// buffer, and a program's canonical bytes as a second.
    fn absorb(&self, h: &mut Sha256) {
        let mut buf = [0u8; Self::MAX_FIXED_BYTES];
        let mut len = 0;
        let mut put = |bytes: &[u8]| {
            buf[len..len + bytes.len()].copy_from_slice(bytes);
            len += bytes.len();
        };
        put(&self.client.cluster.0.to_le_bytes());
        put(&self.client.index.to_le_bytes());
        put(&self.seq.to_le_bytes());
        match &self.op {
            Operation::Write { key, value } => {
                put(&[0u8]);
                put(&key.to_le_bytes());
                put(&value.0);
            }
            Operation::Read { key } => {
                put(&[1u8]);
                put(&key.to_le_bytes());
            }
            Operation::Rmw { key, delta } => {
                put(&[2u8]);
                put(&key.to_le_bytes());
                put(&delta.to_le_bytes());
            }
            Operation::Insert { key, value } => {
                put(&[3u8]);
                put(&key.to_le_bytes());
                put(&value.0);
            }
            Operation::Scan { key, count } => {
                put(&[4u8]);
                put(&key.to_le_bytes());
                put(&count.to_le_bytes());
            }
            Operation::NoOp => put(&[5u8]),
            Operation::Txn(_) => put(&[6u8]),
        }
        h.update(&buf[..len]);
        if let Operation::Txn(prog) = &self.op {
            h.update(&prog.canonical_bytes());
        }
    }
}

/// A batch of transactions from one client — the unit the protocols order
/// (§3 "Request batching": clients group their requests in batches; the
/// batch is processed by the consensus protocol as a single request).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientBatch {
    /// The issuing client.
    pub client: ClientId,
    /// Client-local batch sequence number.
    pub batch_seq: u64,
    /// The transactions, in execution order.
    pub txns: Vec<Transaction>,
}

impl ClientBatch {
    /// A batch containing a single no-op transaction, proposed by GeoBFT
    /// primaries for rounds without client load (§2.5). Attributed to a
    /// synthetic client index `u32::MAX` of the proposing cluster.
    pub fn noop(cluster: ClusterId, round: u64) -> ClientBatch {
        let client = ClientId {
            cluster,
            index: u32::MAX,
        };
        ClientBatch {
            client,
            batch_seq: round,
            txns: vec![Transaction {
                client,
                seq: round,
                op: Operation::NoOp,
            }],
        }
    }

    /// Canonical digest of the batch contents.
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"client-batch");
        h.update(&self.client.cluster.0.to_le_bytes());
        h.update(&self.client.index.to_le_bytes());
        h.update(&self.batch_seq.to_le_bytes());
        h.update(&(self.txns.len() as u64).to_le_bytes());
        for t in &self.txns {
            t.absorb(&mut h);
        }
        Digest(h.finalize())
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True when the batch carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// The operations, for execution.
    pub fn operations(&self) -> impl Iterator<Item = &Operation> {
        self.txns.iter().map(|t| &t.op)
    }

    /// Modeled wire size (see `rdb_common::wire`).
    pub fn wire_size(&self) -> usize {
        wire::batch_bytes(self.txns.len())
    }
}

/// A client batch signed by its client: `⟨T⟩_c` in the paper.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignedBatch {
    /// The batch.
    pub batch: ClientBatch,
    /// The client's public key.
    pub pubkey: PublicKey,
    /// Signature over the batch digest.
    pub sig: Signature,
}

impl SignedBatch {
    /// Digest of the inner batch.
    pub fn digest(&self) -> Digest {
        self.batch.digest()
    }

    /// Modeled wire size.
    pub fn wire_size(&self) -> usize {
        self.batch.wire_size()
    }

    /// Convenience: a no-op signed batch. No-op requests are proposed by
    /// the primary itself; their "signature" is the primary's (checked as
    /// such by peers via the commit certificate, not the client key).
    pub fn noop(cluster: ClusterId, round: u64) -> SignedBatch {
        SignedBatch {
            batch: ClientBatch::noop(cluster, round),
            pubkey: PublicKey::default(),
            sig: Signature::default(),
        }
    }

    /// True when this is a primary-generated no-op batch.
    pub fn is_noop(&self) -> bool {
        self.batch.client.index == u32::MAX
    }
}

/// A finalized consensus decision, as reported to the driver via
/// [`crate::api::Action::Decided`].
///
/// For the single-log protocols (PBFT, Zyzzyva, HotStuff, Steward) one
/// decision carries one batch. For GeoBFT one decision is a *round*: `z`
/// batches, one per cluster, executed in cluster order (§2.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The log position (sequence number or GeoBFT round).
    pub seq: u64,
    /// The ordered entries executed at this position.
    pub entries: Vec<DecisionEntry>,
    /// Digest of the replica's store state after execution (equal across
    /// non-faulty replicas by determinism).
    pub state_digest: Digest,
}

/// One ordered batch within a decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionEntry {
    /// The cluster whose consensus produced this batch (`None` for the
    /// single-log protocols).
    pub origin: Option<ClusterId>,
    /// The batch executed.
    pub batch: SignedBatch,
    /// `batch.digest()`: the digest the replica's input edge bound the
    /// batch to, carried from ordering to execution and the ledger so
    /// that neither hashes the batch again.
    pub digest: Digest,
}

impl DecisionEntry {
    /// An entry for `batch`, hashing it: for callers that hold no bound
    /// digest (primary-generated no-ops, tests).
    pub fn new(origin: Option<ClusterId>, batch: SignedBatch) -> DecisionEntry {
        let digest = batch.digest();
        DecisionEntry {
            origin,
            batch,
            digest,
        }
    }
}

impl Decision {
    /// Total transactions across all entries.
    pub fn txn_count(&self) -> usize {
        self.entries.iter().map(|e| e.batch.batch.len()).sum()
    }

    /// Total register-machine instructions across all transaction
    /// programs in all entries (0 for plain YCSB batches). The simulator
    /// charges execution time per instruction on top of the
    /// per-transaction baseline.
    pub fn program_instrs(&self) -> usize {
        self.entries
            .iter()
            .flat_map(|e| e.batch.batch.operations())
            .map(|op| match op {
                Operation::Txn(prog) => prog.cost(),
                _ => 0,
            })
            .sum()
    }
}

/// The result a replica reports back to a client for one batch.
///
/// Since the client-service API redesign a reply carries the full
/// execution outcome, not just its digest: the log position the batch
/// committed at (`seq`), the ledger height of the block that carries it
/// (`block_height`), and the per-transaction [`rdb_store::ExecOutcome`]s
/// (`results`) — so a `Read` submitted through a
/// `resilientdb` client session returns the actual value end-to-end.
/// The modeled wire size was always calibrated for result-carrying
/// replies (§4: ≈1.5 kB at batch 100), so it still derives from `txns`
/// alone.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplyData {
    /// The client the reply is for.
    pub client: ClientId,
    /// The client's batch sequence number being answered.
    pub batch_seq: u64,
    /// The log position (consensus sequence number / GeoBFT round) the
    /// batch committed at.
    pub seq: u64,
    /// Height of the ledger block carrying this batch (single-log
    /// protocols append one block per decision; GeoBFT appends `z`
    /// blocks per round, one per cluster in cluster order).
    pub block_height: u64,
    /// Digest of the execution effect (clients match `f + 1` identical
    /// ones, §2.4). Always equals
    /// [`crate::exec::result_digest`]`(batch_digest, &results)` for
    /// honestly produced real-execution replies, which is how sessions
    /// reject forged `results` payloads.
    pub result_digest: Digest,
    /// Per-transaction execution outcomes, in batch order (empty under
    /// [`crate::config::ExecMode::Modeled`], where no store is mutated).
    pub results: rdb_store::TxnEffect,
    /// Number of transactions executed.
    pub txns: u32,
}

impl ReplyData {
    /// Modeled wire size of a reply (≈1.5 kB for batch 100, §4).
    pub fn wire_size(&self) -> usize {
        wire::response_bytes(self.txns as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::ids::ClientId;
    use rdb_store::Value;

    fn batch(n: usize) -> ClientBatch {
        let client = ClientId::new(0, 1);
        ClientBatch {
            client,
            batch_seq: 7,
            txns: (0..n as u64)
                .map(|i| Transaction {
                    client,
                    seq: i,
                    op: Operation::Write {
                        key: i,
                        value: Value::from_u64(i),
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn digest_is_content_sensitive() {
        let a = batch(3);
        let mut b = batch(3);
        assert_eq!(a.digest(), b.digest());
        b.txns[1].op = Operation::NoOp;
        assert_ne!(a.digest(), b.digest());
        let mut c = batch(3);
        c.batch_seq = 8;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn digest_differs_on_txn_order() {
        let a = batch(2);
        let mut b = batch(2);
        b.txns.swap(0, 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn noop_batches_are_flagged() {
        let nb = SignedBatch::noop(ClusterId(2), 5);
        assert!(nb.is_noop());
        assert_eq!(nb.batch.len(), 1);
        assert_eq!(nb.batch.client.cluster, ClusterId(2));
        let real = SignedBatch {
            batch: batch(1),
            pubkey: PublicKey::default(),
            sig: Signature::default(),
        };
        assert!(!real.is_noop());
    }

    #[test]
    fn decision_counts_transactions() {
        let d = Decision {
            seq: 1,
            entries: vec![
                DecisionEntry::new(
                    Some(ClusterId(0)),
                    SignedBatch {
                        batch: batch(3),
                        pubkey: PublicKey::default(),
                        sig: Signature::default(),
                    },
                ),
                DecisionEntry::new(Some(ClusterId(1)), SignedBatch::noop(ClusterId(1), 1)),
            ],
            state_digest: Digest::ZERO,
        };
        assert_eq!(d.txn_count(), 4);
    }

    #[test]
    fn wire_sizes_follow_model() {
        assert_eq!(batch(100).wire_size(), rdb_common::wire::batch_bytes(100));
        let r = ReplyData {
            client: ClientId::new(0, 0),
            batch_seq: 0,
            seq: 1,
            block_height: 1,
            result_digest: Digest::ZERO,
            results: rdb_store::TxnEffect::default(),
            txns: 100,
        };
        assert_eq!(r.wire_size(), rdb_common::wire::response_bytes(100));
    }
}
