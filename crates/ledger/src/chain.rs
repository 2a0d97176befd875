//! The append-only ledger.

use crate::block::Block;
use rdb_common::config::SystemConfig;
use rdb_common::error::{RdbError, RdbResult};
use rdb_consensus::certificate::CommitCertificate;
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_consensus::types::{Decision, SignedBatch};
use rdb_crypto::digest::Digest;

/// A replica's copy of the blockchain (ResilientDB is fully replicated:
/// "each replica independently maintains a full copy of the ledger", §3).
///
/// Once the checkpoint stage certifies a prefix as stable, the ledger can
/// be **compacted** ([`Ledger::compact`]): block bodies below the stable
/// height are dropped and the block *at* that height is retained in full
/// as the **recovery anchor** — the trusted root that [`Ledger::verify`]
/// and `recovery::audit_chain` chain the remaining suffix from, and that
/// a restarting replica pairs with its checkpointed state snapshot.
/// Compaction never changes the head: appends, head hashes and retained
/// block hashes are byte-identical to the uncompacted chain.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Retained blocks; `blocks[0]` is genesis (uncompacted) or the
    /// recovery anchor block at height `base`.
    blocks: Vec<Block>,
    /// Height of `blocks[0]` (0 until the first compaction).
    base: u64,
    /// Hash of the last block, computed once when it was appended.
    head: Digest,
}

impl Ledger {
    /// A fresh ledger containing only the genesis block.
    pub fn new() -> Ledger {
        let genesis = Block::genesis();
        Ledger {
            head: genesis.hash(),
            blocks: vec![genesis],
            base: 0,
        }
    }

    /// Number of *retained* blocks including genesis/anchor.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when only genesis is present.
    pub fn is_empty(&self) -> bool {
        self.base == 0 && self.blocks.len() == 1
    }

    /// Height of the first retained block: 0 until compaction, afterwards
    /// the recovery anchor's height (the last compacted-to stable
    /// checkpoint).
    pub fn base_height(&self) -> u64 {
        self.base
    }

    /// The first retained block — genesis, or the recovery anchor after
    /// compaction.
    pub fn anchor(&self) -> &Block {
        self.blocks.first().expect("anchor always retained")
    }

    /// Drop block bodies below `stable` (a checkpoint-certified height),
    /// keeping the block at `stable` as the recovery anchor. Clamped to
    /// the head; compacting at or below the current base is a no-op.
    /// Returns the number of pruned blocks.
    pub fn compact(&mut self, stable: u64) -> usize {
        let stable = stable.min(self.head_height());
        if stable <= self.base {
            return 0;
        }
        let cut = (stable - self.base) as usize;
        self.blocks.drain(..cut);
        self.base = stable;
        cut
    }

    /// Height of the latest block.
    pub fn head_height(&self) -> u64 {
        self.blocks.last().expect("genesis always present").height
    }

    /// Hash of the latest block (cached: computed once, at append).
    pub fn head_hash(&self) -> Digest {
        self.head
    }

    /// Hash of the block at `height` (`None` if it is not retained),
    /// read from the chain rather than recomputed: a block's hash is its
    /// successor's `parent` link, and the head's is cached. On a chain
    /// that passes [`Ledger::verify`] this equals
    /// `self.block(height)?.hash()`.
    pub fn hash_at(&self, height: u64) -> Option<Digest> {
        self.block(height)?;
        if height == self.head_height() {
            return Some(self.head);
        }
        self.block(height + 1).map(|next| next.parent)
    }

    /// Get a block by height (`None` for heights compacted away).
    pub fn block(&self, height: u64) -> Option<&Block> {
        let idx = height.checked_sub(self.base)?;
        self.blocks.get(idx as usize)
    }

    /// All retained blocks (for audits), starting at
    /// [`Ledger::base_height`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Append a batch with its certificate as the next block.
    pub fn append(
        &mut self,
        batch: SignedBatch,
        certificate: Option<CommitCertificate>,
        state_digest: Digest,
    ) -> &Block {
        let batch_digest = batch.digest();
        self.push(batch, &batch_digest, certificate, state_digest)
    }

    /// [`Ledger::append`] with the batch digest already in hand.
    fn push(
        &mut self,
        batch: SignedBatch,
        batch_digest: &Digest,
        certificate: Option<CommitCertificate>,
        state_digest: Digest,
    ) -> &Block {
        let block = Block {
            height: self.head_height() + 1,
            parent: self.head,
            batch,
            certificate,
            state_digest,
        };
        self.head = block.hash_over(batch_digest);
        self.blocks.push(block);
        self.blocks.last().expect("just pushed")
    }

    /// Append every entry of a consensus decision, in order. GeoBFT
    /// decisions carry `z` batches (one per cluster, §3: "in each round ρ,
    /// each replica creates z blocks in the order of execution of the z
    /// requests"); single-log protocols carry one. Each block is hashed
    /// over the digest the entry carries, so no batch is hashed again.
    ///
    /// A [`Decision`] holds batches, not certificates, so these blocks
    /// carry `certificate: None` — every block the fabric and the
    /// simulator write. Only a [`Ledger::append`] caller that holds a
    /// certificate can record one.
    pub fn append_decision(&mut self, decision: &Decision) {
        for entry in &decision.entries {
            debug_assert_eq!(entry.digest, entry.batch.digest(), "carried batch digest");
            self.push(
                entry.batch.clone(),
                &entry.digest,
                None,
                decision.state_digest,
            );
        }
    }

    /// Verify the retained chain: heights, parent links, genesis identity
    /// (or, after compaction, recovery-anchor consistency), the cached
    /// head hash, and every embedded certificate (when `cfg`/`crypto` are
    /// provided). A chain that passes has [`Ledger::hash_at`] equal to
    /// each retained block's recomputed hash. The anchor block itself is
    /// the trust root: its own parent link points into the compacted
    /// prefix and cannot be re-checked — which is exactly why compaction
    /// only ever runs on checkpoint-certified heights.
    pub fn verify(&self, cfg: Option<(&SystemConfig, &CryptoCtx)>) -> RdbResult<()> {
        if self.blocks.is_empty() {
            return Err(RdbError::LedgerCorruption("no anchor block".into()));
        }
        if self.base == 0 {
            if self.blocks[0] != Block::genesis() {
                return Err(RdbError::LedgerCorruption("bad genesis".into()));
            }
        } else if self.blocks[0].height != self.base {
            return Err(RdbError::LedgerCorruption(format!(
                "anchor height {} does not match base {}",
                self.blocks[0].height, self.base
            )));
        }
        let mut parent = self.blocks[0].hash();
        for (i, b) in self.blocks.iter().enumerate().skip(1) {
            let height = self.base + i as u64;
            if b.height != height {
                return Err(RdbError::LedgerCorruption(format!(
                    "height mismatch at {height}: {}",
                    b.height
                )));
            }
            if b.parent != parent {
                return Err(RdbError::LedgerCorruption(format!(
                    "broken parent link at height {height}"
                )));
            }
            if let Some(cert) = &b.certificate {
                if cert.digest != b.batch.digest() {
                    return Err(RdbError::LedgerCorruption(format!(
                        "certificate digest mismatch at height {height}"
                    )));
                }
                if let Some((sys, crypto)) = cfg {
                    if !cert.verify(sys, crypto) {
                        return Err(RdbError::LedgerCorruption(format!(
                            "invalid certificate at height {height}"
                        )));
                    }
                }
            }
            parent = b.hash();
        }
        if parent != self.head {
            return Err(RdbError::LedgerCorruption(
                "head hash does not match the last block".into(),
            ));
        }
        Ok(())
    }

    /// Replace the block vector wholesale (used by
    /// [`Ledger::from_blocks_unchecked`]; invariants must be re-checked
    /// with [`Ledger::verify`]). The base is taken from the first block's
    /// height.
    pub(crate) fn replace_blocks(&mut self, blocks: Vec<Block>) {
        self.base = blocks.first().map_or(0, |b| b.height);
        self.head = blocks.last().map_or(Digest::ZERO, Block::hash);
        self.blocks = blocks;
    }
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::ids::ClusterId;

    fn noop(round: u64) -> SignedBatch {
        SignedBatch::noop(ClusterId(0), round)
    }

    #[test]
    fn append_links_blocks() {
        let mut l = Ledger::new();
        assert!(l.is_empty());
        l.append(noop(1), None, Digest::of(b"s1"));
        l.append(noop(2), None, Digest::of(b"s2"));
        assert_eq!(l.len(), 3);
        assert_eq!(l.head_height(), 2);
        assert!(l.verify(None).is_ok());
        assert_eq!(l.block(2).unwrap().parent, l.block(1).unwrap().hash());
    }

    #[test]
    fn tampering_with_a_middle_block_is_detected() {
        let mut l = Ledger::new();
        for i in 1..=5 {
            l.append(noop(i), None, Digest::of(&[i as u8]));
        }
        assert!(l.verify(None).is_ok());
        // Tamper: change block 3's batch.
        l.blocks[3].batch = noop(99);
        let err = l.verify(None).unwrap_err();
        assert!(matches!(err, RdbError::LedgerCorruption(_)));
        assert!(err.to_string().contains("height 4"), "{err}");
    }

    #[test]
    fn tampering_with_heights_is_detected() {
        let mut l = Ledger::new();
        l.append(noop(1), None, Digest::ZERO);
        l.blocks[1].height = 7;
        assert!(l.verify(None).is_err());
    }

    #[test]
    fn fake_genesis_is_detected() {
        let mut l = Ledger::new();
        l.append(noop(1), None, Digest::ZERO);
        l.blocks[0].state_digest = Digest::of(b"evil");
        assert!(l.verify(None).is_err());
    }

    #[test]
    fn compaction_keeps_anchor_and_suffix_and_head() {
        let mut l = Ledger::new();
        for i in 1..=10 {
            l.append(noop(i), None, Digest::of(&[i as u8]));
        }
        let head = l.head_hash();
        let b7 = l.block(7).unwrap().hash();
        let pruned = l.compact(6);
        assert_eq!(pruned, 6, "genesis plus heights 1..=5");
        assert_eq!(l.base_height(), 6);
        assert_eq!(l.anchor().height, 6);
        assert_eq!(l.len(), 5, "anchor + 4 suffix blocks retained");
        assert!(l.block(5).is_none(), "pruned heights are gone");
        assert_eq!(l.block(7).unwrap().hash(), b7, "suffix is untouched");
        assert_eq!(l.head_hash(), head, "compaction never changes the head");
        assert_eq!(l.head_height(), 10);
        l.verify(None)
            .expect("compacted chain verifies from the anchor");
        // Idempotent / monotone: compacting at or below the base is a no-op.
        assert_eq!(l.compact(6), 0);
        assert_eq!(l.compact(3), 0);
        // Appending after compaction keeps linking from the same head.
        l.append(noop(11), None, Digest::of(b"s11"));
        assert_eq!(l.block(11).unwrap().parent, head);
        l.verify(None).expect("still verifies");
    }

    #[test]
    fn compact_clamps_to_head() {
        let mut l = Ledger::new();
        for i in 1..=3 {
            l.append(noop(i), None, Digest::ZERO);
        }
        l.compact(99);
        assert_eq!(l.base_height(), 3);
        assert_eq!(l.len(), 1, "only the head remains as anchor");
        l.verify(None).expect("single-anchor chain verifies");
    }

    #[test]
    fn tampered_compacted_suffix_is_detected() {
        let mut l = Ledger::new();
        for i in 1..=8 {
            l.append(noop(i), None, Digest::of(&[i as u8]));
        }
        l.compact(4);
        l.blocks[2].batch = noop(99); // height 6
        let err = l.verify(None).unwrap_err();
        assert!(err.to_string().contains("height 7"), "{err}");
    }

    #[test]
    fn anchor_height_must_match_base() {
        let mut l = Ledger::new();
        for i in 1..=4 {
            l.append(noop(i), None, Digest::ZERO);
        }
        l.compact(2);
        l.blocks[0].height = 3; // forged anchor
        let err = l.verify(None).unwrap_err();
        assert!(err.to_string().contains("anchor"), "{err}");
    }

    #[test]
    fn append_decision_adds_all_entries() {
        use rdb_consensus::types::{Decision, DecisionEntry};
        let mut l = Ledger::new();
        let d = Decision {
            seq: 1,
            entries: vec![
                DecisionEntry::new(Some(ClusterId(0)), noop(1)),
                DecisionEntry::new(Some(ClusterId(1)), SignedBatch::noop(ClusterId(1), 1)),
            ],
            state_digest: Digest::of(b"post"),
            writes: Vec::new(),
        };
        l.append_decision(&d);
        assert_eq!(l.len(), 3, "z = 2 blocks per GeoBFT round");
        assert!(l.verify(None).is_ok());
    }
}
