//! Replica recovery by ledger audit.
//!
//! §3 of the paper: "The immutable structure of the ledger also helps when
//! recovering replicas: tampering of its ledger by any replica can easily
//! be detected. Hence, a recovering replica can simply read the ledger of
//! any replica it chooses and directly verify whether the ledger can be
//! trusted (is not tampered with)."

use crate::block::Block;
use crate::chain::Ledger;
use rdb_common::config::SystemConfig;
use rdb_consensus::crypto_ctx::CryptoCtx;
use rdb_store::KvStore;
use std::fmt;

/// Why an audited ledger was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// Structural verification failed (hash chain, heights, genesis).
    Corrupt(String),
    /// The ledger is shorter than the prefix the auditor already trusts.
    TooShort {
        /// The peer's head height.
        have: u64,
        /// The height the auditor requires.
        need: u64,
    },
    /// The peer's chain disagrees with a block the auditor already trusts.
    ForkedAt(u64),
    /// The peer compacted its ledger past the height the recovering
    /// replica needs — the audit cannot link the chains, and recovery
    /// requires a newer state snapshot (a full state transfer) instead
    /// of suffix replay.
    PrunedGap {
        /// The peer's first retained height (its recovery anchor).
        base: u64,
        /// The height the auditor needed retained.
        need: u64,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Corrupt(s) => write!(f, "ledger corrupt: {s}"),
            AuditError::TooShort { have, need } => {
                write!(f, "ledger too short: have {have}, need {need}")
            }
            AuditError::ForkedAt(h) => write!(f, "ledger forks from trusted prefix at {h}"),
            AuditError::PrunedGap { base, need } => {
                write!(f, "ledger compacted to {base}, need height {need} retained")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Audit a peer's ledger against an optionally-known trusted prefix.
///
/// Returns `Ok(())` when the chain is internally consistent, all
/// certificates verify, and the chain extends `trusted` over every
/// height *both* ledgers retain. Compacted ledgers (on either side)
/// audit from the later of the two recovery anchors; a peer that pruned
/// past everything the auditor trusts is rejected with
/// [`AuditError::PrunedGap`] — nothing links the chains.
pub fn audit_chain(
    peer: &Ledger,
    trusted: Option<&Ledger>,
    cfg: &SystemConfig,
    crypto: &CryptoCtx,
) -> Result<(), AuditError> {
    peer.verify(Some((cfg, crypto)))
        .map_err(|e| AuditError::Corrupt(e.to_string()))?;
    if let Some(trusted) = trusted {
        if peer.head_height() < trusted.head_height() {
            return Err(AuditError::TooShort {
                have: peer.head_height(),
                need: trusted.head_height(),
            });
        }
        if peer.base_height() > trusted.head_height() {
            return Err(AuditError::PrunedGap {
                base: peer.base_height(),
                need: trusted.head_height(),
            });
        }
        let from = peer.base_height().max(trusted.base_height());
        for h in from..=trusted.head_height() {
            let a = trusted.block(h).expect("within retained range");
            let b = peer.block(h).expect("within retained range");
            if a.hash() != b.hash() {
                return Err(AuditError::ForkedAt(h));
            }
        }
    }
    Ok(())
}

/// Rebuild replica state from an audited *uncompacted* ledger: replay
/// every block's batch against a fresh store. Returns the recovered
/// store; the caller should verify the final state digest against
/// `peer`'s recorded one (which this function asserts when the ledger
/// records real-execution state digests). A compacted peer cannot be
/// replayed from genesis — use [`recover_from_checkpoint`].
pub fn recover_from(
    peer: &Ledger,
    trusted: Option<&Ledger>,
    cfg: &SystemConfig,
    crypto: &CryptoCtx,
    initial_store: KvStore,
) -> Result<KvStore, AuditError> {
    if peer.base_height() > 0 {
        return Err(AuditError::PrunedGap {
            base: peer.base_height(),
            need: 0,
        });
    }
    audit_chain(peer, trusted, cfg, crypto)?;
    let mut store = initial_store;
    for block in peer.blocks().iter().skip(1) {
        store.execute_batch(block.batch.batch.operations());
    }
    Ok(store)
}

/// Restart a replica from a stable checkpoint: pair the checkpointed
/// state snapshot (`anchor_store`, the table as of `anchor_height`) with
/// a peer's audited ledger, validate the snapshot against the anchor
/// block's recorded `state_digest`, and replay only the suffix above the
/// anchor. Returns the caught-up store, whose digest is checked against
/// the peer's head block — the recovering replica rejoins with the exact
/// state the quorum certified.
///
/// `trusted` is the restarting replica's own retained ledger (fork
/// detection over the overlap); the peer must still retain the anchor
/// height, otherwise recovery needs a newer snapshot
/// ([`AuditError::PrunedGap`]).
pub fn recover_from_checkpoint(
    peer: &Ledger,
    trusted: Option<&Ledger>,
    cfg: &SystemConfig,
    crypto: &CryptoCtx,
    anchor_height: u64,
    anchor_store: KvStore,
) -> Result<KvStore, AuditError> {
    audit_chain(peer, trusted, cfg, crypto)?;
    let Some(anchor_block) = peer.block(anchor_height) else {
        return Err(AuditError::PrunedGap {
            base: peer.base_height(),
            need: anchor_height,
        });
    };
    if anchor_block.state_digest != anchor_store.state_digest() {
        return Err(AuditError::Corrupt(format!(
            "checkpoint snapshot does not match the anchor block's state at height {anchor_height}"
        )));
    }
    replay_suffix(peer, anchor_height, anchor_store)
}

/// Replay `peer`'s blocks above `from` on `store` (the table as of
/// `from`) and check the result against the state `peer`'s head records.
fn replay_suffix(peer: &Ledger, from: u64, mut store: KvStore) -> Result<KvStore, AuditError> {
    for h in (from + 1)..=peer.head_height() {
        let block = peer.block(h).expect("suffix retained past the anchor");
        store.execute_batch(block.batch.batch.operations());
    }
    let head = peer.block(peer.head_height()).expect("head present");
    if peer.head_height() > from && head.state_digest != store.state_digest() {
        return Err(AuditError::Corrupt(
            "replayed suffix does not reach the head's recorded state".into(),
        ));
    }
    Ok(store)
}

/// What a replica that stopped behind a peer lacks: the peer's blocks
/// above `own`'s head, returned with `store` (the table as of that head)
/// replayed through them. The peer's chain must extend `own` (audited as
/// the trusted prefix), and the replay must reach the state the peer's
/// head records. A peer at our own head returns no blocks and `store`
/// unchanged.
pub fn catch_up(
    peer: &Ledger,
    own: &Ledger,
    store: KvStore,
    cfg: &SystemConfig,
    crypto: &CryptoCtx,
) -> Result<(Vec<Block>, KvStore), AuditError> {
    audit_chain(peer, Some(own), cfg, crypto)?;
    let from = own.head_height();
    let store = replay_suffix(peer, from, store)?;
    let suffix = ((from + 1)..=peer.head_height())
        .map(|h| {
            peer.block(h)
                .expect("suffix retained past our head")
                .clone()
        })
        .collect();
    Ok((suffix, store))
}

impl Ledger {
    /// Construct a ledger from raw blocks WITHOUT verification. Exists for
    /// tests and for modeling malicious peers; always [`Ledger::verify`]
    /// or [`audit_chain`] before trusting the result.
    pub fn from_blocks_unchecked(blocks: Vec<crate::block::Block>) -> Ledger {
        // Safety note: Ledger is a plain Vec wrapper; the invariants are
        // re-established by verify().
        let mut l = Ledger::new();
        l.replace_blocks(blocks);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::ids::{ClientId, NodeId, ReplicaId};
    use rdb_consensus::types::{ClientBatch, SignedBatch, Transaction};
    use rdb_crypto::digest::Digest;
    use rdb_crypto::sign::KeyStore;
    use rdb_store::{Operation, Value};

    fn ctx() -> (SystemConfig, CryptoCtx) {
        let cfg = SystemConfig::geo(1, 4).unwrap();
        let ks = KeyStore::new(5);
        let signer = ks.register(NodeId::Replica(ReplicaId::new(0, 0)));
        (cfg, CryptoCtx::new(signer, ks.verifier(), true))
    }

    fn write_batch(round: u64) -> SignedBatch {
        let client = ClientId::new(0, 0);
        SignedBatch {
            batch: ClientBatch {
                client,
                batch_seq: round,
                txns: vec![Transaction {
                    client,
                    seq: round,
                    op: Operation::Write {
                        key: round,
                        value: Value::from_u64(round * 10),
                    },
                }],
            },
            pubkey: Default::default(),
            sig: Default::default(),
        }
    }

    #[test]
    fn clean_ledger_passes_audit() {
        let (cfg, crypto) = ctx();
        let mut l = Ledger::new();
        l.append(write_batch(1), None, Digest::ZERO);
        assert!(audit_chain(&l, None, &cfg, &crypto).is_ok());
    }

    #[test]
    fn tampered_ledger_fails_audit() {
        let (cfg, crypto) = ctx();
        let mut l = Ledger::new();
        l.append(write_batch(1), None, Digest::ZERO);
        l.append(write_batch(2), None, Digest::ZERO);
        let mut tampered = l.clone();
        // Rewrite history: replace block 1's batch.
        let mut blocks = tampered.blocks().to_vec();
        blocks[1].batch = write_batch(9);
        tampered = rebuild(blocks);
        let err = audit_chain(&tampered, None, &cfg, &crypto).unwrap_err();
        assert!(matches!(err, AuditError::Corrupt(_)));
    }

    #[test]
    fn fork_from_trusted_prefix_detected() {
        let (cfg, crypto) = ctx();
        let mut trusted = Ledger::new();
        trusted.append(write_batch(1), None, Digest::ZERO);
        // Peer built a *different* (but internally valid) history.
        let mut peer = Ledger::new();
        peer.append(write_batch(9), None, Digest::ZERO);
        peer.append(write_batch(2), None, Digest::ZERO);
        let err = audit_chain(&peer, Some(&trusted), &cfg, &crypto).unwrap_err();
        assert_eq!(err, AuditError::ForkedAt(1));
    }

    #[test]
    fn short_peer_rejected() {
        let (cfg, crypto) = ctx();
        let mut trusted = Ledger::new();
        trusted.append(write_batch(1), None, Digest::ZERO);
        let peer = Ledger::new();
        let err = audit_chain(&peer, Some(&trusted), &cfg, &crypto).unwrap_err();
        assert_eq!(err, AuditError::TooShort { have: 0, need: 1 });
    }

    #[test]
    fn recovery_replays_state() {
        let (cfg, crypto) = ctx();
        let mut l = Ledger::new();
        for i in 1..=3 {
            l.append(write_batch(i), None, Digest::ZERO);
        }
        let store = recover_from(&l, None, &cfg, &crypto, KvStore::new()).unwrap();
        assert_eq!(store.get(1), Some(Value::from_u64(10)));
        assert_eq!(store.get(2), Some(Value::from_u64(20)));
        assert_eq!(store.get(3), Some(Value::from_u64(30)));
    }

    /// Rebuild a ledger from raw blocks (test helper emulating a malicious
    /// peer handing over arbitrary data).
    fn rebuild(blocks: Vec<crate::block::Block>) -> Ledger {
        // Construct through the public API then overwrite; simplest is to
        // transmute via serde-like reconstruction. For tests we re-create
        // by direct field access through a helper on Ledger.
        Ledger::from_blocks_unchecked(blocks)
    }

    /// A ledger of `n` write batches whose blocks record the real
    /// post-execution state digests, plus the store states along the way.
    fn executed_ledger(n: u64) -> (Ledger, Vec<KvStore>) {
        let mut l = Ledger::new();
        let mut store = KvStore::new();
        let mut states = vec![store.clone()];
        for i in 1..=n {
            let sb = write_batch(i);
            store.execute_batch(sb.batch.operations());
            l.append(sb, None, store.state_digest());
            states.push(store.clone());
        }
        (l, states)
    }

    #[test]
    fn compacted_peer_audits_from_the_anchor() {
        let (cfg, crypto) = ctx();
        let (full, _) = executed_ledger(8);
        let mut peer = full.clone();
        peer.compact(5);
        assert!(audit_chain(&peer, None, &cfg, &crypto).is_ok());
        // Against an uncompacted trusted prefix: overlap heights 5..=8.
        assert!(audit_chain(&peer, Some(&full), &cfg, &crypto).is_ok());
        // And the mirror image: a full peer against a compacted trusted.
        assert!(audit_chain(&full, Some(&peer), &cfg, &crypto).is_ok());
        // Full replay of a compacted peer is impossible.
        let err = recover_from(&peer, None, &cfg, &crypto, KvStore::new()).unwrap_err();
        assert!(matches!(err, AuditError::PrunedGap { base: 5, .. }));
    }

    #[test]
    fn checkpoint_recovery_replays_only_the_suffix() {
        let (cfg, crypto) = ctx();
        let (full, states) = executed_ledger(9);
        let mut peer = full.clone();
        peer.compact(4);
        // Restart from the checkpoint at height 4: its snapshot plus the
        // peer's retained suffix reproduce the head state exactly.
        let recovered =
            recover_from_checkpoint(&peer, None, &cfg, &crypto, 4, states[4].clone()).unwrap();
        assert_eq!(recovered.state_digest(), states[9].state_digest());
        // A snapshot that does not match the anchor block is rejected.
        let err =
            recover_from_checkpoint(&peer, None, &cfg, &crypto, 4, KvStore::new()).unwrap_err();
        assert!(matches!(err, AuditError::Corrupt(_)));
    }

    #[test]
    fn recovery_gap_is_reported_when_peer_pruned_past_the_anchor() {
        let (cfg, crypto) = ctx();
        let (full, states) = executed_ledger(9);
        let mut peer = full.clone();
        peer.compact(7);
        // Our last checkpoint is older than anything the peer retains.
        let err =
            recover_from_checkpoint(&peer, None, &cfg, &crypto, 4, states[4].clone()).unwrap_err();
        assert_eq!(err, AuditError::PrunedGap { base: 7, need: 4 });
        // Same for an audit whose whole trusted prefix was pruned away.
        let mut old = full.clone();
        old.replace_blocks(full.blocks()[..5].to_vec()); // head 4
        let err = audit_chain(&peer, Some(&old), &cfg, &crypto).unwrap_err();
        assert_eq!(err, AuditError::PrunedGap { base: 7, need: 4 });
    }

    /// `own` truncated to `head` (a replica that stopped there).
    fn prefix(full: &Ledger, head: u64) -> Ledger {
        Ledger::from_blocks_unchecked(full.blocks()[..=head as usize].to_vec())
    }

    #[test]
    fn catch_up_hands_a_laggard_the_blocks_and_state_it_lacks() {
        let (cfg, crypto) = ctx();
        let (peer, states) = executed_ledger(6);
        let mut own = prefix(&peer, 3);
        let (suffix, store) = catch_up(&peer, &own, states[3].clone(), &cfg, &crypto).unwrap();
        assert_eq!(suffix.len(), 3);
        assert_eq!(store.state_digest(), states[6].state_digest());
        for block in suffix {
            own.append(block.batch, block.certificate, block.state_digest);
        }
        assert_eq!(own.head_hash(), peer.head_hash());
        // A peer at our head has nothing to hand over.
        let (suffix, store) = catch_up(&peer, &own, store, &cfg, &crypto).unwrap();
        assert!(suffix.is_empty());
        assert_eq!(store.state_digest(), states[6].state_digest());
    }

    #[test]
    fn catch_up_refuses_a_peer_that_forks_below_our_head() {
        let (cfg, crypto) = ctx();
        let (peer, _) = executed_ledger(4);
        // We committed a different block 2, and executed it.
        let mut own = prefix(&peer, 1);
        let mut store = KvStore::new();
        store.execute_batch(own.block(1).unwrap().batch.batch.operations());
        let other = write_batch(9);
        store.execute_batch(other.batch.operations());
        own.append(other, None, store.state_digest());
        let err = catch_up(&peer, &own, store, &cfg, &crypto).unwrap_err();
        assert_eq!(err, AuditError::ForkedAt(2));
    }

    #[test]
    fn catch_up_refuses_a_suffix_that_misses_its_recorded_state() {
        let (cfg, crypto) = ctx();
        let (full, states) = executed_ledger(4);
        // A well-linked chain whose head claims a state its batches do not
        // produce.
        let mut peer = prefix(&full, 3);
        peer.append(write_batch(4), None, states[3].state_digest());
        let err = catch_up(&peer, &prefix(&full, 2), states[2].clone(), &cfg, &crypto).unwrap_err();
        assert!(matches!(err, AuditError::Corrupt(_)), "{err}");
    }

    #[test]
    fn catch_up_refuses_a_peer_behind_or_pruned_past_our_head() {
        let (cfg, crypto) = ctx();
        let (full, states) = executed_ledger(6);
        let err = catch_up(
            &prefix(&full, 2),
            &prefix(&full, 4),
            states[4].clone(),
            &cfg,
            &crypto,
        )
        .unwrap_err();
        assert_eq!(err, AuditError::TooShort { have: 2, need: 4 });
        let mut pruned = full.clone();
        pruned.compact(5);
        let err =
            catch_up(&pruned, &prefix(&full, 3), states[3].clone(), &cfg, &crypto).unwrap_err();
        assert_eq!(err, AuditError::PrunedGap { base: 5, need: 3 });
    }
}
