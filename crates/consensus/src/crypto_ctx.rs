//! Per-node cryptographic context handed to protocol state machines.
//!
//! Bundles the node's unique [`Signer`], a shared [`Verifier`], and one
//! flag: real or modeled crypto, for signing and verifying alike.
//!
//! The modeled mode exists because the discrete-event simulator charges
//! crypto compute in virtual time (see `rdb-simnet::compute`); re-checking
//! every tag on the host CPU while simulating tens of thousands of
//! decisions would only slow the simulation down without changing its
//! outcome. The threaded fabric and the tests run real contexts. The only
//! reader of the verifying half is [`crate::stage`]: `Message::verify` at
//! each node's input edge is the one place a message is checked, so the
//! state machines never verify anything themselves.

use crate::types::{ClientBatch, SignedBatch};
use rdb_common::ids::NodeId;
use rdb_crypto::digest::Digest;
use rdb_crypto::sign::{PublicKey, Signature, Signer, Verifier};
use std::sync::Arc;

/// Cryptographic capabilities of one node.
#[derive(Clone)]
pub struct CryptoCtx {
    signer: Arc<Signer>,
    verifier: Verifier,
    /// Sign and verify for real; `false` models both.
    real: bool,
}

impl CryptoCtx {
    /// Build a context. `real = false` makes signing produce placeholder
    /// tags and every `verify*` skip the key lookup and return `true`.
    pub fn new(signer: Signer, verifier: Verifier, real: bool) -> CryptoCtx {
        CryptoCtx {
            signer: Arc::new(signer),
            verifier,
            real,
        }
    }

    /// The identity: a context behind a verifier stage is the same
    /// context, because no state machine verifies anything. Kept only
    /// because the benchmark's layer replay still calls it.
    pub fn preverified(self) -> CryptoCtx {
        self
    }

    /// This node's public key.
    pub fn public_key(&self) -> PublicKey {
        self.signer.public_key()
    }

    /// Sign arbitrary bytes as this node. In modeled mode this returns a
    /// placeholder tag: nobody will inspect it, and the *cost* of signing
    /// is charged in virtual time by the simulator instead of on the host
    /// CPU.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        if !self.real {
            return Signature::default();
        }
        self.signer.sign(msg)
    }

    /// Sign `batch` as its client: `⟨T⟩_c`, the signature covering the
    /// batch digest, which is returned too so the caller need not hash
    /// the batch again.
    pub fn sign_batch(&self, batch: ClientBatch) -> (SignedBatch, Digest) {
        let digest = batch.digest();
        let signed = SignedBatch {
            sig: self.sign(digest.as_bytes()),
            pubkey: self.public_key(),
            batch,
        };
        (signed, digest)
    }

    /// `signer`'s signature over `payload`. An unregistered signer fails.
    pub fn verify(&self, signer: NodeId, payload: &[u8], sig: &Signature) -> bool {
        let check = |pk: PublicKey| self.verifier.verify(&pk, payload, sig);
        !self.real || self.verifier.public_key_of(signer).is_some_and(check)
    }

    /// Every `(signer, signature)` pair over the *same* payload
    /// (certificates, QCs), in one batched pass over the key registry.
    pub fn verify_many(
        &self,
        payload: &[u8],
        signers: impl IntoIterator<Item = (NodeId, Signature)>,
    ) -> bool {
        if !self.real {
            return true;
        }
        let pairs: Option<Vec<_>> = signers
            .into_iter()
            .map(|(node, sig)| Some((self.verifier.public_key_of(node)?, sig)))
            .collect();
        pairs.is_some_and(|pairs| self.verifier.verify_many(payload, &pairs))
    }

    /// A client's signature on a batch whose digest is `digest`. No-op
    /// batches are primary products and carry no client signature (§2.5);
    /// they validate through the surrounding commit certificate instead.
    /// Only the canonical no-op shape skips the check
    /// ([`SignedBatch::is_noop`]), so no operation executes unsigned.
    pub fn verify_batch(&self, sb: &SignedBatch, digest: &Digest) -> bool {
        !self.real || sb.is_noop() || self.verifier.verify(&sb.pubkey, digest.as_bytes(), &sb.sig)
    }
}

impl std::fmt::Debug for CryptoCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CryptoCtx")
            .field("real", &self.real)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClientBatch, Transaction};
    use rdb_common::ids::{ClientId, ReplicaId};
    use rdb_crypto::sign::KeyStore;
    use rdb_store::Operation;

    fn make_ctx(real: bool) -> (CryptoCtx, KeyStore) {
        let ks = KeyStore::new(1);
        let signer = ks.register(ReplicaId::new(0, 0).into());
        (CryptoCtx::new(signer, ks.verifier(), real), ks)
    }

    fn signed_batch(ks: &KeyStore, valid: bool) -> SignedBatch {
        let client = ClientId::new(0, 0);
        let signer = ks.register(client.into());
        let batch = ClientBatch {
            client,
            batch_seq: 0,
            txns: vec![Transaction {
                client,
                seq: 0,
                op: Operation::NoOp,
            }]
            .into(),
        };
        let digest = batch.digest();
        let sig = if valid {
            signer.sign(digest.as_bytes())
        } else {
            signer.sign(b"wrong")
        };
        SignedBatch {
            batch,
            pubkey: signer.public_key(),
            sig,
        }
    }

    const ME: NodeId = NodeId::Replica(ReplicaId {
        cluster: rdb_common::ids::ClusterId(0),
        index: 0,
    });

    #[test]
    fn real_mode_checks() {
        let (ctx, ks) = make_ctx(true);
        let good = signed_batch(&ks, true);
        assert!(ctx.verify_batch(&good, &good.digest()));
        let sig = ctx.sign(b"hello");
        assert!(ctx.verify(ME, b"hello", &sig));
        assert!(!ctx.verify(ME, b"other", &sig));
        // Someone else's key, and nobody's key.
        assert!(!ctx.verify(ClientId::new(0, 0).into(), b"hello", &sig));
        assert!(!ctx.verify(ReplicaId::new(5, 5).into(), b"hello", &sig));
    }

    #[test]
    fn real_mode_rejects_bad_batch() {
        let (ctx, ks) = make_ctx(true);
        let bad = signed_batch(&ks, false);
        assert!(!ctx.verify_batch(&bad, &bad.digest()));
    }

    #[test]
    fn modeled_mode_accepts_everything_and_signs_placeholders() {
        let (ctx, ks) = make_ctx(false);
        let bad = signed_batch(&ks, false);
        assert!(ctx.verify_batch(&bad, &bad.digest()));
        assert!(ctx.verify(ME, b"m", &Signature::default()));
        // Not even the key lookup runs.
        assert!(ctx.verify(ReplicaId::new(5, 5).into(), b"m", &Signature::default()));
        assert_eq!(ctx.sign(b"vote"), Signature::default());
    }

    #[test]
    fn preverified_is_the_identity() {
        let (ctx, _ks) = make_ctx(true);
        let pre = ctx.clone().preverified();
        assert!(!pre.verify(ME, b"vote", &Signature::default()));
        assert_eq!(pre.sign(b"vote"), ctx.sign(b"vote"));
    }

    #[test]
    fn verify_many_checks_every_pair() {
        let (ctx, _ks) = make_ctx(true);
        let good = ctx.sign(b"payload");
        assert!(ctx.verify_many(b"payload", [(ME, good), (ME, good)]));
        assert!(!ctx.verify_many(b"payload", [(ME, good), (ME, Signature::default())]));
        let (modeled, _ks) = make_ctx(false);
        assert!(modeled.verify_many(b"payload", [(ME, Signature::default())]));
    }

    #[test]
    fn noop_batches_skip_client_verification() {
        let (ctx, _ks) = make_ctx(true);
        let noop = SignedBatch::noop(rdb_common::ids::ClusterId(0), 3);
        assert!(ctx.verify_batch(&noop, &noop.digest()));
        // The reserved client index alone does not make a no-op.
        let mut forged = noop;
        forged.batch.txns.make_mut()[0].op = Operation::Read { key: 1 };
        assert!(!ctx.verify_batch(&forged, &forged.digest()));
    }
}
