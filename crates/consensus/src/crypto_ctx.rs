//! Per-node cryptographic context handed to protocol state machines.
//!
//! Bundles the node's unique [`Signer`], a shared [`Verifier`], and a
//! switch controlling whether signatures are actually checked.
//!
//! The switch exists because the discrete-event simulator *models* crypto
//! compute costs in virtual time (see `rdb-simnet::compute`); re-checking
//! every tag on the host CPU while simulating tens of thousands of
//! decisions would only slow the simulation down without changing its
//! outcome. Integration tests and the threaded fabric run with
//! `check_sigs = true`, so the verification paths are genuinely exercised.

use crate::types::{ClientBatch, SignedBatch};
use rdb_crypto::sign::{PublicKey, Signature, Signer, Verifier};
use std::sync::Arc;

/// Cryptographic capabilities of one node.
#[derive(Clone)]
pub struct CryptoCtx {
    signer: Arc<Signer>,
    verifier: Verifier,
    /// Produce real signatures when signing.
    sign_real: bool,
    /// Check signatures on inbound material. Independent from `sign_real`
    /// so a pipeline's ordering stage can *trust* a dedicated verifier
    /// stage (inbound checks off) while still signing its own votes.
    verify_inbound: bool,
}

impl CryptoCtx {
    /// Build a context. `check_sigs = false` turns `verify*` into
    /// constant-`true` (modeled verification) and signing into placeholder
    /// tags.
    pub fn new(signer: Signer, verifier: Verifier, check_sigs: bool) -> CryptoCtx {
        CryptoCtx {
            signer: Arc::new(signer),
            verifier,
            sign_real: check_sigs,
            verify_inbound: check_sigs,
        }
    }

    /// A context for a state machine running *behind* a verifier stage
    /// (paper Figure 9): inbound signature checks become constant-`true`
    /// because [`crate::stage::VerifiedMessage`] proved them already, while
    /// outbound signing stays real so peers can verify our votes.
    pub fn preverified(mut self) -> CryptoCtx {
        self.verify_inbound = false;
        self
    }

    /// Whether inbound verification is real or delegated/modeled.
    pub fn checks_signatures(&self) -> bool {
        self.verify_inbound
    }

    /// This node's public key.
    pub fn public_key(&self) -> PublicKey {
        self.signer.public_key()
    }

    /// Sign arbitrary bytes as this node. In modeled mode
    /// (`check_sigs = false`) this returns a placeholder tag: nobody will
    /// inspect it, and the *cost* of signing is charged in virtual time by
    /// the simulator instead of on the host CPU.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        if !self.sign_real {
            return Signature::default();
        }
        self.signer.sign(msg)
    }

    /// Sign `batch` as its client: `⟨T⟩_c`, the signature covering the
    /// batch digest.
    pub fn sign_batch(&self, batch: ClientBatch) -> SignedBatch {
        SignedBatch {
            sig: self.sign(batch.digest().as_bytes()),
            pubkey: self.public_key(),
            batch,
        }
    }

    /// Verify a signature over raw bytes.
    pub fn verify(&self, pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        if !self.verify_inbound {
            return true;
        }
        self.verifier.verify(pk, msg, sig)
    }

    /// Verify many signatures over the *same* payload (certificates, QCs)
    /// in one batched pass over the key registry.
    pub fn verify_many(&self, msg: &[u8], pairs: &[(PublicKey, Signature)]) -> bool {
        if !self.verify_inbound {
            return true;
        }
        self.verifier.verify_many(msg, pairs)
    }

    /// Verify a client's signature on a batch. No-op batches are primary
    /// products and carry no client signature (§2.5); they validate
    /// through the surrounding commit certificate instead.
    pub fn verify_batch(&self, sb: &SignedBatch) -> bool {
        if sb.is_noop() {
            return true;
        }
        if !self.verify_inbound {
            return true;
        }
        self.verifier
            .verify(&sb.pubkey, sb.digest().as_bytes(), &sb.sig)
    }

    /// Access to the shared verifier (for certificate checks).
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }
}

impl std::fmt::Debug for CryptoCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CryptoCtx")
            .field("sign_real", &self.sign_real)
            .field("verify_inbound", &self.verify_inbound)
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

    fn make_ctx(check: bool) -> (CryptoCtx, KeyStore) {
        let ks = KeyStore::new(1);
        let signer = ks.register(ReplicaId::new(0, 0).into());
        (CryptoCtx::new(signer, ks.verifier(), check), ks)
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
            }],
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

    #[test]
    fn real_mode_checks() {
        let (ctx, ks) = make_ctx(true);
        let good = signed_batch(&ks, true);
        assert!(ctx.verify_batch(&good));
        let sig = ctx.sign(b"hello");
        assert!(ctx.verify(&ctx.public_key(), b"hello", &sig));
        assert!(!ctx.verify(&ctx.public_key(), b"other", &sig));
    }

    #[test]
    fn real_mode_rejects_bad_batch() {
        let (ctx, ks) = make_ctx(true);
        let bad = signed_batch(&ks, false);
        assert!(!ctx.verify_batch(&bad));
    }

    #[test]
    fn modeled_mode_accepts_everything() {
        let (ctx, ks) = make_ctx(false);
        let bad = signed_batch(&ks, false);
        assert!(ctx.verify_batch(&bad));
        assert!(ctx.verify(&ctx.public_key(), b"m", &Signature::default()));
        assert!(!ctx.checks_signatures());
    }

    #[test]
    fn preverified_trusts_inbound_but_signs_real() {
        let (ctx, ks) = make_ctx(true);
        let pre = ctx.clone().preverified();
        // Inbound checks are delegated: even a bad batch passes.
        let bad = signed_batch(&ks, false);
        assert!(pre.verify_batch(&bad));
        assert!(!pre.checks_signatures());
        // Outbound signing stays real: the full ctx can verify it.
        let sig = pre.sign(b"vote");
        assert!(ctx.verify(&ctx.public_key(), b"vote", &sig));
        assert_ne!(sig, Signature::default());
    }

    #[test]
    fn verify_many_gates_on_inbound_mode() {
        let (ctx, _ks) = make_ctx(true);
        let bad = [(ctx.public_key(), Signature::default())];
        assert!(!ctx.verify_many(b"payload", &bad));
        assert!(ctx.clone().preverified().verify_many(b"payload", &bad));
    }

    #[test]
    fn noop_batches_skip_client_verification() {
        let (ctx, _ks) = make_ctx(true);
        let noop = SignedBatch::noop(rdb_common::ids::ClusterId(0), 3);
        assert!(ctx.verify_batch(&noop));
    }
}
