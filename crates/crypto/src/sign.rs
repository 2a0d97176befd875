//! The simulation signature scheme (Ed25519-shaped API).
//!
//! §2.1 of the paper requires digital signatures for forwarded messages
//! (client requests, commit messages) such that "it is practically
//! impossible to forge digital signatures", plus authenticated
//! communication for everything else. ResilientDB uses ED25519.
//!
//! Inside a single-process reproduction we do not need public-key
//! cryptography to obtain those guarantees — we need an API whose *trust
//! boundaries* mirror them:
//!
//! * a [`KeyStore`] generates identities and hands out exactly one
//!   [`Signer`] per identity. `Signer` is deliberately `!Clone`; protocol
//!   code for replica R can only ever sign as R.
//! * anyone holding a [`Verifier`] (cheaply cloneable) can check a
//!   signature against a [`PublicKey`], but cannot produce one.
//! * tags are HMAC-SHA256 under a per-identity secret derived from a
//!   store-level root secret; 64-byte signatures are formed from two
//!   domain-separated HMAC invocations so the wire size matches Ed25519.
//!
//! Forging a signature without the `Signer` would require inverting
//! HMAC-SHA256, so within the simulation the unforgeability assumption of
//! §2.1 holds. The *compute cost* of real Ed25519 (the quantity that
//! matters for the evaluation) is modeled separately by the simulator's
//! compute model (`rdb-simnet::compute`).

use crate::hmac::{ct_eq, hmac_sha256, HmacSha256};
use rdb_common::ids::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// [`RwLock`] access that ignores poison: a registry writer that panics
/// (a node registered twice) leaves the maps it guards whole, so later
/// readers and writers take the guard out of the poison error.
trait RwLockExt<T> {
    fn read_guard(&self) -> RwLockReadGuard<'_, T>;
    fn write_guard(&self) -> RwLockWriteGuard<'_, T>;
}

impl<T> RwLockExt<T> for RwLock<T> {
    fn read_guard(&self) -> RwLockReadGuard<'_, T> {
        self.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_guard(&self) -> RwLockWriteGuard<'_, T> {
        self.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A 32-byte public key / identity handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct PublicKey(pub [u8; 32]);

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.0[..4].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "PublicKey({hex}..)")
    }
}

/// A 64-byte signature, the same wire size as Ed25519.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature(#[serde(with = "serde_bytes64")] pub [u8; 64]);

impl Default for Signature {
    fn default() -> Self {
        Signature([0u8; 64])
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.0[..4].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "Signature({hex}..)")
    }
}

/// Serde support for `[u8; 64]` (serde only derives up to 32 by default).
mod serde_bytes64 {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(v: &[u8; 64], s: S) -> Result<S::Ok, S::Error> {
        v.as_slice().serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<[u8; 64], D::Error> {
        let v: Vec<u8> = Vec::deserialize(d)?;
        let mut out = [0u8; 64];
        if v.len() != 64 {
            return Err(serde::de::Error::custom("signature must be 64 bytes"));
        }
        out.copy_from_slice(&v);
        Ok(out)
    }
}

/// Interior state of a key store.
struct KeyStoreInner {
    /// Root secret from which per-identity secrets derive.
    root: [u8; 32],
    /// identity -> public key.
    by_node: RwLock<HashMap<NodeId, PublicKey>>,
    /// public key -> per-identity secret (verification needs it; only the
    /// store itself can read this map).
    secrets: RwLock<HashMap<PublicKey, [u8; 32]>>,
}

/// Central authority generating identities and checking signatures.
///
/// One `KeyStore` is created per deployment. It can mint one [`Signer`] per
/// node and arbitrarily many [`Verifier`]s.
#[derive(Clone)]
pub struct KeyStore {
    inner: Arc<KeyStoreInner>,
}

impl KeyStore {
    /// Create a key store from a deployment seed. Deterministic: the same
    /// seed yields the same keys, which keeps simulations reproducible.
    pub fn new(seed: u64) -> Self {
        let root = hmac_sha256(b"rdb-keystore-root", &seed.to_le_bytes());
        KeyStore {
            inner: Arc::new(KeyStoreInner {
                root,
                by_node: RwLock::new(HashMap::new()),
                secrets: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// Register `node` and return its unique signing handle. Panics if the
    /// node was already registered — each identity signs from exactly one
    /// place.
    pub fn register(&self, node: NodeId) -> Signer {
        let node_bytes = encode_node(node);
        let secret = hmac_sha256(&self.inner.root, &node_bytes);
        let public = PublicKey(hmac_sha256(&secret, b"public-key"));

        let mut by_node = self.inner.by_node.write_guard();
        assert!(
            !by_node.contains_key(&node),
            "node {node:?} registered twice"
        );
        by_node.insert(node, public);
        self.inner.secrets.write_guard().insert(public, secret);

        Signer {
            node,
            public,
            secret,
        }
    }

    /// A verification handle sharing this store's registry.
    pub fn verifier(&self) -> Verifier {
        Verifier {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Look up a node's public key (if registered).
    pub fn public_key_of(&self, node: NodeId) -> Option<PublicKey> {
        self.inner.by_node.read_guard().get(&node).copied()
    }
}

fn encode_node(node: NodeId) -> Vec<u8> {
    match node {
        NodeId::Replica(r) => {
            let mut v = vec![0u8];
            v.extend_from_slice(&r.cluster.0.to_le_bytes());
            v.extend_from_slice(&r.index.to_le_bytes());
            v
        }
        NodeId::Client(c) => {
            let mut v = vec![1u8];
            v.extend_from_slice(&c.cluster.0.to_le_bytes());
            v.extend_from_slice(&c.index.to_le_bytes());
            v
        }
    }
}

fn tag(secret: &[u8; 32], msg: &[u8]) -> [u8; 64] {
    // Two domain-separated HMACs to fill 64 bytes (Ed25519 size).
    let mut first = HmacSha256::new(secret);
    first.update(b"sig/0").update(msg);
    let lo = first.finalize();
    let mut second = HmacSha256::new(secret);
    second.update(b"sig/1").update(msg);
    let hi = second.finalize();
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(&lo);
    out[32..].copy_from_slice(&hi);
    out
}

/// The unique signing handle of one identity. Not `Clone`: ownership of a
/// `Signer` *is* the secret key.
pub struct Signer {
    node: NodeId,
    public: PublicKey,
    secret: [u8; 32],
}

impl Signer {
    /// The identity this signer belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This identity's public key.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Sign a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature(tag(&self.secret, msg))
    }
}

impl fmt::Debug for Signer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signer({:?})", self.node)
    }
}

/// Cheaply cloneable verification handle.
#[derive(Clone)]
pub struct Verifier {
    inner: Arc<KeyStoreInner>,
}

impl Verifier {
    /// Check `sig` over `msg` against `public`. Returns `false` for
    /// unknown keys and invalid tags alike.
    pub fn verify(&self, public: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        let secrets = self.inner.secrets.read_guard();
        match secrets.get(public) {
            Some(secret) => ct_eq(&tag(secret, msg), &sig.0),
            None => false,
        }
    }

    /// Look up a node's public key (if registered).
    pub fn public_key_of(&self, node: NodeId) -> Option<PublicKey> {
        self.inner.by_node.read_guard().get(&node).copied()
    }

    /// Batched verification: check every `(public key, signature)` pair
    /// against the same `msg` under a single registry-lock acquisition.
    /// This is the shape certificate/QC checks take — `n - f` signatures
    /// over one payload — and is what the pipeline's verifier stage calls.
    /// Returns `true` only if *all* pairs verify.
    pub fn verify_many(&self, msg: &[u8], pairs: &[(PublicKey, Signature)]) -> bool {
        let secrets = self.inner.secrets.read_guard();
        pairs.iter().all(|(public, sig)| match secrets.get(public) {
            Some(secret) => ct_eq(&tag(secret, msg), &sig.0),
            None => false,
        })
    }
}

impl fmt::Debug for Verifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Verifier")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::ids::{ClientId, ReplicaId};

    fn store() -> KeyStore {
        KeyStore::new(42)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let ks = store();
        let signer = ks.register(ReplicaId::new(0, 0).into());
        let v = ks.verifier();
        let sig = signer.sign(b"hello");
        assert!(v.verify(&signer.public_key(), b"hello", &sig));
    }

    #[test]
    fn verification_rejects_wrong_message() {
        let ks = store();
        let signer = ks.register(ReplicaId::new(0, 0).into());
        let v = ks.verifier();
        let sig = signer.sign(b"hello");
        assert!(!v.verify(&signer.public_key(), b"hellO", &sig));
    }

    #[test]
    fn verification_rejects_wrong_signer() {
        let ks = store();
        let a = ks.register(ReplicaId::new(0, 0).into());
        let b = ks.register(ReplicaId::new(0, 1).into());
        let v = ks.verifier();
        let sig = a.sign(b"msg");
        assert!(!v.verify(&b.public_key(), b"msg", &sig));
    }

    #[test]
    fn verify_many_checks_every_pair() {
        let ks = store();
        let a = ks.register(ReplicaId::new(0, 0).into());
        let b = ks.register(ReplicaId::new(0, 1).into());
        let v = ks.verifier();
        let msg = b"quorum payload";
        let good = vec![(a.public_key(), a.sign(msg)), (b.public_key(), b.sign(msg))];
        assert!(v.verify_many(msg, &good));
        assert!(v.verify_many(msg, &[]));
        let bad = vec![
            (a.public_key(), a.sign(msg)),
            (b.public_key(), b.sign(b"other")),
        ];
        assert!(!v.verify_many(msg, &bad));
        let unknown = vec![(PublicKey([7u8; 32]), a.sign(msg))];
        assert!(!v.verify_many(msg, &unknown));
    }

    #[test]
    fn unknown_key_rejected() {
        let ks = store();
        let v = ks.verifier();
        assert!(!v.verify(&PublicKey([9u8; 32]), b"m", &Signature([0u8; 64])));
    }

    #[test]
    fn deterministic_across_stores_with_same_seed() {
        let a = KeyStore::new(7).register(ClientId::new(0, 3).into());
        let b = KeyStore::new(7).register(ClientId::new(0, 3).into());
        assert_eq!(a.public_key(), b.public_key());
        assert_eq!(a.sign(b"x").0.to_vec(), b.sign(b"x").0.to_vec());
    }

    #[test]
    fn different_seeds_differ() {
        let a = KeyStore::new(1).register(ClientId::new(0, 0).into());
        let b = KeyStore::new(2).register(ClientId::new(0, 0).into());
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let ks = store();
        let node: NodeId = ReplicaId::new(0, 0).into();
        let _a = ks.register(node);
        let _b = ks.register(node);
    }

    /// A store whose registry lock a panicking registration (the second
    /// registration of `node`, on another thread) has poisoned.
    fn poisoned_store(node: NodeId) -> (KeyStore, Signer) {
        let ks = store();
        let signer = ks.register(node);
        let again = ks.clone();
        let r = std::thread::spawn(move || again.register(node)).join();
        assert!(r.is_err(), "the second registration panics");
        assert!(ks.inner.by_node.is_poisoned());
        (ks, signer)
    }

    /// Fails if `read_guard` unwraps the lock result.
    #[test]
    fn registry_reads_survive_a_panicking_writer() {
        let node: NodeId = ReplicaId::new(0, 0).into();
        let (ks, signer) = poisoned_store(node);
        assert_eq!(ks.public_key_of(node), Some(signer.public_key()));
        assert_eq!(ks.verifier().public_key_of(node), Some(signer.public_key()));
    }

    /// Fails if `write_guard` unwraps the lock result.
    #[test]
    fn registry_writes_survive_a_panicking_writer() {
        let (ks, _) = poisoned_store(ReplicaId::new(0, 0).into());
        let other = ks.register(ReplicaId::new(0, 1).into());
        let sig = other.sign(b"after the panic");
        assert!(ks
            .verifier()
            .verify(&other.public_key(), b"after the panic", &sig));
    }

    #[test]
    fn public_key_lookup() {
        let ks = store();
        let node: NodeId = ReplicaId::new(1, 2).into();
        let s = ks.register(node);
        assert_eq!(ks.public_key_of(node), Some(s.public_key()));
        assert_eq!(ks.verifier().public_key_of(node), Some(s.public_key()));
        assert_eq!(ks.public_key_of(ReplicaId::new(1, 3).into()), None);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Tampering with any byte of a signature invalidates it.
            #[test]
            fn tampered_signature_rejected(msg in proptest::collection::vec(any::<u8>(), 0..128),
                                           byte in 0usize..64, flip in 1u8..=255) {
                let ks = KeyStore::new(99);
                let signer = ks.register(ReplicaId::new(0, 0).into());
                let v = ks.verifier();
                let mut sig = signer.sign(&msg);
                sig.0[byte] ^= flip;
                prop_assert!(!v.verify(&signer.public_key(), &msg, &sig));
            }
        }
    }
}
