//! # rdb-crypto
//!
//! The cryptographic substrate of the ResilientDB/GeoBFT reproduction.
//!
//! The paper (§3, "Cryptography") uses NIST-recommended primitives:
//! ED25519 digital signatures, AES-CMAC message authentication codes, and
//! SHA-256 message digests. This crate provides:
//!
//! * [`sha256`] — a from-scratch FIPS 180-4 SHA-256 implementation,
//!   validated against the NIST test vectors;
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), validated against RFC 4231;
//! * [`digest::Digest`] — a 32-byte digest value type;
//! * [`merkle`] — Merkle trees over transaction batches and ledger state;
//! * [`sign`] — the **simulation signature scheme**: an Ed25519-*shaped*
//!   API (32-byte public keys, 64-byte signatures) implemented with
//!   HMAC-SHA256 under per-identity keys held by a [`sign::KeyStore`].
//!
//! ## Why a simulation signature scheme?
//!
//! This reproduction runs every replica, client and adversary inside one
//! process. What the evaluation actually depends on is (a) unforgeability
//! *within the simulation* and (b) realistic *compute cost* and *wire
//! size*. Property (a) holds because only the `KeyStore` can produce tags
//! and it only hands out non-cloneable [`sign::Signer`] handles — Byzantine
//! replica code cannot reach another identity's signing key. Property (b)
//! is modeled explicitly: the discrete-event simulator charges configurable
//! sign/verify costs, and wire sizes use the Ed25519 sizes (64-byte
//! signatures, 32-byte keys).

pub mod digest;
pub mod hmac;
pub mod mac;
pub mod merkle;
pub mod sha256;
pub mod sign;

pub use digest::Digest;
pub use mac::{Mac, MacKey};
pub use sign::{KeyStore, PublicKey, Signature, Signer, Verifier};
