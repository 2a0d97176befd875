//! # rdb-crypto
//!
//! The cryptographic substrate of the ResilientDB/GeoBFT reproduction.
//!
//! The paper (§3, "Cryptography") uses NIST-recommended primitives:
//! ED25519 digital signatures, AES-CMAC message authentication codes, and
//! SHA-256 message digests. This crate provides:
//!
//! * [`sha256`] — a from-scratch FIPS 180-4 SHA-256 implementation with
//!   two compression kernels: the portable reference, and on x86-64 the
//!   SHA extensions, chosen once per process from CPUID (never by an
//!   option or feature). Both run the NIST test vectors by name, and a
//!   property test requires them to agree on random, randomly chunked
//!   input;
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), validated against RFC 4231
//!   through each kernel;
//! * [`digest::Digest`] — a 32-byte digest value type;
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

//! ## Unsafe code
//!
//! The SHA-NI kernel is the workspace's only `unsafe` code. This crate
//! denies `unsafe_code` except in that one module, every `unsafe` block
//! there carries a `// SAFETY:` comment (`clippy::undocumented_unsafe_blocks`
//! is denied), and every other crate root forbids `unsafe_code`.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod digest;
pub mod hmac;
pub mod sha256;
pub mod sign;

pub use digest::Digest;
pub use sign::{KeyStore, PublicKey, Signature, Signer, Verifier};
