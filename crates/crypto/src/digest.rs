//! The 32-byte digest value type used throughout the system.

use crate::sha256::{sha256, Sha256};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A SHA-256 digest. Used for request digests, block hashes, state
/// fingerprints and checkpoint identities.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest; used as the parent of the genesis block.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hash a byte string.
    pub fn of(data: &[u8]) -> Digest {
        Digest(sha256(data))
    }

    /// Hash the concatenation of several byte strings, with length framing
    /// so that `(["ab","c"])` and `(["a","bc"])` differ.
    pub fn of_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(&(p.len() as u64).to_le_bytes());
            h.update(p);
        }
        Digest(h.finalize())
    }

    /// Combine two digests (Zyzzyva's running history digest).
    pub fn combine(a: &Digest, b: &Digest) -> Digest {
        let mut h = Sha256::new();
        h.update(&a.0);
        h.update(&b.0);
        Digest(h.finalize())
    }

    /// Raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Short hex prefix for logs.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Full hex encoding.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_matches_sha256() {
        assert_eq!(Digest::of(b"abc").0, sha256(b"abc"));
    }

    #[test]
    fn parts_framing_prevents_ambiguity() {
        let a = Digest::of_parts(&[b"ab", b"c"]);
        let b = Digest::of_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
        let c = Digest::of_parts(&[b"abc"]);
        assert_ne!(a, c);
    }

    #[test]
    fn combine_is_order_sensitive() {
        let x = Digest::of(b"x");
        let y = Digest::of(b"y");
        assert_ne!(Digest::combine(&x, &y), Digest::combine(&y, &x));
    }

    #[test]
    fn hex_renderings() {
        let d = Digest::of(b"abc");
        assert_eq!(d.to_hex().len(), 64);
        assert!(d.to_hex().starts_with(&d.short_hex()));
        assert_eq!(format!("{d}"), d.short_hex());
    }

    #[test]
    fn zero_digest_is_all_zero() {
        assert_eq!(Digest::ZERO.0, [0u8; 32]);
    }
}
