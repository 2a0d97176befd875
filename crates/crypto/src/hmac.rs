//! HMAC-SHA256 per RFC 2104 / FIPS 198-1.
//!
//! The tag function behind the simulation signature scheme
//! ([`crate::sign`]). The paper's AES-CMAC session MACs are not computed:
//! they are a modeled cost (`VerificationCost.macs`, the simulator's
//! `mac_ns`) and 16 modeled bytes of every message header.
//!
//! Validated against the RFC 4231 test vectors, through the selected
//! SHA-256 kernel and through each kernel by name.

use crate::sha256::{Kernel, Sha256};

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Compute `HMAC-SHA256(key, msg)`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut hm = HmacSha256::new(key);
    hm.update(msg);
    hm.finalize()
}

/// Streaming HMAC-SHA256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; BLOCK],
}

impl HmacSha256 {
    /// Start an HMAC computation under `key` (any length; longer keys are
    /// hashed first per the RFC).
    pub fn new(key: &[u8]) -> Self {
        Self::with_kernel(Kernel::selected(), key)
    }

    /// [`HmacSha256::new`], with every hash compressed by `kernel`.
    pub(crate) fn with_kernel(kernel: Kernel, key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            let mut h = Sha256::with_kernel(kernel);
            h.update(key);
            key_block[..32].copy_from_slice(&h.finalize());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad_key = [0u8; BLOCK];
        let mut opad_key = [0u8; BLOCK];
        for i in 0..BLOCK {
            ipad_key[i] = key_block[i] ^ IPAD;
            opad_key[i] = key_block[i] ^ OPAD;
        }

        let mut inner = Sha256::with_kernel(kernel);
        inner.update(&ipad_key);
        HmacSha256 { inner, opad_key }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, msg: &[u8]) -> &mut Self {
        self.inner.update(msg);
        self
    }

    /// Produce the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = Sha256::with_kernel(self.inner.kernel());
        let inner_digest = self.inner.finalize();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Constant-time equality for fixed-size tags. In a simulation this is not
/// security-critical, but it is the correct idiom and costs nothing.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 test cases 1, 2, 3, 6 and 7: key, data, HMAC-SHA256.
    fn rfc4231() -> [(Vec<u8>, &'static [u8], &'static str); 5] {
        [
            (
                vec![0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            // A 131-byte key exceeds the block size and is hashed first.
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ]
    }

    fn passes_rfc4231(kernel: Kernel) {
        for (key, msg, tag) in rfc4231() {
            let mut hm = HmacSha256::with_kernel(kernel, &key);
            hm.update(msg);
            assert_eq!(hex(&hm.finalize()), tag, "{kernel:?}");
        }
    }

    #[test]
    fn portable_kernel_passes_rfc4231_vectors() {
        passes_rfc4231(Kernel::Portable);
    }

    #[test]
    fn sha_ni_kernel_passes_rfc4231_vectors() {
        if let Some(kernel) = crate::sha256::sha_ni_or_note() {
            passes_rfc4231(kernel);
        }
    }

    #[test]
    fn rfc4231_case1() {
        let (key, msg, tag) = &rfc4231()[0];
        assert_eq!(hex(&hmac_sha256(key, msg)), *tag);
    }

    #[test]
    fn rfc4231_case2() {
        let (key, msg, tag) = &rfc4231()[1];
        assert_eq!(hex(&hmac_sha256(key, msg)), *tag);
    }

    #[test]
    fn rfc4231_case3() {
        let (key, msg, tag) = &rfc4231()[2];
        assert_eq!(hex(&hmac_sha256(key, msg)), *tag);
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let (key, msg, tag) = &rfc4231()[3];
        assert_eq!(hex(&hmac_sha256(key, msg)), *tag);
    }

    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let (key, msg, tag) = &rfc4231()[4];
        assert_eq!(hex(&hmac_sha256(key, msg)), *tag);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"stream-key";
        let msg = b"part one | part two | part three";
        let mut hm = HmacSha256::new(key);
        hm.update(&msg[..7]).update(&msg[7..20]);
        hm.update(&msg[20..]);
        assert_eq!(hm.finalize(), hmac_sha256(key, msg));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sane"));
        assert!(!ct_eq(b"short", b"longer"));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn key_and_message_sensitivity(
                key in proptest::collection::vec(any::<u8>(), 1..96),
                msg in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                let tag = hmac_sha256(&key, &msg);
                // Flipping a key bit changes the tag.
                let mut k2 = key.clone();
                k2[0] ^= 0x80;
                prop_assert_ne!(hmac_sha256(&k2, &msg), tag);
                // Appending to the message changes the tag.
                let mut m2 = msg.clone();
                m2.push(0);
                prop_assert_ne!(hmac_sha256(&key, &m2), tag);
            }
        }
    }
}
