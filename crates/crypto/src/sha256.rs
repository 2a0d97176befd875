//! SHA-256 implemented from scratch per FIPS 180-4.
//!
//! The implementation is a streaming hasher: callers may feed input in
//! arbitrary chunks via [`Sha256::update`] and finish with
//! [`Sha256::finalize`]. One-shot hashing is available via [`sha256`].
//!
//! ## Kernels
//!
//! The compression function comes in two kernels behind one hasher: the
//! portable FIPS 180-4 reference (`compress`, plain Rust, every CPU)
//! and, on x86-64, the SHA extensions (`sha256rnds2` / `sha256msg1` /
//! `sha256msg2`, the `shani` module — the only `unsafe` code in the
//! workspace). The kernel is chosen once per process from CPUID (SHA,
//! SSE2, SSSE3 and SSE4.1 must all be reported) and never by an option,
//! environment variable or cargo feature; a hasher feeds it whole 64-byte
//! blocks straight from the input slice. Both produce identical digests.
//!
//! ## Tests
//!
//! The NIST/FIPS vectors (empty string, "abc", the two standard
//! multi-block vectors and a million 'a's) run through the public API
//! and, by name, through each kernel (`portable_kernel_passes_nist_vectors`,
//! `sha_ni_kernel_passes_nist_vectors`; the latter prints a note and
//! checks nothing where CPUID lacks SHA). A property test feeds random
//! inputs, cut at random points, to both kernels and requires equal
//! digests; `hmac` does the same with the RFC 4231 vectors, and the
//! workspace's `pinned_digests` test pins the bytes of every hash the
//! system stores or signs.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A SHA-256 compression function: what [`Sha256`] runs over each whole
/// 64-byte block. Every kernel computes the same function; they differ
/// only in speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// The FIPS 180-4 reference in plain Rust ([`compress`]); runs
    /// everywhere.
    Portable,
    /// The x86-64 SHA extensions ([`shani`]), present only when CPUID
    /// reports them.
    #[cfg(target_arch = "x86_64")]
    ShaNi(shani::Cpu),
}

impl Kernel {
    /// The fastest kernel this CPU runs, chosen once per process from
    /// CPUID.
    pub(crate) fn selected() -> Kernel {
        static SELECTED: OnceLock<Kernel> = OnceLock::new();
        *SELECTED.get_or_init(|| Kernel::sha_ni().unwrap_or(Kernel::Portable))
    }

    /// The SHA-NI kernel, or `None` where CPUID does not report the SHA
    /// extensions.
    pub(crate) fn sha_ni() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        return shani::Cpu::detect().map(Kernel::ShaNi);
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    /// Absorb `blocks`, a whole number of 64-byte blocks, into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        match self {
            Kernel::Portable => blocks.chunks_exact(64).for_each(|b| compress(state, b)),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(cpu) => shani::compress_blocks(cpu, state, blocks),
        }
    }
}

/// For the kernel tests: the SHA-NI kernel, or a printed note where
/// CPUID lacks SHA.
#[cfg(test)]
pub(crate) fn sha_ni_or_note() -> Option<Kernel> {
    let kernel = Kernel::sha_ni();
    if kernel.is_none() {
        println!("note: this CPU lacks the SHA extensions; the SHA-NI half is skipped");
    }
    kernel
}

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::selected())
    }

    /// A fresh hasher that compresses with `kernel`.
    pub(crate) fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
            kernel,
        }
    }

    /// The kernel this hasher compresses with.
    pub(crate) fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Absorb `data` into the hash state. Whole blocks are compressed
    /// straight from `data`; only a partial block is copied.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.len = self.len.wrapping_add(data.len() as u64);
        let kernel = self.kernel;
        let mut input = data;

        // Fill a partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                return self;
            }
            kernel.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }

        let whole = input.len() - input.len() % 64;
        if whole > 0 {
            kernel.compress(&mut self.state, &input[..whole]);
        }

        // Stash the remainder.
        let rem = &input[whole..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
        self
    }

    /// Finish hashing and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);

        // Padding: 0x80, zeros, then 64-bit big-endian bit length.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        // Number of zero bytes so that (len + 1 + zeros + 8) % 64 == 0.
        let pad_zeros = (119 - (self.len % 64) as usize) % 64;
        pad[1 + pad_zeros..1 + pad_zeros + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..1 + pad_zeros + 8]);
        debug_assert_eq!(self.buf_len, 0);

        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// The portable FIPS 180-4 compression function over one 64-byte block:
/// the reference every other kernel is tested against.
fn compress(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// NIST / FIPS 180-4 example vectors: message and digest.
    const NIST: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];
    const MILLION_A: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

    fn hash_with(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    fn passes_nist_vectors(kernel: Kernel) {
        for (msg, digest) in NIST {
            assert_eq!(hex(&hash_with(kernel, msg)), digest, "{kernel:?}");
        }
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&hash_with(kernel, &data)), MILLION_A, "{kernel:?}");
    }

    #[test]
    fn portable_kernel_passes_nist_vectors() {
        passes_nist_vectors(Kernel::Portable);
    }

    #[test]
    fn sha_ni_kernel_passes_nist_vectors() {
        if let Some(kernel) = sha_ni_or_note() {
            passes_nist_vectors(kernel);
        }
    }

    #[test]
    fn the_selected_kernel_is_the_fastest_available() {
        assert_eq!(
            Kernel::selected(),
            Kernel::sha_ni().unwrap_or(Kernel::Portable)
        );
        assert_eq!(Sha256::new().kernel(), Kernel::selected());
    }

    #[test]
    fn nist_empty() {
        assert_eq!(hex(&sha256(NIST[0].0)), NIST[0].1);
    }

    #[test]
    fn nist_abc() {
        assert_eq!(hex(&sha256(NIST[1].0)), NIST[1].1);
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(hex(&sha256(NIST[2].0)), NIST[2].1);
    }

    #[test]
    fn nist_four_block() {
        assert_eq!(hex(&sha256(NIST[3].0)), NIST[3].1);
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&sha256(&data)), MILLION_A);
    }

    #[test]
    fn boundary_lengths_pad_correctly() {
        // Lengths around the 56-byte padding boundary and block boundary.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let once = sha256(&data);
            let mut streaming = Sha256::new();
            for b in &data {
                streaming.update(std::slice::from_ref(b));
            }
            assert_eq!(once, streaming.finalize(), "len {len}");
        }
    }

    #[test]
    fn update_returns_self_for_chaining() {
        let mut h = Sha256::new();
        h.update(b"ab").update(b"c");
        assert_eq!(
            hex(&h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Hashing is invariant under arbitrary chunking of the input.
            #[test]
            fn chunking_invariance(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                   cuts in proptest::collection::vec(0usize..2048, 0..8)) {
                let reference = sha256(&data);
                let mut cuts: Vec<usize> =
                    cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
                cuts.sort_unstable();
                let mut h = Sha256::new();
                let mut prev = 0;
                for c in cuts {
                    h.update(&data[prev..c]);
                    prev = c;
                }
                h.update(&data[prev..]);
                prop_assert_eq!(h.finalize(), reference);
            }

            /// The two kernels agree on random inputs under arbitrary
            /// chunking (where CPUID lacks SHA, the portable kernel is
            /// checked against itself).
            #[test]
            fn kernels_agree_under_arbitrary_chunking(
                data in proptest::collection::vec(any::<u8>(), 0..1024),
                cuts in proptest::collection::vec(0usize..1024, 0..8),
            ) {
                let hardware = Kernel::sha_ni().unwrap_or(Kernel::Portable);
                let reference = hash_with(Kernel::Portable, &data);
                let mut cuts: Vec<usize> =
                    cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
                cuts.sort_unstable();
                let mut h = Sha256::with_kernel(hardware);
                let mut prev = 0;
                for c in cuts {
                    h.update(&data[prev..c]);
                    prev = c;
                }
                h.update(&data[prev..]);
                prop_assert_eq!(h.finalize(), reference);
            }

            /// Distinct inputs (almost surely) hash differently; at minimum,
            /// flipping one bit must change the digest.
            #[test]
            fn bit_flip_changes_digest(mut data in proptest::collection::vec(any::<u8>(), 1..512),
                                       idx in any::<usize>()) {
                let original = sha256(&data);
                let i = idx % data.len();
                data[i] ^= 1;
                prop_assert_ne!(sha256(&data), original);
            }
        }
    }
}
