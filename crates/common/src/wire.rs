//! Wire-size model.
//!
//! The simulator charges network bandwidth by message size. Rather than
//! serializing every message on the hot path, each message type computes a
//! modeled size from these constants. The constants are calibrated so that
//! the sizes reported in §4 of the paper hold with the default workload
//! (batch size 100):
//!
//! * `PrePrepare` with a 100-transaction batch ≈ 5.4 kB,
//! * a commit certificate (pre-prepare + `n-f = 7` commit messages for
//!   `n = 10`... in the paper's setup 7 commits) ≈ 6.4 kB,
//! * a client response ≈ 1.5 kB,
//! * all other messages ≈ 250 B.
//!
//! See `rdb-consensus::messages` for the per-message formulas and the unit
//! tests pinning the four numbers above.

/// Bytes of a SHA-256 digest.
pub const DIGEST_BYTES: usize = 32;

/// Bytes of an ED25519-style signature (the scheme the paper uses).
pub const SIG_BYTES: usize = 64;

/// Bytes of a public key / signer identifier accompanying a signature.
pub const PUBKEY_BYTES: usize = 32;

/// Fixed per-message envelope: type tag, sender, destination, view/round
/// numbers, lengths, and the session MAC. Chosen so that small protocol
/// messages (prepare/commit/drvc/rvc) come out at the paper's ~250 B.
pub const HEADER_BYTES: usize = 58;

/// Modeled bytes of one YCSB write transaction inside a batch: an 8-byte
/// key, a 24-byte field update, an 8-byte client sequence number and a
/// 12-byte client id/router tag. 100 of these plus a client signature, the
/// request digest and the envelope give the paper's 5.4 kB pre-prepare.
pub const TXN_BYTES: usize = 52;

/// Modeled bytes of one per-transaction execution result in a client
/// response (success flag + returned value digest fragment).
pub const RESULT_BYTES: usize = 14;

/// Size of a client request batch carrying `batch` transactions: the
/// transactions themselves plus the client's signature and public key.
#[inline]
pub fn batch_bytes(batch: usize) -> usize {
    batch * TXN_BYTES + SIG_BYTES + PUBKEY_BYTES
}

/// Size of a `PrePrepare` proposing a batch of `batch` transactions.
#[inline]
pub fn preprepare_bytes(batch: usize) -> usize {
    HEADER_BYTES + batch_bytes(batch) + DIGEST_BYTES + SIG_BYTES
}

/// Size of a small fixed-format protocol message (prepare, commit, drvc,
/// rvc, checkpoint, ...): envelope + digest + signature or MAC padding.
#[inline]
pub fn control_bytes() -> usize {
    // 58 + 32 + 64 + 32 + 64 = 250, matching the paper's "250 B (other
    // messages)".
    HEADER_BYTES + DIGEST_BYTES + SIG_BYTES + PUBKEY_BYTES + SIG_BYTES
}

/// Size of a commit certificate: the pre-prepare (which embeds the client
/// batch) plus `commits` signed commit messages (paper: n - f of them).
#[inline]
pub fn certificate_bytes(batch: usize, commits: usize) -> usize {
    preprepare_bytes(batch) + commits * (PUBKEY_BYTES + SIG_BYTES + DIGEST_BYTES)
}

/// Size of a client response for a batch of `batch` transactions.
#[inline]
pub fn response_bytes(batch: usize) -> usize {
    HEADER_BYTES + batch * RESULT_BYTES + SIG_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §4 of the paper: "With a batch size of 100, the messages have sizes
    /// of 5.4 kB (preprepare), 6.4 kB (commit certificates containing seven
    /// commit messages and a preprepare message), 1.5 kB (client
    /// responses), and 250 B (other messages)."
    #[test]
    fn sizes_match_paper_section_4() {
        let pp = preprepare_bytes(100);
        assert!((5300..=5500).contains(&pp), "preprepare = {pp}");

        let cert = certificate_bytes(100, 7);
        assert!((6200..=6500).contains(&cert), "certificate = {cert}");

        let resp = response_bytes(100);
        assert!((1400..=1600).contains(&resp), "response = {resp}");

        assert_eq!(control_bytes(), 250);
    }

    #[test]
    fn certificate_grows_with_commit_count() {
        // Figure 11 discussion: certificate size is a function of f.
        let small = certificate_bytes(100, 3);
        let large = certificate_bytes(100, 11);
        assert!(large > small);
        assert_eq!(large - small, 8 * (PUBKEY_BYTES + SIG_BYTES + DIGEST_BYTES));
    }

    #[test]
    fn batch_size_dominates_preprepare() {
        let b10 = preprepare_bytes(10);
        let b300 = preprepare_bytes(300);
        assert!(b300 > 28 * b10 / 10 * 9 / 10); // roughly linear in batch
        assert_eq!(b300 - b10, 290 * TXN_BYTES);
    }
}
