//! The SHA-256 compression function on the x86-64 SHA extensions
//! (`sha256rnds2`, `sha256msg1`, `sha256msg2`), four rounds per step.
//!
//! This is the only module in the workspace that may contain `unsafe`
//! code. Its one entry point, [`compress_blocks`], takes a [`Cpu`] token,
//! and the only way to obtain one is [`Cpu::detect`], which checks CPUID
//! first — so the safe signature cannot reach the instructions on a
//! machine that lacks them.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Proof that this CPU implements every instruction [`compress_blocks`]
/// uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Cpu(());

impl Cpu {
    /// `Some` when CPUID reports SHA, SSE2, SSSE3 and SSE4.1.
    pub(super) fn detect() -> Option<Cpu> {
        let has = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        has.then_some(Cpu(()))
    }
}

/// Absorb `blocks` (a whole number of 64-byte blocks) into `state`.
pub(super) fn compress_blocks(_: Cpu, state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    // SAFETY: a `Cpu` exists only once `Cpu::detect` has confirmed SHA,
    // SSE2, SSSE3 and SSE4.1 — every target feature `compress` enables.
    unsafe { compress(state, blocks) }
}

/// Message-schedule step: the next four words `W[t..t + 4]` from the
/// previous sixteen, held as four vectors of four words.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t1 = _mm_sha256msg1_epu32(w0, w1);
    let t2 = _mm_alignr_epi8(w3, w2, 4);
    _mm_sha256msg2_epu32(_mm_add_epi32(t1, t2), w3)
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte order within each 32-bit word: big-endian message words.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let k: &'static [u32; 64] = &super::K;
    let k = k.as_ptr().cast::<__m128i>();

    // SAFETY: `state` is 8 words, read as two unaligned 16-byte loads.
    let (dcba, hgfe) = unsafe {
        let s = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(s), _mm_loadu_si128(s.add(1)))
    };
    // The round instructions keep the state as (A, B, E, F) and (C, D,
    // G, H), highest word first.
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `block` is 64 bytes, read as four unaligned 16-byte loads.
        let raw = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        };
        let mut w0 = _mm_shuffle_epi8(raw[0], bswap);
        let mut w1 = _mm_shuffle_epi8(raw[1], bswap);
        let mut w2 = _mm_shuffle_epi8(raw[2], bswap);
        let mut w3 = _mm_shuffle_epi8(raw[3], bswap);
        // Four rounds on message words `w` (rounds 4i..4i + 4): two on the
        // low words, then two on the high words.
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {{
                // SAFETY: `K` holds 64 words, so the 16-byte load at word
                // `4 * i`, `i < 16`, stays inside it.
                let ki = unsafe { _mm_loadu_si128(k.add($i)) };
                let wk = _mm_add_epi32($w, ki);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }
        // Rounds 16..64 first extend the schedule into the oldest vector.
        macro_rules! schedule_rounds4 {
            ($w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
                $w0 = schedule($w0, $w1, $w2, $w3);
                rounds4!($w0, $i);
            }};
        }
        rounds4!(w0, 0);
        rounds4!(w1, 1);
        rounds4!(w2, 2);
        rounds4!(w3, 3);
        schedule_rounds4!(w0, w1, w2, w3, 4);
        schedule_rounds4!(w1, w2, w3, w0, 5);
        schedule_rounds4!(w2, w3, w0, w1, 6);
        schedule_rounds4!(w3, w0, w1, w2, 7);
        schedule_rounds4!(w0, w1, w2, w3, 8);
        schedule_rounds4!(w1, w2, w3, w0, 9);
        schedule_rounds4!(w2, w3, w0, w1, 10);
        schedule_rounds4!(w3, w0, w1, w2, 11);
        schedule_rounds4!(w0, w1, w2, w3, 12);
        schedule_rounds4!(w1, w2, w3, w0, 13);
        schedule_rounds4!(w2, w3, w0, w1, 14);
        schedule_rounds4!(w3, w0, w1, w2, 15);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: the same two 16-byte halves of `state`, stored back.
    unsafe {
        let s = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(s, dcba);
        _mm_storeu_si128(s.add(1), hgef);
    }
}
