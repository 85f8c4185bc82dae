//! The SHA-1 block function on Intel's SHA extensions (Gulley et al., "Intel
//! SHA Extensions: New Instructions Supporting the Secure Hash Algorithm on
//! Intel Architecture Processors", 2013).
//!
//! `sha1rnds4` runs four rounds on `ABCD` in one register, `sha1nexte`
//! derives the next four rounds' `E` from the `A` of four rounds before, and
//! `sha1msg1`/`sha1msg2` extend the message schedule four words at a time.
//! The state stays in two vector registers across a whole run of blocks.
//!
//! This module, `x16.rs` beside it and `crc32/clmul.rs` in `sae-storage` are
//! the only ones in the workspace allowed `unsafe` (`analyzer.toml` lists
//! them): the compressor
//! is a `#[target_feature]` function, which is only sound to call on a CPU
//! that has those features, and vector loads take raw pointers. [`ShaNi`] is
//! the proof of the first, so callers outside this module stay safe.

use crate::block::Block;
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32,
    _mm_shuffle_epi8, _mm_xor_si128,
};

/// Proof that this CPU has every feature [`compress_blocks`] enables. Only
/// [`ShaNi::detect`] makes one.
#[derive(Clone, Copy)]
pub(super) struct ShaNi(());

impl ShaNi {
    /// A token if this CPU has the SHA extensions (and the SSSE3 and SSE4.1
    /// every such CPU has, which the compressor also uses). std caches the
    /// CPUID result, so this is a load and a test after the first call.
    #[inline]
    pub(super) fn detect() -> Option<ShaNi> {
        let present = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        present.then_some(ShaNi(()))
    }

    /// Compresses `blocks` into `state`.
    #[inline]
    pub(super) fn compress(self, state: &mut [u32; 5], blocks: &[Block]) {
        // SAFETY: a `ShaNi` exists only when `detect` found `sha`, `ssse3`
        // and `sse4.1` on this CPU, and `sse2` is part of x86-64 itself, so
        // every feature `compress_blocks` enables is present.
        unsafe { compress_blocks(state, blocks) }
    }
}

/// Loads four big-endian message words, the first in the top lane.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn load_words(bytes: &[u8; 16]) -> __m128i {
    // Reversing all sixteen bytes swaps each word to big-endian and puts
    // word 0 in lane 3, where `sha1rnds4` expects it.
    let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    // SAFETY: `bytes` is sixteen readable bytes, exactly what the load
    // reads, and `loadu` has no alignment requirement.
    let v = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
    _mm_shuffle_epi8(v, reverse)
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 5], blocks: &[Block]) {
    let [a, b, c, d, e] = *state;
    // Lane 3 holds A (and E); the casts reinterpret bits, they never truncate.
    let mut abcd = _mm_set_epi32(a as i32, b as i32, c as i32, d as i32);
    let mut e0 = _mm_set_epi32(e as i32, 0, 0, 0);

    for block in blocks {
        let (words, _) = block.as_chunks::<16>();
        let (mut w0, mut w1, mut w2, mut w3) = (
            load_words(&words[0]),
            load_words(&words[1]),
            load_words(&words[2]),
            load_words(&words[3]),
        );
        let (abcd_in, e_in) = (abcd, e0);

        // Rounds 0–3 take E + W[0..4] directly; every later group of four
        // derives its E from the ABCD of four rounds before, kept in `prev`.
        let mut prev = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, _mm_add_epi32(e0, w0));

        // Four rounds with round function `$f` on the message words in `$w`.
        macro_rules! quad {
            ($w:expr, $f:literal) => {
                let e = _mm_sha1nexte_epu32(prev, $w);
                prev = abcd;
                abcd = _mm_sha1rnds4_epu32::<$f>(abcd, e);
            };
        }
        // Overwrites the oldest four words, `$w0` (W[t-16..t-12]), with
        // W[t..t+4] computed from all four registers, then runs them.
        macro_rules! scheduled_quad {
            ($w0:ident, $w1:ident, $w2:ident, $w3:ident, $f:literal) => {
                $w0 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3);
                quad!($w0, $f);
            };
        }

        quad!(w1, 0);
        quad!(w2, 0);
        quad!(w3, 0);
        scheduled_quad!(w0, w1, w2, w3, 0);
        scheduled_quad!(w1, w2, w3, w0, 1);
        scheduled_quad!(w2, w3, w0, w1, 1);
        scheduled_quad!(w3, w0, w1, w2, 1);
        scheduled_quad!(w0, w1, w2, w3, 1);
        scheduled_quad!(w1, w2, w3, w0, 1);
        scheduled_quad!(w2, w3, w0, w1, 2);
        scheduled_quad!(w3, w0, w1, w2, 2);
        scheduled_quad!(w0, w1, w2, w3, 2);
        scheduled_quad!(w1, w2, w3, w0, 2);
        scheduled_quad!(w2, w3, w0, w1, 2);
        scheduled_quad!(w3, w0, w1, w2, 3);
        scheduled_quad!(w0, w1, w2, w3, 3);
        scheduled_quad!(w1, w2, w3, w0, 3);
        scheduled_quad!(w2, w3, w0, w1, 3);
        scheduled_quad!(w3, w0, w1, w2, 3);

        abcd = _mm_add_epi32(abcd, abcd_in);
        e0 = _mm_sha1nexte_epu32(prev, e_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abcd) as u32,
        _mm_extract_epi32::<2>(abcd) as u32,
        _mm_extract_epi32::<1>(abcd) as u32,
        _mm_extract_epi32::<0>(abcd) as u32,
        _mm_extract_epi32::<3>(e0) as u32,
    ];
}
