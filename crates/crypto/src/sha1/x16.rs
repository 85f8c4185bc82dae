//! SHA-1 on sixteen messages at once, one message per 32-bit lane of the
//! AVX-512 registers (message-parallel hashing: Gueron & Krasnov,
//! "Parallelizing message schedules to accelerate the computations of hash
//! functions", 2012).
//!
//! One SHA-1 stream is a chain of 80 dependent rounds per block. Sixteen
//! messages of one length have the same number of blocks and the same
//! padding, so they can run the same rounds in lock step: lane `l` of every
//! register belongs to message `l`. Each lane's 64-byte block is loaded whole
//! and byte-swapped, and the sixteen rows are transposed in registers so that
//! register `j` holds message word `j` of every lane. The rounds use `vprold`
//! for the rotations and `vpternlogd` for the round functions, over the same
//! 16-word rolling schedule as the scalar backend. There are no gathers.
//!
//! Like `ni.rs` beside it and `crc32/clmul.rs` in `sae-storage`, this module is
//! allowed `unsafe` (`analyzer.toml` lists the three):
//! the kernel is a `#[target_feature]` function, which is only sound to call
//! on a CPU that has those features, and vector loads and stores take raw
//! pointers. [`Avx512`] is the proof of the first, so callers outside this
//! module stay safe.

use super::{H0, K};
use crate::block::{Block, BLOCK_LEN};
use core::arch::x86_64::{
    __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_rol_epi32, _mm512_set1_epi32,
    _mm512_set4_epi32, _mm512_shuffle_epi8, _mm512_shuffle_i32x4, _mm512_storeu_si512,
    _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64, _mm512_unpacklo_epi32,
    _mm512_unpacklo_epi64, _mm512_xor_si512,
};

/// Messages hashed together, one per lane.
pub(super) const LANES: usize = 16;

/// The final state of every lane, word-major: `states[i][l]` is state word
/// `i` of lane `l`.
pub(super) type States = [[u32; LANES]; 5];

/// Proof that this CPU has every feature [`hash_lanes`] enables. Only
/// [`Avx512::detect`] makes one.
#[derive(Clone, Copy)]
pub(super) struct Avx512(());

impl Avx512 {
    /// A token if this CPU has AVX-512F and AVX-512BW. std caches the CPUID
    /// result, so this is a load and a test after the first call.
    #[inline]
    pub(super) fn detect() -> Option<Avx512> {
        let present = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw");
        present.then_some(Avx512(()))
    }

    /// Hashes sixteen messages and returns each lane's final state, or
    /// `None` when the messages differ in length.
    #[inline]
    pub(super) fn hash(self, msgs: &[&[u8]; LANES]) -> Option<States> {
        let len = msgs[0].len();
        if msgs.iter().any(|m| m.len() != len) {
            return None;
        }
        // SAFETY: an `Avx512` exists only when `detect` found `avx512f` and
        // `avx512bw` on this CPU, every feature `hash_lanes` enables.
        Some(unsafe { hash_lanes(msgs, len) })
    }
}

/// Hashes sixteen messages of `len` bytes each.
#[target_feature(enable = "avx512f,avx512bw")]
fn hash_lanes(msgs: &[&[u8]; LANES], len: usize) -> States {
    let mut state = H0.map(|h| _mm512_set1_epi32(h as i32));
    let whole = msgs.map(|m| m.as_chunks::<BLOCK_LEN>().0);
    for b in 0..len / BLOCK_LEN {
        compress(&mut state, whole.map(|blocks| &blocks[b]));
    }

    // The padded tails of all sixteen lanes, one or two blocks each (the
    // same count in every lane, since the lengths are equal), as in
    // `BlockBuffer::finalize`.
    let rest = len % BLOCK_LEN;
    let blocks = if rest < BLOCK_LEN - 8 { 1 } else { 2 };
    let end = blocks * BLOCK_LEN;
    let bit_len = (len as u64).wrapping_mul(8).to_be_bytes();
    let mut tails = [[[0u8; BLOCK_LEN]; 2]; LANES];
    for (tail, msg) in tails.iter_mut().zip(msgs) {
        let bytes = tail.as_flattened_mut();
        bytes[..rest].copy_from_slice(&msg[len - rest..]);
        bytes[rest] = 0x80;
        bytes[end - 8..end].copy_from_slice(&bit_len);
    }
    for b in 0..blocks {
        compress(&mut state, tails.each_ref().map(|tail| &tail[b]));
    }

    let mut out = [[0u32; LANES]; 5];
    for (words, v) in out.iter_mut().zip(state) {
        // SAFETY: `words` is sixteen writable `u32`s, exactly the 64 bytes
        // the store writes, and `storeu` has no alignment requirement.
        unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), v) };
    }
    out
}

/// Loads one lane's block, each word byte-swapped to big-endian.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn load_row(block: &Block) -> __m512i {
    let bswap = _mm512_set4_epi32(0x0c0d_0e0f, 0x0809_0a0b, 0x0405_0607, 0x0001_0203);
    // SAFETY: `block` is 64 readable bytes, exactly what the load reads, and
    // `loadu` has no alignment requirement.
    let v = unsafe { _mm512_loadu_si512(block.as_ptr().cast()) };
    _mm512_shuffle_epi8(v, bswap)
}

/// Turns sixteen rows (row `l` = lane `l`'s block) into sixteen columns
/// (column `j` = word `j` of every lane), in 64 shuffles.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose(r: [__m512i; 16]) -> [__m512i; 16] {
    // Within each 128-bit lane `k`, `u[4g + m]` gathers word `4k + m` of
    // rows `4g..4g + 4`.
    let mut u = r;
    for g in 0..4 {
        let [r0, r1, r2, r3] = [r[4 * g], r[4 * g + 1], r[4 * g + 2], r[4 * g + 3]];
        let (lo01, hi01) = (_mm512_unpacklo_epi32(r0, r1), _mm512_unpackhi_epi32(r0, r1));
        let (lo23, hi23) = (_mm512_unpacklo_epi32(r2, r3), _mm512_unpackhi_epi32(r2, r3));
        u[4 * g] = _mm512_unpacklo_epi64(lo01, lo23);
        u[4 * g + 1] = _mm512_unpackhi_epi64(lo01, lo23);
        u[4 * g + 2] = _mm512_unpacklo_epi64(hi01, hi23);
        u[4 * g + 3] = _mm512_unpackhi_epi64(hi01, hi23);
    }
    // Two rounds of 128-bit-lane shuffles line the four groups of rows up:
    // even source lanes (0x88) and odd ones (0xDD).
    let mut out = r;
    for m in 0..4 {
        let v0 = _mm512_shuffle_i32x4::<0x88>(u[m], u[4 + m]);
        let v1 = _mm512_shuffle_i32x4::<0xDD>(u[m], u[4 + m]);
        let v2 = _mm512_shuffle_i32x4::<0x88>(u[8 + m], u[12 + m]);
        let v3 = _mm512_shuffle_i32x4::<0xDD>(u[8 + m], u[12 + m]);
        out[m] = _mm512_shuffle_i32x4::<0x88>(v0, v2);
        out[4 + m] = _mm512_shuffle_i32x4::<0x88>(v1, v3);
        out[8 + m] = _mm512_shuffle_i32x4::<0xDD>(v0, v2);
        out[12 + m] = _mm512_shuffle_i32x4::<0xDD>(v1, v3);
    }
    out
}

/// Message word `i` of every lane, as `sha1::word` computes it for one.
#[inline]
#[target_feature(enable = "avx512f")]
fn word(w: &mut [__m512i; 16], i: usize) -> __m512i {
    if i < 16 {
        return w[i];
    }
    let x = _mm512_ternarylogic_epi32::<0x96>(w[(i + 13) & 15], w[(i + 8) & 15], w[(i + 2) & 15]);
    let next = _mm512_rol_epi32::<1>(_mm512_xor_si512(x, w[i & 15]));
    w[i & 15] = next;
    next
}

/// Compresses one block of every lane into `state`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn compress(state: &mut [__m512i; 5], blocks: [&Block; LANES]) {
    let mut w = transpose(blocks.map(|block| load_row(block)));
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    let k = K.map(|k| _mm512_set1_epi32(k as i32));

    // One round, renamed rather than shifted as in the scalar backend; the
    // `vpternlogd` truth tables are ch 0xCA, parity 0x96 and maj 0xE8.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:literal, $k:expr, $i:expr) => {
            let kw = _mm512_add_epi32($k, word(&mut w, $i));
            let f = _mm512_ternarylogic_epi32::<$f>($b, $c, $d);
            $e = _mm512_add_epi32(
                _mm512_add_epi32($e, _mm512_rol_epi32::<5>($a)),
                _mm512_add_epi32(f, kw),
            );
            $b = _mm512_rol_epi32::<30>($b);
        };
    }
    macro_rules! five {
        ($f:literal, $k:expr, $i:expr) => {
            round!(a, b, c, d, e, $f, $k, $i);
            round!(e, a, b, c, d, $f, $k, $i + 1);
            round!(d, e, a, b, c, $f, $k, $i + 2);
            round!(c, d, e, a, b, $f, $k, $i + 3);
            round!(b, c, d, e, a, $f, $k, $i + 4);
        };
    }
    five!(0xCA, k[0], 0);
    five!(0xCA, k[0], 5);
    five!(0xCA, k[0], 10);
    five!(0xCA, k[0], 15);
    five!(0x96, k[1], 20);
    five!(0x96, k[1], 25);
    five!(0x96, k[1], 30);
    five!(0x96, k[1], 35);
    five!(0xE8, k[2], 40);
    five!(0xE8, k[2], 45);
    five!(0xE8, k[2], 50);
    five!(0xE8, k[2], 55);
    five!(0x96, k[3], 60);
    five!(0x96, k[3], 65);
    five!(0x96, k[3], 70);
    five!(0x96, k[3], 75);

    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = _mm512_add_epi32(*s, v);
    }
}
