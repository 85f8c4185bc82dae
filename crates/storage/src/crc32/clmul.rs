//! CRC-32/IEEE folding on carry-less multiplication (Gopal et al., "Fast CRC
//! Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel,
//! 2009).
//!
//! Four 128-bit lanes each absorb one 16-byte block per step: multiplying a
//! lane's two halves by `x^(4·128±32) mod P` moves its remainder 64 bytes
//! forward, where the next block is XORed in. The lanes then fold into one
//! with the 16-byte constants, any remaining whole blocks fold in one at a
//! time, the 128 bits reduce to 64, and a Barrett reduction leaves the 32-bit
//! register. The CRC is bit-reflected, so every constant is too.
//!
//! This module and `sha1/ni.rs` and `sha1/x16.rs` in `sae-crypto` are the only
//! ones in the workspace allowed `unsafe` (`analyzer.toml` lists them): the
//! fold is a
//! `#[target_feature]` function,
//! which is only sound to call on a CPU that has those features, and vector
//! loads take raw pointers. [`Pclmul`] is the proof of the first, so callers
//! outside this module stay safe.

use core::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// The generator `P(x)` without its `x^32` term, unreflected.
const P_NORMAL: u32 = 0x04C1_1DB7;

/// `x^n mod P(x)`, bit-reflected and shifted left one bit: the 33-bit form a
/// reflected fold multiplies by.
const fn fold_constant(n: u32) -> i64 {
    let mut r = 1u32;
    let mut i = 0;
    while i < n {
        let carry = r & 0x8000_0000 != 0;
        r <<= 1;
        if carry {
            r ^= P_NORMAL;
        }
        i += 1;
    }
    (r.reverse_bits() as i64) << 1
}

/// `P(x)` with its `x^32` term, bit-reflected over 33 bits.
const P_REFLECTED: i64 = ((((1u64 << 32) | P_NORMAL as u64).reverse_bits()) >> 31) as i64;

/// Barrett's `μ = ⌊x^64 / P(x)⌋`, bit-reflected over 33 bits.
const MU_REFLECTED: i64 = {
    let p = (1u128 << 32) | P_NORMAL as u128;
    let mut rem = 1u128 << 64;
    let mut quotient = 0u64;
    let mut shift = 32;
    loop {
        if (rem >> (32 + shift)) & 1 == 1 {
            rem ^= p << shift;
            quotient |= 1 << shift;
        }
        if shift == 0 {
            break;
        }
        shift -= 1;
    }
    (quotient.reverse_bits() >> 31) as i64
};

/// Moves a lane's halves 64 bytes forward (four lanes in flight).
const FOLD_BY_4: (i64, i64) = (fold_constant(4 * 128 + 32), fold_constant(4 * 128 - 32));
/// Moves a lane's halves 16 bytes forward.
const FOLD_BY_1: (i64, i64) = (fold_constant(128 + 32), fold_constant(128 - 32));
/// Moves the low 32 bits of the 96-bit remainder past the other 64.
const FOLD_64: i64 = fold_constant(64);

/// Proof that this CPU has every feature [`fold_blocks`] enables. Only
/// [`Pclmul::detect`] makes one.
#[derive(Clone, Copy)]
pub(super) struct Pclmul(());

impl Pclmul {
    /// A token if this CPU has carry-less multiplication and SSE4.1 (for the
    /// final lane extract). std caches the CPUID result, so this is a load
    /// and a test after the first call.
    #[inline]
    pub(super) fn detect() -> Option<Pclmul> {
        let present = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        present.then_some(Pclmul(()))
    }

    /// Advances the CRC register `crc` over `blocks`. Fewer than four blocks
    /// take the table path.
    #[inline]
    pub(super) fn fold(self, crc: u32, blocks: &[[u8; 16]]) -> u32 {
        // SAFETY: a `Pclmul` exists only when `detect` found `pclmulqdq` and
        // `sse4.1` on this CPU, and `sse2` is part of x86-64 itself, so every
        // feature `fold_blocks` enables is present.
        unsafe { fold_blocks(crc, blocks) }
    }
}

#[inline]
#[target_feature(enable = "sse2")]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is sixteen readable bytes, exactly what the load
    // reads, and `loadu` has no alignment requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// `lane`'s low half times `keys`' low half, XOR its high half times `keys`'
/// high half, XOR `next`: the remainder carried forward onto `next`.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
fn fold_into(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(lane, keys);
    let hi = _mm_clmulepi64_si128::<0x11>(lane, keys);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

#[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
fn fold_blocks(crc: u32, blocks: &[[u8; 16]]) -> u32 {
    let Some((first, rest)) = blocks.split_first_chunk::<4>() else {
        return super::update_table(crc, blocks.as_flattened());
    };
    // The register enters XORed into the first four bytes; the cast
    // reinterprets bits, it never truncates.
    let mut lanes = [
        _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(crc as i32)),
        load(&first[1]),
        load(&first[2]),
        load(&first[3]),
    ];

    let (steps, singles) = rest.as_chunks::<4>();
    let by_4 = _mm_set_epi64x(FOLD_BY_4.1, FOLD_BY_4.0);
    for step in steps {
        for (lane, block) in lanes.iter_mut().zip(step) {
            *lane = fold_into(*lane, load(block), by_4);
        }
    }

    let by_1 = _mm_set_epi64x(FOLD_BY_1.1, FOLD_BY_1.0);
    let [mut x, l1, l2, l3] = lanes;
    for lane in [l1, l2, l3] {
        x = fold_into(x, lane, by_1);
    }
    for block in singles {
        x = fold_into(x, load(block), by_1);
    }

    // 128 → 96 bits: the low half times x^(128-32) onto the high half.
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(x, by_1),
        _mm_srli_si128::<8>(x),
    );
    // 96 → 64 bits: the low 32 bits times x^64 onto the upper 64.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_64)),
        _mm_srli_si128::<4>(x),
    );
    // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the reflected
    // remainder is bits 32..64 of R ^ T2.
    let p_mu = _mm_set_epi64x(MU_REFLECTED, P_REFLECTED);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
}
