//! Known-answer tests for the cryptographic substrate.
//!
//! Vectors are taken from the published specifications:
//!
//! * SHA-1 — FIPS 180-1 appendix A/B examples plus the million-`a` vector;
//! * SHA-256 — FIPS 180-4 (via the NIST examples) one-block, two-block and
//!   million-`a` vectors;
//! * HMAC-SHA1 — RFC 2202 §3, all seven cases;
//! * HMAC-SHA256 — RFC 4231 §4, compared on the 20-byte prefix because the
//!   system truncates every tag to its uniform 20-byte digest size (the MAC
//!   itself is computed over the full-width hash, so the prefixes match the
//!   RFC exactly).
//!
//! The SHA vectors run on whichever SHA-1 backend this CPU selects
//! ([`sae_crypto::sha1::backend`], pinned below); the unit tests in
//! `sha1.rs` run both backends side by side.
//!
//! Also includes deterministic regression tests for the XOR-aggregation
//! algebra the SAE verification token relies on (order independence and
//! self-inverse), complementing the randomized versions in `properties.rs`.

use sae_crypto::digest::{Digest, XorDigest};
use sae_crypto::hash::HashAlgorithm;
use sae_crypto::hmac::hmac;
use sae_crypto::sha1::Sha1;
use sae_crypto::sha256::Sha256;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// --- SHA-1 (FIPS 180-1) ----------------------------------------------------

#[test]
fn sha1_fips_one_block() {
    assert_eq!(
        Sha1::digest(b"abc").to_hex(),
        "a9993e364706816aba3e25717850c26c9cd0d89d"
    );
}

#[test]
fn sha1_fips_two_block() {
    assert_eq!(
        Sha1::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    );
}

#[test]
fn sha1_empty_message() {
    assert_eq!(
        Sha1::digest(b"").to_hex(),
        "da39a3ee5e6b4b0d3255bfef95601890afd80709"
    );
}

#[test]
fn sha1_fips_million_a() {
    let mut h = Sha1::new();
    for _ in 0..1_000 {
        h.update(&[b'a'; 1_000]);
    }
    assert_eq!(
        h.finalize().to_hex(),
        "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    );
}

#[test]
fn sha1_exact_block_boundary_lengths() {
    // 55/56/64 bytes straddle the padding boundary of the 64-byte block.
    assert_eq!(
        Sha1::digest(&[0u8; 55]).to_hex(),
        "8e8832c642a6a38c74c17fc92ccedc266c108e6c"
    );
    assert_eq!(
        Sha1::digest(&[0u8; 56]).to_hex(),
        "9438e360f578e12c0e0e8ed28e2c125c1cefee16"
    );
    assert_eq!(
        Sha1::digest(&[0u8; 64]).to_hex(),
        "c8d7d0ef0eedfa82d2ea1aa592845b9a6d4b02b7"
    );
}

/// A refactor that quietly falls back to the scalar block function still
/// passes every digest test; this pins the dispatch itself. Every CPU with
/// the SHA extensions also has the SSSE3 and SSE4.1 the compressor uses.
#[test]
fn sha1_backend_is_sha_ni_exactly_when_the_cpu_has_it() {
    #[cfg(target_arch = "x86_64")]
    let expected = if std::arch::is_x86_feature_detected!("sha") {
        "sha-ni"
    } else {
        "scalar"
    };
    #[cfg(not(target_arch = "x86_64"))]
    let expected = "scalar";
    assert_eq!(sae_crypto::sha1::backend(), expected);
}

// --- SHA-256 (FIPS 180-4) --------------------------------------------------

#[test]
fn sha256_fips_one_block() {
    assert_eq!(
        hex(&Sha256::digest_full(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}

#[test]
fn sha256_fips_two_block() {
    assert_eq!(
        hex(&Sha256::digest_full(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        )),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

#[test]
fn sha256_empty_message() {
    assert_eq!(
        hex(&Sha256::digest_full(b"")),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
}

#[test]
fn sha256_fips_million_a() {
    let mut h = Sha256::new();
    for _ in 0..1_000 {
        h.update(&[b'a'; 1_000]);
    }
    assert_eq!(
        hex(&h.finalize_full()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

#[test]
fn sha256_system_digest_is_truncated_prefix() {
    // The 20-byte system digest must be the prefix of the full hash.
    let full = Sha256::digest_full(b"abc");
    assert_eq!(Sha256::digest(b"abc").as_bytes()[..], full[..20]);
    assert_eq!(
        HashAlgorithm::Sha256.hash(b"abc").as_bytes()[..],
        full[..20]
    );
}

// --- HMAC-SHA1 (RFC 2202 §3) ----------------------------------------------

struct HmacVector {
    key: Vec<u8>,
    data: Vec<u8>,
    sha1: &'static str,
}

fn rfc2202_vectors() -> Vec<HmacVector> {
    vec![
        HmacVector {
            key: vec![0x0b; 20],
            data: b"Hi There".to_vec(),
            sha1: "b617318655057264e28bc0b6fb378c8ef146be00",
        },
        HmacVector {
            key: b"Jefe".to_vec(),
            data: b"what do ya want for nothing?".to_vec(),
            sha1: "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
        },
        HmacVector {
            key: vec![0xaa; 20],
            data: vec![0xdd; 50],
            sha1: "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
        },
        HmacVector {
            key: (0x01..=0x19).collect(),
            data: vec![0xcd; 50],
            sha1: "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
        },
        HmacVector {
            key: vec![0x0c; 20],
            data: b"Test With Truncation".to_vec(),
            sha1: "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
        },
        HmacVector {
            key: vec![0xaa; 80],
            data: b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            sha1: "aa4ae5e15272d00e95705637ce8a3b55ed402112",
        },
        HmacVector {
            key: vec![0xaa; 80],
            data: b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"
                .to_vec(),
            sha1: "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
        },
    ]
}

#[test]
fn hmac_sha1_rfc2202_all_cases() {
    for (i, v) in rfc2202_vectors().iter().enumerate() {
        assert_eq!(
            hmac(HashAlgorithm::Sha1, &v.key, &v.data).to_hex(),
            v.sha1,
            "RFC 2202 case {}",
            i + 1
        );
    }
}

// --- HMAC-SHA256 (RFC 4231 §4), 20-byte prefix ------------------------------

#[test]
fn hmac_sha256_rfc4231_truncated_prefixes() {
    // (key, data, full 32-byte tag) from RFC 4231 test cases 1-4 and 6-7.
    // Case 5 tests 128-bit output truncation and is subsumed by the others.
    let cases: Vec<(Vec<u8>, Vec<u8>, &str)> = vec![
        (
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            vec![0xaa; 20],
            vec![0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            (0x01..=0x19).collect(),
            vec![0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            vec![0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            vec![0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm."
                .to_vec(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for (i, (key, data, full)) in cases.iter().enumerate() {
        assert_eq!(
            hmac(HashAlgorithm::Sha256, key, data).to_hex(),
            full[..40],
            "RFC 4231 case {}",
            i + 1
        );
    }
}

// --- XOR aggregation regression ---------------------------------------------

#[test]
fn xor_aggregation_is_order_independent() {
    let digests: Vec<Digest> = (0u32..16)
        .map(|i| HashAlgorithm::Sha1.hash(&i.to_le_bytes()))
        .collect();
    let forward = XorDigest::of(digests.iter());
    let backward = XorDigest::of(digests.iter().rev().collect::<Vec<_>>());

    // Any permutation, not just reversal: rotate and interleave.
    let mut rotated = digests.clone();
    rotated.rotate_left(7);
    let (evens, odds): (Vec<_>, Vec<_>) = digests.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let interleaved: Vec<Digest> = evens.into_iter().chain(odds).map(|(_, d)| *d).collect();

    assert_eq!(forward, backward);
    assert_eq!(forward, XorDigest::of(rotated.iter()));
    assert_eq!(forward, XorDigest::of(interleaved.iter()));
}

#[test]
fn xor_aggregation_is_self_inverse() {
    let a = HashAlgorithm::Sha1.hash(b"a");
    let b = HashAlgorithm::Sha1.hash(b"b");

    // x ^ x == 0 and folding a digest twice removes it from the aggregate.
    assert_eq!(a ^ a, Digest::ZERO);
    assert_eq!(a ^ Digest::ZERO, a);
    let mut agg = XorDigest::new();
    agg.fold(&a);
    agg.fold(&b);
    agg.fold(&a);
    assert_eq!(agg.value(), b);
    assert!(XorDigest::of([a, b, a, b].iter()).is_zero());
}

#[test]
fn xor_aggregate_of_empty_set_is_identity() {
    assert_eq!(XorDigest::of([].iter()), Digest::ZERO);
    assert!(XorDigest::new().is_identity());
}
