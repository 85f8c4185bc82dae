//! HMAC (RFC 2104) over the crate's hash functions.
//!
//! HMAC is used by [`crate::signer::MacSigner`], the fast symmetric stand-in
//! for the public-key signature the data owner places on the MB-Tree root in
//! TOM. It is also generally useful for keyed integrity checks in tests.

use crate::block::BLOCK_LEN;
use crate::digest::Digest;
use crate::hash::HashAlgorithm;

/// Computes `HMAC(key, message)` with the given hash algorithm, returning the
/// system's 20-byte digest.
///
/// The MAC is the standard RFC 2104 construction over the *full-width* hash
/// (20 bytes for SHA-1, 32 bytes for SHA-256); only the final tag is truncated
/// to the system digest size, so the SHA-256 variant agrees with the RFC 4231
/// test vectors on its 20-byte prefix.
pub fn hmac(alg: HashAlgorithm, key: &[u8], message: &[u8]) -> Digest {
    let mut key_block = [0u8; BLOCK_LEN];
    match alg {
        HashAlgorithm::Sha1 => {
            if key.len() > BLOCK_LEN {
                let hashed = crate::sha1::Sha1::digest(key);
                key_block[..hashed.as_bytes().len()].copy_from_slice(hashed.as_bytes());
            } else {
                key_block[..key.len()].copy_from_slice(key);
            }
        }
        HashAlgorithm::Sha256 => {
            if key.len() > BLOCK_LEN {
                let hashed = crate::sha256::Sha256::digest_full(key);
                key_block[..hashed.len()].copy_from_slice(&hashed);
            } else {
                key_block[..key.len()].copy_from_slice(key);
            }
        }
    }

    let mut ipad = [0u8; BLOCK_LEN];
    let mut opad = [0u8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] = key_block[i] ^ 0x36;
        opad[i] = key_block[i] ^ 0x5c;
    }

    match alg {
        HashAlgorithm::Sha1 => {
            let mut inner = crate::sha1::Sha1::new();
            inner.update(&ipad);
            inner.update(message);
            let inner_digest = inner.finalize();

            let mut outer = crate::sha1::Sha1::new();
            outer.update(&opad);
            outer.update(inner_digest.as_bytes());
            outer.finalize()
        }
        HashAlgorithm::Sha256 => {
            let mut inner = crate::sha256::Sha256::new();
            inner.update(&ipad);
            inner.update(message);
            let inner_full = inner.finalize_full();

            let mut outer = crate::sha256::Sha256::new();
            outer.update(&opad);
            outer.update(&inner_full);
            outer.finalize()
        }
    }
}

/// Convenience wrapper binding a key and algorithm together.
#[derive(Clone, Debug)]
pub struct HmacKey {
    alg: HashAlgorithm,
    key: Vec<u8>,
}

impl HmacKey {
    /// Creates a new HMAC key for the given algorithm.
    pub fn new(alg: HashAlgorithm, key: impl Into<Vec<u8>>) -> Self {
        HmacKey {
            alg,
            key: key.into(),
        }
    }

    /// Computes the tag for `message`.
    pub fn tag(&self, message: &[u8]) -> Digest {
        hmac(self.alg, &self.key, message)
    }

    /// Verifies a tag in constant-ish time.
    pub fn verify(&self, message: &[u8], tag: &Digest) -> bool {
        let expected = self.tag(message);
        // XOR-accumulate to avoid early exit on the first differing byte.
        let mut diff = 0u8;
        for (a, b) in expected.as_bytes().iter().zip(tag.as_bytes()) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 2202 (HMAC-SHA1) and RFC 4231 (HMAC-SHA256) test vectors. The
    // SHA-256 vectors are compared on the truncated 20-byte prefix, which is
    // what this system uses as its tag.

    #[test]
    fn rfc2202_case1_sha1() {
        let key = [0x0bu8; 20];
        let tag = hmac(HashAlgorithm::Sha1, &key, b"Hi There");
        assert_eq!(tag.to_hex(), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_case2_sha1() {
        let tag = hmac(
            HashAlgorithm::Sha1,
            b"Jefe",
            b"what do ya want for nothing?",
        );
        assert_eq!(tag.to_hex(), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn rfc2202_case3_sha1() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac(HashAlgorithm::Sha1, &key, &data);
        assert_eq!(tag.to_hex(), "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
    }

    #[test]
    fn rfc4231_case1_sha256_truncated() {
        let key = [0x0bu8; 20];
        let tag = hmac(HashAlgorithm::Sha256, &key, b"Hi There");
        let full = "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
        assert_eq!(tag.to_hex(), full[..40]);
    }

    #[test]
    fn rfc4231_case2_sha256_truncated() {
        let tag = hmac(
            HashAlgorithm::Sha256,
            b"Jefe",
            b"what do ya want for nothing?",
        );
        let full = "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
        assert_eq!(tag.to_hex(), full[..40]);
    }

    #[test]
    fn long_key_is_hashed_first() {
        // Keys longer than the block size must be hashed; just check the two
        // paths disagree and are deterministic.
        let long_key = vec![0x61u8; 100];
        let t1 = hmac(HashAlgorithm::Sha1, &long_key, b"msg");
        let t2 = hmac(HashAlgorithm::Sha1, &long_key, b"msg");
        let t3 = hmac(HashAlgorithm::Sha1, &long_key[..64], b"msg");
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
    }

    #[test]
    fn hmac_key_verify_round_trip() {
        let key = HmacKey::new(HashAlgorithm::Sha1, b"root-signing-key".to_vec());
        let tag = key.tag(b"root digest bytes");
        assert!(key.verify(b"root digest bytes", &tag));
        assert!(!key.verify(b"root digest bytez", &tag));
        let mut wrong = tag;
        wrong.0[0] ^= 1;
        assert!(!key.verify(b"root digest bytes", &wrong));
    }

    #[test]
    fn different_keys_give_different_tags() {
        let a = HmacKey::new(HashAlgorithm::Sha256, b"key-a".to_vec());
        let b = HmacKey::new(HashAlgorithm::Sha256, b"key-b".to_vec());
        assert_ne!(a.tag(b"m"), b.tag(b"m"));
    }
}
