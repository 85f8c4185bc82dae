//! SHA-256 implemented from FIPS 180-4.
//!
//! The SAE system fixes digests at 20 bytes; when SHA-256 is selected through
//! [`crate::hash::HashAlgorithm::Sha256`] its 32-byte output is truncated to
//! the first 20 bytes. The full 32-byte output is also exposed for callers
//! (e.g. HMAC) that need it.

use crate::block::{Block, BlockBuffer};
use crate::digest::{Digest, DIGEST_LEN};

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

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

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    block: BlockBuffer,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            block: BlockBuffer::new(),
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        let state = &mut self.state;
        self.block.update(data, |blocks| compress(state, blocks));
    }

    /// Finalizes the hash and returns the full 32-byte output.
    pub fn finalize_full(self) -> [u8; 32] {
        let mut state = self.state;
        self.block.finalize(|blocks| compress(&mut state, blocks));
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Finalizes the hash and returns the system digest (first 20 bytes).
    pub fn finalize(self) -> Digest {
        let full = self.finalize_full();
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(&full[..DIGEST_LEN]);
        Digest::new(out)
    }

    /// One-shot convenience: the full 32-byte SHA-256 of `data`.
    pub fn digest_full(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize_full()
    }

    /// One-shot convenience: the 20-byte truncated SHA-256 of `data`.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }
}

/// Compresses a run of blocks into `state`.
fn compress(state: &mut [u32; 8], blocks: &[Block]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
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
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_full(data: &[u8]) -> String {
        Sha256::digest_full(data)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    #[test]
    fn empty_string() {
        assert_eq!(
            hex_full(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex_full(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex_full(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_full(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn truncated_digest_is_prefix_of_full() {
        let data = b"SAE digest truncation";
        let full = Sha256::digest_full(data);
        let trunc = Sha256::digest(data);
        assert_eq!(trunc.as_bytes()[..], full[..DIGEST_LEN]);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..777u32).flat_map(|i| i.to_be_bytes()).collect();
        let one_shot = Sha256::digest_full(&data);
        for chunk_size in [1usize, 7, 64, 100] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize_full(), one_shot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn padding_boundaries_deterministic_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for len in 50..=70usize {
            let data = vec![0x37u8; len];
            let d = Sha256::digest_full(&data);
            assert_eq!(d, Sha256::digest_full(&data));
            assert!(seen.insert(d), "collision for length {len}");
        }
    }
}
