//! Hash-algorithm selection and the streaming [`Hasher`] abstraction.
//!
//! The SAE and TOM models are agnostic to the concrete hash function; they
//! only require a one-way, collision-resistant function that produces the
//! system's 20-byte [`Digest`]. [`HashAlgorithm`] selects between the two
//! implementations in this crate and is threaded through the higher layers
//! (record digests, MB-Tree node digests, XB-Tree tuple digests) so that the
//! whole system can be switched with one configuration value. The figures
//! use SHA-1, as the paper did; `tests/kat.rs` pins both functions to their
//! FIPS test vectors.

use crate::digest::Digest;
use crate::sha1::{self, Sha1};
use crate::sha256::Sha256;

/// The hash functions available to the system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HashAlgorithm {
    /// SHA-1 (20-byte output) — what the paper's Crypto++ setup used.
    #[default]
    Sha1,
    /// SHA-256 truncated to 20 bytes — a modern alternative with the same
    /// digest size, used to show results are digest-size-bound.
    Sha256,
}

impl HashAlgorithm {
    /// Hashes `data` in one shot.
    pub fn hash(&self, data: &[u8]) -> Digest {
        match self {
            HashAlgorithm::Sha1 => Sha1::digest(data),
            HashAlgorithm::Sha256 => Sha256::digest(data),
        }
    }

    /// The XOR of the digests of `records`, `hash(r_1) ⊕ … ⊕ hash(r_n)`: the
    /// client's side of the verification token. SHA-1 hashes sixteen
    /// equal-length records at a time where the CPU has AVX-512
    /// ([`sha1`]); the digest is the same as folding
    /// [`HashAlgorithm::hash`] over them.
    pub fn fold<R: AsRef<[u8]>>(&self, records: &[R]) -> Digest {
        match self {
            HashAlgorithm::Sha1 => sha1::fold(records),
            HashAlgorithm::Sha256 => records
                .iter()
                .fold(Digest::ZERO, |acc, r| acc ^ Sha256::digest(r.as_ref())),
        }
    }

    /// [`HashAlgorithm::fold`] over records packed back to back in `bytes`,
    /// record `i` ending at offset `ends[i]` and starting where record
    /// `i - 1` ends (a record block's layout). No per-record pointer list is
    /// built: SHA-1 takes each group of sixteen equal-length records
    /// through the lanes straight from `bytes`, and a group of mixed lengths
    /// falls back to one record at a time, with the same digest.
    ///
    /// # Panics
    ///
    /// If `ends` is not ascending or reaches past `bytes`.
    pub fn fold_packed(&self, bytes: &[u8], ends: &[usize]) -> Digest {
        match self {
            HashAlgorithm::Sha1 => sha1::fold_packed(bytes, ends),
            HashAlgorithm::Sha256 => {
                let mut start = 0;
                ends.iter().fold(Digest::ZERO, |acc, &end| {
                    let record = &bytes[start..end];
                    start = end;
                    acc ^ Sha256::digest(record)
                })
            }
        }
    }

    /// Creates a streaming hasher for this algorithm.
    pub fn hasher(&self) -> Hasher {
        match self {
            HashAlgorithm::Sha1 => Hasher::Sha1(Sha1::new()),
            HashAlgorithm::Sha256 => Hasher::Sha256(Sha256::new()),
        }
    }

    /// Hashes the concatenation of several byte slices without materializing
    /// the concatenation (used for MB-Tree node digests, which are computed
    /// over the concatenation of the child page's digests).
    pub fn hash_concat<'a, I: IntoIterator<Item = &'a [u8]>>(&self, parts: I) -> Digest {
        let mut h = self.hasher();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// A short stable name, used in experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            HashAlgorithm::Sha1 => "sha1",
            HashAlgorithm::Sha256 => "sha256-trunc20",
        }
    }
}

/// Streaming hasher over the selected algorithm.
#[derive(Clone)]
pub enum Hasher {
    /// SHA-1 state.
    Sha1(Sha1),
    /// SHA-256 state.
    Sha256(Sha256),
}

impl Hasher {
    /// Absorbs more data.
    pub fn update(&mut self, data: &[u8]) {
        match self {
            Hasher::Sha1(h) => h.update(data),
            Hasher::Sha256(h) => h.update(data),
        }
    }

    /// Finalizes and returns the 20-byte digest.
    pub fn finalize(self) -> Digest {
        match self {
            Hasher::Sha1(h) => h.finalize(),
            Hasher::Sha256(h) => h.finalize(),
        }
    }
}

/// Hashes `data` with the default algorithm (SHA-1, as in the paper).
pub fn hash_bytes(data: &[u8]) -> Digest {
    HashAlgorithm::default().hash(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sha1() {
        assert_eq!(HashAlgorithm::default(), HashAlgorithm::Sha1);
        assert_eq!(
            hash_bytes(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn algorithms_disagree_on_same_input() {
        let data = b"same input";
        assert_ne!(
            HashAlgorithm::Sha1.hash(data),
            HashAlgorithm::Sha256.hash(data)
        );
    }

    #[test]
    fn streaming_hasher_matches_one_shot() {
        for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            let data = b"streaming hasher equivalence check";
            let mut h = alg.hasher();
            h.update(&data[..10]);
            h.update(&data[10..]);
            assert_eq!(h.finalize(), alg.hash(data), "{}", alg.name());
        }
    }

    #[test]
    fn hash_concat_equals_hash_of_concatenation() {
        for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            let parts: Vec<&[u8]> = vec![b"alpha", b"beta", b"gamma"];
            let concatenated: Vec<u8> = parts.concat();
            assert_eq!(
                alg.hash_concat(parts.iter().copied()),
                alg.hash(&concatenated)
            );
        }
    }

    #[test]
    fn fold_is_the_xor_of_the_digests() {
        let records: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 100]).collect();
        for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            for n in [0, 1, 16, 17, 40] {
                let mut want = Digest::ZERO;
                for r in &records[..n] {
                    want ^= alg.hash(r);
                }
                assert_eq!(alg.fold(&records[..n]), want, "{} over {n}", alg.name());
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(HashAlgorithm::Sha1.name(), "sha1");
        assert_eq!(HashAlgorithm::Sha256.name(), "sha256-trunc20");
    }
}
