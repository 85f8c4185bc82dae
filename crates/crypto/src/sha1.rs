//! SHA-1 implemented from FIPS 180-4.
//!
//! SHA-1 produces exactly the 20-byte digests the paper's experiments assume
//! ("A digest consumes 20 bytes for both SAE and TOM"). The implementation is
//! a streaming Merkle–Damgård construction; it is *not* intended to resist
//! modern collision attacks, but it plays the same structural role (one-way,
//! collision-resistant in the paper's threat model).
//!
//! # Backends
//!
//! Hashing every returned record is the client's whole verification cost, so
//! the block function has two implementations behind the one [`Sha1`] API:
//!
//! * **`sha-ni`** — on x86-64 CPUs with Intel's SHA extensions (Gulley et al.,
//!   "Intel SHA Extensions", 2013), `sha1rnds4` / `sha1nexte` / `sha1msg1` /
//!   `sha1msg2` run four rounds and four schedule words per instruction, with
//!   the state held in vector registers across every whole block of an
//!   [`Sha1::update`]. It lives in a private module, one of the places in the
//!   workspace allowed `unsafe` (`docs/invariants.md`, R6).
//! * **`scalar`** — portable Rust everywhere else: a 16-word rolling message
//!   schedule and fully unrolled rounds, reading blocks straight from the
//!   input.
//!
//! Dispatch happens on every run of blocks with `is_x86_feature_detected!`,
//! which reads a CPUID result std caches after the first call; there is no
//! setting for it. [`backend`] names the one in use. Both backends produce
//! byte-identical digests: the FIPS vectors, and a test that runs them side by
//! side over every length up to 1 100 bytes and every split point of a
//! three-block `update`, pin it.
//!
//! A third backend serves only the client's fold,
//! [`HashAlgorithm::fold`](crate::HashAlgorithm::fold), the XOR of many
//! records' digests:
//!
//! * **`avx512x16`** (the lanes) — on x86-64 CPUs with AVX-512F and
//!   AVX-512BW, sixteen equal-length records are hashed in lock step, one per
//!   32-bit lane (message-parallel hashing: Gueron & Krasnov, 2012). One
//!   SHA-1 stream waits on the latency of its round chain; sixteen
//!   independent ones fill the vector units. Answers have one fixed record
//!   length, so a verified scan's records go sixteen at a time. The
//!   remainder, any group of mixed lengths, and every CPU without AVX-512 take
//!   the per-record path above. A point query's one or two records never fill
//!   a group. The lanes produce byte-identical digests: a test runs them
//!   against the scalar backend at every length up to 1 100 bytes, over
//!   counts 0 to 40, on a group of mixed lengths, and with the short FIPS
//!   vectors in every lane.

use crate::block::{Block, BlockBuffer};
use crate::digest::{Digest, DIGEST_LEN};

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ni;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x16;

const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    block: BlockBuffer,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            block: BlockBuffer::new(),
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finalizes the hash and returns the 20-byte digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    #[inline]
    fn update_with(&mut self, data: &[u8], mut compress: impl FnMut(&mut [u32; 5], &[Block])) {
        let state = &mut self.state;
        self.block.update(data, |blocks| compress(state, blocks));
    }

    #[inline]
    fn finalize_with(self, mut compress: impl FnMut(&mut [u32; 5], &[Block])) -> Digest {
        let mut state = self.state;
        self.block.finalize(|blocks| compress(&mut state, blocks));
        to_digest(state)
    }
}

/// The digest a final state spells, each word big-endian.
fn to_digest(state: [u32; 5]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest::new(out)
}

/// The XOR of the SHA-1 digests of `records`. Where the CPU has AVX-512,
/// each run of sixteen equal-length records is hashed in lock step; the rest
/// are hashed one at a time. The result is the same either way.
pub(crate) fn fold<R: AsRef<[u8]>>(records: &[R]) -> Digest {
    fold_by(records.len(), |i| records[i].as_ref())
}

/// [`fold`] over records packed back to back in `bytes`, record `i` ending
/// at `ends[i]` (and starting where record `i - 1` ends). Every group of
/// sixteen equal-length records takes the lanes straight from `bytes`.
pub(crate) fn fold_packed(bytes: &[u8], ends: &[usize]) -> Digest {
    fold_by(ends.len(), |i| {
        let start = i.checked_sub(1).map_or(0, |prev| ends[prev]);
        &bytes[start..ends[i]]
    })
}

/// [`fold`] over the `n` records `record(0)`, …, `record(n - 1)`.
fn fold_by<'a>(n: usize, record: impl Fn(usize) -> &'a [u8]) -> Digest {
    #[cfg(target_arch = "x86_64")]
    if let Some(lanes) = x16::Avx512::detect() {
        return fold_lanes(n, record, lanes);
    }
    fold_each(0..n, record)
}

/// [`fold_by`] one record at a time, over the records `indices` names.
fn fold_each<'a>(
    indices: impl Iterator<Item = usize>,
    record: impl Fn(usize) -> &'a [u8],
) -> Digest {
    indices.fold(Digest::ZERO, |acc, i| acc ^ Sha1::digest(record(i)))
}

/// [`fold_by`] sixteen records at a time, falling back to [`fold_each`] for
/// the remainder and for any group of mixed lengths.
#[cfg(target_arch = "x86_64")]
fn fold_lanes<'a>(n: usize, record: impl Fn(usize) -> &'a [u8], lanes: x16::Avx512) -> Digest {
    let whole = n - n % x16::LANES;
    let mut acc = fold_each(whole..n, &record);
    for first in (0..whole).step_by(x16::LANES) {
        let group: [&[u8]; x16::LANES] = std::array::from_fn(|l| record(first + l));
        acc ^= match lanes.hash(&group) {
            // XOR commutes with the big-endian spelling, so the lanes' words
            // are folded before they become bytes.
            Some(states) => to_digest(states.map(|words| words.iter().fold(0, |x, w| x ^ w))),
            None => fold_each(0..x16::LANES, |l| group[l]),
        };
    }
    acc
}

/// The block-function backend this process uses: `"sha-ni"` on an x86-64 CPU
/// with the SHA extensions, `"scalar"` everywhere else.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if ni::ShaNi::detect().is_some() {
        return "sha-ni";
    }
    "scalar"
}

/// Compresses a run of blocks into `state` on the best backend this CPU has.
#[inline]
fn compress(state: &mut [u32; 5], blocks: &[Block]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = ni::ShaNi::detect() {
        ni.compress(state, blocks);
        return;
    }
    compress_scalar(state, blocks);
}

const K: [u32; 4] = [0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6];

#[inline(always)]
fn ch(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

/// Message word `i` of the current block. Words 0–15 are the block itself;
/// each later one replaces the word 16 places back, so 16 words hold the
/// whole schedule.
#[inline(always)]
fn word(w: &mut [u32; 16], i: usize) -> u32 {
    if i < 16 {
        return w[i];
    }
    let next = (w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15]).rotate_left(1);
    w[i & 15] = next;
    next
}

/// One round. The caller renames the working variables instead of shifting
/// them: the new `a` lands in `$e`'s slot and `c = rotl30(b)` in `$b`'s.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:expr, $w:expr) => {
        $e = $e
            .wrapping_add($a.rotate_left(5))
            .wrapping_add($f($b, $c, $d))
            .wrapping_add($k)
            .wrapping_add($w);
        $b = $b.rotate_left(30);
    };
}

/// The portable block function.
fn compress_scalar(state: &mut [u32; 5], blocks: &[Block]) {
    for block in blocks {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;

        // Five rounds bring every variable back under its own name.
        macro_rules! five {
            ($f:ident, $k:expr, $i:expr) => {
                round!(a, b, c, d, e, $f, $k, word(&mut w, $i));
                round!(e, a, b, c, d, $f, $k, word(&mut w, $i + 1));
                round!(d, e, a, b, c, $f, $k, word(&mut w, $i + 2));
                round!(c, d, e, a, b, $f, $k, word(&mut w, $i + 3));
                round!(b, c, d, e, a, $f, $k, word(&mut w, $i + 4));
            };
        }
        five!(ch, K[0], 0);
        five!(ch, K[0], 5);
        five!(ch, K[0], 10);
        five!(ch, K[0], 15);
        five!(parity, K[1], 20);
        five!(parity, K[1], 25);
        five!(parity, K[1], 30);
        five!(parity, K[1], 35);
        five!(maj, K[2], 40);
        five!(maj, K[2], 45);
        five!(maj, K[2], 50);
        five!(maj, K[2], 55);
        five!(parity, K[3], 60);
        five!(parity, K[3], 65);
        five!(parity, K[3], 70);
        five!(parity, K[3], 75);

        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        Sha1::digest(data).to_hex()
    }

    #[test]
    fn empty_string() {
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn abc() {
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            hex(b"The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let one_shot = Sha1::digest(&data);
        for chunk_size in [1usize, 3, 17, 63, 64, 65, 200] {
            let mut h = Sha1::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths_are_consistent() {
        // Exercise all padding branches: lengths around the 56/64-byte
        // boundaries must produce distinct, deterministic digests.
        let mut seen = std::collections::HashSet::new();
        for len in 50..=70usize {
            let data = vec![0x42u8; len];
            let d1 = Sha1::digest(&data);
            let d2 = Sha1::digest(&data);
            assert_eq!(d1, d2);
            assert!(seen.insert(d1), "collision for length {len}");
        }
    }

    #[test]
    fn different_inputs_give_different_digests() {
        assert_ne!(Sha1::digest(b"record-1"), Sha1::digest(b"record-2"));
    }

    /// Hashes the concatenation of `parts`, one `update` per part, on the
    /// given block function.
    fn digest_on(parts: &[&[u8]], compress: impl Fn(&mut [u32; 5], &[Block]) + Copy) -> Digest {
        let mut h = Sha1::new();
        for part in parts {
            h.update_with(part, compress);
        }
        h.finalize_with(compress)
    }

    /// `n` bytes of xorshift64 output.
    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    type Compress = Box<dyn Fn(&mut [u32; 5], &[Block])>;

    /// Every backend this CPU can run, by name, scalar first.
    fn backends() -> Vec<(&'static str, Compress)> {
        let mut out: Vec<(&'static str, Compress)> = vec![("scalar", Box::new(compress_scalar))];
        #[cfg(target_arch = "x86_64")]
        match ni::ShaNi::detect() {
            Some(ni) => out.push(("sha-ni", Box::new(move |s, b| ni.compress(s, b)))),
            None => println!("sha-ni leg skipped: this CPU does not report the SHA extensions"),
        }
        out
    }

    #[test]
    fn every_backend_matches_the_fips_vectors_and_each_other() {
        let backends = backends();
        let names: Vec<&str> = backends.iter().map(|(name, _)| *name).collect();
        println!("SHA-1 backends tested: {}", names.join(", "));

        let million_a = vec![b'a'; 1_000_000];
        let fips: [(&[u8], &str); 4] = [
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (&million_a, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
        ];
        for (name, compress) in &backends {
            for (msg, want) in fips {
                assert_eq!(
                    digest_on(&[msg], compress),
                    Digest::from_hex(want).unwrap(),
                    "{name}"
                );
            }
        }

        // A seeded buffer, every length from 0 to 1100 bytes.
        let data = seeded_bytes(1100);
        let (_, scalar) = &backends[0];
        for len in 0..=data.len() {
            let want = digest_on(&[&data[..len]], scalar);
            for (name, compress) in &backends[1..] {
                assert_eq!(
                    digest_on(&[&data[..len]], compress),
                    want,
                    "{name}, length {len}"
                );
            }
        }

        // A three-block message in two `update`s, cut at every point, so the
        // run of whole blocks starts after a partly filled buffer.
        let msg = &data[..3 * crate::block::BLOCK_LEN];
        let want = digest_on(&[msg], scalar);
        for (name, compress) in &backends {
            for cut in 0..=msg.len() {
                let (head, tail) = msg.split_at(cut);
                assert_eq!(
                    digest_on(&[head, tail], compress),
                    want,
                    "{name}, cut {cut}"
                );
            }
        }
    }

    /// The fold one record at a time on the scalar backend: the reference
    /// the lanes are held to.
    #[cfg(target_arch = "x86_64")]
    fn scalar_fold(records: &[&[u8]]) -> Digest {
        records.iter().fold(Digest::ZERO, |acc, r| {
            acc ^ digest_on(&[r], compress_scalar)
        })
    }

    /// [`fold_lanes`] over a slice of records.
    #[cfg(target_arch = "x86_64")]
    fn lanes_fold(records: &[&[u8]], lanes: x16::Avx512) -> Digest {
        fold_lanes(records.len(), |i| records[i], lanes)
    }

    /// Each lane's digest from the lanes' final states.
    #[cfg(target_arch = "x86_64")]
    fn lane_digests(states: x16::States) -> [Digest; x16::LANES] {
        std::array::from_fn(|l| to_digest(states.map(|words| words[l])))
    }

    #[test]
    fn the_lanes_match_the_scalar_backend() {
        #[cfg(target_arch = "x86_64")]
        if let Some(lanes) = x16::Avx512::detect() {
            println!("SHA-1 lanes tested: avx512x16");
            check_lanes(lanes);
            return;
        }
        println!("lanes leg skipped: this CPU does not report AVX-512F and AVX-512BW");
    }

    #[cfg(target_arch = "x86_64")]
    fn check_lanes(lanes: x16::Avx512) {
        // Forty-one distinct messages of every length up to 1100 bytes, each
        // starting 7 bytes after the last.
        let data = seeded_bytes(1100 + 40 * 7);
        let msgs = |n: usize, len: usize| -> Vec<&[u8]> {
            (0..n).map(|i| &data[i * 7..i * 7 + len]).collect()
        };

        // Every lane of one group, and a group plus one, at every length:
        // empty, one tail block or two (55/56 B), whole blocks (64 B), and
        // several blocks before the tail.
        for len in 0..=1100 {
            let group = msgs(17, len);
            let want: Vec<Digest> = group
                .iter()
                .map(|m| digest_on(&[m], compress_scalar))
                .collect();
            let sixteen = std::array::from_fn(|l| group[l]);
            let got = lane_digests(lanes.hash(&sixteen).unwrap());
            assert_eq!(got[..], want[..16], "length {len}");
            assert_eq!(
                lanes_fold(&group[..16], lanes),
                scalar_fold(&group[..16]),
                "16 x {len}"
            );
            assert_eq!(lanes_fold(&group, lanes), scalar_fold(&group), "17 x {len}");
        }

        // Empty input, remainders, and several whole groups.
        for len in [0, 55, 56, 64, 119, 120, 500, 1000] {
            for n in 0..=40 {
                let records = msgs(n, len);
                assert_eq!(
                    lanes_fold(&records, lanes),
                    scalar_fold(&records),
                    "{n} x {len}"
                );
                assert_eq!(fold(&records), scalar_fold(&records), "{n} x {len}");
            }
        }

        // One lane a byte shorter: the group falls back and still agrees.
        for odd in [0, 7, 15] {
            let mut records = msgs(16, 500);
            records[odd] = &records[odd][..499];
            let sixteen = std::array::from_fn(|l| records[l]);
            assert!(lanes.hash(&sixteen).is_none(), "lane {odd}");
            assert_eq!(
                lanes_fold(&records, lanes),
                scalar_fold(&records),
                "lane {odd}"
            );
        }

        // The short FIPS vectors in every lane, beside other messages of
        // the same length.
        let fips: [(&[u8], &str); 3] = [
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
        ];
        for (msg, want) in fips {
            let others = msgs(16, msg.len());
            for lane in 0..x16::LANES {
                let mut group: [&[u8]; x16::LANES] = std::array::from_fn(|l| others[l]);
                group[lane] = msg;
                let got = lane_digests(lanes.hash(&group).unwrap());
                for (l, digest) in got.iter().enumerate() {
                    let want = if l == lane {
                        Digest::from_hex(want).unwrap()
                    } else {
                        digest_on(&[others[l]], compress_scalar)
                    };
                    assert_eq!(
                        *digest,
                        want,
                        "vector of {} B in lane {lane}, lane {l}",
                        msg.len()
                    );
                }
            }
        }
    }
}
