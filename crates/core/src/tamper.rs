//! Malicious service-provider behaviours.
//!
//! The paper's security analysis (§II) models a malicious SP that returns
//! `RS^SP = (RS - DS) ∪ IS`: it may drop a subset `DS` of the genuine result
//! (attacking completeness) and/or inject a set `IS` of fabricated records
//! (attacking soundness); modifying a record is the combination of both.
//! [`TamperStrategy`] reproduces those behaviours so integration tests and the
//! examples can demonstrate that both SAE and TOM clients reject them — all
//! but [`TamperStrategy::LinearForgery`], which the XOR fold accepts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sae_crypto::{Digest, HashAlgorithm, DIGEST_LEN};
use sae_workload::{RangeQuery, Record, RECORD_HEADER_LEN};

/// How many records [`TamperStrategy::LinearForgery`] fabricates: enough that
/// their digests span GF(2)¹⁶⁰ except with probability ≈ 2⁻⁴⁰.
const FORGERY_CANDIDATES: usize = 200;

/// How a malicious SP corrupts the result set before returning it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TamperStrategy {
    /// Behave honestly.
    Honest,
    /// Drop `count` records from the result (completeness attack, `DS`).
    DropRecords {
        /// How many records to silently remove.
        count: usize,
    },
    /// Inject `count` fabricated records with in-range keys (soundness attack,
    /// `IS`).
    InjectRecords {
        /// How many bogus records to add.
        count: usize,
    },
    /// Flip payload bytes of `count` records (equivalent to one drop plus one
    /// injection per record).
    ModifyRecords {
        /// How many records to modify in place.
        count: usize,
    },
    /// Return a completely fabricated result of `count` in-range records.
    SubstituteResult {
        /// Cardinality of the fabricated result.
        count: usize,
    },
    /// Inject the *same* fabricated in-range record twice, `count` times
    /// (soundness attack targeting XOR cancellation: `h(r) ⊕ h(r) = 0`, so a
    /// bare XOR fold of the digests is unchanged by the pair).
    DuplicatePair {
        /// How many bogus record pairs to inject.
        count: usize,
    },
    /// Duplicate `count` genuine result records twice each (two extra copies
    /// per victim), again exploiting even-multiplicity XOR cancellation while
    /// only using records the SP legitimately holds.
    DuplicateExisting {
        /// How many genuine records to triple up.
        count: usize,
    },
    /// Silently drop one shard's *entire* result slice from a scatter-gather
    /// answer (completeness attack against a sharded deployment). The
    /// sharded query path interprets `shard` modulo the number of responding
    /// slices; on a flat (unsharded) result the whole result is the only
    /// slice, so everything is dropped.
    DropShardSlice {
        /// Index of the responding slice to drop.
        shard: usize,
    },
    /// Move the record adjacent to a shard boundary from its own shard's
    /// slice into the neighbouring shard's slice (soundness attack against
    /// scatter-gather stitching: the record still lies in the query range and
    /// global key order is preserved, but it is folded into the wrong shard's
    /// token). On a flat result there is no boundary; the first and last
    /// records are swapped instead, which breaks the key ordering.
    ShardBoundarySwap,
    /// Replace the whole result by fabricated records whose digests XOR to
    /// the honest token (Bellare–Micciancio's attack on XOR hashing). The SP
    /// folds the token itself from the honest records' public digests, draws
    /// well-formed candidates with in-range keys and fresh ids, and picks the
    /// subset that folds to it by Gaussian elimination over GF(2)¹⁶⁰. The
    /// result passes every structural check and the XOR fold: a known hole
    /// of SAE's combiner.
    LinearForgery {
        /// The digest the deployment folds (public, like the schema).
        alg: HashAlgorithm,
    },
}

impl TamperStrategy {
    /// Whether this strategy actually changes a non-empty result.
    pub fn is_attack(&self) -> bool {
        !matches!(self, TamperStrategy::Honest)
    }

    /// Applies the strategy to an honest result (encoded records in result
    /// order). `query` is used to fabricate in-range records, `seed` makes the
    /// corruption deterministic.
    ///
    /// Fabricated records take their size from the first honest record; on an
    /// empty result this falls back to 500 bytes (the paper's record size).
    /// Callers that know the dataset's actual record format should use
    /// [`TamperStrategy::apply_sized`] instead.
    pub fn apply(&self, honest: &[Vec<u8>], query: &RangeQuery, seed: u64) -> Vec<Vec<u8>> {
        let record_size = honest.first().map(|r| r.len()).unwrap_or(500);
        self.apply_sized(honest, query, seed, record_size)
    }

    /// Like [`TamperStrategy::apply`], but fabricating records of exactly
    /// `record_size` bytes, so an attack against an empty result still matches
    /// the dataset's record format. `record_size` is clamped to the record
    /// header so fabrication never panics on tiny formats.
    pub fn apply_sized(
        &self,
        honest: &[Vec<u8>],
        query: &RangeQuery,
        seed: u64,
        record_size: usize,
    ) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out: Vec<Vec<u8>> = honest.to_vec();
        let record_size = record_size.max(RECORD_HEADER_LEN);
        match *self {
            TamperStrategy::Honest => out,
            TamperStrategy::DropRecords { count } => {
                for _ in 0..count.min(out.len()) {
                    let victim = rng.gen_range(0..out.len());
                    out.remove(victim);
                }
                out
            }
            TamperStrategy::InjectRecords { count } => {
                for i in 0..count {
                    let key = rng.gen_range(query.lower..=query.upper);
                    let bogus = Record::with_size(u64::MAX - i as u64, key, record_size);
                    insert_sorted(&mut out, bogus.encode(), key);
                }
                out
            }
            TamperStrategy::ModifyRecords { count } => {
                for _ in 0..count.min(out.len()) {
                    let victim = rng.gen_range(0..out.len());
                    let len = out[victim].len();
                    // Flip a payload byte where one exists (never the id/key
                    // header, so the corruption is only detectable
                    // cryptographically); header-only records have no payload,
                    // so fall back to flipping a header byte.
                    let byte = if len > RECORD_HEADER_LEN {
                        rng.gen_range(RECORD_HEADER_LEN..len)
                    } else if len > 0 {
                        rng.gen_range(0..len)
                    } else {
                        continue;
                    };
                    out[victim][byte] ^= 0xA5;
                }
                out
            }
            TamperStrategy::SubstituteResult { count } => (0..count)
                .map(|i| {
                    let key = rng.gen_range(query.lower..=query.upper);
                    Record::with_size(u64::MAX / 2 + i as u64, key, record_size).encode()
                })
                .collect(),
            TamperStrategy::DuplicatePair { count } => {
                for i in 0..count {
                    let key = rng.gen_range(query.lower..=query.upper);
                    let bogus = Record::with_size(u64::MAX - i as u64, key, record_size).encode();
                    insert_sorted(&mut out, bogus.clone(), key);
                    insert_sorted(&mut out, bogus, key);
                }
                out
            }
            TamperStrategy::DuplicateExisting { count } => {
                for _ in 0..count.min(honest.len()) {
                    let victim = out[rng.gen_range(0..out.len())].clone();
                    let key = Record::decode(&victim).map(|r| r.key).unwrap_or_default();
                    insert_sorted(&mut out, victim.clone(), key);
                    insert_sorted(&mut out, victim, key);
                }
                out
            }
            TamperStrategy::LinearForgery { alg } => {
                let token = out
                    .iter()
                    .fold(Digest::ZERO, |acc, record| acc ^ alg.hash(record));
                let mut keys: Vec<u32> = (0..FORGERY_CANDIDATES)
                    .map(|_| rng.gen_range(query.lower..=query.upper))
                    .collect();
                keys.sort_unstable();
                let candidates: Vec<Vec<u8>> = keys
                    .into_iter()
                    .enumerate()
                    .map(|(i, key)| {
                        Record::with_size(u64::MAX / 4 + i as u64, key, record_size).encode()
                    })
                    .collect();
                let digests: Vec<Digest> = candidates.iter().map(|c| alg.hash(c)).collect();
                match xor_subset(&digests, &token) {
                    Some(pick) => candidates
                        .into_iter()
                        .zip(pick)
                        .filter_map(|(c, take)| take.then_some(c))
                        .collect(),
                    // The candidates did not span the target (≈ 2⁻⁴⁰): return
                    // them all, which the fold rejects.
                    None => candidates,
                }
            }
            TamperStrategy::DropShardSlice { .. } => Vec::new(),
            TamperStrategy::ShardBoundarySwap => {
                if out.len() >= 2 {
                    let last = out.len() - 1;
                    out.swap(0, last);
                }
                out
            }
        }
    }
}

/// A subset of `digests` whose XOR is `target`, as one flag per digest, or
/// `None` if `target` is outside their span. Gaussian elimination over
/// GF(2)¹⁶⁰: every basis vector carries the set of inputs it is the XOR of.
fn xor_subset(digests: &[Digest], target: &Digest) -> Option<Vec<bool>> {
    let bit = |d: &Digest, i: usize| d.as_bytes()[i / 8] >> (i % 8) & 1 == 1;
    let xor_into = |into: &mut [bool], from: &[bool]| {
        into.iter_mut().zip(from).for_each(|(a, b)| *a ^= b);
    };
    // Each basis vector is reduced by its predecessors, so it is zero at
    // every earlier pivot and one pass in insertion order reduces anything.
    let mut basis: Vec<(usize, Digest, Vec<bool>)> = Vec::new();
    let reduce = |v: &mut Digest, parts: &mut [bool], basis: &[(usize, Digest, Vec<bool>)]| {
        for (pivot, b, b_parts) in basis {
            if bit(v, *pivot) {
                *v ^= *b;
                xor_into(parts, b_parts);
            }
        }
    };
    for (i, d) in digests.iter().enumerate() {
        let (mut v, mut parts) = (*d, vec![false; digests.len()]);
        parts[i] = true;
        reduce(&mut v, &mut parts, &basis);
        if let Some(pivot) = (0..DIGEST_LEN * 8).find(|&p| bit(&v, p)) {
            basis.push((pivot, v, parts));
        }
    }
    let (mut rest, mut parts) = (*target, vec![false; digests.len()]);
    reduce(&mut rest, &mut parts, &basis);
    rest.is_zero().then_some(parts)
}

/// Inserts an encoded record so the result stays sorted by key (the attack
/// must not be trivially detectable from the ordering alone).
fn insert_sorted(out: &mut Vec<Vec<u8>>, encoded: Vec<u8>, key: u32) {
    let pos = out.partition_point(|r| Record::decode(r).map(|d| d.key <= key).unwrap_or(false));
    out.insert(pos, encoded);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn honest(n: u64) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| Record::with_size(i, 100 + i as u32, 100).encode())
            .collect()
    }

    #[test]
    fn honest_strategy_is_identity() {
        let rs = honest(5);
        assert_eq!(
            TamperStrategy::Honest.apply(&rs, &RangeQuery::new(0, 1000), 1),
            rs
        );
        assert!(!TamperStrategy::Honest.is_attack());
    }

    #[test]
    fn drop_reduces_cardinality() {
        let rs = honest(10);
        let q = RangeQuery::new(0, 1000);
        let out = TamperStrategy::DropRecords { count: 3 }.apply(&rs, &q, 7);
        assert_eq!(out.len(), 7);
        // Every surviving record is one of the originals.
        assert!(out.iter().all(|r| rs.contains(r)));
    }

    #[test]
    fn inject_adds_in_range_records() {
        let rs = honest(5);
        let q = RangeQuery::new(100, 104);
        let out = TamperStrategy::InjectRecords { count: 2 }.apply(&rs, &q, 9);
        assert_eq!(out.len(), 7);
        let injected: Vec<Record> = out
            .iter()
            .filter(|r| !rs.contains(*r))
            .map(|r| Record::decode(r).unwrap())
            .collect();
        assert_eq!(injected.len(), 2);
        assert!(injected.iter().all(|r| q.contains(r.key)));
        // Keys stay sorted so the attack is not trivially detectable.
        let keys: Vec<u32> = out.iter().map(|r| Record::decode(r).unwrap().key).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn modify_keeps_cardinality_but_changes_bytes() {
        let rs = honest(6);
        let q = RangeQuery::new(0, 1000);
        let out = TamperStrategy::ModifyRecords { count: 2 }.apply(&rs, &q, 3);
        assert_eq!(out.len(), 6);
        let changed = out.iter().zip(rs.iter()).filter(|(a, b)| a != b).count();
        assert!((1..=2).contains(&changed));
        // Keys and ids are untouched: only payload bytes differ.
        for (a, b) in out.iter().zip(rs.iter()) {
            assert_eq!(&a[..12], &b[..12]);
        }
    }

    #[test]
    fn substitute_fabricates_everything() {
        let rs = honest(4);
        let q = RangeQuery::new(100, 103);
        let out = TamperStrategy::SubstituteResult { count: 3 }.apply(&rs, &q, 5);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| !rs.contains(r)));
        assert!(out
            .iter()
            .all(|r| q.contains(Record::decode(r).unwrap().key)));
    }

    #[test]
    fn duplicate_pair_injects_the_same_record_twice() {
        let rs = honest(5);
        let q = RangeQuery::new(100, 104);
        let out = TamperStrategy::DuplicatePair { count: 2 }.apply(&rs, &q, 11);
        assert_eq!(out.len(), 9);
        let injected: Vec<&Vec<u8>> = out.iter().filter(|r| !rs.contains(*r)).collect();
        assert_eq!(injected.len(), 4);
        // Each bogus record appears an even number of times.
        for r in &injected {
            assert_eq!(injected.iter().filter(|x| x == &r).count() % 2, 0);
        }
        // Keys stay sorted so the attack is not trivially detectable.
        let keys: Vec<u32> = out.iter().map(|r| Record::decode(r).unwrap().key).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn duplicate_existing_triples_genuine_records() {
        let rs = honest(6);
        let q = RangeQuery::new(0, 1000);
        let out = TamperStrategy::DuplicateExisting { count: 1 }.apply(&rs, &q, 4);
        assert_eq!(out.len(), 8);
        // Every record in the tampered result is a genuine one, and exactly
        // one of them occurs three times.
        assert!(out.iter().all(|r| rs.contains(r)));
        let tripled = rs
            .iter()
            .filter(|r| out.iter().filter(|x| x == r).count() == 3)
            .count();
        assert_eq!(tripled, 1);
        let keys: Vec<u32> = out.iter().map(|r| Record::decode(r).unwrap().key).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn modify_does_not_panic_on_header_only_records() {
        // 12-byte records have no payload; the old implementation panicked in
        // gen_range(12..12).
        let rs: Vec<Vec<u8>> = (0..4u64)
            .map(|i| Record::with_size(i, 100 + i as u32, RECORD_HEADER_LEN).encode())
            .collect();
        let q = RangeQuery::new(0, 1000);
        let out = TamperStrategy::ModifyRecords { count: 2 }.apply(&rs, &q, 3);
        assert_eq!(out.len(), 4);
        // Something changed (a header byte, since there is no payload).
        assert!(out.iter().zip(rs.iter()).any(|(a, b)| a != b));
    }

    #[test]
    fn inject_into_empty_result_respects_the_dataset_record_size() {
        let q = RangeQuery::new(10, 20);
        for strategy in [
            TamperStrategy::InjectRecords { count: 2 },
            TamperStrategy::SubstituteResult { count: 2 },
            TamperStrategy::DuplicatePair { count: 1 },
        ] {
            let out = strategy.apply_sized(&[], &q, 1, 64);
            assert_eq!(out.len(), 2, "{strategy:?}");
            assert!(out.iter().all(|r| r.len() == 64), "{strategy:?}");
        }
        // Sizes below the record header are clamped instead of panicking.
        let out = TamperStrategy::InjectRecords { count: 1 }.apply_sized(&[], &q, 1, 3);
        assert_eq!(out[0].len(), RECORD_HEADER_LEN);
    }

    #[test]
    fn shard_attacks_degrade_sensibly_on_flat_results() {
        let rs = honest(5);
        let q = RangeQuery::new(0, 1000);
        // A flat result is one slice: dropping "the" shard drops everything.
        assert!(TamperStrategy::DropShardSlice { shard: 3 }
            .apply(&rs, &q, 1)
            .is_empty());
        // A boundary swap has no boundary to cross: first/last are swapped,
        // which at least breaks the key ordering.
        let swapped = TamperStrategy::ShardBoundarySwap.apply(&rs, &q, 1);
        assert_eq!(swapped.len(), rs.len());
        assert_eq!(swapped[0], rs[rs.len() - 1]);
        assert_eq!(swapped[rs.len() - 1], rs[0]);
        assert!(TamperStrategy::DropShardSlice { shard: 0 }.is_attack());
        assert!(TamperStrategy::ShardBoundarySwap.is_attack());
    }

    #[test]
    fn linear_forgery_folds_to_the_honest_token_with_no_genuine_record() {
        let alg = HashAlgorithm::Sha1;
        let rs = honest(30);
        let q = RangeQuery::new(100, 129);
        let out = TamperStrategy::LinearForgery { alg }.apply(&rs, &q, 5);
        let fold = |records: &[Vec<u8>]| {
            records
                .iter()
                .fold(Digest::ZERO, |acc, r| acc ^ alg.hash(r))
        };
        assert_eq!(fold(&out), fold(&rs));
        assert!(!out.is_empty() && out.iter().all(|r| !rs.contains(r)));
        let decoded: Vec<Record> = out.iter().map(|r| Record::decode(r).unwrap()).collect();
        assert!(decoded
            .iter()
            .all(|r| q.contains(r.key) && r.encode().len() == 100));
        assert!(decoded
            .windows(2)
            .all(|w| w[0].key <= w[1].key && w[0].id != w[1].id));
    }

    #[test]
    fn tampering_is_deterministic_per_seed() {
        let rs = honest(10);
        let q = RangeQuery::new(0, 1000);
        let s = TamperStrategy::DropRecords { count: 2 };
        assert_eq!(s.apply(&rs, &q, 42), s.apply(&rs, &q, 42));
    }

    #[test]
    fn tampering_empty_results_is_safe() {
        let q = RangeQuery::new(10, 20);
        for s in [
            TamperStrategy::DropRecords { count: 3 },
            TamperStrategy::ModifyRecords { count: 3 },
            TamperStrategy::InjectRecords { count: 1 },
        ] {
            let out = s.apply(&[], &q, 1);
            match s {
                TamperStrategy::InjectRecords { .. } => assert_eq!(out.len(), 1),
                _ => assert!(out.is_empty()),
            }
        }
    }
}
