//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;
use sae_crypto::bigint::BigUint;
use sae_crypto::digest::{Digest, XorDigest, DIGEST_LEN};
use sae_crypto::hash::HashAlgorithm;
use sae_crypto::hmac::hmac;
use sae_crypto::sha1::Sha1;
use sae_crypto::sha256::Sha256;

fn arb_digest() -> impl Strategy<Value = Digest> {
    prop::array::uniform20(any::<u8>()).prop_map(Digest::new)
}

/// `data` cut into four consecutive parts at `cuts`, each clamped to the
/// length and taken in ascending order.
fn split_at_cuts(data: &[u8], cuts: (usize, usize, usize)) -> [&[u8]; 4] {
    let mut cuts = [cuts.0, cuts.1, cuts.2];
    cuts.sort_unstable();
    let [a, b, c] = cuts.map(|cut| cut.min(data.len()));
    [&data[..a], &data[a..b], &data[b..c], &data[c..]]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // --- XOR digest algebra -------------------------------------------------

    #[test]
    fn xor_commutative(a in arb_digest(), b in arb_digest()) {
        prop_assert_eq!(a ^ b, b ^ a);
    }

    #[test]
    fn xor_associative(a in arb_digest(), b in arb_digest(), c in arb_digest()) {
        prop_assert_eq!((a ^ b) ^ c, a ^ (b ^ c));
    }

    #[test]
    fn xor_self_inverse(a in arb_digest()) {
        prop_assert_eq!(a ^ a, Digest::ZERO);
        prop_assert_eq!(a ^ Digest::ZERO, a);
    }

    #[test]
    fn xor_aggregate_order_independent(mut digests in prop::collection::vec(arb_digest(), 0..32)) {
        let forward = XorDigest::of(digests.iter());
        digests.reverse();
        let backward = XorDigest::of(digests.iter());
        prop_assert_eq!(forward, backward);
    }

    /// Removing a subset DS and inserting a disjoint, different subset IS
    /// changes the aggregate unless DS⊕ == IS⊕ (the paper's security
    /// condition). Here we check the algebraic identity the proof relies on:
    /// ((RS - DS) ∪ IS)⊕ == RS⊕ ⊕ DS⊕ ⊕ IS⊕ for DS ⊆ RS, IS ∩ RS = ∅.
    #[test]
    fn tamper_identity(rs in prop::collection::vec(arb_digest(), 1..24),
                       is in prop::collection::vec(arb_digest(), 0..8),
                       split in 0usize..24) {
        let split = split.min(rs.len());
        let (ds, keep) = rs.split_at(split);
        let tampered: Vec<Digest> = keep.iter().chain(is.iter()).copied().collect();

        let rs_x = XorDigest::of(rs.iter());
        let ds_x = XorDigest::of(ds.iter());
        let is_x = XorDigest::of(is.iter());
        let tampered_x = XorDigest::of(tampered.iter());

        prop_assert_eq!(tampered_x, rs_x ^ ds_x ^ is_x);
    }

    #[test]
    fn digest_hex_round_trip(a in arb_digest()) {
        prop_assert_eq!(Digest::from_hex(&a.to_hex()), Some(a));
    }

    // --- hash functions -----------------------------------------------------

    /// Four `update`s split at three arbitrary points, so runs of whole
    /// blocks start both on and off a block boundary.
    #[test]
    fn sha1_streaming_equals_one_shot(data in prop::collection::vec(any::<u8>(), 0..=2048),
                                      cuts in (0usize..=2048, 0usize..=2048, 0usize..=2048)) {
        let mut h = Sha1::new();
        for part in split_at_cuts(&data, cuts) {
            h.update(part);
        }
        prop_assert_eq!(h.finalize(), Sha1::digest(&data));
    }

    #[test]
    fn sha256_streaming_equals_one_shot(data in prop::collection::vec(any::<u8>(), 0..=2048),
                                        cuts in (0usize..=2048, 0usize..=2048, 0usize..=2048)) {
        let mut h = Sha256::new();
        for part in split_at_cuts(&data, cuts) {
            h.update(part);
        }
        prop_assert_eq!(h.finalize_full(), Sha256::digest_full(&data));
    }

    #[test]
    fn hash_output_is_digest_len(data in prop::collection::vec(any::<u8>(), 0..256)) {
        for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            prop_assert_eq!(alg.hash(&data).as_bytes().len(), DIGEST_LEN);
        }
    }

    #[test]
    fn hmac_is_deterministic_and_key_sensitive(key in prop::collection::vec(any::<u8>(), 1..80),
                                               msg in prop::collection::vec(any::<u8>(), 0..128)) {
        let t1 = hmac(HashAlgorithm::Sha1, &key, &msg);
        let t2 = hmac(HashAlgorithm::Sha1, &key, &msg);
        prop_assert_eq!(t1, t2);
        let mut other_key = key.clone();
        other_key[0] ^= 1;
        prop_assert_ne!(t1, hmac(HashAlgorithm::Sha1, &other_key, &msg));
    }

    // --- big integer arithmetic --------------------------------------------

    #[test]
    fn bigint_add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let sum = BigUint::from_u64(a).add(&BigUint::from_u64(b));
        let expected = a as u128 + b as u128;
        prop_assert_eq!(sum.to_hex(), format!("{expected:x}"));
    }

    #[test]
    fn bigint_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let prod = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
        let expected = a as u128 * b as u128;
        if expected == 0 {
            prop_assert!(prod.is_zero());
        } else {
            prop_assert_eq!(prod.to_hex(), format!("{expected:x}"));
        }
    }

    #[test]
    fn bigint_div_rem_matches_u128(a in any::<u128>(), b in 1u128..) {
        let ab = BigUint::from_hex(&format!("{a:x}")).unwrap();
        let bb = BigUint::from_hex(&format!("{b:x}")).unwrap();
        let (q, r) = ab.div_rem(&bb);
        let (eq, er) = (a / b, a % b);
        if eq == 0 { prop_assert!(q.is_zero()); } else { prop_assert_eq!(q.to_hex(), format!("{eq:x}")); }
        if er == 0 { prop_assert!(r.is_zero()); } else { prop_assert_eq!(r.to_hex(), format!("{er:x}")); }
    }

    #[test]
    fn bigint_division_identity(a_bytes in prop::collection::vec(any::<u8>(), 1..48),
                                b_bytes in prop::collection::vec(any::<u8>(), 1..24)) {
        let a = BigUint::from_bytes_be(&a_bytes);
        let b = BigUint::from_bytes_be(&b_bytes);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn bigint_sub_add_round_trip(a_bytes in prop::collection::vec(any::<u8>(), 1..40),
                                 b_bytes in prop::collection::vec(any::<u8>(), 1..40)) {
        let a = BigUint::from_bytes_be(&a_bytes);
        let b = BigUint::from_bytes_be(&b_bytes);
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(hi.sub(&lo).add(&lo), hi);
    }

    #[test]
    fn bigint_bytes_round_trip(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let v = BigUint::from_bytes_be(&bytes);
        prop_assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
    }

    #[test]
    fn bigint_shift_round_trip(bytes in prop::collection::vec(any::<u8>(), 1..32), shift in 0usize..130) {
        let v = BigUint::from_bytes_be(&bytes);
        prop_assert_eq!(v.shl(shift).shr(shift), v);
    }

    #[test]
    fn mod_pow_agrees_with_u128_for_small_inputs(base in 1u64..1000, exp in 0u64..32, modulus in 2u64..100_000) {
        let expected = {
            let mut acc: u128 = 1;
            for _ in 0..exp {
                acc = acc * base as u128 % modulus as u128;
            }
            acc as u64
        };
        let got = BigUint::from_u64(base)
            .mod_pow(&BigUint::from_u64(exp), &BigUint::from_u64(modulus));
        prop_assert_eq!(got.to_u64(), Some(expected));
    }
}

/// Records packed back to back, as a record block lays them out: the bytes
/// and each record's end offset.
fn pack(records: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut ends = Vec::with_capacity(records.len());
    let mut bytes = Vec::new();
    for record in records {
        bytes.extend_from_slice(record);
        ends.push(bytes.len());
    }
    (bytes, ends)
}

/// The XOR of each record's own digest: what every fold must equal.
fn fold_each(alg: HashAlgorithm, records: &[Vec<u8>]) -> Digest {
    records
        .iter()
        .fold(Digest::ZERO, |acc, record| acc ^ alg.hash(record))
}

/// `fold_packed` over uniform blocks (every count 0..=40 of every length in
/// {0, 55, 64, 500}, so whole groups of sixteen and remainders), over the
/// same blocks made ragged (one record a byte shorter, at the front, inside
/// a group and at the end), and over the empty block, equals the XOR of the
/// per-record digests, for both algorithms.
#[test]
fn packed_fold_is_the_xor_of_the_record_digests() {
    for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
        for len in [0usize, 55, 64, 500] {
            for n in 0..=40usize {
                let records: Vec<Vec<u8>> = (0..n)
                    .map(|i| (0..len).map(|b| (i * 31 + b * 7) as u8).collect())
                    .collect();
                let (bytes, ends) = pack(&records);
                let want = fold_each(alg, &records);
                assert_eq!(alg.fold_packed(&bytes, &ends), want, "{n} x {len}");
                assert_eq!(alg.fold(&records), want, "{n} x {len}");
                if len == 0 {
                    continue;
                }
                for short in [0, 5, n.saturating_sub(1)] {
                    if short >= n {
                        continue;
                    }
                    let mut ragged = records.clone();
                    ragged[short].pop();
                    let (bytes, ends) = pack(&ragged);
                    assert_eq!(
                        alg.fold_packed(&bytes, &ends),
                        fold_each(alg, &ragged),
                        "{n} x {len}, record {short} short"
                    );
                }
            }
        }
        assert_eq!(alg.fold_packed(&[], &[]), Digest::ZERO);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocks of arbitrary lengths fold like their records one by one.
    #[test]
    fn packed_fold_matches_per_record_hashing(
        picks in prop::collection::vec(0usize..6, 0..=40),
        seed in any::<u8>(),
    ) {
        const LENS: [usize; 6] = [0, 3, 55, 56, 64, 500];
        let records: Vec<Vec<u8>> = picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| vec![seed ^ i as u8; LENS[pick]])
            .collect();
        let (bytes, ends) = pack(&records);
        for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            prop_assert_eq!(alg.fold_packed(&bytes, &ends), fold_each(alg, &records));
        }
    }
}
