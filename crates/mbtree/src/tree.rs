//! The MB-Tree: a Merkle-augmented B⁺-Tree.
//!
//! Structure and semantics follow the paper's description of the TOM
//! baseline: leaf entries carry record digests, internal entries carry the
//! digest of the child page they point to, and the digest of the root page is
//! what the data owner signs. All digests are maintained incrementally on
//! insert/delete along the affected root-to-leaf path, so updates cost
//! `O(log n)` node accesses exactly like the plain B⁺-Tree. The tree is
//! `sae_btree`'s shared [`AugTree`] under [`MerkleHash`]; this module adds
//! the verification object.

use crate::vo::{VerificationObject, VoItem};
use sae_btree::{AugEntry, AugTree, MerkleHash, NodeKind};
use sae_crypto::signer::SignatureBytes;
use sae_crypto::{Digest, HashAlgorithm};
use sae_storage::{PageId, SharedPageStore, StorageResult};
use sae_workload::{RangeQuery, RecordKey};
use std::ops::Deref;

/// A disk-based Merkle B⁺-Tree over `(key, record id, record digest)`
/// entries. Shape accessors, range scans, boundary search,
/// [`AugTree::root_digest`] (the value the data owner signs) and
/// `check_invariants` come from the [`AugTree`] it dereferences to.
pub struct MbTree(AugTree<MerkleHash>);

impl Deref for MbTree {
    type Target = AugTree<MerkleHash>;

    fn deref(&self) -> &AugTree<MerkleHash> {
        &self.0
    }
}

impl MbTree {
    /// Creates an empty MB-Tree.
    pub fn new(store: SharedPageStore, alg: HashAlgorithm) -> StorageResult<Self> {
        AugTree::new(store, MerkleHash(alg)).map(MbTree)
    }

    /// Bulk-loads from entries sorted by `(key, record id)`; each entry
    /// supplies the record digest the leaf level stores.
    pub fn bulk_load(
        store: SharedPageStore,
        alg: HashAlgorithm,
        entries: &[(RecordKey, u64, Digest)],
    ) -> StorageResult<Self> {
        let entry = |&(key, ptr, digest): &(RecordKey, u64, Digest)| AugEntry { key, ptr, digest };
        AugTree::bulk_load(store, MerkleHash(alg), entries, entry).map(MbTree)
    }

    /// The hash algorithm used for all digests in this tree.
    pub fn hash_algorithm(&self) -> HashAlgorithm {
        self.augment().0
    }

    /// Inserts a `(key, record id, record digest)` entry and updates all
    /// digests along the insertion path.
    pub fn insert(&mut self, key: RecordKey, rid: u64, digest: Digest) -> StorageResult<()> {
        self.0.insert(AugEntry {
            key,
            ptr: rid,
            digest,
        })
    }

    /// Deletes one entry matching `(key, record id)`, updating digests along
    /// the path. Returns `true` if an entry was removed.
    pub fn delete(&mut self, key: RecordKey, rid: u64) -> StorageResult<bool> {
        Ok(self.0.take(key, rid)?.is_some())
    }

    // ------------------------------------------------------- VO generation

    /// Generates the verification object for `q`.
    ///
    /// `fetch_record` maps a record id to the record's canonical binary
    /// encoding (the SP reads it from its dataset heap file); it is invoked
    /// only for the (at most two) boundary records. `signature` is the data
    /// owner's signature over the current root digest.
    pub fn generate_vo<F>(
        &self,
        q: &RangeQuery,
        fetch_record: F,
        signature: SignatureBytes,
    ) -> StorageResult<VerificationObject>
    where
        F: Fn(u64) -> Vec<u8>,
    {
        let pred = self.find_predecessor(q.lower)?;
        let succ = self.find_successor(q.upper)?;
        let ext_lower = pred.map(|(k, _)| k).unwrap_or(q.lower);
        let ext_upper = succ.map(|(k, _)| k).unwrap_or(q.upper);

        let mut items = Vec::new();
        self.build_vo(
            self.root(),
            q,
            ext_lower,
            ext_upper,
            pred,
            succ,
            &fetch_record,
            &mut items,
        )?;
        Ok(VerificationObject { items, signature })
    }

    #[allow(clippy::too_many_arguments)]
    fn build_vo<F>(
        &self,
        page_id: PageId,
        q: &RangeQuery,
        ext_lower: RecordKey,
        ext_upper: RecordKey,
        pred: Option<(RecordKey, u64)>,
        succ: Option<(RecordKey, u64)>,
        fetch_record: &F,
        items: &mut Vec<VoItem>,
    ) -> StorageResult<()>
    where
        F: Fn(u64) -> Vec<u8>,
    {
        let node = self.read_node(page_id)?;
        items.push(VoItem::NodeBegin);
        match node.kind {
            NodeKind::Leaf => {
                let mut run = 0u32;
                for e in &node.entries {
                    let is_pred = pred == Some((e.key, e.ptr));
                    let is_succ = succ == Some((e.key, e.ptr));
                    if !is_pred && !is_succ && q.contains(e.key) {
                        run += 1;
                        continue;
                    }
                    if run > 0 {
                        items.push(VoItem::ResultRun(run));
                        run = 0;
                    }
                    if is_pred || is_succ {
                        items.push(VoItem::BoundaryRecord(fetch_record(e.ptr)));
                    } else {
                        items.push(VoItem::Digest(e.digest));
                    }
                }
                if run > 0 {
                    items.push(VoItem::ResultRun(run));
                }
            }
            NodeKind::Internal => {
                for (i, e) in node.entries.iter().enumerate() {
                    let subtree_low = e.key;
                    let subtree_high = node
                        .entries
                        .get(i + 1)
                        .map(|n| n.key)
                        .unwrap_or(RecordKey::MAX);
                    let overlaps = subtree_low <= ext_upper && subtree_high >= ext_lower;
                    if overlaps {
                        self.build_vo(
                            e.child(),
                            q,
                            ext_lower,
                            ext_upper,
                            pred,
                            succ,
                            fetch_record,
                            items,
                        )?;
                    } else {
                        items.push(VoItem::Digest(e.digest));
                    }
                }
            }
        }
        items.push(VoItem::NodeEnd);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sae_storage::MemPager;
    use sae_workload::Record;

    fn rec(id: u64, key: RecordKey) -> Record {
        Record::with_size(id, key, 64)
    }

    fn entries_for(records: &[Record]) -> Vec<(RecordKey, u64, Digest)> {
        let alg = HashAlgorithm::Sha1;
        let mut out: Vec<(RecordKey, u64, Digest)> = records
            .iter()
            .map(|r| (r.key, r.id, r.digest(alg)))
            .collect();
        out.sort_by_key(|&(k, id, _)| (k, id));
        out
    }

    #[test]
    fn empty_tree_has_a_root_digest() {
        let tree = MbTree::new(MemPager::new_shared(), HashAlgorithm::Sha1).unwrap();
        assert!(tree.is_empty());
        // Digest of an empty page is the hash of the empty string.
        assert_eq!(tree.root_digest().unwrap(), HashAlgorithm::Sha1.hash(b""));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_and_range_match_oracle() {
        let records: Vec<Record> = (0..2_000u64)
            .map(|i| rec(i, (i * 7 % 5_000) as u32))
            .collect();
        let entries = entries_for(&records);
        let tree =
            MbTree::bulk_load(MemPager::new_shared(), HashAlgorithm::Sha1, &entries).unwrap();
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 2_000);

        let q = RangeQuery::new(1_000, 1_500);
        let got = tree.range(&q).unwrap();
        let expected: Vec<(RecordKey, u64)> = entries
            .iter()
            .filter(|(k, _, _)| q.contains(*k))
            .map(|&(k, id, _)| (k, id))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn incremental_inserts_match_bulk_load_root_digest() {
        let records: Vec<Record> = (0..800u64).map(|i| rec(i, (i % 300) as u32)).collect();
        let entries = entries_for(&records);

        let bulk =
            MbTree::bulk_load(MemPager::new_shared(), HashAlgorithm::Sha1, &entries).unwrap();

        let mut incremental = MbTree::new(MemPager::new_shared(), HashAlgorithm::Sha1).unwrap();
        for &(k, id, d) in &entries {
            incremental.insert(k, id, d).unwrap();
        }
        incremental.check_invariants().unwrap();

        // Same logical content => same query answers. (Root digests may differ
        // because node boundaries differ between bulk loading and splits.)
        for q in [RangeQuery::new(0, 300), RangeQuery::new(100, 110)] {
            assert_eq!(bulk.range(&q).unwrap(), incremental.range(&q).unwrap());
        }
    }

    #[test]
    fn insert_updates_root_digest() {
        let mut tree = MbTree::new(MemPager::new_shared(), HashAlgorithm::Sha1).unwrap();
        let r1 = rec(1, 10);
        let r2 = rec(2, 20);
        tree.insert(r1.key, r1.id, r1.digest(HashAlgorithm::Sha1))
            .unwrap();
        let d1 = tree.root_digest().unwrap();
        tree.insert(r2.key, r2.id, r2.digest(HashAlgorithm::Sha1))
            .unwrap();
        let d2 = tree.root_digest().unwrap();
        assert_ne!(d1, d2);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn digests_stay_consistent_across_splits() {
        let mut tree = MbTree::new(MemPager::new_shared(), HashAlgorithm::Sha1).unwrap();
        let n = 3 * sae_btree::AUG_CAPACITY as u64 + 17;
        for i in 0..n {
            let r = rec(i, (i % 977) as u32);
            tree.insert(r.key, r.id, r.digest(HashAlgorithm::Sha1))
                .unwrap();
        }
        assert!(tree.height() >= 2);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn delete_maintains_digests_and_content() {
        let records: Vec<Record> = (0..500u64).map(|i| rec(i, (i % 100) as u32)).collect();
        let entries = entries_for(&records);
        let store = MemPager::new_shared();
        let mut tree = MbTree::bulk_load(store, HashAlgorithm::Sha1, &entries).unwrap();

        let before = tree.root_digest().unwrap();
        assert!(tree.delete(records[42].key, records[42].id).unwrap());
        assert!(!tree.delete(records[42].key, records[42].id).unwrap());
        let after = tree.root_digest().unwrap();
        assert_ne!(before, after);
        assert_eq!(tree.len(), 499);
        tree.check_invariants().unwrap();

        let q = RangeQuery::new(records[42].key, records[42].key);
        assert!(!tree
            .range(&q)
            .unwrap()
            .iter()
            .any(|&(_, id)| id == records[42].id));
    }

    #[test]
    fn delete_everything_then_reuse() {
        let records: Vec<Record> = (0..300u64).map(|i| rec(i, i as u32)).collect();
        let entries = entries_for(&records);
        let mut tree =
            MbTree::bulk_load(MemPager::new_shared(), HashAlgorithm::Sha1, &entries).unwrap();
        for r in &records {
            assert!(tree.delete(r.key, r.id).unwrap());
        }
        assert!(tree.is_empty());
        tree.check_invariants().unwrap();
        let r = rec(1000, 5);
        tree.insert(r.key, r.id, r.digest(HashAlgorithm::Sha1))
            .unwrap();
        assert_eq!(
            tree.range(&RangeQuery::new(0, 10)).unwrap(),
            vec![(5, 1000)]
        );
    }

    #[test]
    fn predecessor_and_successor_queries() {
        let records: Vec<Record> = [10u32, 20, 20, 30, 40]
            .iter()
            .enumerate()
            .map(|(i, &k)| rec(i as u64, k))
            .collect();
        let entries = entries_for(&records);
        let tree =
            MbTree::bulk_load(MemPager::new_shared(), HashAlgorithm::Sha1, &entries).unwrap();

        assert_eq!(tree.find_predecessor(10).unwrap(), None);
        assert_eq!(tree.find_predecessor(15).unwrap(), Some((10, 0)));
        assert_eq!(tree.find_predecessor(21).unwrap(), Some((20, 2)));
        assert_eq!(tree.find_successor(40).unwrap(), None);
        assert_eq!(tree.find_successor(30).unwrap(), Some((40, 4)));
        assert_eq!(tree.find_successor(10).unwrap(), Some((20, 1)));
        assert_eq!(tree.find_successor(0).unwrap(), Some((10, 0)));
    }

    #[test]
    fn predecessor_successor_on_larger_random_tree() {
        let mut rng = StdRng::seed_from_u64(5);
        let records: Vec<Record> = (0..3_000u64)
            .map(|i| rec(i, rng.gen_range(0..10_000u32)))
            .collect();
        let entries = entries_for(&records);
        let tree =
            MbTree::bulk_load(MemPager::new_shared(), HashAlgorithm::Sha1, &entries).unwrap();

        for bound in [0u32, 1, 57, 5_000, 9_999, 10_000] {
            let pred = tree.find_predecessor(bound).unwrap();
            let expected_pred = entries
                .iter()
                .filter(|(k, _, _)| *k < bound)
                .map(|&(k, id, _)| (k, id))
                .next_back();
            assert_eq!(pred, expected_pred, "pred of {bound}");

            let succ = tree.find_successor(bound).unwrap();
            let expected_succ = entries
                .iter()
                .filter(|(k, _, _)| *k > bound)
                .map(|&(k, id, _)| (k, id))
                .next();
            assert_eq!(succ, expected_succ, "succ of {bound}");
        }
    }

    #[test]
    fn stats_report_shape() {
        let records: Vec<Record> = (0..1_000u64).map(|i| rec(i, i as u32)).collect();
        let entries = entries_for(&records);
        let tree =
            MbTree::bulk_load(MemPager::new_shared(), HashAlgorithm::Sha1, &entries).unwrap();
        let meta = tree.meta();
        assert_eq!(meta.len, 1_000);
        // 1000 / 127 = 8 leaves + 1 root.
        assert_eq!(meta.node_count, 9);
        assert_eq!(meta.height, 2);
        assert_eq!(tree.storage_bytes(), 9 * sae_storage::PAGE_SIZE as u64);
    }
}
