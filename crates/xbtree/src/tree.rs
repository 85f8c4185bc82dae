//! The XB-Tree and its `GenerateVT` traversal.

use sae_btree::{AugEntry, AugTree, NodeKind, XorFold};
use sae_crypto::Digest;
use sae_storage::{PageId, SharedPageStore, StorageResult, TreeMeta};
use sae_workload::{RangeQuery, RecordKey, TeTuple};
use std::ops::Deref;

/// The verification token: the XOR of the digests of every record that
/// qualifies the query. Always exactly 20 bytes, independent of result size.
pub type VerificationToken = Digest;

/// A disk-based XOR B-Tree over the trusted entity's tuples: the shared
/// [`AugTree`] under [`XorFold`], whose leaf entries are TE tuples
/// `(key, id, digest)`. Shape accessors (`len`, `height`, `meta`,
/// `storage_bytes`, `check_invariants`, ...) come from the [`AugTree`] it
/// dereferences to.
pub struct XbTree(AugTree<XorFold>);

impl Deref for XbTree {
    type Target = AugTree<XorFold>;

    fn deref(&self) -> &AugTree<XorFold> {
        &self.0
    }
}

fn tuple_entry(t: &TeTuple) -> AugEntry {
    AugEntry {
        key: t.key,
        ptr: t.id,
        digest: t.digest,
    }
}

impl XbTree {
    /// Creates an empty XB-Tree.
    pub fn new(store: SharedPageStore) -> StorageResult<Self> {
        AugTree::new(store, XorFold).map(XbTree)
    }

    /// Bulk-loads from TE tuples sorted by `(key, id)`.
    pub fn bulk_load(store: SharedPageStore, tuples: &[TeTuple]) -> StorageResult<Self> {
        AugTree::bulk_load(store, XorFold, tuples, tuple_entry).map(XbTree)
    }

    /// Reopens a tree from its persisted root and shape (as recorded in a
    /// deployment manifest) instead of rebuilding it from the tuple set.
    /// Only cheap sanity checks run here; the trusted entity additionally
    /// cross-checks [`XbTree::total_xor`] against its published digest.
    pub fn open(store: SharedPageStore, meta: TreeMeta) -> StorageResult<Self> {
        AugTree::open(store, XorFold, meta).map(XbTree)
    }

    /// The XOR of every tuple digest in the tree (useful for consistency
    /// checks: it must stay equal to the XOR of all inserted minus deleted
    /// digests).
    pub fn total_xor(&self) -> StorageResult<Digest> {
        self.0.root_digest()
    }

    // ---------------------------------------------------------- GenerateVT

    /// Computes the verification token for `q` — the paper's `GenerateVT`.
    ///
    /// Entries whose subtree is entirely inside the query range contribute
    /// their `X` aggregate without being descended into; entries whose range
    /// partially overlaps are recursed; everything else is skipped. The
    /// traversal therefore touches only the two boundary paths, i.e.
    /// `O(log n)` nodes independent of the result cardinality.
    pub fn generate_vt(&self, q: &RangeQuery) -> StorageResult<VerificationToken> {
        let mut vt = Digest::ZERO;
        self.generate_vt_rec(self.root(), q, &mut vt)?;
        Ok(vt)
    }

    fn generate_vt_rec(
        &self,
        page_id: PageId,
        q: &RangeQuery,
        vt: &mut Digest,
    ) -> StorageResult<()> {
        let node = self.read_node(page_id)?;
        match node.kind {
            NodeKind::Leaf => {
                for e in &node.entries {
                    if q.contains(e.key) {
                        *vt ^= e.digest;
                    }
                }
            }
            NodeKind::Internal => {
                for (i, e) in node.entries.iter().enumerate() {
                    // The subtree below entry i holds keys in
                    // [e.key, next entry's key] (closed: duplicates may equal
                    // the next minimum).
                    let low = e.key;
                    let high = node
                        .entries
                        .get(i + 1)
                        .map(|n| n.key)
                        .unwrap_or(RecordKey::MAX);
                    if low > q.upper || high < q.lower {
                        continue; // disjoint
                    }
                    if low >= q.lower && high <= q.upper {
                        // Fully covered: use the pre-aggregated X value
                        // (lines 2-3 of the paper's Figure 4).
                        *vt ^= e.digest;
                    } else {
                        // Partial overlap: recurse (lines 6-8).
                        self.generate_vt_rec(e.child(), q, vt)?;
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------- updates

    /// Inserts a TE tuple, patching the XOR aggregates along the path.
    pub fn insert(&mut self, tuple: TeTuple) -> StorageResult<()> {
        self.0.insert(tuple_entry(&tuple))
    }

    /// Deletes the tuple with the given `(key, id)`, patching the XOR
    /// aggregates along the path. Returns `true` if a tuple was removed.
    pub fn delete(&mut self, key: RecordKey, id: u64) -> StorageResult<bool> {
        Ok(self.take(key, id)?.is_some())
    }

    /// Like [`XbTree::delete`], but returns the removed tuple's digest so a
    /// caller coordinating multiple parties can re-insert the tuple to roll
    /// the deletion back. Returns `Ok(None)` if no tuple matched.
    pub fn take(&mut self, key: RecordKey, id: u64) -> StorageResult<Option<Digest>> {
        self.0.take(key, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sae_crypto::HashAlgorithm;
    use sae_storage::MemPager;
    use sae_workload::Record;

    const ALG: HashAlgorithm = HashAlgorithm::Sha1;

    fn tuples(n: u64, key_fn: impl Fn(u64) -> u32) -> Vec<TeTuple> {
        let mut out: Vec<TeTuple> = (0..n)
            .map(|i| Record::with_size(i, key_fn(i), 64).te_tuple(ALG))
            .collect();
        out.sort_by_key(|t| (t.key, t.id));
        out
    }

    fn oracle_vt(tuples: &[TeTuple], q: &RangeQuery) -> Digest {
        let mut vt = Digest::ZERO;
        for t in tuples {
            if q.contains(t.key) {
                vt ^= t.digest;
            }
        }
        vt
    }

    #[test]
    fn empty_tree_yields_zero_token() {
        let tree = XbTree::new(MemPager::new_shared()).unwrap();
        assert!(tree.is_empty());
        assert_eq!(
            tree.generate_vt(&RangeQuery::new(0, 100)).unwrap(),
            Digest::ZERO
        );
        tree.check_invariants().unwrap();
    }

    #[test]
    fn bulk_loaded_vt_matches_brute_force() {
        let ts = tuples(5_000, |i| (i * 13 % 20_000) as u32);
        let tree = XbTree::bulk_load(MemPager::new_shared(), &ts).unwrap();
        tree.check_invariants().unwrap();

        for (lo, hi) in [
            (0u32, 20_000u32),
            (0, 0),
            (500, 1_500),
            (19_000, 19_999),
            (7, 7),
        ] {
            let q = RangeQuery::new(lo, hi);
            assert_eq!(
                tree.generate_vt(&q).unwrap(),
                oracle_vt(&ts, &q),
                "query [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn paper_example_figure_3() {
        // The running example of §III: 14 tuples with keys
        // {1,3,3,6,6,12,13,15,18,18,20,23,23,25} and query [5, 17] whose VT is
        // t4.h ⊕ t5.h ⊕ t6.h ⊕ t7.h ⊕ t8.h (1-indexed tuples).
        let keys = [1u32, 3, 3, 6, 6, 12, 13, 15, 18, 18, 20, 23, 23, 25];
        let ts: Vec<TeTuple> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Record::with_size(i as u64 + 1, k, 64).te_tuple(ALG))
            .collect();
        let tree = XbTree::bulk_load(MemPager::new_shared(), &ts).unwrap();
        let vt = tree.generate_vt(&RangeQuery::new(5, 17)).unwrap();
        let expected = ts[3].digest ^ ts[4].digest ^ ts[5].digest ^ ts[6].digest ^ ts[7].digest;
        assert_eq!(vt, expected);
    }

    #[test]
    fn incremental_inserts_match_bulk_load() {
        let ts = tuples(2_000, |i| (i * 7 % 5_000) as u32);
        let bulk = XbTree::bulk_load(MemPager::new_shared(), &ts).unwrap();
        let mut incremental = XbTree::new(MemPager::new_shared()).unwrap();
        for t in &ts {
            incremental.insert(*t).unwrap();
        }
        incremental.check_invariants().unwrap();
        assert_eq!(incremental.len(), bulk.len());
        assert_eq!(incremental.total_xor().unwrap(), bulk.total_xor().unwrap());
        for (lo, hi) in [(0u32, 5_000u32), (100, 300), (4_900, 5_000)] {
            let q = RangeQuery::new(lo, hi);
            assert_eq!(
                incremental.generate_vt(&q).unwrap(),
                bulk.generate_vt(&q).unwrap()
            );
        }
    }

    #[test]
    fn open_from_meta_serves_identical_tokens_without_rebuilding() {
        let store = MemPager::new_shared();
        let ts = tuples(3_000, |i| (i * 11 % 9_000) as u32);
        let mut tree = XbTree::bulk_load(store.clone(), &ts).unwrap();
        tree.insert(Record::with_size(100_000, 4_444, 64).te_tuple(ALG))
            .unwrap();
        let meta = tree.meta();
        assert_eq!(meta.root, tree.root());
        let total = tree.total_xor().unwrap();
        drop(tree);

        let writes_before = store.stats().snapshot().node_writes;
        let reopened = XbTree::open(store.clone(), meta).unwrap();
        assert_eq!(store.stats().snapshot().node_writes, writes_before);
        assert_eq!(reopened.meta(), meta);
        assert_eq!(reopened.total_xor().unwrap(), total);
        reopened.check_invariants().unwrap();
        let q = RangeQuery::new(1_000, 5_000);
        let mut oracle = oracle_vt(&ts, &q);
        oracle ^= Record::with_size(100_000, 4_444, 64).te_tuple(ALG).digest;
        assert_eq!(reopened.generate_vt(&q).unwrap(), oracle);

        // Nonsense metadata is rejected with a typed error.
        assert!(XbTree::open(
            store.clone(),
            sae_storage::TreeMeta {
                root: PageId::INVALID,
                ..meta
            }
        )
        .is_err());
        assert!(XbTree::open(
            store,
            sae_storage::TreeMeta {
                node_count: 0,
                ..meta
            }
        )
        .is_err());
    }

    #[test]
    fn inserts_splits_keep_aggregates_consistent() {
        let mut tree = XbTree::new(MemPager::new_shared()).unwrap();
        let n = 3 * sae_btree::AUG_CAPACITY as u64 + 11;
        let ts = tuples(n, |i| (i % 997) as u32);
        for t in &ts {
            tree.insert(*t).unwrap();
        }
        assert!(tree.height() >= 2);
        tree.check_invariants().unwrap();
        let q = RangeQuery::new(100, 400);
        assert_eq!(tree.generate_vt(&q).unwrap(), oracle_vt(&ts, &q));
    }

    #[test]
    fn deletes_patch_aggregates() {
        let ts = tuples(1_000, |i| (i % 300) as u32);
        let mut tree = XbTree::bulk_load(MemPager::new_shared(), &ts).unwrap();

        let mut remaining = ts.clone();
        // Delete every third tuple.
        let victims: Vec<TeTuple> = ts.iter().step_by(3).copied().collect();
        for v in &victims {
            assert!(tree.delete(v.key, v.id).unwrap());
            assert!(!tree.delete(v.key, v.id).unwrap());
        }
        remaining.retain(|t| !victims.iter().any(|v| v.id == t.id));
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), remaining.len() as u64);

        for (lo, hi) in [(0u32, 300u32), (10, 20), (250, 299)] {
            let q = RangeQuery::new(lo, hi);
            assert_eq!(tree.generate_vt(&q).unwrap(), oracle_vt(&remaining, &q));
        }
    }

    #[test]
    fn delete_everything_then_reuse() {
        let ts = tuples(400, |i| i as u32);
        let mut tree = XbTree::bulk_load(MemPager::new_shared(), &ts).unwrap();
        for t in &ts {
            assert!(tree.delete(t.key, t.id).unwrap());
        }
        assert!(tree.is_empty());
        assert_eq!(tree.total_xor().unwrap(), Digest::ZERO);
        tree.check_invariants().unwrap();
        tree.insert(ts[0]).unwrap();
        assert_eq!(
            tree.generate_vt(&RangeQuery::new(0, 10)).unwrap(),
            ts[0].digest
        );
    }

    #[test]
    fn mixed_workload_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(1234);
        let mut tree = XbTree::new(MemPager::new_shared()).unwrap();
        let mut live: Vec<TeTuple> = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..3_000 {
            if rng.gen_bool(0.7) || live.is_empty() {
                let t = Record::with_size(next_id, rng.gen_range(0..3_000u32), 64).te_tuple(ALG);
                tree.insert(t).unwrap();
                live.push(t);
                next_id += 1;
            } else {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(tree.delete(victim.key, victim.id).unwrap());
            }
        }
        tree.check_invariants().unwrap();
        for _ in 0..40 {
            let a = rng.gen_range(0..3_000u32);
            let b = rng.gen_range(0..3_000u32);
            let q = RangeQuery::new(a, b);
            assert_eq!(tree.generate_vt(&q).unwrap(), oracle_vt(&live, &q));
        }
    }

    #[test]
    fn vt_generation_touches_logarithmically_many_nodes() {
        let store = MemPager::new_shared();
        let ts = tuples(100_000, |i| (i % 1_000_000) as u32 * 7);
        let tree = XbTree::bulk_load(store.clone(), &ts).unwrap();

        // A wide query covering ~half of the tuples.
        let q = RangeQuery::new(0, 3_500_000);
        let before = store.stats().snapshot();
        let vt = tree.generate_vt(&q).unwrap();
        let delta = store.stats().snapshot().delta_since(&before);
        assert_eq!(vt, oracle_vt(&ts, &q));

        // Two boundary paths of height() nodes each is the paper's bound;
        // allow a little slack for the root being shared.
        assert!(
            delta.node_reads <= 2 * tree.height() as u64 + 2,
            "VT generation read {} nodes for a tree of height {}",
            delta.node_reads,
            tree.height()
        );
    }

    #[test]
    fn storage_is_a_small_fraction_of_the_dataset() {
        // 10k records of 500 bytes = ~5 MB of data; the TE keeps ~32 bytes per
        // record plus tree overhead, i.e. well under a sixth of the dataset.
        let ts = tuples(10_000, |i| (i % 100_000) as u32);
        let tree = XbTree::bulk_load(MemPager::new_shared(), &ts).unwrap();
        let dataset_bytes = 10_000u64 * 500;
        assert!(tree.storage_bytes() * 6 < dataset_bytes);
        assert_eq!(tree.len(), 10_000);
        // 79 full leaves (127 tuples each) under one root.
        assert_eq!(tree.node_count(), 80);
        assert_eq!(tree.storage_bytes(), 80 * sae_storage::PAGE_SIZE as u64);
    }
}
