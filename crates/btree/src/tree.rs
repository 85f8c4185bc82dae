//! The disk-based B⁺-Tree.
//!
//! Supports bulk loading from sorted data (how the DO's initial dataset is
//! indexed), single-record insertion and deletion (how updates are applied),
//! and inclusive range scans (how queries are answered). Every page touched
//! goes through the [`sae_storage::PageStore`], so the attached
//! [`sae_storage::IoStats`] sees exactly the node accesses the paper's cost
//! model charges for.
//!
//! Deletion removes entries in place and collapses nodes that become empty;
//! it does not rebalance under-full siblings. This keeps the structure correct
//! (queries and invariants hold for any interleaving of operations) at the
//! cost of a possibly lower occupancy after massive deletions — the same
//! trade-off [`crate::AugTree`] makes for the MB-Tree and XB-Tree, so
//! comparative results are unaffected.

use crate::node::{BTreeNode, NodeKind, INTERNAL_CAPACITY, LEAF_CAPACITY};
use sae_storage::{PageId, SharedPageStore, StorageError, StorageResult, TreeMeta, PAGE_SIZE};
use sae_workload::{RangeQuery, RecordKey};

/// Rejects persisted tree metadata that cannot describe a tree on `store`
/// (`what` names the tree in the error).
pub(crate) fn check_meta(
    store: &SharedPageStore,
    meta: &TreeMeta,
    what: &str,
) -> StorageResult<()> {
    if meta.root.is_invalid() || meta.root.0 >= store.page_count() {
        return Err(StorageError::Corrupted(format!(
            "{what} root {} outside the store's {} pages",
            meta.root,
            store.page_count()
        )));
    }
    if meta.height == 0 || meta.node_count == 0 {
        return Err(StorageError::Corrupted(format!(
            "{what} meta claims zero height or zero nodes"
        )));
    }
    Ok(())
}

/// A disk-based B⁺-Tree mapping search keys to record ids.
pub struct BPlusTree {
    store: SharedPageStore,
    root: PageId,
    height: u32,
    len: u64,
    node_count: u64,
}

impl BPlusTree {
    /// Creates an empty tree on the given page store.
    pub fn new(store: SharedPageStore) -> StorageResult<Self> {
        let root = store.allocate()?;
        let node = BTreeNode::new_leaf();
        store.write(root, &node.to_page())?;
        Ok(BPlusTree {
            store,
            root,
            height: 1,
            len: 0,
            node_count: 1,
        })
    }

    /// Bulk-loads a tree from entries sorted by `(key, record id)`.
    ///
    /// Panics if the entries are not sorted — bulk loading is only used for
    /// the initial dataset, which the data owner ships sorted by search key.
    pub fn bulk_load(store: SharedPageStore, entries: &[(RecordKey, u64)]) -> StorageResult<Self> {
        assert!(
            entries.windows(2).all(|w| w[0] <= w[1]),
            "bulk_load requires entries sorted by (key, record id)"
        );
        if entries.is_empty() {
            return Self::new(store);
        }

        let mut node_count = 0u64;

        // Build the leaf level. Pages are allocated up-front so each leaf can
        // point to its successor.
        let leaf_chunks: Vec<&[(RecordKey, u64)]> = entries.chunks(LEAF_CAPACITY).collect();
        let mut leaf_pages = Vec::with_capacity(leaf_chunks.len());
        for _ in 0..leaf_chunks.len() {
            leaf_pages.push(store.allocate()?);
        }
        let mut level: Vec<(RecordKey, PageId)> = Vec::with_capacity(leaf_chunks.len());
        for (i, chunk) in leaf_chunks.iter().enumerate() {
            let mut node = BTreeNode::new_leaf();
            node.leaf_entries = chunk.to_vec();
            node.next_leaf = if i + 1 < leaf_pages.len() {
                leaf_pages[i + 1]
            } else {
                PageId::INVALID
            };
            store.write(leaf_pages[i], &node.to_page())?;
            node_count += 1;
            level.push((chunk[0].0, leaf_pages[i]));
        }

        // Build internal levels bottom-up until a single root remains.
        let mut height = 1u32;
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len() / INTERNAL_CAPACITY + 1);
            for group in level.chunks(INTERNAL_CAPACITY + 1) {
                let mut node = BTreeNode::new_internal(group[0].1);
                node.internal_entries = group[1..].iter().map(|(k, p)| (*k, *p)).collect();
                let page_id = store.allocate()?;
                store.write(page_id, &node.to_page())?;
                node_count += 1;
                next_level.push((group[0].0, page_id));
            }
            level = next_level;
            height += 1;
        }

        Ok(BPlusTree {
            store,
            root: level[0].1,
            height,
            len: entries.len() as u64,
            node_count,
        })
    }

    /// Reopens a tree from its persisted root and shape (as recorded in a
    /// deployment manifest) instead of rebuilding it from data. Only cheap
    /// sanity checks run here — deeper integrity is the caller's job (the
    /// SAE trusted entity cross-checks its published digest; the service
    /// provider's results are checked by client verification).
    pub fn open(store: SharedPageStore, meta: TreeMeta) -> StorageResult<Self> {
        check_meta(&store, &meta, "B+-Tree")?;
        Ok(BPlusTree {
            store,
            root: meta.root,
            height: meta.height,
            len: meta.len,
            node_count: meta.node_count,
        })
    }

    /// The page store this tree lives on.
    pub fn store(&self) -> &SharedPageStore {
        &self.store
    }

    /// The root page (persisted by durable deployments so the tree can be
    /// reopened with [`BPlusTree::open`]).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// The tree's persistable root + shape metadata.
    pub fn meta(&self) -> TreeMeta {
        TreeMeta {
            root: self.root,
            height: self.height,
            len: self.len,
            node_count: self.node_count,
        }
    }

    /// Number of entries in the tree.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree contains no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of nodes (pages) in the tree.
    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    /// Bytes occupied by the tree's pages.
    pub fn storage_bytes(&self) -> u64 {
        self.node_count * PAGE_SIZE as u64
    }

    fn read_node(&self, id: PageId) -> StorageResult<BTreeNode> {
        BTreeNode::from_page(&self.store.read(id)?)
    }

    fn write_node(&self, id: PageId, node: &BTreeNode) -> StorageResult<()> {
        self.store.write(id, &node.to_page())
    }

    // ---------------------------------------------------------------- range

    /// Returns all `(key, record id)` entries with `q.lower <= key <= q.upper`,
    /// sorted by `(key, record id)`.
    pub fn range(&self, q: &RangeQuery) -> StorageResult<Vec<(RecordKey, u64)>> {
        let mut out = Vec::new();
        // Descend to the leftmost leaf that may contain the lower bound.
        let mut current = self.root;
        for _ in 1..self.height {
            let node = self.read_node(current)?;
            let idx = node.child_index_for_lower_bound(q.lower);
            current = node.child_at(idx);
        }
        // Scan the leaf chain.
        loop {
            let node = self.read_node(current)?;
            debug_assert_eq!(node.kind, NodeKind::Leaf);
            for &(key, rid) in &node.leaf_entries {
                if key > q.upper {
                    return Ok(out);
                }
                if key >= q.lower {
                    out.push((key, rid));
                }
            }
            if node.next_leaf.is_invalid() {
                return Ok(out);
            }
            current = node.next_leaf;
        }
    }

    /// Record ids of all entries in the range, in `(key, record id)` order.
    pub fn range_record_ids(&self, q: &RangeQuery) -> StorageResult<Vec<u64>> {
        Ok(self.range(q)?.into_iter().map(|(_, rid)| rid).collect())
    }

    // --------------------------------------------------------------- insert

    /// Inserts a `(key, record id)` entry. Duplicate keys (and even duplicate
    /// pairs) are allowed.
    pub fn insert(&mut self, key: RecordKey, rid: u64) -> StorageResult<()> {
        if let Some((sep, right)) = self.insert_rec(self.root, key, rid)? {
            // Root split: grow the tree by one level.
            let mut new_root = BTreeNode::new_internal(self.root);
            new_root.internal_entries.push((sep, right));
            let new_root_id = self.store.allocate()?;
            self.write_node(new_root_id, &new_root)?;
            self.root = new_root_id;
            self.height += 1;
            self.node_count += 1;
        }
        self.len += 1;
        Ok(())
    }

    /// Recursive insert; returns `Some((separator, new right sibling))` if the
    /// child split.
    fn insert_rec(
        &mut self,
        page_id: PageId,
        key: RecordKey,
        rid: u64,
    ) -> StorageResult<Option<(RecordKey, PageId)>> {
        let mut node = self.read_node(page_id)?;
        match node.kind {
            NodeKind::Leaf => {
                let pos = node.leaf_entries.partition_point(|&e| e <= (key, rid));
                node.leaf_entries.insert(pos, (key, rid));
                if node.leaf_entries.len() <= LEAF_CAPACITY {
                    self.write_node(page_id, &node)?;
                    return Ok(None);
                }
                // Split: right half moves to a new page.
                let mid = node.leaf_entries.len() / 2;
                let right_entries = node.leaf_entries.split_off(mid);
                let sep = right_entries[0].0;
                let right_id = self.store.allocate()?;
                let mut right = BTreeNode::new_leaf();
                right.leaf_entries = right_entries;
                right.next_leaf = node.next_leaf;
                node.next_leaf = right_id;
                self.write_node(right_id, &right)?;
                self.write_node(page_id, &node)?;
                self.node_count += 1;
                Ok(Some((sep, right_id)))
            }
            NodeKind::Internal => {
                let idx = node.child_index_for_insert(key);
                let child = node.child_at(idx);
                let Some((sep, new_child)) = self.insert_rec(child, key, rid)? else {
                    return Ok(None);
                };
                node.internal_entries.insert(idx, (sep, new_child));
                if node.internal_entries.len() <= INTERNAL_CAPACITY {
                    self.write_node(page_id, &node)?;
                    return Ok(None);
                }
                // Split the internal node: the middle separator moves up.
                let mid = node.internal_entries.len() / 2;
                let mut right_entries = node.internal_entries.split_off(mid);
                let (up_key, right_leftmost) = right_entries.remove(0);
                let right_id = self.store.allocate()?;
                let mut right = BTreeNode::new_internal(right_leftmost);
                right.internal_entries = right_entries;
                self.write_node(right_id, &right)?;
                self.write_node(page_id, &node)?;
                self.node_count += 1;
                Ok(Some((up_key, right_id)))
            }
        }
    }

    // --------------------------------------------------------------- delete

    /// Deletes one entry matching `(key, record id)`. Returns `true` if an
    /// entry was removed.
    pub fn delete(&mut self, key: RecordKey, rid: u64) -> StorageResult<bool> {
        let (removed, root_empty) = self.delete_rec(self.root, key, rid)?;
        if removed {
            self.len -= 1;
        }
        if root_empty {
            // The whole tree is empty: reset to a single empty leaf root.
            self.write_node(self.root, &BTreeNode::new_leaf())?;
            self.height = 1;
            self.node_count = 1;
        } else {
            // If the root is an internal node with a single child, collapse it.
            loop {
                let node = self.read_node(self.root)?;
                if node.kind == NodeKind::Internal && node.internal_entries.is_empty() {
                    self.root = node.leftmost_child;
                    self.height -= 1;
                    self.node_count -= 1;
                } else {
                    break;
                }
            }
        }
        Ok(removed)
    }

    /// Recursive delete; returns `(removed, node_became_empty)`.
    fn delete_rec(
        &mut self,
        page_id: PageId,
        key: RecordKey,
        rid: u64,
    ) -> StorageResult<(bool, bool)> {
        let mut node = self.read_node(page_id)?;
        match node.kind {
            NodeKind::Leaf => {
                let Some(pos) = node.leaf_entries.iter().position(|&e| e == (key, rid)) else {
                    return Ok((false, false));
                };
                node.leaf_entries.remove(pos);
                let empty = node.leaf_entries.is_empty();
                self.write_node(page_id, &node)?;
                Ok((true, empty))
            }
            NodeKind::Internal => {
                let mut idx = node.child_index_for_lower_bound(key);
                loop {
                    let child = node.child_at(idx);
                    let (removed, child_empty) = self.delete_rec(child, key, rid)?;
                    if removed {
                        if child_empty {
                            self.remove_child(&mut node, idx);
                            self.node_count -= 1;
                            let empty = node.internal_entries.is_empty()
                                && node.leftmost_child.is_invalid();
                            self.write_node(page_id, &node)?;
                            return Ok((true, empty));
                        }
                        return Ok((true, false));
                    }
                    // The key may continue into the next child if the next
                    // separator does not exceed it.
                    if idx < node.internal_entries.len() && node.internal_entries[idx].0 <= key {
                        idx += 1;
                    } else {
                        return Ok((false, false));
                    }
                }
            }
        }
    }

    /// Removes the child at `idx` from an internal node, keeping the remaining
    /// children ordered. Leaves the node marked "empty" (invalid leftmost
    /// child, no entries) if its last child is removed.
    fn remove_child(&self, node: &mut BTreeNode, idx: usize) {
        if idx == 0 {
            if node.internal_entries.is_empty() {
                node.leftmost_child = PageId::INVALID;
            } else {
                let (_, first_child) = node.internal_entries.remove(0);
                node.leftmost_child = first_child;
            }
        } else {
            node.internal_entries.remove(idx - 1);
        }
    }

    // ----------------------------------------------------------- invariants

    /// Exhaustively checks structural invariants; panics on violation.
    ///
    /// Intended for tests: sorted nodes, consistent leaf chain, uniform leaf
    /// depth, separator bounds respected and entry count consistency.
    pub fn check_invariants(&self) -> StorageResult<()> {
        let mut leaf_pages = Vec::new();
        let mut entry_total = 0u64;
        let mut node_total = 0u64;
        self.check_node(
            self.root,
            1,
            None,
            None,
            &mut leaf_pages,
            &mut entry_total,
            &mut node_total,
        )?;
        assert_eq!(entry_total, self.len, "entry count mismatch");
        assert_eq!(node_total, self.node_count, "node count mismatch");

        // The in-order leaf pages must form exactly the next_leaf chain.
        for w in leaf_pages.windows(2) {
            let left = self.read_node(w[0])?;
            assert_eq!(left.next_leaf, w[1], "broken leaf chain");
        }
        if let Some(last) = leaf_pages.last() {
            let node = self.read_node(*last)?;
            assert!(node.next_leaf.is_invalid(), "last leaf must end the chain");
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn check_node(
        &self,
        page_id: PageId,
        depth: u32,
        lower: Option<RecordKey>,
        upper: Option<RecordKey>,
        leaf_pages: &mut Vec<PageId>,
        entry_total: &mut u64,
        node_total: &mut u64,
    ) -> StorageResult<()> {
        *node_total += 1;
        let node = self.read_node(page_id)?;
        match node.kind {
            NodeKind::Leaf => {
                assert_eq!(depth, self.height, "leaf at wrong depth");
                assert!(
                    node.leaf_entries.windows(2).all(|w| w[0] <= w[1]),
                    "leaf entries out of order"
                );
                for &(key, _) in &node.leaf_entries {
                    if let Some(lo) = lower {
                        assert!(key >= lo, "leaf key below separator bound");
                    }
                    if let Some(hi) = upper {
                        assert!(key <= hi, "leaf key above separator bound");
                    }
                }
                *entry_total += node.leaf_entries.len() as u64;
                leaf_pages.push(page_id);
            }
            NodeKind::Internal => {
                assert!(depth < self.height, "internal node at leaf depth");
                assert!(
                    node.internal_entries.windows(2).all(|w| w[0].0 <= w[1].0),
                    "separators out of order"
                );
                let children = node.children();
                for (i, child) in children.iter().enumerate() {
                    let child_lower = if i == 0 {
                        lower
                    } else {
                        Some(node.internal_entries[i - 1].0)
                    };
                    let child_upper = if i < node.internal_entries.len() {
                        Some(node.internal_entries[i].0)
                    } else {
                        upper
                    };
                    self.check_node(
                        *child,
                        depth + 1,
                        child_lower,
                        child_upper,
                        leaf_pages,
                        entry_total,
                        node_total,
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};
    use sae_storage::MemPager;

    fn mem_tree() -> BPlusTree {
        BPlusTree::new(MemPager::new_shared()).unwrap()
    }

    fn oracle_range(entries: &[(RecordKey, u64)], q: &RangeQuery) -> Vec<(RecordKey, u64)> {
        let mut out: Vec<(RecordKey, u64)> = entries
            .iter()
            .copied()
            .filter(|(k, _)| q.contains(*k))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn empty_tree_reports_nothing() {
        let tree = mem_tree();
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.node_count(), 1);
        assert!(tree.range(&RangeQuery::new(0, 100)).unwrap().is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_range_small() {
        let mut tree = mem_tree();
        for (k, r) in [(5u32, 50u64), (1, 10), (9, 90), (3, 30), (7, 70)] {
            tree.insert(k, r).unwrap();
        }
        assert_eq!(tree.len(), 5);
        assert_eq!(
            tree.range(&RangeQuery::new(3, 7)).unwrap(),
            vec![(3, 30), (5, 50), (7, 70)]
        );
        assert_eq!(
            tree.range(&RangeQuery::new(0, 100)).unwrap(),
            vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]
        );
        assert!(tree.range(&RangeQuery::new(10, 20)).unwrap().is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_keys_are_all_returned() {
        let mut tree = mem_tree();
        for rid in 0..10u64 {
            tree.insert(42, rid).unwrap();
        }
        tree.insert(41, 100).unwrap();
        tree.insert(43, 101).unwrap();
        let hits = tree.range(&RangeQuery::new(42, 42)).unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|&(k, _)| k == 42));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn insertion_splits_grow_the_tree() {
        let mut tree = mem_tree();
        let n = 5 * LEAF_CAPACITY as u64;
        for i in 0..n {
            tree.insert((i % 1000) as u32, i).unwrap();
        }
        assert_eq!(tree.len(), n);
        assert!(tree.height() >= 2);
        assert!(tree.node_count() > 5);
        tree.check_invariants().unwrap();
        // Every entry is retrievable.
        let all = tree.range(&RangeQuery::new(0, 1000)).unwrap();
        assert_eq!(all.len() as u64, n);
    }

    #[test]
    fn bulk_load_matches_incremental_inserts() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut entries: Vec<(RecordKey, u64)> = (0..3000u64)
            .map(|rid| (rng.gen_range(0..10_000u32), rid))
            .collect();
        entries.sort_unstable();

        let bulk = BPlusTree::bulk_load(MemPager::new_shared(), &entries).unwrap();
        bulk.check_invariants().unwrap();

        let mut incremental = mem_tree();
        for &(k, r) in &entries {
            incremental.insert(k, r).unwrap();
        }

        for q in [
            RangeQuery::new(0, 10_000),
            RangeQuery::new(100, 200),
            RangeQuery::new(5_000, 5_050),
            RangeQuery::new(9_990, 10_000),
        ] {
            assert_eq!(bulk.range(&q).unwrap(), incremental.range(&q).unwrap());
            assert_eq!(bulk.range(&q).unwrap(), oracle_range(&entries, &q));
        }
        assert_eq!(bulk.len(), entries.len() as u64);
        // Bulk loading packs leaves full, so it should not use more nodes.
        assert!(bulk.node_count() <= incremental.node_count());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn bulk_load_rejects_unsorted_input() {
        let _ = BPlusTree::bulk_load(MemPager::new_shared(), &[(5, 0), (1, 1)]);
    }

    #[test]
    fn bulk_load_empty_gives_empty_tree() {
        let tree = BPlusTree::bulk_load(MemPager::new_shared(), &[]).unwrap();
        assert!(tree.is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn delete_removes_exactly_the_requested_entry() {
        let mut tree = mem_tree();
        for rid in 0..5u64 {
            tree.insert(10, rid).unwrap();
        }
        assert!(tree.delete(10, 3).unwrap());
        assert!(!tree.delete(10, 3).unwrap()); // already gone
        assert!(!tree.delete(11, 0).unwrap()); // never existed
        let remaining: Vec<u64> = tree.range_record_ids(&RangeQuery::new(10, 10)).unwrap();
        assert_eq!(remaining, vec![0, 1, 2, 4]);
        assert_eq!(tree.len(), 4);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn delete_everything_resets_the_tree() {
        let mut tree = mem_tree();
        let n = 2 * LEAF_CAPACITY as u64 + 10;
        for i in 0..n {
            tree.insert(i as u32, i).unwrap();
        }
        for i in 0..n {
            assert!(tree.delete(i as u32, i).unwrap(), "delete {i}");
        }
        assert!(tree.is_empty());
        assert!(tree
            .range(&RangeQuery::new(0, u32::MAX))
            .unwrap()
            .is_empty());
        // Can keep inserting after full deletion.
        tree.insert(5, 5).unwrap();
        assert_eq!(tree.range(&RangeQuery::new(0, 10)).unwrap(), vec![(5, 5)]);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn mixed_workload_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut tree = mem_tree();
        let mut oracle: Vec<(RecordKey, u64)> = Vec::new();
        let mut next_rid = 0u64;

        for round in 0..2_000 {
            let op: f64 = rng.gen();
            if op < 0.65 || oracle.is_empty() {
                let key = rng.gen_range(0..5_000u32);
                tree.insert(key, next_rid).unwrap();
                oracle.push((key, next_rid));
                next_rid += 1;
            } else {
                let victim = oracle.swap_remove(rng.gen_range(0..oracle.len()));
                assert!(tree.delete(victim.0, victim.1).unwrap(), "round {round}");
            }
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), oracle.len() as u64);

        for _ in 0..50 {
            let a = rng.gen_range(0..5_000u32);
            let b = rng.gen_range(0..5_000u32);
            let q = RangeQuery::new(a, b);
            assert_eq!(tree.range(&q).unwrap(), oracle_range(&oracle, &q));
        }
    }

    #[test]
    fn range_scan_node_accesses_are_logarithmic_plus_leaves() {
        let store = MemPager::new_shared();
        let entries: Vec<(RecordKey, u64)> = (0..100_000u64).map(|i| (i as u32, i)).collect();
        let tree = BPlusTree::bulk_load(store.clone(), &entries).unwrap();

        let before = store.stats().snapshot();
        let hits = tree.range(&RangeQuery::new(50_000, 50_499)).unwrap();
        let delta = store.stats().snapshot().delta_since(&before);

        assert_eq!(hits.len(), 500);
        // Height 3 at most for 100k entries with fanout ~340; 500 results span
        // ~2-3 leaves. The access count must stay small and bounded.
        assert!(
            delta.node_reads <= (tree.height() as u64) + 4,
            "unexpectedly many node accesses: {}",
            delta.node_reads
        );
    }

    #[test]
    fn stats_are_consistent() {
        let entries: Vec<(RecordKey, u64)> = (0..10_000u64).map(|i| (i as u32, i)).collect();
        let tree = BPlusTree::bulk_load(MemPager::new_shared(), &entries).unwrap();
        let meta = tree.meta();
        assert_eq!(meta.len, 10_000);
        assert_eq!(meta.height, 2);
        // 30 full leaves (340 entries each, 10 000 / 340 rounded up) + a root.
        assert_eq!(meta.node_count, 31);
        assert_eq!(tree.storage_bytes(), 31 * PAGE_SIZE as u64);
    }

    #[test]
    fn open_from_meta_serves_the_same_tree_without_rebuilding() {
        let store = MemPager::new_shared();
        let entries: Vec<(RecordKey, u64)> = (0..5_000u64).map(|i| ((i % 997) as u32, i)).collect();
        let mut sorted = entries.clone();
        sorted.sort_unstable();
        let mut tree = BPlusTree::bulk_load(store.clone(), &sorted).unwrap();
        tree.insert(10_000, 1).unwrap();
        let meta = tree.meta();
        assert_eq!(meta.root, tree.root());
        drop(tree);

        let writes_before = store.stats().snapshot().node_writes;
        let reopened = BPlusTree::open(store.clone(), meta).unwrap();
        // Opening performs no writes: nothing was rebuilt.
        assert_eq!(store.stats().snapshot().node_writes, writes_before);
        assert_eq!(reopened.len(), 5_001);
        assert_eq!(reopened.meta(), meta);
        reopened.check_invariants().unwrap();
        let hits = reopened.range(&RangeQuery::new(100, 100)).unwrap();
        assert!(!hits.is_empty() && hits.iter().all(|&(k, _)| k == 100));

        // Nonsense metadata is rejected with a typed error.
        assert!(BPlusTree::open(
            store.clone(),
            TreeMeta {
                root: PageId(999_999),
                ..meta
            }
        )
        .is_err());
        assert!(BPlusTree::open(store, TreeMeta { height: 0, ..meta }).is_err());
    }

    #[test]
    fn random_shuffled_inserts_preserve_sorted_scans() {
        let mut keys: Vec<u32> = (0..5_000u32).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(3));
        let mut tree = mem_tree();
        for (rid, &k) in keys.iter().enumerate() {
            tree.insert(k, rid as u64).unwrap();
        }
        let all = tree.range(&RangeQuery::new(0, u32::MAX)).unwrap();
        assert_eq!(all.len(), 5_000);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
        tree.check_invariants().unwrap();
    }
}
