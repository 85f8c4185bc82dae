//! The augmented min-key tree under the XB-Tree and the MB-Tree.
//!
//! Both authenticated trees of the paper are 127-way B⁺-Trees over
//! [`AugNode`] pages: every entry carries the minimum key below it and a
//! 20-byte digest, and leaf entries are `(key, record id, record digest)`.
//! They differ only in what an internal entry's digest summarises, which is
//! the [`Augment`] parameter:
//!
//! * [`XorFold`] — the XOR of every record digest below the entry (the SAE
//!   trusted entity's XB-Tree, `sae-xbtree`);
//! * [`MerkleHash`] — the hash of the concatenated digests of the child page
//!   (TOM's MB-Tree, `sae-mbtree`).
//!
//! [`AugTree`] implements everything else once: bulk load, insert, delete,
//! reopen, range scans, predecessor/successor search and invariant checks.
//! Like the plain B⁺-Tree, deletion collapses empty nodes but does not
//! rebalance under-full ones.
//!
//! Node I/O is part of the reproduction: Figures 5–8 and ablations E5/E6
//! count node accesses, so every operation reads and writes exactly the
//! pages the two trees always have (see [`Augment::INCREMENTAL`]).

use crate::node::{AugEntry, AugNode, NodeKind, AUG_CAPACITY};
use crate::tree::check_meta;
use sae_crypto::{Digest, HashAlgorithm};
use sae_storage::{PageId, SharedPageStore, StorageResult, TreeMeta, PAGE_SIZE};
use sae_workload::{RangeQuery, RecordKey};

/// What an internal entry's digest summarises about its child.
pub trait Augment {
    /// Whether a parent can fold an inserted digest into its entry
    /// ([`Augment::absorb`]) instead of re-reading the child page after an
    /// insert that did not split it. When `false` the tree re-reads every
    /// child it changed, and on a root split the new right page as well —
    /// a redundant read, but the MB-Tree's, which ablation E6 counts.
    const INCREMENTAL: bool;

    /// The digest a parent entry stores for a child page holding `entries`.
    fn summarize(&self, entries: &[AugEntry]) -> Digest;

    /// Folds an inserted record digest into a parent entry's summary. Only
    /// called when [`Augment::INCREMENTAL`] holds.
    fn absorb(&self, summary: &mut Digest, digest: &Digest);
}

/// The XB-Tree's augmentation: an entry stores the XOR of every record
/// digest in its subtree, so a range's token is a fold of whole entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XorFold;

impl Augment for XorFold {
    const INCREMENTAL: bool = true;

    fn summarize(&self, entries: &[AugEntry]) -> Digest {
        let mut acc = Digest::ZERO;
        for e in entries {
            acc ^= e.digest;
        }
        acc
    }

    fn absorb(&self, summary: &mut Digest, digest: &Digest) {
        *summary ^= *digest;
    }
}

/// The MB-Tree's augmentation: an entry stores the hash of the concatenated
/// digests of its child page; the root page's hash is what the owner signs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MerkleHash(pub HashAlgorithm);

impl Augment for MerkleHash {
    const INCREMENTAL: bool = false;

    fn summarize(&self, entries: &[AugEntry]) -> Digest {
        self.0
            .hash_concat(entries.iter().map(|e| e.digest.as_bytes().as_slice()))
    }

    /// Never called: a page hash cannot be patched without the page.
    fn absorb(&self, _summary: &mut Digest, _digest: &Digest) {}
}

/// A paged min-key B⁺-Tree whose internal entries summarise their children
/// under `A`.
pub struct AugTree<A: Augment> {
    store: SharedPageStore,
    aug: A,
    root: PageId,
    height: u32,
    len: u64,
    node_count: u64,
}

impl<A: Augment> AugTree<A> {
    /// Creates an empty tree: one empty leaf as the root.
    pub fn new(store: SharedPageStore, aug: A) -> StorageResult<Self> {
        let root = store.allocate()?;
        store.write(root, &AugNode::new(NodeKind::Leaf).to_page())?;
        Ok(AugTree {
            store,
            aug,
            root,
            height: 1,
            len: 0,
            node_count: 1,
        })
    }

    /// Bulk-loads from `items` sorted by the `(key, ptr)` of their entries,
    /// packing every node full. `entry` maps an item to its leaf entry, so
    /// callers need not copy their data into [`AugEntry`]s first.
    ///
    /// Panics if the items are not sorted — bulk loading is only used for
    /// the initial dataset, which the data owner ships sorted by key.
    pub fn bulk_load<T>(
        store: SharedPageStore,
        aug: A,
        items: &[T],
        entry: impl Fn(&T) -> AugEntry,
    ) -> StorageResult<Self> {
        assert!(
            items.windows(2).all(|w| {
                let (a, b) = (entry(&w[0]), entry(&w[1]));
                (a.key, a.ptr) <= (b.key, b.ptr)
            }),
            "bulk_load requires entries sorted by (key, pointer)"
        );
        if items.is_empty() {
            return Self::new(store, aug);
        }

        // Leaf pages are allocated up front so each can point to the next.
        let chunks: Vec<&[T]> = items.chunks(AUG_CAPACITY).collect();
        let mut pages = Vec::with_capacity(chunks.len());
        for _ in 0..chunks.len() {
            pages.push(store.allocate()?);
        }
        // One parent entry per node of the level just written.
        let mut level = Vec::with_capacity(chunks.len());
        for (i, chunk) in chunks.iter().enumerate() {
            let mut node = AugNode::new(NodeKind::Leaf);
            node.entries = chunk.iter().map(&entry).collect();
            node.next_leaf = pages.get(i + 1).copied().unwrap_or(PageId::INVALID);
            store.write(pages[i], &node.to_page())?;
            level.push(AugEntry {
                key: node.min_key(),
                ptr: pages[i].0,
                digest: aug.summarize(&node.entries),
            });
        }
        let mut node_count = pages.len() as u64;

        // Internal levels bottom-up until a single root remains.
        let mut height = 1u32;
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len() / AUG_CAPACITY + 1);
            for group in level.chunks(AUG_CAPACITY) {
                let mut node = AugNode::new(NodeKind::Internal);
                node.entries = group.to_vec();
                let page_id = store.allocate()?;
                store.write(page_id, &node.to_page())?;
                node_count += 1;
                next_level.push(AugEntry {
                    key: node.min_key(),
                    ptr: page_id.0,
                    digest: aug.summarize(&node.entries),
                });
            }
            level = next_level;
            height += 1;
        }

        Ok(AugTree {
            store,
            aug,
            root: level[0].child(),
            height,
            len: items.len() as u64,
            node_count,
        })
    }

    /// Reopens a tree from its persisted root and shape (as recorded in a
    /// deployment manifest) instead of rebuilding it. Only cheap sanity
    /// checks run here; callers cross-check [`AugTree::root_digest`] against
    /// what they published.
    pub fn open(store: SharedPageStore, aug: A, meta: TreeMeta) -> StorageResult<Self> {
        check_meta(&store, &meta, "augmented tree")?;
        Ok(AugTree {
            store,
            aug,
            root: meta.root,
            height: meta.height,
            len: meta.len,
            node_count: meta.node_count,
        })
    }

    /// The augmentation this tree maintains.
    pub fn augment(&self) -> &A {
        &self.aug
    }

    /// The page store this tree lives on.
    pub fn store(&self) -> &SharedPageStore {
        &self.store
    }

    /// The root page.
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

    /// Number of leaf entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of nodes (pages).
    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    /// Bytes occupied by the tree's pages.
    pub fn storage_bytes(&self) -> u64 {
        self.node_count * PAGE_SIZE as u64
    }

    /// Reads and decodes one node (one counted node access).
    pub fn read_node(&self, id: PageId) -> StorageResult<AugNode> {
        AugNode::from_page(&self.store.read(id)?)
    }

    fn write_node(&self, id: PageId, node: &AugNode) -> StorageResult<()> {
        self.store.write(id, &node.to_page())
    }

    /// The summary of the root page: the XOR of every digest under
    /// [`XorFold`], the digest the owner signs under [`MerkleHash`].
    pub fn root_digest(&self) -> StorageResult<Digest> {
        Ok(self.aug.summarize(&self.read_node(self.root)?.entries))
    }

    // ---------------------------------------------------------------- range

    /// All `(key, ptr)` leaf entries with `q.lower <= key <= q.upper`, in
    /// leaf order.
    pub fn range(&self, q: &RangeQuery) -> StorageResult<Vec<(RecordKey, u64)>> {
        let mut out = Vec::new();
        let mut current = self.root;
        for _ in 1..self.height {
            let node = self.read_node(current)?;
            current = node.entries[node.child_index_for_lower_bound(q.lower)].child();
        }
        loop {
            let node = self.read_node(current)?;
            for e in &node.entries {
                if e.key > q.upper {
                    return Ok(out);
                }
                if e.key >= q.lower {
                    out.push((e.key, e.ptr));
                }
            }
            if node.next_leaf.is_invalid() {
                return Ok(out);
            }
            current = node.next_leaf;
        }
    }

    /// The pointers (record ids) of [`AugTree::range`], in the same order.
    pub fn range_record_ids(&self, q: &RangeQuery) -> StorageResult<Vec<u64>> {
        Ok(self.range(q)?.into_iter().map(|(_, ptr)| ptr).collect())
    }

    // --------------------------------------------------------------- insert

    /// Inserts a leaf entry, bringing the summaries on its path up to date.
    /// Duplicate keys are allowed.
    pub fn insert(&mut self, entry: AugEntry) -> StorageResult<()> {
        if let Some(mut right) = self.insert_rec(self.root, &entry)? {
            // Root split: the new root gets one entry per half.
            let left = self.read_node(self.root)?;
            if !A::INCREMENTAL {
                right.digest = self.aug.summarize(&self.read_node(right.child())?.entries);
            }
            let mut new_root = AugNode::new(NodeKind::Internal);
            new_root.entries = vec![
                AugEntry {
                    key: left.min_key(),
                    ptr: self.root.0,
                    digest: self.aug.summarize(&left.entries),
                },
                right,
            ];
            let new_root_id = self.store.allocate()?;
            self.write_node(new_root_id, &new_root)?;
            self.root = new_root_id;
            self.height += 1;
            self.node_count += 1;
        }
        self.len += 1;
        Ok(())
    }

    /// Recursive insert; returns the parent entry of the new right sibling
    /// if the node split.
    fn insert_rec(&mut self, page_id: PageId, entry: &AugEntry) -> StorageResult<Option<AugEntry>> {
        let mut node = self.read_node(page_id)?;
        match node.kind {
            NodeKind::Leaf => {
                let pos = node
                    .entries
                    .partition_point(|e| (e.key, e.ptr) <= (entry.key, entry.ptr));
                node.entries.insert(pos, *entry);
            }
            NodeKind::Internal => {
                let idx = node.child_index_for_insert(entry.key);
                let child_id = node.entries[idx].child();
                let split = self.insert_rec(child_id, entry)?;
                // Refresh the child's entry: fold the new digest in where the
                // augmentation allows it, else re-summarise the child page (a
                // split child must be re-read either way: it lost its right
                // half).
                if A::INCREMENTAL && split.is_none() {
                    let e = &mut node.entries[idx];
                    self.aug.absorb(&mut e.digest, &entry.digest);
                    e.key = e.key.min(entry.key);
                } else {
                    let child = self.read_node(child_id)?;
                    let e = &mut node.entries[idx];
                    e.digest = self.aug.summarize(&child.entries);
                    e.key = e.key.min(child.min_key());
                }
                if let Some(right) = split {
                    node.entries.insert(idx + 1, right);
                }
            }
        }
        if node.entries.len() <= AUG_CAPACITY {
            self.write_node(page_id, &node)?;
            return Ok(None);
        }
        // Overflow: the right half moves to a new page.
        let mut right = AugNode::new(node.kind);
        right.entries = node.entries.split_off(node.entries.len() / 2);
        let right_id = self.store.allocate()?;
        if node.kind == NodeKind::Leaf {
            right.next_leaf = node.next_leaf;
            node.next_leaf = right_id;
        }
        self.write_node(right_id, &right)?;
        self.write_node(page_id, &node)?;
        self.node_count += 1;
        Ok(Some(AugEntry {
            key: right.min_key(),
            ptr: right_id.0,
            digest: self.aug.summarize(&right.entries),
        }))
    }

    // --------------------------------------------------------------- delete

    /// Removes the leaf entry `(key, ptr)`, bringing the summaries on its
    /// path up to date, and returns its digest so a caller coordinating
    /// several parties can roll the removal back by re-inserting it.
    /// `Ok(None)` if no entry matched.
    pub fn take(&mut self, key: RecordKey, ptr: u64) -> StorageResult<Option<Digest>> {
        let outcome = self.delete_rec(self.root, key, ptr)?;
        if outcome.is_some() {
            self.len -= 1;
        }
        if let Some((_, true)) = outcome {
            // The whole tree is empty: reset to a single empty leaf root.
            self.write_node(self.root, &AugNode::new(NodeKind::Leaf))?;
            self.height = 1;
            self.node_count = 1;
        } else {
            // Collapse internal roots with a single child.
            loop {
                let node = self.read_node(self.root)?;
                if node.kind == NodeKind::Internal && node.entries.len() == 1 {
                    self.root = node.entries[0].child();
                    self.height -= 1;
                    self.node_count -= 1;
                } else {
                    break;
                }
            }
        }
        Ok(outcome.map(|(digest, _)| digest))
    }

    /// Recursive delete: `Some((removed digest, node became empty))` if the
    /// entry was found under this node.
    fn delete_rec(
        &mut self,
        page_id: PageId,
        key: RecordKey,
        ptr: u64,
    ) -> StorageResult<Option<(Digest, bool)>> {
        let mut node = self.read_node(page_id)?;
        match node.kind {
            NodeKind::Leaf => {
                let Some(pos) = node
                    .entries
                    .iter()
                    .position(|e| e.key == key && e.ptr == ptr)
                else {
                    return Ok(None);
                };
                let removed = node.entries.remove(pos);
                self.write_node(page_id, &node)?;
                Ok(Some((removed.digest, node.entries.is_empty())))
            }
            NodeKind::Internal => {
                // Start at the first child that may hold the key and move
                // right while following children can still hold it.
                let mut idx = node.child_index_for_lower_bound(key);
                loop {
                    let child_id = node.entries[idx].child();
                    if let Some((digest, child_empty)) = self.delete_rec(child_id, key, ptr)? {
                        if child_empty {
                            node.entries.remove(idx);
                            self.node_count -= 1;
                        } else {
                            let child = self.read_node(child_id)?;
                            node.entries[idx].digest = self.aug.summarize(&child.entries);
                            node.entries[idx].key = child.min_key();
                        }
                        self.write_node(page_id, &node)?;
                        return Ok(Some((digest, node.entries.is_empty())));
                    }
                    if idx + 1 < node.entries.len() && node.entries[idx + 1].key <= key {
                        idx += 1;
                    } else {
                        return Ok(None);
                    }
                }
            }
        }
    }

    // ------------------------------------------------ boundary search

    /// The last leaf entry (in leaf order) whose key is strictly below
    /// `bound` — the left boundary record of a query with lower bound `bound`.
    pub fn find_predecessor(&self, bound: RecordKey) -> StorageResult<Option<(RecordKey, u64)>> {
        let mut node = self.read_node(self.root)?;
        while node.kind == NodeKind::Internal {
            let idx = node.entries.partition_point(|e| e.key < bound);
            if idx == 0 {
                return Ok(None);
            }
            node = self.read_node(node.entries[idx - 1].child())?;
        }
        Ok(node
            .entries
            .iter()
            .rev()
            .find(|e| e.key < bound)
            .map(|e| (e.key, e.ptr)))
    }

    /// The first leaf entry (in leaf order) whose key is strictly above
    /// `bound` — the right boundary record of a query with upper bound `bound`.
    pub fn find_successor(&self, bound: RecordKey) -> StorageResult<Option<(RecordKey, u64)>> {
        self.find_successor_in(self.root, bound)
    }

    fn find_successor_in(
        &self,
        page_id: PageId,
        bound: RecordKey,
    ) -> StorageResult<Option<(RecordKey, u64)>> {
        let node = self.read_node(page_id)?;
        if node.kind == NodeKind::Leaf {
            return Ok(node
                .entries
                .iter()
                .find(|e| e.key > bound)
                .map(|e| (e.key, e.ptr)));
        }
        // The last child starting at or below the bound may hold the
        // successor; if it does not, the next child's first entry is it.
        let start = node
            .entries
            .partition_point(|e| e.key <= bound)
            .saturating_sub(1);
        for e in &node.entries[start..] {
            if let Some(found) = self.find_successor_in(e.child(), bound)? {
                return Ok(Some(found));
            }
        }
        Ok(None)
    }

    // ----------------------------------------------------------- invariants

    /// Exhaustively checks structure and summaries; panics on violation.
    ///
    /// Intended for tests: keys sorted in every node, uniform leaf depth,
    /// no child holding a key below its entry's, every stored summary equal
    /// to its child's recomputed one, a consistent leaf chain, and entry and
    /// node counts matching the metadata.
    pub fn check_invariants(&self) -> StorageResult<()> {
        let mut census = Census::default();
        self.check_node(self.root, 1, &mut census)?;
        assert_eq!(census.entries, self.len, "entry count mismatch");
        assert_eq!(census.nodes, self.node_count, "node count mismatch");
        if let Some(next) = census.chain {
            assert!(next.is_invalid(), "last leaf must end the chain");
        }
        Ok(())
    }

    /// Checks the subtree at `page_id` and returns its root node, for the
    /// parent's summary and minimum-key checks.
    fn check_node(
        &self,
        page_id: PageId,
        depth: u32,
        census: &mut Census,
    ) -> StorageResult<AugNode> {
        census.nodes += 1;
        let node = self.read_node(page_id)?;
        assert!(
            node.entries.windows(2).all(|w| w[0].key <= w[1].key),
            "entries out of key order"
        );
        if node.kind == NodeKind::Leaf {
            assert_eq!(depth, self.height, "leaf at wrong depth");
            if let Some(expected) = census.chain {
                assert_eq!(expected, page_id, "broken leaf chain");
            }
            census.chain = Some(node.next_leaf);
            census.entries += node.entries.len() as u64;
            return Ok(node);
        }
        assert!(depth < self.height, "internal node at leaf depth");
        for e in &node.entries {
            let child = self.check_node(e.child(), depth + 1, census)?;
            assert_eq!(
                e.digest,
                self.aug.summarize(&child.entries),
                "stale summary for child {}",
                e.child()
            );
            assert!(child.min_key() >= e.key, "child min key below the entry's");
        }
        Ok(node)
    }
}

/// What [`AugTree::check_invariants`] counts on its walk.
#[derive(Default)]
struct Census {
    entries: u64,
    nodes: u64,
    /// The `next_leaf` of the last leaf visited, in key order.
    chain: Option<PageId>,
}
