//! On-page node layouts: the plain B⁺-Tree's and the augmented trees'.
//!
//! Every node occupies exactly one 4096-byte page behind one 12-byte header:
//!
//! ```text
//! B+-Tree leaf:      [type:1][pad:1][count:2][next_leaf:8] [ (key:4, rid:8) * count ]
//! B+-Tree internal:  [type:1][pad:1][count:2][child0:8]    [ (key:4, child:8) * count ]
//! min-key (both):    [type:1][pad:1][count:2][next_leaf:8] [ (key:4, ptr:8, digest:20) * count ]
//! ```
//!
//! [`BTreeNode`] is the separator layout of the SP's plain index: leaf
//! entries map a search key to a record id in the dataset heap file, and
//! internal entries are separator keys with right-child pointers (the
//! leftmost child is stored in the header). [`AugNode`] is the min-key layout
//! of [`crate::AugTree`], the XB-Tree and MB-Tree: every entry carries the
//! minimum key below it and a 20-byte digest (internal nodes leave
//! `next_leaf` invalid). Capacities are derived from the page size, which is
//! how the plain B⁺-Tree's fanout advantage (340 against 127) arises
//! naturally rather than being hard-coded.

use sae_crypto::{Digest, DIGEST_LEN};
use sae_storage::{Page, PageId, StorageError, StorageResult, PAGE_SIZE};
use sae_workload::RecordKey;

/// Byte offset where entries begin.
const HEADER_LEN: usize = 12;
/// Size of one B⁺-Tree entry: key (4) + record id or child page id (8).
const SEP_ENTRY_LEN: usize = 12;
/// Size of one min-key entry: key (4) + pointer (8) + digest (20).
const AUG_ENTRY_LEN: usize = 4 + 8 + DIGEST_LEN;

/// Maximum number of entries in a leaf node.
pub const LEAF_CAPACITY: usize = (PAGE_SIZE - HEADER_LEN) / SEP_ENTRY_LEN;
/// Maximum number of separator keys in an internal node.
pub const INTERNAL_CAPACITY: usize = (PAGE_SIZE - HEADER_LEN) / SEP_ENTRY_LEN;
/// Maximum number of entries in a min-key node, leaf or internal.
pub const AUG_CAPACITY: usize = (PAGE_SIZE - HEADER_LEN) / AUG_ENTRY_LEN;

/// Whether a node is a leaf or an internal node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Leaf node: holds record entries and a next-leaf pointer.
    Leaf,
    /// Internal node: holds keys and child pointers.
    Internal,
}

/// Writes the shared header: kind byte, entry count and the 8-byte link
/// (next leaf, or a B⁺-Tree internal node's leftmost child).
fn write_header(page: &mut Page, kind: NodeKind, count: usize, link: PageId) {
    page.write_u8(0, if kind == NodeKind::Leaf { 0 } else { 1 });
    page.write_u16(2, count as u16);
    page.write_page_id(4, link);
}

/// Reads the header written by [`write_header`]. A page is input like any
/// other, so a kind byte other than 0 (leaf) or 1 (internal), or an entry
/// count above `capacity` for the kind, is a typed corruption error rather
/// than a misread node or a panic.
fn read_header(
    page: &Page,
    capacity: impl Fn(NodeKind) -> usize,
) -> StorageResult<(NodeKind, usize, PageId)> {
    let kind = match page.read_u8(0) {
        0 => NodeKind::Leaf,
        1 => NodeKind::Internal,
        other => {
            return Err(StorageError::Corrupted(format!(
                "node page kind byte {other} is neither leaf (0) nor internal (1)"
            )))
        }
    };
    let count = page.read_u16(2) as usize;
    let max = capacity(kind);
    if count > max {
        return Err(StorageError::Corrupted(format!(
            "{kind:?} node page claims {count} entries, more than its capacity of {max}"
        )));
    }
    Ok((kind, count, page.read_page_id(4)))
}

/// An in-memory, decoded B⁺-Tree node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BTreeNode {
    /// Leaf or internal.
    pub kind: NodeKind,
    /// Leaf only: the next leaf in key order ([`PageId::INVALID`] if none).
    pub next_leaf: PageId,
    /// Leaf only: `(key, record id)` pairs sorted by `(key, rid)`.
    pub leaf_entries: Vec<(RecordKey, u64)>,
    /// Internal only: the leftmost child.
    pub leftmost_child: PageId,
    /// Internal only: `(separator key, right child)` pairs sorted by key.
    pub internal_entries: Vec<(RecordKey, PageId)>,
}

impl BTreeNode {
    /// Creates an empty leaf.
    pub fn new_leaf() -> Self {
        BTreeNode {
            kind: NodeKind::Leaf,
            next_leaf: PageId::INVALID,
            leaf_entries: Vec::new(),
            leftmost_child: PageId::INVALID,
            internal_entries: Vec::new(),
        }
    }

    /// Creates an internal node with the given leftmost child.
    pub fn new_internal(leftmost_child: PageId) -> Self {
        BTreeNode {
            kind: NodeKind::Internal,
            next_leaf: PageId::INVALID,
            leaf_entries: Vec::new(),
            leftmost_child,
            internal_entries: Vec::new(),
        }
    }

    /// Number of entries (leaf entries or separator keys).
    pub fn len(&self) -> usize {
        match self.kind {
            NodeKind::Leaf => self.leaf_entries.len(),
            NodeKind::Internal => self.internal_entries.len(),
        }
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the node has reached its capacity and must be split on insert.
    pub fn is_full(&self) -> bool {
        match self.kind {
            NodeKind::Leaf => self.leaf_entries.len() >= LEAF_CAPACITY,
            NodeKind::Internal => self.internal_entries.len() >= INTERNAL_CAPACITY,
        }
    }

    /// Children of an internal node, leftmost first.
    pub fn children(&self) -> Vec<PageId> {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        let mut out = Vec::with_capacity(self.internal_entries.len() + 1);
        out.push(self.leftmost_child);
        out.extend(self.internal_entries.iter().map(|(_, c)| *c));
        out
    }

    /// The child to descend into when looking for the *first* occurrence of
    /// `key` (lower-bound descent): index of the first separator `>= key`.
    pub fn child_index_for_lower_bound(&self, key: RecordKey) -> usize {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        self.internal_entries.partition_point(|(k, _)| *k < key)
    }

    /// The child to descend into when inserting `key` (upper-bound descent),
    /// so new duplicates go to the rightmost eligible subtree.
    pub fn child_index_for_insert(&self, key: RecordKey) -> usize {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        self.internal_entries.partition_point(|(k, _)| *k <= key)
    }

    /// Child page id at position `idx` (0 = leftmost child).
    pub fn child_at(&self, idx: usize) -> PageId {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        if idx == 0 {
            self.leftmost_child
        } else {
            self.internal_entries[idx - 1].1
        }
    }

    /// Serializes the node into a fresh page.
    pub fn to_page(&self) -> Page {
        let mut page = Page::new();
        let mut off = HEADER_LEN;
        match self.kind {
            NodeKind::Leaf => {
                write_header(
                    &mut page,
                    self.kind,
                    self.leaf_entries.len(),
                    self.next_leaf,
                );
                for (key, rid) in &self.leaf_entries {
                    page.write_u32(off, *key);
                    page.write_u64(off + 4, *rid);
                    off += SEP_ENTRY_LEN;
                }
            }
            NodeKind::Internal => {
                let count = self.internal_entries.len();
                write_header(&mut page, self.kind, count, self.leftmost_child);
                for (key, child) in &self.internal_entries {
                    page.write_u32(off, *key);
                    page.write_page_id(off + 4, *child);
                    off += SEP_ENTRY_LEN;
                }
            }
        }
        page
    }

    /// Decodes a node from a page; a malformed header is
    /// [`StorageError::Corrupted`].
    pub fn from_page(page: &Page) -> StorageResult<Self> {
        let (kind, count, link) = read_header(page, |kind| match kind {
            NodeKind::Leaf => LEAF_CAPACITY,
            NodeKind::Internal => INTERNAL_CAPACITY,
        })?;
        let mut off = HEADER_LEN;
        match kind {
            NodeKind::Leaf => {
                let mut leaf_entries = Vec::with_capacity(count);
                for _ in 0..count {
                    leaf_entries.push((page.read_u32(off), page.read_u64(off + 4)));
                    off += SEP_ENTRY_LEN;
                }
                Ok(BTreeNode {
                    next_leaf: link,
                    leaf_entries,
                    ..BTreeNode::new_leaf()
                })
            }
            NodeKind::Internal => {
                let mut internal_entries = Vec::with_capacity(count);
                for _ in 0..count {
                    internal_entries.push((page.read_u32(off), page.read_page_id(off + 4)));
                    off += SEP_ENTRY_LEN;
                }
                Ok(BTreeNode {
                    internal_entries,
                    ..BTreeNode::new_internal(link)
                })
            }
        }
    }
}

/// One entry of the min-key layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AugEntry {
    /// Record key (leaf) or the minimum key of the child subtree (internal).
    pub key: RecordKey,
    /// Record id (leaf) or the child page id as a raw `u64` (internal).
    pub ptr: u64,
    /// Record digest (leaf) or the child's summary under the tree's
    /// [`crate::Augment`] (internal).
    pub digest: Digest,
}

impl AugEntry {
    /// The pointer interpreted as a child page id.
    pub fn child(&self) -> PageId {
        PageId(self.ptr)
    }
}

/// An in-memory, decoded node of the min-key layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AugNode {
    /// Leaf or internal.
    pub kind: NodeKind,
    /// Leaf only: the next leaf in key order ([`PageId::INVALID`] if none).
    pub next_leaf: PageId,
    /// Entries sorted by key (leaves: by `(key, ptr)`).
    pub entries: Vec<AugEntry>,
}

impl AugNode {
    /// Creates an empty node of the given kind.
    pub fn new(kind: NodeKind) -> Self {
        AugNode {
            kind,
            next_leaf: PageId::INVALID,
            entries: Vec::new(),
        }
    }

    /// Minimum key stored in (or below) this node. Panics on an empty node.
    pub fn min_key(&self) -> RecordKey {
        self.entries[0].key
    }

    /// The first child whose subtree may contain `key`.
    ///
    /// Duplicates may straddle a split, so a subtree can hold keys equal to
    /// the *next* child's minimum: the search starts one child before the
    /// first whose minimum is `>= key`.
    pub fn child_index_for_lower_bound(&self, key: RecordKey) -> usize {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        self.entries
            .partition_point(|e| e.key < key)
            .saturating_sub(1)
    }

    /// The child an insert of `key` descends into: the last whose minimum is
    /// `<= key`, so new duplicates go to the rightmost eligible subtree.
    pub fn child_index_for_insert(&self, key: RecordKey) -> usize {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        self.entries
            .partition_point(|e| e.key <= key)
            .saturating_sub(1)
    }

    /// Serializes the node into a fresh page.
    pub fn to_page(&self) -> Page {
        let mut page = Page::new();
        write_header(&mut page, self.kind, self.entries.len(), self.next_leaf);
        let mut off = HEADER_LEN;
        for e in &self.entries {
            page.write_u32(off, e.key);
            page.write_u64(off + 4, e.ptr);
            page.write_bytes(off + 12, e.digest.as_bytes());
            off += AUG_ENTRY_LEN;
        }
        page
    }

    /// Decodes a node from a page; a malformed header is
    /// [`StorageError::Corrupted`].
    pub fn from_page(page: &Page) -> StorageResult<Self> {
        let (kind, count, next_leaf) = read_header(page, |_| AUG_CAPACITY)?;
        let mut entries = Vec::with_capacity(count);
        let mut off = HEADER_LEN;
        for _ in 0..count {
            let mut digest = [0u8; DIGEST_LEN];
            digest.copy_from_slice(page.read_bytes(off + 12, DIGEST_LEN));
            entries.push(AugEntry {
                key: page.read_u32(off),
                ptr: page.read_u64(off + 4),
                digest: Digest::new(digest),
            });
            off += AUG_ENTRY_LEN;
        }
        Ok(AugNode {
            kind,
            next_leaf,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_reflect_page_size() {
        // (4096 - 12) / 12 = 340 for both node kinds.
        assert_eq!(LEAF_CAPACITY, 340);
        assert_eq!(INTERNAL_CAPACITY, 340);
        // Fanout must exceed 100 as the paper assumes for 4 KiB pages.
        const { assert!(INTERNAL_CAPACITY > 100) };
    }

    #[test]
    fn leaf_round_trip() {
        let mut node = BTreeNode::new_leaf();
        node.next_leaf = PageId(77);
        for i in 0..10u64 {
            node.leaf_entries.push((i as u32 * 3, i + 100));
        }
        let decoded = BTreeNode::from_page(&node.to_page()).unwrap();
        assert_eq!(decoded, node);
    }

    #[test]
    fn internal_round_trip() {
        let mut node = BTreeNode::new_internal(PageId(5));
        for i in 0..20u64 {
            node.internal_entries.push((i as u32 * 10, PageId(i + 6)));
        }
        let decoded = BTreeNode::from_page(&node.to_page()).unwrap();
        assert_eq!(decoded, node);
        assert_eq!(decoded.children().len(), 21);
        assert_eq!(decoded.child_at(0), PageId(5));
        assert_eq!(decoded.child_at(3), PageId(8));
    }

    #[test]
    fn full_leaf_round_trip() {
        let mut node = BTreeNode::new_leaf();
        for i in 0..LEAF_CAPACITY as u64 {
            node.leaf_entries.push((i as u32, i));
        }
        assert!(node.is_full());
        let decoded = BTreeNode::from_page(&node.to_page()).unwrap();
        assert_eq!(decoded.leaf_entries.len(), LEAF_CAPACITY);
        assert_eq!(decoded, node);
    }

    #[test]
    fn descent_index_semantics() {
        let mut node = BTreeNode::new_internal(PageId(0));
        node.internal_entries = vec![
            (10, PageId(1)),
            (20, PageId(2)),
            (20, PageId(3)),
            (30, PageId(4)),
        ];
        // Lower-bound descent: first separator >= key.
        assert_eq!(node.child_index_for_lower_bound(5), 0);
        assert_eq!(node.child_index_for_lower_bound(10), 0);
        assert_eq!(node.child_index_for_lower_bound(15), 1);
        assert_eq!(node.child_index_for_lower_bound(20), 1);
        assert_eq!(node.child_index_for_lower_bound(25), 3);
        assert_eq!(node.child_index_for_lower_bound(35), 4);
        // Insert descent: first separator > key.
        assert_eq!(node.child_index_for_insert(10), 1);
        assert_eq!(node.child_index_for_insert(20), 3);
        assert_eq!(node.child_index_for_insert(35), 4);
    }

    #[test]
    fn empty_and_full_flags() {
        let leaf = BTreeNode::new_leaf();
        assert!(leaf.is_empty());
        assert!(!leaf.is_full());
        let internal = BTreeNode::new_internal(PageId(1));
        assert!(internal.is_empty());
        assert_eq!(internal.children(), vec![PageId(1)]);
    }

    // ------------------------------------------------ min-key layout

    use crate::aug::{Augment, MerkleHash, XorFold};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sae_crypto::HashAlgorithm;

    fn d(tag: u8) -> Digest {
        Digest::new([tag; DIGEST_LEN])
    }

    fn aug_node(kind: NodeKind, entries: &[(RecordKey, u64, u8)]) -> AugNode {
        let mut node = AugNode::new(kind);
        for &(key, ptr, tag) in entries {
            node.entries.push(AugEntry {
                key,
                ptr,
                digest: d(tag),
            });
        }
        node
    }

    #[test]
    fn capacities_match_entry_size() {
        // (4096 - 12) / 32 = 127 for both node kinds.
        assert_eq!(AUG_CAPACITY, 127);
    }

    #[test]
    fn capacity_reflects_digest_overhead() {
        // The 20-byte digest per entry cuts the fanout to about a third of
        // the plain B+-Tree's, as the paper's Figure 6 discussion assumes.
        const { assert!(AUG_CAPACITY < INTERNAL_CAPACITY / 2) };
    }

    #[test]
    fn round_trips_for_both_kinds() {
        let mut leaf = aug_node(NodeKind::Leaf, &[(0, 0, 0), (2, 1, 1), (4, 2, 2)]);
        leaf.next_leaf = PageId(3);
        assert_eq!(AugNode::from_page(&leaf.to_page()).unwrap(), leaf);

        let internal = aug_node(
            NodeKind::Internal,
            &[(0, 10, 0xF0), (100, 11, 0xF1), (200, 12, 0xF2)],
        );
        let decoded = AugNode::from_page(&internal.to_page()).unwrap();
        assert_eq!(decoded, internal);
        assert!(decoded.next_leaf.is_invalid());
        assert_eq!(decoded.entries[2].child(), PageId(12));
    }

    #[test]
    fn full_node_round_trip() {
        let entries: Vec<_> = (0..AUG_CAPACITY as u64)
            .map(|i| (i as u32, i, (i % 251) as u8))
            .collect();
        for kind in [NodeKind::Leaf, NodeKind::Internal] {
            let node = aug_node(kind, &entries);
            assert_eq!(AugNode::from_page(&node.to_page()).unwrap(), node);
        }
    }

    #[test]
    fn internal_round_trip_and_descent() {
        let node = aug_node(
            NodeKind::Internal,
            &[(10, 0, 0), (20, 1, 1), (20, 2, 2), (30, 3, 3)],
        );
        assert_eq!(AugNode::from_page(&node.to_page()).unwrap(), node);
        // Insert descent: the last child whose minimum is <= the key.
        assert_eq!(node.child_index_for_insert(5), 0);
        assert_eq!(node.child_index_for_insert(20), 2);
        assert_eq!(node.child_index_for_insert(99), 3);
    }

    #[test]
    fn lower_bound_descent_handles_duplicate_minimums() {
        let node = aug_node(
            NodeKind::Internal,
            &[(10, 0, 0), (20, 1, 0), (20, 2, 0), (30, 3, 0)],
        );
        // Duplicates may equal the next child's minimum, so a search starts
        // one child early.
        assert_eq!(node.child_index_for_lower_bound(5), 0);
        assert_eq!(node.child_index_for_lower_bound(20), 0);
        assert_eq!(node.child_index_for_lower_bound(21), 2);
        assert_eq!(node.child_index_for_lower_bound(30), 2);
        assert_eq!(node.child_index_for_lower_bound(31), 3);
    }

    #[test]
    fn node_xor_is_xor_of_entry_aggregates() {
        let node = aug_node(
            NodeKind::Leaf,
            &[(1, 1, 0b0011), (2, 2, 0b0101), (3, 3, 0b1001)],
        );
        assert_eq!(
            XorFold.summarize(&node.entries),
            d(0b0011 ^ 0b0101 ^ 0b1001)
        );
        assert_eq!(XorFold.summarize(&[]), Digest::ZERO);
        let mut patched = XorFold.summarize(&node.entries[..2]);
        XorFold.absorb(&mut patched, &node.entries[2].digest);
        assert_eq!(patched, XorFold.summarize(&node.entries));
    }

    #[test]
    fn page_digest_is_hash_of_concatenated_digests() {
        let alg = HashAlgorithm::Sha1;
        let node = aug_node(NodeKind::Leaf, &[(1, 1, 0xAA), (2, 2, 0xBB)]);
        let mut concat = Vec::new();
        concat.extend_from_slice(d(0xAA).as_bytes());
        concat.extend_from_slice(d(0xBB).as_bytes());
        assert_eq!(MerkleHash(alg).summarize(&node.entries), alg.hash(&concat));
        // The digest of an empty page is the hash of the empty string.
        assert_eq!(MerkleHash(alg).summarize(&[]), alg.hash(b""));
    }

    #[test]
    fn page_digest_changes_with_entry_order_and_content() {
        let merkle = MerkleHash(HashAlgorithm::Sha1);
        let a = aug_node(NodeKind::Leaf, &[(1, 1, 1), (2, 2, 2)]);
        let mut b = a.clone();
        b.entries.swap(0, 1);
        assert_ne!(merkle.summarize(&a.entries), merkle.summarize(&b.entries));
        let mut c = a.clone();
        c.entries[0].digest = d(9);
        assert_ne!(merkle.summarize(&a.entries), merkle.summarize(&c.entries));
    }

    // ------------------------------------------------ hostile pages

    /// Both decoders on one page: a typed corruption error, or a node whose
    /// re-encoding decodes to itself. Returns how many decoders accepted.
    fn decode_both(page: &Page) -> usize {
        let mut accepted = 0;
        match BTreeNode::from_page(page) {
            Ok(node) => {
                assert_eq!(BTreeNode::from_page(&node.to_page()).unwrap(), node);
                accepted += 1;
            }
            Err(e) => assert!(matches!(e, StorageError::Corrupted(_)), "{e:?}"),
        }
        match AugNode::from_page(page) {
            Ok(node) => {
                assert_eq!(AugNode::from_page(&node.to_page()).unwrap(), node);
                accepted += 1;
            }
            Err(e) => assert!(matches!(e, StorageError::Corrupted(_)), "{e:?}"),
        }
        accepted
    }

    #[test]
    fn header_fields_at_their_extremes_decode_or_fail_typed() {
        let mut rng = StdRng::seed_from_u64(19);
        for kind in [0u8, 1, 2, 0x7F, 0xFF] {
            for pad in [0u8, 0xFF] {
                for count in [0u16, 1, 127, 128, 340, 341, 0x7FFF, 0xFFFF] {
                    for link in [0u64, 1, u64::MAX - 1, u64::MAX] {
                        let mut page = Page::new();
                        for b in page.as_mut_slice().iter_mut() {
                            *b = rng.gen();
                        }
                        page.write_u8(0, kind);
                        page.write_u8(1, pad);
                        page.write_u16(2, count);
                        page.write_u64(4, link);
                        let accepted = decode_both(&page);
                        // Exactly the kinds 0/1 within each layout's capacity
                        // decode.
                        let btree_ok = kind <= 1 && usize::from(count) <= LEAF_CAPACITY;
                        let aug_ok = kind <= 1 && usize::from(count) <= AUG_CAPACITY;
                        assert_eq!(
                            accepted,
                            usize::from(btree_ok) + usize::from(aug_ok),
                            "kind {kind} count {count}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn random_and_bit_flipped_pages_never_panic_either_decoder() {
        let mut rng = StdRng::seed_from_u64(0xDEC0DE);
        let mut accepted = 0;
        for case in 0..10_000u32 {
            let page = if case % 2 == 0 {
                // Random bytes, with a plausible header half the time so the
                // entry loops run too.
                let mut page = Page::new();
                for b in page.as_mut_slice().iter_mut() {
                    *b = rng.gen();
                }
                if rng.gen_bool(0.5) {
                    page.write_u8(0, rng.gen_range(0u8..2));
                    page.write_u16(2, rng.gen_range(0u16..(LEAF_CAPACITY as u16 + 4)));
                }
                page
            } else {
                // A valid node of either layout with up to eight bits flipped.
                let kind = if rng.gen_bool(0.5) {
                    NodeKind::Leaf
                } else {
                    NodeKind::Internal
                };
                let mut page = if rng.gen_bool(0.5) {
                    let mut node = AugNode::new(kind);
                    for _ in 0..rng.gen_range(0..=AUG_CAPACITY) {
                        node.entries.push(AugEntry {
                            key: rng.gen(),
                            ptr: rng.gen(),
                            digest: d(rng.gen()),
                        });
                    }
                    node.to_page()
                } else {
                    let mut node = BTreeNode::new_internal(PageId(rng.gen()));
                    node.kind = kind;
                    for _ in 0..rng.gen_range(0..=LEAF_CAPACITY) {
                        node.leaf_entries.push((rng.gen(), rng.gen()));
                        node.internal_entries.push((rng.gen(), PageId(rng.gen())));
                    }
                    node.to_page()
                };
                for _ in 0..rng.gen_range(1u32..=8) {
                    let bit = rng.gen_range(0..PAGE_SIZE * 8);
                    let byte = page.read_u8(bit / 8) ^ (1 << (bit % 8));
                    page.write_u8(bit / 8, byte);
                }
                page
            };
            accepted += decode_both(&page);
        }
        // Both outcomes were exercised.
        assert!(accepted > 1_000, "{accepted}");
        assert!(accepted < 20_000, "{accepted}");
    }
}
