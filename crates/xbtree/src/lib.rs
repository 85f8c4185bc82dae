//! # sae-xbtree
//!
//! The **XB-Tree (XOR B-Tree)** — the index the SAE trusted entity uses to
//! compute verification tokens, i.e. the paper's core contribution (§III).
//!
//! The trusted entity stores, for every record `r` of the outsourced relation,
//! the reduced tuple `t = <id, key, h>` where `h` is the digest of `r`'s
//! binary representation. For a range query `q` it must return the
//! **verification token** `VT = ⊕ t.h` over all tuples qualifying `q`. A
//! sequential scan of the tuple set would make the TE's effort proportional to
//! the dataset; the XB-Tree instead organizes XOR aggregates inside a paged
//! search tree so that [`XbTree::generate_vt`] touches only `O(log n)` nodes —
//! two root-to-leaf traversals, independent of the result size — exactly the
//! cost profile reported in the paper's Figure 6.
//!
//! ## Relation to the paper's node layout
//!
//! The paper describes intermediate entries `<sk, L, X, c>` where `L` points
//! to a dedicated page holding the `(id, digest)` pairs of the tuples whose
//! key equals `sk`. This repository keeps the same *aggregation structure*
//! (every entry carries an `X` value equal to the XOR of all digests below
//! it; fully-covered entries contribute `X` directly, partially-covered ones
//! are descended into; updates patch `X` along one root-to-leaf path) but
//! stores the per-key tuples in the leaf level of the tree itself instead of
//! separate `L` pages. This is purely a storage-packing choice: with largely
//! unique keys a dedicated page per distinct key would waste two orders of
//! magnitude of space, while the packed layout preserves the algorithmic
//! costs (logarithmic VT generation and maintenance, tiny TE footprint) that
//! the evaluation measures. The substitution is documented in
//! `docs/architecture.md` ("The index layer").
//!
//! The tree itself is [`sae_btree::AugTree`] under the
//! [`sae_btree::XorFold`] augmentation — the same 127-way min-key tree as
//! TOM's MB-Tree, so the Figure 6 comparison differs only in what an entry
//! summarises. This crate adds what is specific to the TE: `GenerateVT`.
//!
//! The crate also provides [`scan::TupleStore`], the "no index" baseline the
//! paper motivates the XB-Tree against (ablation E5).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod scan;
pub mod tree;

pub use scan::TupleStore;
pub use tree::{VerificationToken, XbTree};
