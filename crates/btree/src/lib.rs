//! # sae-btree
//!
//! The paged B⁺-Trees of the reproduction, over [`sae_storage`] pages.
//!
//! Under SAE the service provider indexes the outsourced relation with a plain
//! B⁺-Tree — *no* authentication information is embedded, which is precisely
//! why the paper reports 24–39 % lower query-processing cost at the SP than
//! under TOM (whose MB-Tree carries a 20-byte digest per entry and therefore
//! has a much lower fanout). [`BPlusTree`] is that index:
//!
//! * keys are the 4-byte search keys of the workload, values are record ids
//!   pointing into the SP's dataset heap file;
//! * duplicate keys are fully supported (the SKW datasets contain many);
//! * bulk loading, insertion, deletion and inclusive range scans are provided;
//! * every node touched is counted by the underlying
//!   [`sae_storage::IoStats`], which drives the paper's 10 ms/node-access
//!   cost model.
//!
//! The two authenticated trees share one implementation, [`AugTree`]: the
//! min-key node codec ([`AugNode`]), bulk load, insert, delete, reopen, range
//! and boundary search, and invariant checks are written once, and the
//! XB-Tree (`sae-xbtree`) and MB-Tree (`sae-mbtree`) differ only in their
//! [`Augment`] — an XOR fold or a Merkle page hash. The plain B⁺-Tree keeps
//! its separator layout (341 children per internal node, where a min-key
//! layout of the same 12-byte entries would hold 340) and shares the node
//! header and the metadata checks with them.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod aug;
pub mod node;
pub mod tree;

pub use aug::{AugTree, Augment, MerkleHash, XorFold};
pub use node::{
    AugEntry, AugNode, BTreeNode, NodeKind, AUG_CAPACITY, INTERNAL_CAPACITY, LEAF_CAPACITY,
};
pub use tree::BPlusTree;
