//! # sae-mbtree
//!
//! The MB-Tree (Merkle B⁺-Tree) and its verification objects — the
//! authenticated data structure of the **traditional outsourcing model (TOM)**
//! the paper compares SAE against.
//!
//! Following the paper's description (§I, after Li et al. SIGMOD'06):
//!
//! * every leaf entry is associated with the digest of the binary
//!   representation of its record;
//! * every intermediate entry is associated with a digest computed over the
//!   concatenation of the digests stored in the child page it points to;
//! * the data owner signs the digest of the root page;
//! * for a range query the SP returns, besides the result, a **verification
//!   object (VO)** containing the two boundary records that enclose the
//!   result and the digests of all pruned siblings along the two boundary
//!   paths, plus the owner's signature;
//! * the client re-constructs the root digest from the result and the VO and
//!   matches it against the signature. Soundness follows from collision
//!   resistance, completeness from the boundary records.
//!
//! Because MB-Tree entries carry a 20-byte digest, the tree's fanout is about
//! a third of the plain B⁺-Tree's — this is the structural reason the paper
//! measures 24–39 % higher SP cost under TOM (Figure 6) and VOs that are 2–3
//! orders of magnitude larger than SAE's 20-byte token (Figure 5).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod tree;
pub mod vo;

pub use tree::MbTree;
pub use vo::{VerificationObject, VerifyError, VoItem};
