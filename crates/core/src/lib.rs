//! # sae-core
//!
//! The outsourcing protocols of the paper, end to end: **SAE** (the proposed
//! model that separates authentication from query execution) and **TOM** (the
//! traditional model used as the baseline).
//!
//! ## Entities
//!
//! | Entity | SAE ([`sae`]) | TOM ([`tom`]) |
//! |--------|---------------|----------------|
//! | Data owner (DO) | ships records to the SP and reduced tuples to the TE; forwards updates | builds/maintains the MB-Tree digests, signs the root, forwards updates |
//! | Service provider (SP) | conventional DBMS: heap file + B⁺-Tree, returns *only* results | heap file + MB-Tree, returns results **and** a VO |
//! | Trusted entity (TE) | XB-Tree over `(id, key, digest)` tuples, returns the 20-byte VT | — (does not exist) |
//! | Client | XORs the digests of the received records and compares with the VT | re-constructs the root digest from result + VO and checks the signature |
//!
//! ## What the crate provides
//!
//! * [`sae::SaeSystem`] and [`tom::TomSystem`] — complete, queryable
//!   sequential deployments of each model over any
//!   [`sae_storage::PageStore`]: the reference models the figures use;
//! * [`tamper::TamperStrategy`] — malicious-SP behaviours (drop / inject /
//!   modify / substitute results) used to exercise the security argument;
//! * [`metrics::QueryMetrics`] — per-query cost accounting in exactly the
//!   units the paper's figures use (authentication bytes, charged
//!   node-access milliseconds per party, client verification time);
//! * [`sharded::ShardedSaeEngine`] — the one concurrent engine: `N ≥ 1`
//!   independent SP/TE pairs behind per-shard lock pairs (one shard is the
//!   paper's single pair), optional buffer pooling under both parties,
//!   routed writes, and scatter-gather range queries whose per-shard slices
//!   the client stitches back together soundly (a dropped shard slice or a
//!   record smuggled across a shard boundary is a detected tamper);
//! * [`engine`] — thread-pooled batch, closed-loop and read/write drivers
//!   with p50/p99 latency and queries/sec aggregation;
//! * [`durable`] — the durable serving path:
//!   `ShardedSaeEngine::create_dir` gives every shard its own
//!   `sp-<i>.pages`/`te-<i>.pages` [`sae_storage::FilePager`] pair under a
//!   checksummed `MANIFEST`, commit every accepted update in pages-before-
//!   manifest order, and `open_dir` reopens the trees from their committed
//!   roots (validating identity headers, commit epochs and the TE's
//!   published digest) instead of rebuilding from the dataset. The
//!   [`durable::DurabilityPolicy`] knob selects *when* accepted writes
//!   commit: per update, batched behind an elected group-commit leader
//!   (one fsync set per batch), or only at `flush()`/`close()`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod durable;
pub mod engine;
pub mod metrics;
pub mod replica;
pub mod sae;
pub mod sharded;
pub mod tamper;
pub mod tom;

pub use durable::{CommitCrashPoint, DurabilityPolicy};
pub use engine::{serve_batch, QueryService, ThroughputReport};
pub use metrics::{LatencySummary, QueryMetrics, StorageBreakdown};
pub use replica::{ReplicaSet, SnapshotHeader, SNAPSHOT_HEADER_LEN, SNAPSHOT_MAGIC};
pub use sae::{SaeClient, SaeQueryOutcome, SaeSystem, SaeVerifyError, TrustedEntity};
pub use sae_storage::RecordBlock;
pub use sharded::{
    verify_slices, ShardLayout, ShardSlice, ShardedQueryOutcome, ShardedSaeEngine,
    ShardedVerifyError,
};
pub use tamper::TamperStrategy;
pub use tom::{TomQueryOutcome, TomSystem};
