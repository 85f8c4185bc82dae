//! # sae — Separating Authentication from Query Execution in Outsourced Databases
//!
//! A full reproduction of the SAE outsourcing model (Papadopoulos, Papadias,
//! Cheng, Tan — ICDE 2009) and of the traditional outsourcing model (TOM) it
//! is evaluated against, implemented from scratch in Rust.
//!
//! This facade crate re-exports the whole stack so applications can depend on
//! a single crate:
//!
//! * [`crypto`] — 20-byte digests, XOR aggregation, SHA-1/SHA-256, HMAC,
//!   big integers and textbook RSA signatures.
//! * [`storage`] — 4096-byte pages, in-memory and file-backed pagers, an LRU
//!   buffer pool, heap files and the 10 ms/node-access cost model.
//! * [`workload`] — the paper's synthetic datasets (UNF/SKW), record model and
//!   range-query workloads.
//! * [`btree`] — the plain B⁺-Tree the SAE service provider uses.
//! * [`mbtree`] — the Merkle B⁺-Tree and verification objects of TOM.
//! * [`xbtree`] — the XB-Tree, the paper's contribution at the trusted entity.
//! * [`core`] — the end-to-end SAE and TOM deployments (DO / SP / TE /
//!   client), the malicious-SP model and per-query metrics.
//! * [`net`] — the networked deployment: a framed TCP wire protocol,
//!   thread-per-connection shard servers and a scatter-gather client that
//!   verifies slices and tokens exactly as the in-process client.
//!
//! ## Quick start
//!
//! ```
//! use sae::prelude::*;
//!
//! // The data owner's relation: 10k records, uniform keys, 500-byte records.
//! let dataset = DatasetSpec::paper(10_000, KeyDistribution::unf(), 42).generate();
//!
//! // Outsource it: records go to the SP, reduced tuples go to the TE.
//! let system = SaeSystem::build_in_memory(&dataset, HashAlgorithm::Sha1).unwrap();
//!
//! // A client issues a range query and verifies the result with the
//! // 20-byte token obtained from the trusted entity.
//! let query = RangeQuery::new(1_000_000, 1_050_000);
//! let outcome = system.query(&query).unwrap();
//! assert!(outcome.metrics.verified);
//! assert_eq!(outcome.metrics.auth_bytes, 20);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use sae_btree as btree;
pub use sae_core as core;
pub use sae_crypto as crypto;
pub use sae_mbtree as mbtree;
pub use sae_net as net;
pub use sae_storage as storage;
pub use sae_workload as workload;
pub use sae_xbtree as xbtree;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use sae_core::{
        CommitCrashPoint, DurabilityPolicy, LatencySummary, QueryMetrics, SaeClient,
        SaeQueryOutcome, SaeSystem, SaeVerifyError, ShardLayout, ShardSlice, ShardedQueryOutcome,
        ShardedSaeEngine, ShardedVerifyError, StorageBreakdown, TamperStrategy, ThroughputReport,
        TomQueryOutcome, TomSystem, TrustedEntity,
    };
    pub use sae_crypto::{
        hash_bytes, Digest, HashAlgorithm, MacSigner, RsaSigner, Signer, Verifier, XorDigest,
        DIGEST_LEN,
    };
    pub use sae_mbtree::{MbTree, VerificationObject, VerifyError};
    pub use sae_net::{
        NetClient, NetClientConfig, NetError, NetQueryOutcome, ServerTamper, ShardServer,
        ShardServerConfig,
    };
    pub use sae_storage::{
        CostModel, FilePager, HeapFile, IoStats, MemPager, PageStore, SharedPageStore, PAGE_SIZE,
    };
    pub use sae_workload::{
        Dataset, DatasetSpec, KeyDistribution, QueryMix, QueryWorkload, RangeQuery, Record, TeTuple,
    };
    pub use sae_xbtree::{TupleStore, VerificationToken, XbTree};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_compose() {
        let dataset = DatasetSpec::paper(500, KeyDistribution::unf(), 1).generate();
        let system = SaeSystem::build_in_memory(&dataset, HashAlgorithm::Sha1).unwrap();
        let outcome = system.query(&RangeQuery::new(0, 10_000_000)).unwrap();
        assert!(outcome.metrics.verified);
        assert_eq!(outcome.records.len(), 500);
    }
}
