//! # sae-net
//!
//! The verified network serving layer: a hand-rolled, dependency-free
//! binary wire protocol over TCP, thread-per-connection shard servers,
//! trustless read replicas, and a scatter-gather client that verifies
//! results **exactly** as the in-process one.
//!
//! The normative byte-level specification lives in `docs/protocol.md` and
//! the replication design in `docs/replication.md`; this crate is their
//! reference implementation. The design carries the paper's trust model
//! onto the wire unchanged:
//!
//! * the [`ShardServer`] is the *service provider* — untrusted. It fronts
//!   any [`SliceSource`] (a primary engine or an installed replica copy),
//!   executes queries and ships back result slices plus the trusted
//!   entity's 20-byte verification token, but nothing it says is believed;
//! * a [`ReplicaServer`] syncs a [`sae_core::ReplicaSet`] from a primary —
//!   chunked epoch-stamped snapshots, then incremental WAL tails — and
//!   serves it exactly like a primary. Replicas add *availability*, never
//!   trust: their slices face the same client verification;
//! * the [`NetClient`] derives the responder set from the *published*
//!   [`sae_core::ShardLayout`], scatters over a [`Topology`] of replica
//!   groups — every overlapping shard's request **in flight at once**,
//!   pipelined from the caller thread, with failover and true hedged reads
//!   (see [`client`]'s module docs for the concurrency model) — and runs
//!   [`sae_core::verify_slices`] — the very function the in-process engine
//!   uses — over whatever arrived. A dropped endpoint is a
//!   [`sae_core::ShardedVerifyError::MissingShardSlice`];
//!   a doctored record or token is a per-slice verification failure that
//!   demotes the replica and re-issues the sub-query to a sibling. Network
//!   failure and byzantine behaviour collapse into the same typed verdicts
//!   as in-process tampering;
//! * the framing ([`frame`]) reuses the WAL's CRC-32/IEEE discipline:
//!   `[len][crc32][payload]`, little-endian, with a hard payload cap so a
//!   garbage length claim is rejected before any allocation. Truncated,
//!   corrupt, oversized and wrong-version frames each produce a distinct
//!   typed [`NetError`] — never a panic.
//!
//! ## A complete loopback deployment
//!
//! ```
//! use std::sync::Arc;
//! use sae_core::ShardedSaeEngine;
//! use sae_crypto::HashAlgorithm;
//! use sae_net::{NetClient, ShardServer, ShardServerConfig};
//! use sae_workload::{DatasetSpec, KeyDistribution, RangeQuery};
//!
//! // An in-memory two-shard engine over a small uniform dataset.
//! let dataset = DatasetSpec {
//!     cardinality: 300,
//!     distribution: KeyDistribution::Uniform { domain: 10_000 },
//!     record_size: 64,
//!     seed: 7,
//! }
//! .generate();
//! let engine = Arc::new(ShardedSaeEngine::build_in_memory(&dataset, HashAlgorithm::Sha1, 2)?);
//!
//! // One server per shard, each on its own ephemeral loopback port.
//! let servers: Vec<ShardServer> = (0..engine.shard_count())
//!     .map(|shard| {
//!         ShardServer::spawn(
//!             Arc::clone(&engine),
//!             vec![shard],
//!             "127.0.0.1:0",
//!             ShardServerConfig::default(),
//!         )
//!     })
//!     .collect::<Result<_, _>>()?;
//! let endpoints = servers.iter().map(|s| s.local_addr().to_string()).collect();
//!
//! // Scatter a full-domain range query, gather and verify the slices.
//! let mut client = NetClient::for_engine(&engine, endpoints)?;
//! let outcome = client.query(&RangeQuery::new(0, 10_000));
//! assert!(outcome.verdict.is_ok());
//! assert_eq!(outcome.record_count(), 300);
//!
//! for server in servers {
//!     server.shutdown();
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod client;
pub mod frame;
pub mod replica;
pub mod server;
pub mod source;
pub mod topology;

pub use client::{NetClient, NetClientConfig, NetQueryOutcome, ProbeReport};
pub use frame::{
    decode_frame, encode_frame, read_frame, slice_to_message, write_frame, Message, NetError,
    NetResult, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD, WIRE_VERSION,
};
pub use replica::{ReplicaServer, ReplicaServerConfig};
pub use server::{
    NetStats, NetStatsSnapshot, ServerTamper, ShardServer, ShardServerConfig, SNAPSHOT_CHUNK_SIZE,
};
pub use source::SliceSource;
pub use topology::Topology;
