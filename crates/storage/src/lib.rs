//! # sae-storage
//!
//! Disk-page storage engine underlying every index in the SAE reproduction.
//!
//! The paper's evaluation runs all indexes (the SP's B⁺-Tree / MB-Tree and the
//! TE's XB-Tree) as disk-based structures with 4096-byte pages and charges a
//! fixed 10 ms for every node access. This crate provides exactly that
//! substrate:
//!
//! * [`page`] — the fixed-size [`page::Page`] buffer with typed read/write
//!   helpers, and [`page::PageId`].
//! * [`pager`] — the [`pager::PageStore`] abstraction with an in-memory
//!   implementation ([`pager::MemPager`]) and a file-backed implementation
//!   ([`pager::FilePager`]).
//! * [`buffer_pool`] — [`buffer_pool::CachedPager`], an LRU page cache that
//!   wraps any `PageStore`.
//! * [`stats`] — [`stats::IoStats`] counters and the [`stats::CostModel`]
//!   implementing the paper's "10 ms per node access" charging scheme.
//! * [`heap_file`] — [`heap_file::HeapFile`], the fixed-size-record dataset
//!   file the SP scans to return actual result records.
//! * [`manifest`] — the durable-deployment layer: the versioned, checksummed
//!   [`manifest::Manifest`] header page, per-pager-file
//!   [`manifest::ShardHeader`] identity/epoch pages, and the
//!   [`manifest::PageDirectory`] chains persisting heap page tables.
//! * [`mod@crc32`] — the CRC-32/IEEE every WAL and wire frame carries, on
//!   carry-less multiplication where the CPU has it.
//! * [`wal`] — the per-shard write-ahead log: CRC-framed sequential records
//!   appended and fsynced *before* any page write, with torn-tail-tolerant
//!   scans ([`wal::scan_log`]) and checkpoint-time segment rotation.
//! * [`mod@atomic_replace`] — the shared temp+write+fsync+rename idiom
//!   behind both the manifest save and WAL rotation.
//!
//! The cost model is *simulated*: node accesses are counted, not slept on, so
//! paper-scale experiments (a million 500-byte records) run in seconds while
//! reporting the same charged processing times the paper reports.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod atomic_replace;
pub mod buffer_pool;
pub mod crc32;
pub mod error;
pub mod heap_file;
pub mod manifest;
pub mod page;
pub mod pager;
pub mod record_block;
pub mod stats;
pub mod wal;

pub use atomic_replace::atomic_replace;
pub use buffer_pool::CachedPager;
pub use error::{StorageError, StorageResult};
pub use heap_file::{HeapFile, RecordId};
pub use manifest::{
    Manifest, PageDirectory, Party, ShardHeader, ShardMeta, TreeMeta, SHARD_HEADER_PAGE,
    SHARD_META_LEN, TE_DIGEST_LEN,
};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pager::{FilePager, MemPager, PageStore, SharedPageStore};
pub use record_block::RecordBlock;
pub use stats::{CostModel, IoSnapshot, IoStats};
pub use wal::{encode_records, scan_log, WalRecord, WalSegment, WalTx, WalWriter};
