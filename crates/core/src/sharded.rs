//! The concurrent SAE engine: key-range shards with verified scatter-gather
//! queries.
//!
//! [`ShardedSaeEngine`] is the one engine that serves many clients at once,
//! in memory or durably. With one shard it is the paper's single SP/TE pair
//! behind a lock pair, and every data-owner update serializes behind those
//! two write locks. The SAE model partitions cleanly by key range — each
//! shard is an independent SP (heap + B⁺-Tree) plus TE (XB-Tree digest
//! domain) — so with `N` shards the engine holds `N` such pairs, each behind
//! its own lock pair:
//!
//! * **Routing.** A point insert or delete touches exactly the shard owning
//!   its key ([`ShardLayout::shard_of`]); writes to different shards run
//!   fully in parallel.
//! * **Scatter-gather.** A range query is clamped to every overlapping shard
//!   ([`ShardLayout::clamp`]), each shard answers its sub-range and its own
//!   TE emits a verification token for that sub-range, and the client
//!   stitches the slices back together.
//!
//! ## Sound stitching
//!
//! Per-shard verification alone is not enough: a malicious SP could silently
//! *omit an entire shard's slice* and every remaining slice would still
//! verify. The client therefore derives, from the published [`ShardLayout`],
//! exactly which shards a query must have answered, and
//! [`ShardedSaeEngine::verify_scatter`] rejects a response whose slice list
//! is not exactly that set in ascending shard order
//! ([`ShardedVerifyError::MissingShardSlice`] et al.). Within each slice the
//! ordinary [`SaeClient`] checks run against the *clamped* sub-query, so a
//! record smuggled across a shard boundary ([`TamperStrategy::ShardBoundarySwap`])
//! is caught twice over: its key is outside the receiving shard's clamped
//! range, and both affected tokens stop matching their slices' XOR folds.
//! Because shard ranges are disjoint and visited in ascending order, the
//! per-slice checks also imply global key order and global record-id
//! uniqueness across the stitched result.
//!
//! ## Consistency under concurrency
//!
//! Each slice is produced while holding that shard's SP read lock across its
//! TE read, so every slice is internally consistent and verifies against its
//! own token even while writers are active on other shards. A query spanning
//! several shards may observe shard `j` before and shard `k` after some
//! concurrent update — exactly the per-key-range consistency a range-sharded
//! deployment provides.

use crate::durable::{CommitCrashPoint, Durability, DurabilityPolicy, ShardStores};
use crate::engine::{serve_batch, QueryService, ThroughputReport};
use crate::metrics::QueryMetrics;
use crate::sae::{
    delete_from_parties, insert_into_parties, SaeClient, SaeServiceProvider, SaeVerifyError,
    TeMode, TrustedEntity,
};
use crate::tamper::TamperStrategy;
use parking_lot::{RwLock, RwLockWriteGuard};
use sae_crypto::{Digest, HashAlgorithm, DIGEST_LEN};
use sae_storage::{
    CachedPager, CostModel, IoSnapshot, IoStats, MemPager, PageStore, RecordBlock, SharedPageStore,
    StorageError, StorageResult,
};
use sae_workload::{Dataset, DatasetSpec, RangeQuery, Record, RecordKey};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// An equal-width partition of the key domain `[0, domain]` into contiguous,
/// disjoint shard ranges. Published by the data owner alongside the schema,
/// so the client can derive which shards must answer a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardLayout {
    /// Inclusive upper key bound of each shard, ascending; the last entry is
    /// the domain bound.
    uppers: Vec<RecordKey>,
}

impl ShardLayout {
    /// Splits `[0, domain]` into `shards` equal-width ranges (shard `k`
    /// starts at `k * (domain + 1) / shards` — the boundary formula
    /// [`sae_workload::QueryMix::spanning`] straddles). `shards` is clamped
    /// to `[1, domain + 1]` so every shard owns at least one key.
    pub fn uniform(domain: RecordKey, shards: usize) -> ShardLayout {
        let span = domain as u64 + 1;
        let shards = (shards.max(1) as u64).min(span);
        let uppers = (1..=shards)
            .map(|k| (k * span / shards - 1) as RecordKey)
            .collect();
        ShardLayout { uppers }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.uppers.len()
    }

    /// The inclusive key domain bound the layout covers.
    pub fn domain(&self) -> RecordKey {
        // analyzer:allow(no-unwrap-in-lib, both layout constructors reject an empty shard list)
        *self.uppers.last().expect("layouts have at least one shard")
    }

    /// The shard owning `key`. Keys above the domain bound map to the last
    /// shard (they can only appear in fabricated records, which fail
    /// verification anyway).
    pub fn shard_of(&self, key: RecordKey) -> usize {
        self.uppers
            .partition_point(|&upper| upper < key)
            .min(self.uppers.len() - 1)
    }

    /// Reconstructs a layout from the per-shard upper bounds a manifest
    /// recorded. The bounds must be non-empty and strictly ascending.
    pub fn from_uppers(uppers: Vec<RecordKey>) -> StorageResult<ShardLayout> {
        if uppers.is_empty() {
            return Err(StorageError::Corrupted(
                "shard layout must have at least one shard".into(),
            ));
        }
        if !uppers.windows(2).all(|w| w[0] < w[1]) {
            return Err(StorageError::Corrupted(
                "shard layout bounds are not strictly ascending".into(),
            ));
        }
        Ok(ShardLayout { uppers })
    }

    /// The inclusive key range `[lower, upper]` of shard `i`.
    pub fn range(&self, i: usize) -> RangeQuery {
        let lower = if i == 0 { 0 } else { self.uppers[i - 1] + 1 };
        RangeQuery::new(lower, self.uppers[i])
    }

    /// The overlap of `q` with shard `i`, or `None` when they are disjoint.
    pub fn clamp(&self, i: usize, q: &RangeQuery) -> Option<RangeQuery> {
        let range = self.range(i);
        let lower = range.lower.max(q.lower);
        let upper = range.upper.min(q.upper);
        (lower <= upper).then(|| RangeQuery::new(lower, upper))
    }

    /// The ascending shard indices whose ranges overlap `q` — exactly the
    /// shards that must contribute a slice to the query's answer.
    pub fn overlapping(&self, q: &RangeQuery) -> Vec<usize> {
        (0..self.shard_count())
            .filter(|&i| self.clamp(i, q).is_some())
            .collect()
    }

    /// The ascending `(shard, clamped sub-query)` pairs for every shard whose
    /// range overlaps `q`: the filter and the clamp in one pass, so callers
    /// never re-clamp an index the filter already proved overlaps.
    pub fn overlapping_clamped(&self, q: &RangeQuery) -> Vec<(usize, RangeQuery)> {
        (0..self.shard_count())
            .filter_map(|i| self.clamp(i, q).map(|sub| (i, sub)))
            .collect()
    }
}

/// One shard's contribution to a scatter-gather answer: the records of the
/// clamped sub-query plus that shard's TE verification token.
#[derive(Clone, Debug)]
pub struct ShardSlice {
    /// Which shard produced the slice.
    pub shard: usize,
    /// The encoded result records of the clamped sub-query, in key order,
    /// packed into one block.
    pub records: RecordBlock,
    /// The shard TE's verification token over the clamped sub-query.
    pub vt: Digest,
}

/// Why the client rejected a stitched scatter-gather result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardedVerifyError {
    /// A shard that must answer the query contributed no slice — the
    /// dropped-shard completeness attack.
    MissingShardSlice {
        /// The shard whose slice is missing.
        shard: usize,
    },
    /// A slice arrived from a shard the query does not overlap.
    UnexpectedShardSlice {
        /// The offending shard index.
        shard: usize,
    },
    /// The responding shards match the expected set but the slices are
    /// duplicated or not in ascending shard order.
    SlicesOutOfOrder,
    /// A slice failed the ordinary per-shard SAE verification against its
    /// clamped sub-query and shard token.
    Slice {
        /// The shard whose slice failed.
        shard: usize,
        /// The per-slice verification error.
        error: SaeVerifyError,
    },
    /// A networked shard honestly refused its slice as larger than one
    /// response frame may carry. The refusal is deterministic — every
    /// replica of the shard would repeat it — so the client neither fails
    /// over nor demotes; the range must be narrowed. Never produced by
    /// [`verify_slices`] itself.
    ResponseTooLarge {
        /// The shard whose slice was refused.
        shard: usize,
    },
}

impl std::fmt::Display for ShardedVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedVerifyError::MissingShardSlice { shard } => {
                write!(f, "shard {shard} must answer the query but sent no slice")
            }
            ShardedVerifyError::UnexpectedShardSlice { shard } => {
                write!(
                    f,
                    "shard {shard} sent a slice but does not overlap the query"
                )
            }
            ShardedVerifyError::SlicesOutOfOrder => {
                write!(f, "shard slices duplicated or not in ascending shard order")
            }
            ShardedVerifyError::Slice { shard, error } => {
                write!(f, "slice of shard {shard} failed verification: {error}")
            }
            ShardedVerifyError::ResponseTooLarge { shard } => {
                write!(
                    f,
                    "shard {shard} refused its slice as too large for one frame"
                )
            }
        }
    }
}

impl std::error::Error for ShardedVerifyError {}

/// The sound-stitching check of a scatter-gather response, as a free
/// function of *published* data only — the shard layout, the deployment
/// parameters inside [`SaeClient`], the query and the claimed slices.
/// [`ShardedSaeEngine`] runs it in-process and `sae-net`'s `NetClient` runs
/// the very same code across a wire, so a networked deployment cannot weaken
/// the verification story by construction.
///
/// The client derives, from the layout, exactly which shards must have
/// answered: anything less (a dropped slice), more, duplicated or reordered
/// is rejected before any cryptography runs. Each surviving slice then runs
/// the full per-shard [`SaeClient`] check against its *clamped* sub-query
/// and its shard's token; disjoint ascending ranges make those checks imply
/// global key order and cross-shard record-id uniqueness.
pub fn verify_slices(
    layout: &ShardLayout,
    client: &SaeClient,
    q: &RangeQuery,
    slices: &[ShardSlice],
) -> Result<(), ShardedVerifyError> {
    let expected = layout.overlapping_clamped(q);
    let exact = slices.len() == expected.len()
        && slices
            .iter()
            .zip(&expected)
            .all(|(slice, (shard, _))| slice.shard == *shard);
    if !exact {
        for (shard, _) in &expected {
            if !slices.iter().any(|s| s.shard == *shard) {
                return Err(ShardedVerifyError::MissingShardSlice { shard: *shard });
            }
        }
        if let Some(slice) = slices
            .iter()
            .find(|s| !expected.iter().any(|(shard, _)| *shard == s.shard))
        {
            return Err(ShardedVerifyError::UnexpectedShardSlice { shard: slice.shard });
        }
        return Err(ShardedVerifyError::SlicesOutOfOrder);
    }

    // The exactness check above proved `slices` and `expected` align
    // pairwise, so each slice verifies against its own clamped range.
    for (slice, (_, sub)) in slices.iter().zip(&expected) {
        let (outcome, _) = client.verify_detailed(sub, &slice.records, &slice.vt);
        if let Err(error) = outcome {
            return Err(ShardedVerifyError::Slice {
                shard: slice.shard,
                error,
            });
        }
    }
    Ok(())
}

/// Everything a sharded query run produces.
#[derive(Clone, Debug)]
pub struct ShardedQueryOutcome {
    /// The (possibly tampered) per-shard slices, in response order.
    pub slices: Vec<ShardSlice>,
    /// The client's stitched verification verdict.
    pub verdict: Result<(), ShardedVerifyError>,
    /// Cost accounting for the query.
    pub metrics: QueryMetrics,
}

/// One key-range shard: an independent SP/TE pair behind its own lock pair.
struct SaeShard {
    sp: RwLock<SaeServiceProvider>,
    te: RwLock<TrustedEntity>,
    sp_stats: Arc<IoStats>,
    te_stats: Arc<IoStats>,
    sp_cache: Option<Arc<CachedPager>>,
}

/// The SAE deployment split into `N` key-range shards, each an independent
/// SP/TE pair behind its own `RwLock` pair (lock order within a shard is SP
/// before TE, and a query visits shards in ascending index order, so there
/// are no lock cycles). See the module docs for the verification story.
pub struct ShardedSaeEngine {
    layout: ShardLayout,
    shards: Vec<SaeShard>,
    client: SaeClient,
    cost_model: CostModel,
    record_len: usize,
    /// Every record id present anywhere in the deployment. Each shard's SP
    /// only knows its own directory, so without this the data owner could
    /// insert the same id under keys owned by different shards — something
    /// a single SP/TE pair rejects. The lock is held only for the map
    /// probe, never across shard work or the write I/O hold.
    ids: RwLock<HashSet<u64>>,
    /// The durable backing when the engine was created with
    /// [`ShardedSaeEngine::create_dir`] / reopened with
    /// [`ShardedSaeEngine::open_dir`]; `None` for in-memory engines.
    durability: Option<Durability>,
}

impl ShardedSaeEngine {
    /// Builds a sharded in-memory deployment over `dataset` with an
    /// equal-width `shards`-way layout on the dataset's key domain.
    pub fn build_in_memory(
        dataset: &Dataset,
        alg: HashAlgorithm,
        shards: usize,
    ) -> StorageResult<ShardedSaeEngine> {
        Self::build(dataset, alg, shards, None)
    }

    /// Like [`ShardedSaeEngine::build_in_memory`], but wiring a
    /// [`CachedPager`] of `cache_pages` pages under *each shard's* SP and TE
    /// so hot index pages are served from the buffer pool.
    pub fn build_cached(
        dataset: &Dataset,
        alg: HashAlgorithm,
        shards: usize,
        cache_pages: usize,
    ) -> StorageResult<ShardedSaeEngine> {
        Self::build(dataset, alg, shards, Some(cache_pages))
    }

    fn build(
        dataset: &Dataset,
        alg: HashAlgorithm,
        shards: usize,
        cache_pages: Option<usize>,
    ) -> StorageResult<ShardedSaeEngine> {
        let layout = ShardLayout::uniform(dataset.spec.distribution.domain(), shards);
        let stores = (0..layout.shard_count())
            .map(|_| {
                let (sp_store, sp_cache): (SharedPageStore, _) = match cache_pages {
                    Some(pages) => {
                        let cache = Arc::new(CachedPager::new(MemPager::new_shared(), pages));
                        (Arc::clone(&cache) as SharedPageStore, Some(cache))
                    }
                    None => (MemPager::new_shared(), None),
                };
                let te_store: SharedPageStore = match cache_pages {
                    Some(pages) => Arc::new(CachedPager::new(MemPager::new_shared(), pages)),
                    None => MemPager::new_shared(),
                };
                ShardStores {
                    sp_store,
                    sp_cache,
                    te_store,
                }
            })
            .collect();
        Self::build_on_stores(dataset, alg, layout, stores, None)
    }

    /// Partitions `dataset` by the layout and bulk-loads one SP/TE pair per
    /// shard onto the supplied stores — shared by the in-memory and durable
    /// creation paths so the shard construction cannot drift between them.
    /// A durable build checkpoints each shard straight to its page files
    /// while its SP and TE are still bare, then commits the whole creation
    /// with one manifest save.
    fn build_on_stores(
        dataset: &Dataset,
        alg: HashAlgorithm,
        layout: ShardLayout,
        stores: Vec<ShardStores>,
        durability: Option<Durability>,
    ) -> StorageResult<ShardedSaeEngine> {
        let mut partitions: Vec<Vec<Record>> = vec![Vec::new(); layout.shard_count()];
        for record in dataset.iter() {
            partitions[layout.shard_of(record.key)].push(record.clone());
        }

        let mut built = Vec::with_capacity(partitions.len());
        for (i, (records, stores)) in partitions.into_iter().zip(stores).enumerate() {
            let sub = Dataset {
                spec: DatasetSpec {
                    cardinality: records.len(),
                    ..dataset.spec
                },
                records,
            };
            let sp = SaeServiceProvider::build(stores.sp_store, &sub)?;
            let te = TrustedEntity::build(stores.te_store, &sub, alg, TeMode::XbTree)?;
            if let Some(d) = &durability {
                d.checkpoint_created_shard(i, &sp, &te)?;
            }
            let sp_stats = sp.store().stats();
            let te_stats = te.store().stats();
            built.push(SaeShard {
                sp: RwLock::new(sp),
                te: RwLock::new(te),
                sp_stats,
                te_stats,
                sp_cache: stores.sp_cache,
            });
        }
        if let Some(d) = &durability {
            d.commit_creation()?;
        }
        Ok(ShardedSaeEngine {
            layout,
            shards: built,
            client: SaeClient::with_record_len(alg, dataset.spec.record_size),
            cost_model: CostModel::paper(),
            record_len: dataset.spec.record_size,
            ids: RwLock::new(dataset.iter().map(|r| r.id).collect()),
            durability,
        })
    }

    /// Creates a *durable* sharded deployment in `dir`: every shard gets its
    /// own `sp-<i>.pages` / `te-<i>.pages` pager-file pair (each optionally
    /// behind a write-back [`CachedPager`] of `cache_pages` pages) and a
    /// single `MANIFEST` records the layout, committed tree roots and
    /// published TE digests. The bulk load itself is not logged: its pages
    /// are written and synced, and the one manifest save that follows is
    /// the creation's commit point — a creation killed before it leaves no
    /// deployment, and may simply be run again. Every accepted data-owner
    /// update is logged and synced in commit order, so the deployment
    /// survives a restart via [`ShardedSaeEngine::open_dir`]. Commits run
    /// under [`DurabilityPolicy::Immediate`]; use
    /// [`ShardedSaeEngine::create_dir_with`] to pick a policy.
    pub fn create_dir(
        dir: &Path,
        dataset: &Dataset,
        alg: HashAlgorithm,
        shards: usize,
        cache_pages: Option<usize>,
    ) -> StorageResult<ShardedSaeEngine> {
        Self::create_dir_with(
            dir,
            dataset,
            alg,
            shards,
            cache_pages,
            DurabilityPolicy::Immediate,
        )
    }

    /// Like [`ShardedSaeEngine::create_dir`], with an explicit
    /// [`DurabilityPolicy`] governing *when* accepted writes are committed:
    /// per-update (`Immediate`), batched behind an elected leader (`Group` —
    /// one fsync set per batch instead of per write), or only at
    /// `flush()`/`close()` (`FlushOnClose`). The policy is a runtime knob,
    /// not persisted: a deployment may be created under one policy and
    /// reopened under another.
    pub fn create_dir_with(
        dir: &Path,
        dataset: &Dataset,
        alg: HashAlgorithm,
        shards: usize,
        cache_pages: Option<usize>,
        policy: DurabilityPolicy,
    ) -> StorageResult<ShardedSaeEngine> {
        let layout = ShardLayout::uniform(dataset.spec.distribution.domain(), shards);
        let durability = Durability::create(
            dir,
            &layout.uppers,
            dataset.spec.record_size,
            cache_pages,
            policy,
        )?;
        let stores = (0..layout.shard_count())
            .map(|i| durability.stores(i))
            .collect();
        Self::build_on_stores(dataset, alg, layout, stores, Some(durability))
    }

    /// Reopens a deployment created by [`ShardedSaeEngine::create_dir`] from
    /// its committed roots — no shard is rebuilt from the dataset. The
    /// manifest, every pager file's identity header and commit epoch, each
    /// heap's recovered page table and each TE's published digest are all
    /// validated; torn or garbage manifests, swapped shard files and
    /// pages-synced-but-manifest-not crashes
    /// ([`StorageError::StaleManifest`]) surface as typed errors, never as a
    /// panic or a silently-empty deployment.
    pub fn open_dir(
        dir: &Path,
        alg: HashAlgorithm,
        cache_pages: Option<usize>,
    ) -> StorageResult<ShardedSaeEngine> {
        Self::open_dir_with(dir, alg, cache_pages, DurabilityPolicy::Immediate)
    }

    /// Like [`ShardedSaeEngine::open_dir`], with an explicit
    /// [`DurabilityPolicy`] for the reopened deployment's future commits.
    pub fn open_dir_with(
        dir: &Path,
        alg: HashAlgorithm,
        cache_pages: Option<usize>,
        policy: DurabilityPolicy,
    ) -> StorageResult<ShardedSaeEngine> {
        let (durability, recovered) = Durability::open(dir, cache_pages, policy)?;
        let record_len = durability.record_size();
        let layout = ShardLayout::from_uppers(recovered.iter().map(|s| s.meta.upper).collect())?;
        let mut shards = Vec::with_capacity(recovered.len());
        let mut ids: HashSet<u64> = HashSet::new();
        for (i, shard) in recovered.into_iter().enumerate() {
            let stores = durability.stores(i);
            let sp = SaeServiceProvider::open(
                stores.sp_store,
                record_len,
                shard.meta.heap_record_count,
                shard.heap_pages,
                shard.meta.sp_index,
            )?;
            let te = TrustedEntity::open(
                stores.te_store,
                shard.meta.te_tree,
                alg,
                Durability::digest_of(&shard.meta),
            )?;
            for id in sp.record_ids() {
                if !ids.insert(id) {
                    return Err(StorageError::Corrupted(format!(
                        "record id {id} recovered from two different shards"
                    )));
                }
            }
            let sp_stats = sp.store().stats();
            let te_stats = te.store().stats();
            shards.push(SaeShard {
                sp: RwLock::new(sp),
                te: RwLock::new(te),
                sp_stats,
                te_stats,
                sp_cache: stores.sp_cache,
            });
        }
        Ok(ShardedSaeEngine {
            layout,
            shards,
            client: SaeClient::with_record_len(alg, record_len),
            cost_model: CostModel::paper(),
            record_len,
            ids: RwLock::new(ids),
            durability: Some(durability),
        })
    }

    /// Whether this engine is backed by durable files.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durability policy of a durable engine; `None` when in-memory.
    pub fn durability_policy(&self) -> Option<DurabilityPolicy> {
        self.durability.as_ref().map(|d| d.policy())
    }

    /// Arms (or clears) a commit-pipeline fault-injection point on the
    /// durable backing — the next commit fails after completing the named
    /// stage, simulating a kill between commit stages. For the
    /// crash-consistency tests; a no-op on in-memory engines.
    pub fn set_commit_crash_point(&self, point: Option<CommitCrashPoint>) {
        if let Some(d) = &self.durability {
            d.set_crash_point(point);
        }
    }

    /// Overrides the write-ahead-log size past which a commit folds a
    /// checkpoint in (page flush + header/manifest republication + log
    /// truncation). Tests and benches force frequent — or suppress all —
    /// threshold checkpoints with it. A no-op on in-memory engines.
    pub fn set_checkpoint_threshold_bytes(&self, bytes: u64) {
        if let Some(d) = &self.durability {
            d.set_checkpoint_threshold_bytes(bytes);
        }
    }

    /// Commits every shard's current state to disk (no-op for in-memory
    /// engines). Each shard is committed under its read locks, so queries
    /// proceed concurrently while writers are briefly excluded.
    pub fn flush(&self) -> StorageResult<()> {
        if let Some(d) = &self.durability {
            for (i, shard) in self.shards.iter().enumerate() {
                let sp = shard.sp.read();
                let te = shard.te.read();
                // analyzer:allow(hold-across-sync, flush snapshots each shard under its read locks by design; see docs/invariants.md)
                d.commit_shard(i, &sp, &te)?;
            }
        }
        Ok(())
    }

    /// Commits every shard and tears the engine down, surfacing the flush
    /// and sync errors that `Drop` would have to swallow.
    pub fn close(self) -> StorageResult<()> {
        self.flush()
    }

    /// Claims `record`'s id in the deployment-wide directory (rejecting
    /// duplicates) and checks its key against the layout domain; on success
    /// the caller owns the claim and must release it if its shard write
    /// fails.
    fn claim(&self, record: &Record) -> StorageResult<()> {
        if record.key > self.layout.domain() {
            return Err(StorageError::KeyOutOfDomain {
                key: record.key,
                domain: self.layout.domain(),
            });
        }
        if !self.ids.write().insert(record.id) {
            return Err(StorageError::DuplicateRecordId(record.id));
        }
        Ok(())
    }

    /// The published shard layout.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Routes a data-owner insertion to the shard owning the record's key;
    /// only that shard's locks are taken (plus a momentary probe of the
    /// deployment-wide id directory), so writes to other shards proceed
    /// concurrently. Ids duplicated *anywhere* in the deployment and keys
    /// outside the layout domain (which no range query could ever reach) are
    /// rejected. A TE failure rolls the shard's SP insertion back.
    ///
    /// On a durable engine the accepted insert is committed per the
    /// deployment's [`DurabilityPolicy`] before returning: a ticketed
    /// write-ahead-log commit of its own under `Immediate`, a batched
    /// leader commit covering it under `Group`, or not at all under
    /// `FlushOnClose`. A *failed* commit leaves the in-memory insert
    /// standing while the error is reported — memory runs ahead of disk
    /// until the next successful commit (the mutation is not unwound;
    /// under `Group` other writers may already have built on it).
    pub fn insert(&self, record: &Record) -> StorageResult<()> {
        self.claim(record)?;
        let shard_idx = self.layout.shard_of(record.key);
        let shard = &self.shards[shard_idx];
        let mut sp = shard.sp.write();
        let mut te = shard.te.write();
        match insert_into_parties(&mut sp, &mut te, record) {
            Ok(()) => {
                let Some(d) = &self.durability else {
                    return Ok(());
                };
                match d.policy() {
                    DurabilityPolicy::FlushOnClose => Ok(()),
                    _ => self.group_commit_write(d, shard, shard_idx, sp, te),
                }
            }
            Err(e) => {
                self.ids.write().remove(&record.id);
                Err(e)
            }
        }
    }

    /// The ticketed write path shared by `insert`/`delete`
    /// under `Immediate` *and* `Group`: a ticket is taken while the
    /// caller's write guards are still held (so the next commit is
    /// guaranteed to cover the mutation), the guards are released so the
    /// shard accepts further writes, and the call blocks until an elected
    /// leader's commit covers the ticket — appending the transaction to the
    /// write-ahead log under the read locks, then fsyncing the log with no
    /// tree locks held so the next batch queues up meanwhile. `Immediate`
    /// takes the same path but runs its own commit per writer — one log
    /// fsync per acknowledged write, with no batching.
    fn group_commit_write(
        &self,
        d: &Durability,
        shard: &SaeShard,
        shard_idx: usize,
        sp: RwLockWriteGuard<'_, SaeServiceProvider>,
        te: RwLockWriteGuard<'_, TrustedEntity>,
    ) -> StorageResult<()> {
        let ticket = d.announce(shard_idx);
        drop(te);
        drop(sp);
        d.wait_durable(shard_idx, ticket, || {
            let sp = shard.sp.read();
            let te = shard.te.read();
            // analyzer:allow(hold-across-sync, a threshold checkpoint flushes and syncs under the read locks by design — the cache flush must match the logged snapshot; the ack log fsync runs in finish_commit after the guards drop; see docs/invariants.md)
            let prepared = d.prepare_commit(shard_idx, &sp, &te, false)?;
            drop(te);
            drop(sp);
            d.finish_commit(prepared)
        })
    }

    /// Routes a data-owner deletion to the shard owning `key`; one-sided
    /// deletions are rolled back and reported as
    /// [`sae_storage::StorageError::Desync`]. Durable engines commit per the
    /// [`DurabilityPolicy`], exactly as [`ShardedSaeEngine::insert`] does
    /// (a failed commit leaves the in-memory deletion standing while the
    /// error is reported).
    pub fn delete(&self, id: u64, key: RecordKey) -> StorageResult<bool> {
        let shard_idx = self.layout.shard_of(key);
        let shard = &self.shards[shard_idx];
        let mut sp = shard.sp.write();
        let mut te = shard.te.write();
        if !delete_from_parties(&mut sp, &mut te, id, key)? {
            return Ok(false);
        }
        let Some(d) = &self.durability else {
            self.ids.write().remove(&id);
            return Ok(true);
        };
        match d.policy() {
            DurabilityPolicy::FlushOnClose => {
                self.ids.write().remove(&id);
                Ok(true)
            }
            _ => {
                // The record is gone from memory either way; release its id
                // before the durability wait so concurrent writers see the
                // same state queries do.
                self.ids.write().remove(&id);
                self.group_commit_write(d, shard, shard_idx, sp, te)?;
                Ok(true)
            }
        }
    }

    /// Scatters `q` over every overlapping shard: each shard answers its
    /// clamped sub-query under its SP read lock held across its TE read, so
    /// every slice is internally consistent.
    pub fn scatter(&self, q: &RangeQuery) -> StorageResult<Vec<ShardSlice>> {
        let overlapping = self.layout.overlapping_clamped(q);
        let mut slices = Vec::with_capacity(overlapping.len());
        for (i, sub) in overlapping {
            slices.push(self.shard_slice(i, &sub)?);
        }
        Ok(slices)
    }

    /// Answers one shard's clamped sub-query: the records of `sub` from the
    /// shard's SP plus the shard TE's token over exactly that range, produced
    /// under the SP read lock held across the TE read so the slice is
    /// internally consistent. This is the unit a networked shard endpoint
    /// serves (`sae-net`'s `ShardServer` calls it per request); the returned
    /// slice is fully owned, so no tree guard outlives this call.
    pub fn shard_slice(&self, shard: usize, sub: &RangeQuery) -> StorageResult<ShardSlice> {
        let Some(s) = self.shards.get(shard) else {
            return Err(StorageError::Corrupted(format!(
                "shard {shard} does not exist in a {}-shard layout",
                self.shards.len()
            )));
        };
        let sp = s.sp.read();
        let records = sp.query(sub)?;
        let vt = s.te.read().generate_vt(sub)?;
        drop(sp);
        Ok(ShardSlice { shard, records, vt })
    }

    /// Shard `shard`'s last committed epoch — what a serving endpoint
    /// advertises on its slices. 0 for in-memory engines (which have no
    /// commit pipeline) and for durable shards that never committed.
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        match &self.durability {
            Some(d) if shard < self.shards.len() => d.epoch(shard),
            _ => 0,
        }
    }

    /// Exports an epoch-stamped snapshot of shard `shard` for replica
    /// bootstrap: a [`crate::replica::SnapshotHeader`] followed by one
    /// synthetic WAL segment holding every page image, the heap page table
    /// and a `Commit` with the full shard meta (see
    /// `docs/replication.md`). Captured under the shard's tree read locks,
    /// so a consistent cut even with writers active.
    /// [`StorageError::ReplicationUnsupported`] on in-memory engines.
    pub fn export_shard_snapshot(&self, shard: usize) -> StorageResult<Vec<u8>> {
        let Some(d) = &self.durability else {
            return Err(StorageError::ReplicationUnsupported);
        };
        let Some(s) = self.shards.get(shard) else {
            return Err(StorageError::Corrupted(format!(
                "shard {shard} does not exist in a {}-shard layout",
                self.shards.len()
            )));
        };
        let sp = s.sp.read();
        let te = s.te.read();
        d.export_snapshot(shard, &sp, &te)
    }

    /// Exports the WAL tail of shard `shard` covering every commit after
    /// `from_epoch`, for incremental replica catch-up.
    /// [`StorageError::TailUnavailable`] when a checkpoint rotated the
    /// needed commits away (the replica falls back to a snapshot);
    /// [`StorageError::ReplicationUnsupported`] on in-memory engines. Takes
    /// no tree locks.
    pub fn export_wal_tail(&self, shard: usize, from_epoch: u64) -> StorageResult<Vec<u8>> {
        let Some(d) = &self.durability else {
            return Err(StorageError::ReplicationUnsupported);
        };
        if shard >= self.shards.len() {
            return Err(StorageError::Corrupted(format!(
                "shard {shard} does not exist in a {}-shard layout",
                self.shards.len()
            )));
        }
        d.export_wal_tail(shard, from_epoch)
    }

    /// The verifying client of this deployment — exposes the published
    /// parameters (hash algorithm, record length) a *remote* client needs to
    /// run the identical checks on the other side of a wire.
    pub fn client(&self) -> &SaeClient {
        &self.client
    }

    /// Client-side stitched verification of a scatter-gather response.
    /// Returns the verdict and the wall-clock milliseconds spent.
    pub fn verify_scatter(
        &self,
        q: &RangeQuery,
        slices: &[ShardSlice],
    ) -> (Result<(), ShardedVerifyError>, f64) {
        let start = Instant::now();
        let verdict = self.check_scatter(q, slices);
        (verdict, start.elapsed().as_secs_f64() * 1000.0)
    }

    fn check_scatter(
        &self,
        q: &RangeQuery,
        slices: &[ShardSlice],
    ) -> Result<(), ShardedVerifyError> {
        verify_slices(&self.layout, &self.client, q, slices)
    }

    /// Runs one query honestly end to end (scatter, gather, verify).
    pub fn query(&self, q: &RangeQuery) -> StorageResult<ShardedQueryOutcome> {
        self.query_with_tamper(q, TamperStrategy::Honest, 0)
    }

    /// Runs one query with a malicious SP corrupting the scatter-gather
    /// response before the client verifies it. The shard-level strategies
    /// ([`TamperStrategy::DropShardSlice`], [`TamperStrategy::ShardBoundarySwap`])
    /// manipulate whole slices; every other attack is applied *shard-locally*
    /// to the first non-empty slice, replaying the single-pair attacks inside
    /// one shard's domain.
    pub fn query_with_tamper(
        &self,
        q: &RangeQuery,
        tamper: TamperStrategy,
        seed: u64,
    ) -> StorageResult<ShardedQueryOutcome> {
        let mut slices = self.scatter(q)?;
        match tamper {
            TamperStrategy::Honest => {}
            TamperStrategy::DropShardSlice { shard } => {
                if !slices.is_empty() {
                    let victim = shard % slices.len();
                    slices.remove(victim);
                }
            }
            TamperStrategy::ShardBoundarySwap => {
                // Move the record adjacent to the first populated boundary
                // into the neighbouring slice. Global key order and the query
                // range are preserved; only the shard attribution is wrong.
                if let Some(i) = (0..slices.len().saturating_sub(1))
                    .find(|&i| !slices[i].records.is_empty() || !slices[i + 1].records.is_empty())
                {
                    // Cut the two slices' records one place off their
                    // boundary: the left slice's last record moves right,
                    // or, when the left slice is empty, the right slice's
                    // first moves left.
                    let cut = match slices[i].records.len() {
                        0 => 1,
                        left => left - 1,
                    };
                    let both: Vec<&[u8]> = slices[i]
                        .records
                        .iter()
                        .chain(&slices[i + 1].records)
                        .collect();
                    let (left, right) = both.split_at(cut);
                    let (left, right) = (left.iter().collect(), right.iter().collect());
                    slices[i].records = left;
                    slices[i + 1].records = right;
                } else if let Some(slice) = slices.iter_mut().find(|s| s.records.len() >= 2) {
                    // A single responding slice has no boundary to cross;
                    // degrade to the flat-path behaviour (first/last swap,
                    // breaking key order) rather than silently not attacking.
                    let mut records = slice.records.to_vecs();
                    let last = records.len() - 1;
                    records.swap(0, last);
                    slice.records = records.into_iter().collect();
                }
            }
            other => {
                if !slices.is_empty() {
                    let pos = slices
                        .iter()
                        .position(|s| !s.records.is_empty())
                        .unwrap_or(0);
                    let sub = self.layout.clamp(slices[pos].shard, q).ok_or_else(|| {
                        StorageError::Corrupted(
                            "scatter produced a slice from a non-overlapping shard".into(),
                        )
                    })?;
                    let honest = std::mem::take(&mut slices[pos].records);
                    slices[pos].records = other.apply_block(honest, &sub, seed, self.record_len);
                }
            }
        }

        let (verdict, client_ms) = self.verify_scatter(q, &slices);
        let cardinality: u64 = slices.iter().map(|s| s.records.len() as u64).sum();
        Ok(ShardedQueryOutcome {
            metrics: QueryMetrics {
                result_cardinality: cardinality,
                auth_bytes: (DIGEST_LEN * slices.len()) as u64,
                client_verify_ms: client_ms,
                verified: verdict.is_ok(),
                ..Default::default()
            },
            slices,
            verdict,
        })
    }

    /// Aggregated buffer-pool counters over all shards' SPs, when built with
    /// caches.
    pub fn sp_cache_stats(&self) -> Option<IoSnapshot> {
        let mut acc: Option<IoSnapshot> = None;
        for shard in &self.shards {
            if let Some(cache) = &shard.sp_cache {
                let snap = cache.stats().snapshot();
                match &mut acc {
                    Some(total) => total.accumulate(&snap),
                    None => acc = Some(snap),
                }
            }
        }
        acc
    }

    /// Mutable access to one shard's SP, for experiments and fault injection.
    pub fn with_sp_mut<R>(&self, shard: usize, f: impl FnOnce(&mut SaeServiceProvider) -> R) -> R {
        f(&mut self.shards[shard].sp.write())
    }

    /// Mutable access to one shard's TE, for experiments and fault injection.
    pub fn with_te_mut<R>(&self, shard: usize, f: impl FnOnce(&mut TrustedEntity) -> R) -> R {
        f(&mut self.shards[shard].te.write())
    }

    /// Serves a fixed batch over `threads` workers (see [`serve_batch`]).
    pub fn serve_batch(&self, queries: &[RangeQuery], threads: usize) -> ThroughputReport {
        serve_batch(self, queries, threads)
    }
}

impl QueryService for ShardedSaeEngine {
    fn execute(&self, q: &RangeQuery) -> StorageResult<QueryMetrics> {
        let slices = self.scatter(q)?;
        let (verdict, client_ms) = self.verify_scatter(q, &slices);
        Ok(QueryMetrics {
            result_cardinality: slices.iter().map(|s| s.records.len() as u64).sum(),
            auth_bytes: (DIGEST_LEN * slices.len()) as u64,
            client_verify_ms: client_ms,
            verified: verdict.is_ok(),
            ..Default::default()
        })
    }

    fn party_stats(&self) -> Vec<(&'static str, Arc<IoStats>)> {
        // One "sp"/"te" pair per shard; the driver sums deltas by label, so
        // reports still show the two logical parties.
        self.shards
            .iter()
            .flat_map(|shard| {
                [
                    ("sp", Arc::clone(&shard.sp_stats)),
                    ("te", Arc::clone(&shard.te_stats)),
                ]
            })
            .collect()
    }

    fn cost_model(&self) -> CostModel {
        self.cost_model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sae::SaeSystem;
    use sae_storage::StorageError;
    use sae_workload::{KeyDistribution, QueryMix};
    use std::time::Duration;

    const DOMAIN: RecordKey = 100_000;

    fn dataset(n: usize) -> Dataset {
        DatasetSpec {
            cardinality: n,
            distribution: KeyDistribution::Uniform { domain: DOMAIN },
            record_size: 120,
            seed: 12,
        }
        .generate()
    }

    #[test]
    fn layout_partitions_the_domain_exactly() {
        for shards in [1usize, 2, 3, 4, 7, 8] {
            let layout = ShardLayout::uniform(DOMAIN, shards);
            assert_eq!(layout.shard_count(), shards);
            assert_eq!(layout.domain(), DOMAIN);
            // Ranges tile [0, domain] with no gaps or overlaps.
            let mut next = 0u64;
            for i in 0..shards {
                let r = layout.range(i);
                assert_eq!(r.lower as u64, next, "{shards} shards, shard {i}");
                assert!(r.lower <= r.upper);
                next = r.upper as u64 + 1;
            }
            assert_eq!(next, DOMAIN as u64 + 1);
            // shard_of agrees with the ranges on every boundary key.
            for i in 0..shards {
                let r = layout.range(i);
                assert_eq!(layout.shard_of(r.lower), i);
                assert_eq!(layout.shard_of(r.upper), i);
            }
        }
    }

    #[test]
    fn tiny_domains_clamp_the_shard_count() {
        // More shards than keys must not underflow the boundary arithmetic.
        let layout = ShardLayout::uniform(3, 8);
        assert_eq!(layout.shard_count(), 4);
        let mut next = 0u64;
        for i in 0..layout.shard_count() {
            let r = layout.range(i);
            assert_eq!(r.lower as u64, next);
            assert!(r.lower <= r.upper);
            next = r.upper as u64 + 1;
        }
        assert_eq!(next, 4);
    }

    #[test]
    fn boundary_swap_still_attacks_a_single_slice() {
        // A query overlapping one shard has no boundary to smuggle across;
        // the strategy must degrade to an in-slice swap, not a silent no-op.
        let ds = dataset(3_000);
        let engine = ShardedSaeEngine::build_in_memory(&ds, HashAlgorithm::Sha1, 1).unwrap();
        let q = RangeQuery::new(0, DOMAIN);
        let outcome = engine
            .query_with_tamper(&q, TamperStrategy::ShardBoundarySwap, 1)
            .unwrap();
        assert!(
            matches!(
                outcome.verdict,
                Err(ShardedVerifyError::Slice {
                    error: SaeVerifyError::NotSorted,
                    ..
                })
            ),
            "{:?}",
            outcome.verdict
        );
    }

    #[test]
    fn clamp_and_overlap_agree_with_brute_force() {
        let layout = ShardLayout::uniform(DOMAIN, 4);
        let q = RangeQuery::new(20_000, 60_000);
        let overlapping = layout.overlapping(&q);
        assert_eq!(overlapping, vec![0, 1, 2]);
        for i in 0..4 {
            match layout.clamp(i, &q) {
                Some(sub) => {
                    assert!(overlapping.contains(&i));
                    assert!(sub.lower >= q.lower && sub.upper <= q.upper);
                    let r = layout.range(i);
                    assert!(sub.lower >= r.lower && sub.upper <= r.upper);
                }
                None => assert!(!overlapping.contains(&i)),
            }
        }
    }

    #[test]
    fn sharded_results_match_the_single_pair_system() {
        let ds = dataset(4_000);
        let oracle = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();
        for shards in [1usize, 2, 3, 5, 8] {
            let engine =
                ShardedSaeEngine::build_in_memory(&ds, HashAlgorithm::Sha1, shards).unwrap();
            for q in QueryMix::spanning(DOMAIN, 0.02, shards.max(2))
                .workload(12, 31)
                .iter()
            {
                let outcome = engine.query(q).unwrap();
                assert!(outcome.verdict.is_ok(), "{shards} shards, {q}");
                let expected = oracle.query(q).unwrap();
                assert_eq!(
                    outcome.metrics.result_cardinality,
                    expected.records.len() as u64,
                    "{shards} shards, {q}"
                );
                // The stitched records are exactly the flat result.
                let stitched: RecordBlock =
                    outcome.slices.iter().flat_map(|s| &s.records).collect();
                assert_eq!(stitched, expected.records, "{shards} shards, {q}");
            }
        }
    }

    #[test]
    fn dropped_shard_slices_are_detected_on_every_layout() {
        let ds = dataset(3_000);
        for shards in [1usize, 2, 3, 4, 8] {
            let engine =
                ShardedSaeEngine::build_in_memory(&ds, HashAlgorithm::Sha1, shards).unwrap();
            // A query covering the whole domain touches every shard.
            let q = RangeQuery::new(0, DOMAIN);
            for victim in 0..shards {
                let outcome = engine
                    .query_with_tamper(&q, TamperStrategy::DropShardSlice { shard: victim }, 1)
                    .unwrap();
                assert!(
                    matches!(
                        outcome.verdict,
                        Err(ShardedVerifyError::MissingShardSlice { .. })
                    ),
                    "{shards} shards, dropped {victim}: {:?}",
                    outcome.verdict
                );
                assert!(!outcome.metrics.verified);
            }
        }
    }

    #[test]
    fn boundary_swaps_are_detected() {
        let ds = dataset(3_000);
        for shards in [2usize, 4] {
            let engine =
                ShardedSaeEngine::build_in_memory(&ds, HashAlgorithm::Sha1, shards).unwrap();
            let q = RangeQuery::new(0, DOMAIN);
            let outcome = engine
                .query_with_tamper(&q, TamperStrategy::ShardBoundarySwap, 1)
                .unwrap();
            // The moved record's key is outside the receiving shard's clamped
            // range (and both tokens stop matching); either way the slice
            // check rejects it.
            assert!(
                matches!(outcome.verdict, Err(ShardedVerifyError::Slice { .. })),
                "{shards} shards: {:?}",
                outcome.verdict
            );
        }
    }

    #[test]
    fn shard_local_attacks_replay_the_single_pair_detections() {
        let ds = dataset(3_000);
        let engine = ShardedSaeEngine::build_in_memory(&ds, HashAlgorithm::Sha1, 4).unwrap();
        let q = RangeQuery::new(10_000, 90_000);
        for strategy in [
            TamperStrategy::DropRecords { count: 1 },
            TamperStrategy::InjectRecords { count: 1 },
            TamperStrategy::ModifyRecords { count: 1 },
            TamperStrategy::DuplicatePair { count: 1 },
            TamperStrategy::DuplicateExisting { count: 1 },
        ] {
            let outcome = engine.query_with_tamper(&q, strategy, 5).unwrap();
            assert!(
                matches!(outcome.verdict, Err(ShardedVerifyError::Slice { .. })),
                "{strategy:?} went undetected: {:?}",
                outcome.verdict
            );
        }
        // The duplicate-injection replay is rejected structurally, exactly as
        // in the single-pair regression.
        let outcome = engine
            .query_with_tamper(&q, TamperStrategy::DuplicateExisting { count: 1 }, 5)
            .unwrap();
        assert!(matches!(
            outcome.verdict,
            Err(ShardedVerifyError::Slice {
                error: SaeVerifyError::DuplicateRecordId(_),
                ..
            })
        ));
    }

    #[test]
    fn routed_updates_land_on_the_owning_shard_and_round_trip() {
        let ds = dataset(2_000);
        let engine = ShardedSaeEngine::build_in_memory(&ds, HashAlgorithm::Sha1, 4).unwrap();
        let record = Record::with_size(9_000_000, 70_000, 120);
        engine.insert(&record).unwrap();
        let q = RangeQuery::new(70_000, 70_000);
        let outcome = engine.query(&q).unwrap();
        assert!(outcome.verdict.is_ok());
        assert!(outcome
            .slices
            .iter()
            .flat_map(|s| s.records.iter())
            .any(|r| Record::decode(r).unwrap().id == 9_000_000));
        assert!(engine.delete(record.id, record.key).unwrap());
        let outcome = engine.query(&q).unwrap();
        assert!(outcome.verdict.is_ok());
        assert!(!outcome
            .slices
            .iter()
            .flat_map(|s| s.records.iter())
            .any(|r| Record::decode(r).unwrap().id == 9_000_000));
    }

    #[test]
    fn duplicate_ids_are_rejected_across_shards() {
        // Each shard's SP only knows its own directory; the deployment-wide
        // id directory must reject an id re-used under another shard's key.
        let ds = dataset(1_000);
        let engine = ShardedSaeEngine::build_in_memory(&ds, HashAlgorithm::Sha1, 4).unwrap();
        let a = Record::with_size(7_000_000, 10_000, 120); // shard 0
        let b = Record::with_size(7_000_000, 90_000, 120); // shard 3, same id
        engine.insert(&a).unwrap();
        assert!(matches!(
            engine.insert(&b),
            Err(StorageError::DuplicateRecordId(7_000_000))
        ));
        // Pre-loaded dataset ids are protected too.
        let clash = Record::with_size(ds.records[0].id, 90_000, 120);
        assert!(matches!(
            engine.insert(&clash),
            Err(StorageError::DuplicateRecordId(_))
        ));
        // Deleting releases the id for re-use.
        assert!(engine.delete(a.id, a.key).unwrap());
        engine.insert(&b).unwrap();
    }

    #[test]
    fn out_of_domain_keys_are_rejected_instead_of_stranded() {
        // A key above the layout domain would land in the last shard but be
        // excluded from every clamped sub-query — silent data loss. Reject it.
        let ds = dataset(500);
        let engine = ShardedSaeEngine::build_in_memory(&ds, HashAlgorithm::Sha1, 4).unwrap();
        let stray = Record::with_size(7_500_000, DOMAIN + 1, 120);
        assert!(matches!(
            engine.insert(&stray),
            Err(StorageError::KeyOutOfDomain { .. })
        ));
        // The id was not claimed by the failed insert.
        let ok = Record::with_size(7_500_000, DOMAIN, 120);
        engine.insert(&ok).unwrap();
    }

    #[test]
    fn one_sided_shard_deletes_roll_back_and_report_desync() {
        let ds = dataset(1_500);
        let engine = ShardedSaeEngine::build_in_memory(&ds, HashAlgorithm::Sha1, 4).unwrap();
        let victim = ds.records[11].clone();
        let shard = engine.layout().shard_of(victim.key);
        // Diverge one shard: its TE loses the tuple, its SP keeps the record.
        assert!(engine.with_te_mut(shard, |te| te.delete(victim.id, victim.key).unwrap()));
        assert!(matches!(
            engine.delete(victim.id, victim.key),
            Err(StorageError::Desync(_))
        ));
        // Rolled back: the record is still served by its shard...
        let q = RangeQuery::new(victim.key, victim.key);
        let outcome = engine.query(&q).unwrap();
        assert!(outcome
            .slices
            .iter()
            .flat_map(|s| s.records.iter())
            .any(|r| Record::decode(r).unwrap().id == victim.id));
        // ...and the divergence is *detected* by verification, not hidden.
        assert!(!outcome.metrics.verified);
    }

    #[test]
    fn concurrent_spanning_batches_verify_under_sharded_writes() {
        let ds = dataset(3_000);
        let engine =
            Arc::new(ShardedSaeEngine::build_cached(&ds, HashAlgorithm::Sha1, 4, 128).unwrap());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let writer = Arc::clone(&engine);
            let writer_stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut i = 0u64;
                while !writer_stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let r = Record::with_size(8_000_000 + i, (i % DOMAIN as u64) as RecordKey, 120);
                    writer.insert(&r).unwrap();
                    assert!(writer.delete(r.id, r.key).unwrap());
                    i += 1;
                }
            });
            let queries = QueryMix::spanning(DOMAIN, 0.02, 4).workload(80, 9).queries;
            let report = engine.serve_batch(&queries, 3);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            assert_eq!(report.failed, 0);
            assert!(report.all_verified, "a sharded update tore a query's view");
            // The grouped accounting still reports the two logical parties.
            assert_eq!(report.party_io.len(), 2);
            assert!(report.totals.sp_node_accesses > 0);
            assert!(report.totals.te_node_accesses > 0);
        });
    }

    #[test]
    fn durable_engine_round_trips_through_close_and_open() {
        let dir = tempfile::tempdir().unwrap();
        let ds = dataset(2_000);
        let q = RangeQuery::new(10_000, 90_000);

        let engine =
            ShardedSaeEngine::create_dir(dir.path(), &ds, HashAlgorithm::Sha1, 3, Some(128))
                .unwrap();
        assert!(engine.is_durable());
        // A committed update must survive the restart.
        let fresh = Record::with_size(9_100_000, 50_000, 120);
        engine.insert(&fresh).unwrap();
        let before = engine.query(&q).unwrap();
        assert!(before.verdict.is_ok());
        let layout = engine.layout().clone();
        engine.close().unwrap();

        let reopened =
            ShardedSaeEngine::open_dir(dir.path(), HashAlgorithm::Sha1, Some(128)).unwrap();
        assert!(reopened.is_durable());
        assert_eq!(reopened.shard_count(), 3);
        assert_eq!(reopened.layout(), &layout);
        let after = reopened.query(&q).unwrap();
        assert!(after.verdict.is_ok(), "{:?}", after.verdict);
        // Identical records and identical per-slice digests: the reopened
        // deployment serves the same authenticated state.
        assert_eq!(after.slices.len(), before.slices.len());
        for (a, b) in after.slices.iter().zip(&before.slices) {
            assert_eq!(a.shard, b.shard);
            assert_eq!(a.records, b.records);
            assert_eq!(a.vt, b.vt);
        }
        let one = reopened.query(&RangeQuery::new(50_000, 50_000)).unwrap();
        assert!(one.verdict.is_ok());
        assert!(one
            .slices
            .iter()
            .flat_map(|s| s.records.iter())
            .any(|r| Record::decode(r).unwrap().id == 9_100_000));
        // The recovered id directory still rejects cross-shard duplicates.
        assert!(matches!(
            reopened.insert(&Record::with_size(9_100_000, 1_000, 120)),
            Err(StorageError::DuplicateRecordId(_))
        ));
        // Tampers are still detected after recovery.
        for strategy in [
            TamperStrategy::DropShardSlice { shard: 1 },
            TamperStrategy::ShardBoundarySwap,
            TamperStrategy::DuplicateExisting { count: 1 },
            TamperStrategy::DropRecords { count: 1 },
        ] {
            let outcome = reopened.query_with_tamper(&q, strategy, 3).unwrap();
            assert!(!outcome.metrics.verified, "{strategy:?} went undetected");
        }
    }

    #[test]
    fn reopened_updates_persist_without_rebuilding() {
        let dir = tempfile::tempdir().unwrap();
        let ds = dataset(800);
        let engine =
            ShardedSaeEngine::create_dir(dir.path(), &ds, HashAlgorithm::Sha1, 2, None).unwrap();
        let victim = ds.records[5].clone();
        assert!(engine.delete(victim.id, victim.key).unwrap());
        engine.close().unwrap();

        // Deletion survived; the tombstoned heap slot is not resurrected.
        let reopened = ShardedSaeEngine::open_dir(dir.path(), HashAlgorithm::Sha1, None).unwrap();
        // Recovering a cleanly closed directory only reads: nothing is
        // rebuilt, rewritten, synced or logged.
        let recovery =
            reopened
                .party_stats()
                .iter()
                .fold(IoSnapshot::default(), |mut sum, (_, stats)| {
                    sum.accumulate(&stats.snapshot());
                    sum
                });
        assert_eq!(recovery.physical_writes, 0, "{recovery:?}");
        assert_eq!(recovery.syncs, 0, "{recovery:?}");
        assert_eq!(recovery.wal_appends, 0, "{recovery:?}");
        let outcome = reopened
            .query(&RangeQuery::new(victim.key, victim.key))
            .unwrap();
        assert!(outcome.verdict.is_ok());
        assert!(!outcome
            .slices
            .iter()
            .flat_map(|s| s.records.iter())
            .any(|r| Record::decode(r).unwrap().id == victim.id));
        // Its id is free for re-use after recovery.
        reopened
            .insert(&Record::with_size(victim.id, victim.key, 120))
            .unwrap();
        reopened.close().unwrap();
    }

    /// The sum of pager fsyncs across every shard and party.
    fn total_syncs(engine: &ShardedSaeEngine) -> u64 {
        engine
            .party_stats()
            .iter()
            .map(|(_, stats)| stats.snapshot().syncs)
            .sum()
    }

    /// Per shard, the write-ahead-log fsyncs so far (the log counts into
    /// the shard's SP store).
    fn log_syncs(engine: &ShardedSaeEngine) -> Vec<u64> {
        engine
            .shards
            .iter()
            .map(|shard| shard.sp_stats.snapshot().wal_syncs)
            .collect()
    }

    #[test]
    fn group_policy_batches_commits_into_fewer_fsyncs() {
        let ds = dataset(600);
        let (shards, writers) = (2usize, 4usize);
        // `writers` fresh records owned by each shard.
        let records: Vec<Record> = (0..shards * writers)
            .map(|i| {
                let key = (i / writers) as RecordKey * 50_000 + 10_000 + i as RecordKey;
                Record::with_size(9_500_000 + i as u64, key, 120)
            })
            .collect();
        let create = |dir: &Path, policy| {
            ShardedSaeEngine::create_dir_with(
                dir,
                &ds,
                HashAlgorithm::Sha1,
                shards,
                Some(256),
                policy,
            )
            .unwrap()
        };

        // Immediate: every insert pays exactly one log fsync and no other.
        let dir = tempfile::tempdir().unwrap();
        let engine = create(dir.path(), DurabilityPolicy::Immediate);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(engine.layout().shard_of(r.key), i / writers);
        }
        let (before, logs_before) = (total_syncs(&engine), log_syncs(&engine));
        for r in &records {
            engine.insert(r).unwrap();
        }
        assert_eq!(total_syncs(&engine) - before, records.len() as u64);
        let logs: Vec<u64> = log_syncs(&engine)
            .iter()
            .zip(&logs_before)
            .map(|(now, then)| now - then)
            .collect();
        assert_eq!(logs, vec![writers as u64; shards]);
        engine.close().unwrap();

        // Group: the leader gathers until `max_batch` tickets are queued, and
        // each announce wakes it, so the `writers` concurrent inserts of a
        // shard ride exactly one commit. The long `max_wait` only bounds a
        // failure.
        let policy = DurabilityPolicy::Group {
            max_batch: writers,
            max_wait: Duration::from_secs(10),
        };
        let dir = tempfile::tempdir().unwrap();
        let engine = create(dir.path(), policy);
        assert_eq!(engine.durability_policy(), Some(policy));
        let (before, logs_before) = (total_syncs(&engine), log_syncs(&engine));
        std::thread::scope(|scope| {
            for r in &records {
                let engine = &engine;
                scope.spawn(move || engine.insert(r).unwrap());
            }
        });
        let logs: Vec<u64> = log_syncs(&engine)
            .iter()
            .zip(&logs_before)
            .map(|(now, then)| now - then)
            .collect();
        assert_eq!(logs, vec![1; shards], "one log fsync per shard");
        assert_eq!(total_syncs(&engine) - before, shards as u64);
        engine.close().unwrap();

        // Every acknowledged write is durable: the reopened deployment
        // serves all of them, verified.
        let reopened = ShardedSaeEngine::open_dir(dir.path(), HashAlgorithm::Sha1, None).unwrap();
        for r in &records {
            let outcome = reopened.query(&RangeQuery::new(r.key, r.key)).unwrap();
            assert!(outcome.verdict.is_ok(), "{:?}", outcome.verdict);
            assert!(outcome
                .slices
                .iter()
                .flat_map(|s| s.records.iter())
                .any(|enc| Record::decode(enc).unwrap().id == r.id));
        }
    }

    /// Concurrent group-policy writers plus a flusher hammering
    /// `flush()` (which commits under read locks): no ticket may be lost
    /// (every writer returns), the per-shard epochs must stay monotone and
    /// the manifest must never lag the files — both checked by the reopen,
    /// which rejects any epoch inversion as `StaleManifest`/`Corrupted`.
    #[test]
    fn group_writers_and_concurrent_flushes_commit_everything() {
        let ds = dataset(1_000);
        let dir = tempfile::tempdir().unwrap();
        let engine = ShardedSaeEngine::create_dir_with(
            dir.path(),
            &ds,
            HashAlgorithm::Sha1,
            4,
            Some(256),
            DurabilityPolicy::group(),
        )
        .unwrap();
        let writers = 4u64;
        let ops_per_writer = 8u64;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for w in 0..writers {
                let engine = &engine;
                scope.spawn(move || {
                    for i in 0..ops_per_writer {
                        let id = 9_600_000 + w * 1_000 + i;
                        let key = ((id * 7_919) % (DOMAIN as u64 + 1)) as RecordKey;
                        let r = Record::with_size(id, key, 120);
                        engine.insert(&r).unwrap();
                        if i % 2 == 1 {
                            assert!(engine.delete(r.id, r.key).unwrap());
                        }
                    }
                });
            }
            let flusher_stop = Arc::clone(&stop);
            let flusher = &engine;
            scope.spawn(move || {
                while !flusher_stop.load(std::sync::atomic::Ordering::Relaxed) {
                    flusher.flush().unwrap();
                }
            });
            // Writers finish, then the flusher is told to stop. (Scoped
            // threads: writer handles joined implicitly at scope end, but
            // the stop flag must flip once writers are done — easiest is to
            // wait for the write volume to land.)
            scope.spawn({
                let stop = Arc::clone(&stop);
                let engine = &engine;
                move || {
                    let expect_kept = writers * ops_per_writer / 2;
                    loop {
                        let outcome = engine.query(&RangeQuery::new(0, DOMAIN)).unwrap();
                        let kept = outcome
                            .slices
                            .iter()
                            .flat_map(|s| s.records.iter())
                            .filter(|enc| Record::decode(enc).unwrap().id >= 9_600_000)
                            .count() as u64;
                        if kept == expect_kept && outcome.verdict.is_ok() {
                            stop.store(true, std::sync::atomic::Ordering::Relaxed);
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        });
        engine.close().unwrap();

        // The reopen is the epoch-consistency check: any manifest/file epoch
        // skew would surface as StaleManifest or Corrupted here.
        let reopened = ShardedSaeEngine::open_dir(dir.path(), HashAlgorithm::Sha1, None).unwrap();
        let outcome = reopened.query(&RangeQuery::new(0, DOMAIN)).unwrap();
        assert!(outcome.verdict.is_ok(), "{:?}", outcome.verdict);
        let kept: Vec<u64> = outcome
            .slices
            .iter()
            .flat_map(|s| s.records.iter())
            .map(|enc| Record::decode(enc).unwrap().id)
            .filter(|&id| id >= 9_600_000)
            .collect();
        assert_eq!(kept.len() as u64, writers * ops_per_writer / 2);
    }

    #[test]
    fn flush_on_close_policy_defers_all_commits_to_close() {
        let ds = dataset(500);
        let dir = tempfile::tempdir().unwrap();
        let engine = ShardedSaeEngine::create_dir_with(
            dir.path(),
            &ds,
            HashAlgorithm::Sha1,
            2,
            Some(256),
            DurabilityPolicy::FlushOnClose,
        )
        .unwrap();
        let before = total_syncs(&engine);
        let fresh = Record::with_size(9_700_000, 12_345, 120);
        engine.insert(&fresh).unwrap();
        assert_eq!(total_syncs(&engine) - before, 0, "insert must not sync");
        engine.close().unwrap();

        let reopened = ShardedSaeEngine::open_dir(dir.path(), HashAlgorithm::Sha1, None).unwrap();
        let outcome = reopened
            .query(&RangeQuery::new(fresh.key, fresh.key))
            .unwrap();
        assert!(outcome.verdict.is_ok());
        assert!(outcome
            .slices
            .iter()
            .flat_map(|s| s.records.iter())
            .any(|enc| Record::decode(enc).unwrap().id == fresh.id));
    }

    #[test]
    fn a_held_shard_write_lock_blocks_only_its_own_shard() {
        let ds = dataset(400);
        let engine = ShardedSaeEngine::build_in_memory(&ds, HashAlgorithm::Sha1, 2).unwrap();
        let (own, other) = (10_000, 90_000);
        assert_eq!(engine.layout().shard_of(own), 0);
        assert_eq!(engine.layout().shard_of(other), 1);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let guard = engine.shards[0].sp.write();
            let insert = |id: u64, key: RecordKey| {
                let (engine, tx) = (&engine, tx.clone());
                scope.spawn(move || {
                    engine.insert(&Record::with_size(id, key, 120)).unwrap();
                    tx.send(key).unwrap();
                });
            };
            let wait = Duration::from_secs(10);
            // The shard-0 writer goes first and parks on the held lock, so
            // an engine-wide writer lock would also stall the shard-1 one.
            insert(9_800_000, own);
            assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
            insert(9_800_001, other);
            assert_eq!(
                rx.recv_timeout(wait),
                Ok(other),
                "shard 1 waited on shard 0"
            );
            drop(guard);
            assert_eq!(rx.recv_timeout(wait), Ok(own));
        });
    }
}
