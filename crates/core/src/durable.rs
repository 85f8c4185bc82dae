//! The durable storage layer under [`crate::sharded::ShardedSaeEngine`], the
//! one engine that can run file-backed (with `n ≥ 1` shards).
//!
//! A durable deployment lives in one directory:
//!
//! ```text
//! deployment/
//!   MANIFEST        one checksummed page: layout bounds, record size,
//!                   per-shard tree roots + shapes, heap geometry,
//!                   commit epochs, published TE digests
//!   sp-0.pages      shard 0's service provider (heap file + B⁺-Tree)
//!   te-0.pages      shard 0's trusted entity (XB-Tree)
//!   wal-0.log       shard 0's write-ahead log
//!   sp-1.pages ...  one pager-file trio per shard
//! ```
//!
//! Page 0 of every pager file is a [`ShardHeader`]: the file's identity
//! (shard index + party, so a swapped or renamed file is rejected at open)
//! and its last *checkpointed* epoch. Every committed update follows the
//! same order — **log before pages**:
//!
//! 1. the heap page table is rewritten into its [`PageDirectory`] chain
//!    *through the write-back cache*, so the changed chain pages join the
//!    commit's write set like any tree page,
//! 2. the transaction — `Begin`, the after-image of every page written
//!    since the last commit, the heap page table's new entries, and a
//!    `Commit` record carrying the full [`ShardMeta`] (roots, shapes,
//!    published TE digest) — is appended to `wal-<i>.log`,
//! 3. the log is fsynced: **that single barrier is the acknowledgement**.
//!    No tree lock is held across it, and no page file was touched.
//!
//! Data pages reach `sp-<i>.pages` / `te-<i>.pages` only at a *checkpoint*:
//! when the log grows past a threshold (or on explicit `flush()`/`close()`),
//! the committing writer additionally flushes the caches, rewrites both
//! identity headers at the new epoch with a durability barrier each, saves
//! a covering manifest, and truncates the log to a fresh segment. The
//! caches run in no-steal mode, so an *uncommitted* mutation can never
//! overwrite a committed page in the files — between checkpoints the files
//! plus the log always reconstruct every acknowledged commit.
//!
//! Creation is not logged: a bulk load dirties every page, and logging it
//! would write the whole database twice. Each freshly built shard is
//! checkpointed straight to its page files at epoch 1 (headers synced, log
//! cut to an empty segment), and one manifest save covering every shard is
//! the creation's commit point. Before it the directory has no `MANIFEST`,
//! so a killed creation leaves nothing `open` accepts, and may be re-run.
//!
//! ## Recovery
//!
//! `Durability::open` loads the manifest, then replays each shard's log:
//! the torn-tail-tolerant [`sae_storage::wal::scan_log`] yields the longest
//! valid committed prefix, whose transactions are re-applied to the page
//! files in log order (page images are absolute content, so re-applying an
//! epoch the last checkpoint already covers is idempotent). The final
//! `Commit` record's meta becomes the shard's recovered state; the reopened
//! TE is verified against its recorded digest, and the heap page table is
//! cross-checked against the logged directory entries. A crash at *any*
//! point of the commit pipeline therefore recovers every acknowledged
//! write — the pre-WAL protocol's refusals ([`StorageError::StaleManifest`]
//! and torn-state corruption on a kill between commits) remain only for
//! genuinely tampered directories, e.g. a header epoch ahead of everything
//! the log ever committed, or a log claiming epochs the manifest never
//! reached. After replay, recovery checkpoints the reconstructed state and
//! truncates the log, so reopening is idempotent.
//!
//! ## Durability policies and group commit
//!
//! *When* an accepted update runs the commit above is the
//! [`DurabilityPolicy`] knob:
//!
//! * [`DurabilityPolicy::Immediate`] — every accepted update commits (one
//!   log append + one log fsync) before it is acknowledged, and every
//!   writer pays its own barrier. The write-ahead log collapsed the old
//!   two-fsyncs-plus-manifest sequence into that single fsync, and the
//!   commit runs under the shard's *read* locks, so writers of other
//!   shards — and this shard's readers — proceed meanwhile.
//! * [`DurabilityPolicy::Group`] — classic group commit. A writer mutates
//!   its shard in memory, enqueues a commit ticket (while still holding the
//!   shard's write locks), releases the locks and blocks until a commit
//!   *covering its ticket* is durable. The first waiting writer elects
//!   itself leader, optionally gathers a batch (`max_batch` / `max_wait`)
//!   and performs **one** log append + fsync on behalf of the whole batch.
//!   An acknowledged write is durable exactly as under `Immediate`; a
//!   *failed* batch commit is reported to every covered writer, whose
//!   in-memory mutations then stand ahead of disk until the next successful
//!   commit (they cannot be unwound — later writers already built on them).
//! * [`DurabilityPolicy::FlushOnClose`] — updates are acknowledged from
//!   memory; only explicit `flush()`/`close()` calls commit (forcing a
//!   checkpoint). For bulk loads where the caller brackets durability.
//!
//! Checkpoints coalesce at the manifest: each publishes its [`ShardMeta`]
//! into the in-memory manifest and (under the deferred policies) one
//! elected saver persists a snapshot covering every publication so far. A
//! shard's commit-state lock is held across its checkpoint *and* the
//! covering save, so two commits of the same shard can never invert at the
//! manifest.
//!
//! The crate-private `Durability` type is deliberately engine-agnostic: it
//! owns the pager handles, caches, logs, commit state and manifest, while
//! the deployment types own the trees. `Drop` only runs a best-effort log
//! barrier (recording, not raising, any swallowed error — see
//! [`sae_storage::IoStats::swallowed_sync_errors`]); the deployments'
//! explicit `close()` methods run a real checkpoint and surface its errors.

use crate::sae::{SaeServiceProvider, TrustedEntity};
use parking_lot::{Mutex, MutexGuard};
use sae_crypto::Digest;
use sae_storage::wal::wal_file_name;
use sae_storage::{
    scan_log, CachedPager, FilePager, Manifest, PageDirectory, PageId, PageStore, Party,
    ShardHeader, ShardMeta, SharedPageStore, StorageError, StorageResult, TreeMeta, WalRecord,
    WalWriter, SHARD_HEADER_PAGE,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::{Duration, Instant};

/// File name of the deployment manifest inside a deployment directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Page budget of a party's write-back cache when the caller does not size
/// one explicitly. Durable deployments always run behind a no-steal cache —
/// log-before-pages depends on uncommitted mutations staying out of the
/// page files — so `cache_pages: None` means "default capacity", not "no
/// cache".
const DEFAULT_CACHE_PAGES: usize = 256;

/// Log size past which a commit folds a checkpoint in (page flush, header
/// and manifest republication, log truncation). 4 MiB ≈ a thousand page
/// images.
const DEFAULT_CHECKPOINT_THRESHOLD_BYTES: u64 = 4 * 1024 * 1024;

/// When a durable deployment's accepted writes reach stable storage. See
/// the [module docs](self) for the full protocol behind each mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Every accepted update appends its transaction to the shard's
    /// write-ahead log and fsyncs the log — one durability barrier — before
    /// it is acknowledged.
    #[default]
    Immediate,
    /// Group commit: concurrent writers enqueue commit tickets and block
    /// while one elected leader appends and fsyncs a single log transaction
    /// covering the whole batch. Same guarantee as `Immediate` for
    /// acknowledged writes, at a fraction of the fsyncs per write under
    /// load.
    Group {
        /// Stop gathering and commit once this many writers are pending.
        max_batch: usize,
        /// Longest a leader waits for the batch to fill before committing
        /// anyway. `Duration::ZERO` disables gathering: the leader commits
        /// at once and batches still form out of writers that queue while
        /// it fsyncs.
        max_wait: Duration,
    },
    /// Updates are acknowledged from memory only; nothing commits until an
    /// explicit `flush()` or `close()` (which checkpoints). A kill before
    /// that recovers the last committed state. For bulk loads.
    FlushOnClose,
}

impl DurabilityPolicy {
    /// A group-commit configuration with sensible defaults: batches cap at
    /// 32 writers and a leader waits at most 500 µs for the batch to fill.
    pub fn group() -> DurabilityPolicy {
        DurabilityPolicy::Group {
            max_batch: 32,
            max_wait: Duration::from_micros(500),
        }
    }
}

/// Fault-injection points inside the commit pipeline, for the
/// crash-consistency tests: an armed point makes the next commit fail
/// *after* completing the named stage, simulating a kill between stages.
/// Combined with `std::mem::forget` of the engine (so no `Drop` cleanup
/// runs), reopening the directory then exercises exactly the states a real
/// crash leaves behind — and since the pipeline is write-ahead-logged,
/// reopening recovers every *acknowledged* write at every point; only the
/// doomed in-flight transaction's visibility varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitCrashPoint {
    /// Fail before the transaction is appended to the log: no log, page,
    /// header or manifest write happens. The doomed write is absent after
    /// recovery; everything previously acknowledged is intact.
    BeforeCommit,
    /// Fail after the transaction is fully appended to the log, before the
    /// log fsync. Under the tests' `mem::forget` crash model file writes
    /// survive, so the doomed transaction is replayed on reopen; on real
    /// hardware it may equally be torn off the tail by the scan — both
    /// outcomes recover cleanly.
    AfterPageFlush,
    /// Fail after the log fsync that makes the transaction durable, before
    /// it is acknowledged: the doomed write is present after recovery even
    /// though its writer saw an error.
    AfterHeaderSync,
}

/// One party's file-backed store: the raw pager (what a checkpoint syncs
/// and what holds the header page) and the no-steal write-back cache the
/// trees run on.
pub(crate) struct PartyFiles {
    pager: Arc<FilePager>,
    cache: Arc<CachedPager>,
    store: SharedPageStore,
}

impl PartyFiles {
    fn wrap(pager: Arc<FilePager>, cache_pages: Option<usize>) -> Self {
        let cache = Arc::new(CachedPager::new(
            Arc::clone(&pager) as SharedPageStore,
            cache_pages.unwrap_or(DEFAULT_CACHE_PAGES).max(1),
        ));
        // No-steal: a dirty page never reaches the file before its commit
        // is in the log (the cache soft-overflows its capacity instead).
        cache.set_no_steal(true);
        // Never flush on drop, under any policy: unacknowledged mutations
        // would overwrite checkpointed pages with state the log does not
        // describe, and everything acknowledged is already covered by the
        // synced log.
        cache.set_flush_on_drop(false);
        let store: SharedPageStore = Arc::clone(&cache) as SharedPageStore;
        PartyFiles {
            pager,
            cache,
            store,
        }
    }

    fn flush(&self) -> StorageResult<()> {
        self.cache.flush()
    }

    /// Durability barrier through the party's store, so the fsync is
    /// counted where the engines' per-party accounting reads it (the cache
    /// mirrors its backing pager's barrier).
    fn sync(&self) -> StorageResult<()> {
        self.store.sync()
    }
}

/// Per-shard commit state, serialized under one mutex so two commits of the
/// same shard can never interleave their log/epoch writes.
struct ShardCommitState {
    epoch: u64,
    heap_dir: PageDirectory,
    /// Heap pages already covered by logged `HeapDirEntry` records (or by
    /// the recovered checkpoint); the next commit logs only the entries
    /// past this index.
    logged_heap_len: usize,
}

/// Group-commit bookkeeping of one shard. Tickets are issued by writers
/// while they still hold the shard's write locks, so any commit performed
/// under the shard's (read or write) locks covers every ticket issued
/// before it started.
#[derive(Default)]
struct GroupQueue {
    /// Tickets issued so far.
    queued: u64,
    /// Highest ticket covered by a durable commit.
    durable: u64,
    /// Whether a leader is currently gathering or committing.
    leader: bool,
    /// Highest ticket covered by a *failed* commit (unless a later success
    /// caught up past it — `durable` is always checked first).
    failed_through: u64,
    /// Why that batch failed.
    fail_msg: String,
}

/// A commit caught between its two phases: the transaction is appended to
/// the log ([`Durability::prepare_commit`], under the shard's tree locks),
/// but the acknowledgement fsync ([`Durability::finish_commit`]) is still
/// to run — without tree locks, so writers queue the next batch meanwhile.
/// Holding the commit-state guard keeps any other commit of the shard from
/// starting in between.
pub(crate) struct PreparedCommit<'a> {
    shard_idx: usize,
    state: MutexGuard<'a, ShardCommitState>,
    cover: u64,
    meta: ShardMeta,
    /// The prepare phase folded a checkpoint in, which already carried its
    /// own barriers — the finish phase skips the log fsync.
    already_durable: bool,
}

/// One shard's durable storage: both parties' files, the write-ahead log
/// and the commit state.
pub(crate) struct ShardFiles {
    upper: u32,
    sp: PartyFiles,
    te: PartyFiles,
    wal: WalWriter,
    state: Mutex<ShardCommitState>,
    group: StdMutex<GroupQueue>,
    group_cv: Condvar,
}

/// The in-memory manifest plus the coalescing-save bookkeeping. Checkpoints
/// publish their `ShardMeta` here (bumping `seq`) and one elected saver
/// persists a snapshot covering every published update; the manifest page
/// is cumulative, so a save at `seq = t` subsumes every earlier update.
struct ManifestState {
    manifest: Manifest,
    /// Updates published into `manifest` so far.
    seq: u64,
    /// Highest update covered by a successful save.
    saved: u64,
    /// Whether a saver is currently writing a snapshot.
    saving: bool,
    /// Highest update covered by a failed save (checked after `saved`).
    failed_through: u64,
    /// Why that save failed.
    fail_msg: String,
}

/// The stores a deployment builds (or reopens) its trees on; cloned out of
/// [`Durability`] so the engine can wire them under its parties.
pub(crate) struct ShardStores {
    pub sp_store: SharedPageStore,
    pub sp_cache: Option<Arc<CachedPager>>,
    pub te_store: SharedPageStore,
}

/// Everything [`Durability::open`] recovers about one shard before the trees
/// are reopened.
pub(crate) struct RecoveredShard {
    pub meta: ShardMeta,
    pub heap_pages: Vec<PageId>,
}

/// One shard's state mid-recovery: pagers opened, log replayed, trees not
/// yet reopened and the fresh log segment not yet cut (that waits for the
/// covering manifest save).
struct ShardRecovery {
    sp_pager: Arc<FilePager>,
    te_pager: Arc<FilePager>,
    meta: ShardMeta,
    heap_dir: PageDirectory,
    heap_pages: Vec<PageId>,
    replayed: bool,
}

/// The durable backing of a deployment directory. See the module docs for
/// the file layout and commit protocol.
pub(crate) struct Durability {
    manifest_path: PathBuf,
    mstate: StdMutex<ManifestState>,
    mcv: Condvar,
    shards: Vec<ShardFiles>,
    policy: DurabilityPolicy,
    crash: Mutex<Option<CommitCrashPoint>>,
    /// Log size past which a commit folds a checkpoint in.
    checkpoint_threshold_bytes: std::sync::atomic::AtomicU64,
}

fn sp_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("{}-{shard}.pages", Party::Sp.prefix()))
}

fn te_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("{}-{shard}.pages", Party::Te.prefix()))
}

fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(wal_file_name(shard))
}

fn placeholder_meta(upper: u32) -> ShardMeta {
    let empty = TreeMeta {
        root: PageId::INVALID,
        height: 0,
        len: 0,
        node_count: 0,
    };
    ShardMeta {
        upper,
        epoch: 0,
        sp_index: empty,
        heap_record_count: 0,
        heap_page_count: 0,
        heap_dir_head: PageId::INVALID,
        te_tree: empty,
        te_digest: [0u8; sae_storage::TE_DIGEST_LEN],
    }
}

/// `std::sync` lock acquisition with `parking_lot` semantics: a panic while
/// holding the lock does not poison it for everyone else.
fn lock_unpoisoned<T>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears a single-occupancy protocol flag (`GroupQueue::leader`,
/// `ManifestState::saving`) and wakes the condvar's waiters if the guarded
/// section *unwinds*. The flags survive a panic that `lock_unpoisoned`
/// shrugs off; without this, a panicking leader or saver would leave its
/// flag set forever and every later writer would block on the condvar —
/// a silent hang instead of a propagated panic. The normal path disarms
/// the guard and publishes its outcome under the lock itself.
struct UnwindFlagGuard<'a, T> {
    m: &'a StdMutex<T>,
    cv: &'a Condvar,
    clear: fn(&mut T),
    armed: bool,
}

impl<T> UnwindFlagGuard<'_, T> {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl<T> Drop for UnwindFlagGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            let mut state = lock_unpoisoned(self.m);
            (self.clear)(&mut state);
            drop(state);
            self.cv.notify_all();
        }
    }
}

fn batch_error(context: &str, msg: &str) -> StorageError {
    StorageError::Io(std::io::Error::other(format!("{context}: {msg}")))
}

/// Creates one party's pager file with its identity header at page 0.
fn create_party_file(path: &Path, shard: usize, party: Party) -> StorageResult<Arc<FilePager>> {
    let pager = Arc::new(FilePager::create(path)?);
    let header_page = pager.allocate()?;
    debug_assert_eq!(header_page, SHARD_HEADER_PAGE);
    let header = ShardHeader {
        shard: shard as u32,
        party,
        epoch: 0,
    };
    pager.write(SHARD_HEADER_PAGE, &header.encode())?;
    Ok(pager)
}

/// Opens one party's pager file, validating its identity and epoch against
/// the manifest — the strict form, used when the shard has no log to judge
/// the epoch by. A missing file is reported as corruption (the deployment
/// directory is incomplete), not a bare I/O error.
fn open_party_file(
    path: &Path,
    shard: usize,
    party: Party,
    manifest_epoch: u64,
) -> StorageResult<Arc<FilePager>> {
    let pager = open_party_pager(path)?;
    ShardHeader::validate(pager.as_ref(), shard as u32, party, manifest_epoch)?;
    Ok(pager)
}

/// Opens one party's pager file checking only its *identity*, returning the
/// header so log replay can judge the epoch itself.
fn open_party_file_identity(
    path: &Path,
    shard: usize,
    party: Party,
) -> StorageResult<(Arc<FilePager>, ShardHeader)> {
    let pager = open_party_pager(path)?;
    let header = ShardHeader::validate_identity(pager.as_ref(), shard as u32, party)?;
    Ok((pager, header))
}

fn open_party_pager(path: &Path) -> StorageResult<Arc<FilePager>> {
    let pager = FilePager::open(path).map_err(|e| match e {
        StorageError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => {
            StorageError::Corrupted(format!(
                "deployment is missing shard file {}",
                path.display()
            ))
        }
        other => other,
    })?;
    Ok(Arc::new(pager))
}

/// Extends `pager` until `id` is a valid page — replay may apply images to
/// pages that were allocated after the last checkpoint and so never reached
/// the file.
fn ensure_allocated(pager: &FilePager, id: PageId) -> StorageResult<()> {
    while pager.page_count() <= id.0 {
        pager.allocate()?;
    }
    Ok(())
}

/// Replays shard `i`'s write-ahead log over its page files (if there is
/// one), recovering the last committed state. See the module docs'
/// "Recovery" section for the case analysis.
fn recover_shard(dir: &Path, i: usize, manifest_meta: &ShardMeta) -> StorageResult<ShardRecovery> {
    let wal_bytes = match std::fs::read(wal_path(dir, i)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let (seg, txs) = scan_log(&wal_bytes);

    let Some(seg) = seg else {
        // No log evidence (a pre-WAL directory, or a log torn before its
        // segment header): fall back to the strict pages-vs-manifest
        // validation — headers must match the manifest epoch exactly.
        let sp_pager = open_party_file(&sp_path(dir, i), i, Party::Sp, manifest_meta.epoch)?;
        let te_pager = open_party_file(&te_path(dir, i), i, Party::Te, manifest_meta.epoch)?;
        let (heap_dir, heap_pages) = PageDirectory::open(
            sp_pager.as_ref(),
            manifest_meta.heap_dir_head,
            manifest_meta.heap_page_count,
        )?;
        return Ok(ShardRecovery {
            sp_pager,
            te_pager,
            meta: manifest_meta.clone(),
            heap_dir,
            heap_pages,
            replayed: false,
        });
    };

    // The segment is cut by a checkpoint immediately after its covering
    // manifest save, so its base can never run ahead of the manifest.
    if seg.base_epoch > manifest_meta.epoch {
        return Err(StorageError::Corrupted(format!(
            "shard {i}: wal segment starts at epoch {} but the manifest is at epoch {} — \
             the manifest regressed behind its own checkpoint",
            seg.base_epoch, manifest_meta.epoch
        )));
    }
    // Committed epochs step by at most one (duplicates are a failed commit
    // retried at the same epoch); a gap means a committed transaction went
    // missing from a log the scan otherwise trusts.
    let mut last = seg.base_epoch;
    for tx in &txs {
        if tx.epoch > last + 1 {
            return Err(StorageError::Corrupted(format!(
                "shard {i}: wal skips from epoch {last} to epoch {} — a committed \
                 transaction is missing",
                tx.epoch
            )));
        }
        last = tx.epoch;
    }

    let (sp_pager, sp_header) = open_party_file_identity(&sp_path(dir, i), i, Party::Sp)?;
    let (te_pager, te_header) = open_party_file_identity(&te_path(dir, i), i, Party::Te)?;

    // The recovered state: the last committed transaction's meta, or the
    // manifest's when the segment is fresh.
    let meta = match txs.last() {
        Some(tx) => tx.meta.clone(),
        None => manifest_meta.clone(),
    };
    if meta.epoch < manifest_meta.epoch {
        return Err(StorageError::Corrupted(format!(
            "shard {i}: manifest is at epoch {} but the log only commits through epoch {} — \
             the manifest describes state the log never carried",
            manifest_meta.epoch, meta.epoch
        )));
    }
    if meta.upper != manifest_meta.upper {
        return Err(StorageError::Corrupted(format!(
            "shard {i}: log commits shard bound {} but the manifest says {}",
            meta.upper, manifest_meta.upper
        )));
    }

    // Replay in log order. Images are absolute page content, so re-applying
    // an epoch the last checkpoint already covers is idempotent, and a
    // later duplicate epoch simply wins.
    let replayed = !txs.is_empty();
    for tx in &txs {
        for (party, page_id, image) in &tx.pages {
            let pager = match party {
                Party::Sp => sp_pager.as_ref(),
                Party::Te => te_pager.as_ref(),
            };
            ensure_allocated(pager, *page_id)?;
            pager.write(*page_id, image)?;
        }
    }

    // A header may sit anywhere up to the recovered epoch (a checkpoint
    // that died between its barriers); *ahead* of everything the log ever
    // committed means the directory was tampered with — the classic
    // stale-manifest refusal.
    for header in [&sp_header, &te_header] {
        if header.epoch > meta.epoch {
            return Err(StorageError::StaleManifest {
                shard: i as u32,
                manifest_epoch: meta.epoch,
                file_epoch: header.epoch,
            });
        }
    }

    let (heap_dir, heap_pages) =
        PageDirectory::open(sp_pager.as_ref(), meta.heap_dir_head, meta.heap_page_count)?;
    // Cross-check the recovered heap page table against the logged
    // directory entries: heap pages are append-only, so every logged
    // (index, page) must still be in place.
    for tx in &txs {
        for (index, page_id) in &tx.heap_entries {
            match heap_pages.get(*index as usize) {
                Some(got) if got == page_id => {}
                got => {
                    return Err(StorageError::Corrupted(format!(
                        "shard {i}: log places heap page {} at index {index} but the \
                         recovered page table has {:?}",
                        page_id.0, got
                    )));
                }
            }
        }
    }

    // Recovery checkpoint, phase 1: make the replayed images durable and
    // republish the headers at the recovered epoch. The covering manifest
    // save and the log truncation happen in `Durability::open` *after*
    // every shard replayed, preserving save-before-truncate.
    if replayed {
        for (pager, party) in [(&sp_pager, Party::Sp), (&te_pager, Party::Te)] {
            let header = ShardHeader {
                shard: i as u32,
                party,
                epoch: meta.epoch,
            };
            pager.write(SHARD_HEADER_PAGE, &header.encode())?;
            pager.sync()?;
        }
    }

    Ok(ShardRecovery {
        sp_pager,
        te_pager,
        meta,
        heap_dir,
        heap_pages,
        replayed,
    })
}

/// Shard `upper`'s meta at `epoch`: the trees' roots and shapes, the heap
/// geometry and the TE digest the next reopen is verified against.
fn shard_meta(
    upper: u32,
    epoch: u64,
    heap_dir: &PageDirectory,
    sp: &SaeServiceProvider,
    te: &TrustedEntity,
) -> StorageResult<ShardMeta> {
    Ok(ShardMeta {
        upper,
        epoch,
        sp_index: sp.index().meta(),
        heap_record_count: sp.heap().record_count(),
        heap_page_count: sp.heap().pages().len() as u64,
        heap_dir_head: heap_dir.head(),
        te_tree: te.tree().meta(),
        te_digest: *te.tree().total_xor()?.as_bytes(),
    })
}

/// Puts shard `i`'s meta into the in-memory manifest.
fn set_manifest_slot(manifest: &mut Manifest, i: usize, meta: ShardMeta) -> StorageResult<()> {
    let slot = manifest.shards.get_mut(i).ok_or_else(|| {
        StorageError::Io(std::io::Error::other(format!(
            "manifest has no slot for shard {i}"
        )))
    })?;
    *slot = meta;
    Ok(())
}

/// Rewrites both of shard `i`'s identity headers at `epoch`, each followed
/// by its file's durability barrier. The caches must already be flushed:
/// the header is what says the file holds that epoch's pages.
fn publish_headers(shard: &ShardFiles, i: usize, epoch: u64) -> StorageResult<()> {
    for (files, party) in [(&shard.sp, Party::Sp), (&shard.te, Party::Te)] {
        let header = ShardHeader {
            shard: i as u32,
            party,
            epoch,
        };
        files.pager.write(SHARD_HEADER_PAGE, &header.encode())?;
        files.sync()?;
    }
    Ok(())
}

impl Durability {
    /// Creates the deployment directory layout for a fresh deployment:
    /// per-shard pager files with identity headers, empty heap page
    /// directories and fresh log segments, plus an in-memory manifest that
    /// [`Durability::checkpoint_created_shard`] fills once the trees are
    /// built and [`Durability::commit_creation`] persists.
    pub(crate) fn create(
        dir: &Path,
        uppers: &[u32],
        record_size: usize,
        cache_pages: Option<usize>,
        policy: DurabilityPolicy,
    ) -> StorageResult<Durability> {
        // Fail fast on a layout the manifest page cannot describe, before
        // any file is created or bulk load starts.
        if uppers.len() > sae_storage::manifest::MAX_MANIFEST_SHARDS {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "a durable deployment supports at most {} shards, got {}",
                    sae_storage::manifest::MAX_MANIFEST_SHARDS,
                    uppers.len()
                ),
            )));
        }
        // The manifest's domain is the last shard's upper bound, so an empty
        // layout is unrepresentable; reject it with a typed error.
        let Some(&domain) = uppers.last() else {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a durable deployment needs at least one shard",
            )));
        };
        // Refuse to zero an existing deployment: `FilePager::create`
        // truncates, so re-running a creation script against a live
        // directory would destroy committed data before anyone noticed.
        if dir.join(MANIFEST_FILE).exists() {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!(
                    "a deployment already exists at {} — reopen it with open_dir, or remove \
                     the directory to recreate it",
                    dir.display()
                ),
            )));
        }
        std::fs::create_dir_all(dir)?;
        let mut shards = Vec::with_capacity(uppers.len());
        for (i, &upper) in uppers.iter().enumerate() {
            let sp_pager = create_party_file(&sp_path(dir, i), i, Party::Sp)?;
            let te_pager = create_party_file(&te_path(dir, i), i, Party::Te)?;
            let sp = PartyFiles::wrap(sp_pager, cache_pages);
            let te = PartyFiles::wrap(te_pager, cache_pages);
            // The heap page directory lives right after the SP header, and
            // is accessed through the cache so its chain-page mutations join
            // the write set and are logged like any other page.
            let (heap_dir, _head) = PageDirectory::create(sp.store.as_ref())?;
            // The log shares the SP store's stats, so its appends and
            // fsyncs land in the same per-party accounting the engines and
            // experiments read.
            let wal = WalWriter::create(wal_path(dir, i), 0, sp.store.stats())?;
            shards.push(ShardFiles {
                upper,
                sp,
                te,
                wal,
                state: Mutex::new(ShardCommitState {
                    epoch: 0,
                    heap_dir,
                    logged_heap_len: 0,
                }),
                group: StdMutex::new(GroupQueue::default()),
                group_cv: Condvar::new(),
            });
        }
        let manifest = Manifest {
            record_size: record_size as u32,
            domain,
            checkpoint_seq: 0,
            shards: uppers.iter().map(|&u| placeholder_meta(u)).collect(),
        };
        Ok(Durability {
            manifest_path: dir.join(MANIFEST_FILE),
            mstate: StdMutex::new(ManifestState {
                manifest,
                seq: 0,
                saved: 0,
                saving: false,
                failed_through: 0,
                fail_msg: String::new(),
            }),
            mcv: Condvar::new(),
            shards,
            policy,
            crash: Mutex::new(None),
            checkpoint_threshold_bytes: std::sync::atomic::AtomicU64::new(
                DEFAULT_CHECKPOINT_THRESHOLD_BYTES,
            ),
        })
    }

    /// Reopens a deployment directory: loads and validates the manifest,
    /// opens every pager file (validating identity headers), replays each
    /// shard's write-ahead log past the last checkpoint and recovers each
    /// shard's heap page table. If anything replayed, the recovered state
    /// is checkpointed (headers, manifest) and the logs are truncated, so
    /// reopening is idempotent. The trees are then reopened by the caller
    /// from the returned [`RecoveredShard`] metas — which is where the
    /// replayed TE is verified against the last `Commit` record's digest.
    pub(crate) fn open(
        dir: &Path,
        cache_pages: Option<usize>,
        policy: DurabilityPolicy,
    ) -> StorageResult<(Durability, Vec<RecoveredShard>)> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut manifest = Manifest::load(&manifest_path)?;
        let mut recoveries = Vec::with_capacity(manifest.shards.len());
        let mut any_replayed = false;
        for (i, slot) in manifest.shards.iter_mut().enumerate() {
            let rec = recover_shard(dir, i, slot)?;
            any_replayed |= rec.replayed;
            // The in-memory (and, below, the saved) manifest adopts the
            // recovered metas, so later checkpoints build on them.
            *slot = rec.meta.clone();
            recoveries.push(rec);
        }
        // Recovery checkpoint, phase 2: one covering manifest save — after
        // every shard's headers are durable, before any log is truncated.
        if any_replayed {
            manifest.checkpoint_seq += 1;
            manifest.save(&manifest_path)?;
        }
        let mut shards = Vec::with_capacity(recoveries.len());
        let mut recovered = Vec::with_capacity(recoveries.len());
        for (i, rec) in recoveries.into_iter().enumerate() {
            let sp = PartyFiles::wrap(rec.sp_pager, cache_pages);
            let te = PartyFiles::wrap(rec.te_pager, cache_pages);
            // Everything the old log carried is checkpointed now; cut a
            // fresh segment (atomically — a crash here leaves the old log,
            // and replaying it again is idempotent).
            let wal = WalWriter::create(wal_path(dir, i), rec.meta.epoch, sp.store.stats())?;
            shards.push(ShardFiles {
                upper: rec.meta.upper,
                sp,
                te,
                wal,
                state: Mutex::new(ShardCommitState {
                    epoch: rec.meta.epoch,
                    heap_dir: rec.heap_dir,
                    logged_heap_len: rec.heap_pages.len(),
                }),
                group: StdMutex::new(GroupQueue::default()),
                group_cv: Condvar::new(),
            });
            recovered.push(RecoveredShard {
                meta: rec.meta,
                heap_pages: rec.heap_pages,
            });
        }
        Ok((
            Durability {
                manifest_path,
                mstate: StdMutex::new(ManifestState {
                    manifest,
                    seq: 0,
                    saved: 0,
                    saving: false,
                    failed_through: 0,
                    fail_msg: String::new(),
                }),
                mcv: Condvar::new(),
                shards,
                policy,
                crash: Mutex::new(None),
                checkpoint_threshold_bytes: std::sync::atomic::AtomicU64::new(
                    DEFAULT_CHECKPOINT_THRESHOLD_BYTES,
                ),
            },
            recovered,
        ))
    }

    /// The fixed record length the manifest records.
    pub(crate) fn record_size(&self) -> usize {
        lock_unpoisoned(&self.mstate).manifest.record_size as usize
    }

    /// The durability policy this deployment runs.
    pub(crate) fn policy(&self) -> DurabilityPolicy {
        self.policy
    }

    /// Arms (or clears) a commit-pipeline fault-injection point.
    pub(crate) fn set_crash_point(&self, point: Option<CommitCrashPoint>) {
        *self.crash.lock() = point;
    }

    /// Overrides the log-size threshold past which a commit folds a
    /// checkpoint in — tests and benches force frequent (or suppress all)
    /// threshold checkpoints with it.
    pub(crate) fn set_checkpoint_threshold_bytes(&self, bytes: u64) {
        self.checkpoint_threshold_bytes
            .store(bytes, std::sync::atomic::Ordering::Relaxed);
    }

    fn checkpoint_threshold(&self) -> u64 {
        self.checkpoint_threshold_bytes
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    fn crash_check(&self, point: CommitCrashPoint) -> StorageResult<()> {
        if *self.crash.lock() == Some(point) {
            return Err(StorageError::Io(std::io::Error::other(format!(
                "injected crash at {point:?}"
            ))));
        }
        Ok(())
    }

    /// Shard `i`'s files. Every shard index handled by the durability layer
    /// comes from the deployment that constructed it, so the bound always
    /// holds; funneling the one slice access through here keeps the commit
    /// paths free of panicking operations everywhere else.
    fn shard(&self, i: usize) -> &ShardFiles {
        // analyzer:allow(panic-free-commit, shard indices come from the owning deployment and are in range by construction)
        &self.shards[i]
    }

    /// Clones shard `i`'s stores so the deployment can build or reopen its
    /// trees on them.
    pub(crate) fn stores(&self, i: usize) -> ShardStores {
        let shard = self.shard(i);
        ShardStores {
            sp_store: Arc::clone(&shard.sp.store),
            sp_cache: Some(Arc::clone(&shard.sp.cache)),
            te_store: Arc::clone(&shard.te.store),
        }
    }

    /// Issues a commit ticket for shard `i`. **Must be called while holding
    /// the shard's write locks** (or with otherwise-exclusive access): the
    /// group-commit protocol relies on "ticket issued under write locks,
    /// commit performed under read locks" to guarantee that a commit covers
    /// every ticket issued before it started.
    // A dropped ticket is never waited on: the write would silently lose its
    // durability guarantee, so losing the return value is always a bug.
    #[must_use]
    pub(crate) fn announce(&self, i: usize) -> u64 {
        let shard = self.shard(i);
        let mut q = lock_unpoisoned(&shard.group);
        q.queued += 1;
        let ticket = q.queued;
        drop(q);
        // Wake a leader that may be gathering its batch.
        shard.group_cv.notify_all();
        ticket
    }

    /// Blocks until a commit covering `ticket` is durable, electing this
    /// caller as the batch leader when no commit is in flight. `commit` must
    /// acquire the shard's read locks and run the prepare/finish pair; it is
    /// invoked at most once per leadership stint.
    ///
    /// Non-`Group` policies skip the queue entirely: every writer runs its
    /// *own* commit — its own log append and its own acknowledgement fsync,
    /// serialized on the shard's commit state. A leader's commit does cover
    /// concurrent writers' already-locked-in mutations (they are in the
    /// appended transaction), but under `Immediate` each writer still pays
    /// its own barrier: that per-write cadence is the policy's contract and
    /// exactly the cost `Group` exists to amortize.
    pub(crate) fn wait_durable(
        &self,
        i: usize,
        ticket: u64,
        commit: impl Fn() -> StorageResult<()>,
    ) -> StorageResult<()> {
        let shard = self.shard(i);
        let (max_batch, max_wait) = match self.policy {
            DurabilityPolicy::Group {
                max_batch,
                max_wait,
            } => (max_batch.max(1) as u64, max_wait),
            _ => return commit(),
        };
        let mut q = lock_unpoisoned(&shard.group);
        loop {
            if q.durable >= ticket {
                return Ok(());
            }
            if q.failed_through >= ticket {
                return Err(batch_error(
                    "group commit failed for this write's batch",
                    &q.fail_msg,
                ));
            }
            if q.leader {
                q = shard.group_cv.wait(q).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Become the leader: optionally gather a batch, then run ONE
            // commit for everything queued. The group lock is never held
            // while the shard's locks are acquired (the commit closure runs
            // lock-free here), so the lock order stays acyclic.
            q.leader = true;
            if !max_wait.is_zero() {
                let deadline = Instant::now() + max_wait;
                while q.queued.saturating_sub(q.durable) < max_batch {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, timeout) = shard
                        .group_cv
                        .wait_timeout(q, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    q = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            drop(q);
            // If `commit` panics (tree code, fault injection), leadership
            // must still be released or the shard's writers hang forever.
            let leader_guard = UnwindFlagGuard {
                m: &shard.group,
                cv: &shard.group_cv,
                clear: |q: &mut GroupQueue| q.leader = false,
                armed: true,
            };
            // The commit snapshots how many tickets it covers and publishes
            // the outcome to the queue itself.
            let result = commit();
            leader_guard.disarm();
            q = lock_unpoisoned(&shard.group);
            q.leader = false;
            drop(q);
            shard.group_cv.notify_all();
            // The leader's own ticket predates its commit, so the commit
            // covered it: report our own failure directly (the commit has
            // already marked the batch failed for the followers).
            result?;
            q = lock_unpoisoned(&shard.group);
        }
    }

    /// Commits shard `i`'s current state *and forces a checkpoint*: log
    /// append, page flush, header + manifest republication, log truncation.
    /// The explicit-durability entry point (`flush()`, `close()`, initial
    /// creation). The caller must hold the shard's locks (read locks
    /// suffice — and are what `flush()` holds) so `sp`/`te` cannot change
    /// mid-commit. Covers, and on completion releases or fails, every
    /// group-commit ticket issued before it started.
    pub(crate) fn commit_shard(
        &self,
        i: usize,
        sp: &SaeServiceProvider,
        te: &TrustedEntity,
    ) -> StorageResult<()> {
        let prepared = self.prepare_commit(i, sp, te, true)?;
        self.finish_commit(prepared)
    }

    /// Publishes a finished (or failed) commit's outcome to the shard's
    /// group queue, releasing or failing every covered ticket.
    fn publish_group_outcome<T>(&self, i: usize, cover: u64, result: &StorageResult<T>) {
        let shard = self.shard(i);
        let mut q = lock_unpoisoned(&shard.group);
        match result {
            Ok(_) => q.durable = q.durable.max(cover),
            Err(e) => {
                if cover > q.durable {
                    q.failed_through = q.failed_through.max(cover);
                    q.fail_msg = e.to_string();
                }
            }
        }
        drop(q);
        shard.group_cv.notify_all();
    }

    /// Commit phase 1, under the shard's (at least read) locks: append the
    /// transaction — `Begin`, every after-image written since the last
    /// commit, the heap page table's new entries, `Commit` with the full
    /// meta — to the shard's log, folding a checkpoint in when the log is
    /// past the threshold (or `force_checkpoint` demands one, as
    /// `flush()`/`close()` do). The returned token holds the shard's
    /// commit-state lock, so no other commit of this shard can start until
    /// [`Durability::finish_commit`] completes — but the *tree* locks can
    /// be released as soon as this returns: the transaction is fully in the
    /// log, so later in-memory mutations (which stay in the cache until
    /// their own commit) cannot leak into it.
    pub(crate) fn prepare_commit<'a>(
        &'a self,
        i: usize,
        sp: &SaeServiceProvider,
        te: &TrustedEntity,
        force_checkpoint: bool,
    ) -> StorageResult<PreparedCommit<'a>> {
        let shard = self.shard(i);
        // The state lock is held from here through finish_commit, including
        // any covering checkpoint and manifest save: if the manifest were
        // written outside it, two concurrent commits of the same shard
        // (e.g. two `flush()` calls, which only take read locks) could
        // invert at the manifest and persist an older epoch after a newer
        // one. Lock order is state(i) → group(i) → wal(i) → manifest,
        // everywhere.
        let mut state = shard.state.lock();
        // Tickets issued before this point were issued under the shard's
        // write locks; our caller holds at least the read locks, so all of
        // those mutations are visible to this commit, which therefore
        // covers them.
        let cover = lock_unpoisoned(&shard.group).queued;
        let epoch = state.epoch + 1;
        let mut already_durable = false;
        let staged = (|| -> StorageResult<ShardMeta> {
            self.crash_check(CommitCrashPoint::BeforeCommit)?;

            // 1. Heap page table through the SP cache, so changed chain
            //    pages join the write set and are logged like any other.
            state
                .heap_dir
                .write(shard.sp.store.as_ref(), sp.heap().pages())?;

            // 2. Collect the transaction: the after-images of everything
            //    written since the last commit, plus the heap page table's
            //    new tail.
            let sp_images = shard.sp.cache.write_set_pages()?;
            let te_images = shard.te.cache.write_set_pages()?;
            let heap_pages = sp.heap().pages();
            let logged = state.logged_heap_len.min(heap_pages.len());
            let new_heap = heap_pages.get(logged..).unwrap_or(&[]);

            let meta = shard_meta(shard.upper, epoch, &state.heap_dir, sp, te)?;

            // 3. Log before pages: the whole transaction is appended (not
            //    yet synced) before any page file is touched.
            let mut records =
                Vec::with_capacity(sp_images.len() + te_images.len() + new_heap.len() + 2);
            records.push(WalRecord::Begin { epoch });
            for (page_id, image) in sp_images {
                records.push(WalRecord::PageImage {
                    party: Party::Sp,
                    page_id,
                    image: Box::new(image),
                });
            }
            for (page_id, image) in te_images {
                records.push(WalRecord::PageImage {
                    party: Party::Te,
                    page_id,
                    image: Box::new(image),
                });
            }
            for (offset, page_id) in new_heap.iter().enumerate() {
                records.push(WalRecord::HeapDirEntry {
                    index: (logged + offset) as u64,
                    page_id: *page_id,
                });
            }
            records.push(WalRecord::Commit { meta: meta.clone() });
            shard.wal.append(&records)?;
            // The images are in the log (synced before the ack); the write
            // sets can be forgotten. On an append failure they are *kept*,
            // so a retried commit logs them again.
            shard.sp.cache.clear_write_set();
            shard.te.cache.clear_write_set();
            state.logged_heap_len = heap_pages.len();
            self.crash_check(CommitCrashPoint::AfterPageFlush)?;

            // 4. Checkpoint when the log is due or the caller insists. The
            //    checkpoint runs here — still under the tree locks — so the
            //    cache flush cannot race a concurrent writer's unlogged
            //    mutations into the page files; it opens with the log fsync
            //    and carries its own page barriers, so the finish phase
            //    skips the log fsync.
            if force_checkpoint || shard.wal.log_bytes() >= self.checkpoint_threshold() {
                self.checkpoint_shard(i, &meta)?;
                state.epoch = meta.epoch;
                already_durable = true;
            }
            Ok(meta)
        })();
        if staged.is_err() {
            self.publish_group_outcome(i, cover, &staged);
        }
        let meta = staged?;
        Ok(PreparedCommit {
            shard_idx: i,
            state,
            cover,
            meta,
            already_durable,
        })
    }

    /// Commit phase 2, requiring no tree locks: fsync the log — the single
    /// durability barrier acknowledging the commit (skipped when the
    /// prepare phase's checkpoint already carried its own). Consumes the
    /// token from [`Durability::prepare_commit`] (and with it the
    /// commit-state lock) and releases or fails every covered group ticket.
    pub(crate) fn finish_commit(&self, prepared: PreparedCommit<'_>) -> StorageResult<()> {
        let PreparedCommit {
            shard_idx: i,
            mut state,
            cover,
            meta,
            already_durable,
        } = prepared;
        let shard = self.shard(i);
        let result = (|| -> StorageResult<()> {
            if !already_durable {
                shard.wal.sync()?;
            }
            self.crash_check(CommitCrashPoint::AfterHeaderSync)?;
            state.epoch = meta.epoch;
            Ok(())
        })();
        self.publish_group_outcome(i, cover, &result);
        drop(state);
        result
    }

    /// Folds a checkpoint into a commit (caller holds the shard's
    /// commit-state lock and at least its read tree locks): fsync the log,
    /// flush both caches, republish the headers at the new epoch with a
    /// barrier each, save a covering manifest, then truncate the log to a
    /// fresh segment — strictly in that order, so everything the truncation
    /// drops is already durable elsewhere.
    fn checkpoint_shard(&self, i: usize, meta: &ShardMeta) -> StorageResult<()> {
        let shard = self.shard(i);
        // Log before pages: the caller's just-appended transaction is still
        // unsynced, and the flushes below push its epoch into the page
        // files. Without this barrier a crash mid-checkpoint could durably
        // persist the new pages while the log's recoverable prefix still
        // ends at the previous epoch — losing the committed pre-images.
        // This fsync is also what lets the finish phase skip its own
        // (`already_durable`).
        shard.wal.sync()?;
        shard.sp.flush()?;
        shard.te.flush()?;
        publish_headers(shard, i, meta.epoch)?;
        self.publish_manifest(i, meta.clone())?;
        shard.wal.rotate(meta.epoch)?;
        Ok(())
    }

    /// Creation's own checkpoint for shard `i`, run on the freshly built
    /// SP and TE before the deployment puts them under its locks. The bulk
    /// load is not logged: its pages go straight from the no-steal caches
    /// to the page files, both identity headers are republished at epoch 1
    /// with a barrier each, and the log is cut to a fresh segment at that
    /// epoch. The shard's meta enters the in-memory manifest only; nothing
    /// is committed until [`Durability::commit_creation`] saves it. Until
    /// then the directory has no `MANIFEST`, so a creation killed half-way
    /// leaves no deployment — reopening refuses it, and creating again over
    /// it is allowed.
    pub(crate) fn checkpoint_created_shard(
        &self,
        i: usize,
        sp: &SaeServiceProvider,
        te: &TrustedEntity,
    ) -> StorageResult<()> {
        const EPOCH: u64 = 1;
        let shard = self.shard(i);
        let mut state = shard.state.lock();
        let heap_pages = sp.heap().pages();
        state.heap_dir.write(shard.sp.store.as_ref(), heap_pages)?;
        shard.sp.cache.clear_write_set();
        shard.te.cache.clear_write_set();
        shard.sp.flush()?;
        shard.te.flush()?;
        publish_headers(shard, i, EPOCH)?;
        shard.wal.rotate(EPOCH)?;
        let meta = shard_meta(shard.upper, EPOCH, &state.heap_dir, sp, te)?;
        state.epoch = EPOCH;
        state.logged_heap_len = heap_pages.len();
        set_manifest_slot(&mut lock_unpoisoned(&self.mstate).manifest, i, meta)
    }

    /// The commit point of a creation: one manifest save covering every
    /// shard's [`Durability::checkpoint_created_shard`]. The save is an
    /// atomic replace, so the directory either has no `MANIFEST` (no
    /// deployment) or one describing every shard at epoch 1.
    pub(crate) fn commit_creation(&self) -> StorageResult<()> {
        let mut st = lock_unpoisoned(&self.mstate);
        st.manifest.checkpoint_seq += 1;
        st.manifest.save(&self.manifest_path)
    }

    /// Publishes shard `i`'s new meta into the in-memory manifest and
    /// returns once a manifest image containing it is durably saved — the
    /// checkpoint's manifest leg.
    ///
    /// Under [`DurabilityPolicy::Immediate`] every checkpoint performs its
    /// own save while holding the manifest lock. Under the deferred
    /// policies one saver runs at a time and everyone else piggybacks on
    /// the next covering snapshot: N concurrent shard checkpoints cost one
    /// temp+rename+fsync instead of N.
    fn publish_manifest(&self, i: usize, meta: ShardMeta) -> StorageResult<()> {
        let mut st = lock_unpoisoned(&self.mstate);
        set_manifest_slot(&mut st.manifest, i, meta)?;
        st.seq += 1;
        let my = st.seq;
        if self.policy == DurabilityPolicy::Immediate {
            st.manifest.checkpoint_seq += 1;
            let snapshot = st.manifest.clone();
            let result = snapshot.save(&self.manifest_path);
            if result.is_ok() {
                st.saved = st.saved.max(my);
            }
            return result;
        }
        loop {
            if st.saved >= my {
                return Ok(());
            }
            if st.failed_through >= my {
                return Err(batch_error(
                    "manifest save failed for this commit's batch",
                    &st.fail_msg,
                ));
            }
            if st.saving {
                st = self.mcv.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            st.saving = true;
            let target = st.seq;
            st.manifest.checkpoint_seq += 1;
            let snapshot = st.manifest.clone();
            drop(st);
            // If the save panics, the saver flag must still be released or
            // every later committer hangs on the condvar.
            let saver_guard = UnwindFlagGuard {
                m: &self.mstate,
                cv: &self.mcv,
                clear: |st: &mut ManifestState| st.saving = false,
                armed: true,
            };
            let result = snapshot.save(&self.manifest_path);
            saver_guard.disarm();
            st = lock_unpoisoned(&self.mstate);
            st.saving = false;
            match result {
                Ok(()) => st.saved = st.saved.max(target),
                Err(e) => {
                    if target > st.saved {
                        st.failed_through = st.failed_through.max(target);
                        st.fail_msg = e.to_string();
                    }
                    drop(st);
                    self.mcv.notify_all();
                    // The saver's own update is inside the failed snapshot;
                    // report the original error.
                    return Err(e);
                }
            }
            drop(st);
            self.mcv.notify_all();
            st = lock_unpoisoned(&self.mstate);
        }
    }

    /// The published digest conversion used when reopening a trusted entity.
    pub(crate) fn digest_of(meta: &ShardMeta) -> Digest {
        Digest::new(meta.te_digest)
    }

    /// Shard `i`'s last committed epoch (0 until the first commit).
    pub(crate) fn epoch(&self, i: usize) -> u64 {
        self.shard(i).state.lock().epoch
    }

    /// Exports an epoch-stamped snapshot of shard `i`: the replication
    /// bootstrap a replica installs wholesale. **The caller must hold the
    /// shard's tree locks (read suffices)** so the pages cannot change
    /// underneath the export; the commit-state lock is taken here so no
    /// commit interleaves either.
    ///
    /// The format is a [`crate::replica::SnapshotHeader`] prefix followed by
    /// one synthetic WAL segment — `Seg`, `Begin`, the absolute after-image
    /// of *every* page of both parties, the full heap page table, `Commit`
    /// with the same [`ShardMeta`] a commit of the current state would
    /// publish — so the replica replays it with the exact machinery
    /// (`scan_log`) recovery uses, CRC-checked frame by frame.
    ///
    /// The stamped epoch is the last *committed* epoch: under
    /// [`DurabilityPolicy::FlushOnClose`] the page images may already carry
    /// unacknowledged in-memory mutations ahead of that stamp. The snapshot
    /// is still self-consistent (images, heap table and meta are captured
    /// under the same locks) — freshness is commit-granular, not
    /// mutation-granular.
    pub(crate) fn export_snapshot(
        &self,
        i: usize,
        sp: &SaeServiceProvider,
        te: &TrustedEntity,
    ) -> StorageResult<Vec<u8>> {
        let shard = self.shard(i);
        let state = shard.state.lock();
        let epoch = state.epoch;
        let heap_pages = sp.heap().pages();
        let meta = ShardMeta {
            upper: shard.upper,
            epoch,
            sp_index: sp.index().meta(),
            heap_record_count: sp.heap().record_count(),
            heap_page_count: heap_pages.len() as u64,
            heap_dir_head: state.heap_dir.head(),
            te_tree: te.tree().meta(),
            te_digest: *te.tree().total_xor()?.as_bytes(),
        };
        let mut records = Vec::new();
        records.push(WalRecord::Seg { base_epoch: epoch });
        records.push(WalRecord::Begin { epoch });
        // Absolute images of every page, read through the caches so the
        // content matches the trees being served (dirty pages included).
        for (party, store) in [(Party::Sp, &shard.sp.store), (Party::Te, &shard.te.store)] {
            for id in 0..store.page_count() {
                let page_id = PageId(id);
                records.push(WalRecord::PageImage {
                    party,
                    page_id,
                    image: Box::new(store.read(page_id)?),
                });
            }
        }
        for (index, page_id) in heap_pages.iter().enumerate() {
            records.push(WalRecord::HeapDirEntry {
                index: index as u64,
                page_id: *page_id,
            });
        }
        records.push(WalRecord::Commit { meta });
        let header = crate::replica::SnapshotHeader {
            shard: i as u32,
            record_len: self.record_size() as u32,
            epoch,
        };
        let mut out = header.encode();
        out.extend_from_slice(&sae_storage::encode_records(&records));
        Ok(out)
    }

    /// Exports the WAL tail of shard `i` covering every commit after
    /// `from_epoch`, re-framed as a standalone segment a replica replays
    /// incrementally. [`StorageError::TailUnavailable`] when a checkpoint
    /// has already rotated the needed commits away (the replica must fall
    /// back to [`Durability::export_snapshot`]). Takes only the WAL lock —
    /// safe to call with no tree locks held.
    pub(crate) fn export_wal_tail(&self, i: usize, from_epoch: u64) -> StorageResult<Vec<u8>> {
        let shard = self.shard(i);
        let image = shard.wal.segment_image()?;
        let (seg, txs) = scan_log(&image);
        let Some(seg) = seg else {
            return Err(StorageError::Corrupted(format!(
                "shard {i}: wal segment unreadable while exporting a tail"
            )));
        };
        if seg.base_epoch > from_epoch {
            return Err(StorageError::TailUnavailable {
                base_epoch: seg.base_epoch,
                from_epoch,
            });
        }
        let mut records = vec![WalRecord::Seg {
            base_epoch: from_epoch,
        }];
        for tx in txs {
            if tx.epoch <= from_epoch {
                continue;
            }
            records.push(WalRecord::Begin { epoch: tx.epoch });
            for (party, page_id, image) in tx.pages {
                records.push(WalRecord::PageImage {
                    party,
                    page_id,
                    image: Box::new(image),
                });
            }
            for (index, page_id) in tx.heap_entries {
                records.push(WalRecord::HeapDirEntry { index, page_id });
            }
            records.push(WalRecord::Commit { meta: tx.meta });
        }
        Ok(sae_storage::encode_records(&records))
    }

    /// Best-effort log barrier, swallowing errors — what `Drop` runs. Each
    /// swallowed failure is *recorded* on the shard's SP stats
    /// ([`sae_storage::IoStats::swallowed_sync_errors`]) so tests and
    /// operators can still detect the silent path. Pages and manifest are
    /// deliberately not flushed: everything acknowledged is already covered
    /// by the synced log, and flushing unacknowledged cache contents would
    /// overwrite checkpointed pages with state the log does not describe.
    fn sync_best_effort(&self) {
        for shard in &self.shards {
            if shard.wal.sync().is_err() {
                shard.sp.store.stats().record_swallowed_sync_error();
            }
        }
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        self.sync_best_effort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_file_round_trip_and_identity_checks() {
        let dir = tempfile::tempdir().unwrap();
        let path = sp_path(dir.path(), 0);
        let pager = create_party_file(&path, 0, Party::Sp).unwrap();
        pager.sync().unwrap();
        drop(pager);

        // Reopen with the matching identity and epoch.
        let pager = open_party_file(&path, 0, Party::Sp, 0).unwrap();
        drop(pager);
        // Wrong shard index, wrong party, and a missing file are corruption.
        assert!(matches!(
            open_party_file(&path, 1, Party::Sp, 0),
            Err(StorageError::Corrupted(_))
        ));
        assert!(matches!(
            open_party_file(&path, 0, Party::Te, 0),
            Err(StorageError::Corrupted(_))
        ));
        assert!(matches!(
            open_party_file(&te_path(dir.path(), 0), 0, Party::Te, 0),
            Err(StorageError::Corrupted(_))
        ));
        // A file ahead of the manifest is a stale manifest under the strict
        // (no-log-evidence) validation...
        let pager = Arc::new(FilePager::open(&path).unwrap());
        pager
            .write(
                SHARD_HEADER_PAGE,
                &ShardHeader {
                    shard: 0,
                    party: Party::Sp,
                    epoch: 5,
                }
                .encode(),
            )
            .unwrap();
        drop(pager);
        assert!(matches!(
            open_party_file(&path, 0, Party::Sp, 4),
            Err(StorageError::StaleManifest { .. })
        ));
        // ...while the identity-only form leaves the epoch to log replay.
        let (_pager, header) = open_party_file_identity(&path, 0, Party::Sp).unwrap();
        assert_eq!(header.epoch, 5);
    }

    #[test]
    fn policy_labels_and_defaults() {
        assert_eq!(DurabilityPolicy::default(), DurabilityPolicy::Immediate);
        match DurabilityPolicy::group() {
            DurabilityPolicy::Group { max_batch, .. } => assert!(max_batch > 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
