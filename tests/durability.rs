//! Cross-crate recovery tests for the durable sharded deployment: a
//! created-populated-closed deployment must reopen from its manifest roots
//! (never rebuilding from the dataset) and serve byte-identical verified
//! results on every layout, while torn/garbage/stale manifests, swapped
//! shard files and on-disk tampers are rejected — with typed errors, never a
//! panic or a silently-empty deployment. The crash-point tests kill the
//! commit pipeline between its stages (`CommitCrashPoint`) and assert that
//! reopening *recovers*: the write-ahead log replays every acknowledged
//! write, so no crash point leaves the directory refusing to open — only
//! the doomed in-flight write's visibility varies by where the kill landed
//! relative to the log fsync. Creation is not logged: its one manifest save
//! is its commit point, so a creation killed before that save leaves no
//! deployment to open, and may be run again.
//!
//! `SAE_DURABILITY_POLICY=immediate|group|flush-on-close` selects the
//! commit policy every engine in this file runs under (default immediate),
//! so CI exercises the whole recovery suite per policy.

use sae::core::QueryService;
use sae::prelude::*;
use sae::storage::{
    FilePager, Manifest, PageStore, Party, ShardHeader, StorageError, PAGE_SIZE, SHARD_HEADER_PAGE,
};
use std::path::Path;

const ALG: HashAlgorithm = HashAlgorithm::Sha1;
const DOMAIN: u32 = 10_000_000;

fn dataset(n: usize, seed: u64) -> Dataset {
    DatasetSpec {
        cardinality: n,
        distribution: KeyDistribution::unf(),
        record_size: 500,
        seed,
    }
    .generate()
}

/// The durability policy the test-matrix leg selects (default immediate).
fn policy() -> DurabilityPolicy {
    match std::env::var("SAE_DURABILITY_POLICY").as_deref() {
        Ok("group") => DurabilityPolicy::group(),
        Ok("flush-on-close") => DurabilityPolicy::FlushOnClose,
        _ => DurabilityPolicy::Immediate,
    }
}

/// Creates a durable engine under the configured policy.
fn create_engine(
    dir: &Path,
    ds: &Dataset,
    shards: usize,
    cache_pages: Option<usize>,
) -> ShardedSaeEngine {
    ShardedSaeEngine::create_dir_with(dir, ds, ALG, shards, cache_pages, policy()).unwrap()
}

/// Whether the configured policy commits accepted writes before returning.
fn writes_commit_eagerly() -> bool {
    policy() != DurabilityPolicy::FlushOnClose
}

#[test]
fn reopen_after_close_round_trips_queries_and_digests_on_every_layout() {
    let ds = dataset(4_000, 11);
    for shards in 1usize..=8 {
        let dir = tempfile::tempdir().unwrap();
        let engine = create_engine(dir.path(), &ds, shards, None);
        let queries = QueryMix::spanning(DOMAIN, 0.01, shards.max(2))
            .workload(8, 23)
            .queries;
        let before: Vec<_> = queries.iter().map(|q| engine.query(q).unwrap()).collect();
        engine.close().unwrap();

        let reopened = ShardedSaeEngine::open_dir(dir.path(), ALG, None).unwrap();
        assert_eq!(reopened.shard_count(), shards);
        for (q, expected) in queries.iter().zip(&before) {
            let outcome = reopened.query(q).unwrap();
            assert!(outcome.verdict.is_ok(), "{shards} shards, {q}");
            // Byte-identical records *and* identical per-slice verification
            // tokens: the reopened deployment serves the same authenticated
            // state, not a rebuilt approximation of it.
            assert_eq!(outcome.slices.len(), expected.slices.len());
            for (a, b) in outcome.slices.iter().zip(&expected.slices) {
                assert_eq!(a.shard, b.shard, "{shards} shards, {q}");
                assert_eq!(a.records, b.records, "{shards} shards, {q}");
                assert_eq!(a.vt, b.vt, "{shards} shards, {q}");
            }
        }
        // Every existing tamper strategy is still detected post-reopen.
        let q = RangeQuery::new(0, DOMAIN);
        for strategy in [
            TamperStrategy::DropRecords { count: 1 },
            TamperStrategy::InjectRecords { count: 1 },
            TamperStrategy::ModifyRecords { count: 1 },
            TamperStrategy::DuplicatePair { count: 1 },
            TamperStrategy::DuplicateExisting { count: 1 },
            TamperStrategy::DropShardSlice { shard: 0 },
            TamperStrategy::ShardBoundarySwap,
        ] {
            let outcome = reopened.query_with_tamper(&q, strategy, 7).unwrap();
            assert!(
                !outcome.metrics.verified,
                "{shards} shards: {strategy:?} went undetected after reopen"
            );
        }
        reopened.close().unwrap();
    }
}

#[test]
fn committed_updates_survive_repeated_restarts() {
    let ds = dataset(1_500, 12);
    let fresh = Record::with_size(8_400_000, 4_321_000, 500);
    let victim = ds.records[3].clone();
    // One shard is the paper's single SP/TE pair; four exercise routing.
    for shards in [1usize, 4] {
        let dir = tempfile::tempdir().unwrap();
        let engine = create_engine(dir.path(), &ds, shards, Some(128));
        engine.insert(&fresh).unwrap();
        assert!(engine.delete(victim.id, victim.key).unwrap());
        engine.close().unwrap();

        // Restart 1: the insert is there and the delete stayed deleted;
        // delete the insert too.
        let all = RangeQuery::new(0, DOMAIN);
        let engine = ShardedSaeEngine::open_dir(dir.path(), ALG, Some(128)).unwrap();
        let full = engine.query(&all).unwrap();
        assert!(full.verdict.is_ok(), "{shards} shards: {:?}", full.verdict);
        let ids = served_ids(&engine, &all);
        assert!(ids.contains(&fresh.id), "{shards} shards");
        assert!(!ids.contains(&victim.id), "{shards} shards");
        assert!(engine.delete(fresh.id, fresh.key).unwrap());
        engine.close().unwrap();

        // Restart 2: both deletes stuck, the tombstones stayed dead, and the
        // whole domain still verifies.
        let engine = ShardedSaeEngine::open_dir(dir.path(), ALG, Some(128)).unwrap();
        let full = engine.query(&all).unwrap();
        assert!(full.verdict.is_ok(), "{shards} shards: {:?}", full.verdict);
        let ids = served_ids(&engine, &all);
        assert!(!ids.contains(&fresh.id), "{shards} shards");
        assert!(!ids.contains(&victim.id), "{shards} shards");
        assert_eq!(ids.len(), ds.records.len() - 1, "{shards} shards");
        engine.close().unwrap();
    }
}

fn close_deployment(dir: &Path, shards: usize) {
    let ds = dataset(600, 13);
    create_engine(dir, &ds, shards, None).close().unwrap();
}

#[test]
fn create_dir_refuses_to_overwrite_an_existing_deployment() {
    let dir = tempfile::tempdir().unwrap();
    close_deployment(dir.path(), 2);
    // Re-running creation against a live deployment must not truncate it.
    let err = ShardedSaeEngine::create_dir(dir.path(), &dataset(100, 99), ALG, 2, None)
        .err()
        .expect("create over an existing deployment must fail");
    assert!(
        matches!(&err, StorageError::Io(e) if e.kind() == std::io::ErrorKind::AlreadyExists),
        "{err:?}"
    );
    // The refused create left the deployment intact and reopenable.
    let engine = ShardedSaeEngine::open_dir(dir.path(), ALG, None).unwrap();
    assert!(engine
        .query(&RangeQuery::new(0, DOMAIN))
        .unwrap()
        .verdict
        .is_ok());
}

#[test]
fn torn_and_garbage_manifests_are_rejected_with_typed_errors() {
    let dir = tempfile::tempdir().unwrap();
    close_deployment(dir.path(), 2);
    let manifest = dir.path().join("MANIFEST");

    // Torn manifest: truncated mid-page.
    let full = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &full[..1000]).unwrap();
    assert!(matches!(
        ShardedSaeEngine::open_dir(dir.path(), ALG, None),
        Err(StorageError::Corrupted(_))
    ));

    // Garbage manifest: right size, wrong bytes.
    std::fs::write(&manifest, vec![0x5Au8; PAGE_SIZE]).unwrap();
    assert!(matches!(
        ShardedSaeEngine::open_dir(dir.path(), ALG, None),
        Err(StorageError::Corrupted(_))
    ));

    // Missing manifest.
    std::fs::remove_file(&manifest).unwrap();
    assert!(matches!(
        ShardedSaeEngine::open_dir(dir.path(), ALG, None),
        Err(StorageError::Corrupted(_))
    ));

    // Valid manifest, missing shard file.
    std::fs::write(&manifest, &full).unwrap();
    std::fs::remove_file(dir.path().join("te-1.pages")).unwrap();
    assert!(matches!(
        ShardedSaeEngine::open_dir(dir.path(), ALG, None),
        Err(StorageError::Corrupted(_))
    ));
}

#[test]
fn stale_manifest_is_rejected_as_its_own_error() {
    let dir = tempfile::tempdir().unwrap();
    close_deployment(dir.path(), 2);

    // Simulate "pages synced, manifest not": shard 1's files carry a commit
    // epoch the manifest never recorded.
    for (party, file) in [(Party::Sp, "sp-1.pages"), (Party::Te, "te-1.pages")] {
        let pager = FilePager::open(dir.path().join(file)).unwrap();
        let old = ShardHeader::decode(&pager.read(SHARD_HEADER_PAGE).unwrap()).unwrap();
        let bumped = ShardHeader {
            epoch: old.epoch + 1,
            ..old
        };
        assert_eq!(old.party, party);
        pager.write(SHARD_HEADER_PAGE, &bumped.encode()).unwrap();
        pager.sync().unwrap();
    }
    match ShardedSaeEngine::open_dir(dir.path(), ALG, None) {
        Err(StorageError::StaleManifest {
            shard,
            manifest_epoch,
            file_epoch,
        }) => {
            assert_eq!(shard, 1);
            assert_eq!(file_epoch, manifest_epoch + 1);
        }
        Err(other) => panic!("expected StaleManifest, got {other:?}"),
        Ok(_) => panic!("stale manifest was accepted"),
    }
}

#[test]
fn swapped_shard_files_are_rejected_before_serving() {
    // The attack the identity headers exist for: between a shutdown and the
    // next serve, shard files are swapped (sp-0 ↔ sp-1). Both files are
    // internally valid pager files, so only the identity check can tell.
    let dir = tempfile::tempdir().unwrap();
    close_deployment(dir.path(), 2);
    let a = dir.path().join("sp-0.pages");
    let b = dir.path().join("sp-1.pages");
    let tmp = dir.path().join("swap.tmp");
    std::fs::rename(&a, &tmp).unwrap();
    std::fs::rename(&b, &a).unwrap();
    std::fs::rename(&tmp, &b).unwrap();
    match ShardedSaeEngine::open_dir(dir.path(), ALG, None) {
        Err(StorageError::Corrupted(msg)) => {
            assert!(msg.contains("identity mismatch"), "{msg}")
        }
        Err(other) => panic!("expected Corrupted identity mismatch, got {other:?}"),
        Ok(_) => panic!("swapped shard files were accepted"),
    }

    // Same for a TE file swapped in for an SP file.
    let dir = tempfile::tempdir().unwrap();
    close_deployment(dir.path(), 1);
    let sp = dir.path().join("sp-0.pages");
    let te = dir.path().join("te-0.pages");
    let tmp = dir.path().join("swap.tmp");
    std::fs::rename(&sp, &tmp).unwrap();
    std::fs::rename(&te, &sp).unwrap();
    std::fs::rename(&tmp, &te).unwrap();
    assert!(matches!(
        ShardedSaeEngine::open_dir(dir.path(), ALG, None),
        Err(StorageError::Corrupted(_))
    ));
}

#[test]
fn on_disk_tampering_is_detected_after_reopen() {
    // Flipping payload bytes inside a committed heap page leaves every
    // header and the manifest intact, so the reopen itself succeeds — but
    // the tampered record no longer hashes to its TE digest, so the first
    // query covering it fails verification.
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(800, 14);
    create_engine(dir.path(), &ds, 2, None).close().unwrap();

    // sp-0.pages layout: page 0 = identity header, page 1 = heap page
    // directory, page 2 = first heap page. Byte 50 of the first record is
    // payload (past the 12-byte id/key header).
    let path = dir.path().join("sp-0.pages");
    let mut bytes = std::fs::read(&path).unwrap();
    let offset = 2 * PAGE_SIZE + 50;
    bytes[offset] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let reopened = ShardedSaeEngine::open_dir(dir.path(), ALG, None).unwrap();
    let outcome = reopened.query(&RangeQuery::new(0, DOMAIN)).unwrap();
    assert!(
        matches!(
            outcome.verdict,
            Err(ShardedVerifyError::Slice { shard: 0, .. })
        ),
        "on-disk heap tamper went undetected: {:?}",
        outcome.verdict
    );

    // A truncated TE file cannot even open: its committed root is gone.
    let te_path = dir.path().join("te-0.pages");
    let te_bytes = std::fs::read(&te_path).unwrap();
    std::fs::write(&te_path, &te_bytes[..PAGE_SIZE]).unwrap();
    assert!(matches!(
        ShardedSaeEngine::open_dir(dir.path(), ALG, None),
        Err(StorageError::Corrupted(_))
    ));
}

#[test]
fn crash_free_creation_logs_nothing_and_commits_with_one_manifest_save() {
    // The bulk load is its own checkpoint: no page image is logged, no log
    // barrier runs, and one manifest save covers every shard.
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(3_000, 16);
    let engine = create_engine(dir.path(), &ds, 3, None);
    for (party, stats) in engine.party_stats() {
        let snap = stats.snapshot();
        assert_eq!((snap.wal_appends, snap.wal_syncs), (0, 0), "{party}");
    }
    let manifest = Manifest::load(dir.path().join("MANIFEST")).unwrap();
    assert_eq!(manifest.checkpoint_seq, 1);
    assert!(manifest.shards.iter().all(|shard| shard.epoch == 1));
    for shard in 0..3 {
        assert_eq!(engine.shard_epoch(shard), 1);
    }
    engine.close().unwrap();
}

#[test]
fn crash_before_the_creation_manifest_leaves_no_deployment_to_open() {
    // A creation killed after every shard's pages, headers and log are
    // final but before the manifest save: the directory holds everything
    // but `MANIFEST`, which is exactly the commit point creation never
    // reached.
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(2_000, 17);
    std::mem::forget(create_engine(dir.path(), &ds, 2, None));
    std::fs::remove_file(dir.path().join("MANIFEST")).unwrap();
    match ShardedSaeEngine::open_dir(dir.path(), ALG, None) {
        Err(StorageError::Corrupted(msg)) => {
            assert!(msg.contains("no deployment manifest"), "{msg}")
        }
        Err(other) => panic!("expected Corrupted, got {other:?}"),
        Ok(_) => panic!("a creation without its manifest was opened"),
    }

    // Creating again over the leftovers is allowed, and serves every record.
    let engine = create_engine(dir.path(), &ds, 2, None);
    let outcome = engine.query(&RangeQuery::new(0, DOMAIN)).unwrap();
    assert!(outcome.verdict.is_ok(), "{:?}", outcome.verdict);
    let served: usize = outcome.slices.iter().map(|s| s.records.len()).sum();
    assert_eq!(served, ds.records.len());
    engine.close().unwrap();
    let reopened = ShardedSaeEngine::open_dir(dir.path(), ALG, None).unwrap();
    assert!(reopened
        .query(&RangeQuery::new(0, DOMAIN))
        .unwrap()
        .verdict
        .is_ok());
}

#[test]
fn a_heap_record_id_copied_over_its_neighbour_is_refused_at_reopen() {
    // Two index positions naming one record id: the reopened SP directory
    // would map that id to only one of them, so a later delete would leave
    // the other heap slot reachable. The reopen must refuse the directory.
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(800, 15);
    create_engine(dir.path(), &ds, 2, None).close().unwrap();

    // sp-0.pages page 2 is the first heap page; its records are 500 bytes
    // apart, and each begins with its 8-byte id.
    let path = dir.path().join("sp-0.pages");
    let mut bytes = std::fs::read(&path).unwrap();
    let first = 2 * PAGE_SIZE;
    let (id0, id1) = (first..first + 8, first + 500..first + 508);
    assert_ne!(bytes[id0.clone()], bytes[id1.clone()]);
    bytes.copy_within(id0, id1.start);
    std::fs::write(&path, &bytes).unwrap();

    match ShardedSaeEngine::open_dir(dir.path(), ALG, None) {
        Err(StorageError::Corrupted(msg)) => {
            assert!(msg.contains("reachable from two index positions"), "{msg}")
        }
        Err(other) => panic!("expected Corrupted, got {other:?}"),
        Ok(_) => panic!("a duplicated heap record id was accepted"),
    }
}

/// Commits a prefix (bulk load + one insert + explicit flush), then returns
/// the engine and the record the committed prefix must contain.
fn committed_prefix(dir: &Path, ds: &Dataset) -> (ShardedSaeEngine, Record) {
    // The no-steal write-back cache keeps uncommitted mutations out of the
    // page files, so whatever the kill leaves behind is always the last
    // checkpoint plus a replayable log.
    let engine = create_engine(dir, ds, 2, Some(512));
    let committed = Record::with_size(8_500_000, 2_000_000, 500);
    engine.insert(&committed).unwrap();
    engine.flush().unwrap();
    (engine, committed)
}

fn served_ids(engine: &ShardedSaeEngine, q: &RangeQuery) -> Vec<u64> {
    engine
        .query(q)
        .unwrap()
        .slices
        .iter()
        .flat_map(|s| s.records.iter())
        .map(|r| Record::decode(r).unwrap().id)
        .collect()
}

/// A kill before any commit work starts: the files still hold exactly the
/// committed prefix, and the reopened deployment serves it verified — the
/// in-flight write is cleanly absent, never half-applied.
#[test]
fn crash_before_commit_recovers_the_verified_committed_prefix() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(800, 21);
    let (engine, committed) = committed_prefix(dir.path(), &ds);

    engine.set_commit_crash_point(Some(CommitCrashPoint::BeforeCommit));
    let doomed = Record::with_size(8_600_000, 6_000_000, 500);
    // Eager policies report the injected commit failure; FlushOnClose
    // accepts from memory and never reaches the crash point.
    assert_eq!(engine.insert(&doomed).is_err(), writes_commit_eagerly());
    // Kill -9: no Drop, no cache write-back, no final sync.
    std::mem::forget(engine);

    let reopened = ShardedSaeEngine::open_dir(dir.path(), ALG, None).unwrap();
    let full = reopened.query(&RangeQuery::new(0, DOMAIN)).unwrap();
    assert!(full.verdict.is_ok(), "{:?}", full.verdict);
    let ids = served_ids(&reopened, &RangeQuery::new(0, DOMAIN));
    assert!(ids.contains(&committed.id), "committed prefix lost");
    assert!(!ids.contains(&doomed.id), "un-committed write resurrected");
}

/// A kill after the transaction was appended to the log but before the log
/// fsync. Under the `mem::forget` crash model the appended bytes survive,
/// so log replay recovers the doomed write too (on real hardware the tail
/// might equally be torn off by the scan — both outcomes serve verified);
/// what the WAL guarantees is that the reopen *recovers* instead of
/// refusing, which before the log existed was exactly the torn state that
/// had to be rejected as corrupted.
#[test]
fn crash_after_log_append_recovers_by_replay() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(800, 22);
    let (engine, committed) = committed_prefix(dir.path(), &ds);

    engine.set_commit_crash_point(Some(CommitCrashPoint::AfterPageFlush));
    let doomed = Record::with_size(8_600_001, 6_000_001, 500);
    assert_eq!(engine.insert(&doomed).is_err(), writes_commit_eagerly());
    std::mem::forget(engine);

    let reopened = ShardedSaeEngine::open_dir(dir.path(), ALG, None).unwrap();
    let full = reopened.query(&RangeQuery::new(0, DOMAIN)).unwrap();
    assert!(full.verdict.is_ok(), "{:?}", full.verdict);
    let ids = served_ids(&reopened, &RangeQuery::new(0, DOMAIN));
    assert!(ids.contains(&committed.id), "committed prefix lost");
    // Eager policies appended the doomed transaction before the kill, and
    // the surviving bytes replay; FlushOnClose never logged it.
    assert_eq!(ids.contains(&doomed.id), writes_commit_eagerly());
    // Recovery checkpointed the replayed state: reopening again replays
    // nothing and serves the same ids.
    reopened.close().unwrap();
    let again = ShardedSaeEngine::open_dir(dir.path(), ALG, None).unwrap();
    assert_eq!(served_ids(&again, &RangeQuery::new(0, DOMAIN)), ids);
}

/// A kill after the log fsync that made the transaction durable but before
/// the writer was acknowledged — the pre-WAL pipeline's classic
/// pages-ahead-of-manifest crash, which used to *refuse* to reopen with
/// `StaleManifest`. With the log, replay recovers the write: durable means
/// recoverable, even when the acknowledgement never arrived.
#[test]
fn crash_after_ack_fsync_recovers_the_durable_write() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(800, 23);
    let (engine, committed) = committed_prefix(dir.path(), &ds);

    engine.set_commit_crash_point(Some(CommitCrashPoint::AfterHeaderSync));
    let doomed = Record::with_size(8_600_002, 6_000_002, 500);
    assert_eq!(engine.insert(&doomed).is_err(), writes_commit_eagerly());
    std::mem::forget(engine);

    let reopened = ShardedSaeEngine::open_dir(dir.path(), ALG, None).unwrap();
    let full = reopened.query(&RangeQuery::new(0, DOMAIN)).unwrap();
    assert!(full.verdict.is_ok(), "{:?}", full.verdict);
    let ids = served_ids(&reopened, &RangeQuery::new(0, DOMAIN));
    assert!(ids.contains(&committed.id), "committed prefix lost");
    assert_eq!(ids.contains(&doomed.id), writes_commit_eagerly());
}

/// The full matrix the WAL exists for: a kill at *every* crash point leaves
/// a directory that reopens and serves verified — zero refusals — with
/// every previously acknowledged write intact. `SAE_DURABILITY_POLICY`
/// extends the matrix across policies.
#[test]
fn crash_matrix_every_point_reopens_verified_with_acknowledged_writes() {
    for (round, point) in [
        CommitCrashPoint::BeforeCommit,
        CommitCrashPoint::AfterPageFlush,
        CommitCrashPoint::AfterHeaderSync,
    ]
    .into_iter()
    .enumerate()
    {
        let dir = tempfile::tempdir().unwrap();
        let ds = dataset(600, 26 + round as u64);
        let (engine, committed) = committed_prefix(dir.path(), &ds);
        // An acknowledged write after the committed prefix, then the kill.
        let acked = Record::with_size(8_800_000, 5_000_000, 500);
        engine.insert(&acked).unwrap();
        if !writes_commit_eagerly() {
            engine.flush().unwrap();
        }
        engine.set_commit_crash_point(Some(point));
        let doomed = Record::with_size(8_800_001, 5_500_000, 500);
        assert_eq!(
            engine.insert(&doomed).is_err(),
            writes_commit_eagerly(),
            "{point:?}"
        );
        std::mem::forget(engine);

        let reopened = ShardedSaeEngine::open_dir(dir.path(), ALG, None)
            .unwrap_or_else(|e| panic!("{point:?}: reopen refused with {e:?}"));
        let full = reopened.query(&RangeQuery::new(0, DOMAIN)).unwrap();
        assert!(full.verdict.is_ok(), "{point:?}: {:?}", full.verdict);
        let ids = served_ids(&reopened, &RangeQuery::new(0, DOMAIN));
        assert!(
            ids.contains(&committed.id),
            "{point:?}: committed prefix lost"
        );
        assert!(
            ids.contains(&acked.id),
            "{point:?}: acknowledged write lost"
        );
        if point == CommitCrashPoint::BeforeCommit {
            // Killed before the log append: the doomed write left no trace.
            assert!(
                !ids.contains(&doomed.id),
                "{point:?}: unlogged write appeared"
            );
        }
    }
}

/// `close()` surfaces the checkpoint errors that `Drop` can only swallow
/// (and record on [`sae::storage::IoStats::swallowed_sync_errors`]): with
/// the deployment directory gone, the final checkpoint's manifest replace
/// has nowhere to land, and close must report that as a typed error — not
/// return `Ok` as if the state were durable, and not panic.
#[test]
fn close_surfaces_checkpoint_errors_instead_of_swallowing_them() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(400, 27);
    let engine = create_engine(dir.path(), &ds, 2, None);
    let fresh = Record::with_size(8_900_000, 4_000_000, 500);
    engine.insert(&fresh).unwrap();

    // Pull the directory out from under the engine. Writes and fsyncs to
    // the already-open page/log file handles still succeed (the inodes
    // live on), so the first thing that can fail is the checkpoint's
    // atomic manifest replacement — exactly the error Drop would swallow.
    std::fs::remove_dir_all(dir.path()).unwrap();
    let err = engine
        .close()
        .expect_err("close over a vanished deployment directory must fail");
    assert!(matches!(err, StorageError::Io(_)), "{err:?}");
}

/// A completed commit followed by a kill (no close, no Drop): the write is
/// part of the committed prefix and must be served verified after reopen.
#[test]
fn crash_after_full_commit_serves_the_new_state() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(800, 24);
    let (engine, committed) = committed_prefix(dir.path(), &ds);

    let landed = Record::with_size(8_600_003, 6_000_003, 500);
    engine.insert(&landed).unwrap();
    if !writes_commit_eagerly() {
        // FlushOnClose acknowledges from memory; pin the commit explicitly.
        engine.flush().unwrap();
    }
    std::mem::forget(engine);

    let reopened = ShardedSaeEngine::open_dir(dir.path(), ALG, None).unwrap();
    let full = reopened.query(&RangeQuery::new(0, DOMAIN)).unwrap();
    assert!(full.verdict.is_ok(), "{:?}", full.verdict);
    let ids = served_ids(&reopened, &RangeQuery::new(0, DOMAIN));
    assert!(ids.contains(&committed.id));
    assert!(ids.contains(&landed.id));
}

/// The group-commit durability contract under a kill: every *acknowledged*
/// concurrent write is part of the committed prefix a reopen recovers, with
/// verified digests — batching amortizes fsyncs without weakening what an
/// acknowledgement means.
#[test]
fn group_acknowledged_writes_survive_a_kill() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(800, 25);
    let engine = ShardedSaeEngine::create_dir_with(
        dir.path(),
        &ds,
        ALG,
        4,
        Some(512),
        DurabilityPolicy::group(),
    )
    .unwrap();

    let records: Vec<Record> = (0..8u64)
        .map(|i| Record::with_size(8_700_000 + i, (1_000_000 * (i + 1)) as u32, 500))
        .collect();
    std::thread::scope(|scope| {
        for r in &records {
            let engine = &engine;
            scope.spawn(move || engine.insert(r).unwrap());
        }
    });
    // Kill -9 after every insert was acknowledged: no close, no Drop.
    std::mem::forget(engine);

    let reopened = ShardedSaeEngine::open_dir(dir.path(), ALG, None).unwrap();
    let full = reopened.query(&RangeQuery::new(0, DOMAIN)).unwrap();
    assert!(full.verdict.is_ok(), "{:?}", full.verdict);
    let ids = served_ids(&reopened, &RangeQuery::new(0, DOMAIN));
    for r in &records {
        assert!(ids.contains(&r.id), "acknowledged write {} lost", r.id);
    }
}
