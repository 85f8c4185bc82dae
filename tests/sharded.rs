//! Cross-crate regression tests for the key-range sharded SAE deployment:
//! scatter-gather results must match the single-pair oracle on every layout,
//! and every cross-shard tamper — a silently dropped shard slice, a record
//! smuggled across a shard boundary, and the shard-local replay of the PR 2
//! duplicate-injection attack — must fail verification.

use sae::prelude::*;

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

/// Whether the `SAE_SHARDED_BACKEND=file` test-matrix leg is active: every
/// engine in this file then runs on `FilePager`-backed shards in a temp
/// deployment directory instead of `MemPager`s, exercising the exact same
/// scatter-gather and tamper assertions against the durable serving path.
/// `SAE_DURABILITY_POLICY=immediate|group|flush-on-close` additionally
/// selects the commit policy of that durable path (default immediate).
fn file_backed() -> bool {
    std::env::var("SAE_SHARDED_BACKEND").as_deref() == Ok("file")
}

fn durability_policy() -> DurabilityPolicy {
    match std::env::var("SAE_DURABILITY_POLICY").as_deref() {
        Ok("group") => DurabilityPolicy::group(),
        Ok("flush-on-close") => DurabilityPolicy::FlushOnClose,
        _ => DurabilityPolicy::Immediate,
    }
}

/// Builds an engine on the configured backend. The returned `TempDir` guard
/// (if any) must outlive the engine.
fn build_engine(
    ds: &Dataset,
    shards: usize,
    cache_pages: Option<usize>,
) -> (ShardedSaeEngine, Option<tempfile::TempDir>) {
    if file_backed() {
        let dir = tempfile::tempdir().expect("create deployment dir");
        let engine = ShardedSaeEngine::create_dir_with(
            dir.path(),
            ds,
            ALG,
            shards,
            cache_pages,
            durability_policy(),
        )
        .expect("create durable engine");
        (engine, Some(dir))
    } else {
        let engine = match cache_pages {
            Some(pages) => ShardedSaeEngine::build_cached(ds, ALG, shards, pages),
            None => ShardedSaeEngine::build_in_memory(ds, ALG, shards),
        }
        .expect("build in-memory engine");
        (engine, None)
    }
}

#[test]
fn sharded_scatter_gather_matches_the_oracle_on_every_layout() {
    let ds = dataset(6_000, 1);
    let oracle = SaeSystem::build_in_memory(&ds, ALG).unwrap();
    for shards in [1usize, 2, 4, 8] {
        let (engine, _dir) = build_engine(&ds, shards, None);
        for q in QueryMix::spanning(DOMAIN, 0.01, shards.max(2))
            .workload(15, 7)
            .iter()
        {
            let sharded = engine.query(q).unwrap();
            assert!(sharded.verdict.is_ok(), "{shards} shards, {q}");
            let flat = oracle.query(q).unwrap();
            let stitched: RecordBlock = sharded.slices.iter().flat_map(|s| &s.records).collect();
            assert_eq!(stitched, flat.records, "{shards} shards, {q}");
            // One 20-byte token per responding shard.
            assert_eq!(sharded.metrics.auth_bytes, 20 * sharded.slices.len() as u64);
        }
    }
}

#[test]
fn dropped_shard_slices_fail_verification_on_every_layout() {
    let ds = dataset(4_000, 2);
    let q = RangeQuery::new(0, DOMAIN);
    for shards in [1usize, 2, 3, 4, 8] {
        let (engine, _dir) = build_engine(&ds, shards, None);
        for victim in 0..shards {
            let outcome = engine
                .query_with_tamper(&q, TamperStrategy::DropShardSlice { shard: victim }, 3)
                .unwrap();
            assert!(
                matches!(
                    outcome.verdict,
                    Err(ShardedVerifyError::MissingShardSlice { .. })
                ),
                "{shards}-shard layout accepted a dropped slice (victim {victim}): {:?}",
                outcome.verdict
            );
        }
    }
}

#[test]
fn boundary_swaps_fail_verification() {
    let ds = dataset(4_000, 3);
    for shards in [2usize, 3, 4, 8] {
        let (engine, _dir) = build_engine(&ds, shards, None);
        let outcome = engine
            .query_with_tamper(
                &RangeQuery::new(0, DOMAIN),
                TamperStrategy::ShardBoundarySwap,
                5,
            )
            .unwrap();
        assert!(
            matches!(outcome.verdict, Err(ShardedVerifyError::Slice { .. })),
            "{shards}-shard layout accepted a boundary swap: {:?}",
            outcome.verdict
        );
    }
}

#[test]
fn shard_local_duplicate_injection_replays_are_rejected() {
    // The PR 2 attack, replayed inside one shard's digest domain: an
    // even-multiplicity duplicate cancels out of the shard's bare XOR fold,
    // so only the structural per-slice checks can catch it.
    let ds = dataset(4_000, 4);
    let (engine, _dir) = build_engine(&ds, 4, None);
    let q = RangeQuery::new(1_000_000, 9_000_000);
    for strategy in [
        TamperStrategy::DuplicatePair { count: 2 },
        TamperStrategy::DuplicateExisting { count: 1 },
    ] {
        let outcome = engine.query_with_tamper(&q, strategy, 11).unwrap();
        assert!(
            matches!(
                outcome.verdict,
                Err(ShardedVerifyError::Slice {
                    error: SaeVerifyError::DuplicateRecordId(_),
                    ..
                })
            ),
            "{strategy:?}: {:?}",
            outcome.verdict
        );
    }
}

#[test]
fn sharded_desync_rolls_back_and_stays_detectable() {
    let ds = dataset(2_000, 5);
    let (engine, _dir) = build_engine(&ds, 4, None);
    let victim = ds.records[42].clone();
    let shard = engine.layout().shard_of(victim.key);

    // One-sided divergence inside the owning shard: the TE loses the tuple.
    assert!(engine.with_te_mut(shard, |te| te.delete(victim.id, victim.key).unwrap()));
    let err = engine.delete(victim.id, victim.key).unwrap_err();
    assert!(
        matches!(err, sae::storage::StorageError::Desync(_)),
        "{err}"
    );

    // The shard's SP removal was rolled back, so the record is still served —
    // and the divergence surfaces as a verification failure, never silently.
    let outcome = engine
        .query(&RangeQuery::new(victim.key, victim.key))
        .unwrap();
    assert!(outcome
        .slices
        .iter()
        .flat_map(|s| s.records.iter())
        .any(|r| Record::decode(r).unwrap().id == victim.id));
    assert!(!outcome.metrics.verified);

    // Other shards are unaffected: a query avoiding the poisoned key range
    // still verifies.
    let other_shard = (shard + 1) % engine.shard_count();
    let clean = engine.layout().range(other_shard);
    let outcome = engine.query(&clean).unwrap();
    assert!(outcome.verdict.is_ok());
}

#[test]
fn concurrent_spanning_batches_and_routed_updates_agree_with_the_oracle() {
    let ds = dataset(5_000, 6);
    let oracle = SaeSystem::build_in_memory(&ds, ALG).unwrap();
    let (engine, _dir) = build_engine(&ds, 4, Some(256));
    let queries = QueryMix::spanning(DOMAIN, 0.005, 4)
        .workload(40, 13)
        .queries;
    let report = engine.serve_batch(&queries, 4);
    assert_eq!(report.queries, 40);
    assert!(report.all_verified, "a sharded concurrent query failed");
    let expected: u64 = queries
        .iter()
        .map(|q| oracle.query(q).unwrap().records.len() as u64)
        .sum();
    assert_eq!(report.totals.result_cardinality, expected);
    // The grouped per-party accounting spans all shards.
    assert_eq!(report.party_io.len(), 2);
    assert!(report.totals.sp_node_accesses > 0);
    assert!(report.totals.te_node_accesses > 0);
}
