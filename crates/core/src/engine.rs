//! Serving a batch of queries from many threads at once.
//!
//! The concurrent engine is [`crate::ShardedSaeEngine`]: with `n = 1` it is
//! the paper's single SP/TE pair, each party behind its own `RwLock`
//! (queries share the read locks, data-owner updates take both write locks,
//! always SP before TE, and therefore appear atomic to every reader).
//! [`serve_batch`] fans a fixed workload of any [`QueryService`] out over N
//! worker threads and aggregates per-thread [`QueryMetrics`] and wall-clock
//! latencies into a [`ThroughputReport`] (p50/p95/p99 latency, queries per
//! second).
//!
//! ## Cost accounting under concurrency
//!
//! The shared [`IoStats`] counters are atomic, but a *per-query* delta of a
//! shared counter is meaningless while other threads are mid-query — the
//! window would absorb their accesses too. [`serve_batch`] therefore
//! accounts node accesses at batch granularity: counters are snapshotted
//! before the workers start and after they all join (both quiescent points),
//! which makes the totals in [`ThroughputReport::party_io`] exact. Per-query fields that are
//! attributable to one thread (cardinality, verification outcome and time)
//! are aggregated per worker as usual.

use crate::metrics::{LatencySummary, QueryMetrics};
use sae_storage::{CostModel, IoSnapshot, IoStats, StorageResult};
use sae_workload::RangeQuery;
use std::sync::Arc;
use std::time::Instant;

/// Anything that can execute one authenticated query end to end, safely from
/// many threads at once.
pub trait QueryService: Send + Sync {
    /// Executes one query (SP result, authentication payload, client
    /// verification) and returns its per-query metrics. Node-access and
    /// charged-time fields are zero — under concurrency they are only
    /// attributable at batch granularity (see the module docs).
    fn execute(&self, q: &RangeQuery) -> StorageResult<QueryMetrics>;

    /// The I/O counters of each party's store, labelled. The first entry is
    /// taken as the SP, the second (if any) as the TE when filling the batch
    /// totals of a [`ThroughputReport`].
    fn party_stats(&self) -> Vec<(&'static str, Arc<IoStats>)>;

    /// The cost model used to convert batch node accesses into charged time.
    fn cost_model(&self) -> CostModel {
        CostModel::paper()
    }
}

/// Node accesses one party performed during a batch (exact: snapshotted at
/// quiescent points only).
#[derive(Clone, Copy, Debug)]
pub struct PartyIo {
    /// Which party ("sp", "te").
    pub party: &'static str,
    /// Counter delta over the batch.
    pub delta: IoSnapshot,
}

/// What a concurrent batch run produced.
#[derive(Clone, Debug)]
#[must_use = "a throughput report carries the run's verification verdict, which must be checked"]
pub struct ThroughputReport {
    /// Worker threads used.
    pub threads: usize,
    /// Total queries served.
    pub queries: u64,
    /// Queries that returned a storage error (not counted as verified).
    pub failed: u64,
    /// Whether every served query passed client verification.
    pub all_verified: bool,
    /// Wall-clock duration of the whole batch in milliseconds.
    pub wall_ms: f64,
    /// Aggregate throughput: `queries / wall_ms`, in queries per second.
    pub queries_per_sec: f64,
    /// Merged latency distribution over all workers.
    pub latency: LatencySummary,
    /// Summed per-query metrics; node-access and charged fields are filled
    /// from the exact batch deltas in [`ThroughputReport::party_io`].
    pub totals: QueryMetrics,
    /// Exact per-party node-access deltas for the batch.
    pub party_io: Vec<PartyIo>,
}

struct WorkerOutcome {
    latencies: Vec<f64>,
    totals: QueryMetrics,
    failed: u64,
}

/// Runs one worker's `queries` back to back, timing each one.
fn run_worker<S: QueryService + ?Sized>(service: &S, queries: &[RangeQuery]) -> WorkerOutcome {
    let mut latencies = Vec::with_capacity(queries.len());
    let mut totals = QueryMetrics {
        verified: true,
        ..Default::default()
    };
    let mut failed = 0u64;
    for q in queries {
        let start = Instant::now();
        match service.execute(q) {
            Ok(metrics) => totals.accumulate(&metrics),
            Err(_) => {
                failed += 1;
                totals.verified = false;
            }
        }
        latencies.push(start.elapsed().as_secs_f64() * 1000.0);
    }
    WorkerOutcome {
        latencies,
        totals,
        failed,
    }
}

/// Serves a fixed batch of queries over `threads` workers (queries are
/// dealt round-robin; zero is clamped to one): snapshot the party counters
/// at a quiescent point, run each worker's share on its own scoped thread,
/// join, and aggregate into a [`ThroughputReport`].
pub fn serve_batch<S: QueryService + ?Sized>(
    service: &S,
    queries: &[RangeQuery],
    threads: usize,
) -> ThroughputReport {
    let threads = threads.max(1);
    let assignments: Vec<Vec<RangeQuery>> = (0..threads)
        .map(|t| queries.iter().skip(t).step_by(threads).copied().collect())
        .collect();
    let before: Vec<(&'static str, IoSnapshot)> = service
        .party_stats()
        .iter()
        .map(|(party, stats)| (*party, stats.snapshot()))
        .collect();

    let start = Instant::now();
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = assignments
            .iter()
            .map(|chunk| scope.spawn(move || run_worker(service, chunk)))
            .collect();
        handles
            .into_iter()
            // analyzer:allow(no-unwrap-in-lib, join only fails if a worker panicked; re-raising that panic is the correct propagation)
            .map(|h| h.join().expect("engine worker panicked"))
            .collect()
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;

    let mut totals = QueryMetrics {
        verified: true,
        ..Default::default()
    };
    let mut failed = 0u64;
    let mut all_latencies = Vec::new();
    for outcome in outcomes {
        totals.accumulate(&outcome.totals);
        failed += outcome.failed;
        all_latencies.extend(outcome.latencies);
    }

    // Group the per-store deltas by party label: a sharded service reports one
    // "sp"/"te" pair per shard, and the batch totals are the per-party sums.
    let mut party_io: Vec<PartyIo> = Vec::new();
    for ((party, stats), (_, earlier)) in service.party_stats().iter().zip(&before) {
        let delta = stats.snapshot().delta_since(earlier);
        match party_io.iter_mut().find(|p| p.party == *party) {
            Some(p) => p.delta.accumulate(&delta),
            None => party_io.push(PartyIo { party, delta }),
        }
    }
    let cost = service.cost_model();
    if let Some(sp) = party_io.iter().find(|p| p.party == "sp") {
        totals.sp_node_accesses = sp.delta.node_accesses();
        totals.sp_charged_ms = cost.charge_ms(&sp.delta);
    }
    if let Some(te) = party_io.iter().find(|p| p.party == "te") {
        totals.te_node_accesses = te.delta.node_accesses();
        totals.te_charged_ms = cost.charge_ms(&te.delta);
    }

    let served = all_latencies.len() as u64;
    ThroughputReport {
        threads,
        queries: served,
        failed,
        all_verified: failed == 0 && totals.verified,
        wall_ms,
        queries_per_sec: if wall_ms > 0.0 {
            served as f64 * 1000.0 / wall_ms
        } else {
            0.0
        },
        latency: LatencySummary::from_samples(&mut all_latencies),
        totals,
        party_io,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sae::SaeSystem;
    use crate::sharded::ShardedSaeEngine;
    use sae_crypto::HashAlgorithm;
    use sae_workload::{Dataset, DatasetSpec, KeyDistribution, QueryMix, Record};

    fn dataset(n: usize) -> Dataset {
        DatasetSpec {
            cardinality: n,
            distribution: KeyDistribution::Uniform { domain: 100_000 },
            record_size: 120,
            seed: 5,
        }
        .generate()
    }

    /// The paper's single SP/TE pair as a concurrent engine.
    fn single_pair(ds: &Dataset) -> ShardedSaeEngine {
        ShardedSaeEngine::build_in_memory(ds, HashAlgorithm::Sha1, 1).unwrap()
    }

    #[test]
    fn engines_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedSaeEngine>();
    }

    #[test]
    fn concurrent_batches_verify_and_count_everything() {
        let ds = dataset(4_000);
        let engine = single_pair(&ds);
        let queries = QueryMix::uniform(100_000, 0.01).workload(64, 3).queries;
        let report = engine.serve_batch(&queries, 4);
        assert_eq!(report.queries, 64);
        assert_eq!(report.failed, 0);
        assert!(report.all_verified);
        assert_eq!(report.threads, 4);
        assert!(report.queries_per_sec > 0.0);
        assert!(report.latency.p50_ms <= report.latency.p99_ms);
        // Batch-level accounting is exact and non-trivial.
        assert_eq!(report.party_io.len(), 2);
        assert!(report.totals.sp_node_accesses > 0);
        assert!(report.totals.te_node_accesses > 0);
        assert!(report.totals.sp_node_accesses > report.totals.te_node_accesses);
        // The result cardinalities match the single-threaded oracle.
        let expected: u64 = queries.iter().map(|q| ds.query_cardinality(q) as u64).sum();
        assert_eq!(report.totals.result_cardinality, expected);
    }

    #[test]
    fn concurrent_results_match_the_sequential_system() {
        let ds = dataset(2_000);
        let system = SaeSystem::build_in_memory(&ds, HashAlgorithm::Sha1).unwrap();
        let engine = single_pair(&ds);
        for q in QueryMix::uniform(100_000, 0.02).workload(10, 9).iter() {
            let sequential = system.query(q).unwrap();
            let concurrent = engine.execute(q).unwrap();
            assert!(concurrent.verified);
            assert_eq!(
                concurrent.result_cardinality,
                sequential.metrics.result_cardinality
            );
        }
    }

    #[test]
    fn cached_engine_serves_identical_results_with_buffer_pool_hits() {
        let ds = dataset(3_000);
        let plain = single_pair(&ds);
        let cached = ShardedSaeEngine::build_cached(&ds, HashAlgorithm::Sha1, 1, 256).unwrap();
        let queries = QueryMix::zipf(100_000, 0.01, 0.8).workload(40, 17).queries;

        let a = plain.serve_batch(&queries, 2);
        let b = cached.serve_batch(&queries, 2);
        assert!(a.all_verified && b.all_verified);
        assert_eq!(a.totals.result_cardinality, b.totals.result_cardinality);
        // Logical accounting is preserved by the cache...
        assert_eq!(
            a.totals.sp_node_accesses + a.totals.te_node_accesses,
            b.totals.sp_node_accesses + b.totals.te_node_accesses
        );
        // ...while repeated traversals hit the pool under both parties.
        for party in &b.party_io {
            assert!(party.delta.cache_hits > 0, "{party:?}");
        }
    }

    #[test]
    fn updates_are_atomic_under_concurrent_queries() {
        let ds = dataset(2_000);
        let engine = single_pair(&ds);
        let stop = std::sync::atomic::AtomicBool::new(false);

        std::thread::scope(|scope| {
            // A writer inserting and deleting fresh records in a loop.
            scope.spawn(|| {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let r = Record::with_size(5_000_000 + i, (i % 100_000) as u32, 120);
                    engine.insert(&r).unwrap();
                    assert!(engine.delete(r.id, r.key).unwrap());
                    i += 1;
                }
            });
            // Readers must see every query verify: a torn update (SP ahead of
            // TE or vice versa) would surface as a verification failure.
            let queries = QueryMix::uniform(100_000, 0.01).workload(120, 41).queries;
            let report = engine.serve_batch(&queries, 3);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            assert_eq!(report.failed, 0);
            assert!(
                report.all_verified,
                "a concurrent update tore a query's view"
            );
        });
    }
}
