//! The thread-pooled drivers that serve many clients at once.
//!
//! The concurrent engine is [`ShardedSaeEngine`]: with `n = 1` it is the
//! paper's single SP/TE pair, each party behind its own `RwLock` (queries
//! share the read locks, data-owner updates take both write locks, always
//! SP before TE, and therefore appear atomic to every reader). This module
//! drives any [`QueryService`] from a pool of worker threads:
//!
//! * [`serve_batch`] fans a fixed workload out over N worker threads;
//! * [`serve_mix`] runs a closed loop in which every worker plays one client
//!   replaying its own deterministic [`QueryMix`] stream;
//! * [`serve_ops`] mixes queries with data-owner writes against a
//!   [`ShardedSaeEngine`].
//!
//! All three aggregate per-thread [`QueryMetrics`] and wall-clock latencies
//! into a [`ThroughputReport`] (p50/p95/p99 latency, queries per second).
//!
//! ## Cost accounting under concurrency
//!
//! The shared [`IoStats`] counters are atomic, but a *per-query* delta of a
//! shared counter is meaningless while other threads are mid-query — the
//! window would absorb their accesses too. The drivers therefore account node
//! accesses at batch granularity: counters are snapshotted before the workers
//! start and after they all join (both quiescent points), which makes the
//! totals in [`ThroughputReport::party_io`] exact. Per-query fields that are
//! attributable to one thread (cardinality, verification outcome and time)
//! are aggregated per worker as usual.
//!
//! Because the cost model *charges* rather than performs I/O, a batch served
//! purely from memory would overlap nothing; [`ServeOptions::io_micros_per_query`]
//! injects the charged latency as real sleep — outside every lock — so
//! thread-scaling measurements reflect how the engine overlaps I/O stalls,
//! exactly what the paper's 10 ms/node-access model simulates.

use crate::metrics::{LatencySummary, QueryMetrics};
use crate::sharded::ShardedSaeEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sae_storage::{CostModel, IoSnapshot, IoStats, StorageResult};
use sae_workload::{QueryMix, RangeQuery, Record};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Options for the concurrent drivers.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Number of worker threads (clients served concurrently). Zero is
    /// clamped to one.
    pub threads: usize,
    /// Simulated per-query I/O latency in microseconds, slept outside all
    /// locks. The cost model only *charges* for node accesses; this turns the
    /// charge into real, overlappable latency so closed-loop throughput
    /// behaves like a deployment that actually waits for its disks and
    /// network. Zero disables the sleep.
    pub io_micros_per_query: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            io_micros_per_query: 0,
        }
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

/// Per-worker view of a batch.
#[derive(Clone, Debug)]
pub struct ThreadReport {
    /// Worker index (0-based).
    pub thread: usize,
    /// Queries this worker served.
    pub queries: u64,
    /// Latency distribution of this worker's queries.
    pub latency: LatencySummary,
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
    /// Per-worker breakdowns.
    pub per_thread: Vec<ThreadReport>,
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

fn run_worker<S: QueryService + ?Sized>(
    service: &S,
    queries: &[RangeQuery],
    io_sleep: Duration,
) -> WorkerOutcome {
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
        if !io_sleep.is_zero() {
            std::thread::sleep(io_sleep);
        }
        latencies.push(start.elapsed().as_secs_f64() * 1000.0);
    }
    WorkerOutcome {
        latencies,
        totals,
        failed,
    }
}

/// One operation of a mixed read/write client stream (see [`serve_ops`]).
#[derive(Clone, Debug)]
pub enum MixOp {
    /// An authenticated range query, executed through [`QueryService`].
    Query(RangeQuery),
    /// A data-owner write: the record is inserted and then deleted again
    /// through [`ShardedSaeEngine::apply_update`], so the dataset's cardinality
    /// is unchanged after the batch.
    Update(Record),
}

/// The first `count` operations of `client`'s deterministic mixed stream:
/// each op is a write with probability `write_fraction`, otherwise a query
/// drawn from `mix`. Written records use `record_size`-byte encodings, keys
/// sampled from the mix's placement distribution, and ids disjoint from any
/// dataset generated by [`sae_workload::DatasetSpec`].
pub fn client_ops(
    mix: &QueryMix,
    write_fraction: f64,
    record_size: usize,
    base_seed: u64,
    client: u64,
    count: usize,
) -> Vec<MixOp> {
    let mut coin = StdRng::seed_from_u64(QueryMix::client_seed(base_seed ^ 0x0905, client));
    let mut queries = mix.stream(QueryMix::client_seed(base_seed, client));
    (0..count)
        .map(|i| {
            if coin.gen::<f64>() < write_fraction {
                let key = mix.placement.sample(&mut coin);
                let id = (1u64 << 42) | (client << 24) | i as u64;
                MixOp::Update(Record::with_size(id, key, record_size))
            } else {
                // analyzer:allow(no-unwrap-in-lib, QueryMix::stream is an infinite generator; next() never returns None)
                MixOp::Query(queries.next().expect("query streams are infinite"))
            }
        })
        .collect()
}

fn run_ops_worker(service: &ShardedSaeEngine, ops: &[MixOp], io_sleep: Duration) -> WorkerOutcome {
    let mut latencies = Vec::with_capacity(ops.len());
    let mut totals = QueryMetrics {
        verified: true,
        ..Default::default()
    };
    let mut failed = 0u64;
    for op in ops {
        let start = Instant::now();
        match op {
            MixOp::Query(q) => {
                match service.execute(q) {
                    Ok(metrics) => totals.accumulate(&metrics),
                    Err(_) => {
                        failed += 1;
                        totals.verified = false;
                    }
                }
                // Queries pay no simulated latency here: the hot index pages
                // are buffer-pooled, and read I/O overlaps freely anyway. The
                // discriminating resource of a read/write mix is the write
                // hold below.
            }
            MixOp::Update(record) => {
                // Write I/O is *not* overlappable within a key range: the
                // sleep happens inside the write critical section (see
                // ShardedSaeEngine::apply_update), modelling the durable write
                // a real deployment performs while the key range is locked.
                if service.apply_update(record, io_sleep).is_err() {
                    failed += 1;
                    totals.verified = false;
                }
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

/// The shared concurrent scaffold of every driver: snapshot the party
/// counters at a quiescent point, fan `assignments` out over one scoped
/// thread per entry, join, and aggregate into a [`ThroughputReport`].
fn drive<S, T, F>(service: &S, assignments: Vec<Vec<T>>, worker: F) -> ThroughputReport
where
    S: QueryService + ?Sized,
    T: Send + Sync,
    F: Fn(&S, &[T]) -> WorkerOutcome + Send + Sync,
{
    let threads = assignments.len();
    let before: Vec<(&'static str, IoSnapshot)> = service
        .party_stats()
        .iter()
        .map(|(party, stats)| (*party, stats.snapshot()))
        .collect();

    let start = Instant::now();
    let worker = &worker;
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = assignments
            .iter()
            .map(|chunk| scope.spawn(move || worker(service, chunk)))
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
    let mut per_thread = Vec::with_capacity(outcomes.len());
    for (idx, mut outcome) in outcomes.into_iter().enumerate() {
        totals.accumulate(&outcome.totals);
        failed += outcome.failed;
        per_thread.push(ThreadReport {
            thread: idx,
            queries: outcome.latencies.len() as u64,
            latency: LatencySummary::from_samples(&mut outcome.latencies),
        });
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

    let queries = all_latencies.len() as u64;
    ThroughputReport {
        threads,
        queries,
        failed,
        all_verified: failed == 0 && totals.verified,
        wall_ms,
        queries_per_sec: if wall_ms > 0.0 {
            queries as f64 * 1000.0 / wall_ms
        } else {
            0.0
        },
        latency: LatencySummary::from_samples(&mut all_latencies),
        per_thread,
        totals,
        party_io,
    }
}

/// Serves a fixed batch of queries over `opts.threads` workers (queries are
/// dealt round-robin) and aggregates the outcome.
pub fn serve_batch<S: QueryService + ?Sized>(
    service: &S,
    queries: &[RangeQuery],
    opts: &ServeOptions,
) -> ThroughputReport {
    let threads = opts.threads.max(1);
    let io_sleep = Duration::from_micros(opts.io_micros_per_query);
    let assignments: Vec<Vec<RangeQuery>> = (0..threads)
        .map(|t| queries.iter().skip(t).step_by(threads).copied().collect())
        .collect();
    drive(service, assignments, |service, chunk| {
        run_worker(service, chunk, io_sleep)
    })
}

/// Closed-loop driver: every worker plays one client that draws
/// `queries_per_client` queries from its own deterministic [`QueryMix`]
/// stream (see [`QueryMix::client_seed`]) and issues them back to back.
pub fn serve_mix<S: QueryService + ?Sized>(
    service: &S,
    mix: &QueryMix,
    queries_per_client: usize,
    seed: u64,
    opts: &ServeOptions,
) -> ThroughputReport {
    let threads = opts.threads.max(1);
    let io_sleep = Duration::from_micros(opts.io_micros_per_query);
    let assignments: Vec<Vec<RangeQuery>> = (0..threads as u64)
        .map(|client| mix.client_queries(seed, client, queries_per_client))
        .collect();
    drive(service, assignments, |service, chunk| {
        run_worker(service, chunk, io_sleep)
    })
}

/// Closed-loop mixed read/write driver: every worker plays one client
/// replaying its own deterministic [`client_ops`] stream — queries through
/// [`QueryService::execute`], writes through
/// [`ShardedSaeEngine::apply_update`]. `ThroughputReport::queries` counts
/// *operations* here, and `opts.io_micros_per_query` is the per-*write* I/O
/// hold, slept inside the write critical section; queries run at memory
/// speed (their I/O is buffer-pooled and overlappable, so it is not what a
/// read/write mix contends on).
pub fn serve_ops(
    service: &ShardedSaeEngine,
    mix: &QueryMix,
    write_fraction: f64,
    record_size: usize,
    ops_per_client: usize,
    seed: u64,
    opts: &ServeOptions,
) -> ThroughputReport {
    let threads = opts.threads.max(1);
    let io_sleep = Duration::from_micros(opts.io_micros_per_query);
    let assignments: Vec<Vec<MixOp>> = (0..threads as u64)
        .map(|client| {
            client_ops(
                mix,
                write_fraction,
                record_size,
                seed,
                client,
                ops_per_client,
            )
        })
        .collect();
    drive(service, assignments, |service, chunk| {
        run_ops_worker(service, chunk, io_sleep)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sae::SaeSystem;
    use sae_crypto::HashAlgorithm;
    use sae_workload::{Dataset, DatasetSpec, KeyDistribution};

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

    fn opts(threads: usize) -> ServeOptions {
        ServeOptions {
            threads,
            io_micros_per_query: 0,
        }
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
        let report = engine.serve_batch(&queries, &opts(4));
        assert_eq!(report.queries, 64);
        assert_eq!(report.failed, 0);
        assert!(report.all_verified);
        assert_eq!(report.threads, 4);
        assert_eq!(report.per_thread.len(), 4);
        assert_eq!(report.per_thread.iter().map(|t| t.queries).sum::<u64>(), 64);
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

        let a = plain.serve_batch(&queries, &opts(2));
        let b = cached.serve_batch(&queries, &opts(2));
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
    fn closed_loop_mix_driver_runs_distinct_client_streams() {
        let ds = dataset(2_000);
        let engine = ShardedSaeEngine::build_cached(&ds, HashAlgorithm::Sha1, 1, 128).unwrap();
        let mix = QueryMix::uniform(100_000, 0.005);
        let report = engine.serve_mix(&mix, 12, 77, &opts(3));
        assert_eq!(report.queries, 36);
        assert!(report.all_verified);
        // Each client replayed its own stream deterministically.
        let again = engine.serve_mix(&mix, 12, 77, &opts(3));
        assert_eq!(
            report.totals.result_cardinality,
            again.totals.result_cardinality
        );
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
            let report = engine.serve_batch(&queries, &opts(3));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            assert_eq!(report.failed, 0);
            assert!(
                report.all_verified,
                "a concurrent update tore a query's view"
            );
        });
    }

    #[test]
    fn simulated_io_latency_is_overlapped_by_threads() {
        let ds = dataset(800);
        let engine = single_pair(&ds);
        let queries = QueryMix::uniform(100_000, 0.002).workload(48, 23).queries;
        let serve = |threads: usize| {
            engine
                .serve_batch(
                    &queries,
                    &ServeOptions {
                        threads,
                        io_micros_per_query: 1_000,
                    },
                )
                .queries_per_sec
        };
        let one = serve(1);
        let four = serve(4);
        assert!(
            four > 1.5 * one,
            "4-thread qps {four:.0} did not scale over 1-thread qps {one:.0}"
        );
    }
}
