//! Pieces the untraced and the traced run share: run sizes, the
//! attempted/failed tally, I/O counter totals, the write prelude, and the
//! correctness gate (oracle sample, tamper probe, kill-and-reopen read-back).

use crate::check::Oracle;
use crate::deploy::{Deployment, RECORD_SIZE};
use crate::stats::percentile_sorted;
use crate::{obj, Res};
use sae_core::{QueryService, ShardedSaeEngine};
use sae_net::ServerTamper;
use sae_storage::IoSnapshot;
use sae_workload::{RangeQuery, Record};
use serde::{Content, Serialize};
use std::time::{Duration, Instant};

/// How much work each phase of a run does.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Dataset cardinality.
    pub records: usize,
    /// Timed setups per run; `setup_s` is the fastest.
    pub setups: usize,
    /// Untimed warm-up before the measured window.
    pub warmup: Duration,
    /// Durable single-record inserts before the window, on every workload,
    /// so the write-cost counts and the footprint are taken at a point fixed
    /// by count, not by how fast the machine is.
    pub prelude_writes: usize,
    /// Acknowledged writes issued after the window and never checkpointed,
    /// so the kill-and-reopen check has a log to replay.
    pub kill_writes: usize,
    /// Queries compared against the oracle.
    pub oracle_samples: usize,
    /// Queries whose frames are sized for `wire_bytes_per_user_byte` on the
    /// in-process workloads.
    pub wire_samples: usize,
    /// Pre-generated queries; the window cycles through them.
    pub query_pool: usize,
    /// Pre-generated write records per second of `durable_mix` window.
    pub mix_writes_per_second: usize,
    /// Traced run: point-sized queries per pass.
    pub traced_point_queries: usize,
    /// Traced run: wide or scan queries per pass.
    pub traced_wide_queries: usize,
    /// Traced run: durable writes per pass.
    pub traced_writes: usize,
}

impl Sizes {
    /// The fixed shape of a real run.
    pub fn full() -> Sizes {
        Sizes {
            records: 100_000,
            setups: 5,
            warmup: Duration::from_secs(5),
            prelude_writes: 1_000,
            kill_writes: 64,
            oracle_samples: 200,
            wire_samples: 2_048,
            query_pool: 1 << 20,
            mix_writes_per_second: 10_000,
            traced_point_queries: 2_000,
            traced_wide_queries: 300,
            traced_writes: 2_000,
        }
    }

    /// A run small enough for `cargo test` in a debug build. Same phases,
    /// same gates; the numbers it prints mean nothing.
    pub fn smoke() -> Sizes {
        Sizes {
            records: 10_000,
            setups: 1,
            warmup: Duration::from_millis(200),
            prelude_writes: 120,
            kill_writes: 8,
            oracle_samples: 40,
            wire_samples: 64,
            query_pool: 1 << 14,
            mix_writes_per_second: 4_000,
            traced_point_queries: 100,
            traced_wide_queries: 20,
            traced_writes: 300,
        }
    }
}

/// Operations attempted and failed. A query whose verdict is not `Ok`, any
/// endpoint error, any write error and any oracle mismatch is a failure.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Folds a batch in.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// The storage layer's counters summed over shards, per party.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoTotals {
    /// Service-provider stores (heap + B⁺-Tree pages, and the shard's WAL).
    pub sp: IoSnapshot,
    /// Trusted-entity stores (XB-Tree pages).
    pub te: IoSnapshot,
}

impl IoTotals {
    /// Current totals of `engine`.
    pub fn of(engine: &ShardedSaeEngine) -> IoTotals {
        let mut totals = IoTotals::default();
        for (party, stats) in engine.party_stats() {
            let snap = stats.snapshot();
            match party {
                "sp" => totals.sp.accumulate(&snap),
                _ => totals.te.accumulate(&snap),
            }
        }
        totals
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &IoTotals) -> IoTotals {
        IoTotals {
            sp: self.sp.delta_since(&earlier.sp),
            te: self.te.delta_since(&earlier.te),
        }
    }

    /// Every fsync/fdatasync the storage layer counted: the log barriers and
    /// the page-file barriers of both parties. (The manifest's own
    /// temp-file fsync + rename is not counted by the library.)
    pub fn syncs(&self) -> u64 {
        self.sp.syncs + self.te.syncs
    }

    /// Checkpoints completed: each ends with exactly one barrier on the
    /// trusted entity's page file, which nothing else syncs.
    pub fn checkpoints(&self) -> u64 {
        self.te.syncs
    }

    /// Barriers paid by checkpoints rather than by acknowledgements.
    pub fn checkpoint_syncs(&self) -> u64 {
        self.syncs() - self.sp.wal_syncs
    }
}

/// p50 / p95 / p99 / count of a latency sample, in µs, for the report.
pub fn latency_json(lat_ns: &mut [u64]) -> Content {
    lat_ns.sort_unstable();
    let us = |p: f64| {
        percentile_sorted(lat_ns, p)
            .map(|v| v as f64 / 1e3)
            .to_content()
    };
    obj([
        ("samples", lat_ns.len().to_content()),
        ("p50_us", us(50.0)),
        ("p95_us", us(95.0)),
        ("p99_us", us(99.0)),
    ])
}

/// What a batch of durable single-record inserts cost.
pub struct WriteBatch {
    /// Per-write acknowledged latency, ns.
    pub lat_ns: Vec<u64>,
    /// Storage counters the batch moved.
    pub io: IoTotals,
}

/// Inserts `records` one at a time, each acknowledged durable before the
/// next, timing every write and applying it to the oracle.
pub fn durable_inserts(
    engine: &ShardedSaeEngine,
    records: &[Record],
    oracle: &mut Oracle,
    tally: &mut Tally,
) -> WriteBatch {
    let mut lat_ns = Vec::with_capacity(records.len());
    let before = IoTotals::of(engine);
    for record in records {
        let started = Instant::now();
        let result = engine.insert(record);
        lat_ns.push(started.elapsed().as_nanos() as u64);
        tally.record(result.is_ok());
        if result.is_ok() {
            oracle.insert(record);
        }
    }
    WriteBatch {
        lat_ns,
        io: IoTotals::of(engine).since(&before),
    }
}

/// Compares `samples` answers with the oracle: half drawn at a fixed stride
/// from the workload's own queries, half point lookups of written keys.
pub fn oracle_sample(
    dep: &mut Deployment,
    oracle: &Oracle,
    queries: &[RangeQuery],
    written: &[&Record],
    samples: usize,
    tally: &mut Tally,
) -> Res<u64> {
    let from_pool = samples / 2;
    let stride = (queries.len() / from_pool.max(1)).max(1);
    let pool = queries.iter().step_by(stride).take(from_pool).copied();
    let stride = (written.len() / (samples - from_pool).max(1)).max(1);
    let keys = written
        .iter()
        .step_by(stride)
        .take(samples - from_pool)
        .map(|r| RangeQuery::new(r.key, r.key));
    let mut mismatches = 0;
    for q in pool.chain(keys) {
        let answer = dep.ask(&q)?;
        let ok = answer.ok && oracle.matches(&q, &answer.slices);
        mismatches += u64::from(!ok);
        tally.record(ok);
    }
    Ok(mismatches)
}

/// Through a fresh client (so no demotion can touch the measured one): with
/// every server flipping one record byte, a query that returns records must
/// come back with an `Err` verdict. Returns whether it did.
pub fn tamper_probe(dep: &Deployment, oracle: &Oracle, queries: &[RangeQuery]) -> Res<bool> {
    let Some(q) = queries.iter().find(|q| !oracle.expected(q).is_empty()) else {
        return Err("no query with a non-empty answer to probe with".into());
    };
    let mut probe = dep.fresh_client()?;
    for server in &dep.servers {
        server.set_tamper(Some(ServerTamper::FlipRecordByte));
    }
    let outcome = probe.query(q);
    for server in &dep.servers {
        server.set_tamper(None);
    }
    Ok(outcome.verdict.is_err())
}

/// Reads every written key back from the reopened engine: each answer must
/// verify and hold exactly what the oracle says survives (inserted and not
/// deleted since). Returns how many read-backs disagreed.
pub fn read_back(
    reopened: &ShardedSaeEngine,
    oracle: &Oracle,
    written: &[&Record],
    tally: &mut Tally,
) -> Res<u64> {
    let mut lost = 0;
    for record in written {
        let q = RangeQuery::new(record.key, record.key);
        let outcome = reopened.query(&q)?;
        let ok = outcome.verdict.is_ok() && oracle.matches(&q, &outcome.slices);
        lost += u64::from(!ok);
        tally.record(ok);
    }
    Ok(lost)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Bytes of user data `records` records hold.
pub fn user_bytes(records: usize) -> f64 {
    (records * RECORD_SIZE) as f64
}
