//! Concurrent scatter-gather behavior over real TCP, proven by latches
//! rather than by timing: the fan-out has every shard's `QUERY` in flight
//! before any is answered, a true hedged read wins from a sibling while its
//! first replica is parked, and byzantine failover holds under concurrent
//! dispatch — all verified with the same [`sae_core::verify_slices`] as
//! everything else.
//!
//! The latches live in a test-side [`SliceSource`] served through
//! [`ShardServer::spawn_source`]. Every wait on them has a deadline, so a
//! client that stops overlapping its requests fails these tests with a
//! typed verdict instead of hanging them.

use sae_core::{ShardSlice, ShardedSaeEngine};
use sae_crypto::HashAlgorithm;
use sae_net::{
    NetClient, NetClientConfig, ServerTamper, ShardServer, ShardServerConfig, SliceSource, Topology,
};
use sae_storage::{StorageError, StorageResult};
use sae_workload::{DatasetSpec, KeyDistribution, RangeQuery};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const DOMAIN: u32 = 100_000;
const CARDINALITY: usize = 400;

/// How long a parked request waits for its latch. Only a broken client ever
/// reaches it; a correct one opens every latch at once.
const PATIENCE: Duration = Duration::from_secs(10);

fn engine(shards: usize) -> Arc<ShardedSaeEngine> {
    let dataset = DatasetSpec {
        cardinality: CARDINALITY,
        distribution: KeyDistribution::Uniform { domain: DOMAIN },
        record_size: 64,
        seed: 42,
    }
    .generate();
    Arc::new(ShardedSaeEngine::build_in_memory(&dataset, HashAlgorithm::Sha1, shards).unwrap())
}

/// A one-shot latch: it opens once `parties` requests have arrived, or when
/// the test opens it. A request that waits past [`PATIENCE`] breaks it, and
/// every later arrival then fails at once instead of waiting again.
struct Latch {
    parties: usize,
    state: Mutex<LatchState>,
    cv: Condvar,
}

#[derive(Default)]
struct LatchState {
    arrived: usize,
    open: bool,
    broken: bool,
}

impl Latch {
    fn new(parties: usize) -> Arc<Latch> {
        Arc::new(Latch {
            parties,
            state: Mutex::new(LatchState::default()),
            cv: Condvar::new(),
        })
    }

    /// Counts one arrival and parks until the latch opens. `false` means it
    /// broke instead: this wait, or an earlier one, ran out of patience.
    fn arrive(&self) -> bool {
        let deadline = Instant::now() + PATIENCE;
        let mut st = self.state.lock().unwrap();
        st.arrived += 1;
        if st.arrived >= self.parties && !st.broken {
            st.open = true;
            self.cv.notify_all();
        }
        while !st.open && !st.broken {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                st.broken = true;
                self.cv.notify_all();
                break;
            };
            st = self.cv.wait_timeout(st, left).unwrap().0;
        }
        st.open
    }

    /// Opens the latch for every parked and every later request.
    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }

    fn arrived(&self) -> usize {
        self.state.lock().unwrap().arrived
    }
}

/// Serves `engine`'s slices, parking every query on `latch` first. A broken
/// latch is a failed query, which the server answers with a typed error.
struct Parked {
    engine: Arc<ShardedSaeEngine>,
    latch: Arc<Latch>,
}

impl SliceSource for Parked {
    fn source_slice(
        &self,
        shard: usize,
        sub: &RangeQuery,
    ) -> StorageResult<Option<(ShardSlice, u64)>> {
        if !self.latch.arrive() {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "the latch broke: it did not open before its deadline",
            )));
        }
        self.engine.source_slice(shard, sub)
    }

    fn served_epoch(&self, shard: usize) -> Option<u64> {
        self.engine.served_epoch(shard)
    }

    fn export_snapshot(&self, shard: usize) -> StorageResult<Vec<u8>> {
        self.engine.export_snapshot(shard)
    }

    fn export_tail(&self, shard: usize, from_epoch: u64) -> StorageResult<Vec<u8>> {
        self.engine.export_tail(shard, from_epoch)
    }
}

fn spawn_parked(engine: &Arc<ShardedSaeEngine>, latch: &Arc<Latch>, shard: usize) -> ShardServer {
    let source = Parked {
        engine: Arc::clone(engine),
        latch: Arc::clone(latch),
    };
    ShardServer::spawn_source(
        Arc::new(source),
        vec![shard],
        "127.0.0.1:0",
        ShardServerConfig::default(),
    )
    .unwrap()
}

/// Client settings whose read timeout outlasts every latch, so a parked
/// request ends on the server's typed error, never on a client timeout.
fn patient() -> NetClientConfig {
    NetClientConfig {
        read_timeout: 3 * PATIENCE,
        ..NetClientConfig::default()
    }
}

fn client_with(engine: &ShardedSaeEngine, topology: Topology, cfg: NetClientConfig) -> NetClient {
    NetClient::for_engine_topology(engine, topology, cfg).unwrap()
}

#[test]
fn every_shard_query_is_in_flight_before_any_is_answered() {
    let engine = engine(4);
    // Each of the 4 shard servers parks its QUERY until all 4 have arrived:
    // a client that reads one answer before sending the next request never
    // gets one.
    let latch = Latch::new(engine.shard_count());
    let servers: Vec<ShardServer> = (0..engine.shard_count())
        .map(|shard| spawn_parked(&engine, &latch, shard))
        .collect();
    let endpoints = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let mut client = client_with(&engine, Topology::single(endpoints), patient());

    let outcome = client.query(&RangeQuery::new(0, DOMAIN));
    latch.open();
    assert_eq!(outcome.verdict, Ok(()), "{:?}", outcome.endpoint_errors);
    assert_eq!(outcome.record_count(), CARDINALITY);
    assert!(
        outcome.endpoint_errors.is_empty(),
        "{:?}",
        outcome.endpoint_errors
    );
    assert_eq!(latch.arrived(), engine.shard_count());
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn a_hedged_read_races_a_slow_replica_and_the_loser_connection_survives() {
    let engine = engine(1);
    // Opens only when the test releases it.
    let latch = Latch::new(usize::MAX);
    let parked = spawn_parked(&engine, &latch, 0);
    let sibling = ShardServer::spawn(
        Arc::clone(&engine),
        vec![0],
        "127.0.0.1:0",
        ShardServerConfig::default(),
    )
    .unwrap();
    let topology = Topology::replicated(vec![vec![
        parked.local_addr().to_string(),
        sibling.local_addr().to_string(),
    ]])
    .unwrap();
    let mut client = client_with(
        &engine,
        topology,
        NetClientConfig {
            hedge_timeout: Some(Duration::from_millis(20)),
            ..patient()
        },
    );
    let full = RangeQuery::new(0, DOMAIN);

    // The round-robin cursor starts at the parked replica. Its leg cannot
    // answer, so the hedge window expires, the sibling is raced, and the
    // sibling's verified slice wins.
    let outcome = client.query(&full);
    latch.open();
    assert_eq!(outcome.verdict, Ok(()), "{:?}", outcome.endpoint_errors);
    assert_eq!(outcome.record_count(), CARDINALITY);
    let counters = (outcome.hedges, outcome.failovers, &outcome.endpoint_errors);
    assert!(
        outcome.hedges >= 1,
        "(hedges, failovers, errors) {counters:?}"
    );
    assert_eq!(
        outcome.failovers, 0,
        "(hedges, failovers, errors) {counters:?}"
    );
    // Parked is not byzantine: losing the race must not demote it.
    assert!(client.demoted().is_empty(), "{:?}", client.demoted());

    // Released, the loser's leg reads its answer and returns the connection
    // to the pool unpoisoned: a probe then finds both pooled connections
    // alive, and both replicas keep serving verifying slices.
    let deadline = Instant::now() + PATIENCE;
    let report = loop {
        let report = client.probe_health();
        if report.pooled_alive == 2 || Instant::now() >= deadline {
            break report;
        }
    };
    assert_eq!(report.pooled_alive, 2, "{report:?}");
    assert_eq!(report.pooled_dropped, 0, "{report:?}");
    assert!(client.demoted().is_empty(), "{:?}", client.demoted());
    for _ in 0..2 {
        assert_eq!(client.query(&full).verdict, Ok(()));
    }
    parked.shutdown();
    sibling.shutdown();
}

#[test]
fn byzantine_failover_holds_under_concurrent_dispatch() {
    let engine = engine(2);
    let spawn_pair = |tamper: Option<ServerTamper>| {
        let server = ShardServer::spawn(
            Arc::clone(&engine),
            vec![0, 1],
            "127.0.0.1:0",
            ShardServerConfig::default(),
        )
        .unwrap();
        server.set_tamper(tamper);
        server
    };
    let honest = spawn_pair(None);
    let byzantine = spawn_pair(Some(ServerTamper::FlipRecordByte));
    let groups: Vec<Vec<String>> = (0..2)
        .map(|_| {
            vec![
                honest.local_addr().to_string(),
                byzantine.local_addr().to_string(),
            ]
        })
        .collect();
    let mut client = client_with(
        &engine,
        Topology::replicated(groups).unwrap(),
        NetClientConfig::default(),
    );
    let full = RangeQuery::new(0, DOMAIN);

    // Both shards fetch concurrently; whenever the doctored endpoint is
    // consulted its slice fails verification, the source is demoted, and
    // the refetch wave re-issues to the honest sibling — the verdict stays
    // `Ok` on every query.
    let mut failovers = 0;
    for _ in 0..4 {
        let outcome = client.query(&full);
        assert!(outcome.verdict.is_ok(), "{:?}", outcome.verdict);
        assert_eq!(outcome.record_count(), CARDINALITY);
        failovers += outcome.failovers;
    }
    assert!(failovers > 0, "the byzantine endpoint was never consulted");
    assert_eq!(client.demoted(), vec![byzantine.local_addr().to_string()]);
    honest.shutdown();
    byzantine.shutdown();
}
