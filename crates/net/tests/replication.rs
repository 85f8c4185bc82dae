//! End-to-end replica deployments over real TCP: snapshot bootstrap,
//! WAL-tail catch-up, NOT_SYNCED refusals, and the client's failover
//! routing around byzantine and stale replicas — all without ever trusting
//! a server. Every slice, wherever it came from, faces the same
//! [`sae_core::verify_slices`] the in-process engine runs.

use sae_core::{ReplicaSet, ShardedSaeEngine};
use sae_crypto::HashAlgorithm;
use sae_net::{
    read_frame, write_frame, Message, NetClient, NetClientConfig, NetError, ReplicaServer,
    ReplicaServerConfig, ServerTamper, ShardServer, ShardServerConfig, SliceSource, Topology,
};
use sae_workload::{DatasetSpec, KeyDistribution, RangeQuery, Record};
use std::net::TcpStream;
use std::sync::Arc;

const DOMAIN: u32 = 100_000;
const CARDINALITY: usize = 400;
const RECORD_SIZE: usize = 64;

/// A durable two-shard primary in `dir`, plus its serving endpoint.
fn primary(dir: &std::path::Path, shards: usize) -> (Arc<ShardedSaeEngine>, ShardServer) {
    let dataset = DatasetSpec {
        cardinality: CARDINALITY,
        distribution: KeyDistribution::Uniform { domain: DOMAIN },
        record_size: RECORD_SIZE,
        seed: 42,
    }
    .generate();
    let engine = Arc::new(
        ShardedSaeEngine::create_dir(dir, &dataset, HashAlgorithm::Sha1, shards, None).unwrap(),
    );
    let server = ShardServer::spawn(
        Arc::clone(&engine),
        (0..shards).collect(),
        "127.0.0.1:0",
        ShardServerConfig::default(),
    )
    .unwrap();
    (engine, server)
}

/// Boots one replica of every shard from `primary_addr`.
fn replica(engine: &ShardedSaeEngine, primary_addr: std::net::SocketAddr) -> ReplicaServer {
    ReplicaServer::spawn(
        primary_addr.to_string(),
        engine.layout().clone(),
        engine.client().algorithm(),
        RECORD_SIZE,
        (0..engine.shard_count()).collect(),
        "127.0.0.1:0",
        ReplicaServerConfig::default(),
    )
    .unwrap()
}

/// A client scattering over `groups` (one group per shard), verifying with
/// the engine's published parameters.
fn client_over(engine: &ShardedSaeEngine, groups: Vec<Vec<String>>) -> NetClient {
    NetClient::for_engine_topology(
        engine,
        Topology::replicated(groups).unwrap(),
        NetClientConfig::default(),
    )
    .unwrap()
}

/// Every shard's group is the same endpoint list — the common "replica set
/// serves all shards" shape.
fn uniform_groups(engine: &ShardedSaeEngine, endpoints: &[String]) -> Vec<Vec<String>> {
    (0..engine.shard_count())
        .map(|_| endpoints.to_vec())
        .collect()
}

#[test]
fn replicas_bootstrap_from_snapshots_and_serve_verified_slices() {
    let dir = tempfile::tempdir().unwrap();
    let (engine, server) = primary(dir.path(), 2);
    let r1 = replica(&engine, server.local_addr());
    let r2 = replica(&engine, server.local_addr());
    for shard in 0..engine.shard_count() {
        assert_eq!(r1.epoch(shard), Some(engine.shard_epoch(shard)));
        assert_eq!(r2.epoch(shard), Some(engine.shard_epoch(shard)));
    }

    // A client that never talks to the primary: replicas alone answer, and
    // the result verifies against the owner-published token.
    let endpoints = vec![r1.local_addr().to_string(), r2.local_addr().to_string()];
    let mut client = client_over(&engine, uniform_groups(&engine, &endpoints));
    for q in [
        RangeQuery::new(0, DOMAIN),
        RangeQuery::new(DOMAIN / 4, DOMAIN / 2),
        RangeQuery::new(17, 17),
    ] {
        let net = client.query(&q);
        assert!(net.verdict.is_ok(), "{q:?}: {:?}", net.verdict);
        let local = engine.query(&q).unwrap();
        let local_records: usize = local.slices.iter().map(|s| s.records.len()).sum();
        assert_eq!(net.record_count(), local_records, "{q:?}");
    }
    r1.shutdown();
    r2.shutdown();
    server.shutdown();
}

#[test]
fn replicas_catch_up_with_wal_tails() {
    let dir = tempfile::tempdir().unwrap();
    let (engine, server) = primary(dir.path(), 2);
    let r1 = replica(&engine, server.local_addr());

    // Commit new records on the primary after the replica bootstrapped: the
    // next sync pass must advance it via the incremental tail path.
    for i in 0..8u64 {
        let key = (i * 9_001 % DOMAIN as u64) as u32;
        engine
            .insert(&Record::with_size(900_000 + i, key, RECORD_SIZE))
            .unwrap();
    }
    r1.sync_now().unwrap();
    for shard in 0..engine.shard_count() {
        assert_eq!(r1.epoch(shard), Some(engine.shard_epoch(shard)), "{shard}");
    }

    let endpoints = vec![r1.local_addr().to_string()];
    let mut client = client_over(&engine, uniform_groups(&engine, &endpoints));
    let net = client.query(&RangeQuery::new(0, DOMAIN));
    assert!(net.verdict.is_ok(), "{:?}", net.verdict);
    assert_eq!(net.record_count(), CARDINALITY + 8);
    r1.shutdown();
    server.shutdown();
}

#[test]
fn a_byzantine_replica_is_routed_around() {
    let dir = tempfile::tempdir().unwrap();
    let (engine, server) = primary(dir.path(), 2);
    let honest = replica(&engine, server.local_addr());
    let byzantine = replica(&engine, server.local_addr());
    byzantine.set_tamper(Some(ServerTamper::FlipRecordByte));

    let endpoints = vec![
        honest.local_addr().to_string(),
        byzantine.local_addr().to_string(),
    ];
    let mut client = client_over(&engine, uniform_groups(&engine, &endpoints));
    let full = RangeQuery::new(0, DOMAIN);
    // The round-robin cursor guarantees the byzantine replica is consulted
    // within a few queries; every verdict must still come back `Ok` because
    // the doctored slice fails verification, demotes its source and the
    // sub-query re-issues to the honest sibling.
    let mut failovers = 0;
    for _ in 0..4 {
        let net = client.query(&full);
        assert!(net.verdict.is_ok(), "{:?}", net.verdict);
        assert_eq!(net.record_count(), CARDINALITY);
        failovers += net.failovers;
    }
    assert!(failovers > 0, "the byzantine replica was never consulted");
    assert_eq!(client.demoted(), vec![byzantine.local_addr().to_string()]);

    // Once it behaves again, a health probe re-admits it.
    byzantine.set_tamper(None);
    let report = client.probe_health();
    assert_eq!(report.revived, 1, "{report:?}");
    assert!(client.demoted().is_empty());
    honest.shutdown();
    byzantine.shutdown();
    server.shutdown();
}

#[test]
fn a_stale_epoch_replica_is_refused_and_routed_around() {
    let dir = tempfile::tempdir().unwrap();
    let (engine, server) = primary(dir.path(), 2);
    let honest = replica(&engine, server.local_addr());
    let stale = replica(&engine, server.local_addr());

    let endpoints = vec![
        honest.local_addr().to_string(),
        stale.local_addr().to_string(),
    ];
    let mut client = client_over(&engine, uniform_groups(&engine, &endpoints));
    let full = RangeQuery::new(0, DOMAIN);
    // First pass with both replicas honest: verified slices raise the
    // per-shard high-water marks above zero.
    assert!(client.query(&full).verdict.is_ok());
    for shard in 0..engine.shard_count() {
        assert!(client.high_water_mark(shard) > 0, "shard {shard}");
    }

    // Now one replica starts advertising epoch 0 — honest content, stale
    // claim. The freshness check refuses it before verification and the
    // sibling answers instead.
    stale.set_tamper(Some(ServerTamper::StaleEpoch));
    let mut stale_refused = 0;
    for _ in 0..4 {
        let net = client.query(&full);
        assert!(net.verdict.is_ok(), "{:?}", net.verdict);
        stale_refused += net.stale_refused;
    }
    assert!(stale_refused > 0, "the stale replica was never consulted");
    assert_eq!(client.demoted(), vec![stale.local_addr().to_string()]);
    honest.shutdown();
    stale.shutdown();
    server.shutdown();
}

#[test]
fn a_half_installed_replica_refuses_to_serve_not_garbage() {
    let dir = tempfile::tempdir().unwrap();
    let (engine, server) = primary(dir.path(), 1);

    // Simulate a crash mid-install: the snapshot transfer stops short and
    // the install is attempted on the truncated bytes. The slot must stay
    // unsynced — never serve a half-built tree.
    let set = Arc::new(ReplicaSet::new(
        engine.layout().clone(),
        engine.client().algorithm(),
        RECORD_SIZE,
    ));
    let snapshot = engine.export_shard_snapshot(0).unwrap();
    assert!(set
        .install_snapshot(0, &snapshot[..snapshot.len() / 2])
        .is_err());
    assert_eq!(set.epoch(0), None);

    let front = ShardServer::spawn_source(
        Arc::<ReplicaSet>::clone(&set),
        vec![0],
        "127.0.0.1:0",
        ShardServerConfig::default(),
    )
    .unwrap();
    // A raw query gets the typed NOT_SYNCED refusal, not an empty slice.
    let mut stream = TcpStream::connect(front.local_addr()).unwrap();
    write_frame(
        &mut stream,
        &Message::Query {
            shard: 0,
            range: RangeQuery::new(0, DOMAIN),
        },
    )
    .unwrap();
    let (response, _) = read_frame(&mut stream).unwrap();
    match response {
        Message::Error { code, .. } => assert_eq!(code, sae_net::frame::code::NOT_SYNCED),
        other => panic!("expected NOT_SYNCED, got {other:?}"),
    }

    // A failover client routes around the unsynced front to the primary.
    // The refusal is honest, not a fault: nobody is demoted for it.
    let groups = vec![vec![
        front.local_addr().to_string(),
        server.local_addr().to_string(),
    ]];
    let mut client = client_over(&engine, groups);
    let net = client.query(&RangeQuery::new(0, DOMAIN));
    assert!(net.verdict.is_ok(), "{:?}", net.verdict);
    assert_eq!(net.record_count(), CARDINALITY);
    assert!(net.failovers > 0);
    assert!(net.endpoint_errors.iter().all(|(_, e)| matches!(
        e,
        NetError::Remote { code, .. } if *code == sae_net::frame::code::NOT_SYNCED
    )));
    assert!(client.demoted().is_empty(), "{:?}", client.demoted());

    // The full snapshot heals the very same set in place — no restart.
    set.install_snapshot(0, &snapshot).unwrap();
    assert_eq!(set.epoch(0), Some(engine.shard_epoch(0)));
    assert!(set
        .source_slice(0, &RangeQuery::new(0, DOMAIN))
        .unwrap()
        .is_some());
    front.shutdown();
    server.shutdown();
}

#[test]
fn a_replica_of_a_replica_is_refused() {
    let dir = tempfile::tempdir().unwrap();
    let (engine, server) = primary(dir.path(), 1);
    let r1 = replica(&engine, server.local_addr());
    // Chaining replicas would launder the primary's epoch through an
    // unverified hop; the export surface refuses it with a typed error.
    let err = ReplicaServer::spawn(
        r1.local_addr().to_string(),
        engine.layout().clone(),
        engine.client().algorithm(),
        RECORD_SIZE,
        vec![0],
        "127.0.0.1:0",
        ReplicaServerConfig::default(),
    )
    .unwrap_err();
    match err {
        sae_net::NetError::Remote { code, .. } => {
            assert_eq!(code, sae_net::frame::code::REPLICATION_UNSUPPORTED)
        }
        other => panic!("expected the typed REPLICATION_UNSUPPORTED refusal, got {other:?}"),
    }
    r1.shutdown();
    server.shutdown();
}
