//! End-to-end loopback deployments: real TCP servers, a real scatter-gather
//! client, and the security argument carried onto the wire — a byzantine or
//! missing endpoint is *detected* with the same typed verdicts as in-process
//! tampering, never trusted.

use sae_core::{ShardedSaeEngine, ShardedVerifyError};
use sae_crypto::HashAlgorithm;
use sae_net::{
    encode_frame, read_frame, write_frame, Message, NetClient, NetClientConfig, NetError,
    ServerTamper, ShardServer, ShardServerConfig, Topology, WIRE_VERSION,
};
use sae_storage::wal::crc32;
use sae_workload::{DatasetSpec, KeyDistribution, RangeQuery};
use std::net::TcpStream;
use std::sync::Arc;

const DOMAIN: u32 = 100_000;
const CARDINALITY: usize = 400;

/// Stats counters are bumped by worker threads *after* the response is
/// written, so a client that just read a response may observe the increment
/// a beat later — poll briefly instead of asserting instantly.
fn await_stats(
    server: &ShardServer,
    ready: impl Fn(&sae_net::NetStatsSnapshot) -> bool,
) -> sae_net::NetStatsSnapshot {
    for _ in 0..500 {
        let stats = server.stats();
        if ready(&stats) {
            return stats;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    server.stats()
}

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

/// One server per shard on ephemeral loopback ports, plus a client wired to
/// them.
fn deploy(shards: usize) -> (Arc<ShardedSaeEngine>, Vec<ShardServer>, sae_net::NetClient) {
    let engine = engine(shards);
    let servers: Vec<ShardServer> = (0..shards)
        .map(|shard| {
            ShardServer::spawn(
                Arc::clone(&engine),
                vec![shard],
                "127.0.0.1:0",
                ShardServerConfig::default(),
            )
            .unwrap()
        })
        .collect();
    let endpoints = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let client = sae_net::NetClient::for_engine(&engine, endpoints).unwrap();
    (engine, servers, client)
}

#[test]
fn layouts_one_through_four_verify_and_match_in_process_results() {
    for shards in 1..=4 {
        let (engine, servers, mut client) = deploy(shards);
        let queries = [
            RangeQuery::new(0, DOMAIN), // full domain, every shard answers
            RangeQuery::new(DOMAIN / 4, DOMAIN / 2), // partial overlap
            RangeQuery::new(17, 17),    // point query, likely empty
        ];
        for q in &queries {
            let net = client.query(q);
            assert!(
                net.verdict.is_ok(),
                "{shards} shards, {q:?}: {:?}",
                net.verdict
            );
            assert!(net.endpoint_errors.is_empty());
            let local = engine.query(q).unwrap();
            assert!(local.verdict.is_ok());
            let local_records: usize = local.slices.iter().map(|s| s.records.len()).sum();
            assert_eq!(net.record_count(), local_records, "{shards} shards, {q:?}");
        }
        for server in servers {
            server.shutdown();
        }
    }
}

#[test]
fn every_tamper_mode_is_caught_and_recovery_is_clean() {
    for shards in 1..=4 {
        let (_engine, servers, mut client) = deploy(shards);
        let full = RangeQuery::new(0, DOMAIN);
        for tamper in [
            ServerTamper::FlipRecordByte,
            ServerTamper::DropFirstRecord,
            ServerTamper::FlipTokenBit,
        ] {
            servers[0].set_tamper(Some(tamper));
            let outcome = client.query(&full);
            assert!(
                matches!(
                    outcome.verdict,
                    Err(ShardedVerifyError::Slice { shard: 0, .. })
                ),
                "{shards} shards: {tamper:?} escaped detection: {:?}",
                outcome.verdict
            );
            servers[0].set_tamper(None);
        }
        // Once the server behaves again the same client verifies cleanly.
        assert!(client.query(&full).verdict.is_ok(), "{shards} shards");
        for server in servers {
            server.shutdown();
        }
    }
}

#[test]
fn a_dropped_endpoint_is_a_typed_missing_slice_not_a_partial_answer() {
    for shards in 1..=4 {
        let (_engine, mut servers, mut client) = deploy(shards);
        let full = RangeQuery::new(0, DOMAIN);
        assert!(client.query(&full).verdict.is_ok());

        // Kill one shard's endpoint. The other shards still answer — and the
        // verdict must refuse the partial result with the exact typed error
        // the in-process engine would produce for a withheld slice.
        let dropped = shards / 2;
        servers.remove(dropped).shutdown();
        let outcome = client.query(&full);
        assert!(
            matches!(
                outcome.verdict,
                Err(ShardedVerifyError::MissingShardSlice { shard }) if shard == dropped
            ),
            "{shards} shards: {:?}",
            outcome.verdict
        );
        assert_eq!(outcome.slices.len(), shards - 1);
        assert!(outcome
            .endpoint_errors
            .iter()
            .any(|(shard, _)| *shard == dropped));
        for server in servers {
            server.shutdown();
        }
    }
}

#[test]
fn wrong_version_gets_a_typed_error_and_the_connection_survives() {
    let (_engine, servers, _client) = deploy(1);
    let mut stream = TcpStream::connect(servers[0].local_addr()).unwrap();

    // A well-framed request whose payload claims wire version 2: rewrite the
    // version byte and re-seal the CRC so the framing itself is valid.
    let mut frame = encode_frame(&Message::Ping);
    frame[8] = 2;
    let crc = crc32(&frame[8..]).to_le_bytes();
    frame[4..8].copy_from_slice(&crc);
    use std::io::Write;
    stream.write_all(&frame).unwrap();
    let (response, _) = read_frame(&mut stream).unwrap();
    match response {
        Message::Error {
            code,
            version,
            detail: _,
        } => {
            assert_eq!(code, sae_net::frame::code::UNSUPPORTED_VERSION);
            assert_eq!(
                version, WIRE_VERSION,
                "the error must carry the server's version"
            );
        }
        other => panic!("expected an error response, got {other:?}"),
    }

    // The CRC was valid, so the stream is still in sync: a correct ping on
    // the same connection must work.
    write_frame(&mut stream, &Message::Ping).unwrap();
    let (response, _) = read_frame(&mut stream).unwrap();
    assert_eq!(response, Message::Pong);
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn corrupt_framing_closes_the_connection() {
    let (_engine, servers, _client) = deploy(1);
    let mut stream = TcpStream::connect(servers[0].local_addr()).unwrap();

    // A frame whose CRC does not match its payload: the server can no longer
    // trust the stream to be in sync and must hang up.
    let mut frame = encode_frame(&Message::Ping);
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    use std::io::Write;
    stream.write_all(&frame).unwrap();
    match read_frame(&mut stream) {
        Err(NetError::Disconnected) | Err(NetError::Io(_)) => {}
        other => panic!("expected the server to hang up, got {other:?}"),
    }
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn asking_for_an_unserved_shard_is_refused_with_a_typed_code() {
    let (_engine, servers, _client) = deploy(2);
    // servers[0] serves only shard 0; ask it for shard 1.
    let mut stream = TcpStream::connect(servers[0].local_addr()).unwrap();
    write_frame(
        &mut stream,
        &Message::Query {
            shard: 1,
            range: RangeQuery::new(0, DOMAIN),
        },
    )
    .unwrap();
    let (response, _) = read_frame(&mut stream).unwrap();
    match response {
        Message::Error { code, .. } => {
            assert_eq!(code, sae_net::frame::code::SHARD_NOT_SERVED);
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn shutdown_joins_workers_and_frees_the_port() {
    let (_engine, mut servers, mut client) = deploy(1);
    let addr = servers[0].local_addr();
    // Leave a live, idle connection open so shutdown has a worker to wake.
    client.ping(0).unwrap();
    let stats_before = await_stats(&servers[0], |s| {
        s.connections >= 1 && s.frames_in >= 1 && s.frames_out >= 1
    });
    assert!(stats_before.connections >= 1, "{stats_before:?}");
    assert!(stats_before.frames_in >= 1, "{stats_before:?}");
    assert!(stats_before.frames_out >= 1, "{stats_before:?}");

    servers.remove(0).shutdown();
    // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err());
    // And the client observes the death as a typed failure, not a hang.
    assert!(client.ping(0).is_err());
}

#[test]
fn a_pooled_connection_survives_a_server_restart_on_the_same_port() {
    let (engine, servers, mut client) = deploy(1);
    let full = RangeQuery::new(0, DOMAIN);
    // Pool the connection, then restart the server on the same port
    // mid-session: the pooled socket is now a dead one.
    assert!(client.query(&full).verdict.is_ok());
    let addr = servers[0].local_addr();
    for server in servers {
        server.shutdown();
    }
    let revived = ShardServer::spawn(
        Arc::clone(&engine),
        vec![0],
        addr,
        ShardServerConfig::default(),
    )
    .unwrap();
    // The one-retry redial absorbs the restart: same endpoint answers, no
    // failover leg is charged and nothing gets demoted.
    let outcome = client.query(&full);
    assert!(outcome.verdict.is_ok(), "{:?}", outcome.verdict);
    assert_eq!(outcome.failovers, 0, "{:?}", outcome.endpoint_errors);
    assert!(client.demoted().is_empty());
    revived.shutdown();
}

#[test]
fn a_stale_leg_redials_inside_a_pipelined_wave() {
    let (engine, mut servers, mut client) = deploy(2);
    let full = RangeQuery::new(0, DOMAIN);
    // Pool both shards' connections, then restart shard 1's server on the
    // same port: its pooled socket is now a dead one, shard 0's is live.
    assert!(client.query(&full).verdict.is_ok());
    let restarted = servers.remove(1);
    let addr = restarted.local_addr();
    restarted.shutdown();
    let revived = ShardServer::spawn(
        Arc::clone(&engine),
        vec![1],
        addr,
        ShardServerConfig::default(),
    )
    .unwrap();

    // Both requests go out before either answer is read; shard 1's stale
    // leg redials once inside the wave, and nothing fails over or demotes.
    let outcome = client.query(&full);
    assert!(outcome.verdict.is_ok(), "{:?}", outcome.verdict);
    assert_eq!(outcome.slices.len(), 2);
    assert_eq!(outcome.failovers, 0, "{:?}", outcome.endpoint_errors);
    assert!(outcome.endpoint_errors.is_empty());
    assert!(client.demoted().is_empty());
    // Shard 0 was answered over the connection its pipelined send used; the
    // redial is the revived server's one and only connection.
    assert_eq!(servers[0].stats().connections, 1);
    assert_eq!(
        await_stats(&revived, |s| s.queries >= 1).connections,
        1,
        "one redial, no more"
    );
    revived.shutdown();
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn probe_health_re_admits_a_restarted_replica() {
    let (engine, mut servers, mut client) = deploy(2);
    let full = RangeQuery::new(0, DOMAIN);
    assert!(client.query(&full).verdict.is_ok());

    // Kill shard 1's only replica: the query demotes the endpoint and the
    // verdict reports the withheld slice.
    let dead = servers.remove(1);
    let addr = dead.local_addr();
    dead.shutdown();
    let outcome = client.query(&full);
    assert!(matches!(
        outcome.verdict,
        Err(ShardedVerifyError::MissingShardSlice { shard: 1 })
    ));
    assert_eq!(client.demoted().len(), 1);

    // While it is down a probe keeps it demoted...
    let report = client.probe_health();
    assert_eq!(report.revived, 0);
    assert_eq!(report.still_down, 1);

    // ...and once it restarts on the same port, the next probe re-admits it
    // without any manual intervention.
    let revived = ShardServer::spawn(
        Arc::clone(&engine),
        vec![1],
        addr,
        ShardServerConfig::default(),
    )
    .unwrap();
    let report = client.probe_health();
    assert_eq!(report.revived, 1, "{report:?}");
    assert!(client.demoted().is_empty());
    assert!(client.query(&full).verdict.is_ok());
    revived.shutdown();
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn an_honest_too_large_refusal_demotes_nobody() {
    // One shard holding more records of 500 B than fit the 4 MiB frame cap,
    // served by two endpoints.
    let dataset = DatasetSpec {
        cardinality: 9_000,
        distribution: KeyDistribution::Uniform { domain: DOMAIN },
        record_size: 500,
        seed: 7,
    }
    .generate();
    let engine =
        Arc::new(ShardedSaeEngine::build_in_memory(&dataset, HashAlgorithm::Sha1, 1).unwrap());
    let servers: Vec<ShardServer> = (0..2)
        .map(|_| {
            ShardServer::spawn(
                Arc::clone(&engine),
                vec![0],
                "127.0.0.1:0",
                ShardServerConfig::default(),
            )
            .unwrap()
        })
        .collect();
    let group = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let topology = Topology::replicated(vec![group]).unwrap();
    let mut client =
        NetClient::for_engine_topology(&engine, topology, NetClientConfig::default()).unwrap();

    // The refusal is deterministic — every replica would repeat it — so the
    // shard ends with its own typed verdict after one ask: no sibling is
    // tried and nobody is demoted.
    let wide = client.query(&RangeQuery::new(0, DOMAIN));
    assert!(
        matches!(
            wide.verdict,
            Err(ShardedVerifyError::ResponseTooLarge { shard: 0 })
        ),
        "{:?}",
        wide.verdict
    );
    assert_eq!(wide.endpoint_errors.len(), 1, "{:?}", wide.endpoint_errors);
    assert!(matches!(
        &wide.endpoint_errors[0],
        (0, NetError::Remote { code, .. }) if *code == sae_net::frame::code::RESPONSE_TOO_LARGE
    ));
    assert_eq!(wide.failovers, 0);
    assert!(client.demoted().is_empty(), "{:?}", client.demoted());

    // The next small query is served by the preferred replica.
    let small = client.query(&RangeQuery::new(DOMAIN / 2, DOMAIN / 2 + 100));
    assert!(small.verdict.is_ok(), "{:?}", small.verdict);
    assert_eq!(small.failovers, 0, "{:?}", small.endpoint_errors);
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn stats_count_queries_and_traffic() {
    let (_engine, servers, mut client) = deploy(2);
    for _ in 0..3 {
        assert!(client.query(&RangeQuery::new(0, DOMAIN)).verdict.is_ok());
    }
    for server in &servers {
        let stats = await_stats(server, |s| s.queries >= 3 && s.frames_out >= s.queries);
        assert!(stats.queries >= 3, "{stats:?}");
        assert!(stats.frames_out >= stats.queries);
        assert!(
            stats.bytes_out > stats.bytes_in,
            "slices dwarf requests: {stats:?}"
        );
        assert_eq!(stats.errors_sent, 0);
        assert_eq!(stats.decode_errors, 0);
    }
    for server in servers {
        server.shutdown();
    }
}
