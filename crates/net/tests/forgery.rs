//! The consistent forgery: a server that alters a record *and* re-folds the
//! unkeyed XOR token to match it. Every `ServerTamper` mode is inconsistent
//! (records and token stop agreeing) and is caught; this one is not,
//! because in protocol version 1 the serving process computes the token
//! itself and nothing authenticates it. These tests pin today's verdict —
//! **accepted**, with the altered record in the verified result — for the
//! networked primary and for a replica set, so the day the token is bound
//! to a separate trusted entity (ROADMAP item 1) they flip to a rejection.
//! `docs/protocol.md` (design constraint 1) and `docs/replication.md` state
//! the gap and name this file.

use sae_core::{ReplicaSet, ShardSlice, ShardedSaeEngine};
use sae_crypto::HashAlgorithm;
use sae_net::{NetClient, ShardServer, ShardServerConfig, SliceSource};
use sae_storage::StorageResult;
use sae_workload::{DatasetSpec, KeyDistribution, RangeQuery};
use std::sync::Arc;

const DOMAIN: u32 = 100_000;
const CARDINALITY: usize = 400;
const RECORD_SIZE: usize = 64;
const ALG: HashAlgorithm = HashAlgorithm::Sha1;

/// Serves the wrapped source's slices with the first record of every non-empty slice
/// altered: one payload byte flipped, and `h(old) ⊕ h(new)` folded into the
/// token so records and token still agree.
struct ConsistentForgery(Arc<dyn SliceSource>);

impl SliceSource for ConsistentForgery {
    fn source_slice(
        &self,
        shard: usize,
        sub: &RangeQuery,
    ) -> StorageResult<Option<(ShardSlice, u64)>> {
        let Some((mut slice, epoch)) = self.0.source_slice(shard, sub)? else {
            return Ok(None);
        };
        if let Some(record) = slice.records.get_mut(0) {
            let before = ALG.hash(record);
            // The last byte is payload: id and key stay well-formed.
            *record.last_mut().unwrap() ^= 0x5A;
            slice.vt ^= before ^ ALG.hash(record);
        }
        Ok(Some((slice, epoch)))
    }

    fn served_epoch(&self, shard: usize) -> Option<u64> {
        self.0.served_epoch(shard)
    }

    fn export_snapshot(&self, shard: usize) -> StorageResult<Vec<u8>> {
        self.0.export_snapshot(shard)
    }

    fn export_tail(&self, shard: usize, from_epoch: u64) -> StorageResult<Vec<u8>> {
        self.0.export_tail(shard, from_epoch)
    }
}

/// A durable two-shard primary in `dir`.
fn primary(dir: &std::path::Path) -> Arc<ShardedSaeEngine> {
    let dataset = DatasetSpec {
        cardinality: CARDINALITY,
        distribution: KeyDistribution::Uniform { domain: DOMAIN },
        record_size: RECORD_SIZE,
        seed: 42,
    }
    .generate();
    Arc::new(ShardedSaeEngine::create_dir(dir, &dataset, ALG, 2, None).unwrap())
}

/// Serves every shard of `source` through the forger on one endpoint, then
/// queries the whole domain and checks the forgery went through verified.
fn assert_forgery_accepted(engine: &ShardedSaeEngine, source: Arc<dyn SliceSource>) {
    let server = ShardServer::spawn_source(
        Arc::new(ConsistentForgery(source)),
        (0..engine.shard_count()).collect(),
        "127.0.0.1:0",
        ShardServerConfig::default(),
    )
    .unwrap();
    let endpoints = vec![server.local_addr().to_string(); engine.shard_count()];
    let mut client = NetClient::for_engine(engine, endpoints).unwrap();

    let q = RangeQuery::new(0, DOMAIN);
    let net = client.query(&q);
    let honest = engine.query(&q).unwrap();

    // Today's verdict: accepted, with no endpoint demoted or retried.
    assert_eq!(net.verdict, Ok(()));
    assert!(net.endpoint_errors.is_empty(), "{:?}", net.endpoint_errors);
    assert_eq!(net.failovers, 0);
    // ... and the verified result is not the owner's data: each shard's
    // first record came back altered, everything else intact.
    assert_eq!(net.slices.len(), honest.slices.len());
    for (forged, real) in net.slices.iter().zip(&honest.slices) {
        assert_eq!(forged.records.len(), real.records.len());
        let (forged_first, real_first) = (forged.records.first(), real.records.first());
        assert_ne!(forged_first, real_first, "shard {}", real.shard);
        assert!(
            forged
                .records
                .iter()
                .skip(1)
                .eq(real.records.iter().skip(1)),
            "shard {}",
            real.shard
        );
        let (Some(forged_first), Some(real_first)) = (forged_first, real_first) else {
            panic!("shard {} answered no record", real.shard);
        };
        assert_eq!(
            forged.vt,
            real.vt ^ ALG.hash(real_first) ^ ALG.hash(forged_first)
        );
    }
    server.shutdown();
}

#[test]
fn a_consistent_forgery_by_the_primary_is_accepted() {
    let dir = tempfile::tempdir().unwrap();
    let engine = primary(dir.path());
    assert_forgery_accepted(&engine, Arc::clone(&engine) as Arc<dyn SliceSource>);
}

#[test]
fn a_consistent_forgery_by_a_replica_is_accepted() {
    let dir = tempfile::tempdir().unwrap();
    let engine = primary(dir.path());
    let replicas = ReplicaSet::new(engine.layout().clone(), ALG, RECORD_SIZE);
    for shard in 0..engine.shard_count() {
        let snapshot = engine.export_shard_snapshot(shard).unwrap();
        assert_eq!(
            replicas.install_snapshot(shard, &snapshot).unwrap(),
            engine.shard_epoch(shard)
        );
    }
    assert_forgery_accepted(&engine, Arc::new(replicas));
}
