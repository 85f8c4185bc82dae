//! Cross-crate integration tests: the full DO → SP/TE → client workflows of
//! both outsourcing models, checked against a brute-force oracle.

use sae::prelude::*;

const ALG: HashAlgorithm = HashAlgorithm::Sha1;

fn dataset(n: usize, dist: KeyDistribution, seed: u64) -> Dataset {
    DatasetSpec {
        cardinality: n,
        distribution: dist,
        record_size: 500,
        seed,
    }
    .generate()
}

#[test]
fn sae_results_match_the_oracle_on_both_distributions() {
    for dist in [KeyDistribution::unf(), KeyDistribution::skw()] {
        let ds = dataset(8_000, dist, 1);
        let system = SaeSystem::build_in_memory(&ds, ALG).unwrap();
        let workload = QueryWorkload::uniform(20, dist.domain(), 0.005, 99);
        for q in workload.iter() {
            let outcome = system.query(q).unwrap();
            assert!(outcome.metrics.verified, "{} {q}", dist.name());
            assert_eq!(
                outcome.records.len(),
                ds.query_cardinality(q),
                "{} {q}",
                dist.name()
            );
            // The returned ids are exactly the oracle's ids.
            let mut got: Vec<u64> = outcome
                .records
                .iter()
                .map(|r| Record::decode(r).unwrap().id)
                .collect();
            got.sort_unstable();
            let mut expected: Vec<u64> = ds.query_oracle(q).iter().map(|r| r.id).collect();
            expected.sort_unstable();
            assert_eq!(got, expected);
        }
    }
}

#[test]
fn tom_results_match_the_oracle_and_verify_with_rsa_signatures() {
    let ds = dataset(5_000, KeyDistribution::unf(), 2);
    let signer = RsaSigner::insecure_test_signer();
    let verifier = signer.verifier();
    let system = TomSystem::build_in_memory(&ds, ALG, signer, verifier).unwrap();
    let workload = QueryWorkload::uniform(10, 10_000_000, 0.005, 5);
    for q in workload.iter() {
        let outcome = system.query(q).unwrap();
        assert!(outcome.metrics.verified, "{q}");
        assert_eq!(outcome.records.len(), ds.query_cardinality(q));
        assert!(outcome.metrics.auth_bytes >= 64); // at least the RSA signature
    }
}

#[test]
fn sae_and_tom_agree_on_results_and_both_detect_the_same_attacks() {
    let ds = dataset(6_000, KeyDistribution::skw(), 3);
    let sae = SaeSystem::build_in_memory(&ds, ALG).unwrap();
    let signer = MacSigner::new(b"key".to_vec());
    let tom = TomSystem::build_in_memory(&ds, ALG, signer.clone(), signer).unwrap();

    let q = RangeQuery::new(100_000, 200_000);
    let sae_honest = sae.query(&q).unwrap();
    let tom_honest = tom.query(&q).unwrap();
    assert_eq!(sae_honest.records.len(), tom_honest.records.len());
    assert!(sae_honest.metrics.verified && tom_honest.metrics.verified);

    for strategy in [
        TamperStrategy::DropRecords { count: 2 },
        TamperStrategy::InjectRecords { count: 2 },
        TamperStrategy::ModifyRecords { count: 2 },
        TamperStrategy::SubstituteResult { count: 5 },
    ] {
        let sae_bad = sae.query_with_tamper(&q, strategy, 7).unwrap();
        let tom_bad = tom.query_with_tamper(&q, strategy, 7).unwrap();
        assert!(!sae_bad.metrics.verified, "SAE missed {strategy:?}");
        assert!(!tom_bad.metrics.verified, "TOM missed {strategy:?}");
    }
}

/// A known hole (the XOR combiner is linear): pins today's verdict, so a
/// sound combiner shows up here as a deliberate change of this test.
#[test]
fn a_linear_forgery_passes_the_xor_fold_but_not_the_vo() {
    let ds = dataset(6_000, KeyDistribution::unf(), 10);
    let sae = SaeSystem::build_in_memory(&ds, ALG).unwrap();
    let signer = MacSigner::new(b"key".to_vec());
    let tom = TomSystem::build_in_memory(&ds, ALG, signer.clone(), signer).unwrap();

    let keys = ds.sorted_keys();
    let point = RangeQuery::new(keys[3_000], keys[3_001]);
    let scan = RangeQuery::new(keys[2_000], keys[2_999]);
    for (q, records) in [(point, 2), (scan, 1_000)] {
        assert_eq!(ds.query_cardinality(&q), records, "{q}");
        let forgery = TamperStrategy::LinearForgery { alg: ALG };
        let forged = sae.query_with_tamper(&q, forgery, 3).unwrap();
        let honest = sae.query(&q).unwrap();
        assert!(forged.records.iter().all(|r| !honest.records.contains(r)));
        assert!(forged.metrics.verified, "SAE rejected the forgery on {q}");
        let tom_forged = tom.query_with_tamper(&q, forgery, 3).unwrap();
        assert!(
            !tom_forged.metrics.verified,
            "TOM accepted the forgery on {q}"
        );
    }
}

#[test]
fn the_vt_equals_the_xor_of_the_oracle_digests() {
    // The defining equation of SAE: VT = RS⊕.
    let ds = dataset(4_000, KeyDistribution::unf(), 4);
    let system = SaeSystem::build_in_memory(&ds, ALG).unwrap();
    for q in QueryWorkload::uniform(15, 10_000_000, 0.01, 11).iter() {
        let outcome = system.query(q).unwrap();
        let expected = XorDigest::of(
            ds.query_oracle(q)
                .iter()
                .map(|r| r.digest(ALG))
                .collect::<Vec<_>>()
                .iter(),
        );
        assert_eq!(outcome.vt, expected, "{q}");
    }
}

#[test]
fn sae_works_identically_on_file_backed_storage() {
    let dir = tempfile::tempdir().unwrap();
    let ds = dataset(3_000, KeyDistribution::unf(), 5);

    let mem_system = SaeSystem::build_in_memory(&ds, ALG).unwrap();
    let sp_store: SharedPageStore =
        std::sync::Arc::new(FilePager::create(dir.path().join("sp.pages")).unwrap());
    let te_store: SharedPageStore =
        std::sync::Arc::new(FilePager::create(dir.path().join("te.pages")).unwrap());
    let file_system = SaeSystem::build(
        sp_store,
        te_store,
        &ds,
        ALG,
        CostModel::paper(),
        sae::core::sae::TeMode::XbTree,
    )
    .unwrap();

    for q in QueryWorkload::uniform(10, 10_000_000, 0.005, 21).iter() {
        let a = mem_system.query(q).unwrap();
        let b = file_system.query(q).unwrap();
        assert_eq!(a.vt, b.vt);
        assert_eq!(a.records, b.records);
        assert!(b.metrics.verified);
        // The charged node accesses are identical: the cost model counts
        // logical accesses, not where the pages physically live.
        assert_eq!(a.metrics.sp_node_accesses, b.metrics.sp_node_accesses);
        assert_eq!(a.metrics.te_node_accesses, b.metrics.te_node_accesses);
    }
}

#[test]
fn update_streams_keep_both_models_consistent_and_verifiable() {
    let ds = dataset(3_000, KeyDistribution::unf(), 6);
    let mut sae = SaeSystem::build_in_memory(&ds, ALG).unwrap();
    let signer = MacSigner::new(b"key".to_vec());
    let mut tom = TomSystem::build_in_memory(&ds, ALG, signer.clone(), signer).unwrap();

    // Mirror of the logical table, kept in lockstep with the updates.
    let mut shadow: Vec<Record> = ds.records.clone();

    // Insert 300 new records and delete 150 existing ones.
    for i in 0..300u64 {
        let r = Record::with_size(9_000_000 + i, ((i * 131) % 10_000_000) as u32, 500);
        sae.insert_record(&r).unwrap();
        tom.insert_record(&r).unwrap();
        shadow.push(r);
    }
    for i in (0..3_000u64).step_by(20) {
        let r = shadow.iter().find(|r| r.id == i).unwrap().clone();
        assert!(sae.delete_record(r.id, r.key).unwrap());
        assert!(tom.delete_record(r.id, r.key).unwrap());
        shadow.retain(|x| x.id != i);
    }

    for q in QueryWorkload::uniform(10, 10_000_000, 0.01, 31).iter() {
        let expected: usize = shadow.iter().filter(|r| q.contains(r.key)).count();
        let a = sae.query(q).unwrap();
        let b = tom.query(q).unwrap();
        assert_eq!(a.records.len(), expected, "SAE {q}");
        assert_eq!(b.records.len(), expected, "TOM {q}");
        assert!(a.metrics.verified && b.metrics.verified, "{q}");
    }
}

#[test]
fn concurrent_engine_agrees_with_the_sequential_system() {
    let ds = dataset(5_000, KeyDistribution::unf(), 9);
    let system = SaeSystem::build_in_memory(&ds, ALG).unwrap();
    let engine = ShardedSaeEngine::build_cached(&ds, ALG, 1, 256).unwrap();

    let queries = QueryMix::uniform(10_000_000, 0.005)
        .workload(40, 51)
        .queries;
    let report = engine.serve_batch(&queries, 4);
    assert_eq!(report.queries, 40);
    assert_eq!(report.failed, 0);
    assert!(
        report.all_verified,
        "a concurrent query failed verification"
    );

    // The concurrent batch returns exactly the cardinalities the sequential
    // system (and therefore the oracle) produces.
    let expected: u64 = queries
        .iter()
        .map(|q| system.query(q).unwrap().records.len() as u64)
        .sum();
    assert_eq!(report.totals.result_cardinality, expected);
    // Repeated traversals of the hot upper index levels hit the buffer pool.
    let sp_cache = engine.sp_cache_stats().unwrap();
    assert!(sp_cache.cache_hits > 0);
}

#[test]
fn metrics_reflect_the_papers_qualitative_claims() {
    let ds = dataset(10_000, KeyDistribution::unf(), 8);
    let sae = SaeSystem::build_in_memory(&ds, ALG).unwrap();
    let signer = MacSigner::new(b"key".to_vec());
    let tom = TomSystem::build_in_memory(&ds, ALG, signer.clone(), signer).unwrap();

    let mut sae_total = QueryMetrics {
        verified: true,
        ..Default::default()
    };
    let mut tom_total = QueryMetrics {
        verified: true,
        ..Default::default()
    };
    let workload = QueryWorkload::uniform(25, 10_000_000, 0.005, 77);
    for q in workload.iter() {
        sae_total.accumulate(&sae.query(q).unwrap().metrics);
        tom_total.accumulate(&tom.query(q).unwrap().metrics);
    }
    let n = workload.len() as u64;
    let sae_avg = sae_total.averaged_over(n);
    let tom_avg = tom_total.averaged_over(n);

    // Fig. 5: constant 20-byte token vs VO orders of magnitude larger.
    assert_eq!(sae_avg.auth_bytes, 20);
    assert!(tom_avg.auth_bytes > 100 * sae_avg.auth_bytes);
    // Fig. 6: the SAE SP is cheaper than the TOM SP; the TE is cheaper still.
    assert!(sae_avg.sp_charged_ms < tom_avg.sp_charged_ms);
    assert!(sae_avg.te_charged_ms < sae_avg.sp_charged_ms);
    // Fig. 8: similar SP storage for both; small TE.
    let s = sae.storage_breakdown();
    let t = tom.storage_breakdown();
    let ratio = s.sp_total_bytes() as f64 / t.sp_total_bytes() as f64;
    assert!(ratio > 0.8 && ratio < 1.2);
    assert!(s.te_bytes * 5 < s.sp_total_bytes());
}
