//! Concurrent-engine throughput: one fixed query batch served by 1, 2 and 4
//! worker threads through the single-pair (1-shard) `ShardedSaeEngine` with a
//! buffer pool under both parties. Without simulated I/O latency this measures pure
//! lock/CPU scaling; the `experiments -- throughput` table adds the
//! overlappable per-query I/O latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sae_core::{ServeOptions, ShardedSaeEngine};
use sae_crypto::HashAlgorithm;
use sae_workload::{DatasetSpec, KeyDistribution, QueryMix};

const N: usize = 20_000;

fn bench_throughput(c: &mut Criterion) {
    let dataset = DatasetSpec::paper(N, KeyDistribution::unf(), 8).generate();
    let engine = ShardedSaeEngine::build_cached(&dataset, HashAlgorithm::Sha1, 1, 512).unwrap();
    let queries = QueryMix::uniform(KeyDistribution::unf().domain(), 0.002)
        .workload(64, 42)
        .queries;

    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("serve_batch", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let report = engine.serve_batch(
                        &queries,
                        &ServeOptions {
                            threads,
                            io_micros_per_query: 0,
                        },
                    );
                    assert!(report.all_verified);
                    report.queries
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
