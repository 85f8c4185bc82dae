//! The traced run: where one verified query and one durable write spend
//! their time, layer by layer.
//!
//! Nothing inside the program is instrumented. The harness replays a fixed
//! number of the workload's operations — whole, then stage by stage through
//! each crate's public functions — on one deployment, recording a span
//! around every call. Each stage is replayed in a pass of its own over all
//! queries, so every pass meets the buffer pool in the same cyclic state the
//! whole operation does (replaying one query's stages back to back would
//! serve every stage after the first from pages the first just loaded).
//! Operation counts are fixed, so every count repeats exactly for a seed.
//!
//! Every workload's traced run stands up the loopback servers too, so the
//! `net.*` metrics are defined everywhere; what differs per workload is the
//! query shape and the buffer-pool size.

use crate::check::Oracle;
use crate::deploy::{self, DataDir, Deployment, ALG, RECORD_SIZE};
use crate::harness::{
    durable_inserts, oracle_sample, read_back, tamper_probe, user_bytes, IoTotals, Sizes, Tally,
};
use crate::trace::Tracer;
use crate::workload::write_records;
use crate::{obj, Options, Outcome, Res, Tree};
use sae_btree::BPlusTree;
use sae_core::{verify_slices, QueryService, ShardedSaeEngine};
use sae_crypto::Digest;
use sae_net::{decode_frame, encode_frame, slice_to_message, Message};
use sae_storage::wal::crc32;
use sae_storage::{
    encode_records, scan_log, IoStats, MemPager, RecordId, StorageError, WalRecord, WalWriter,
};
use sae_workload::{DatasetSpec, KeyDistribution, RangeQuery, Record, TeTuple};
use sae_xbtree::XbTree;
use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Round trips timed for `net.ping_rtt_us`.
const PINGS: usize = 200;
/// Replays of the last transaction for the WAL encode and sync stages.
const WAL_REPLAYS: usize = 200;
/// Staged writes between untimed `flush()` calls, so the uncommitted write
/// set the no-steal pool must hold stays small.
const STAGED_FLUSH_EVERY: usize = 128;
/// Buffer hashed / checksummed by the throughput probes.
const PROBE_BYTES: usize = 1 << 20;
/// Passes of the throughput probes over the buffer.
const PROBE_ROUNDS: usize = 32;

/// The fetch loop of `SaeServiceProvider::query`, over index positions
/// already in hand: contiguous runs page by page.
fn heap_fetch(
    heap: &sae_storage::HeapFile,
    positions: &[u64],
) -> Result<Vec<Vec<u8>>, StorageError> {
    let mut out = Vec::with_capacity(positions.len());
    let mut i = 0;
    while i < positions.len() {
        let mut run = 1;
        while i + run < positions.len() && positions[i + run] == positions[i] + run as u64 {
            run += 1;
        }
        out.extend(heap.get_range(RecordId(positions[i]), run as u64)?);
        i += run;
    }
    Ok(out)
}

/// The most recent committed transaction of `shard`'s log, as the records a
/// commit encodes, plus the size of the tail a replica would be shipped for
/// it. `None` when a checkpoint has just rotated it away.
fn last_transaction(
    engine: &ShardedSaeEngine,
    shard: usize,
) -> Res<Option<(Vec<WalRecord>, usize)>> {
    let epoch = engine.shard_epoch(shard);
    let tail = match engine.export_wal_tail(shard, epoch.saturating_sub(1)) {
        Ok(tail) => tail,
        Err(StorageError::TailUnavailable { .. }) => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let (_, mut txs) = scan_log(&tail);
    let Some(tx) = txs.pop() else {
        return Ok(None);
    };
    let mut records = vec![WalRecord::Begin { epoch: tx.epoch }];
    for (party, page_id, image) in tx.pages {
        records.push(WalRecord::PageImage {
            party,
            page_id,
            image: Box::new(image),
        });
    }
    for (index, page_id) in tx.heap_entries {
        records.push(WalRecord::HeapDirEntry { index, page_id });
    }
    records.push(WalRecord::Commit { meta: tx.meta });
    Ok(Some((records, tail.len())))
}

/// MB/s of `f` over the probe buffer.
fn probe_mb_per_s(mut f: impl FnMut(&[u8])) -> f64 {
    let buf: Vec<u8> = (0..PROBE_BYTES).map(|i| (i * 31 + 7) as u8).collect();
    let started = Instant::now();
    for _ in 0..PROBE_ROUNDS {
        f(black_box(&buf));
    }
    (PROBE_BYTES * PROBE_ROUNDS) as f64 / 1e6 / started.elapsed().as_secs_f64()
}

/// Runs one workload's traced replay and reports every per-layer metric.
pub fn run(opts: &Options, sizes: &Sizes) -> Res<Outcome> {
    let w = opts.workload;
    let layout = deploy::layout();
    let q_count = if w.point_sized() {
        sizes.traced_point_queries
    } else {
        sizes.traced_wide_queries
    };
    let w_count = sizes.traced_writes;
    let per_query = |total_us: f64| total_us / q_count as f64;
    let per_write = |total: f64| total / w_count as f64;

    // ---- inputs, all from the seed
    let keys = DatasetSpec::paper(sizes.records, KeyDistribution::unf(), opts.seed)
        .generate()
        .sorted_keys();
    let all_queries = w.queries(&layout, &keys, opts.seed, q_count + 1);
    drop(keys);
    let (first_query, queries) = all_queries.split_at(1);
    let spare = 8;
    let writes = write_records(
        layout.domain(),
        RECORD_SIZE,
        opts.seed,
        0,
        2 * w_count + sizes.kill_writes + spare,
    );
    let (whole_writes, rest) = writes.split_at(w_count);
    let (staged_writes, rest) = rest.split_at(w_count);
    let (kill, spare_writes) = rest.split_at(sizes.kill_writes);

    let data = DataDir::create(opts.data_root.as_deref(), w.name())?;
    let (mut dep, dataset, times) = Deployment::setup(
        w,
        true,
        sizes.records,
        opts.seed,
        &data.deployment(0),
        &first_query[0],
    )?;
    let mut oracle = Oracle::new(&dataset);
    let mut tally = Tally::default();
    tally.add(1, 0);
    let mut t = Tracer::with_capacity(q_count * 32 + w_count * 8 + WAL_REPLAYS * 4 + PINGS + 64);
    let mut m: Vec<(String, f64)> = Vec::with_capacity(64);
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));

    put("workload.dataset_gen_ms", times.dataset_gen_s * 1e3);
    put("core.build_ms", times.build_s * 1e3);
    put("core.reopen_ms", times.reopen_s * 1e3);

    let engine = std::sync::Arc::clone(&dep.engine);
    let subqueries: Vec<Vec<(usize, RangeQuery)>> = queries
        .iter()
        .map(|q| layout.overlapping_clamped(q))
        .collect();

    // ---- queries, whole
    let client = dep.client.as_mut().ok_or("the traced run is networked")?;
    // Untimed: dial the pooled connections, bring the pool to its steady
    // cyclic state.
    for q in queries {
        tally.record(client.query(q).verdict.is_ok());
    }
    // Untraced mean on the workload's own transport, for the overhead ratio:
    // once before the traced pass and once after, so that neither side of
    // the ratio owns the warmer pool.
    let untraced_pass = |client: &mut sae_net::NetClient| -> Res<f64> {
        let started = Instant::now();
        for q in queries {
            if w.over_network() {
                black_box(client.query(q));
            } else {
                black_box(engine.query(q)?);
            }
        }
        Ok(started.elapsed().as_secs_f64() * 1e6 / q_count as f64)
    };
    let untraced_before_us = untraced_pass(client)?;

    let frames = |dep_servers: &[sae_net::ShardServer]| -> u64 {
        dep_servers
            .iter()
            .map(|s| {
                let st = s.stats();
                st.frames_in + st.frames_out
            })
            .sum()
    };
    let frames_before = frames(&dep.servers);
    let (mut wire_bytes, mut failovers, mut hedges, mut endpoint_errors) = (0u64, 0u64, 0u64, 0u64);
    t.pass("pass.net.query", |t| {
        for (i, q) in queries.iter().enumerate() {
            let (out, _) = t.span("net.query", i as u64, || client.query(q));
            wire_bytes += out.bytes_sent + out.bytes_received;
            failovers += out.failovers;
            hedges += out.hedges;
            endpoint_errors += out.endpoint_errors.len() as u64;
            tally.record(out.verdict.is_ok() && out.endpoint_errors.is_empty());
        }
    });
    let server_frames = frames(&dep.servers) - frames_before;
    let (connections, decode_errors) = dep.servers.iter().fold((0, 0), |(c, d), s| {
        let st = s.stats();
        (c + st.connections, d + st.decode_errors)
    });
    let net_query_us = t.mean_us("net.query");
    put("net.query_us", net_query_us);
    put("net.wire_bytes_per_query", per_query(wire_bytes as f64));
    put(
        "net.server_frames_per_query",
        per_query(server_frames as f64),
    );
    put("net.connections_opened", connections as f64);
    put("net.decode_errors", decode_errors as f64);
    put("net.failovers", failovers as f64);
    put("net.hedges", hedges as f64);
    put("net.endpoint_errors", endpoint_errors as f64);

    let io_before = IoTotals::of(&engine);
    let (mut records_returned, mut slices_returned) = (0u64, 0u64);
    t.pass("pass.core.inproc_query", |t| -> Res<()> {
        for (i, q) in queries.iter().enumerate() {
            let (out, _) = t.span("core.inproc_query", i as u64, || engine.query(q));
            let out = out?;
            records_returned += out.metrics.result_cardinality;
            slices_returned += out.slices.len() as u64;
            tally.record(out.verdict.is_ok());
        }
        Ok(())
    })?;
    let io = IoTotals::of(&engine).since(&io_before);
    let client = dep.client.as_mut().ok_or("the traced run is networked")?;
    let untraced_us = (untraced_before_us + untraced_pass(client)?) / 2.0;
    let inproc_query_us = t.mean_us("core.inproc_query");
    put("core.inproc_query_us", inproc_query_us);
    put("core.records_per_query", per_query(records_returned as f64));
    put("core.shards_per_query", per_query(slices_returned as f64));
    put(
        "storage.sp_node_reads_per_query",
        per_query(io.sp.node_reads as f64),
    );
    put(
        "storage.te_node_reads_per_query",
        per_query(io.te.node_reads as f64),
    );
    // A read that misses the pool is a page read from the page file; this
    // pass only reads.
    put(
        "storage.physical_reads_per_query",
        per_query((io.sp.cache_misses + io.te.cache_misses) as f64),
    );
    put(
        "storage.sp_cache_misses_per_query",
        per_query(io.sp.cache_misses as f64),
    );
    put(
        "storage.sp_cache_hit_rate",
        io.sp.cache_hits as f64 / (io.sp.cache_hits + io.sp.cache_misses).max(1) as f64,
    );

    // ---- queries, stage by stage: one pass per stage
    let mut shard_slice_ns: Vec<Vec<u64>> = Vec::with_capacity(q_count);
    t.pass("pass.core.shard_slice", |t| -> Res<()> {
        for (i, subs) in subqueries.iter().enumerate() {
            let mut per_shard = Vec::with_capacity(subs.len());
            for (shard, sub) in subs {
                let (slice, ns) = t.span("core.shard_slice", i as u64, || {
                    engine.shard_slice(*shard, sub)
                });
                black_box(slice?);
                per_shard.push(ns);
            }
            shard_slice_ns.push(per_shard);
        }
        Ok(())
    })?;
    t.pass("pass.core.sp_query", |t| -> Res<()> {
        for (i, subs) in subqueries.iter().enumerate() {
            for (shard, sub) in subs {
                let (records, _) = engine.with_sp_mut(*shard, |sp| {
                    t.span("core.sp_query", i as u64, || sp.query(sub))
                });
                black_box(records?);
            }
        }
        Ok(())
    })?;
    t.pass("pass.btree.range", |t| -> Res<()> {
        for (i, subs) in subqueries.iter().enumerate() {
            for (shard, sub) in subs {
                let (positions, _) = engine.with_sp_mut(*shard, |sp| {
                    t.span("btree.range", i as u64, || sp.index().range_record_ids(sub))
                });
                black_box(positions?);
            }
        }
        Ok(())
    })?;
    t.pass("pass.storage.heap_fetch", |t| -> Res<()> {
        for (i, subs) in subqueries.iter().enumerate() {
            for (shard, sub) in subs {
                let records = engine.with_sp_mut(*shard, |sp| -> Res<_> {
                    let positions = sp.index().range_record_ids(sub)?;
                    let (records, _) = t.span("storage.heap_fetch", i as u64, || {
                        heap_fetch(sp.heap(), &positions)
                    });
                    Ok(records?)
                })?;
                black_box(records);
            }
        }
        Ok(())
    })?;
    t.pass("pass.core.te_vt", |t| -> Res<()> {
        for (i, subs) in subqueries.iter().enumerate() {
            for (shard, sub) in subs {
                let (vt, _) = engine.with_te_mut(*shard, |te| {
                    t.span("core.te_vt", i as u64, || te.generate_vt(sub))
                });
                black_box(vt?);
            }
        }
        Ok(())
    })?;
    t.pass("pass.xbtree.generate_vt", |t| -> Res<()> {
        for (i, subs) in subqueries.iter().enumerate() {
            for (shard, sub) in subs {
                let (vt, _) = engine.with_te_mut(*shard, |te| {
                    t.span("xbtree.generate_vt", i as u64, || {
                        te.tree().generate_vt(sub)
                    })
                });
                black_box(vt?);
            }
        }
        Ok(())
    })?;
    // The wire codec and the client's verification: pure functions of the
    // slices, which are fetched untimed just before.
    let mut blocking_ns = 0u64;
    t.pass("pass.wire_and_verify", |t| -> Res<()> {
        for (i, (q, subs)) in queries.iter().zip(&subqueries).enumerate() {
            let request = i as u64;
            let slices = engine.scatter(q)?;
            let mut slowest_shard = 0u64;
            for (k, ((shard, sub), slice)) in subs.iter().zip(&slices).enumerate() {
                let query = Message::Query {
                    shard: *shard as u32,
                    range: *sub,
                };
                let (frame, encode_query_ns) =
                    t.span("net.encode_query", request, || encode_frame(&query));
                black_box(frame);
                let epoch = engine.shard_epoch(*shard);
                let (message, to_message_ns) = t.span("net.slice_to_message", request, || {
                    slice_to_message(slice, RECORD_SIZE, epoch)
                });
                let message = message.ok_or("slice exceeds the frame cap")?;
                let (frame, encode_ns) =
                    t.span("net.encode_slice", request, || encode_frame(&message));
                let (decoded, decode_ns) =
                    t.span("net.decode_slice", request, || decode_frame(&frame));
                black_box(decoded?);
                // A shard's leg of the fan-out runs these in sequence; the
                // legs run side by side, so the slowest one blocks.
                let leg =
                    encode_query_ns + shard_slice_ns[i][k] + to_message_ns + encode_ns + decode_ns;
                slowest_shard = slowest_shard.max(leg);
            }
            let (verdict, verify_ns) = t.span("core.verify", request, || {
                verify_slices(&layout, engine.client(), q, &slices)
            });
            tally.record(verdict.is_ok());
            blocking_ns += slowest_shard + verify_ns;
            let (folded, _) = t.span("crypto.hash_fold", request, || {
                let mut acc = Digest::ZERO;
                for record in slices.iter().flat_map(|s| &s.records) {
                    acc ^= ALG.hash(record);
                }
                acc
            });
            black_box(folded);
        }
        Ok(())
    })?;
    let client = dep.client.as_mut().ok_or("the traced run is networked")?;
    t.pass("pass.net.ping", |t| {
        for i in 0..PINGS {
            let (pong, _) = t.span("net.ping", i as u64, || client.ping(i % deploy::SHARDS));
            tally.record(pong.is_ok());
        }
    });

    let verify_us = per_query(t.total_us("core.verify"));
    let hash_us = per_query(t.total_us("crypto.hash_fold"));
    let blocking_us = per_query(blocking_ns as f64 / 1e3);
    put(
        "core.shard_slice_us_per_query",
        per_query(t.total_us("core.shard_slice")),
    );
    put(
        "core.sp_query_us_per_query",
        per_query(t.total_us("core.sp_query")),
    );
    put(
        "btree.range_us_per_query",
        per_query(t.total_us("btree.range")),
    );
    put(
        "storage.heap_fetch_us_per_query",
        per_query(t.total_us("storage.heap_fetch")),
    );
    put(
        "core.te_vt_us_per_query",
        per_query(t.total_us("core.te_vt")),
    );
    put(
        "xbtree.generate_vt_us_per_query",
        per_query(t.total_us("xbtree.generate_vt")),
    );
    put("net.encode_query_us", t.mean_us("net.encode_query"));
    put(
        "net.slice_to_message_us_per_query",
        per_query(t.total_us("net.slice_to_message")),
    );
    put(
        "net.encode_slice_us_per_query",
        per_query(t.total_us("net.encode_slice")),
    );
    put(
        "net.decode_slice_us_per_query",
        per_query(t.total_us("net.decode_slice")),
    );
    put("core.verify_us_per_query", verify_us);
    put("crypto.hash_us_per_query", hash_us);
    put("core.verify_self_us_per_query", verify_us - hash_us);
    put("net.blocking_path_us_per_query", blocking_us);
    put(
        "net.transport_self_us_per_query",
        net_query_us - blocking_us,
    );
    put("net.ping_rtt_us", t.mean_us("net.ping"));
    put(
        "trace.overhead_ratio",
        if w.over_network() {
            net_query_us
        } else {
            inproc_query_us
        } / untraced_us,
    );

    // ---- throughput probes of the primitives
    put(
        "crypto.sha1_mb_per_s",
        probe_mb_per_s(|b| {
            black_box(ALG.hash(b));
        }),
    );
    put(
        "storage.crc32_mb_per_s",
        probe_mb_per_s(|b| {
            black_box(crc32(b));
        }),
    );
    let digests: Vec<Digest> = (0..1024u32).map(|i| ALG.hash(&i.to_le_bytes())).collect();
    let started = Instant::now();
    let mut acc = Digest::ZERO;
    for _ in 0..1024 {
        for d in black_box(&digests) {
            acc ^= *d;
        }
    }
    black_box(acc);
    put(
        "crypto.xor_fold_ns_per_digest",
        started.elapsed().as_nanos() as f64 / (1024.0 * 1024.0),
    );
    put(
        "btree.height",
        f64::from(engine.with_sp_mut(0, |sp| sp.index().height())),
    );
    put(
        "xbtree.height",
        f64::from(engine.with_te_mut(0, |te| te.tree().height())),
    );

    // ---- writes, whole: watch the trusted entity's page-file barrier count
    // to tell which writes folded a checkpoint in
    let te_stats: Vec<_> = engine
        .party_stats()
        .into_iter()
        .filter_map(|(party, stats)| (party == "te").then_some(stats))
        .collect();
    let checkpoints_so_far = || te_stats.iter().map(|s| s.snapshot().syncs).sum::<u64>();
    let io_before = IoTotals::of(&engine);
    let (mut checkpoint_ns, mut checkpoint_writes) = (0u64, 0u64);
    t.pass("pass.core.durable_write", |t| {
        for (i, record) in whole_writes.iter().enumerate() {
            let before = checkpoints_so_far();
            let (result, ns) = t.span("core.durable_write", i as u64, || engine.insert(record));
            if checkpoints_so_far() > before {
                checkpoint_ns += ns;
                checkpoint_writes += 1;
            }
            tally.record(result.is_ok());
            if result.is_ok() {
                oracle.insert(record);
            }
        }
    });
    let io = IoTotals::of(&engine).since(&io_before);
    let durable_write_us = t.mean_us("core.durable_write");
    put("core.durable_write_us", durable_write_us);
    put(
        "storage.wal_bytes_per_write",
        per_write(io.sp.wal_bytes as f64),
    );
    put(
        "storage.wal_appends_per_write",
        per_write(io.sp.wal_appends as f64),
    );
    put(
        "storage.wal_syncs_per_write",
        per_write(io.sp.wal_syncs as f64),
    );
    put(
        "storage.checkpoint_syncs_per_write",
        per_write(io.checkpoint_syncs() as f64),
    );
    put(
        "storage.checkpoints_per_1k_writes",
        per_write(io.checkpoints() as f64) * 1e3,
    );
    put(
        "storage.checkpoint_ms",
        checkpoint_ns as f64 / 1e6 / checkpoint_writes.max(1) as f64,
    );

    // ---- the last transaction, replayed through the log's own codec and a
    // scratch log in the same directory
    let mut last = whole_writes.last().ok_or("the traced run writes")?;
    let mut spare_writes = spare_writes.iter();
    let (tx_records, tail_bytes) = loop {
        if let Some(found) = last_transaction(&engine, layout.shard_of(last.key))? {
            break found;
        }
        // The write that would have been replayed folded a checkpoint in,
        // which rotated its log away; the next write's cannot have.
        last = spare_writes.next().ok_or("ran out of spare writes")?;
        tally.record(engine.insert(last).is_ok());
        oracle.insert(last);
    };
    put("net.tail_bytes_per_write", tail_bytes as f64);
    let scratch = WalWriter::create(
        data.path().join("scratch-wal.log"),
        0,
        IoStats::new_shared(),
    )?;
    t.pass("pass.storage.wal", |t| -> Res<()> {
        for i in 0..WAL_REPLAYS as u64 {
            let (bytes, _) = t.span("storage.wal_encode", i, || encode_records(&tx_records));
            black_box(bytes);
            scratch.append(&tx_records)?;
            let (synced, _) = t.span("storage.sync", i, || scratch.sync());
            synced?;
        }
        Ok(())
    })?;
    drop(scratch);
    put(
        "storage.wal_encode_us_per_write",
        t.mean_us("storage.wal_encode"),
    );
    put("storage.sync_us", t.mean_us("storage.sync"));

    // ---- writes, stage by stage: mutate each party directly, then undo it
    // untimed; periodic flushes keep the uncommitted write set small
    t.pass("pass.core.mutate", |t| -> Res<()> {
        for (i, record) in staged_writes.iter().enumerate() {
            let shard = layout.shard_of(record.key);
            let (sp_result, _) = engine.with_sp_mut(shard, |sp| {
                t.span("core.sp_mutate", i as u64, || sp.insert(record))
            });
            sp_result?;
            let (te_result, _) = engine.with_te_mut(shard, |te| {
                t.span("core.te_mutate", i as u64, || te.insert(record))
            });
            te_result?;
            let undone = engine.with_te_mut(shard, |te| te.delete(record.id, record.key))?
                && engine.with_sp_mut(shard, |sp| sp.delete(record.id, record.key))?;
            tally.record(undone);
            if (i + 1) % STAGED_FLUSH_EVERY == 0 {
                engine.flush()?;
            }
        }
        Ok(engine.flush()?)
    })?;
    let sp_mutate_us = t.mean_us("core.sp_mutate");
    let te_mutate_us = t.mean_us("core.te_mutate");
    put("core.sp_mutate_us_per_write", sp_mutate_us);
    put("core.te_mutate_us_per_write", te_mutate_us);
    put(
        "core.commit_us_per_write",
        durable_write_us - sp_mutate_us - te_mutate_us,
    );

    // ---- the trees alone: in-memory copies of the whole dataset's indexes
    let sorted = dataset.sorted_by_key();
    let entries: Vec<(u32, u64)> = sorted
        .iter()
        .enumerate()
        .map(|(pos, r)| (r.key, pos as u64))
        .collect();
    let tuples: Vec<TeTuple> = sorted.iter().map(|r| r.te_tuple(ALG)).collect();
    drop(sorted);
    drop(dataset);
    let mut btree = BPlusTree::bulk_load(MemPager::new_shared(), &entries)?;
    let mut xbtree = XbTree::bulk_load(MemPager::new_shared(), &tuples)?;
    let new_tuples: Vec<TeTuple> = staged_writes.iter().map(|r| r.te_tuple(ALG)).collect();
    t.pass("pass.trees.insert", |t| -> Res<()> {
        for (i, (record, tuple)) in staged_writes.iter().zip(new_tuples).enumerate() {
            let rid = (entries.len() + i) as u64;
            let (r, _) = t.span("btree.insert", i as u64, || btree.insert(record.key, rid));
            r?;
            let (r, _) = t.span("xbtree.insert", i as u64, || xbtree.insert(tuple));
            r?;
        }
        Ok(())
    })?;
    put("btree.insert_us_per_write", t.mean_us("btree.insert"));
    put("xbtree.insert_us_per_write", t.mean_us("xbtree.insert"));
    drop((btree, xbtree, entries, tuples));

    // ---- what replication would ship
    let mut snapshot_bytes = 0;
    for shard in 0..engine.shard_count() {
        snapshot_bytes += engine.export_shard_snapshot(shard)?.len();
    }
    put(
        "net.snapshot_bytes_per_user_byte",
        snapshot_bytes as f64 / user_bytes(oracle.len()),
    );

    // ---- correctness gate, then the kill: reopen replays an un-checkpointed log
    let kill_batch = durable_inserts(&engine, kill, &mut oracle, &mut tally);
    drop(engine);
    let written: Vec<&Record> = whole_writes.iter().chain(kill).collect();
    let oracle_mismatches = oracle_sample(
        &mut dep,
        &oracle,
        queries,
        &written,
        sizes.oracle_samples,
        &mut tally,
    )?;
    let tamper_detected = tamper_probe(&dep, &oracle, queries)?;
    tally.record(tamper_detected);
    let (reopened, replay_s) = dep.kill_and_reopen()?;
    put("core.replay_ms", replay_s * 1e3);
    let lost = read_back(&reopened, &oracle, &written, &mut tally)?;
    reopened.close()?;

    let trace_out = opts.trace_out.clone().unwrap_or_else(|| {
        PathBuf::from(deploy::DEFAULT_ROOT).join(format!("trace-{}.json", w.name()))
    });
    if let Some(parent) = trace_out.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&trace_out, Tree(t.to_content()).render())?;

    let phases = obj([
        ("filesystem", data.filesystem().to_content()),
        ("trace_file", trace_out.display().to_string().to_content()),
        ("spans", t.spans().len().to_content()),
        ("queries_per_pass", q_count.to_content()),
        ("writes_per_pass", w_count.to_content()),
        ("untraced_query_us", untraced_us.to_content()),
        ("untraced_query_before_us", untraced_before_us.to_content()),
        ("checkpointing_writes", checkpoint_writes.to_content()),
        (
            "replayed_transaction_records",
            tx_records.len().to_content(),
        ),
        (
            "gate",
            obj([
                ("oracle_mismatches", oracle_mismatches.to_content()),
                ("tamper_detected", tamper_detected.to_content()),
                ("kill_writes", kill_batch.lat_ns.len().to_content()),
                ("read_back", written.len().to_content()),
                ("read_back_lost", lost.to_content()),
            ]),
        ),
    ]);
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        phases,
    })
}
