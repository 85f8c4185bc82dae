//! The untraced run: what a user of the system sees. One process, one
//! closed-loop caller, phases
//!
//! setup (timed, repeated, fastest) → write prelude → `flush()` → footprint →
//! warm-up → measured window → kill writes → oracle sample → tamper probe →
//! kill-and-reopen read-back.
//!
//! Every input is generated from the seed before a clock starts, latency
//! vectors are allocated up front, and nothing is printed inside a timed
//! region.

use crate::check::Oracle;
use crate::deploy::{self, dir_bytes, DataDir, Deployment, SetupTimes, RECORD_SIZE};
use crate::harness::{
    durable_inserts, latency_json, oracle_sample, peak_rss_mb, read_back, tamper_probe, user_bytes,
    IoTotals, Sizes, Tally,
};
use crate::stats::{best_decile, median, per_second_percentiles, SecondLog};
use crate::workload::write_records;
use crate::{obj, Options, Outcome, Res};
use sae_core::ShardedSaeEngine;
use sae_net::{encode_frame, slice_to_message, Message};
use sae_workload::{DatasetSpec, KeyDistribution, RangeQuery, Record};
use serde::{Content, Serialize};
use std::time::{Duration, Instant};

/// The write half of `durable_mix`: insert a fresh record; once two inserts
/// are outstanding, every other turn deletes the oldest instead, so the live
/// set stays level.
struct Mixer<'a> {
    records: &'a [Record],
    inserted: usize,
    deleted: usize,
    turn: u64,
    lat_ns: Vec<u64>,
}

impl Mixer<'_> {
    /// One durable write. `None` when the pre-generated records ran out.
    fn step(&mut self, engine: &ShardedSaeEngine) -> Option<bool> {
        let delete = self.turn % 2 == 1 && self.inserted - self.deleted >= 2;
        self.turn += 1;
        let started = Instant::now();
        let ok = if delete {
            let victim = &self.records[self.deleted];
            self.deleted += 1;
            matches!(engine.delete(victim.id, victim.key), Ok(true))
        } else {
            let record = self.records.get(self.inserted)?;
            self.inserted += 1;
            engine.insert(record).is_ok()
        };
        self.lat_ns.push(started.elapsed().as_nanos() as u64);
        Some(ok)
    }
}

/// What one timed stretch of the closed loop did.
struct Stretch {
    /// Per query: the latency the caller observed.
    query_ns: Vec<u64>,
    /// Per query: the second of the stretch it completed in.
    query_second: Vec<u32>,
    seconds: SecondLog,
    queries: u64,
    writes: u64,
    failed: u64,
    records: u64,
    wire_bytes: u64,
    elapsed_s: f64,
}

/// Runs the closed loop — one verified query, then (with a mixer) one
/// durable write, each finished before the next starts — until `duration`'s
/// whole seconds have closed, or, for a stretch shorter than a second, until
/// `duration` has passed.
fn closed_loop(
    dep: &mut Deployment,
    queries: &[RangeQuery],
    next_query: &mut usize,
    duration: Duration,
    mut mixer: Option<&mut Mixer<'_>>,
) -> Res<Stretch> {
    let whole_seconds = duration.as_secs() as usize;
    let capacity = whole_seconds.max(1) * 100_000;
    let opened = Instant::now();
    let since_opened = |at: Instant| (at - opened).as_nanos() as u64;
    let mut s = Stretch {
        query_ns: Vec::with_capacity(capacity),
        query_second: Vec::with_capacity(capacity),
        seconds: SecondLog::open_at(0, whole_seconds),
        queries: 0,
        writes: 0,
        failed: 0,
        records: 0,
        wire_bytes: 0,
        elapsed_s: 0.0,
    };
    loop {
        let q = &queries[*next_query % queries.len()];
        *next_query += 1;
        let started = Instant::now();
        let answer = dep.ask(q)?;
        let done = Instant::now();
        s.query_ns.push((done - started).as_nanos() as u64);
        s.query_second.push(s.seconds.complete(since_opened(done)));
        s.queries += 1;
        s.failed += u64::from(!answer.ok);
        s.records += answer.records() as u64;
        s.wire_bytes += answer.wire_bytes;
        drop(answer);

        if let Some(mixer) = mixer.as_deref_mut() {
            let Some(ok) = mixer.step(&dep.engine) else {
                break;
            };
            s.seconds.complete(since_opened(Instant::now()));
            s.writes += 1;
            s.failed += u64::from(!ok);
        }
        let finished = if whole_seconds > 0 {
            s.seconds.seconds().len() >= whole_seconds
        } else {
            opened.elapsed() >= duration
        };
        if finished {
            break;
        }
    }
    s.elapsed_s = opened.elapsed().as_secs_f64();
    Ok(s)
}

/// Request + response frame bytes per byte of records returned, over
/// `queries`, sized with the wire codec but never sent — the in-process
/// workloads' view of the paper's Fig. 5 quantity.
fn framed_bytes_per_user_byte(engine: &ShardedSaeEngine, queries: &[RangeQuery]) -> Res<f64> {
    let (mut wire, mut user) = (0u64, 0u64);
    for q in queries {
        for (shard, sub) in engine.layout().overlapping_clamped(q) {
            wire += encode_frame(&Message::Query {
                shard: shard as u32,
                range: sub,
            })
            .len() as u64;
            let slice = engine.shard_slice(shard, &sub)?;
            let message = slice_to_message(&slice, RECORD_SIZE, engine.shard_epoch(shard))
                .ok_or("slice exceeds the frame cap")?;
            wire += encode_frame(&message).len() as u64;
            user += (slice.records.len() * RECORD_SIZE) as u64;
        }
    }
    if user == 0 {
        return Err("the wire sample returned no records".into());
    }
    Ok(wire as f64 / user as f64)
}

fn setup_json(t: &SetupTimes) -> Content {
    obj([
        ("dataset_gen_s", t.dataset_gen_s.to_content()),
        ("build_s", t.build_s.to_content()),
        ("close_s", t.close_s.to_content()),
        ("reopen_s", t.reopen_s.to_content()),
        ("connect_s", t.connect_s.to_content()),
        ("first_query_s", t.first_query_s.to_content()),
        ("total_s", t.total_s.to_content()),
    ])
}

/// Runs one workload once and reports every end-to-end metric.
pub fn run(opts: &Options, sizes: &Sizes) -> Res<Outcome> {
    let w = opts.workload;
    let layout = deploy::layout();
    let window = Duration::from_secs(opts.seconds);

    // ---- inputs, all from the seed, before any clock starts
    // The dataset is generated again inside every timed setup; this copy
    // only gives the query generator the keys.
    let keys = DatasetSpec::paper(sizes.records, KeyDistribution::unf(), opts.seed)
        .generate()
        .sorted_keys();
    let queries = w.queries(&layout, &keys, opts.seed, sizes.query_pool);
    drop(keys);
    let mix_pool = if w.mixes_writes() {
        // Half the write turns are inserts; warm-up draws from the pool too.
        sizes.mix_writes_per_second * (opts.seconds + sizes.warmup.as_secs() + 1) as usize / 2
    } else {
        0
    };
    let writes = write_records(
        layout.domain(),
        RECORD_SIZE,
        opts.seed,
        0,
        sizes.prelude_writes + sizes.kill_writes + mix_pool,
    );
    let (prelude, rest) = writes.split_at(sizes.prelude_writes);
    let (kill, mix_records) = rest.split_at(sizes.kill_writes);

    // ---- setup, timed, repeated: the last deployment is the one measured
    let data = DataDir::create(opts.data_root.as_deref(), w.name())?;
    let filesystem = data.filesystem();
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(sizes.setups);
    let mut kept = None;
    for k in 0..sizes.setups {
        let (dep, dataset, times) = Deployment::setup(
            w,
            w.over_network(),
            sizes.records,
            opts.seed,
            &data.deployment(k),
            &queries[0],
        )?;
        setups.push(times);
        if k + 1 < sizes.setups {
            drop(dataset);
            dep.discard()?;
        } else {
            kept = Some((dep, dataset));
        }
    }
    let (mut dep, dataset) = kept.ok_or("a run needs at least one setup")?;
    let totals: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    // The host only ever slows a setup, and the first of a process is cold:
    // the fastest is what the program needs, the median goes in the report.
    let setup_s = totals
        .iter()
        .copied()
        .reduce(f64::min)
        .ok_or("no setup was timed")?;
    let mut oracle = Oracle::new(&dataset);
    drop(dataset);
    let mut tally = Tally::default();
    // The first verified query of each setup.
    tally.add(sizes.setups as u64, 0);

    // ---- write prelude → flush → footprint, at a point fixed by count
    let mut prelude_batch = durable_inserts(&dep.engine, prelude, &mut oracle, &mut tally);
    dep.engine.flush()?;
    let stored_bytes = dir_bytes(&dep.dir)?;
    let stored_per_user = stored_bytes as f64 / user_bytes(oracle.len());

    let framed = if w.over_network() {
        None
    } else {
        let sample = &queries[queries.len() - sizes.wire_samples.min(queries.len())..];
        Some(framed_bytes_per_user_byte(&dep.engine, sample)?)
    };

    // ---- warm-up, then the measured window
    let mut mixer = w.mixes_writes().then(|| Mixer {
        records: mix_records,
        inserted: 0,
        deleted: 0,
        turn: 0,
        lat_ns: Vec::with_capacity(mix_records.len() * 2),
    });
    let mut next_query = 1;
    let warm = closed_loop(
        &mut dep,
        &queries,
        &mut next_query,
        sizes.warmup,
        mixer.as_mut(),
    )?;
    tally.add(warm.queries + warm.writes, warm.failed);
    let warm_writes = mixer.as_ref().map_or(0, |m| m.lat_ns.len());
    let io_before = IoTotals::of(&dep.engine);
    let mut win = closed_loop(&mut dep, &queries, &mut next_query, window, mixer.as_mut())?;
    let window_io = IoTotals::of(&dep.engine).since(&io_before);
    tally.add(win.queries + win.writes, win.failed);

    // ---- write-cost counts: the window's writes on durable_mix, the
    // prelude's elsewhere
    let (write_io, write_count) = match &mixer {
        Some(_) => (window_io, win.writes),
        None => (prelude_batch.io, prelude.len() as u64),
    };
    if write_count == 0 {
        return Err("no durable write completed, the write-cost metrics are undefined".into());
    }
    let log_bytes_per_write = write_io.sp.wal_bytes as f64 / write_count as f64;
    let syncs_per_write = write_io.syncs() as f64 / write_count as f64;

    // ---- everything the run wrote, for the oracle and the read-back
    let mut written: Vec<&Record> = prelude.iter().collect();
    if let Some(m) = &mixer {
        for record in &mix_records[..m.inserted] {
            oracle.insert(record);
        }
        for record in &mix_records[..m.deleted] {
            oracle.delete(record);
        }
        written.extend(&mix_records[..m.inserted]);
    }
    // Kill writes: acknowledged, never checkpointed.
    let kill_batch = durable_inserts(&dep.engine, kill, &mut oracle, &mut tally);
    written.extend(kill);

    // ---- correctness gate
    let oracle_mismatches = oracle_sample(
        &mut dep,
        &oracle,
        &queries,
        &written,
        sizes.oracle_samples,
        &mut tally,
    )?;
    let tamper_detected = if w.over_network() {
        let detected = tamper_probe(&dep, &oracle, &queries)?;
        tally.record(detected);
        Some(detected)
    } else {
        None
    };
    let (reopened, replay_s) = dep.kill_and_reopen()?;
    let lost = read_back(&reopened, &oracle, &written, &mut tally)?;
    reopened.close()?;

    // ---- metrics
    let per_second_us = |p: f64| -> Vec<f64> {
        per_second_percentiles(&win.query_ns, &win.query_second, opts.seconds, p)
            .into_iter()
            .map(|ns| ns / 1e3)
            .collect()
    };
    let steady = |per_second: &[f64], lower_is_better: bool| {
        best_decile(per_second, lower_is_better).ok_or("the window closed no second")
    };
    let (p50s, p95s, rates) = (
        per_second_us(50.0),
        per_second_us(95.0),
        win.seconds.rates(),
    );
    let wire_per_user = match framed {
        Some(ratio) => ratio,
        None if win.records == 0 => return Err("the window returned no records".into()),
        None => win.wire_bytes as f64 / (win.records as f64 * RECORD_SIZE as f64),
    };
    let metrics = vec![
        ("setup_s".to_string(), setup_s),
        ("verified_ops_per_s".to_string(), steady(&rates, false)?),
        ("query_p50_us".to_string(), steady(&p50s, true)?),
        ("log_bytes_per_write".to_string(), log_bytes_per_write),
        ("syncs_per_write".to_string(), syncs_per_write),
        ("wire_bytes_per_user_byte".to_string(), wire_per_user),
        ("stored_bytes_per_user_byte".to_string(), stored_per_user),
        ("peak_rss_mb".to_string(), peak_rss_mb()?),
    ];

    let total_ops = win.queries + win.writes;
    let completions: Vec<u64> = win
        .seconds
        .seconds()
        .iter()
        .map(|s| s.completions)
        .collect();
    let phases = obj([
        ("filesystem", filesystem.to_content()),
        (
            "setup",
            obj([
                ("fastest_s", setup_s.to_content()),
                ("median_s", median(&totals).to_content()),
                (
                    "runs",
                    Content::Seq(setups.iter().map(setup_json).collect()),
                ),
            ]),
        ),
        (
            "prelude",
            obj([
                ("writes", prelude.len().to_content()),
                ("latency", latency_json(&mut prelude_batch.lat_ns)),
                ("wal_bytes", prelude_batch.io.sp.wal_bytes.to_content()),
                ("syncs", prelude_batch.io.syncs().to_content()),
                ("checkpoints", prelude_batch.io.checkpoints().to_content()),
                ("stored_bytes", stored_bytes.to_content()),
                ("live_records", oracle.len().to_content()),
            ]),
        ),
        (
            "warmup",
            obj([
                ("queries", warm.queries.to_content()),
                ("writes", warm.writes.to_content()),
                ("elapsed_s", warm.elapsed_s.to_content()),
            ]),
        ),
        (
            "window",
            obj([
                ("queries", win.queries.to_content()),
                ("writes", win.writes.to_content()),
                ("elapsed_s", win.elapsed_s.to_content()),
                (
                    "ops_per_s_total_over_elapsed",
                    (total_ops as f64 / win.elapsed_s).to_content(),
                ),
                (
                    "best_decile_of_seconds",
                    obj([("p95_us", steady(&p95s, true)?.to_content())]),
                ),
                (
                    "median_of_seconds",
                    obj([
                        ("ops_per_s", median(&rates).to_content()),
                        ("p50_us", median(&p50s).to_content()),
                        ("p95_us", median(&p95s).to_content()),
                    ]),
                ),
                (
                    "per_second",
                    obj([
                        ("completions", completions.to_content()),
                        ("ops_per_s", rates.to_content()),
                        ("p50_us", p50s.to_content()),
                        ("p95_us", p95s.to_content()),
                    ]),
                ),
                ("all_samples", latency_json(&mut win.query_ns)),
                ("records_returned", win.records.to_content()),
                ("wire_bytes", win.wire_bytes.to_content()),
                ("checkpoints", window_io.checkpoints().to_content()),
            ]),
        ),
        (
            "writes",
            obj([
                ("counted", write_count.to_content()),
                (
                    "window_latency",
                    mixer
                        .as_mut()
                        .map(|m| latency_json(&mut m.lat_ns[warm_writes..]))
                        .unwrap_or(Content::Null),
                ),
                ("wal_bytes", write_io.sp.wal_bytes.to_content()),
                ("wal_syncs", write_io.sp.wal_syncs.to_content()),
                ("checkpoint_syncs", write_io.checkpoint_syncs().to_content()),
            ]),
        ),
        (
            "gate",
            obj([
                ("oracle_samples", sizes.oracle_samples.to_content()),
                ("oracle_mismatches", oracle_mismatches.to_content()),
                ("tamper_detected", tamper_detected.to_content()),
                ("kill_writes", kill_batch.lat_ns.len().to_content()),
                ("reopen_after_kill_s", replay_s.to_content()),
                ("read_back", written.len().to_content()),
                ("read_back_lost", lost.to_content()),
            ]),
        ),
    ]);
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        phases,
    })
}
