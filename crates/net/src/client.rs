//! The verifying scatter-gather client with concurrent fan-out, replica
//! failover, and true hedged reads.
//!
//! [`NetClient`] is the networked twin of the in-process
//! [`sae_core::ShardedSaeEngine::query`] path. Given a published
//! [`ShardLayout`] and a [`Topology`] naming every replica endpoint per
//! shard, it derives the responder set *from the layout* (never from who
//! happened to answer), fetches one slice per overlapping shard over the
//! wire, and hands the gathered slices to [`sae_core::verify_slices`] — the
//! *same* function the in-process engine runs. There is no separate, weaker
//! "network verification".
//!
//! The scatter phase actually scatters, without handing the query to
//! another thread: an un-hedged wave of fetch jobs (the first wave, and each
//! refetch wave after a failed verification) runs on the caller thread as a
//! pipelined scatter. Its send phase writes every job's `QUERY` before its
//! receive phase reads any answer, so the servers work on all shards at once
//! and a query spanning S shards pays roughly the *slowest* round trip, not
//! their sum — and a single-shard point query pays one round trip with no
//! thread hop. Answers are read in slot order; a failed leg's failover and
//! a stale slice's sibling pass continue inline from there. Only a wave
//! that can hedge goes to a small worker pool, whose jobs race detached
//! hedge legs.
//!
//! Replicas change *availability*, never *trust*: every endpoint is equally
//! untrusted, so failover needs no handshake — a replica that is down,
//! returns an error, advertises an epoch below the client's verified
//! high-water mark, or doctors its slice is **demoted** and the sub-query
//! re-issued to a sibling, whose slice faces the exact same token
//! verification. An honest refusal is not a fault, and demotes nobody. A
//! `NOT_SYNCED` answer (a replica still installing its snapshot) is
//! recorded as an endpoint error and a sibling is asked. A
//! `RESPONSE_TOO_LARGE` answer (the slice exceeds the frame cap) is
//! deterministic — every replica would refuse alike — so no sibling is
//! asked: the shard ends with [`ShardedVerifyError::ResponseTooLarge`].
//! A merely *slow* replica is hedged, not demoted: with
//! [`NetClientConfig::hedge_timeout`] set, a sibling is raced after the
//! window expires and the first valid slice wins, while the loser drains in
//! the background and returns its connection to the pool. Demoted endpoints
//! are retried by [`NetClient::probe_health`], so a restarted replica
//! re-admits itself.
//!
//! Freshness is a *heuristic*, not a proof: the advertised epoch is not
//! covered by the token (an old slice verifies against old state), so the
//! high-water check can only detect staleness relative to what this client
//! has already verified — see `docs/replication.md` for the exact
//! guarantee.

use crate::frame::{code, read_frame, write_frame, Message, NetError, NetResult};
use crate::topology::Topology;
use parking_lot::Mutex;
use sae_core::ShardedVerifyError;
use sae_core::{verify_slices, SaeClient, ShardLayout, ShardSlice, ShardedSaeEngine};
use sae_workload::RangeQuery;
use std::collections::{HashMap, HashSet};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Timeouts and failover knobs for every connection a [`NetClient`] opens.
#[derive(Clone, Copy, Debug)]
pub struct NetClientConfig {
    /// Bound on establishing a TCP connection to an endpoint.
    pub connect_timeout: Duration,
    /// Bound on waiting for a response frame.
    pub read_timeout: Duration,
    /// Bound on writing a request frame.
    pub write_timeout: Duration,
    /// True hedged reads: when a shard has sibling replicas and its first
    /// leg has produced no response after this window, a second leg races
    /// the next untried sibling and the **first valid slice wins**. The
    /// loser is drained in the background (its pooled connection survives)
    /// and is *not* demoted for being slow — only for answering badly.
    /// `None` (the default) disables hedging.
    pub hedge_timeout: Option<Duration>,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        NetClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            hedge_timeout: None,
        }
    }
}

/// The networked, verifying range-query client: scatter over per-shard
/// replica groups concurrently, gather one slice per overlapping shard,
/// verify exactly as in-process, failing over between siblings as needed.
///
/// Connections are owned handles in a shared pool: a fetch leg *checks out*
/// the endpoint's pooled connection (or dials its own), uses it exclusively,
/// and returns it on success — so legs in flight at once never interleave
/// frames on one socket. A connection that errors is discarded; for transport
/// errors on a pooled connection the same endpoint is re-dialled once
/// before its replica is demoted and a sibling tried.
///
/// The public API stays `&mut self`: one `NetClient` per driver thread,
/// with the concurrency internal to each call.
pub struct NetClient {
    layout: ShardLayout,
    client: SaeClient,
    shared: Arc<ClientShared>,
    workers: WorkerPool,
    /// Per-shard verified-epoch high-water mark: the freshness floor below
    /// which an advertised epoch demotes its replica. Raised only by
    /// slices that passed verification, only on the caller thread — fetch
    /// jobs receive the floor by value and never write it back.
    hwm: Vec<u64>,
}

/// State shared between the caller thread, the pool workers of hedged
/// waves, and detached hedge legs. Each field has its own mutex and none is
/// ever held while another is acquired (enforced by the
/// `jobs`/`pool`/`demoted`/`cursor` lock ranks in `analyzer.toml`): every
/// access copies data out or mutates in place within a single statement.
struct ClientShared {
    topology: Topology,
    cfg: NetClientConfig,
    /// Idle pooled connections by endpoint, checked out exclusively.
    pool: Mutex<HashMap<String, TcpStream>>,
    /// Endpoints that answered badly and were not yet re-admitted.
    demoted: Mutex<HashSet<String>>,
    /// Per-shard round-robin cursor into the replica group.
    cursor: Mutex<Vec<usize>>,
}

/// A boxed fetch job for the worker pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A small reusable worker pool over `std::sync::mpsc`: the fetch jobs of
/// hedged waves and probe pings run here. Hedge legs do NOT — a leg
/// abandoned to drain in the background must never occupy a pool slot, so
/// legs are detached threads (see `spawn_leg`).
struct WorkerPool {
    tx: Option<mpsc::Sender<Job>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(size: usize) -> NetResult<WorkerPool> {
        let (tx, rx) = mpsc::channel::<Job>();
        let jobs = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(size);
        for i in 0..size {
            let jobs = Arc::clone(&jobs);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sae-net-io-{i}"))
                    .spawn(move || loop {
                        // The receiver lock is held only to dequeue, never
                        // while the job runs.
                        let job = match jobs.lock().recv() {
                            Ok(job) => job,
                            Err(_) => return,
                        };
                        job();
                    })
                    .map_err(NetError::from)?,
            );
        }
        Ok(WorkerPool {
            tx: Some(tx),
            threads,
        })
    }

    /// Runs `job` on a worker thread; if the pool is unavailable the job
    /// runs inline so callers never lose a result.
    fn submit(&self, job: Job) {
        match &self.tx {
            Some(tx) => {
                if let Err(mpsc::SendError(job)) = tx.send(job) {
                    job();
                }
            }
            None => job(),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.tx.take());
        for handle in self.threads.drain(..) {
            drop(handle.join());
        }
    }
}

/// What one [`NetClient::probe_health`] sweep found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeReport {
    /// Pooled connections that answered the probe.
    pub pooled_alive: u64,
    /// Pooled connections that failed and were discarded.
    pub pooled_dropped: u64,
    /// Demoted endpoints that answered a fresh-dial probe and were
    /// re-admitted.
    pub revived: u64,
    /// Demoted endpoints still not answering.
    pub still_down: u64,
}

/// Everything one networked range query produced. The query itself is
/// infallible at the transport level by design: endpoint failures are not
/// "errors", they are *evidence*, folded into the [`verdict`] exactly like
/// a shard that refused to answer in-process.
///
/// [`verdict`]: NetQueryOutcome::verdict
#[derive(Debug)]
pub struct NetQueryOutcome {
    /// The slices that were actually received and kept, ascending by shard.
    pub slices: Vec<ShardSlice>,
    /// The client-side verification verdict over the published layout —
    /// produced by [`sae_core::verify_slices`], the same function the
    /// in-process engine uses.
    pub verdict: Result<(), ShardedVerifyError>,
    /// Transport- or protocol-level failures, one per affected attempt.
    /// A shard with no surviving slice also surfaces in [`verdict`] as a
    /// missing slice, or as a too-large refusal.
    ///
    /// [`verdict`]: NetQueryOutcome::verdict
    pub endpoint_errors: Vec<(usize, NetError)>,
    /// Failover legs: demote-and-retry hops to a sibling replica (dead,
    /// erroring, stale or byzantine sources all count).
    pub failovers: u64,
    /// Slices refused by the freshness check (advertised epoch below the
    /// verified high-water mark) before any sibling was consulted.
    pub stale_refused: u64,
    /// Hedge legs raced: a sibling was dispatched because the first leg
    /// produced no response within [`NetClientConfig::hedge_timeout`].
    /// Unlike [`failovers`], a hedge demotes nobody.
    ///
    /// [`failovers`]: NetQueryOutcome::failovers
    pub hedges: u64,
    /// Request bytes written across all endpoints.
    pub bytes_sent: u64,
    /// Response bytes read across all endpoints.
    pub bytes_received: u64,
}

impl NetQueryOutcome {
    /// Total records across all gathered slices.
    pub fn record_count(&self) -> usize {
        self.slices.iter().map(|s| s.records.len()).sum()
    }
}

/// One per-shard fetch job of a wave.
struct FetchJob {
    /// Index into the query's expected-shard table (slot to fill).
    at: usize,
    shard: usize,
    sub: RangeQuery,
    /// The shard's verified-epoch freshness floor at dispatch time.
    floor: u64,
    /// Endpoints already consulted for this shard in this query — bounds
    /// every refetch loop by the replica group size.
    tried: HashSet<String>,
    attempts: usize,
}

/// What one fetch job produced.
struct FetchDone {
    at: usize,
    shard: usize,
    sub: RangeQuery,
    slice: Option<ShardSlice>,
    /// The endpoint whose slice is currently held for this shard.
    source: Option<String>,
    epoch: u64,
    tried: HashSet<String>,
    counters: QueryCounters,
}

/// Mutable counters threaded through the passes. Each fetch job accumulates
/// its own copy; the caller thread merges them — no shared counter locks.
#[derive(Default)]
struct QueryCounters {
    bytes_sent: u64,
    bytes_received: u64,
    failovers: u64,
    stale_refused: u64,
    hedges: u64,
    errors: Vec<(usize, NetError)>,
}

impl QueryCounters {
    fn merge(&mut self, other: QueryCounters) {
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.failovers += other.failovers;
        self.stale_refused += other.stale_refused;
        self.hedges += other.hedges;
        self.errors.extend(other.errors);
    }
}

/// One request/response exchange against one endpoint, as seen from a leg.
struct Leg {
    endpoint: String,
    outcome: Result<(ShardSlice, u64), NetError>,
    bytes_sent: u64,
    bytes_received: u64,
}

impl NetClient {
    /// A client for a published `layout`, verifying with `client`, scattering
    /// over `topology`. Fails if the topology does not cover the layout
    /// one group per shard, or if the worker pool cannot start.
    pub fn new(
        layout: ShardLayout,
        client: SaeClient,
        topology: Topology,
        cfg: NetClientConfig,
    ) -> NetResult<NetClient> {
        if topology.shard_count() != layout.shard_count() {
            return Err(NetError::Malformed(
                "topology must name exactly one replica group per layout shard",
            ));
        }
        let shards = layout.shard_count();
        // One worker per shard saturates the widest possible fan-out; the
        // floor keeps probe sweeps parallel on small layouts and the cap
        // keeps thread counts sane on very wide ones.
        let workers = WorkerPool::spawn(shards.clamp(4, 16))?;
        Ok(NetClient {
            layout,
            client,
            shared: Arc::new(ClientShared {
                topology,
                cfg,
                pool: Mutex::new(HashMap::new()),
                demoted: Mutex::new(HashSet::new()),
                cursor: Mutex::new(vec![0; shards]),
            }),
            workers,
            hwm: vec![0; shards],
        })
    }

    /// Convenience constructor taking the layout and verification
    /// parameters from an engine, with one endpoint per shard — the PR 8
    /// shape, still the common one in tests.
    pub fn for_engine(engine: &ShardedSaeEngine, endpoints: Vec<String>) -> NetResult<NetClient> {
        Self::for_engine_topology(
            engine,
            Topology::single(endpoints),
            NetClientConfig::default(),
        )
    }

    /// Convenience constructor for a replicated deployment: layout and
    /// verification parameters from the engine, endpoints from `topology`.
    pub fn for_engine_topology(
        engine: &ShardedSaeEngine,
        topology: Topology,
        cfg: NetClientConfig,
    ) -> NetResult<NetClient> {
        let template = engine.client();
        let client = match template.record_len() {
            Some(len) => SaeClient::with_record_len(template.algorithm(), len),
            None => SaeClient::new(template.algorithm()),
        };
        NetClient::new(engine.layout().clone(), client, topology, cfg)
    }

    /// The published layout this client scatters over.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// The topology this client fails over across.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// Endpoints currently demoted (answered badly and not yet re-admitted).
    pub fn demoted(&self) -> Vec<String> {
        let mut list: Vec<String> = self.shared.demoted.lock().iter().cloned().collect();
        list.sort();
        list
    }

    /// The verified-epoch high-water mark for `shard` (0 until a slice at a
    /// positive epoch verifies).
    pub fn high_water_mark(&self, shard: usize) -> u64 {
        self.hwm.get(shard).copied().unwrap_or(0)
    }

    /// Health-checks shard `shard`'s preferred replica with a `Ping`/`Pong`
    /// round trip.
    pub fn ping(&mut self, shard: usize) -> NetResult<()> {
        let list = candidates(&self.shared, shard);
        let Some(endpoint) = list.first() else {
            return Err(NetError::Malformed("shard id outside the topology"));
        };
        ping_endpoint(&self.shared, endpoint)
    }

    /// One health sweep (the S1 probe): `Ping` every pooled connection
    /// (discarding dead ones) and fresh-dial every demoted endpoint,
    /// re-admitting those that answer `Pong` again. All pings run
    /// concurrently on the worker pool. Run it after a deployment change.
    pub fn probe_health(&mut self) -> ProbeReport {
        let demoted_now: Vec<String> = self.demoted();
        let mut pooled: Vec<String> = self.shared.pool.lock().keys().cloned().collect();
        pooled.retain(|e| !demoted_now.contains(e));
        for endpoint in &demoted_now {
            // A demoted endpoint's pooled socket (if any) is untrustworthy;
            // probe over a fresh dial.
            self.shared.pool.lock().remove(endpoint);
        }
        let (tx, rx) = mpsc::channel();
        let mut outstanding = 0usize;
        let probes = pooled
            .into_iter()
            .map(|e| (e, false))
            .chain(demoted_now.into_iter().map(|e| (e, true)));
        for (endpoint, was_demoted) in probes {
            let shared = Arc::clone(&self.shared);
            let tx = tx.clone();
            outstanding += 1;
            self.workers.submit(Box::new(move || {
                let alive = ping_endpoint(&shared, &endpoint).is_ok();
                drop(tx.send((was_demoted, alive, endpoint)));
            }));
        }
        drop(tx);
        let mut report = ProbeReport::default();
        for _ in 0..outstanding {
            let Ok((was_demoted, alive, endpoint)) = rx.recv() else {
                break;
            };
            match (was_demoted, alive) {
                (false, true) => report.pooled_alive += 1,
                // The failed exchange already evicted the socket.
                (false, false) => report.pooled_dropped += 1,
                (true, true) => {
                    self.shared.demoted.lock().remove(&endpoint);
                    report.revived += 1;
                }
                (true, false) => report.still_down += 1,
            }
        }
        report
    }

    /// One verified scatter-gather range query. Every shard overlapping `q`
    /// under the published layout **must** produce a verifying slice for the
    /// verdict to be `Ok` — a replica that is down, times out, answers with
    /// an error, advertises a stale epoch, or doctors its slice is demoted
    /// and its siblings tried; only when a whole replica group fails does
    /// the shard surface in the verdict as missing.
    ///
    /// The per-shard fetch jobs are in flight at once (see the module
    /// docs); the stitch and the [`sae_core::verify_slices`] verdict run
    /// here on the caller thread.
    pub fn query(&mut self, q: &RangeQuery) -> NetQueryOutcome {
        let mut counters = QueryCounters::default();
        let jobs: Vec<FetchJob> = self
            .layout
            .overlapping_clamped(q)
            .into_iter()
            .enumerate()
            .map(|(at, (shard, sub))| FetchJob {
                at,
                shard,
                sub,
                floor: self.hwm.get(shard).copied().unwrap_or(0),
                tried: HashSet::new(),
                attempts: 2,
            })
            .collect();
        let mut done = self.run_jobs(jobs, &mut counters);
        // Stitch: slices land in expected-shard order (done is sorted by
        // `at`), so the ascending-by-shard invariant holds by construction.
        let mut gathered: Vec<ShardSlice> = Vec::new();
        // `origin[i]` is the index in `done` that produced `gathered[i]`.
        let mut origin: Vec<usize> = Vec::new();
        for (fi, d) in done.iter_mut().enumerate() {
            if let Some(slice) = d.slice.take() {
                gathered.push(slice);
                origin.push(fi);
            }
        }
        // Verify; on per-slice failures demote every failing source and
        // refetch all of them from untried siblings in one wave, then
        // re-verify. Each leg consumes an endpoint from the shard's `tried`
        // set, so the loop is bounded by group size.
        let verdict = loop {
            let verdict = verify_slices(&self.layout, &self.client, q, &gathered);
            if !matches!(&verdict, Err(ShardedVerifyError::Slice { .. })) {
                break verdict;
            }
            // Identify *every* failing slice with the same per-slice check
            // `verify_slices` applies, so all bad shards refetch in one
            // wave instead of one verify round each.
            let bad: Vec<usize> = gathered
                .iter()
                .enumerate()
                .filter(|(at, slice)| {
                    let d = &done[origin[*at]];
                    self.client
                        .verify_detailed(&d.sub, &slice.records, &slice.vt)
                        .0
                        .is_err()
                })
                .map(|(at, _)| at)
                .collect();
            if bad.is_empty() {
                break verdict;
            }
            let mut refetches: Vec<FetchJob> = Vec::with_capacity(bad.len());
            for &at in &bad {
                let d = &mut done[origin[at]];
                if let Some(source) = d.source.take() {
                    self.shared.demoted.lock().insert(source);
                }
                counters.failovers += 1;
                refetches.push(FetchJob {
                    at,
                    shard: d.shard,
                    sub: d.sub,
                    floor: self.hwm.get(d.shard).copied().unwrap_or(0),
                    tried: std::mem::take(&mut d.tried),
                    attempts: 1,
                });
            }
            let redone = self.run_jobs(refetches, &mut counters);
            let mut replaced = 0usize;
            for mut r in redone {
                let fi = origin[r.at];
                let at = r.at;
                done[fi].tried = std::mem::take(&mut r.tried);
                if let Some(slice) = r.slice.take() {
                    gathered[at] = slice;
                    done[fi].source = r.source.take();
                    done[fi].epoch = r.epoch;
                    replaced += 1;
                }
                // No sibling left: keep the doctored slice and report its
                // verification failure honestly.
            }
            if replaced == 0 {
                break verdict;
            }
        };
        // A shard left unanswered because it refused as too large gets that
        // typed verdict, not a generic missing slice.
        let verdict = match verdict {
            Err(ShardedVerifyError::MissingShardSlice { shard })
                if counters
                    .errors
                    .iter()
                    .any(|(s, e)| *s == shard && refused_too_large(e)) =>
            {
                Err(ShardedVerifyError::ResponseTooLarge { shard })
            }
            other => other,
        };
        // Only *verified* slices raise the freshness floor.
        if verdict.is_ok() {
            for &fi in &origin {
                let d = &done[fi];
                if let Some(hwm) = self.hwm.get_mut(d.shard) {
                    *hwm = (*hwm).max(d.epoch);
                }
            }
        }
        NetQueryOutcome {
            slices: gathered,
            verdict,
            endpoint_errors: counters.errors,
            failovers: counters.failovers,
            stale_refused: counters.stale_refused,
            hedges: counters.hedges,
            bytes_sent: counters.bytes_sent,
            bytes_received: counters.bytes_received,
        }
    }

    /// Runs one wave of fetch jobs, merging every job's counters and
    /// returning the results sorted by slot.
    ///
    /// A wave that cannot hedge (no [`NetClientConfig::hedge_timeout`], or
    /// no job's shard has a sibling to hedge to) runs on the caller thread
    /// as a pipelined scatter: the send phase checks out (or dials) each
    /// job's first endpoint and writes its `QUERY`, then the receive phase
    /// reads the answers in slot order, each through the full fetch logic —
    /// classification, one-retry redial, demotion, stale refusal and
    /// failover to untried siblings. A wave that can hedge runs its jobs on
    /// the worker pool, whose jobs race detached hedge legs.
    fn run_jobs(&self, mut jobs: Vec<FetchJob>, counters: &mut QueryCounters) -> Vec<FetchDone> {
        let shared = &self.shared;
        let hedged = shared.cfg.hedge_timeout.is_some()
            && jobs
                .iter()
                .any(|job| shared.topology.replicas(job.shard).len() > 1);
        let mut out: Vec<FetchDone> = if hedged {
            let (tx, rx) = mpsc::channel();
            let expected = jobs.len();
            for job in jobs {
                let shared = Arc::clone(&self.shared);
                let tx = tx.clone();
                self.workers.submit(Box::new(move || {
                    drop(tx.send(fetch_shard(&shared, job, None)));
                }));
            }
            drop(tx);
            let mut out = Vec::with_capacity(expected);
            while let Ok(done) = rx.recv() {
                out.push(done);
            }
            out
        } else {
            // Send phase: write every job's first request before reading
            // any answer.
            let opened: Vec<FetchPass<'_>> = jobs
                .iter_mut()
                .map(|job| FetchPass::open(shared, job.shard, &job.sub).send_ahead(&mut job.tried))
                .collect();
            // Receive phase, in slot order.
            jobs.into_iter()
                .zip(opened)
                .map(|(job, pass)| fetch_shard(shared, job, Some(pass)))
                .collect()
        };
        out.sort_by_key(|d| d.at);
        for d in &mut out {
            counters.merge(std::mem::take(&mut d.counters));
        }
        out
    }
}

/// Fetches a slice for one shard and applies the freshness check: a slice
/// advertising an epoch below the shard's verified high-water mark demotes
/// its replica and a sibling is consulted, until a fresh slice arrives or
/// the group is exhausted (then a typed [`NetError::StaleSlice`] is
/// recorded and the shard left unanswered). `opened` is the first pass when
/// the wave's send phase already opened it and wrote its first request.
fn fetch_shard<'a>(
    shared: &'a Arc<ClientShared>,
    job: FetchJob,
    mut opened: Option<FetchPass<'a>>,
) -> FetchDone {
    let FetchJob {
        at,
        shard,
        sub,
        floor,
        mut tried,
        attempts,
    } = job;
    let mut counters = QueryCounters::default();
    let mut out = FetchDone {
        at,
        shard,
        sub,
        slice: None,
        source: None,
        epoch: 0,
        tried: HashSet::new(),
        counters: QueryCounters::default(),
    };
    let mut freshest = 0u64;
    let mut budget = attempts;
    while let Some((slice, source, epoch)) = fetch_once(
        opened
            .take()
            .unwrap_or_else(|| FetchPass::open(shared, shard, &sub)),
        &mut tried,
        &mut counters,
        budget,
    ) {
        if epoch >= floor {
            out.slice = Some(slice);
            out.source = Some(source);
            out.epoch = epoch;
            break;
        }
        // Stale: refuse the slice, demote its source, consult a sibling.
        freshest = freshest.max(epoch);
        counters.stale_refused += 1;
        counters.failovers += 1;
        shared.demoted.lock().insert(source);
        budget = 1;
        // Group exhausted? Record the staleness and give up the shard.
        if shared
            .topology
            .replicas(shard)
            .iter()
            .all(|e| tried.contains(e))
        {
            counters.errors.push((
                shard,
                NetError::StaleSlice {
                    shard: shard as u32,
                    epoch: freshest,
                    high_water: floor,
                },
            ));
            break;
        }
    }
    out.tried = tried;
    out.counters = counters;
    out
}

/// The per-fetch-pass context shared by the plain and hedged legs: the
/// request, its shard, and the candidate ordering captured at pass entry.
struct FetchPass<'a> {
    shared: &'a Arc<ClientShared>,
    shard: usize,
    request: Message,
    /// Candidate ordering for this pass (round-robin rotation and demotion
    /// preference as of pass entry — the cursor bump applies to the *next*
    /// pass, so the shards of one wave rotate independently).
    ordered: Vec<String>,
    /// The first attempt's endpoint and its already-written request, when
    /// the wave's send phase claimed it (see [`FetchPass::send_ahead`]).
    sent: Option<(String, NetResult<Pending>)>,
}

impl<'a> FetchPass<'a> {
    /// Opens a pass over `shard`'s candidates and advances its round-robin
    /// cursor for the next pass.
    fn open(shared: &'a Arc<ClientShared>, shard: usize, sub: &RangeQuery) -> FetchPass<'a> {
        let pass = FetchPass {
            shared,
            shard,
            request: Message::Query {
                shard: shard as u32,
                range: *sub,
            },
            ordered: candidates(shared, shard),
            sent: None,
        };
        advance_cursor(shared, shard);
        pass
    }

    /// Claims the next candidate not yet consulted for this shard.
    fn claim(&self, tried: &mut HashSet<String>) -> Option<String> {
        let endpoint = self.ordered.iter().find(|e| !tried.contains(*e)).cloned()?;
        tried.insert(endpoint.clone());
        Some(endpoint)
    }

    /// Claims the first candidate and writes its request now, before any
    /// answer of the wave is read; [`fetch_once`] reads the answer later.
    fn send_ahead(mut self, tried: &mut HashSet<String>) -> FetchPass<'a> {
        if let Some(endpoint) = self.claim(tried) {
            let pending = send(self.shared, &endpoint, &self.request);
            self.sent = Some((endpoint, pending));
        }
        self
    }
}

/// One failover pass for a shard: try up to `attempts` untried replicas
/// (preferring non-demoted ones, round-robin within the group) until one
/// returns a slice or refuses it as too large (every sibling would too).
/// The first attempt is hedged when configured and a sibling exists to
/// hedge *to*; erroring endpoints are demoted by the leg that observed the
/// error.
fn fetch_once(
    mut pass: FetchPass<'_>,
    tried: &mut HashSet<String>,
    counters: &mut QueryCounters,
    attempts: usize,
) -> Option<(ShardSlice, String, u64)> {
    let group = pass.shared.topology.replicas(pass.shard).len();
    for attempt in 0..attempts.max(1) {
        let errors_before = counters.errors.len();
        let won = match pass.sent.take() {
            Some((endpoint, pending)) => plain_fetch(&pass, endpoint, pending, counters),
            None => {
                let endpoint = pass.claim(tried)?;
                match pass.shared.cfg.hedge_timeout {
                    Some(window) if attempt == 0 && group > 1 => {
                        hedged_fetch(&pass, endpoint, window, tried, counters)
                    }
                    _ => {
                        let pending = send(pass.shared, &endpoint, &pass.request);
                        plain_fetch(&pass, endpoint, pending, counters)
                    }
                }
            }
        };
        if won.is_some()
            || counters.errors[errors_before..]
                .iter()
                .any(|(_, e)| refused_too_large(e))
        {
            return won;
        }
        // The endpoint (and any hedge sibling) answered badly: the legs
        // already demoted them; count the hop to the next sibling.
        counters.failovers += 1;
    }
    None
}

/// One ordinary (non-hedged) leg over a request already written, run on
/// the thread that runs the job.
fn plain_fetch(
    pass: &FetchPass<'_>,
    endpoint: String,
    pending: NetResult<Pending>,
    counters: &mut QueryCounters,
) -> Option<(ShardSlice, String, u64)> {
    let leg = request_leg(pass.shared, endpoint, &pass.request, pending);
    counters.bytes_sent += leg.bytes_sent;
    counters.bytes_received += leg.bytes_received;
    match leg.outcome {
        Ok((slice, epoch)) => Some((slice, leg.endpoint, epoch)),
        Err(e) => {
            counters.errors.push((pass.shard, e));
            None
        }
    }
}

/// A true hedged fetch: the primary leg runs detached; if the hedge window
/// expires with no response, the next untried sibling is raced and the
/// **first valid slice wins**. The loser keeps draining in the background
/// and returns its connection to the pool itself — a slow-but-honest
/// replica is never demoted, only one that answers badly (the leg demotes
/// on error even after abandonment).
fn hedged_fetch(
    pass: &FetchPass<'_>,
    endpoint: String,
    window: Duration,
    tried: &mut HashSet<String>,
    counters: &mut QueryCounters,
) -> Option<(ShardSlice, String, u64)> {
    let (tx, rx) = mpsc::channel::<Leg>();
    let mut in_flight = 0usize;
    if spawn_leg(pass.shared, endpoint.clone(), &pass.request, tx.clone()) {
        in_flight += 1;
    } else {
        // Thread spawn failed (resource exhaustion): degrade to an
        // ordinary non-hedged leg rather than dropping the attempt.
        let pending = send(pass.shared, &endpoint, &pass.request);
        return plain_fetch(pass, endpoint, pending, counters);
    }
    let mut hedged = false;
    let mut wait = window;
    while in_flight > 0 {
        match rx.recv_timeout(wait) {
            Ok(leg) => {
                in_flight -= 1;
                counters.bytes_sent += leg.bytes_sent;
                counters.bytes_received += leg.bytes_received;
                match leg.outcome {
                    // First valid slice wins; a still-outstanding loser
                    // drains detached and re-pools its own connection.
                    Ok((slice, epoch)) => return Some((slice, leg.endpoint, epoch)),
                    Err(e) => counters.errors.push((pass.shard, e)),
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) if !hedged => {
                // The window expired with no answer: race the next untried
                // sibling. The slow leg is NOT cancelled or demoted — slow
                // is not byzantine — it keeps running and may still win.
                hedged = true;
                wait = pass.shared.cfg.read_timeout;
                if let Some(sibling) = pass.claim(tried) {
                    if spawn_leg(pass.shared, sibling, &pass.request, tx.clone()) {
                        in_flight += 1;
                        counters.hedges += 1;
                    }
                }
            }
            // The full read timeout elapsed after hedging: abandon the
            // attempt. The legs' own socket timeouts will expire and each
            // leg demotes its endpoint itself.
            Err(_) => break,
        }
    }
    None
}

/// Spawns one detached request leg. Detached (not a pool job) on purpose:
/// an abandoned hedge loser must never occupy a worker-pool slot while it
/// drains. Returns false if the thread could not be spawned.
fn spawn_leg(
    shared: &Arc<ClientShared>,
    endpoint: String,
    request: &Message,
    tx: mpsc::Sender<Leg>,
) -> bool {
    let shared = Arc::clone(shared);
    let request = request.clone();
    std::thread::Builder::new()
        .name("sae-net-leg".to_string())
        .spawn(move || {
            let pending = send(&shared, &endpoint, &request);
            let leg = request_leg(&shared, endpoint, &request, pending);
            // The race may already be decided; a closed channel is fine.
            drop(tx.send(leg));
        })
        .is_ok()
}

/// Completes one request/response exchange against one endpoint, given
/// what [`send`] made of the request: read and classify the reply and — on
/// any bad answer — demote the endpoint *here, in the leg*, so an abandoned
/// hedge loser still routes itself out of future preference. Honest
/// refusals are the exception and demote nobody: `RESPONSE_TOO_LARGE`
/// (deterministic, so [`fetch_once`] asks no sibling) and `NOT_SYNCED` (the
/// replica is still installing; a sibling is asked).
fn request_leg(
    shared: &ClientShared,
    endpoint: String,
    request: &Message,
    pending: NetResult<Pending>,
) -> Leg {
    let reply = pending.and_then(|pending| receive(shared, &endpoint, request, pending));
    let (outcome, sent, received) = match reply {
        Ok((
            Message::Slice {
                shard: claimed,
                epoch,
                records,
                vt,
                ..
            },
            sent,
            received,
        )) => (
            // Keep the *claimed* shard id: misattribution is for
            // verification to catch, not for the client to repair.
            Ok((
                ShardSlice {
                    shard: claimed as usize,
                    records,
                    vt,
                },
                epoch,
            )),
            sent,
            received,
        ),
        Ok((
            Message::Error {
                code,
                version,
                detail,
            },
            sent,
            received,
        )) => (
            Err(NetError::Remote {
                code,
                version,
                detail,
            }),
            sent,
            received,
        ),
        Ok((other, sent, received)) => (
            Err(NetError::UnexpectedMessage { got: other.tag() }),
            sent,
            received,
        ),
        Err(e) => (Err(e), 0, 0),
    };
    let honest_refusal = matches!(
        &outcome,
        Err(NetError::Remote { code: refused, .. })
            if *refused == code::RESPONSE_TOO_LARGE || *refused == code::NOT_SYNCED
    );
    if outcome.is_err() && !honest_refusal {
        shared.demoted.lock().insert(endpoint.clone());
    }
    Leg {
        endpoint,
        outcome,
        bytes_sent: sent,
        bytes_received: received,
    }
}

/// Whether `e` is a server's honest refusal of a slice over the frame cap.
fn refused_too_large(e: &NetError) -> bool {
    matches!(e, NetError::Remote { code: refused, .. } if *refused == code::RESPONSE_TOO_LARGE)
}

/// `Ping`s one endpoint by name, pooling the connection on success.
fn ping_endpoint(shared: &ClientShared, endpoint: &str) -> NetResult<()> {
    let (response, _, _) = exchange(shared, endpoint, &Message::Ping)?;
    match response {
        Message::Pong => Ok(()),
        other => Err(NetError::UnexpectedMessage { got: other.tag() }),
    }
}

/// The replica group for `shard`, round-robin rotated, non-demoted
/// endpoints first. Demotion is a *preference*, not an exclusion.
fn candidates(shared: &ClientShared, shard: usize) -> Vec<String> {
    let group = shared.topology.replicas(shard);
    if group.is_empty() {
        return Vec::new();
    }
    let start = shared.cursor.lock().get(shard).copied().unwrap_or(0) % group.len();
    let down = shared.demoted.lock().clone();
    let rotated = group[start..].iter().chain(group[..start].iter());
    let (healthy, demoted): (Vec<&String>, Vec<&String>) =
        rotated.partition(|e| !down.contains(*e));
    healthy.into_iter().chain(demoted).cloned().collect()
}

/// Advances the shard's round-robin cursor by one, once per fetch pass.
fn advance_cursor(shared: &ClientShared, shard: usize) {
    let group = shared.topology.replicas(shard).len().max(1);
    if let Some(cursor) = shared.cursor.lock().get_mut(shard) {
        *cursor = cursor.wrapping_add(1) % group;
    }
}

/// A request written to an endpoint whose response has not been read yet.
struct Pending {
    /// The connection, checked out of the pool or freshly dialled.
    stream: TcpStream,
    /// Whether the connection came from the pool (and so may have gone
    /// stale since its last exchange).
    pooled: bool,
    /// Request bytes written.
    sent: u64,
}

/// Sends `request` to `endpoint` and reads one response frame, returning
/// `(response, bytes_sent, bytes_received)`.
fn exchange(
    shared: &ClientShared,
    endpoint: &str,
    request: &Message,
) -> NetResult<(Message, u64, u64)> {
    receive(shared, endpoint, request, send(shared, endpoint, request)?)
}

/// Writes `request` to `endpoint`. The endpoint's pooled connection is
/// *checked out* for exclusive use (legs in flight to the same endpoint at
/// once each dial their own rather than interleave frames). A write that
/// fails on a previously-pooled connection re-dials once — a server restart
/// must not masquerade as a dead replica.
fn send(shared: &ClientShared, endpoint: &str, request: &Message) -> NetResult<Pending> {
    let Some(mut stream) = shared.pool.lock().remove(endpoint) else {
        return send_fresh(shared, endpoint, request);
    };
    match write_frame(&mut stream, request) {
        Ok(sent) => Ok(Pending {
            stream,
            pooled: true,
            sent: sent as u64,
        }),
        Err(NetError::Io(_) | NetError::Disconnected) => send_fresh(shared, endpoint, request),
        Err(e) => Err(e),
    }
}

/// Writes `request` to `endpoint` over a freshly dialled connection.
fn send_fresh(shared: &ClientShared, endpoint: &str, request: &Message) -> NetResult<Pending> {
    let mut stream = dial(shared, endpoint)?;
    let sent = write_frame(&mut stream, request)?;
    Ok(Pending {
        stream,
        pooled: false,
        sent: sent as u64,
    })
}

/// Reads the response to a request [`send`] wrote, returning
/// `(response, bytes_sent, bytes_received)`. On success the connection goes
/// (back) to the pool. A transport failure on a previously-pooled
/// connection re-sends over a fresh dial once, for the same reason as in
/// [`send`]. *Any* error discards the socket: after a framing error the
/// stream can no longer be trusted to be at a frame boundary.
fn receive(
    shared: &ClientShared,
    endpoint: &str,
    request: &Message,
    pending: Pending,
) -> NetResult<(Message, u64, u64)> {
    let Pending {
        mut stream,
        pooled,
        sent,
    } = pending;
    match read_frame(&mut stream) {
        Ok((response, received)) => {
            // Return the borrowed connection; if another leg pooled one for
            // this endpoint first, keep that one and drop ours.
            shared
                .pool
                .lock()
                .entry(endpoint.to_string())
                .or_insert(stream);
            Ok((response, sent, received as u64))
        }
        Err(NetError::Io(_) | NetError::Disconnected) if pooled => {
            drop(stream);
            receive(
                shared,
                endpoint,
                request,
                send_fresh(shared, endpoint, request)?,
            )
        }
        Err(e) => Err(e),
    }
}

fn dial(shared: &ClientShared, endpoint: &str) -> NetResult<TcpStream> {
    let addr = endpoint
        .to_socket_addrs()?
        .next()
        .ok_or(NetError::Malformed("endpoint resolved to no address"))?;
    let stream = TcpStream::connect_timeout(&addr, shared.cfg.connect_timeout)?;
    stream.set_read_timeout(Some(shared.cfg.read_timeout))?;
    stream.set_write_timeout(Some(shared.cfg.write_timeout))?;
    Ok(stream)
}
