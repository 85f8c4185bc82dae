//! The fixed deployment shape of every run: a fresh data directory, a
//! two-shard durable engine created, closed and reopened, and — for the
//! networked workloads — one `ShardServer` per shard on loopback with one
//! `NetClient`. Default configurations throughout: no simulated delay and
//! no bench-only knob is set anywhere in this crate.

use crate::workload::Workload;
use crate::Res;
use sae_core::{DurabilityPolicy, ShardLayout, ShardSlice, ShardedSaeEngine};
use sae_crypto::HashAlgorithm;
use sae_net::{NetClient, ShardServer, ShardServerConfig};
use sae_workload::{paper, Dataset, DatasetSpec, KeyDistribution, RangeQuery};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Shards of every deployment: one server thread per core of the 2-core
/// sandbox on the networked workloads.
pub const SHARDS: usize = 2;

/// The system-wide hash (the paper's 20-byte SHA-1 digests).
pub const ALG: HashAlgorithm = HashAlgorithm::Sha1;

/// Encoded record size (the paper's 500 bytes).
pub const RECORD_SIZE: usize = paper::RECORD_SIZE;

/// The published layout of every deployment, known before any is built so
/// the inputs can be generated first.
pub fn layout() -> ShardLayout {
    ShardLayout::uniform(KeyDistribution::unf().domain(), SHARDS)
}

/// File that marks a directory as a deployment.
const MANIFEST_FILE: &str = "MANIFEST";

/// Where a run keeps its data and trace files unless told otherwise: beside
/// the benchmark's own sources, inside the checkout it was built in (the
/// benchmark may write nowhere else) and covered by `benchmark/.gitignore`.
pub const DEFAULT_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/.bench_data");

/// A per-run directory created fresh under a root and removed when dropped —
/// on normal exit and on a panic's unwind alike.
pub struct DataDir {
    path: PathBuf,
    /// The root, when this run created it: removed on drop once empty.
    created_root: Option<PathBuf>,
}

impl DataDir {
    /// Creates `<root>/run-<label>-<pid>`, the root defaulting to
    /// [`DEFAULT_ROOT`]. A root that itself holds a deployment is refused
    /// rather than written into, and a leftover per-run directory of the
    /// same name is an error, never reused.
    pub fn create(root: Option<&Path>, label: &str) -> Res<DataDir> {
        let root = root.map_or_else(|| PathBuf::from(DEFAULT_ROOT), Path::to_path_buf);
        if root.join(MANIFEST_FILE).exists() {
            return Err(format!(
                "--data-dir {} already holds a deployment; refusing to write into it",
                root.display()
            )
            .into());
        }
        let created_root = (!root.exists()).then(|| root.clone());
        std::fs::create_dir_all(&root)?;
        let path = root.join(format!("run-{label}-{}", std::process::id()));
        std::fs::create_dir(&path).map_err(|e| {
            format!(
                "cannot create a fresh run directory {}: {e}",
                path.display()
            )
        })?;
        Ok(DataDir { path, created_root })
    }

    /// The run directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The directory the `k`-th deployment of the run lives in.
    pub fn deployment(&self, k: usize) -> PathBuf {
        self.path.join(format!("deploy-{k}"))
    }

    /// Filesystem type the run directory sits on (longest matching mount
    /// point in `/proc/mounts`), so a reader knows whose fsync was measured.
    pub fn filesystem(&self) -> String {
        let Ok(canonical) = self.path.canonicalize() else {
            return "unknown".into();
        };
        let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
            return "unknown".into();
        };
        mounts
            .lines()
            .filter_map(|line| {
                let mut fields = line.split_whitespace();
                let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
                canonical
                    .starts_with(mount)
                    .then(|| (mount.len(), fstype.to_string()))
            })
            .max_by_key(|(len, _)| *len)
            .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        // Best effort: Drop must not panic, and a failed clean-up must not
        // mask the run's own result. `remove_dir` leaves a root that still
        // holds something (a trace file, another run) alone.
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(root) = &self.created_root {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Total size in bytes of the regular files directly inside `dir` (a
/// deployment directory is flat).
pub fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// What one verified query returned, transport-independent.
pub struct Answer {
    /// Verdict `Ok` and no endpoint error.
    pub ok: bool,
    /// The gathered slices.
    pub slices: Vec<ShardSlice>,
    /// Request + response frame bytes (0 in-process).
    pub wire_bytes: u64,
}

impl Answer {
    /// Records returned across all slices.
    pub fn records(&self) -> usize {
        self.slices.iter().map(|s| s.records.len()).sum()
    }
}

/// Where each part of one setup went, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `DatasetSpec::generate`.
    pub dataset_gen_s: f64,
    /// `create_dir_with` (bulk load + first checkpoint).
    pub build_s: f64,
    /// `close`.
    pub close_s: f64,
    /// `open_dir`.
    pub reopen_s: f64,
    /// Servers spawned and the client constructed (0 in-process).
    pub connect_s: f64,
    /// The first verified query (dials the connections when networked).
    pub first_query_s: f64,
    /// Everything above, wall clock.
    pub total_s: f64,
}

/// A live deployment.
pub struct Deployment {
    /// The reopened durable engine.
    pub engine: Arc<ShardedSaeEngine>,
    /// One server per shard when networked, else empty.
    pub servers: Vec<ShardServer>,
    /// The single client when networked.
    pub client: Option<NetClient>,
    /// The deployment directory.
    pub dir: PathBuf,
    cache_pages: Option<usize>,
}

impl Deployment {
    /// The timed setup: dataset generation → durable build → close → reopen
    /// → (servers up → client constructed) → first verified query.
    pub fn setup(
        workload: Workload,
        networked: bool,
        records: usize,
        seed: u64,
        dir: &Path,
        first_query: &RangeQuery,
    ) -> Res<(Deployment, Dataset, SetupTimes)> {
        let mut times = SetupTimes::default();
        let started = Instant::now();
        let mut lap = Instant::now();
        let mut split = |slot: &mut f64| {
            *slot = lap.elapsed().as_secs_f64();
            lap = Instant::now();
        };

        let dataset = DatasetSpec::paper(records, KeyDistribution::unf(), seed).generate();
        split(&mut times.dataset_gen_s);
        let cache_pages = workload.cache_pages();
        let engine = ShardedSaeEngine::create_dir_with(
            dir,
            &dataset,
            ALG,
            SHARDS,
            cache_pages,
            DurabilityPolicy::Immediate,
        )?;
        split(&mut times.build_s);
        engine.close()?;
        split(&mut times.close_s);
        let engine = Arc::new(ShardedSaeEngine::open_dir(dir, ALG, cache_pages)?);
        split(&mut times.reopen_s);

        let mut deployment = Deployment {
            engine,
            servers: Vec::new(),
            client: None,
            dir: dir.to_path_buf(),
            cache_pages,
        };
        if networked {
            deployment.connect()?;
        }
        split(&mut times.connect_s);
        if !deployment.ask(first_query)?.ok {
            return Err("the first query of the deployment did not verify".into());
        }
        split(&mut times.first_query_s);
        times.total_s = started.elapsed().as_secs_f64();
        Ok((deployment, dataset, times))
    }

    /// One `ShardServer` per shard on an ephemeral loopback port and one
    /// `NetClient` over them, all with default configurations.
    fn connect(&mut self) -> Res<()> {
        for shard in 0..self.engine.shard_count() {
            self.servers.push(ShardServer::spawn(
                Arc::clone(&self.engine),
                vec![shard],
                "127.0.0.1:0",
                ShardServerConfig::default(),
            )?);
        }
        self.client = Some(self.fresh_client()?);
        Ok(())
    }

    /// A new client over the running servers, sharing nothing with the
    /// measured one.
    pub fn fresh_client(&self) -> Res<NetClient> {
        let endpoints = self
            .servers
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect();
        Ok(NetClient::for_engine(&self.engine, endpoints)?)
    }

    /// One verified query over the deployment's transport.
    pub fn ask(&mut self, q: &RangeQuery) -> Res<Answer> {
        match &mut self.client {
            Some(client) => {
                let out = client.query(q);
                Ok(Answer {
                    ok: out.verdict.is_ok() && out.endpoint_errors.is_empty(),
                    wire_bytes: out.bytes_sent + out.bytes_received,
                    slices: out.slices,
                })
            }
            None => {
                let out = self.engine.query(q)?;
                Ok(Answer {
                    ok: out.verdict.is_ok(),
                    slices: out.slices,
                    wire_bytes: 0,
                })
            }
        }
    }

    /// Stops the servers (joining their threads) and drops the client.
    pub fn disconnect(&mut self) {
        self.client = None;
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }

    /// Tears the deployment down cleanly (servers, then the engine's
    /// `close`) and removes its directory — used between repeated setups.
    pub fn discard(mut self) -> Res<()> {
        self.disconnect();
        let dir = self.dir.clone();
        match Arc::try_unwrap(self.engine) {
            Ok(engine) => engine.close()?,
            Err(_) => return Err("engine still shared after the servers stopped".into()),
        }
        std::fs::remove_dir_all(dir)?;
        Ok(())
    }

    /// Simulated `kill -9`: servers shut first, then the engine is leaked
    /// without `close` or `Drop` — no checkpoint, no cache write-back, not
    /// even the best-effort log barrier — and the directory is reopened from
    /// what the acknowledged commits left on disk. Returns the reopened
    /// engine and the seconds `open_dir` took.
    pub fn kill_and_reopen(mut self) -> Res<(ShardedSaeEngine, f64)> {
        self.disconnect();
        let (dir, cache_pages) = (self.dir.clone(), self.cache_pages);
        std::mem::forget(self.engine);
        let started = Instant::now();
        let reopened = ShardedSaeEngine::open_dir(&dir, ALG, cache_pages)?;
        Ok((reopened, started.elapsed().as_secs_f64()))
    }
}
