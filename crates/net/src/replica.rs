//! The replica server: a [`ShardServer`] front over a
//! [`sae_core::ReplicaSet`] it keeps synced from a primary endpoint.
//!
//! A [`ReplicaServer`] bootstraps each served shard with a chunked,
//! epoch-stamped snapshot ([`Message::FetchSnapshot`]) and then keeps it
//! current with incremental WAL tails ([`Message::FetchTail`]), falling
//! back to a fresh snapshot whenever the primary's segment has rotated past
//! the replica's epoch (`TAIL_UNAVAILABLE`) or a tail fails to apply. All
//! installation-side validation — CRC-checked frames, epoch-regression
//! refusal, recomputed TE digests — lives in [`sae_core::ReplicaSet`]; this
//! module only moves bytes.
//!
//! The serving front is an ordinary [`ShardServer`]: clients query a
//! replica exactly as they query a primary, and verify its slices against
//! the same owner-published token. A shard whose snapshot has not installed
//! yet answers with the typed `NOT_SYNCED` refusal (and the sibling is
//! consulted by the client's failover).

use crate::frame::{code, read_frame, write_frame, Message, NetError, NetResult};
use crate::server::{NetStatsSnapshot, ServerTamper, ShardServer, ShardServerConfig};
use sae_core::{ReplicaSet, ShardLayout};
use sae_crypto::HashAlgorithm;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for a [`ReplicaServer`].
#[derive(Clone, Copy, Debug)]
pub struct ReplicaServerConfig {
    /// Configuration of the serving front (its socket timeouts).
    pub server: ShardServerConfig,
    /// Bound on establishing the sync connection to the primary.
    pub connect_timeout: Duration,
    /// Bound on waiting for a sync response frame (snapshot chunks can be
    /// megabytes; keep this generous).
    pub read_timeout: Duration,
    /// Bound on writing a sync request frame.
    pub write_timeout: Duration,
    /// Cadence of the background catch-up loop.
    pub sync_interval: Duration,
}

impl Default for ReplicaServerConfig {
    fn default() -> Self {
        ReplicaServerConfig {
            server: ShardServerConfig::default(),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            sync_interval: Duration::from_millis(25),
        }
    }
}

/// One pooled request/response connection to the primary, with the same
/// one-retry-redial discipline the query client uses.
struct RpcConn {
    endpoint: String,
    stream: Option<TcpStream>,
    cfg: ReplicaServerConfig,
}

impl RpcConn {
    fn new(endpoint: String, cfg: ReplicaServerConfig) -> RpcConn {
        RpcConn {
            endpoint,
            stream: None,
            cfg,
        }
    }

    fn exchange(&mut self, request: &Message) -> NetResult<Message> {
        let pooled = self.stream.is_some();
        match self.exchange_once(request) {
            Ok(ok) => Ok(ok),
            Err(e) if pooled && matches!(e, NetError::Io(_) | NetError::Disconnected) => {
                self.exchange_once(request)
            }
            Err(e) => Err(e),
        }
    }

    fn exchange_once(&mut self, request: &Message) -> NetResult<Message> {
        if self.stream.is_none() {
            let addr = self
                .endpoint
                .to_socket_addrs()?
                .next()
                .ok_or(NetError::Malformed(
                    "primary endpoint resolved to no address",
                ))?;
            let stream = TcpStream::connect_timeout(&addr, self.cfg.connect_timeout)?;
            stream.set_read_timeout(Some(self.cfg.read_timeout))?;
            stream.set_write_timeout(Some(self.cfg.write_timeout))?;
            self.stream = Some(stream);
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err(NetError::Disconnected);
        };
        let result =
            write_frame(stream, request).and_then(|_| read_frame(stream).map(|(msg, _)| msg));
        if result.is_err() {
            // After any failure the stream may sit mid-frame: discard it.
            self.stream = None;
        }
        result
    }
}

/// A running read replica: a [`ReplicaSet`] kept synced from a primary by a
/// background thread, served over TCP by an embedded [`ShardServer`].
///
/// Dropping the server stops the syncer and the front; prefer
/// [`ReplicaServer::shutdown`] to observe the join.
pub struct ReplicaServer {
    set: Arc<ReplicaSet>,
    server: Option<ShardServer>,
    served: Vec<usize>,
    primary: String,
    cfg: ReplicaServerConfig,
    stop: Arc<AtomicBool>,
    syncer: Option<JoinHandle<()>>,
}

impl ReplicaServer {
    /// Bootstraps a replica of `served` shards from the primary at
    /// `primary`, binds `addr` (port 0 for ephemeral) and starts serving.
    /// The initial sync is synchronous — when this returns `Ok`, every
    /// served shard has an installed snapshot and answers queries — and a
    /// background thread keeps the copies current at
    /// [`ReplicaServerConfig::sync_interval`].
    ///
    /// `layout`, `alg` and `record_len` are the deployment's *published*
    /// parameters: the replica validates everything it syncs against them
    /// rather than trusting the primary's self-description.
    pub fn spawn(
        primary: impl Into<String>,
        layout: ShardLayout,
        alg: HashAlgorithm,
        record_len: usize,
        served: Vec<usize>,
        addr: impl ToSocketAddrs,
        cfg: ReplicaServerConfig,
    ) -> NetResult<ReplicaServer> {
        let primary = primary.into();
        let set = Arc::new(ReplicaSet::new(layout, alg, record_len));
        let mut conn = RpcConn::new(primary.clone(), cfg);
        sync_set(&set, &served, &mut conn)?;
        let server = ShardServer::spawn_source(
            Arc::<ReplicaSet>::clone(&set),
            served.clone(),
            addr,
            cfg.server,
        )?;
        let stop = Arc::new(AtomicBool::new(false));
        let syncer = {
            let set = Arc::clone(&set);
            let served = served.clone();
            let stop = Arc::clone(&stop);
            let interval = cfg.sync_interval;
            std::thread::Builder::new()
                .name(format!("sae-replica-sync-{}", server.local_addr().port()))
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        sleep_watching(interval, &stop);
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        // Sync failures here are transient by assumption
                        // (primary restarting, segment rotating): the shard
                        // keeps serving its last installed state and the
                        // next tick retries.
                        drop(sync_set(&set, &served, &mut conn));
                    }
                })?
        };
        Ok(ReplicaServer {
            set,
            server: Some(server),
            served,
            primary,
            cfg,
            stop,
            syncer: Some(syncer),
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        // The server is only `None` transiently inside shutdown.
        match &self.server {
            Some(server) => server.local_addr(),
            None => std::net::SocketAddr::from(([0, 0, 0, 0], 0)),
        }
    }

    /// The shard ids this replica serves.
    pub fn served_shards(&self) -> &[usize] {
        &self.served
    }

    /// The primary endpoint this replica syncs from.
    pub fn primary(&self) -> &str {
        &self.primary
    }

    /// Wire counters of the serving front.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.server
            .as_ref()
            .map(ShardServer::stats)
            .unwrap_or_default()
    }

    /// Arms (or clears) a byzantine behaviour on the serving front — the
    /// replication tests use this to prove clients route around a tampering
    /// replica.
    pub fn set_tamper(&self, tamper: Option<ServerTamper>) {
        if let Some(server) = &self.server {
            server.set_tamper(tamper);
        }
    }

    /// The epoch shard `shard` currently serves, or `None` when unsynced.
    pub fn epoch(&self, shard: usize) -> Option<u64> {
        self.set.epoch(shard)
    }

    /// One synchronous catch-up pass over every served shard, on a fresh
    /// connection — lets tests and benches advance the replica
    /// deterministically instead of waiting out the background interval.
    pub fn sync_now(&self) -> NetResult<()> {
        let mut conn = RpcConn::new(self.primary.clone(), self.cfg);
        sync_set(&self.set, &self.served, &mut conn)
    }

    /// Graceful shutdown: stop the sync loop, then the serving front.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(syncer) = self.syncer.take() {
            drop(syncer.join());
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl std::fmt::Debug for ReplicaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaServer")
            .field("addr", &self.local_addr())
            .field("primary", &self.primary)
            .field("served", &self.served)
            .field("set", &self.set)
            .finish()
    }
}

impl Drop for ReplicaServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sleeps `total` in short steps, returning early when `stop` is raised.
fn sleep_watching(total: Duration, stop: &AtomicBool) {
    let step = Duration::from_millis(10).min(total);
    let mut slept = Duration::ZERO;
    while slept < total && !stop.load(Ordering::SeqCst) {
        std::thread::sleep(step);
        slept += step;
    }
}

/// Syncs every served shard once, stopping at the first error.
fn sync_set(set: &ReplicaSet, served: &[usize], conn: &mut RpcConn) -> NetResult<()> {
    for &shard in served {
        sync_shard(set, shard, conn)?;
    }
    Ok(())
}

/// Brings one shard up to the primary's advertised epoch: no-op when equal,
/// WAL tail when behind, full snapshot when unsynced or the tail is gone.
fn sync_shard(set: &ReplicaSet, shard: usize, conn: &mut RpcConn) -> NetResult<()> {
    let status = conn.exchange(&Message::Status {
        shard: shard as u32,
    })?;
    let primary_epoch = match status {
        Message::StatusInfo {
            shard: s,
            synced,
            epoch,
        } if s == shard as u32 => {
            if !synced {
                return Err(NetError::Replication(format!(
                    "primary reports shard {shard} unsynced — is it a replica itself?"
                )));
            }
            epoch
        }
        Message::Error {
            code,
            version,
            detail,
        } => {
            return Err(NetError::Remote {
                code,
                version,
                detail,
            })
        }
        other => return Err(NetError::UnexpectedMessage { got: other.tag() }),
    };
    if set.epoch(shard) == Some(primary_epoch) {
        return Ok(());
    }
    if let Some(from) = set.epoch(shard) {
        match fetch_and_apply_tail(set, shard, from, conn) {
            Ok(true) => return Ok(()),
            // The tail path could not advance the shard (segment rotated
            // away, or the tail failed validation and the slot is now
            // unsynced): fall through to a full snapshot.
            Ok(false) => {}
            Err(e) => return Err(e),
        }
    }
    let snapshot = fetch_snapshot(shard, conn)?;
    set.install_snapshot(shard, &snapshot)
        .map_err(|e| NetError::Replication(format!("shard {shard} snapshot refused: {e}")))?;
    Ok(())
}

/// Tries the incremental path. `Ok(true)` means the tail applied; `Ok(false)`
/// means the caller should fetch a snapshot instead.
fn fetch_and_apply_tail(
    set: &ReplicaSet,
    shard: usize,
    from: u64,
    conn: &mut RpcConn,
) -> NetResult<bool> {
    let reply = conn.exchange(&Message::FetchTail {
        shard: shard as u32,
        from_epoch: from,
    })?;
    match reply {
        Message::Tail { shard: s, bytes } if s == shard as u32 => {
            // An unapplicable or corrupt tail leaves the slot unsynced by
            // design — the snapshot path re-seeds it.
            Ok(set.apply_wal_tail(shard, &bytes).is_ok())
        }
        Message::Error { code, .. } if code == code::TAIL_UNAVAILABLE => Ok(false),
        Message::Error {
            code,
            version,
            detail,
        } => Err(NetError::Remote {
            code,
            version,
            detail,
        }),
        other => Err(NetError::UnexpectedMessage { got: other.tag() }),
    }
}

/// Fetches a complete snapshot chunk-by-chunk. Every chunk must agree on
/// the epoch and chunk count; if the primary commits mid-fetch the set
/// disagrees and the fetch restarts, up to three attempts.
fn fetch_snapshot(shard: usize, conn: &mut RpcConn) -> NetResult<Vec<u8>> {
    for _attempt in 0..3 {
        let (chunks, epoch, mut bytes) = expect_chunk(shard, 0, conn)?;
        let mut consistent = true;
        for c in 1..chunks {
            let (got_chunks, got_epoch, chunk_bytes) = expect_chunk(shard, c, conn)?;
            if got_chunks != chunks || got_epoch != epoch {
                consistent = false;
                break;
            }
            bytes.extend_from_slice(&chunk_bytes);
        }
        if consistent {
            return Ok(bytes);
        }
    }
    Err(NetError::Replication(format!(
        "shard {shard}: snapshot kept changing under the chunked fetch; giving up after 3 attempts"
    )))
}

/// Requests one snapshot chunk and validates its identity fields.
fn expect_chunk(shard: usize, chunk: u32, conn: &mut RpcConn) -> NetResult<(u32, u64, Vec<u8>)> {
    let reply = conn.exchange(&Message::FetchSnapshot {
        shard: shard as u32,
        chunk,
    })?;
    match reply {
        Message::SnapshotChunk {
            shard: s,
            chunk: c,
            chunks,
            epoch,
            bytes,
        } => {
            if s != shard as u32 || c != chunk {
                return Err(NetError::Replication(format!(
                    "asked for shard {shard} chunk {chunk}, got shard {s} chunk {c}"
                )));
            }
            Ok((chunks, epoch, bytes))
        }
        Message::Error {
            code,
            version,
            detail,
        } => Err(NetError::Remote {
            code,
            version,
            detail,
        }),
        other => Err(NetError::UnexpectedMessage { got: other.tag() }),
    }
}
