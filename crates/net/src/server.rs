//! The shard server: a thread-per-connection TCP front for one or more
//! shards of a [`SliceSource`] — a primary [`ShardedSaeEngine`] or a
//! synced [`sae_core::ReplicaSet`].
//!
//! The server is the *service provider* side of the wire — untrusted by
//! construction. It answers [`Message::Query`] requests with
//! [`Message::Slice`] responses produced by
//! [`SliceSource::source_slice`], which returns a fully-owned slice, so
//! **no tree guard is ever live across a socket write** (a slow peer must
//! never stall a shard's readers; the analyzer's `hold-across-sync` rule
//! lists the frame-write calls for exactly this reason). Because clients
//! verify every slice against the trusted entity's token, a byzantine server
//! — simulated by [`ServerTamper`] — is *detected*, never trusted.
//!
//! Primaries additionally answer the replication catalog:
//! [`Message::Status`] (served-epoch advertisement),
//! [`Message::FetchSnapshot`] (chunked, epoch-stamped shard snapshots) and
//! [`Message::FetchTail`] (incremental WAL tails) — see `docs/replication.md`.
//!
//! Connection handling: per-connection read/write timeouts, per-server
//! [`NetStats`] counters in the spirit of [`sae_storage::IoStats`], and a
//! graceful [`ShardServer::shutdown`] that wakes the acceptor, half-closes
//! every live connection and joins every worker thread.

use crate::frame::{
    code, read_frame, write_frame, Message, NetError, NetResult, MAX_FRAME_PAYLOAD, WIRE_VERSION,
};
use crate::source::SliceSource;
use parking_lot::Mutex;
use sae_core::{ShardSlice, ShardedSaeEngine, SnapshotHeader};
use sae_storage::StorageError;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Snapshot transfers are chunked at this size so one chunk always fits a
/// frame ([`MAX_FRAME_PAYLOAD`] is 4 MiB) with room for the chunk header.
pub const SNAPSHOT_CHUNK_SIZE: usize = 1 << 20;

/// Tuning knobs for a [`ShardServer`].
#[derive(Clone, Copy, Debug)]
pub struct ShardServerConfig {
    /// Per-connection socket read timeout. Idle waits poll the shutdown
    /// flag at this cadence, so it also bounds shutdown latency.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout: the longest a slow peer can
    /// stall one worker thread (never a shard — no tree guard spans a
    /// write).
    pub write_timeout: Duration,
}

impl Default for ShardServerConfig {
    fn default() -> Self {
        ShardServerConfig {
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Byzantine behaviours a server can be armed with, for tests. Each doctors
/// the response *after* the source produced it — exactly what a malicious
/// service provider controlling the wire could do — and each is caught
/// client-side: the first three by token verification, the last by the
/// client's epoch high-water mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerTamper {
    /// Flip one payload byte of the first record: the record still decodes,
    /// but its digest no longer folds to the token.
    FlipRecordByte,
    /// Silently omit the first record of the slice — the within-shard
    /// completeness attack.
    DropFirstRecord,
    /// Flip one bit of the verification token itself.
    FlipTokenBit,
    /// Serve honest content but advertise epoch 0 — a replica frozen at (or
    /// lying about) ancient state. Token verification *passes* (the content
    /// is genuinely old-but-consistent in the real attack); only the
    /// client's high-water freshness check routes around it.
    StaleEpoch,
}

const TAMPER_NONE: u8 = 0;
const TAMPER_FLIP_RECORD: u8 = 1;
const TAMPER_DROP_RECORD: u8 = 2;
const TAMPER_FLIP_TOKEN: u8 = 3;
const TAMPER_STALE_EPOCH: u8 = 4;

/// Monotonic per-server wire counters, in the spirit of
/// [`sae_storage::IoStats`]: workers update them lock-free and
/// [`NetStats::snapshot`] reads a consistent-enough view for reporting.
#[derive(Debug, Default)]
pub struct NetStats {
    connections: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    queries: AtomicU64,
    snapshot_chunks: AtomicU64,
    tails: AtomicU64,
    errors_sent: AtomicU64,
    decode_errors: AtomicU64,
}

impl NetStats {
    /// Current counter values.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            snapshot_chunks: self.snapshot_chunks.load(Ordering::Relaxed),
            tails: self.tails.load(Ordering::Relaxed),
            errors_sent: self.errors_sent.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a server's [`NetStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Frames successfully read from peers.
    pub frames_in: u64,
    /// Frames written to peers.
    pub frames_out: u64,
    /// Payload + header bytes read.
    pub bytes_in: u64,
    /// Payload + header bytes written.
    pub bytes_out: u64,
    /// Query requests answered with a slice.
    pub queries: u64,
    /// Snapshot chunks served to syncing replicas.
    pub snapshot_chunks: u64,
    /// WAL tails served to syncing replicas.
    pub tails: u64,
    /// Error responses sent.
    pub errors_sent: u64,
    /// Frames that failed to decode (bad version, unknown type, malformed).
    pub decode_errors: u64,
}

/// Everything the acceptor and the per-connection workers share.
struct Shared {
    source: Arc<dyn SliceSource>,
    served: Vec<usize>,
    cfg: ShardServerConfig,
    stats: NetStats,
    shutdown: AtomicBool,
    tamper: AtomicU8,
    /// Live connections: a stream clone (so shutdown can half-close blocked
    /// readers) paired with its worker's join handle. Lock order: `conns` is
    /// the outermost rank in `analyzer.toml` and is never held across
    /// engine calls or socket I/O.
    conns: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
}

/// A running shard endpoint: a TCP listener plus one worker thread per live
/// connection, fronting the `served` shards of one [`SliceSource`].
///
/// Dropping the server shuts it down gracefully; prefer calling
/// [`ShardServer::shutdown`] to observe the join.
pub struct ShardServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ShardServer {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and starts
    /// accepting connections, serving the `served` shard ids of `engine`.
    /// Returns once the listener is live; [`ShardServer::local_addr`] is the
    /// endpoint to publish.
    pub fn spawn(
        engine: Arc<ShardedSaeEngine>,
        served: Vec<usize>,
        addr: impl ToSocketAddrs,
        cfg: ShardServerConfig,
    ) -> NetResult<ShardServer> {
        Self::spawn_source(engine, served, addr, cfg)
    }

    /// Like [`ShardServer::spawn`] for any [`SliceSource`] — the entry a
    /// [`crate::ReplicaServer`] uses to serve its installed copies.
    pub fn spawn_source(
        source: Arc<dyn SliceSource>,
        served: Vec<usize>,
        addr: impl ToSocketAddrs,
        cfg: ShardServerConfig,
    ) -> NetResult<ShardServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            source,
            served,
            cfg,
            stats: NetStats::default(),
            shutdown: AtomicBool::new(false),
            tamper: AtomicU8::new(TAMPER_NONE),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name(format!("sae-net-accept-{}", addr.port()))
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(ShardServer {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard ids this endpoint serves.
    pub fn served_shards(&self) -> &[usize] {
        &self.shared.served
    }

    /// Current wire counters.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Arms (or clears) a byzantine behaviour on every subsequent slice —
    /// the loopback and replication tests use this to prove doctored slices
    /// are *detected* by client verification (or, for
    /// [`ServerTamper::StaleEpoch`], routed around by the freshness check),
    /// not trusted.
    pub fn set_tamper(&self, tamper: Option<ServerTamper>) {
        let code = match tamper {
            None => TAMPER_NONE,
            Some(ServerTamper::FlipRecordByte) => TAMPER_FLIP_RECORD,
            Some(ServerTamper::DropFirstRecord) => TAMPER_DROP_RECORD,
            Some(ServerTamper::FlipTokenBit) => TAMPER_FLIP_TOKEN,
            Some(ServerTamper::StaleEpoch) => TAMPER_STALE_EPOCH,
        };
        self.shared.tamper.store(code, Ordering::Relaxed);
    }

    /// Graceful shutdown: stop accepting, half-close every live connection
    /// (which unblocks workers waiting in socket reads) and join every
    /// thread. Idempotent; also run by `Drop`.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor with a throwaway connection; it re-checks the
        // flag after every accept.
        drop(TcpStream::connect(self.addr));
        if let Some(acceptor) = self.acceptor.take() {
            drop(acceptor.join());
        }
        // The acceptor is gone, so no new registrations: drain the registry
        // outside the lock, half-close the streams, join the workers.
        let conns = std::mem::take(&mut *self.shared.conns.lock());
        for (stream, _) in &conns {
            drop(stream.shutdown(Shutdown::Both));
        }
        for (_, worker) in conns {
            drop(worker.join());
        }
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        if serve_stream(stream, shared).is_none() {
            continue;
        }
    }
}

/// Configures one accepted connection and hands it to a worker thread,
/// registering the (stream clone, worker) pair for shutdown. Returns `None`
/// when the connection could not be set up (it is simply dropped).
fn serve_stream(stream: TcpStream, shared: &Arc<Shared>) -> Option<()> {
    stream
        .set_read_timeout(Some(shared.cfg.read_timeout))
        .ok()?;
    stream
        .set_write_timeout(Some(shared.cfg.write_timeout))
        .ok()?;
    let clone = stream.try_clone().ok()?;
    let worker_shared = Arc::clone(shared);
    let worker = std::thread::Builder::new()
        .name("sae-net-conn".to_string())
        .spawn(move || handle_connection(stream, &worker_shared))
        .ok()?;
    {
        let mut conns = shared.conns.lock();
        // Prune finished workers so a long-lived server does not accumulate
        // one registry entry per connection ever accepted.
        conns.retain(|(_, handle)| !handle.is_finished());
        conns.push((clone, worker));
    }
    Some(())
}

/// One connection's serve loop: read a frame, answer it, repeat until the
/// peer hangs up, the framing breaks, or the server shuts down. The
/// explicit socket shutdown on exit matters: the registry holds a clone of
/// this stream, so merely dropping ours would leave the peer's half open.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut stream = stream;
    serve_loop(&mut stream, shared);
    drop(stream.shutdown(Shutdown::Both));
}

fn serve_loop(stream: &mut TcpStream, shared: &Arc<Shared>) {
    loop {
        // Wait for the next frame's first byte, polling the shutdown flag on
        // every read-timeout tick. Only a timeout *between* frames is
        // retryable; once a frame has started, a timeout tears the framing.
        let first = match await_first_byte(stream, shared) {
            Some(byte) => byte,
            None => return,
        };
        let mut reader = std::io::Cursor::new([first]).chain(&mut *stream);
        let response = match read_frame(&mut reader) {
            Ok((message, n)) => {
                shared.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                shared.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                match respond(&message, shared) {
                    Some(response) => response,
                    None => continue,
                }
            }
            // The frame parsed but is not speakable: answer with a typed
            // error. The framing itself is intact (the CRC passed), so the
            // connection survives.
            Err(NetError::WrongVersion { got }) => {
                shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                error_message(
                    code::UNSUPPORTED_VERSION,
                    format!("version {got} not spoken; this endpoint speaks {WIRE_VERSION}"),
                )
            }
            Err(NetError::UnknownMessageType(tag)) => {
                shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                error_message(code::UNKNOWN_MESSAGE, format!("unknown message type {tag}"))
            }
            Err(NetError::Malformed(what)) => {
                shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                error_message(code::MALFORMED, format!("malformed body: {what}"))
            }
            // Truncation, CRC failure, oversized claim or socket error: the
            // byte stream can no longer be framed — close the connection.
            Err(_) => {
                shared.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if let Message::Error { .. } = response {
            shared.stats.errors_sent.fetch_add(1, Ordering::Relaxed);
        }
        match write_frame(stream, &response) {
            Ok(n) => {
                shared.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .bytes_out
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(_) => return,
        }
    }
}

/// Blocks until a frame's first byte arrives. `None` means stop serving:
/// the peer hung up, the socket died, or the server is shutting down.
fn await_first_byte(stream: &mut TcpStream, shared: &Shared) -> Option<u8> {
    let mut byte = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) => return Some(byte[0]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => return None,
        }
    }
}

/// Computes the response to one well-formed message. `None` means the
/// message needs no response (a `Pong` the peer sent unprompted).
fn respond(message: &Message, shared: &Shared) -> Option<Message> {
    match message {
        Message::Ping => Some(Message::Pong),
        Message::Query { shard, range } => Some(answer_query(*shard, range, shared)),
        Message::Status { shard } => Some(answer_status(*shard, shared)),
        Message::FetchSnapshot { shard, chunk } => {
            Some(answer_fetch_snapshot(*shard, *chunk, shared))
        }
        Message::FetchTail { shard, from_epoch } => {
            Some(answer_fetch_tail(*shard, *from_epoch, shared))
        }
        // Responses are not requests: a peer sending one is confused or
        // probing; answer with a typed error rather than guessing.
        Message::Slice { .. }
        | Message::Error { .. }
        | Message::StatusInfo { .. }
        | Message::SnapshotChunk { .. }
        | Message::Tail { .. } => Some(error_message(
            code::MALFORMED,
            format!("message type {} is not a request", message.tag()),
        )),
        Message::Pong => None,
    }
}

fn served_here(shard: u32, shared: &Shared) -> bool {
    shared.served.contains(&(shard as usize))
}

fn answer_query(shard: u32, range: &sae_workload::RangeQuery, shared: &Shared) -> Message {
    if !served_here(shard, shared) {
        return error_message(
            code::SHARD_NOT_SERVED,
            format!("shard {shard} is not served by this endpoint"),
        );
    }
    // `source_slice` returns a fully-owned slice: every source-side guard is
    // released before the frame write below — a slow client cannot stall
    // the shard's readers.
    let (mut slice, mut epoch) = match shared.source.source_slice(shard as usize, range) {
        Ok(Some(answer)) => answer,
        Ok(None) => {
            return error_message(
                code::NOT_SYNCED,
                format!("shard {shard} has no installed snapshot yet; ask a sibling replica"),
            )
        }
        Err(e) => return error_message(code::QUERY_FAILED, format!("query failed: {e}")),
    };
    let tamper = shared.tamper.load(Ordering::Relaxed);
    apply_tamper(&mut slice, tamper);
    if tamper == TAMPER_STALE_EPOCH {
        epoch = 0;
    }
    shared.stats.queries.fetch_add(1, Ordering::Relaxed);
    let record_len = slice.records.first().map_or(0, <[u8]>::len);
    match Message::from_slice(slice, record_len, epoch) {
        Some(message) => message,
        None => error_message(
            code::RESPONSE_TOO_LARGE,
            "slice exceeds the frame payload cap; narrow the sub-query".to_string(),
        ),
    }
}

fn answer_status(shard: u32, shared: &Shared) -> Message {
    if !served_here(shard, shared) {
        return error_message(
            code::SHARD_NOT_SERVED,
            format!("shard {shard} is not served by this endpoint"),
        );
    }
    match shared.source.served_epoch(shard as usize) {
        Some(epoch) => Message::StatusInfo {
            shard,
            synced: true,
            epoch,
        },
        None => Message::StatusInfo {
            shard,
            synced: false,
            epoch: 0,
        },
    }
}

fn answer_fetch_snapshot(shard: u32, chunk: u32, shared: &Shared) -> Message {
    if !served_here(shard, shared) {
        return error_message(
            code::SHARD_NOT_SERVED,
            format!("shard {shard} is not served by this endpoint"),
        );
    }
    // Re-exported per chunk rather than cached: simple, always-current, and
    // safe — the client cross-checks every chunk's epoch and restarts the
    // fetch if the primary committed between chunks.
    let snapshot = match shared.source.export_snapshot(shard as usize) {
        Ok(bytes) => bytes,
        Err(e) => return replication_error(&e),
    };
    let epoch = match SnapshotHeader::parse(&snapshot) {
        Ok(header) => header.epoch,
        Err(e) => {
            return error_message(
                code::QUERY_FAILED,
                format!("snapshot export unreadable: {e}"),
            )
        }
    };
    let chunks = snapshot.len().div_ceil(SNAPSHOT_CHUNK_SIZE).max(1) as u32;
    if chunk >= chunks {
        return error_message(
            code::MALFORMED,
            format!("chunk {chunk} out of range: this snapshot has {chunks} chunks"),
        );
    }
    let at = chunk as usize * SNAPSHOT_CHUNK_SIZE;
    let bytes = snapshot
        .get(at..snapshot.len().min(at + SNAPSHOT_CHUNK_SIZE))
        .unwrap_or(&[])
        .to_vec();
    shared.stats.snapshot_chunks.fetch_add(1, Ordering::Relaxed);
    Message::SnapshotChunk {
        shard,
        chunk,
        chunks,
        epoch,
        bytes,
    }
}

fn answer_fetch_tail(shard: u32, from_epoch: u64, shared: &Shared) -> Message {
    if !served_here(shard, shared) {
        return error_message(
            code::SHARD_NOT_SERVED,
            format!("shard {shard} is not served by this endpoint"),
        );
    }
    let bytes = match shared.source.export_tail(shard as usize, from_epoch) {
        Ok(bytes) => bytes,
        Err(e) => return replication_error(&e),
    };
    // 4-byte shard header + the framed bytes must fit one frame; a tail
    // that outgrew the cap means the replica fell far behind — a snapshot
    // is the right recovery, same as a rotated-away segment.
    if bytes.len() + 4 + 2 > MAX_FRAME_PAYLOAD {
        return error_message(
            code::TAIL_UNAVAILABLE,
            format!("tail from epoch {from_epoch} exceeds the frame cap; fetch a snapshot instead"),
        );
    }
    shared.stats.tails.fetch_add(1, Ordering::Relaxed);
    Message::Tail { shard, bytes }
}

/// Maps a replication-export failure to its typed wire error.
fn replication_error(e: &StorageError) -> Message {
    match e {
        StorageError::TailUnavailable {
            base_epoch,
            from_epoch,
        } => error_message(
            code::TAIL_UNAVAILABLE,
            format!(
                "tail from epoch {from_epoch} unavailable: segment starts at epoch {base_epoch}; \
                 fetch a snapshot"
            ),
        ),
        StorageError::ReplicationUnsupported => error_message(
            code::REPLICATION_UNSUPPORTED,
            "this endpoint does not export snapshots or tails".to_string(),
        ),
        other => error_message(
            code::QUERY_FAILED,
            format!("replication export failed: {other}"),
        ),
    }
}

/// The armed byzantine behaviour, applied to an honest slice. Tampering
/// with an empty slice is a no-op — there is nothing to doctor.
fn apply_tamper(slice: &mut ShardSlice, tamper: u8) {
    match tamper {
        TAMPER_FLIP_RECORD => {
            if let Some(last) = slice.records.get_mut(0).and_then(|r| r.last_mut()) {
                *last ^= 0x01;
            }
        }
        TAMPER_DROP_RECORD if !slice.records.is_empty() => {
            slice.records = slice.records.iter().skip(1).collect();
        }
        TAMPER_FLIP_TOKEN => {
            slice.vt.0[0] ^= 0x01;
        }
        _ => {}
    }
}

fn error_message(code: u16, detail: String) -> Message {
    Message::Error {
        code,
        version: WIRE_VERSION,
        detail,
    }
}
