//! The wire format: CRC-framed, length-prefixed request/response messages.
//!
//! The normative byte-level specification lives in `docs/protocol.md`; this
//! module is its implementation. The framing discipline is the write-ahead
//! log's ([`sae_storage::wal`]): a little-endian length prefix, a CRC-32/IEEE
//! over the payload, and a decoder that treats every malformed input — short,
//! oversized, bit-flipped, wrong version — as a typed [`NetError`], never a
//! panic and never a silently misparsed message.
//!
//! ```text
//! frame   := [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! payload := [version: u8] [msg_type: u8] [body]
//! ```

use sae_core::{RecordBlock, ShardSlice};
use sae_crypto::{Digest, DIGEST_LEN};
use sae_storage::crc32::crc32;
use sae_workload::RangeQuery;
use std::io::{Read, Write};

/// The wire protocol version this build speaks. Every payload leads with it;
/// a peer speaking another version is answered with an
/// [`Message::Error`] of code [`code::UNSUPPORTED_VERSION`] that carries the
/// responder's version, which is the whole negotiation story (see
/// `docs/protocol.md` § Version negotiation).
pub const WIRE_VERSION: u8 = 1;

/// Frame header length: 4-byte payload length + 4-byte CRC.
pub const FRAME_HEADER_LEN: usize = 8;

/// Largest payload a peer will buffer. Anything claiming more is rejected
/// before allocation — a garbage length prefix must not OOM the server.
pub const MAX_FRAME_PAYLOAD: usize = 4 << 20;

/// Message type tags. `u8` on the wire; additions are a minor, version-
/// preserving change (unknown tags are rejected with a typed error, not
/// skipped).
pub mod msg {
    /// Client → server: answer one shard's clamped sub-query.
    pub const QUERY: u8 = 1;
    /// Server → client: one shard's slice (records + TE token).
    pub const SLICE: u8 = 2;
    /// Server → client: a typed failure.
    pub const ERROR: u8 = 3;
    /// Client → server: liveness probe.
    pub const PING: u8 = 4;
    /// Server → client: liveness answer.
    pub const PONG: u8 = 5;
    /// Replica → primary: what epoch does this endpoint serve for a shard?
    pub const STATUS: u8 = 6;
    /// Primary → replica: served-epoch advertisement for one shard.
    pub const STATUS_INFO: u8 = 7;
    /// Replica → primary: fetch one chunk of an epoch-stamped shard snapshot.
    pub const FETCH_SNAPSHOT: u8 = 8;
    /// Primary → replica: one snapshot chunk (with the chunk count and the
    /// snapshot's epoch, so a replica can detect a snapshot that changed
    /// between chunk fetches).
    pub const SNAPSHOT_CHUNK: u8 = 9;
    /// Replica → primary: stream the WAL tail from a given epoch.
    pub const FETCH_TAIL: u8 = 10;
    /// Primary → replica: the requested WAL tail, as WAL-framed bytes.
    pub const TAIL: u8 = 11;
}

/// Error codes carried by [`Message::Error`]. `u16` on the wire.
pub mod code {
    /// The request's version byte is not one the server speaks; the error's
    /// `version` field carries the server's version.
    pub const UNSUPPORTED_VERSION: u16 = 1;
    /// The message body did not decode against its type's layout.
    pub const MALFORMED: u16 = 2;
    /// The message type tag is not in the catalog.
    pub const UNKNOWN_MESSAGE: u16 = 3;
    /// The requested shard is not served by this endpoint.
    pub const SHARD_NOT_SERVED: u16 = 4;
    /// The shard exists but answering the query failed server-side.
    pub const QUERY_FAILED: u16 = 5;
    /// The answer exists but does not fit in [`super::MAX_FRAME_PAYLOAD`].
    pub const RESPONSE_TOO_LARGE: u16 = 6;
    /// The requested WAL tail starts before the server's current segment;
    /// the replica must fall back to a full snapshot.
    pub const TAIL_UNAVAILABLE: u16 = 7;
    /// The endpoint serves this shard but has not finished installing a
    /// snapshot for it yet — ask a sibling.
    pub const NOT_SYNCED: u16 = 8;
    /// The endpoint cannot export snapshots or WAL tails (e.g. it fronts an
    /// in-memory engine, or is itself a replica).
    pub const REPLICATION_UNSUPPORTED: u16 = 9;
}

/// Why a wire operation failed. Every decoder and I/O path returns one of
/// these; none of them panics on hostile input.
#[derive(Debug)]
pub enum NetError {
    /// The underlying socket failed (includes read/write timeouts).
    Io(std::io::Error),
    /// The peer closed the connection at a frame boundary.
    Disconnected,
    /// A frame header or payload was cut short.
    Truncated {
        /// Bytes the frame claimed or needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A frame's length prefix exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: usize,
    },
    /// The payload does not match the frame's CRC — bit rot or tampering;
    /// the stream cannot be trusted to be in sync any more.
    CrcMismatch,
    /// The payload's version byte is not [`WIRE_VERSION`].
    WrongVersion {
        /// The version the peer sent.
        got: u8,
    },
    /// The payload's message type tag is not in the catalog.
    UnknownMessageType(u8),
    /// The body did not decode against its message type's layout.
    Malformed(&'static str),
    /// The peer answered with [`Message::Error`].
    Remote {
        /// The error code (see [`code`]).
        code: u16,
        /// The peer's wire version (meaningful for `UNSUPPORTED_VERSION`).
        version: u8,
        /// Human-readable detail.
        detail: String,
    },
    /// The peer answered with a well-formed message of the wrong type.
    UnexpectedMessage {
        /// The message type tag that arrived.
        got: u8,
    },
    /// Replica-side synchronization failed: snapshot or tail bytes arrived
    /// intact at the framing level but could not be validated or installed
    /// (or kept changing under a chunked fetch).
    Replication(String),
    /// Every reachable replica of a shard advertised an epoch below the
    /// client's verified high-water mark — the responses verify against the
    /// token but are provably older than state this client has already
    /// seen, so they were refused rather than silently served.
    StaleSlice {
        /// The shard whose replicas are all stale.
        shard: u32,
        /// The freshest epoch any of them advertised.
        epoch: u64,
        /// The client's verified high-water mark for the shard.
        high_water: u64,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            NetError::Oversized { len } => write!(
                f,
                "frame claims {len}-byte payload, cap is {MAX_FRAME_PAYLOAD}"
            ),
            NetError::CrcMismatch => write!(f, "frame payload fails its CRC"),
            NetError::WrongVersion { got } => {
                write!(
                    f,
                    "peer speaks wire version {got}, this build speaks {WIRE_VERSION}"
                )
            }
            NetError::UnknownMessageType(tag) => write!(f, "unknown message type {tag}"),
            NetError::Malformed(what) => write!(f, "malformed message body: {what}"),
            NetError::Remote {
                code,
                version,
                detail,
            } => write!(f, "remote error {code} (peer version {version}): {detail}"),
            NetError::UnexpectedMessage { got } => {
                write!(f, "unexpected message type {got} for this exchange")
            }
            NetError::Replication(what) => write!(f, "replica sync failed: {what}"),
            NetError::StaleSlice {
                shard,
                epoch,
                high_water,
            } => write!(
                f,
                "shard {shard}: every replica is stale (freshest epoch {epoch}, verified \
                 high-water mark {high_water})"
            ),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// A result on the wire path.
pub type NetResult<T> = Result<T, NetError>;

/// The message catalog. See `docs/protocol.md` for the normative body
/// layouts; `Message::encode_body` / `Message::decode` are their
/// implementation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Answer shard `shard`'s sub-query `[lower, upper]`.
    Query {
        /// The shard the client routed this sub-query to.
        shard: u32,
        /// The clamped sub-range the slice and its token must cover.
        range: RangeQuery,
    },
    /// One shard's contribution to a scatter-gather answer.
    Slice {
        /// The shard that produced the slice.
        shard: u32,
        /// The fixed encoded record length (0 permitted when `records` is
        /// empty).
        record_len: u32,
        /// The commit epoch of the state the slice was served from (0 for
        /// in-memory deployments). Advertised, not verified: the client uses
        /// it only as a freshness heuristic against its high-water mark —
        /// correctness still rests entirely on the TE token.
        epoch: u64,
        /// The slice's records, each exactly `record_len` bytes, packed into
        /// one block exactly as they travel on the wire.
        records: RecordBlock,
        /// The shard TE's verification token over the sub-query.
        vt: Digest,
    },
    /// A typed failure (see [`code`] for the catalog).
    Error {
        /// The error code.
        code: u16,
        /// The responder's wire version.
        version: u8,
        /// Human-readable detail, UTF-8.
        detail: String,
    },
    /// Liveness probe.
    Ping,
    /// Liveness answer.
    Pong,
    /// What epoch does this endpoint serve shard `shard` at?
    Status {
        /// The shard being asked about.
        shard: u32,
    },
    /// Served-epoch advertisement for one shard.
    StatusInfo {
        /// The shard described.
        shard: u32,
        /// Whether the endpoint currently serves the shard (a replica that
        /// has not installed a snapshot yet answers `false`).
        synced: bool,
        /// The commit epoch of the served state (0 when `synced` is false
        /// or the deployment is in-memory).
        epoch: u64,
    },
    /// Fetch chunk `chunk` of shard `shard`'s current snapshot.
    FetchSnapshot {
        /// The shard whose snapshot is wanted.
        shard: u32,
        /// Zero-based chunk index.
        chunk: u32,
    },
    /// One chunk of an epoch-stamped shard snapshot.
    SnapshotChunk {
        /// The shard the snapshot belongs to.
        shard: u32,
        /// Zero-based index of this chunk.
        chunk: u32,
        /// Total chunk count of the snapshot (≥ 1).
        chunks: u32,
        /// The snapshot's commit epoch; a replica rejects a chunk set whose
        /// epochs disagree (the primary committed between fetches).
        epoch: u64,
        /// The chunk's bytes.
        bytes: Vec<u8>,
    },
    /// Stream the WAL tail covering every commit after `from_epoch`.
    FetchTail {
        /// The shard whose tail is wanted.
        shard: u32,
        /// The epoch the requester is already at.
        from_epoch: u64,
    },
    /// The requested WAL tail: a WAL-framed segment image replaying every
    /// commit after the requested epoch.
    Tail {
        /// The shard the tail belongs to.
        shard: u32,
        /// The WAL-framed bytes.
        bytes: Vec<u8>,
    },
}

impl Message {
    /// The message's type tag on the wire.
    pub fn tag(&self) -> u8 {
        match self {
            Message::Query { .. } => msg::QUERY,
            Message::Slice { .. } => msg::SLICE,
            Message::Error { .. } => msg::ERROR,
            Message::Ping => msg::PING,
            Message::Pong => msg::PONG,
            Message::Status { .. } => msg::STATUS,
            Message::StatusInfo { .. } => msg::STATUS_INFO,
            Message::FetchSnapshot { .. } => msg::FETCH_SNAPSHOT,
            Message::SnapshotChunk { .. } => msg::SNAPSHOT_CHUNK,
            Message::FetchTail { .. } => msg::FETCH_TAIL,
            Message::Tail { .. } => msg::TAIL,
        }
    }

    /// Converts an engine-produced [`ShardSlice`] into its wire message,
    /// taking its records without copying them. `None` when the slice
    /// exceeds the frame cap (the server turns that refusal into
    /// [`code::RESPONSE_TOO_LARGE`]).
    pub fn from_slice(slice: ShardSlice, record_len: usize, epoch: u64) -> Option<Message> {
        let message = Message::Slice {
            shard: slice.shard as u32,
            record_len: record_len as u32,
            epoch,
            records: slice.records,
            vt: slice.vt,
        };
        (2 + message.body_len() <= MAX_FRAME_PAYLOAD).then_some(message)
    }

    /// Bytes [`Message::encode_body`] writes.
    fn body_len(&self) -> usize {
        match self {
            Message::Query { .. } | Message::FetchTail { .. } => 12,
            Message::Slice { records, .. } => 20 + DIGEST_LEN + records.as_bytes().len(),
            Message::Error { detail, .. } => 3 + detail.len(),
            Message::Ping | Message::Pong => 0,
            Message::Status { .. } => 4,
            Message::StatusInfo { .. } => 13,
            Message::FetchSnapshot { .. } => 8,
            Message::SnapshotChunk { bytes, .. } => 20 + bytes.len(),
            Message::Tail { bytes, .. } => 4 + bytes.len(),
        }
    }

    /// Encodes the body (everything after the `[version, msg_type]` prefix).
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Message::Query { shard, range } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&range.lower.to_le_bytes());
                out.extend_from_slice(&range.upper.to_le_bytes());
            }
            Message::Slice {
                shard,
                record_len,
                epoch,
                records,
                vt,
            } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&record_len.to_le_bytes());
                out.extend_from_slice(&(records.len() as u32).to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(vt.as_bytes());
                out.extend_from_slice(records.as_bytes());
            }
            Message::Error {
                code,
                version,
                detail,
            } => {
                out.extend_from_slice(&code.to_le_bytes());
                out.push(*version);
                out.extend_from_slice(detail.as_bytes());
            }
            Message::Ping | Message::Pong => {}
            Message::Status { shard } => {
                out.extend_from_slice(&shard.to_le_bytes());
            }
            Message::StatusInfo {
                shard,
                synced,
                epoch,
            } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.push(u8::from(*synced));
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            Message::FetchSnapshot { shard, chunk } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&chunk.to_le_bytes());
            }
            Message::SnapshotChunk {
                shard,
                chunk,
                chunks,
                epoch,
                bytes,
            } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&chunk.to_le_bytes());
                out.extend_from_slice(&chunks.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(bytes);
            }
            Message::FetchTail { shard, from_epoch } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(&from_epoch.to_le_bytes());
            }
            Message::Tail { shard, bytes } => {
                out.extend_from_slice(&shard.to_le_bytes());
                out.extend_from_slice(bytes);
            }
        }
    }

    /// Decodes a full payload (version byte, type tag, body). Typed errors
    /// on every malformed input; never panics.
    pub fn decode(payload: &[u8]) -> NetResult<Message> {
        let (&version, rest) = payload
            .split_first()
            .ok_or(NetError::Malformed("empty payload"))?;
        if version != WIRE_VERSION {
            return Err(NetError::WrongVersion { got: version });
        }
        let (&tag, body) = rest
            .split_first()
            .ok_or(NetError::Malformed("payload has no message type"))?;
        match tag {
            msg::QUERY => {
                let [shard, lower, upper] = decode_u32s(body, "query body is 12 bytes")?;
                if lower > upper {
                    return Err(NetError::Malformed("query lower bound above upper"));
                }
                Ok(Message::Query {
                    shard,
                    range: RangeQuery::new(lower, upper),
                })
            }
            msg::SLICE => {
                if body.len() < 20 + DIGEST_LEN {
                    return Err(NetError::Malformed("slice header is 40 bytes"));
                }
                let (header, payload) = body.split_at(20 + DIGEST_LEN);
                let [shard, record_len, count] =
                    decode_u32s(&header[..12], "slice header is 40 bytes")?;
                let epoch = decode_u64(&header[12..20], "slice header is 40 bytes")?;
                let vt = Digest::from_slice(&header[20..])
                    .ok_or(NetError::Malformed("slice token is 20 bytes"))?;
                let expected = (count as u64).saturating_mul(record_len as u64);
                if expected != payload.len() as u64 {
                    return Err(NetError::Malformed(
                        "slice body length disagrees with count x record_len",
                    ));
                }
                if count > 0 && record_len == 0 {
                    return Err(NetError::Malformed("non-empty slice with zero record_len"));
                }
                // The one copy of the record bytes; the checks above make
                // them a whole number of records.
                let records = RecordBlock::from_uniform(payload.to_vec(), record_len as usize)
                    .ok_or(NetError::Malformed(
                        "slice body length disagrees with count x record_len",
                    ))?;
                Ok(Message::Slice {
                    shard,
                    record_len,
                    epoch,
                    records,
                    vt,
                })
            }
            msg::ERROR => {
                if body.len() < 3 {
                    return Err(NetError::Malformed("error header is 3 bytes"));
                }
                let code = u16::from_le_bytes([body[0], body[1]]);
                let version = body[2];
                let detail = String::from_utf8_lossy(&body[3..]).into_owned();
                Ok(Message::Error {
                    code,
                    version,
                    detail,
                })
            }
            msg::PING | msg::PONG => {
                if !body.is_empty() {
                    return Err(NetError::Malformed("ping/pong carries no body"));
                }
                Ok(if tag == msg::PING {
                    Message::Ping
                } else {
                    Message::Pong
                })
            }
            msg::STATUS => {
                let [shard] = decode_u32s(body, "status body is 4 bytes")?;
                Ok(Message::Status { shard })
            }
            msg::STATUS_INFO => {
                if body.len() != 13 {
                    return Err(NetError::Malformed("status-info body is 13 bytes"));
                }
                let [shard] = decode_u32s(&body[..4], "status-info body is 13 bytes")?;
                let synced = match body[4] {
                    0 => false,
                    1 => true,
                    _ => return Err(NetError::Malformed("status-info synced flag is 0 or 1")),
                };
                let epoch = decode_u64(&body[5..], "status-info body is 13 bytes")?;
                Ok(Message::StatusInfo {
                    shard,
                    synced,
                    epoch,
                })
            }
            msg::FETCH_SNAPSHOT => {
                let [shard, chunk] = decode_u32s(body, "fetch-snapshot body is 8 bytes")?;
                Ok(Message::FetchSnapshot { shard, chunk })
            }
            msg::SNAPSHOT_CHUNK => {
                if body.len() < 20 {
                    return Err(NetError::Malformed("snapshot-chunk header is 20 bytes"));
                }
                let (header, bytes) = body.split_at(20);
                let [shard, chunk, chunks] =
                    decode_u32s(&header[..12], "snapshot-chunk header is 20 bytes")?;
                let epoch = decode_u64(&header[12..], "snapshot-chunk header is 20 bytes")?;
                if chunks == 0 {
                    return Err(NetError::Malformed("snapshot has zero chunks"));
                }
                if chunk >= chunks {
                    return Err(NetError::Malformed("snapshot chunk index past chunk count"));
                }
                Ok(Message::SnapshotChunk {
                    shard,
                    chunk,
                    chunks,
                    epoch,
                    bytes: bytes.to_vec(),
                })
            }
            msg::FETCH_TAIL => {
                if body.len() != 12 {
                    return Err(NetError::Malformed("fetch-tail body is 12 bytes"));
                }
                let [shard] = decode_u32s(&body[..4], "fetch-tail body is 12 bytes")?;
                let from_epoch = decode_u64(&body[4..], "fetch-tail body is 12 bytes")?;
                Ok(Message::FetchTail { shard, from_epoch })
            }
            msg::TAIL => {
                if body.len() < 4 {
                    return Err(NetError::Malformed("tail header is 4 bytes"));
                }
                let (header, bytes) = body.split_at(4);
                let [shard] = decode_u32s(header, "tail header is 4 bytes")?;
                Ok(Message::Tail {
                    shard,
                    bytes: bytes.to_vec(),
                })
            }
            other => Err(NetError::UnknownMessageType(other)),
        }
    }
}

/// Decodes one little-endian `u64`, rejecting any other length.
fn decode_u64(body: &[u8], what: &'static str) -> NetResult<u64> {
    let Ok(bytes) = <[u8; 8]>::try_from(body) else {
        return Err(NetError::Malformed(what));
    };
    Ok(u64::from_le_bytes(bytes))
}

/// Decodes `N` consecutive little-endian `u32`s, rejecting any other length.
fn decode_u32s<const N: usize>(body: &[u8], what: &'static str) -> NetResult<[u32; N]> {
    if body.len() != 4 * N {
        return Err(NetError::Malformed(what));
    }
    let mut out = [0u32; N];
    for (slot, chunk) in out.iter_mut().zip(body.chunks_exact(4)) {
        let Ok(bytes) = <[u8; 4]>::try_from(chunk) else {
            return Err(NetError::Malformed(what));
        };
        *slot = u32::from_le_bytes(bytes);
    }
    Ok(out)
}

/// Encodes one message as a complete frame: header, CRC, versioned payload.
/// The payload is written once, into a buffer of exactly the frame's size,
/// behind a placeholder header that is then back-patched with the length and
/// the CRC computed where the payload sits.
pub fn encode_frame(message: &Message) -> Vec<u8> {
    let len = 2 + message.body_len();
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + len);
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    out.push(WIRE_VERSION);
    out.push(message.tag());
    message.encode_body(&mut out);
    let (header, payload) = out.split_at_mut(FRAME_HEADER_LEN);
    debug_assert_eq!(payload.len(), len, "body_len disagrees with encode_body");
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Decodes one frame from the front of `bytes`, returning the message and
/// the bytes consumed. Pure counterpart of [`read_frame`], shared with the
/// property tests: truncations, bit flips, oversized claims and wrong
/// versions all come back as typed errors.
pub fn decode_frame(bytes: &[u8]) -> NetResult<(Message, usize)> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(NetError::Truncated {
            needed: FRAME_HEADER_LEN,
            have: bytes.len(),
        });
    }
    let Ok(len_bytes) = <[u8; 4]>::try_from(&bytes[0..4]) else {
        return Err(NetError::Malformed("frame header"));
    };
    let Ok(crc_bytes) = <[u8; 4]>::try_from(&bytes[4..8]) else {
        return Err(NetError::Malformed("frame header"));
    };
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(NetError::Oversized { len });
    }
    let total = FRAME_HEADER_LEN + len;
    if bytes.len() < total {
        return Err(NetError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    let payload = &bytes[FRAME_HEADER_LEN..total];
    if crc32(payload) != u32::from_le_bytes(crc_bytes) {
        return Err(NetError::CrcMismatch);
    }
    Ok((Message::decode(payload)?, total))
}

/// Writes one framed message to `w`, returning the bytes written. A tree
/// guard must never be live across this call (the `hold-across-sync`
/// analyzer rule lists it): a slow peer would stall every reader of the
/// shard for the duration of the socket write.
pub fn write_frame<W: Write>(w: &mut W, message: &Message) -> NetResult<usize> {
    let frame = encode_frame(message);
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Reads one framed message from `r`, returning the message and the bytes
/// consumed. The header takes one `read` when it arrives whole. A clean EOF
/// before the first header byte is [`NetError::Disconnected`] (the peer
/// hung up between frames); EOF anywhere inside a frame is a truncation
/// surfaced as [`NetError::Io`].
pub fn read_frame<R: Read>(r: &mut R) -> NetResult<(Message, usize)> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // One read for the header, which usually lands whole. Zero bytes is an
    // idle peer's hangup (EOF at a frame boundary); EOF after the first
    // byte is a frame cut short.
    match r.read(&mut header)? {
        0 => return Err(NetError::Disconnected),
        n => r.read_exact(&mut header[n..])?,
    }
    let Ok(len_bytes) = <[u8; 4]>::try_from(&header[0..4]) else {
        return Err(NetError::Malformed("frame header"));
    };
    let Ok(crc_bytes) = <[u8; 4]>::try_from(&header[4..8]) else {
        return Err(NetError::Malformed("frame header"));
    };
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(NetError::Oversized { len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != u32::from_le_bytes(crc_bytes) {
        return Err(NetError::CrcMismatch);
    }
    Ok((Message::decode(&payload)?, FRAME_HEADER_LEN + len))
}

/// [`Message::from_slice`] for a borrowed slice: clones its record block,
/// one copy of the record bytes.
pub fn slice_to_message(slice: &ShardSlice, record_len: usize, epoch: u64) -> Option<Message> {
    Message::from_slice(slice.clone(), record_len, epoch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Message) {
        let frame = encode_frame(&m);
        let (decoded, used) = decode_frame(&frame).expect("own frames decode");
        assert_eq!(decoded, m);
        assert_eq!(used, frame.len());
        let mut cursor = std::io::Cursor::new(frame.clone());
        let (read, used) = read_frame(&mut cursor).expect("own frames read");
        assert_eq!(read, m);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn catalog_round_trips() {
        roundtrip(Message::Ping);
        roundtrip(Message::Pong);
        roundtrip(Message::Query {
            shard: 3,
            range: RangeQuery::new(17, 4_000_000),
        });
        roundtrip(Message::Error {
            code: code::SHARD_NOT_SERVED,
            version: WIRE_VERSION,
            detail: "shard 9 not here".into(),
        });
        roundtrip(Message::Slice {
            shard: 1,
            record_len: 4,
            epoch: 17,
            records: [[1u8, 2, 3, 4], [5, 6, 7, 8]].into_iter().collect(),
            vt: Digest::new([7u8; DIGEST_LEN]),
        });
        roundtrip(Message::Slice {
            shard: 0,
            record_len: 0,
            epoch: 0,
            records: RecordBlock::new(),
            vt: Digest::ZERO,
        });
        roundtrip(Message::Status { shard: 2 });
        roundtrip(Message::StatusInfo {
            shard: 2,
            synced: true,
            epoch: 99,
        });
        roundtrip(Message::StatusInfo {
            shard: 0,
            synced: false,
            epoch: 0,
        });
        roundtrip(Message::FetchSnapshot { shard: 1, chunk: 3 });
        roundtrip(Message::SnapshotChunk {
            shard: 1,
            chunk: 3,
            chunks: 5,
            epoch: 42,
            bytes: vec![0xAB; 100],
        });
        roundtrip(Message::SnapshotChunk {
            shard: 0,
            chunk: 0,
            chunks: 1,
            epoch: 0,
            bytes: Vec::new(),
        });
        roundtrip(Message::FetchTail {
            shard: 7,
            from_epoch: 12,
        });
        roundtrip(Message::Tail {
            shard: 7,
            bytes: vec![1, 2, 3],
        });
    }

    #[test]
    fn frames_match_the_documented_worked_example() {
        // `docs/protocol.md`, "Worked example": both take the table path.
        let query = encode_frame(&Message::Query {
            shard: 1,
            range: RangeQuery::new(600, 1337),
        });
        assert_eq!(
            query,
            [
                0x0e, 0x00, 0x00, 0x00, 0xc1, 0x81, 0x33, 0x90, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00,
                0x58, 0x02, 0x00, 0x00, 0x39, 0x05, 0x00, 0x00,
            ]
        );
        assert_eq!(
            encode_frame(&Message::Ping),
            [0x02, 0x00, 0x00, 0x00, 0xa7, 0xe7, 0xaf, 0x5f, 0x01, 0x04]
        );
    }

    #[test]
    fn a_wide_slice_frame_round_trips() {
        // `net_wide`'s shape: 1 000 records of 500 B, so the CRC takes the
        // fold path wherever the CPU has one (`sae-storage` holds both
        // backends to the bitwise reference).
        let records: RecordBlock = (0..1000u32)
            .map(|i| {
                (0..500u32)
                    .map(|j| (i * 31 + j * 7) as u8)
                    .collect::<Vec<u8>>()
            })
            .collect();
        let message = Message::Slice {
            shard: 1,
            record_len: 500,
            epoch: 9,
            records,
            vt: Digest::new([3u8; DIGEST_LEN]),
        };
        let frame = encode_frame(&message);
        let payload_len = 2 + 20 + DIGEST_LEN + 1000 * 500;
        assert_eq!(frame.len(), FRAME_HEADER_LEN + payload_len);
        assert_eq!(frame[..4], (payload_len as u32).to_le_bytes());
        assert_eq!(frame[4..8], crc32(&frame[FRAME_HEADER_LEN..]).to_le_bytes());
        // The CRC-32/IEEE of this payload, computed from the layout in
        // `docs/protocol.md` by an independent implementation.
        assert_eq!(frame[4..8], 0xe9e3_66d2_u32.to_le_bytes());
        let (decoded, used) = decode_frame(&frame).unwrap();
        assert_eq!(used, frame.len());
        let Message::Slice { records, .. } = &decoded else {
            panic!("decoded {decoded:?}");
        };
        assert_eq!(records.len(), 1000);
        assert_eq!(records.as_bytes(), &frame[FRAME_HEADER_LEN + 42..]);
        assert_eq!(decoded, message);
    }

    #[test]
    fn from_slice_refuses_exactly_what_exceeds_the_cap() {
        let header = 2 + 20 + DIGEST_LEN;
        let slice = |len: usize| ShardSlice {
            shard: 0,
            records: [vec![0u8; len]].into_iter().collect(),
            vt: Digest::ZERO,
        };
        let fits = MAX_FRAME_PAYLOAD - header;
        let message = Message::from_slice(slice(fits), fits, 4).expect("fits the cap");
        assert_eq!(
            encode_frame(&message).len(),
            FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD
        );
        assert!(Message::from_slice(slice(fits + 1), fits + 1, 4).is_none());
        assert!(slice_to_message(&slice(fits + 1), fits + 1, 4).is_none());
        assert_eq!(
            slice_to_message(&slice(1), 1, 4),
            Message::from_slice(slice(1), 1, 4)
        );
    }

    #[test]
    fn snapshot_chunk_indices_are_validated() {
        // chunks == 0 and chunk >= chunks are both malformed.
        for (chunk, chunks) in [(0u32, 0u32), (5, 5), (6, 5)] {
            let mut payload = vec![WIRE_VERSION, msg::SNAPSHOT_CHUNK];
            payload.extend_from_slice(&1u32.to_le_bytes());
            payload.extend_from_slice(&chunk.to_le_bytes());
            payload.extend_from_slice(&chunks.to_le_bytes());
            payload.extend_from_slice(&9u64.to_le_bytes());
            assert!(
                matches!(Message::decode(&payload), Err(NetError::Malformed(_))),
                "chunk {chunk}/{chunks} accepted"
            );
        }
    }

    #[test]
    fn status_info_synced_flag_must_be_boolean() {
        let mut payload = vec![WIRE_VERSION, msg::STATUS_INFO];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(2); // not 0/1
        payload.extend_from_slice(&9u64.to_le_bytes());
        assert!(matches!(
            Message::decode(&payload),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut frame = encode_frame(&Message::Ping);
        frame[FRAME_HEADER_LEN] = 9; // version byte
                                     // Re-seal the CRC so only the version is wrong.
        let crc = crc32(&frame[FRAME_HEADER_LEN..]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(NetError::WrongVersion { got: 9 })
        ));
    }

    #[test]
    fn oversized_claims_are_rejected_before_allocation() {
        let mut frame = encode_frame(&Message::Ping);
        frame[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(NetError::Oversized { .. })
        ));
    }

    #[test]
    fn slice_count_must_match_body() {
        let mut payload = vec![WIRE_VERSION, msg::SLICE];
        payload.extend_from_slice(&1u32.to_le_bytes()); // shard
        payload.extend_from_slice(&8u32.to_le_bytes()); // record_len
        payload.extend_from_slice(&3u32.to_le_bytes()); // count: claims 24 bytes
        payload.extend_from_slice(&0u64.to_le_bytes()); // epoch
        payload.extend_from_slice(&[0u8; DIGEST_LEN]);
        payload.extend_from_slice(&[0u8; 8]); // only one record present
        assert!(matches!(
            Message::decode(&payload),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn slices_of_zero_length_records_or_mixed_lengths_are_malformed() {
        let mut payload = vec![WIRE_VERSION, msg::SLICE];
        payload.extend_from_slice(&1u32.to_le_bytes()); // shard
        payload.extend_from_slice(&0u32.to_le_bytes()); // record_len
        payload.extend_from_slice(&2u32.to_le_bytes()); // count
        payload.extend_from_slice(&0u64.to_le_bytes()); // epoch
        payload.extend_from_slice(&[0u8; DIGEST_LEN]);
        assert!(matches!(
            Message::decode(&payload),
            Err(NetError::Malformed("non-empty slice with zero record_len"))
        ));

        // A block whose records differ in length encodes (a byzantine server
        // may send it), and its bytes disagree with count x record_len.
        let ragged = Message::Slice {
            shard: 0,
            record_len: 4,
            epoch: 0,
            records: [&[1u8, 2, 3, 4][..], &[5, 6, 7]].into_iter().collect(),
            vt: Digest::ZERO,
        };
        assert!(matches!(
            decode_frame(&encode_frame(&ragged)),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn disconnect_is_distinguished_from_truncation() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame(&mut empty),
            Err(NetError::Disconnected)
        ));
        let frame = encode_frame(&Message::Ping);
        let mut torn = std::io::Cursor::new(frame[..frame.len() - 1].to_vec());
        assert!(matches!(read_frame(&mut torn), Err(NetError::Io(_))));
    }
}
