//! Per-shard write-ahead log: the commit pipeline's source of truth.
//!
//! Every durable commit is appended here and fsynced **before** any page or
//! manifest write — the acknowledgement fsync is the log fsync, and page
//! flush + manifest save are demoted to a later checkpoint. Recovery scans
//! the log, tolerates a torn tail (a crash mid-append), replays every fully
//! committed transaction past the manifest's epoch, and truncates the log
//! once a checkpoint has made the replayed state durable in the page files.
//!
//! ## On-disk format
//!
//! A log file (`wal-<shard>.log`) is a flat sequence of CRC-framed records:
//!
//! ```text
//! frame  := [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! payload:= [tag: u8] [body]
//! ```
//!
//! `crc32` is CRC-32/IEEE over the payload ([`crate::crc32`]). Records, by tag:
//!
//! | tag | record         | body                                           |
//! |-----|----------------|------------------------------------------------|
//! | 1   | `Seg`          | `base_epoch: u64` — first frame of a segment   |
//! | 2   | `Begin`        | `epoch: u64`                                   |
//! | 3   | `PageImage`    | `party: u8, page_id: u64, image: PAGE_SIZE`    |
//! | 4   | `HeapDirEntry` | `index: u64, page_id: u64`                     |
//! | 5   | `Commit`       | the committing shard's [`ShardMeta`] bytes     |
//!
//! One transaction is `Begin`, any number of `PageImage` / `HeapDirEntry`
//! records, then `Commit` whose metadata carries the same epoch. The scan
//! ([`scan_log`]) is **torn-tail tolerant**: it stops at the first frame
//! that is short, oversized, or fails its CRC, and drops a trailing `Begin`
//! that never reached its `Commit` — the result is always the longest valid
//! committed prefix, never a panic or a bogus record.
//!
//! ## Segments, rotation, truncation
//!
//! The first frame of every file is `Seg { base_epoch }`: the commit epoch
//! already durable in the page files when the segment was started. Each
//! checkpoint, after saving the manifest, *rotates* the log — atomically
//! replaces it (via [`crate::atomic_replace::atomic_replace`]) with a fresh
//! one-frame segment — which is how the log is truncated: everything the
//! checkpoint persisted no longer needs replaying.

use crate::atomic_replace::atomic_replace;
use crate::error::{StorageError, StorageResult};
use crate::manifest::{Party, ShardMeta, SHARD_META_LEN};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::stats::IoStats;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Returns the WAL file name of shard `shard`: `wal-<shard>.log`.
pub fn wal_file_name(shard: usize) -> String {
    format!("wal-{shard}.log")
}

const TAG_SEG: u8 = 1;
const TAG_BEGIN: u8 = 2;
const TAG_PAGE_IMAGE: u8 = 3;
const TAG_HEAP_DIR_ENTRY: u8 = 4;
const TAG_COMMIT: u8 = 5;

/// Frame header: 4-byte length + 4-byte CRC.
const FRAME_HEADER_LEN: usize = 8;

/// Largest legal payload — a `PageImage` record. Anything claiming more is
/// garbage, rejected before allocation.
const MAX_FRAME_PAYLOAD: usize = 1 + 1 + 8 + PAGE_SIZE;

pub use crate::crc32::crc32;

/// One WAL record. See the module docs for the on-disk layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Segment header: the first frame of every log file. `base_epoch` is
    /// the epoch already durable in the page files when the segment started.
    Seg {
        /// Epoch the page files held when this segment was started.
        base_epoch: u64,
    },
    /// Opens a transaction committing `epoch`.
    Begin {
        /// The epoch this transaction commits.
        epoch: u64,
    },
    /// Full after-image of one page of one party's pager file.
    PageImage {
        /// Whose pager file the page belongs to.
        party: Party,
        /// The page being replaced.
        page_id: PageId,
        /// The complete new content (boxed: a bare [`Page`] would bloat
        /// every variant to 4 KiB).
        image: Box<Page>,
    },
    /// Appends `page_id` at position `index` of the SP heap file's page
    /// list. Redundant with the chain-page images, logged as a cheap
    /// cross-check replay verifies.
    HeapDirEntry {
        /// Position in the heap page list.
        index: u64,
        /// The heap page appended there.
        page_id: PageId,
    },
    /// Closes a transaction: the shard metadata a checkpoint would publish
    /// for it — including the TE digest replay verifies against.
    Commit {
        /// The committed shard metadata.
        meta: ShardMeta,
    },
}

/// Bytes [`encode_payload`] writes for `record`, tag included.
fn payload_len(record: &WalRecord) -> usize {
    1 + match record {
        WalRecord::Seg { .. } | WalRecord::Begin { .. } => 8,
        WalRecord::PageImage { .. } => 1 + 8 + PAGE_SIZE,
        WalRecord::HeapDirEntry { .. } => 16,
        WalRecord::Commit { .. } => SHARD_META_LEN,
    }
}

/// Appends `record`'s payload (tag and body) to `out`.
fn encode_payload(record: &WalRecord, out: &mut Vec<u8>) {
    match record {
        WalRecord::Seg { base_epoch } => {
            out.push(TAG_SEG);
            out.extend_from_slice(&base_epoch.to_le_bytes());
        }
        WalRecord::Begin { epoch } => {
            out.push(TAG_BEGIN);
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        WalRecord::PageImage {
            party,
            page_id,
            image,
        } => {
            out.push(TAG_PAGE_IMAGE);
            out.push(party.code());
            out.extend_from_slice(&page_id.0.to_le_bytes());
            out.extend_from_slice(image.as_slice());
        }
        WalRecord::HeapDirEntry { index, page_id } => {
            out.push(TAG_HEAP_DIR_ENTRY);
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&page_id.0.to_le_bytes());
        }
        WalRecord::Commit { meta } => {
            out.push(TAG_COMMIT);
            out.extend_from_slice(&meta.to_bytes());
        }
    }
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(buf)
}

/// Decodes one frame payload. `None` means the payload is not a valid
/// record (unknown tag or wrong body length) — scans treat that exactly
/// like a CRC failure and stop.
fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let (&tag, body) = payload.split_first()?;
    match tag {
        TAG_SEG if body.len() == 8 => Some(WalRecord::Seg {
            base_epoch: read_u64(body, 0),
        }),
        TAG_BEGIN if body.len() == 8 => Some(WalRecord::Begin {
            epoch: read_u64(body, 0),
        }),
        TAG_PAGE_IMAGE if body.len() == 1 + 8 + PAGE_SIZE => {
            let party = Party::from_code(body[0])?;
            let page_id = PageId(read_u64(body, 1));
            let image = Box::new(Page::from_bytes(&body[9..])?);
            Some(WalRecord::PageImage {
                party,
                page_id,
                image,
            })
        }
        TAG_HEAP_DIR_ENTRY if body.len() == 16 => Some(WalRecord::HeapDirEntry {
            index: read_u64(body, 0),
            page_id: PageId(read_u64(body, 8)),
        }),
        TAG_COMMIT if body.len() == SHARD_META_LEN => Some(WalRecord::Commit {
            meta: ShardMeta::from_bytes(body).ok()?,
        }),
        _ => None,
    }
}

/// Appends `record` to `out` as one complete frame (header + CRC + payload).
/// The payload is encoded in place behind a placeholder header, which is
/// then back-patched with its length and CRC: no intermediate copy.
fn encode_frame_into(record: &WalRecord, out: &mut Vec<u8>) {
    let len = payload_len(record);
    out.reserve(FRAME_HEADER_LEN + len);
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    encode_payload(record, out);
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER_LEN);
    debug_assert_eq!(
        payload.len(),
        len,
        "payload_len disagrees with encode_payload"
    );
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Encodes `record` into one complete frame (header + CRC + payload).
pub fn encode_frame(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(record, &mut out);
    out
}

/// Encodes `records` as one contiguous run of frames — the byte layout a
/// [`scan_log`] of the result decodes back. Used by the replication layer
/// to synthesize snapshot and WAL-tail streams in the exact on-disk format,
/// and by [`WalWriter::append`].
pub fn encode_records(records: &[WalRecord]) -> Vec<u8> {
    let total = records
        .iter()
        .map(|record| FRAME_HEADER_LEN + payload_len(record))
        .sum();
    let mut out = Vec::with_capacity(total);
    for record in records {
        encode_frame_into(record, &mut out);
    }
    out
}

/// Decodes the frame at the front of `bytes`, returning the record and the
/// frame's total length. `None` for anything invalid: a short header, a
/// zero or oversized length, a truncated payload, a CRC mismatch, or an
/// undecodable record.
pub fn decode_frame(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    if bytes.len() < FRAME_HEADER_LEN {
        return None;
    }
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[0..4]);
    let len = u32::from_le_bytes(buf) as usize;
    if len == 0 || len > MAX_FRAME_PAYLOAD || bytes.len() < FRAME_HEADER_LEN + len {
        return None;
    }
    buf.copy_from_slice(&bytes[4..8]);
    let crc = u32::from_le_bytes(buf);
    let payload = &bytes[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
    if crc32(payload) != crc {
        return None;
    }
    Some((decode_payload(payload)?, FRAME_HEADER_LEN + len))
}

/// The segment header a scan recovered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalSegment {
    /// Epoch already durable in the page files when the segment started.
    pub base_epoch: u64,
}

/// One fully committed transaction recovered from the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalTx {
    /// The epoch the transaction commits.
    pub epoch: u64,
    /// Page after-images, in append order.
    pub pages: Vec<(Party, PageId, Page)>,
    /// Heap page-list appends, in append order.
    pub heap_entries: Vec<(u64, PageId)>,
    /// The shard metadata published by the transaction's `Commit`.
    pub meta: ShardMeta,
}

/// Scans a log image and returns the segment header plus every fully
/// committed transaction, in log order.
///
/// The scan is total and torn-tail tolerant by construction:
///
/// * it stops at the first invalid frame (short, oversized, CRC-failed or
///   undecodable) and ignores everything after it;
/// * a trailing `Begin` without its `Commit` is dropped;
/// * a record out of place (a `Commit` matching no `Begin`, an epoch lower
///   than an already-committed one, a `Commit` whose metadata disagrees
///   with its `Begin`'s epoch) ends the scan at the last good transaction;
/// * a file that does not open with a valid `Seg` frame yields
///   `(None, [])` — no evidence at all.
///
/// It never panics and never returns a partially-valid transaction, so the
/// result is always the longest valid committed prefix of the log.
pub fn scan_log(bytes: &[u8]) -> (Option<WalSegment>, Vec<WalTx>) {
    let mut at = 0usize;
    let mut next = || -> Option<WalRecord> {
        let (record, consumed) = decode_frame(&bytes[at..])?;
        at += consumed;
        Some(record)
    };
    let seg = match next() {
        Some(WalRecord::Seg { base_epoch }) => WalSegment { base_epoch },
        _ => return (None, Vec::new()),
    };
    let mut txs: Vec<WalTx> = Vec::new();
    let mut last_epoch = seg.base_epoch;
    'txs: loop {
        let epoch = match next() {
            Some(WalRecord::Begin { epoch }) if epoch >= last_epoch => epoch,
            _ => break,
        };
        let mut pages = Vec::new();
        let mut heap_entries = Vec::new();
        loop {
            match next() {
                Some(WalRecord::PageImage {
                    party,
                    page_id,
                    image,
                }) => pages.push((party, page_id, *image)),
                Some(WalRecord::HeapDirEntry { index, page_id }) => {
                    heap_entries.push((index, page_id));
                }
                Some(WalRecord::Commit { meta }) if meta.epoch == epoch => {
                    txs.push(WalTx {
                        epoch,
                        pages,
                        heap_entries,
                        meta,
                    });
                    last_epoch = epoch;
                    continue 'txs;
                }
                // Torn or out-of-place record: the transaction never fully
                // committed — drop it and stop.
                _ => break 'txs,
            }
        }
    }
    (Some(seg), txs)
}

struct WalInner {
    file: File,
    bytes: u64,
    /// First append error, if any. A torn in-memory append leaves the file
    /// tail in an unknown state; later appends could frame valid-looking
    /// transactions after garbage, so the writer refuses everything until
    /// the next rotation gives it a known-good file again.
    poisoned: Option<String>,
}

/// Append-side handle on one shard's WAL file.
///
/// The writer shares the shard's SP [`IoStats`] so log fsyncs appear in the
/// same per-party accounting the benchmarks gate on: [`WalWriter::sync`]
/// records both a plain sync and a WAL sync, and every append records its
/// byte count.
pub struct WalWriter {
    path: PathBuf,
    wal: Mutex<WalInner>,
    stats: Arc<IoStats>,
}

impl WalWriter {
    /// Creates (or atomically replaces) the log at `path` as a fresh
    /// segment whose page files are durable at `base_epoch`.
    pub fn create<P: AsRef<Path>>(
        path: P,
        base_epoch: u64,
        stats: Arc<IoStats>,
    ) -> StorageResult<WalWriter> {
        let path = path.as_ref().to_path_buf();
        atomic_replace(&path, &encode_frame(&WalRecord::Seg { base_epoch }))?;
        let file = OpenOptions::new().append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        Ok(WalWriter {
            path,
            wal: Mutex::new(WalInner {
                file,
                bytes,
                poisoned: None,
            }),
            stats,
        })
    }

    /// Bytes currently in the log file (segment header included); the
    /// checkpoint-threshold input.
    pub fn log_bytes(&self) -> u64 {
        self.wal.lock().bytes
    }

    /// Appends `records` as one contiguous run of frames, unsynced. A
    /// mid-write failure poisons the writer (later appends could frame
    /// valid-looking transactions after garbage); only
    /// [`WalWriter::rotate`] clears the poisoning.
    pub fn append(&self, records: &[WalRecord]) -> StorageResult<()> {
        let buf = encode_records(records);
        let mut inner = self.wal.lock();
        if let Some(msg) = &inner.poisoned {
            return Err(StorageError::Io(std::io::Error::other(format!(
                "WAL writer poisoned by an earlier append failure: {msg}"
            ))));
        }
        if let Err(e) = inner.file.write_all(&buf) {
            inner.poisoned = Some(e.to_string());
            return Err(StorageError::Io(e));
        }
        inner.bytes += buf.len() as u64;
        self.stats.record_wal_append(buf.len() as u64);
        Ok(())
    }

    /// Fsyncs the log — the acknowledgement barrier of every durable
    /// commit. Counts as both a plain sync and a WAL sync in the shared
    /// [`IoStats`].
    pub fn sync(&self) -> StorageResult<()> {
        {
            let inner = self.wal.lock();
            if let Some(msg) = &inner.poisoned {
                return Err(StorageError::Io(std::io::Error::other(format!(
                    "WAL writer poisoned by an earlier append failure: {msg}"
                ))));
            }
            inner.file.sync_data()?;
        }
        self.stats.record_sync();
        self.stats.record_wal_sync();
        Ok(())
    }

    /// Reads the current segment file back as one byte image, serialized
    /// against concurrent appends and rotations (both hold the same lock),
    /// so the image is always a frame-aligned prefix of some segment —
    /// exactly what a replica's `scan_log` expects. Refuses a poisoned
    /// writer: the file tail is in an unknown state and must not be shipped.
    pub fn segment_image(&self) -> StorageResult<Vec<u8>> {
        let inner = self.wal.lock();
        if let Some(msg) = &inner.poisoned {
            return Err(StorageError::Io(std::io::Error::other(format!(
                "WAL writer poisoned by an earlier append failure: {msg}"
            ))));
        }
        Ok(std::fs::read(&self.path)?)
    }

    /// Truncates the log to a fresh segment at `base_epoch` — called by a
    /// checkpoint *after* the manifest save, so everything dropped is
    /// already durable elsewhere. Atomic: a crash mid-rotation leaves
    /// either the old log or the new one-frame segment. Clears any append
    /// poisoning (the replaced file is known-good again).
    pub fn rotate(&self, base_epoch: u64) -> StorageResult<()> {
        let mut inner = self.wal.lock();
        atomic_replace(&self.path, &encode_frame(&WalRecord::Seg { base_epoch }))?;
        let file = OpenOptions::new().append(true).open(&self.path)?;
        inner.bytes = file.metadata()?.len();
        inner.file = file;
        inner.poisoned = None;
        Ok(())
    }
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("bytes", &self.log_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::TreeMeta;

    fn meta(epoch: u64) -> ShardMeta {
        let tree = TreeMeta {
            root: PageId(3),
            height: 2,
            len: 40,
            node_count: 5,
        };
        ShardMeta {
            upper: 1000,
            epoch,
            sp_index: tree,
            heap_record_count: 40,
            heap_page_count: 5,
            heap_dir_head: PageId(1),
            te_tree: tree,
            te_digest: [7u8; crate::manifest::TE_DIGEST_LEN],
        }
    }

    fn tx_frames(epoch: u64) -> Vec<u8> {
        let mut image = Page::new();
        image.write_u64(0, epoch);
        let records = [
            WalRecord::Begin { epoch },
            WalRecord::PageImage {
                party: Party::Sp,
                page_id: PageId(9),
                image: Box::new(image),
            },
            WalRecord::HeapDirEntry {
                index: 4,
                page_id: PageId(77),
            },
            WalRecord::Commit { meta: meta(epoch) },
        ];
        records.iter().flat_map(encode_frame).collect()
    }

    #[test]
    fn crc32_matches_known_answers() {
        // CRC-32/IEEE check values: the classic "123456789" vector, the
        // empty string and the pangram.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frames_round_trip_every_record_kind() {
        let mut image = Page::new();
        image.write_bytes(100, b"payload");
        let records = [
            WalRecord::Seg { base_epoch: 12 },
            WalRecord::Begin { epoch: 13 },
            WalRecord::PageImage {
                party: Party::Te,
                page_id: PageId(42),
                image: Box::new(image),
            },
            WalRecord::HeapDirEntry {
                index: 3,
                page_id: PageId(55),
            },
            WalRecord::Commit { meta: meta(13) },
        ];
        for record in &records {
            let frame = encode_frame(record);
            let (decoded, consumed) = decode_frame(&frame).unwrap();
            assert_eq!(&decoded, record);
            assert_eq!(consumed, frame.len());
            // Frames decode mid-stream too (trailing bytes ignored).
            let mut padded = frame.clone();
            padded.extend_from_slice(b"trailing");
            assert_eq!(decode_frame(&padded).unwrap().1, frame.len());
        }
    }

    #[test]
    fn scan_recovers_committed_transactions_in_order() {
        let mut log = encode_frame(&WalRecord::Seg { base_epoch: 4 });
        log.extend(tx_frames(5));
        log.extend(tx_frames(6));
        let (seg, txs) = scan_log(&log);
        assert_eq!(seg, Some(WalSegment { base_epoch: 4 }));
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].epoch, 5);
        assert_eq!(txs[1].epoch, 6);
        assert_eq!(txs[0].pages.len(), 1);
        assert_eq!(txs[0].heap_entries, vec![(4, PageId(77))]);
        assert_eq!(txs[1].meta, meta(6));
        // Duplicate epochs (a failed-then-retried commit) are both kept.
        log.extend(tx_frames(6));
        assert_eq!(scan_log(&log).1.len(), 3);
    }

    #[test]
    fn scan_drops_torn_tails_at_every_truncation_point() {
        let mut log = encode_frame(&WalRecord::Seg { base_epoch: 0 });
        log.extend(tx_frames(1));
        let committed_len = log.len();
        log.extend(tx_frames(2));
        // Any truncation strictly inside the second transaction yields
        // exactly the first.
        for cut in committed_len..log.len() {
            let (seg, txs) = scan_log(&log[..cut]);
            assert_eq!(seg, Some(WalSegment { base_epoch: 0 }));
            assert_eq!(txs.len(), 1, "cut at {cut}");
            assert_eq!(txs[0].epoch, 1);
        }
        // A file cut inside the segment header has no evidence at all.
        assert_eq!(scan_log(&log[..4]), (None, Vec::new()));
        assert_eq!(scan_log(&[]), (None, Vec::new()));
    }

    #[test]
    fn scan_stops_at_corruption_and_epoch_regressions() {
        let mut log = encode_frame(&WalRecord::Seg { base_epoch: 0 });
        log.extend(tx_frames(1));
        let good = scan_log(&log).1.len();
        assert_eq!(good, 1);

        // A flipped byte in the second transaction's frames kills exactly
        // that transaction.
        let mut flipped = log.clone();
        flipped.extend(tx_frames(2));
        let offset = log.len() + 20;
        flipped[offset] ^= 0x40;
        let (seg, txs) = scan_log(&flipped);
        assert_eq!(seg, Some(WalSegment { base_epoch: 0 }));
        assert_eq!(txs.len(), 1);

        // An epoch regression is out of place: scan keeps the prefix.
        let mut regressed = log.clone();
        regressed.extend(tx_frames(0));
        assert_eq!(scan_log(&regressed).1.len(), 1);

        // A Begin whose Commit carries a different epoch never commits.
        let mut mismatched = log.clone();
        mismatched.extend(encode_frame(&WalRecord::Begin { epoch: 2 }));
        mismatched.extend(encode_frame(&WalRecord::Commit { meta: meta(3) }));
        assert_eq!(scan_log(&mismatched).1.len(), 1);
    }

    #[test]
    fn writer_appends_syncs_and_rotates() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(wal_file_name(0));
        let stats = IoStats::new_shared();
        let wal = WalWriter::create(&path, 3, Arc::clone(&stats)).unwrap();
        let seg_len = wal.log_bytes();
        assert!(seg_len > 0);

        wal.append(&[
            WalRecord::Begin { epoch: 4 },
            WalRecord::Commit { meta: meta(4) },
        ])
        .unwrap();
        wal.sync().unwrap();
        assert!(wal.log_bytes() > seg_len);

        let snap = stats.snapshot();
        assert_eq!(snap.wal_appends, 1);
        assert_eq!(snap.wal_syncs, 1);
        assert_eq!(snap.syncs, 1);
        assert!(snap.wal_bytes > 0);

        let bytes = std::fs::read(&path).unwrap();
        let (seg, txs) = scan_log(&bytes);
        assert_eq!(seg, Some(WalSegment { base_epoch: 3 }));
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].epoch, 4);

        // Rotation truncates to a fresh segment.
        wal.rotate(4).unwrap();
        assert_eq!(wal.log_bytes(), seg_len);
        let bytes = std::fs::read(&path).unwrap();
        let (seg, txs) = scan_log(&bytes);
        assert_eq!(seg, Some(WalSegment { base_epoch: 4 }));
        assert!(txs.is_empty());

        // And appends keep working after a rotation.
        wal.append(&[
            WalRecord::Begin { epoch: 5 },
            WalRecord::Commit { meta: meta(5) },
        ])
        .unwrap();
        wal.sync().unwrap();
        let (_, txs) = scan_log(&std::fs::read(&path).unwrap());
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].epoch, 5);
    }

    #[test]
    fn encode_records_concatenates_scannable_frames() {
        let records = vec![
            WalRecord::Seg { base_epoch: 7 },
            WalRecord::Begin { epoch: 8 },
            WalRecord::Commit { meta: meta(8) },
        ];
        let bytes = encode_records(&records);
        let (seg, txs) = scan_log(&bytes);
        assert_eq!(seg, Some(WalSegment { base_epoch: 7 }));
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].epoch, 8);
    }

    #[test]
    fn segment_image_reflects_appends_and_rotation() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(wal_file_name(2));
        let wal = WalWriter::create(&path, 1, IoStats::new_shared()).unwrap();
        wal.append(&[
            WalRecord::Begin { epoch: 2 },
            WalRecord::Commit { meta: meta(2) },
        ])
        .unwrap();
        let image = wal.segment_image().unwrap();
        let (seg, txs) = scan_log(&image);
        assert_eq!(seg, Some(WalSegment { base_epoch: 1 }));
        assert_eq!(txs.len(), 1);
        wal.rotate(2).unwrap();
        let (seg, txs) = scan_log(&wal.segment_image().unwrap());
        assert_eq!(seg, Some(WalSegment { base_epoch: 2 }));
        assert!(txs.is_empty());
    }

    #[test]
    fn create_replaces_an_existing_log() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(wal_file_name(1));
        std::fs::write(&path, b"old torn garbage").unwrap();
        let stats = IoStats::new_shared();
        let wal = WalWriter::create(&path, 9, stats).unwrap();
        drop(wal);
        let (seg, txs) = scan_log(&std::fs::read(&path).unwrap());
        assert_eq!(seg, Some(WalSegment { base_epoch: 9 }));
        assert!(txs.is_empty());
    }
}
