//! Property-based tests for the wire frame codec.
//!
//! The promise `docs/protocol.md` makes — and the shard servers rely on to
//! face untrusted peers — is exactly this: whatever bytes arrive, the
//! decoder never panics and never silently accepts a damaged frame.
//! Truncation at any byte, any single-bit flip, an oversized length claim
//! and a foreign version byte each map to their own typed [`NetError`].

use proptest::prelude::*;
use sae_crypto::Digest;
use sae_net::{
    decode_frame, encode_frame, read_frame, Message, NetError, MAX_FRAME_PAYLOAD, WIRE_VERSION,
};
use sae_storage::wal::crc32;
use sae_workload::RangeQuery;
use std::io::Read;

/// A reader that hands out at most `step` bytes per `read`, like a socket
/// whose bytes arrive in small segments.
struct Dribble {
    bytes: Vec<u8>,
    at: usize,
    step: usize,
}

impl Read for Dribble {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step).min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

fn arb_query() -> impl Strategy<Value = Message> {
    (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(shard, a, b)| Message::Query {
        shard,
        range: RangeQuery::new(a, b),
    })
}

fn arb_slice() -> impl Strategy<Value = Message> {
    (
        any::<u32>(),
        1usize..32,
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..6),
        prop::array::uniform20(any::<u8>()),
    )
        .prop_map(|(shard, record_len, epoch, seeds, vt)| Message::Slice {
            shard,
            record_len: record_len as u32,
            epoch,
            records: seeds.iter().map(|&seed| vec![seed; record_len]).collect(),
            vt: Digest(vt),
        })
}

fn arb_status_info() -> impl Strategy<Value = Message> {
    (any::<u32>(), any::<bool>(), any::<u64>()).prop_map(|(shard, synced, epoch)| {
        Message::StatusInfo {
            shard,
            synced,
            epoch,
        }
    })
}

fn arb_snapshot_chunk() -> impl Strategy<Value = Message> {
    (
        any::<u32>(),
        1u32..8,
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(shard, chunks, epoch, bytes)| Message::SnapshotChunk {
            shard,
            chunk: chunks - 1,
            chunks,
            epoch,
            bytes,
        })
}

fn arb_tail() -> impl Strategy<Value = Message> {
    (any::<u32>(), prop::collection::vec(any::<u8>(), 0..48))
        .prop_map(|(shard, bytes)| Message::Tail { shard, bytes })
}

fn arb_error() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<u8>(),
        prop::collection::vec(32u8..127, 0..24),
    )
        .prop_map(|(code, version, detail)| Message::Error {
            code,
            version,
            detail: String::from_utf8_lossy(&detail).into_owned(),
        })
}

/// One of the six replication-catalog messages, uniformly.
fn arb_replication() -> impl Strategy<Value = Message> {
    (
        0u8..6,
        (any::<u32>(), any::<u64>()),
        arb_status_info(),
        arb_snapshot_chunk(),
        arb_tail(),
    )
        .prop_map(
            |(pick, (shard, from_epoch), info, chunk, tail)| match pick {
                0 => Message::Status { shard },
                1 => info,
                2 => Message::FetchSnapshot {
                    shard,
                    chunk: from_epoch as u32 % 64,
                },
                3 => chunk,
                4 => Message::FetchTail { shard, from_epoch },
                _ => tail,
            },
        )
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        0u8..5,
        arb_query(),
        arb_slice(),
        arb_error(),
        arb_replication(),
    )
        .prop_map(|(pick, q, s, e, r)| match pick {
            0 => q,
            1 => s,
            2 => e,
            3 => r,
            _ => Message::Ping,
        })
}

proptest! {
    #[test]
    fn every_catalog_message_round_trips(msg in arb_message()) {
        let frame = encode_frame(&msg);
        let decoded = decode_frame(&frame);
        prop_assert!(decoded.is_ok());
        let (decoded, consumed) = decoded.unwrap();
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncation_at_any_byte_is_typed_never_a_panic(msg in arb_message(), cut in any::<usize>()) {
        let frame = encode_frame(&msg);
        let cut = cut % frame.len(); // strictly shorter than the full frame
        let truncated = matches!(decode_frame(&frame[..cut]), Err(NetError::Truncated { .. }));
        prop_assert!(truncated);
    }

    #[test]
    fn a_stream_cut_at_any_byte_is_typed(msg in arb_message(), cut in any::<usize>(), step in 1usize..16) {
        let frame = encode_frame(&msg);
        let cut = cut % frame.len();
        let mut stream = Dribble { bytes: frame[..cut].to_vec(), at: 0, step };
        // Nothing at all is a hangup between frames; anything after the
        // first byte is a frame cut short.
        let typed = match read_frame(&mut stream) {
            Err(NetError::Disconnected) => cut == 0,
            Err(NetError::Io(e)) => cut > 0 && e.kind() == std::io::ErrorKind::UnexpectedEof,
            _ => false,
        };
        prop_assert!(typed);
    }

    #[test]
    fn short_reads_reassemble_the_frame(msg in arb_message(), step in 1usize..16) {
        let frame = encode_frame(&msg);
        let mut stream = Dribble { bytes: frame.clone(), at: 0, step };
        let read = read_frame(&mut stream);
        prop_assert!(read.is_ok());
        let (read, consumed) = read.unwrap();
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(read, msg);
    }

    #[test]
    fn any_single_bit_flip_is_rejected(msg in arb_message(), at in any::<usize>(), bit in 0u8..8) {
        let mut frame = encode_frame(&msg);
        let at = at % frame.len();
        frame[at] ^= 1 << bit;
        // Depending on where the flip landed this is a CRC mismatch, a
        // truncated or oversized length claim — but never an accepted frame
        // and never a panic.
        prop_assert!(decode_frame(&frame).is_err());
    }

    #[test]
    fn oversized_length_claims_are_rejected_before_allocation(extra in 1usize..1_000_000, junk in any::<u32>()) {
        let len = (MAX_FRAME_PAYLOAD + extra) as u32;
        let mut frame = Vec::new();
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&junk.to_le_bytes());
        let oversized = matches!(
            decode_frame(&frame),
            Err(NetError::Oversized { len: claimed }) if claimed == len as usize
        );
        prop_assert!(oversized);
    }

    #[test]
    fn foreign_version_bytes_are_typed(msg in arb_message(), version in any::<u8>()) {
        prop_assume!(version != WIRE_VERSION);
        let mut frame = encode_frame(&msg);
        // Rewrite the payload's version byte and re-seal the CRC so the
        // *only* defect is the version — the check the decoder must make
        // first.
        frame[8] = version;
        let crc = crc32(&frame[8..]).to_le_bytes();
        frame[4..8].copy_from_slice(&crc);
        let wrong_version = matches!(
            decode_frame(&frame),
            Err(NetError::WrongVersion { got }) if got == version
        );
        prop_assert!(wrong_version);
    }

    /// A SLICE's records travel as one block: the frame carries the
    /// encoded records back to back after the 42-byte header, and the
    /// decoded block holds exactly those bytes, record for record.
    #[test]
    fn a_decoded_slice_block_is_the_encoded_records_byte_for_byte(
        record_len in 1usize..600,
        seeds in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let records: Vec<Vec<u8>> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| (0..record_len).map(|b| seed ^ (i + b) as u8).collect())
            .collect();
        let msg = Message::Slice {
            shard: 1,
            record_len: record_len as u32,
            epoch: 7,
            records: records.iter().collect(),
            vt: Digest::ZERO,
        };
        let frame = encode_frame(&msg);
        let (decoded, _) = decode_frame(&frame).expect("own frames decode");
        let Message::Slice { records: block, .. } = decoded else {
            panic!("a SLICE decoded as another message");
        };
        prop_assert_eq!(block.as_bytes(), &frame[8 + 42..]);
        let concatenated = records.concat();
        prop_assert_eq!(block.as_bytes(), concatenated.as_slice());
        prop_assert_eq!(block.len(), records.len());
        prop_assert!(block.iter().eq(records.iter().map(Vec::as_slice)));
    }

    #[test]
    fn arbitrary_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        if let Ok((_, consumed)) = decode_frame(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }
}
