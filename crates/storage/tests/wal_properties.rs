//! Property-based tests for the WAL frame codec and the torn-tail scan.
//!
//! The recovery guarantee the commit pipeline leans on is exactly this:
//! whatever happened to the tail of the log — truncation at any byte,
//! arbitrary bit flips, or pure garbage — [`sae_storage::wal::scan_log`]
//! returns the longest valid committed prefix, never panics, and never
//! fabricates a transaction that was not fully appended.

use proptest::prelude::*;
use sae_storage::wal::{crc32, decode_frame, encode_frame, scan_log, WalRecord};
use sae_storage::{Page, PageId, Party, ShardMeta, TreeMeta, PAGE_SIZE};

/// One transaction's inputs: its page after-images plus committed metadata.
type TxSpec = (Vec<(Party, PageId, Page)>, ShardMeta);

fn arb_tree_meta() -> impl Strategy<Value = TreeMeta> {
    (any::<u64>(), 1u32..16, any::<u64>(), any::<u64>()).prop_map(|(root, height, len, nodes)| {
        TreeMeta {
            root: PageId(root),
            height,
            len,
            node_count: nodes,
        }
    })
}

fn arb_shard_meta(epoch: u64) -> impl Strategy<Value = ShardMeta> {
    (
        any::<u32>(),
        arb_tree_meta(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        arb_tree_meta(),
        prop::array::uniform20(any::<u8>()),
    )
        .prop_map(
            move |(upper, sp_index, (records, pages, head), te_tree, te_digest)| ShardMeta {
                upper,
                epoch,
                sp_index,
                heap_record_count: records,
                heap_page_count: pages,
                heap_dir_head: PageId(head),
                te_tree,
                te_digest,
            },
        )
}

/// A page built from a handful of scattered u64 writes — cheap to generate,
/// still exercises arbitrary content under the CRC.
fn arb_page() -> impl Strategy<Value = Page> {
    prop::collection::vec((0usize..PAGE_SIZE - 8, any::<u64>()), 0..6).prop_map(|writes| {
        let mut page = Page::new();
        for (at, value) in writes {
            page.write_u64(at, value);
        }
        page
    })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    (
        0u8..5,
        any::<u64>(),
        any::<u64>(),
        arb_page(),
        arb_shard_meta(3),
    )
        .prop_map(|(kind, a, b, page, meta)| match kind {
            0 => WalRecord::Seg { base_epoch: a },
            1 => WalRecord::Begin { epoch: a },
            2 => WalRecord::PageImage {
                party: if b % 2 == 0 { Party::Sp } else { Party::Te },
                page_id: PageId(a),
                image: Box::new(page),
            },
            3 => WalRecord::HeapDirEntry {
                index: a,
                page_id: PageId(b),
            },
            _ => WalRecord::Commit { meta },
        })
}

/// One committed transaction's frames plus its scan-visible epoch.
fn tx_bytes(epoch: u64, pages: &[(Party, PageId, Page)], meta: ShardMeta) -> Vec<u8> {
    let mut out = encode_frame(&WalRecord::Begin { epoch });
    for (party, page_id, image) in pages {
        out.extend(encode_frame(&WalRecord::PageImage {
            party: *party,
            page_id: *page_id,
            image: Box::new(image.clone()),
        }));
        out.extend(encode_frame(&WalRecord::HeapDirEntry {
            index: page_id.0,
            page_id: *page_id,
        }));
    }
    out.extend(encode_frame(&WalRecord::Commit { meta }));
    out
}

/// A committed log of `n` transactions starting after `base`, returning the
/// full byte image plus each transaction's end offset.
fn committed_log(base: u64, txs: &[TxSpec]) -> (Vec<u8>, Vec<usize>) {
    let mut log = encode_frame(&WalRecord::Seg { base_epoch: base });
    let mut ends = Vec::new();
    for (i, (pages, meta)) in txs.iter().enumerate() {
        let mut meta = meta.clone();
        meta.epoch = base + 1 + i as u64;
        log.extend(tx_bytes(meta.epoch, pages, meta));
        ends.push(log.len());
    }
    (log, ends)
}

fn arb_committed_log() -> impl Strategy<Value = (Vec<u8>, Vec<usize>, u64)> {
    (
        0u64..100,
        prop::collection::vec(
            (
                prop::collection::vec((any::<bool>(), 1u64..64, arb_page()), 0..3),
                arb_shard_meta(0),
            ),
            1..5,
        ),
    )
        .prop_map(|(base, raw)| {
            let txs: Vec<TxSpec> = raw
                .into_iter()
                .map(|(pages, meta)| {
                    (
                        pages
                            .into_iter()
                            .map(|(sp, id, page)| {
                                (if sp { Party::Sp } else { Party::Te }, PageId(id), page)
                            })
                            .collect(),
                        meta,
                    )
                })
                .collect();
            let (log, ends) = committed_log(base, &txs);
            (log, ends, base)
        })
}

/// CRC-32/IEEE by its definition, one bit at a time and without tables.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // --- Checksum -----------------------------------------------------------

    /// Whichever backend this CPU dispatches to, the checksum is the
    /// definition's, so frame bytes never depend on the machine.
    #[test]
    fn crc32_matches_the_bitwise_definition(
        bytes in prop::collection::vec(any::<u8>(), 0..16 * 1024 + 1),
        offset in 0usize..16,
    ) {
        let input = &bytes[offset.min(bytes.len())..];
        prop_assert_eq!(crc32(input), reference_crc32(input));
    }

    // --- Frame codec --------------------------------------------------------

    #[test]
    fn frames_round_trip(record in arb_record()) {
        let frame = encode_frame(&record);
        let (decoded, consumed) = decode_frame(&frame).expect("own frames decode");
        prop_assert_eq!(&decoded, &record);
        prop_assert_eq!(consumed, frame.len());
    }

    #[test]
    fn any_single_byte_corruption_kills_the_frame(
        record in arb_record(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut frame = encode_frame(&record);
        let at = (at as usize) % frame.len();
        frame[at] ^= flip;
        // Either the frame is rejected outright, or (a flip in the length
        // field) it no longer frames the same record at the same length.
        if let Some((decoded, consumed)) = decode_frame(&frame) {
            prop_assert!(decoded != record || consumed != frame.len());
        }
    }

    // --- Torn-tail scans ----------------------------------------------------

    #[test]
    fn full_logs_scan_completely((log, ends, base) in arb_committed_log()) {
        let (seg, txs) = scan_log(&log);
        prop_assert_eq!(seg.expect("segment header present").base_epoch, base);
        prop_assert_eq!(txs.len(), ends.len());
        for (i, tx) in txs.iter().enumerate() {
            prop_assert_eq!(tx.epoch, base + 1 + i as u64);
            prop_assert_eq!(tx.meta.epoch, tx.epoch);
        }
    }

    #[test]
    fn truncation_anywhere_yields_the_committed_prefix(
        (log, ends, _base) in arb_committed_log(),
        cut in any::<u64>(),
    ) {
        let cut = (cut as usize) % (log.len() + 1);
        let (_, full) = scan_log(&log);
        let (_, txs) = scan_log(&log[..cut]);
        // Exactly the transactions whose bytes fully precede the cut.
        let expected = ends.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(txs.len(), expected);
        prop_assert_eq!(&txs[..], &full[..expected]);
    }

    #[test]
    fn a_bit_flip_never_yields_a_fabricated_suffix(
        (log, ends, _base) in arb_committed_log(),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let at = (at as usize) % log.len();
        let mut damaged = log.clone();
        damaged[at] ^= flip;
        let (_, full) = scan_log(&log);
        let (_, txs) = scan_log(&damaged);
        // The flip invalidates the frame holding that byte, so the scan
        // keeps at most the transactions entirely before it — and whatever
        // it keeps is a verbatim prefix of the undamaged log's result.
        let before = ends.iter().filter(|&&end| end <= at).count();
        prop_assert!(txs.len() <= before);
        prop_assert_eq!(&txs[..], &full[..txs.len()]);
    }

    #[test]
    fn garbage_never_panics_and_never_commits(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let (seg, txs) = scan_log(&bytes);
        // Random bytes essentially never frame a valid CRC'd record; at
        // minimum the scan stays structurally sound.
        if seg.is_none() {
            prop_assert!(txs.is_empty());
        }
        for pair in txs.windows(2) {
            prop_assert!(pair[0].epoch <= pair[1].epoch);
        }
    }

    #[test]
    fn garbage_appended_to_a_log_is_ignored(
        (log, ends, _base) in arb_committed_log(),
        tail in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut extended = log.clone();
        extended.extend_from_slice(&tail);
        let (_, full) = scan_log(&log);
        let (_, txs) = scan_log(&extended);
        // The appended garbage can only extend the log if it happens to
        // frame valid records (CRC makes that astronomically unlikely);
        // committed transactions are never lost.
        prop_assert!(txs.len() >= ends.len());
        prop_assert_eq!(&txs[..full.len()], &full[..]);
    }
}
