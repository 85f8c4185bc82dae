//! Fixed-size-record heap files.
//!
//! The service provider stores the outsourced relation `R` as a plain dataset
//! file and, after traversing its index, scans this file to retrieve the
//! actual result records (the paper notes this extra scan explicitly when
//! discussing Figure 6). [`HeapFile`] models that file: records of a fixed
//! length (500 bytes in the evaluation) are packed into 4096-byte pages and
//! addressed by a dense [`RecordId`].

use crate::error::{StorageError, StorageResult};
use crate::page::{PageId, PAGE_SIZE};
use crate::pager::SharedPageStore;
use crate::record_block::RecordBlock;

/// Identifier of a record inside a [`HeapFile`] (dense, 0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u64);

/// A heap file of fixed-length records packed into pages.
pub struct HeapFile {
    store: SharedPageStore,
    pages: Vec<PageId>,
    record_len: usize,
    records_per_page: usize,
    record_count: u64,
}

impl HeapFile {
    /// Creates an empty heap file for records of exactly `record_len` bytes.
    pub fn create(store: SharedPageStore, record_len: usize) -> StorageResult<Self> {
        if record_len == 0 || record_len > PAGE_SIZE {
            return Err(StorageError::InvalidRecordLength(record_len));
        }
        Ok(HeapFile {
            store,
            pages: Vec::new(),
            record_len,
            records_per_page: PAGE_SIZE / record_len,
            record_count: 0,
        })
    }

    /// Reopens a heap file from its persisted geometry: the fixed record
    /// length, the record count and the ordered page list (as recovered from
    /// a [`crate::manifest::PageDirectory`]). The geometry must be
    /// internally consistent — the page list must be exactly long enough for
    /// the record count — or the file is reported as corrupted.
    pub fn open(
        store: SharedPageStore,
        record_len: usize,
        record_count: u64,
        pages: Vec<PageId>,
    ) -> StorageResult<Self> {
        if record_len == 0 || record_len > PAGE_SIZE {
            return Err(StorageError::InvalidRecordLength(record_len));
        }
        let records_per_page = PAGE_SIZE / record_len;
        let needed = record_count.div_ceil(records_per_page as u64);
        if pages.len() as u64 != needed {
            return Err(StorageError::Corrupted(format!(
                "heap geometry mismatch: {record_count} records of {record_len} bytes need \
                 {needed} pages, page table has {}",
                pages.len()
            )));
        }
        Ok(HeapFile {
            store,
            pages,
            record_len,
            records_per_page,
            record_count,
        })
    }

    /// The fixed record length in bytes.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// The ordered page list backing this heap file (what a durable
    /// deployment persists so the file can be reopened).
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Number of records currently stored.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Number of records that fit in one page.
    pub fn records_per_page(&self) -> usize {
        self.records_per_page
    }

    /// Number of pages allocated by this heap file.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Bytes occupied by this heap file (allocated pages).
    pub fn storage_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }

    /// Appends a record, returning its id.
    pub fn append(&mut self, record: &[u8]) -> StorageResult<RecordId> {
        if record.len() != self.record_len {
            return Err(StorageError::RecordSizeMismatch {
                expected: self.record_len,
                actual: record.len(),
            });
        }
        let slot = (self.record_count % self.records_per_page as u64) as usize;
        let page_idx = (self.record_count / self.records_per_page as u64) as usize;

        if page_idx == self.pages.len() {
            self.pages.push(self.store.allocate()?);
        }
        let page_id = self.pages[page_idx];
        let mut page = self.store.read(page_id)?;
        page.write_bytes(slot * self.record_len, record);
        self.store.write(page_id, &page)?;

        let id = RecordId(self.record_count);
        self.record_count += 1;
        Ok(id)
    }

    /// Appends many records at once, buffering page writes (one read/write per
    /// page instead of per record). Returns the id of the first record.
    pub fn append_batch<'a, I>(&mut self, records: I) -> StorageResult<Option<RecordId>>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut first = None;
        let mut current_page_idx: Option<usize> = None;
        let mut current_page = None;

        for record in records {
            if record.len() != self.record_len {
                // Flush whatever we buffered before reporting the error.
                if let (Some(idx), Some(page)) = (current_page_idx, current_page.as_ref()) {
                    self.store.write(self.pages[idx], page)?;
                }
                return Err(StorageError::RecordSizeMismatch {
                    expected: self.record_len,
                    actual: record.len(),
                });
            }
            let slot = (self.record_count % self.records_per_page as u64) as usize;
            let page_idx = (self.record_count / self.records_per_page as u64) as usize;

            if current_page_idx != Some(page_idx) {
                if let (Some(idx), Some(page)) = (current_page_idx, current_page.as_ref()) {
                    self.store.write(self.pages[idx], page)?;
                }
                if page_idx == self.pages.len() {
                    self.pages.push(self.store.allocate()?);
                }
                current_page = Some(self.store.read(self.pages[page_idx])?);
                current_page_idx = Some(page_idx);
            }
            // analyzer:allow(no-unwrap-in-lib, the branch above loads the page whenever the index changes, and it always changes on the first iteration)
            let page = current_page.as_mut().expect("page loaded above");
            page.write_bytes(slot * self.record_len, record);

            if first.is_none() {
                first = Some(RecordId(self.record_count));
            }
            self.record_count += 1;
        }
        if let (Some(idx), Some(page)) = (current_page_idx, current_page.as_ref()) {
            self.store.write(self.pages[idx], page)?;
        }
        Ok(first)
    }

    /// Reads the record with the given id.
    pub fn get(&self, id: RecordId) -> StorageResult<Vec<u8>> {
        if id.0 >= self.record_count {
            return Err(StorageError::RecordOutOfBounds {
                record_id: id.0,
                record_count: self.record_count,
            });
        }
        let slot = (id.0 % self.records_per_page as u64) as usize;
        let page_idx = (id.0 / self.records_per_page as u64) as usize;
        let page = self.store.read(self.pages[page_idx])?;
        Ok(page
            .read_bytes(slot * self.record_len, self.record_len)
            .to_vec())
    }

    /// Calls `visit(position, record)` for each of `positions`, in order,
    /// on the record's bytes in place. Each heap page is read once per run
    /// of consecutive positions on it, so a key-clustered list costs one
    /// page read per page instead of one per record, and no record is
    /// copied. Stops at the first error, `visit`'s or a position past the
    /// end of the file.
    pub fn for_each_at<F>(&self, positions: &[u64], mut visit: F) -> StorageResult<()>
    where
        F: FnMut(u64, &[u8]) -> StorageResult<()>,
    {
        let per_page = self.records_per_page as u64;
        let mut rest = positions;
        while let Some(&first) = rest.first() {
            if first >= self.record_count {
                return Err(StorageError::RecordOutOfBounds {
                    record_id: first,
                    record_count: self.record_count,
                });
            }
            let page_idx = first / per_page;
            let run = rest
                .iter()
                .take_while(|&&pos| pos < self.record_count && pos / per_page == page_idx)
                .count();
            let page = self.store.read(self.pages[page_idx as usize])?;
            for &pos in &rest[..run] {
                let slot = (pos % per_page) as usize;
                visit(
                    pos,
                    page.read_bytes(slot * self.record_len, self.record_len),
                )?;
            }
            rest = &rest[run..];
        }
        Ok(())
    }

    /// Overwrites the record with the given id.
    pub fn update(&mut self, id: RecordId, record: &[u8]) -> StorageResult<()> {
        if record.len() != self.record_len {
            return Err(StorageError::RecordSizeMismatch {
                expected: self.record_len,
                actual: record.len(),
            });
        }
        if id.0 >= self.record_count {
            return Err(StorageError::RecordOutOfBounds {
                record_id: id.0,
                record_count: self.record_count,
            });
        }
        let slot = (id.0 % self.records_per_page as u64) as usize;
        let page_idx = (id.0 / self.records_per_page as u64) as usize;
        let page_id = self.pages[page_idx];
        let mut page = self.store.read(page_id)?;
        page.write_bytes(slot * self.record_len, record);
        self.store.write(page_id, &page)
    }

    /// Reads a contiguous run of records `[start, start + count)`, touching
    /// each underlying page only once. This models the sequential scan of the
    /// dataset file the SP performs to return the query result. Each record
    /// comes back in its own `Vec`; [`HeapFile::read_range_into`] reads the
    /// same records into one block instead.
    pub fn get_range(&self, start: RecordId, count: u64) -> StorageResult<Vec<Vec<u8>>> {
        let range = self.checked_range(start, count)?;
        let mut out = Vec::with_capacity((range.end - range.start) as usize);
        self.for_each_page_run(range, |run| {
            out.extend(run.chunks_exact(self.record_len).map(<[u8]>::to_vec));
        })?;
        Ok(out)
    }

    /// Appends the records `[start, start + count)` to `out`. Each page is
    /// read once, in place ([`crate::PageStore::read_with`]), and its run of
    /// records is copied into the block with one `extend_from_slice`: no
    /// page is cloned and nothing is allocated per record.
    pub fn read_range_into(
        &self,
        start: RecordId,
        count: u64,
        out: &mut RecordBlock,
    ) -> StorageResult<()> {
        let range = self.checked_range(start, count)?;
        self.for_each_page_run(range, |run| out.extend_uniform(run, self.record_len))
    }

    /// `[start, start + count)` as record positions, or
    /// [`StorageError::RecordOutOfBounds`] when it reaches past the last
    /// record — including when `start + count` overflows.
    fn checked_range(&self, start: RecordId, count: u64) -> StorageResult<std::ops::Range<u64>> {
        if count == 0 {
            return Ok(start.0..start.0);
        }
        match start.0.checked_add(count) {
            Some(end) if end <= self.record_count => Ok(start.0..end),
            _ => Err(StorageError::RecordOutOfBounds {
                record_id: start.0.saturating_add(count - 1),
                record_count: self.record_count,
            }),
        }
    }

    /// Calls `visit` once per page `range` touches, in order, on the bytes
    /// of the range's records on that page, read in place.
    fn for_each_page_run(
        &self,
        range: std::ops::Range<u64>,
        mut visit: impl FnMut(&[u8]),
    ) -> StorageResult<()> {
        let per_page = self.records_per_page as u64;
        let mut rid = range.start;
        while rid < range.end {
            let slot = rid % per_page;
            let run = (range.end - rid).min(per_page - slot);
            let offset = slot as usize * self.record_len;
            let len = run as usize * self.record_len;
            self.store
                .read_with(self.pages[(rid / per_page) as usize], &mut |page| {
                    visit(page.read_bytes(offset, len))
                })?;
            rid += run;
        }
        Ok(())
    }

    /// Iterates over all records (used by the data owner when shipping the
    /// dataset to the SP/TE and by full-scan baselines).
    pub fn scan_all(&self) -> StorageResult<Vec<Vec<u8>>> {
        self.get_range(RecordId(0), self.record_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn record(len: usize, tag: u8) -> Vec<u8> {
        let mut r = vec![tag; len];
        r[0] = tag.wrapping_add(1);
        r
    }

    fn new_heap(record_len: usize) -> HeapFile {
        HeapFile::create(MemPager::new_shared(), record_len).unwrap()
    }

    #[test]
    fn create_rejects_bad_record_lengths() {
        assert!(matches!(
            HeapFile::create(MemPager::new_shared(), 0),
            Err(StorageError::InvalidRecordLength(0))
        ));
        assert!(matches!(
            HeapFile::create(MemPager::new_shared(), PAGE_SIZE + 1),
            Err(StorageError::InvalidRecordLength(_))
        ));
        assert!(HeapFile::create(MemPager::new_shared(), PAGE_SIZE).is_ok());
    }

    #[test]
    fn append_and_get_round_trip() {
        let mut heap = new_heap(500);
        let ids: Vec<RecordId> = (0..20u8)
            .map(|i| heap.append(&record(500, i)).unwrap())
            .collect();
        assert_eq!(heap.record_count(), 20);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(heap.get(*id).unwrap(), record(500, i as u8));
        }
    }

    #[test]
    fn records_per_page_matches_paper_parameters() {
        // 500-byte records in 4096-byte pages -> 8 records per page.
        let heap = new_heap(500);
        assert_eq!(heap.records_per_page(), 8);
    }

    #[test]
    fn pages_are_allocated_lazily() {
        let mut heap = new_heap(500);
        assert_eq!(heap.page_count(), 0);
        for i in 0..8u8 {
            heap.append(&record(500, i)).unwrap();
        }
        assert_eq!(heap.page_count(), 1);
        heap.append(&record(500, 8)).unwrap();
        assert_eq!(heap.page_count(), 2);
        assert_eq!(heap.storage_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn append_rejects_wrong_size() {
        let mut heap = new_heap(100);
        assert!(matches!(
            heap.append(&[0u8; 99]),
            Err(StorageError::RecordSizeMismatch { .. })
        ));
    }

    #[test]
    fn get_out_of_bounds_errors() {
        let heap = new_heap(64);
        assert!(matches!(
            heap.get(RecordId(0)),
            Err(StorageError::RecordOutOfBounds { .. })
        ));
    }

    #[test]
    fn update_overwrites_in_place() {
        let mut heap = new_heap(64);
        let id = heap.append(&record(64, 1)).unwrap();
        heap.update(id, &record(64, 9)).unwrap();
        assert_eq!(heap.get(id).unwrap(), record(64, 9));
        assert!(heap.update(RecordId(7), &record(64, 1)).is_err());
        assert!(heap.update(id, &[0u8; 3]).is_err());
    }

    #[test]
    fn get_range_spans_pages() {
        let mut heap = new_heap(500);
        for i in 0..30u8 {
            heap.append(&record(500, i)).unwrap();
        }
        let rows = heap.get_range(RecordId(5), 20).unwrap();
        assert_eq!(rows.len(), 20);
        for (off, row) in rows.iter().enumerate() {
            assert_eq!(*row, record(500, 5 + off as u8));
        }
        assert!(heap.get_range(RecordId(20), 20).is_err());
        assert!(heap.get_range(RecordId(0), 0).unwrap().is_empty());
    }

    #[test]
    fn read_range_into_packs_the_same_records_as_get_range() {
        let mut heap = new_heap(500);
        for i in 0..30u8 {
            heap.append(&record(500, i)).unwrap();
        }
        let mut block = RecordBlock::new();
        block.push([7u8]);
        heap.read_range_into(RecordId(5), 20, &mut block).unwrap();
        heap.read_range_into(RecordId(29), 0, &mut block).unwrap();
        assert_eq!(block.len(), 21);
        assert_eq!(block.first(), Some(&[7u8][..]));
        let rows = heap.get_range(RecordId(5), 20).unwrap();
        assert!(block.iter().skip(1).eq(rows.iter().map(Vec::as_slice)));
        assert!(heap.read_range_into(RecordId(20), 20, &mut block).is_err());
        assert_eq!(block.len(), 21);
    }

    /// `start + count` past `u64::MAX` is a typed out-of-bounds error, not
    /// an overflow panic (debug) or a wrapped bound that passes the check
    /// and then asks for an impossible capacity (release).
    #[test]
    fn an_overflowing_range_is_out_of_bounds() {
        let mut heap = new_heap(64);
        for i in 0..3u8 {
            heap.append(&record(64, i)).unwrap();
        }
        for start in [0, 2, 3, u64::MAX] {
            assert!(
                matches!(
                    heap.get_range(RecordId(start), u64::MAX),
                    Err(StorageError::RecordOutOfBounds {
                        record_count: 3,
                        ..
                    })
                ),
                "start {start}"
            );
            assert!(matches!(
                heap.read_range_into(RecordId(start), u64::MAX, &mut RecordBlock::new()),
                Err(StorageError::RecordOutOfBounds { .. })
            ));
        }
    }

    #[test]
    fn get_range_touches_each_page_once() {
        let store = MemPager::new_shared();
        let mut heap = HeapFile::create(store.clone(), 500).unwrap();
        for i in 0..32u8 {
            heap.append(&record(500, i)).unwrap();
        }
        let before = store.stats().snapshot();
        heap.get_range(RecordId(0), 32).unwrap();
        let delta = store.stats().snapshot().delta_since(&before);
        // 32 records / 8 per page = 4 pages, read exactly once each.
        assert_eq!(delta.node_reads, 4);
    }

    #[test]
    fn for_each_at_reads_each_page_once_per_run() {
        let store = MemPager::new_shared();
        let mut heap = HeapFile::create(store.clone(), 500).unwrap();
        for i in 0..32u8 {
            heap.append(&record(500, i)).unwrap();
        }
        // Pages: [0..8) [8..16) [16..24) [24..32). Runs: {3, 5}, {9},
        // {2} (page 0 again), {30, 31, 24}.
        let positions = [3u64, 5, 9, 2, 30, 31, 24];
        let before = store.stats().snapshot();
        let mut seen = Vec::new();
        heap.for_each_at(&positions, |pos, bytes| {
            assert_eq!(bytes, record(500, pos as u8).as_slice());
            seen.push(pos);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, positions);
        assert_eq!(store.stats().snapshot().delta_since(&before).node_reads, 4);

        // A position past the end is refused; so is the visitor's own error,
        // which stops the walk.
        assert!(matches!(
            heap.for_each_at(&[1, 32], |_, _| Ok(())),
            Err(StorageError::RecordOutOfBounds {
                record_id: 32,
                record_count: 32
            })
        ));
        let mut visited = 0;
        let stop = heap.for_each_at(&[0, 1, 2], |pos, _| {
            visited += 1;
            if pos == 1 {
                return Err(StorageError::Corrupted("stop".into()));
            }
            Ok(())
        });
        assert!(matches!(stop, Err(StorageError::Corrupted(_))));
        assert_eq!(visited, 2);
    }

    #[test]
    fn append_batch_matches_individual_appends() {
        let mut a = new_heap(128);
        let mut b = new_heap(128);
        let records: Vec<Vec<u8>> = (0..50u8).map(|i| record(128, i)).collect();
        for r in &records {
            a.append(r).unwrap();
        }
        let first = b
            .append_batch(records.iter().map(|r| r.as_slice()))
            .unwrap();
        assert_eq!(first, Some(RecordId(0)));
        assert_eq!(a.record_count(), b.record_count());
        for i in 0..50u64 {
            assert_eq!(a.get(RecordId(i)).unwrap(), b.get(RecordId(i)).unwrap());
        }
    }

    #[test]
    fn append_batch_uses_fewer_page_accesses() {
        let store_single = MemPager::new_shared();
        let store_batch = MemPager::new_shared();
        let mut single = HeapFile::create(store_single.clone(), 500).unwrap();
        let mut batch = HeapFile::create(store_batch.clone(), 500).unwrap();
        let records: Vec<Vec<u8>> = (0..64u8).map(|i| record(500, i)).collect();
        for r in &records {
            single.append(r).unwrap();
        }
        batch
            .append_batch(records.iter().map(|r| r.as_slice()))
            .unwrap();
        let single_accesses = store_single.stats().snapshot().node_accesses();
        let batch_accesses = store_batch.stats().snapshot().node_accesses();
        assert!(batch_accesses < single_accesses);
    }

    #[test]
    fn open_round_trips_the_persisted_geometry() {
        let store = MemPager::new_shared();
        let mut heap = HeapFile::create(store.clone(), 500).unwrap();
        for i in 0..20u8 {
            heap.append(&record(500, i)).unwrap();
        }
        let pages = heap.pages().to_vec();
        let count = heap.record_count();
        drop(heap);

        let reopened = HeapFile::open(store.clone(), 500, count, pages.clone()).unwrap();
        assert_eq!(reopened.record_count(), 20);
        for i in 0..20u64 {
            assert_eq!(reopened.get(RecordId(i)).unwrap(), record(500, i as u8));
        }

        // Geometry mismatches are corruption, not silent truncation.
        assert!(matches!(
            HeapFile::open(store.clone(), 500, count + 100, pages.clone()),
            Err(StorageError::Corrupted(_))
        ));
        assert!(matches!(
            HeapFile::open(store.clone(), 500, count, pages[..1].to_vec()),
            Err(StorageError::Corrupted(_))
        ));
        assert!(matches!(
            HeapFile::open(store, 0, 0, Vec::new()),
            Err(StorageError::InvalidRecordLength(0))
        ));
    }

    #[test]
    fn scan_all_returns_everything_in_order() {
        let mut heap = new_heap(500);
        for i in 0..17u8 {
            heap.append(&record(500, i)).unwrap();
        }
        let all = heap.scan_all().unwrap();
        assert_eq!(all.len(), 17);
        assert_eq!(all[16], record(500, 16));
    }
}
