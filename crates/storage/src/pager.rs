//! Page stores: the abstraction the trees and heap files are built on.
//!
//! A [`PageStore`] hands out 4096-byte pages by id and records every logical
//! access in its [`IoStats`]. Two implementations are provided:
//!
//! * [`MemPager`] — pages live in a `Vec` in memory. This is the "main memory
//!   index" configuration the paper mentions for the trusted entity (§IV) and
//!   the default for unit tests.
//! * [`FilePager`] — pages live in a real file, read and written with
//!   positioned I/O. This is the disk-based configuration of the evaluation.
//!
//! Both are thread-safe (`Send + Sync`) so the concurrent-throughput
//! extension experiment can share a store across worker threads.

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::stats::IoStats;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, dynamically-dispatched page store.
pub type SharedPageStore = Arc<dyn PageStore>;

/// Storage abstraction for fixed-size pages.
///
/// Every `read`/`write` counts as one logical node access in the attached
/// [`IoStats`], which is what the paper's 10 ms/access cost model charges.
pub trait PageStore: Send + Sync {
    /// Allocates a new zeroed page and returns its id.
    fn allocate(&self) -> StorageResult<PageId>;

    /// Reads the page with the given id.
    fn read(&self, id: PageId) -> StorageResult<Page>;

    /// Writes the page with the given id.
    fn write(&self, id: PageId, page: &Page) -> StorageResult<()>;

    /// Forces everything written so far to stable storage (a durability
    /// barrier). Every implementation records the barrier in its
    /// [`IoStats::record_sync`] counter — in-memory stores as a counted
    /// no-op — so identical access sequences charge identical stats on
    /// every backend and benches can report fsyncs-per-op.
    fn sync(&self) -> StorageResult<()>;

    /// Number of pages allocated so far.
    fn page_count(&self) -> u64;

    /// The I/O counters attached to this store.
    fn stats(&self) -> Arc<IoStats>;

    /// Total bytes occupied by the allocated pages.
    fn storage_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }
}

/// An in-memory page store.
pub struct MemPager {
    pages: Mutex<Vec<Page>>,
    stats: Arc<IoStats>,
}

impl Default for MemPager {
    fn default() -> Self {
        Self::new()
    }
}

impl MemPager {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        MemPager {
            pages: Mutex::new(Vec::new()),
            stats: IoStats::new_shared(),
        }
    }

    /// Creates an empty in-memory store behind an `Arc`.
    pub fn new_shared() -> SharedPageStore {
        Arc::new(Self::new())
    }
}

impl PageStore for MemPager {
    fn allocate(&self) -> StorageResult<PageId> {
        let mut pages = self.pages.lock();
        pages.push(Page::new());
        Ok(PageId(pages.len() as u64 - 1))
    }

    fn read(&self, id: PageId) -> StorageResult<Page> {
        // Only successful accesses are charged, so the cost-model numbers
        // stay identical across backends for identical access sequences
        // (FilePager applies the same rule).
        let pages = self.pages.lock();
        let page = pages
            .get(id.0 as usize)
            .cloned()
            .ok_or(StorageError::PageOutOfBounds {
                page_id: id.0,
                page_count: pages.len() as u64,
            })?;
        self.stats.record_node_read();
        self.stats.record_physical_read();
        Ok(page)
    }

    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let mut pages = self.pages.lock();
        let len = pages.len() as u64;
        match pages.get_mut(id.0 as usize) {
            Some(slot) => {
                *slot = page.clone();
                self.stats.record_node_write();
                self.stats.record_physical_write();
                Ok(())
            }
            None => Err(StorageError::PageOutOfBounds {
                page_id: id.0,
                page_count: len,
            }),
        }
    }

    fn sync(&self) -> StorageResult<()> {
        // Memory is always "durable" for the in-memory backend; counting the
        // barrier keeps the stats parity with FilePager.
        self.stats.record_sync();
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }
}

/// A file-backed page store using positioned reads/writes.
pub struct FilePager {
    file: Mutex<File>,
    page_count: AtomicU64,
    stats: Arc<IoStats>,
}

impl FilePager {
    /// Creates (or truncates) a pager file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FilePager {
            file: Mutex::new(file),
            page_count: AtomicU64::new(0),
            stats: IoStats::new_shared(),
        })
    }

    /// Opens an existing pager file at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupted(format!(
                "file length {len} is not a multiple of the page size"
            )));
        }
        Ok(FilePager {
            file: Mutex::new(file),
            page_count: AtomicU64::new(len / PAGE_SIZE as u64),
            stats: IoStats::new_shared(),
        })
    }
}

impl PageStore for FilePager {
    fn allocate(&self) -> StorageResult<PageId> {
        // The new count is published only after the zero-extension hit the
        // file, and only while still holding the file lock. Publishing first
        // (the old `fetch_add` outside the lock) let a concurrent `read` of
        // the fresh id pass the bounds check and fail on the not-yet-extended
        // file, and a failed `write_all` leaked the count forever.
        let mut file = self.file.lock();
        let id = self.page_count.load(Ordering::SeqCst);
        file.seek(SeekFrom::Start(id * PAGE_SIZE as u64))?;
        file.write_all(&[0u8; PAGE_SIZE])?;
        self.page_count.store(id + 1, Ordering::SeqCst);
        Ok(PageId(id))
    }

    fn read(&self, id: PageId) -> StorageResult<Page> {
        let count = self.page_count.load(Ordering::SeqCst);
        if id.0 >= count {
            return Err(StorageError::PageOutOfBounds {
                page_id: id.0,
                page_count: count,
            });
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(id.0 * PAGE_SIZE as u64))?;
            // An in-bounds page that the file cannot deliver means the file
            // was truncated behind the pager's back: report corruption, not a
            // generic I/O failure.
            file.read_exact(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    StorageError::Corrupted(format!(
                        "pager file truncated: page {} is within the {} allocated pages but \
                         could not be read in full",
                        id.0, count
                    ))
                } else {
                    StorageError::Io(e)
                }
            })?;
        }
        self.stats.record_node_read();
        self.stats.record_physical_read();
        // analyzer:allow(no-unwrap-in-lib, buf is allocated at PAGE_SIZE above so from_bytes cannot fail)
        Ok(Page::from_bytes(&buf).expect("buffer is exactly one page"))
    }

    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let count = self.page_count.load(Ordering::SeqCst);
        if id.0 >= count {
            return Err(StorageError::PageOutOfBounds {
                page_id: id.0,
                page_count: count,
            });
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id.0 * PAGE_SIZE as u64))?;
        file.write_all(page.as_slice())?;
        self.stats.record_node_write();
        self.stats.record_physical_write();
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        let file = self.file.lock();
        file.sync_data()?;
        drop(file);
        // Charged only on success, like every other access.
        self.stats.record_sync();
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.page_count.load(Ordering::SeqCst)
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_store(store: &dyn PageStore) {
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(store.page_count(), 2);

        let mut page = Page::new();
        page.write_u64(0, 0xFEED_FACE);
        page.write_bytes(100, b"hello pages");
        store.write(a, &page).unwrap();

        let loaded = store.read(a).unwrap();
        assert_eq!(loaded.read_u64(0), 0xFEED_FACE);
        assert_eq!(loaded.read_bytes(100, 11), b"hello pages");

        // Page b is still zeroed.
        let empty = store.read(b).unwrap();
        assert!(empty.as_slice().iter().all(|&x| x == 0));

        // Out-of-bounds access errors.
        assert!(matches!(
            store.read(PageId(99)),
            Err(StorageError::PageOutOfBounds { .. })
        ));
        assert!(matches!(
            store.write(PageId(99), &page),
            Err(StorageError::PageOutOfBounds { .. })
        ));

        // Stats recorded the accesses.
        let snap = store.stats().snapshot();
        assert!(snap.node_reads >= 2);
        assert!(snap.node_writes >= 1);
        assert_eq!(store.storage_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn mem_pager_basics() {
        let store = MemPager::new();
        exercise_store(&store);
    }

    #[test]
    fn file_pager_basics() {
        let dir = tempfile::tempdir().unwrap();
        let store = FilePager::create(dir.path().join("pages.db")).unwrap();
        exercise_store(&store);
        store.sync().unwrap();
    }

    #[test]
    fn file_pager_persists_across_reopen() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("persist.db");
        let id;
        {
            let store = FilePager::create(&path).unwrap();
            id = store.allocate().unwrap();
            let mut page = Page::new();
            page.write_u32(8, 1234);
            store.write(id, &page).unwrap();
            store.sync().unwrap();
        }
        let reopened = FilePager::open(&path).unwrap();
        assert_eq!(reopened.page_count(), 1);
        assert_eq!(reopened.read(id).unwrap().read_u32(8), 1234);
    }

    #[test]
    fn file_pager_open_rejects_torn_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("torn.db");
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 17]).unwrap();
        assert!(matches!(
            FilePager::open(&path),
            Err(StorageError::Corrupted(_))
        ));
    }

    #[test]
    fn mem_pager_concurrent_allocation_is_consistent() {
        let store = Arc::new(MemPager::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let st = Arc::clone(&store);
                s.spawn(move || {
                    for _ in 0..100 {
                        st.allocate().unwrap();
                    }
                });
            }
        });
        assert_eq!(store.page_count(), 400);
    }

    #[test]
    fn shared_page_store_is_object_safe() {
        let store: SharedPageStore = MemPager::new_shared();
        let id = store.allocate().unwrap();
        assert_eq!(id, PageId(0));
    }

    /// Regression for the allocate race: the page count used to be published
    /// *before* the zeroed extension was written, so a concurrent read of a
    /// fresh id passed the bounds check and failed with a raw
    /// `Io(UnexpectedEof)`. Any id at or above the observed count may race
    /// the allocator and report `PageOutOfBounds`; an id *below* an observed
    /// count must always read successfully.
    #[test]
    fn file_pager_concurrent_allocate_and_read_hammer() {
        let dir = tempfile::tempdir().unwrap();
        let store = Arc::new(FilePager::create(dir.path().join("hammer.db")).unwrap());
        std::thread::scope(|s| {
            for _ in 0..2 {
                let st = Arc::clone(&store);
                s.spawn(move || {
                    for _ in 0..200 {
                        st.allocate().unwrap();
                    }
                });
            }
            for t in 0..2u64 {
                let st = Arc::clone(&store);
                s.spawn(move || {
                    let mut probe = t;
                    for _ in 0..2_000 {
                        let count = st.page_count();
                        if count == 0 {
                            continue;
                        }
                        probe = probe
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407)
                            % count;
                        match st.read(PageId(probe)) {
                            Ok(page) => assert!(page.as_slice().iter().all(|&b| b == 0)),
                            Err(e) => panic!(
                                "read of page {probe} below observed count {count} failed: {e}"
                            ),
                        }
                    }
                });
            }
        });
        assert_eq!(store.page_count(), 400);
    }

    /// Identical access sequences — including out-of-bounds ones — must
    /// charge identical stats on both backends, or per-backend cost-model
    /// numbers diverge.
    #[test]
    fn stats_accounting_is_identical_across_backends() {
        let dir = tempfile::tempdir().unwrap();
        let mem = MemPager::new();
        let file = FilePager::create(dir.path().join("parity.db")).unwrap();
        let drive = |store: &dyn PageStore| {
            let a = store.allocate().unwrap();
            let b = store.allocate().unwrap();
            let mut page = Page::new();
            page.write_u64(0, 7);
            store.write(a, &page).unwrap();
            store.read(a).unwrap();
            store.read(b).unwrap();
            store.sync().unwrap();
            // Failed accesses must not be charged on either backend.
            assert!(store.read(PageId(77)).is_err());
            assert!(store.write(PageId(77), &page).is_err());
            store.stats().snapshot()
        };
        let mem_snap = drive(&mem);
        let file_snap = drive(&file);
        assert_eq!(mem_snap, file_snap);
        assert_eq!(mem_snap.node_reads, 2);
        assert_eq!(mem_snap.node_writes, 1);
        // The durability barrier is counted identically on both backends
        // (the in-memory one as a no-op) and is not a node access.
        assert_eq!(mem_snap.syncs, 1);
        assert_eq!(mem_snap.node_accesses(), 3);
    }

    /// A truncated pager file is *corruption*, not a generic I/O error: the
    /// in-bounds page exists according to the pager's accounting but the file
    /// cannot deliver it.
    #[test]
    fn truncated_file_reports_corruption_not_io() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("trunc.db");
        let store = FilePager::create(&path).unwrap();
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        store.sync().unwrap();
        // Truncate the file behind the pager's back: page `b` is gone.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(PAGE_SIZE as u64).unwrap();
        drop(file);
        assert!(store.read(a).is_ok());
        match store.read(b) {
            Err(StorageError::Corrupted(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected Corrupted, got {other:?}"),
        }
        // The failed read was not charged.
        assert_eq!(store.stats().snapshot().node_reads, 1);
    }
}
