//! An LRU page cache layered over any [`PageStore`].
//!
//! [`CachedPager`] keeps the *logical* node-access accounting of the paper's
//! cost model intact (every read or write through the cache still counts as a
//! node access) while avoiding redundant physical transfers to the backing
//! store. This separates the two quantities the experiments care about:
//! charged node accesses (identical with or without the cache) and real I/O
//! work (reduced by the cache), and lets the ablation experiments show both.
//!
//! ## Reads in place
//!
//! [`PageStore::read`] hands back a copy of the page. [`PageStore::read_with`]
//! instead runs a closure on the resident page under the pool mutex, so a
//! caller that needs a few hundred bytes of a hit — the heap's run of
//! records — copies just those, with no 4 KiB clone and no allocation. Both
//! go through one private path, so they charge the same logical read, hit
//! or miss, recency update and eviction. The closure must not call into any
//! page store (`docs/invariants.md`, R1).
//!
//! ## Victims without a scan
//!
//! Every use of a resident page takes a fresh, unique tick, stored with the
//! page and appended as a `(tick, page id)` entry to one of two recency
//! queues, *clean* or *dirty*, by the page's state after the use. Appends
//! come in tick order, so each queue is sorted from its least recently used
//! end to its most recently used one. An entry is *live* while its tick is
//! still its page's tick; the entries a later use (or an eviction) left
//! behind are stale and are skipped when they reach the front.
//!
//! * A hit costs one map lookup, the tick store and one append to the tail
//!   of a queue: no other page's state is touched, and nothing is allocated
//!   once the queues have reached their working size.
//! * The eviction victim is the first live entry at a queue's front. In
//!   no-steal mode it is the clean queue's; with no clean page at all the
//!   pool overflows its soft capacity at once, where a scan would have
//!   walked every (dirty) resident page to find nothing. In steal mode it is
//!   the older of the two queues' first live entries.
//! * [`CachedPager::flush`] writes the dirty pages back and merges their
//!   entries into the clean queue by tick — O(pool), but the flush writes
//!   every dirty page anyway.
//! * A queue holding more than four times as many entries as there are
//!   resident pages is rebuilt from the resident pages' own ticks, sorted:
//!   O(pool log pool) once per ≥ 3 × pool appends, so O(log pool) compares
//!   per operation, amortized, and no random lookup per stale entry.
//!
//! **Exact LRU.** Ticks are unique and both queues stay sorted by them, so
//! a queue's first live entry is its minimum-tick page, and the victim is
//! exactly the page a `min_by_key` scan over every resident page's tick
//! (clean pages only, in no-steal mode) would choose. Hit rates, evictions
//! and backing-store writes are those of that scan; the test module keeps
//! the scan as an oracle and checks the queues against it step by step.

use crate::error::StorageResult;
use crate::page::{Page, PageId};
use crate::pager::{PageStore, SharedPageStore};
use crate::stats::IoStats;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Default number of cached pages (1 MiB worth of 4 KiB pages).
pub const DEFAULT_CAPACITY: usize = 256;

/// One resident page.
struct Entry {
    page: Page,
    dirty: bool,
    /// Last-use tick; unique across the pool.
    tick: u64,
}

/// A recency queue: `(tick, page id)` entries in ascending tick order.
type Recency = VecDeque<(u64, u64)>;

struct CacheState {
    entries: HashMap<u64, Entry>,
    clean: Recency,
    dirty: Recency,
    /// Pages written since the last [`CachedPager::take_write_set`] — the
    /// WAL commit path's after-image source. Independent of the dirty
    /// flags: a flush clears dirtiness but not the pending write set.
    write_set: HashSet<u64>,
    tick: u64,
}

/// Whether the queue entry `(tick, id)` is still its page's current use.
fn live(entries: &HashMap<u64, Entry>, (tick, id): (u64, u64)) -> bool {
    entries.get(&id).is_some_and(|entry| entry.tick == tick)
}

/// Pops `queue`'s stale entries off its front and returns the first live
/// one, left in place.
fn first_live(queue: &mut Recency, entries: &HashMap<u64, Entry>) -> Option<(u64, u64)> {
    while let Some(&front) = queue.front() {
        if live(entries, front) {
            return Some(front);
        }
        queue.pop_front();
    }
    None
}

impl CacheState {
    fn new() -> Self {
        CacheState {
            entries: HashMap::new(),
            clean: Recency::new(),
            dirty: Recency::new(),
            write_set: HashSet::new(),
            tick: 0,
        }
    }

    /// Appends page `id`'s use at `tick` to the clean or the dirty queue,
    /// dropping that queue's stale entries once it has grown past four
    /// entries per resident page.
    fn enqueue(&mut self, tick: u64, id: u64, dirty: bool) {
        let limit = 4 * self.entries.len() + 64;
        let queue = if dirty {
            &mut self.dirty
        } else {
            &mut self.clean
        };
        queue.push_back((tick, id));
        if queue.len() > limit {
            // Every resident page's current use is in the queue its dirty
            // flag names, so the live entries are exactly the resident
            // pages of that state. Rebuilding from them walks the map in
            // order instead of looking every entry up at random.
            let mut uses: Vec<(u64, u64)> = self
                .entries
                .iter()
                .filter(|(_, entry)| entry.dirty == dirty)
                .map(|(&id, entry)| (entry.tick, id))
                .collect();
            uses.sort_unstable();
            *queue = uses.into();
        }
    }

    /// Marks page `id`, if resident, as used now — and dirty, if `write` —
    /// and hands its cached page to `use_page`. One map lookup. A page that
    /// is not resident gets `use_page` back, unused.
    fn touch<R, F: FnOnce(&mut Page) -> R>(
        &mut self,
        id: u64,
        write: bool,
        use_page: F,
    ) -> Result<R, F> {
        let Some(entry) = self.entries.get_mut(&id) else {
            return Err(use_page);
        };
        self.tick += 1;
        entry.tick = self.tick;
        entry.dirty |= write;
        let out = use_page(&mut entry.page);
        let (tick, dirty) = (entry.tick, entry.dirty);
        self.enqueue(tick, id, dirty);
        Ok(out)
    }

    /// Makes `page` resident as the most recently used page.
    fn insert(&mut self, id: u64, page: Page, dirty: bool) {
        self.tick += 1;
        let tick = self.tick;
        self.entries.insert(id, Entry { page, dirty, tick });
        self.enqueue(tick, id, dirty);
    }

    /// The least recently used page eviction may take: the clean queue's
    /// under no-steal, else the older of the two queues'.
    fn victim(&mut self, no_steal: bool) -> Option<u64> {
        let clean = first_live(&mut self.clean, &self.entries);
        if no_steal {
            return clean.map(|(_, id)| id);
        }
        let dirty = first_live(&mut self.dirty, &self.entries);
        match (clean, dirty) {
            (Some(c), Some(d)) => Some(c.min(d).1),
            (c, d) => c.or(d).map(|(_, id)| id),
        }
    }

    /// Moves the live entries of every page a flush cleaned from the dirty
    /// queue into the clean queue at their place by tick — one merge of two
    /// sorted queues, which drops every stale entry on the way.
    fn merge_flushed(&mut self) {
        let entries = &self.entries;
        let mut clean = Recency::with_capacity(entries.len());
        let mut dirty = Recency::new();
        let mut old_clean = std::mem::take(&mut self.clean).into_iter().peekable();
        for used in std::mem::take(&mut self.dirty) {
            match entries.get(&used.1) {
                Some(entry) if entry.tick == used.0 && entry.dirty => dirty.push_back(used),
                Some(entry) if entry.tick == used.0 => {
                    while let Some(older) = old_clean.next_if(|older| older.0 < used.0) {
                        if live(entries, older) {
                            clean.push_back(older);
                        }
                    }
                    clean.push_back(used);
                }
                _ => {}
            }
        }
        clean.extend(old_clean.filter(|&older| live(entries, older)));
        self.clean = clean;
        self.dirty = dirty;
    }
}

/// Write-back LRU cache in front of a [`PageStore`].
pub struct CachedPager {
    inner: SharedPageStore,
    capacity: usize,
    cache_state: Mutex<CacheState>,
    stats: Arc<IoStats>,
    flush_on_drop: AtomicBool,
    no_steal: AtomicBool,
}

impl CachedPager {
    /// Wraps `inner` with an LRU cache of `capacity` pages.
    ///
    /// The cache keeps its own [`IoStats`] for logical accesses and hit/miss
    /// accounting; physical transfers continue to be counted by `inner`'s
    /// stats.
    pub fn new(inner: SharedPageStore, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CachedPager {
            inner,
            capacity,
            cache_state: Mutex::new(CacheState::new()),
            stats: IoStats::new_shared(),
            flush_on_drop: AtomicBool::new(true),
            no_steal: AtomicBool::new(false),
        }
    }

    /// Controls whether `Drop` performs a best-effort flush of dirty pages
    /// (the default). A durable deployment running a group-commit or
    /// flush-on-close policy turns this **off**: its cache may hold
    /// mutations that were never acknowledged as durable, and writing them
    /// into the backing file on drop would overwrite committed pages in
    /// place with state the manifest does not describe — turning a clean
    /// crash (recover the last commit) into a detected corruption.
    pub fn set_flush_on_drop(&self, flush: bool) {
        self.flush_on_drop.store(flush, Ordering::Relaxed);
    }

    /// Wraps `inner` with the default capacity.
    pub fn with_default_capacity(inner: SharedPageStore) -> Self {
        Self::new(inner, DEFAULT_CAPACITY)
    }

    /// Switches the pool to **no-steal** eviction: a dirty page is never
    /// written back to the backing store by an eviction — only clean pages
    /// are evicted, and when everything is dirty the pool overflows its
    /// soft capacity instead. WAL-backed deployments require this: a dirty
    /// page holds mutations the log has not yet committed, and stealing it
    /// into the page file would clobber checkpointed pages with state
    /// recovery cannot reconstruct. The default (steal) keeps the classic
    /// write-back behavior for non-durable uses.
    pub fn set_no_steal(&self, no_steal: bool) {
        self.no_steal.store(no_steal, Ordering::Relaxed);
    }

    /// Flushes all dirty pages to the backing store, in ascending page-id
    /// order. `HashMap` iteration order would scatter the writes across the
    /// backing file; the commit path flushes whole batches at once, and
    /// sorted ids turn that into one sequential pass over the file. The
    /// flushed pages join the clean queue at their place by tick.
    pub fn flush(&self) -> StorageResult<()> {
        let mut state = self.cache_state.lock();
        let mut ids: Vec<u64> = state
            .entries
            .iter()
            .filter(|(_, entry)| entry.dirty)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        let mut result = Ok(());
        for id in ids {
            if let Some(entry) = state.entries.get_mut(&id) {
                if let Err(e) = self.inner.write(PageId(id), &entry.page) {
                    result = Err(e);
                    break;
                }
                entry.dirty = false;
            }
        }
        // Pages written before a failure are clean all the same.
        state.merge_flushed();
        result
    }

    /// The backing store.
    pub fn inner(&self) -> &SharedPageStore {
        &self.inner
    }

    /// The set of pages written since the last [`CachedPager::clear_write_set`],
    /// each with its current content, in ascending page-id order — the
    /// after-images a commit appends to the WAL. A page that was written
    /// and then evicted (steal mode only) is read back from the backing
    /// store, which already received its write-back. Non-draining, so a
    /// commit that fails after collecting the set retries with nothing
    /// lost; the commit clears the set only once the images are safely in
    /// the log.
    pub fn write_set_pages(&self) -> StorageResult<Vec<(PageId, Page)>> {
        let state = self.cache_state.lock();
        let mut ids: Vec<u64> = state.write_set.iter().copied().collect();
        ids.sort_unstable();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let page = match state.entries.get(&id) {
                Some(entry) => entry.page.clone(),
                None => self.inner.read(PageId(id))?,
            };
            out.push((PageId(id), page));
        }
        Ok(out)
    }

    /// Forgets the accumulated write set — called once a commit has the
    /// set's after-images durably appended to the WAL.
    pub fn clear_write_set(&self) {
        self.cache_state.lock().write_set.clear();
    }

    /// [`CachedPager::write_set_pages`] followed by
    /// [`CachedPager::clear_write_set`], as one call.
    pub fn take_write_set(&self) -> StorageResult<Vec<(PageId, Page)>> {
        let pages = self.write_set_pages()?;
        self.clear_write_set();
        Ok(pages)
    }

    /// Runs `f` on page `id` — the resident copy on a hit, under the pool
    /// mutex, or the page just read from the backing store on a miss — and
    /// charges one logical read and its hit or miss. [`PageStore::read`]
    /// and [`PageStore::read_with`] both come here, so they charge the same.
    fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        self.stats.record_node_read();
        let mut state = self.cache_state.lock();
        let use_page = match state.touch(id.0, false, |cached: &mut Page| f(cached)) {
            Ok(out) => {
                self.stats.record_cache_hit();
                return Ok(out);
            }
            Err(use_page) => use_page,
        };
        self.stats.record_cache_miss();
        let mut page = self.inner.read(id)?;
        self.evict_if_full(&mut state)?;
        let out = use_page(&mut page);
        state.insert(id.0, page, false);
        Ok(out)
    }

    fn evict_if_full(&self, state: &mut CacheState) -> StorageResult<()> {
        let no_steal = self.no_steal.load(Ordering::Relaxed);
        while state.entries.len() >= self.capacity {
            // Never steal a dirty page in no-steal mode; overflow the soft
            // capacity when everything resident is dirty.
            let Some(victim) = state.victim(no_steal) else {
                break;
            };
            if let Some(entry) = state.entries.get(&victim) {
                if entry.dirty {
                    self.inner.write(PageId(victim), &entry.page)?;
                }
            }
            state.entries.remove(&victim);
        }
        Ok(())
    }
}

impl PageStore for CachedPager {
    fn allocate(&self) -> StorageResult<PageId> {
        self.inner.allocate()
    }

    fn read(&self, id: PageId) -> StorageResult<Page> {
        self.with_page(id, Page::clone)
    }

    fn read_with(&self, id: PageId, f: &mut dyn FnMut(&Page)) -> StorageResult<()> {
        self.with_page(id, f)
    }

    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        self.stats.record_node_write();
        let mut state = self.cache_state.lock();
        let copy = |cached: &mut Page| cached.as_mut_slice().copy_from_slice(page.as_slice());
        if state.touch(id.0, true, copy).is_ok() {
            self.stats.record_cache_hit();
            state.write_set.insert(id.0);
            return Ok(());
        }
        self.stats.record_cache_miss();
        self.evict_if_full(&mut state)?;
        state.insert(id.0, page.clone(), true);
        state.write_set.insert(id.0);
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        // A durability barrier is meaningless for pages still sitting dirty
        // in the pool; callers flush first (the commit path does). The
        // physical barrier belongs to the backing store; the cache mirrors
        // it in its own stats — exactly like logical reads/writes — so a
        // consumer watching the cache's counters (the engines' party
        // accounting) sees the same fsyncs-per-op with or without a pool.
        self.inner.sync()?;
        self.stats.record_sync();
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }
}

impl Drop for CachedPager {
    fn drop(&mut self) {
        // Best-effort flush; Drop cannot fail, but a swallowed error is
        // still recorded so callers holding the stats Arc (`close()` paths)
        // can surface it after the fact.
        if self.flush_on_drop.load(Ordering::Relaxed) && self.flush().is_err() {
            self.stats.record_swallowed_sync_error();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn make(capacity: usize) -> (SharedPageStore, CachedPager) {
        let inner: SharedPageStore = MemPager::new_shared();
        let cache = CachedPager::new(Arc::clone(&inner), capacity);
        (inner, cache)
    }

    #[test]
    fn read_through_and_hit_accounting() {
        let (_inner, cache) = make(4);
        let id = cache.allocate().unwrap();
        let mut page = Page::new();
        page.write_u32(0, 7);
        cache.write(id, &page).unwrap();

        let first = cache.read(id).unwrap();
        let second = cache.read(id).unwrap();
        assert_eq!(first.read_u32(0), 7);
        assert_eq!(second.read_u32(0), 7);

        let snap = cache.stats().snapshot();
        assert_eq!(snap.node_reads, 2);
        assert_eq!(snap.node_writes, 1);
        // The write populated the cache, so both reads hit; the initial write
        // itself was the only miss.
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 1);
    }

    #[test]
    fn dirty_pages_reach_backing_store_on_flush() {
        let (inner, cache) = make(4);
        let id = cache.allocate().unwrap();
        let mut page = Page::new();
        page.write_u64(0, 99);
        cache.write(id, &page).unwrap();

        // Not yet flushed: backing store still sees zeros.
        assert_eq!(inner.read(id).unwrap().read_u64(0), 0);
        cache.flush().unwrap();
        assert_eq!(inner.read(id).unwrap().read_u64(0), 99);
    }

    #[test]
    fn eviction_writes_back_dirty_victims() {
        let (inner, cache) = make(2);
        let mut ids = Vec::new();
        for i in 0..4u64 {
            let id = cache.allocate().unwrap();
            let mut page = Page::new();
            page.write_u64(0, i + 1);
            cache.write(id, &page).unwrap();
            ids.push(id);
        }
        // Capacity 2, so the first pages must have been evicted + written back.
        assert_eq!(inner.read(ids[0]).unwrap().read_u64(0), 1);
        assert_eq!(inner.read(ids[1]).unwrap().read_u64(0), 2);
        // All pages readable through the cache with correct contents.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(cache.read(*id).unwrap().read_u64(0), i as u64 + 1);
        }
    }

    #[test]
    fn logical_accesses_counted_even_on_hits() {
        let (_inner, cache) = make(8);
        let id = cache.allocate().unwrap();
        cache.write(id, &Page::new()).unwrap();
        for _ in 0..10 {
            cache.read(id).unwrap();
        }
        let snap = cache.stats().snapshot();
        assert_eq!(snap.node_reads, 10);
        // Physical reads on the inner store: none needed (page was cached by the write).
        let inner_snap = cache.inner().stats().snapshot();
        assert_eq!(inner_snap.physical_reads, 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (_inner, cache) = make(2);
        let a = cache.allocate().unwrap();
        let b = cache.allocate().unwrap();
        let c = cache.allocate().unwrap();
        cache.write(a, &Page::new()).unwrap();
        cache.write(b, &Page::new()).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        cache.read(a).unwrap();
        cache.write(c, &Page::new()).unwrap();

        let misses_before = cache.stats().snapshot().cache_misses;
        cache.read(a).unwrap(); // still cached -> no new miss
        assert_eq!(cache.stats().snapshot().cache_misses, misses_before);
        cache.read(b).unwrap(); // evicted -> miss
        assert_eq!(cache.stats().snapshot().cache_misses, misses_before + 1);
    }

    /// `flush` must emit dirty pages in ascending page-id order — sequential
    /// I/O on the backing file — regardless of `HashMap` iteration order.
    /// A backing store that logs the id of every page written to it.
    struct Recorder {
        inner: SharedPageStore,
        writes: Mutex<Vec<u64>>,
    }

    impl PageStore for Recorder {
        fn allocate(&self) -> StorageResult<PageId> {
            self.inner.allocate()
        }
        fn read(&self, id: PageId) -> StorageResult<Page> {
            self.inner.read(id)
        }
        fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
            self.writes.lock().push(id.0);
            self.inner.write(id, page)
        }
        fn sync(&self) -> StorageResult<()> {
            self.inner.sync()
        }
        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }
        fn stats(&self) -> Arc<IoStats> {
            self.inner.stats()
        }
    }

    #[test]
    fn flush_writes_dirty_pages_in_ascending_id_order() {
        let recorder = Arc::new(Recorder {
            inner: MemPager::new_shared(),
            writes: Mutex::new(Vec::new()),
        });
        let cache = CachedPager::new(Arc::clone(&recorder) as SharedPageStore, 64);
        let ids: Vec<PageId> = (0..16).map(|_| cache.allocate().unwrap()).collect();
        // Dirty them in a scrambled order; leave some clean.
        for &i in &[7usize, 2, 11, 0, 13, 5, 9] {
            cache.write(ids[i], &Page::new()).unwrap();
        }
        cache.read(ids[3]).unwrap(); // cached but clean
        recorder.writes.lock().clear();
        cache.flush().unwrap();
        let order = recorder.writes.lock().clone();
        assert_eq!(order, vec![0, 2, 5, 7, 9, 11, 13]);
        // A second flush has nothing dirty left.
        recorder.writes.lock().clear();
        cache.flush().unwrap();
        assert!(recorder.writes.lock().is_empty());
    }

    /// The pool's victim choice before the recency lists, kept as the
    /// oracle they must match: a `min_by_key` scan over every resident
    /// page's last-use tick (clean pages only, in no-steal mode). It models
    /// residency, dirtiness, ticks, hit/miss counts and the ids written to
    /// the backing store; page contents are checked against `contents`.
    struct ScanOracle {
        entries: HashMap<u64, (bool, u64)>,
        write_set: HashSet<u64>,
        tick: u64,
        capacity: usize,
        no_steal: bool,
        hits: u64,
        misses: u64,
        writes: Vec<u64>,
    }

    impl ScanOracle {
        fn new(capacity: usize, no_steal: bool) -> Self {
            ScanOracle {
                entries: HashMap::new(),
                write_set: HashSet::new(),
                tick: 0,
                capacity,
                no_steal,
                hits: 0,
                misses: 0,
                writes: Vec::new(),
            }
        }

        fn evict_if_full(&mut self) {
            while self.entries.len() >= self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .filter(|(_, (dirty, _))| !(self.no_steal && *dirty))
                    .min_by_key(|(_, (_, tick))| *tick)
                    .map(|(&id, _)| id);
                let Some(victim) = victim else {
                    break;
                };
                if self.entries.remove(&victim).unwrap().0 {
                    self.writes.push(victim);
                }
            }
        }

        fn read(&mut self, id: u64) {
            if let Some(entry) = self.entries.get_mut(&id) {
                self.hits += 1;
                self.tick += 1;
                entry.1 = self.tick;
                return;
            }
            self.misses += 1;
            self.evict_if_full();
            self.tick += 1;
            self.entries.insert(id, (false, self.tick));
        }

        fn write(&mut self, id: u64) {
            if self.entries.contains_key(&id) {
                self.hits += 1;
            } else {
                self.misses += 1;
                self.evict_if_full();
            }
            self.tick += 1;
            self.entries.insert(id, (true, self.tick));
            self.write_set.insert(id);
        }

        fn flush(&mut self) {
            let mut ids: Vec<u64> = self
                .entries
                .iter()
                .filter(|(_, (dirty, _))| *dirty)
                .map(|(&id, _)| id)
                .collect();
            ids.sort_unstable();
            for id in ids {
                self.writes.push(id);
                self.entries.get_mut(&id).unwrap().0 = false;
            }
        }

        fn take_write_set(&mut self) -> Vec<u64> {
            let mut ids: Vec<u64> = self.write_set.drain().collect();
            ids.sort_unstable();
            ids
        }
    }

    /// Seeded differential run: random reads (half of them through
    /// `read_with`), writes, flushes and write-set drains against the pool
    /// and the scan oracle, in steal and no-steal mode at capacities 1, 2
    /// and 8. After every step the resident set (hence every eviction), the
    /// hit and miss counts and the sequence of backing-store writes must
    /// match, and every read returns the last value written.
    #[test]
    fn recency_queues_evict_exactly_what_the_tick_scan_evicts() {
        const PAGES: u64 = 12;
        let mut rng = 0x5EED_u64;
        let mut next = move |bound: u64| {
            // splitmix64
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        for no_steal in [false, true] {
            for capacity in [1usize, 2, 8] {
                for run in 0..20 {
                    let recorder = Arc::new(Recorder {
                        inner: MemPager::new_shared(),
                        writes: Mutex::new(Vec::new()),
                    });
                    let cache =
                        CachedPager::new(Arc::clone(&recorder) as SharedPageStore, capacity);
                    cache.set_no_steal(no_steal);
                    for _ in 0..PAGES {
                        cache.allocate().unwrap();
                    }
                    let mut oracle = ScanOracle::new(capacity, no_steal);
                    let mut contents = vec![0u64; PAGES as usize];
                    for step in 0..1_000u64 {
                        let id = next(PAGES);
                        let op = next(20);
                        let ctx =
                            format!("no_steal={no_steal} cap={capacity} run={run} step={step}");
                        match op {
                            // Every other read goes through `read_with`,
                            // which the oracle charges as a plain read.
                            0..=8 if step % 2 == 0 => {
                                let page = cache.read(PageId(id)).unwrap();
                                assert_eq!(page.read_u64(0), contents[id as usize], "{ctx}");
                                oracle.read(id);
                            }
                            0..=8 => {
                                let mut seen = None;
                                cache
                                    .read_with(PageId(id), &mut |page| {
                                        seen = Some(page.read_u64(0))
                                    })
                                    .unwrap();
                                assert_eq!(seen, Some(contents[id as usize]), "{ctx}");
                                oracle.read(id);
                            }
                            9..=16 => {
                                let mut page = Page::new();
                                page.write_u64(0, step + 1);
                                cache.write(PageId(id), &page).unwrap();
                                contents[id as usize] = step + 1;
                                oracle.write(id);
                            }
                            17..=18 => {
                                cache.flush().unwrap();
                                oracle.flush();
                            }
                            _ => {
                                let taken = cache.take_write_set().unwrap();
                                let ids: Vec<u64> = taken.iter().map(|(id, _)| id.0).collect();
                                assert_eq!(ids, oracle.take_write_set(), "{ctx}");
                                for (id, page) in &taken {
                                    assert_eq!(page.read_u64(0), contents[id.0 as usize], "{ctx}");
                                }
                            }
                        }
                        let mut resident: Vec<u64> =
                            cache.cache_state.lock().entries.keys().copied().collect();
                        resident.sort_unstable();
                        let mut expected: Vec<u64> = oracle.entries.keys().copied().collect();
                        expected.sort_unstable();
                        assert_eq!(resident, expected, "{ctx}");
                        let snap = cache.stats().snapshot();
                        assert_eq!(
                            (snap.cache_hits, snap.cache_misses),
                            (oracle.hits, oracle.misses),
                            "{ctx}"
                        );
                        assert_eq!(*recorder.writes.lock(), oracle.writes, "{ctx}");
                    }
                }
            }
        }
    }

    /// `read_with` charges exactly what `read` charges, on the pool and on
    /// its backing store: the same sequence of page ids, once through each,
    /// leaves identical counters.
    #[test]
    fn read_with_charges_what_read_charges() {
        let drive = |through_closure: bool| {
            let (inner, cache) = make(3);
            let ids: Vec<PageId> = (0..6).map(|_| cache.allocate().unwrap()).collect();
            for (i, &id) in ids.iter().enumerate() {
                let mut page = Page::new();
                page.write_u64(0, i as u64);
                inner.write(id, &page).unwrap();
            }
            for &i in &[0usize, 1, 0, 2, 3, 0, 4, 5, 1, 1, 2, 0] {
                let got = if through_closure {
                    let mut seen = None;
                    cache
                        .read_with(ids[i], &mut |page| seen = Some(page.read_u64(0)))
                        .unwrap();
                    seen.unwrap()
                } else {
                    cache.read(ids[i]).unwrap().read_u64(0)
                };
                assert_eq!(got, i as u64);
            }
            assert!(cache.read_with(PageId(99), &mut |_| {}).is_err());
            (cache.stats().snapshot(), inner.stats().snapshot())
        };
        let (pool, backing) = drive(true);
        assert_eq!((pool, backing), drive(false));
        // Twelve reads and the failed one; capacity 3 makes three hits.
        assert_eq!(pool.node_reads, 13);
        assert_eq!((pool.cache_hits, pool.cache_misses), (3, 10));
        assert_eq!(backing.physical_reads, 9);
    }

    #[test]
    fn take_write_set_returns_written_pages_and_clears() {
        let (_inner, cache) = make(8);
        let a = cache.allocate().unwrap();
        let b = cache.allocate().unwrap();
        let c = cache.allocate().unwrap();
        let mut page = Page::new();
        page.write_u64(0, 1);
        cache.write(b, &page).unwrap();
        page.write_u64(0, 2);
        cache.write(a, &page).unwrap();
        cache.read(c).unwrap(); // reads don't enter the write set

        let set = cache.take_write_set().unwrap();
        let ids: Vec<PageId> = set.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![a, b]); // ascending order
        assert_eq!(set[0].1.read_u64(0), 2);
        assert_eq!(set[1].1.read_u64(0), 1);
        // Drained: nothing pending until the next write.
        assert!(cache.take_write_set().unwrap().is_empty());
        cache.write(c, &Page::new()).unwrap();
        assert_eq!(cache.take_write_set().unwrap().len(), 1);
    }

    #[test]
    fn take_write_set_survives_a_flush_clearing_dirtiness() {
        let (_inner, cache) = make(8);
        let id = cache.allocate().unwrap();
        let mut page = Page::new();
        page.write_u64(8, 77);
        cache.write(id, &page).unwrap();
        // A flush (e.g. a checkpoint racing in) clears the dirty flag but
        // must not lose the pending after-image.
        cache.flush().unwrap();
        let set = cache.take_write_set().unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].1.read_u64(8), 77);
    }

    #[test]
    fn take_write_set_reads_back_stolen_pages() {
        // Steal mode, capacity 2: dirty pages get evicted + written back;
        // the write set must recover their content from the backing store.
        let (_inner, cache) = make(2);
        let mut ids = Vec::new();
        for i in 0..4u64 {
            let id = cache.allocate().unwrap();
            let mut page = Page::new();
            page.write_u64(0, i + 1);
            cache.write(id, &page).unwrap();
            ids.push(id);
        }
        let set = cache.take_write_set().unwrap();
        assert_eq!(set.len(), 4);
        for (i, (id, page)) in set.iter().enumerate() {
            assert_eq!(*id, ids[i]);
            assert_eq!(page.read_u64(0), i as u64 + 1);
        }
    }

    #[test]
    fn no_steal_eviction_never_writes_dirty_pages_back() {
        let (inner, cache) = make(2);
        cache.set_no_steal(true);
        let mut ids = Vec::new();
        for i in 0..4u64 {
            let id = cache.allocate().unwrap();
            let mut page = Page::new();
            page.write_u64(0, i + 1);
            cache.write(id, &page).unwrap();
            ids.push(id);
        }
        // All four dirty pages are resident (soft overflow) and none ever
        // reached the backing store.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(inner.read(id).unwrap().read_u64(0), 0);
            assert_eq!(cache.read(id).unwrap().read_u64(0), i as u64 + 1);
        }
        assert_eq!(inner.stats().snapshot().physical_writes, 0);

        // Once flushed clean, pages become evictable again: reading two
        // fresh pages evicts clean victims without growing past capacity.
        cache.flush().unwrap();
        let e = cache.allocate().unwrap();
        let f = cache.allocate().unwrap();
        cache.read(e).unwrap();
        cache.read(f).unwrap();
        assert_eq!(cache.cache_state.lock().entries.len(), 2);
    }

    #[test]
    fn drop_records_swallowed_flush_errors() {
        struct FailingStore {
            inner: SharedPageStore,
        }
        impl PageStore for FailingStore {
            fn allocate(&self) -> StorageResult<PageId> {
                self.inner.allocate()
            }
            fn read(&self, id: PageId) -> StorageResult<Page> {
                self.inner.read(id)
            }
            fn write(&self, _id: PageId, _page: &Page) -> StorageResult<()> {
                Err(crate::error::StorageError::Io(std::io::Error::other(
                    "disk on fire",
                )))
            }
            fn sync(&self) -> StorageResult<()> {
                self.inner.sync()
            }
            fn page_count(&self) -> u64 {
                self.inner.page_count()
            }
            fn stats(&self) -> Arc<IoStats> {
                self.inner.stats()
            }
        }

        let failing = Arc::new(FailingStore {
            inner: MemPager::new_shared(),
        });
        let stats;
        {
            let cache = CachedPager::new(Arc::clone(&failing) as SharedPageStore, 4);
            stats = cache.stats();
            let id = cache.allocate().unwrap();
            cache.write(id, &Page::new()).unwrap();
            assert_eq!(stats.swallowed_sync_errors(), 0);
        }
        // Drop flushed, the flush failed, and the failure left a trace.
        assert_eq!(stats.swallowed_sync_errors(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let inner: SharedPageStore = MemPager::new_shared();
        let _ = CachedPager::new(inner, 0);
    }

    #[test]
    fn drop_flushes_dirty_pages() {
        let inner: SharedPageStore = MemPager::new_shared();
        let id;
        {
            let cache = CachedPager::new(Arc::clone(&inner), 4);
            id = cache.allocate().unwrap();
            let mut page = Page::new();
            page.write_u32(16, 0xCAFE);
            cache.write(id, &page).unwrap();
        }
        assert_eq!(inner.read(id).unwrap().read_u32(16), 0xCAFE);
    }

    #[test]
    fn drop_flush_can_be_disabled() {
        let inner: SharedPageStore = MemPager::new_shared();
        let id;
        {
            let cache = CachedPager::new(Arc::clone(&inner), 4);
            cache.set_flush_on_drop(false);
            id = cache.allocate().unwrap();
            let mut page = Page::new();
            page.write_u32(16, 0xCAFE);
            cache.write(id, &page).unwrap();
        }
        // The dirty page was discarded, not written back.
        assert_eq!(inner.read(id).unwrap().read_u32(16), 0);
    }
}
