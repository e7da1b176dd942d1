//! The SGA database buffer cache.
//!
//! "The largest area in SGA is devoted to the database buffer cache,
//! which tracks the usage of the database blocks to keep the most
//! recently and frequently used blocks in memory" (§3.1). On the paper's
//! machine it is 2.8 GB ≈ 344k frames of 8 KB.
//!
//! This is a true page-level LRU (hash map + intrusive doubly-linked
//! list, O(1) per access): once the working set exceeds capacity, misses
//! — and therefore disk reads per transaction (Fig 7) — grow with `W`.
//! Dirty pages are written back only when evicted (the database writer's
//! coalescing): at small `W` hot dirty pages are never evicted, so write
//! traffic is almost entirely redo log, exactly as §4.3 reports.

use crate::schema::PageId;

/// Outcome of a buffer-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferAccess {
    /// The page was resident.
    Hit,
    /// The page was not resident and has been installed; if installing it
    /// evicted a dirty victim, that page must be written back.
    Miss {
        /// Dirty victim needing writeback, if any.
        evicted_dirty: Option<PageId>,
    },
}

impl BufferAccess {
    /// `true` for [`BufferAccess::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, BufferAccess::Hit)
    }
}

/// Hit/miss/writeback counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Total page accesses.
    pub accesses: u64,
    /// Accesses that required a disk read.
    pub misses: u64,
    /// Dirty evictions (asynchronous page writes).
    pub dirty_evictions: u64,
}

impl BufferStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses > 0 {
            self.misses as f64 / self.accesses as f64
        } else {
            0.0
        }
    }
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Frame {
    page: PageId,
    dirty: bool,
    /// Logical clock value of the most recent access (or prewarm touch);
    /// lets the database writer test whether a dirty page has gone cold.
    stamp: u64,
    /// Logical clock value of the most recent *write*; re-reads do not
    /// move it, so the database writer can write back a dirty page that
    /// is still being read (Oracle does exactly that).
    dirty_stamp: u64,
    prev: u32,
    next: u32,
}

/// A page-level LRU buffer cache with O(1) access.
///
/// ```
/// use odb_engine::buffer::BufferCache;
///
/// let mut cache = BufferCache::new(2);
/// assert!(!cache.access(10, false).is_hit());
/// assert!(!cache.access(11, false).is_hit());
/// assert!(cache.access(10, false).is_hit());
/// // Installing a third page evicts page 11 (the least recent).
/// cache.access(12, false);
/// assert!(!cache.contains(11));
/// ```
#[derive(Debug, Clone)]
pub struct BufferCache {
    frames: Vec<Frame>,
    // Page table is point-access only (get/insert/remove/contains_key,
    // never iterated); O(1) lookup is the per-access hot path, so hash
    // order can never leak into sim state.
    // odb-analyzer: allow(unordered_iteration)
    map: std::collections::HashMap<PageId, u32>,
    /// Most recently used frame.
    head: u32,
    /// Least recently used frame.
    tail: u32,
    capacity: usize,
    dirty: usize,
    stats: BufferStats,
    /// Monotonic logical clock, advanced by every access and prewarm.
    clock: u64,
}

impl BufferCache {
    /// A cache holding `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `u32::MAX - 1` frames.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer cache needs at least one frame");
        assert!((capacity as u64) < u32::MAX as u64, "frame index is u32");
        Self {
            frames: Vec::with_capacity(capacity.min(1 << 20)),
            // odb-analyzer: allow(unordered_iteration) — see field above
            map: std::collections::HashMap::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            capacity,
            dirty: 0,
            stats: BufferStats::default(),
            clock: 0,
        }
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident page count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of resident dirty pages.
    pub fn dirty_len(&self) -> usize {
        self.dirty
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Resets statistics without evicting pages.
    pub fn reset_stats(&mut self) {
        self.stats = BufferStats::default();
    }

    /// `true` when `page` is resident.
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    /// Accesses `page`, making it most-recently-used; `write` marks it
    /// dirty. On a miss the page is installed, evicting the LRU victim
    /// when full.
    pub fn access(&mut self, page: PageId, write: bool) -> BufferAccess {
        self.stats.accesses += 1;
        self.clock += 1;
        if let Some(&idx) = self.map.get(&page) {
            self.touch(idx);
            let frame = &mut self.frames[idx as usize];
            frame.stamp = self.clock;
            if write {
                frame.dirty_stamp = self.clock;
                if !frame.dirty {
                    frame.dirty = true;
                    self.dirty += 1;
                }
            }
            #[cfg(feature = "invariants")]
            self.check();
            return BufferAccess::Hit;
        }
        self.stats.misses += 1;
        let evicted_dirty = self.install(page, write);
        #[cfg(feature = "invariants")]
        self.check();
        BufferAccess::Miss { evicted_dirty }
    }

    /// Installs `page` without counting statistics — used to pre-warm the
    /// cache to steady state before measurement, mirroring the paper's
    /// twenty-minute warm-up (§3.3). `dirty` seeds the page's
    /// steady-state modified flag, so eviction-driven writeback starts at
    /// its steady rate instead of waiting for freshly dirtied pages to
    /// age through the whole LRU stack.
    pub fn prewarm(&mut self, page: PageId, dirty: bool) {
        self.clock += 1;
        if let Some(&idx) = self.map.get(&page) {
            self.touch(idx);
            let frame = &mut self.frames[idx as usize];
            frame.stamp = self.clock;
            if dirty {
                frame.dirty_stamp = self.clock;
                if !frame.dirty {
                    frame.dirty = true;
                    self.dirty += 1;
                }
            }
            #[cfg(feature = "invariants")]
            self.check();
            return;
        }
        self.install(page, dirty);
        #[cfg(feature = "invariants")]
        self.check();
    }

    /// Marks a resident page clean (the database writer finished writing
    /// it back). Returns `true` if the page was resident and dirty.
    pub fn mark_clean(&mut self, page: PageId) -> bool {
        if let Some(&idx) = self.map.get(&page) {
            let frame = &mut self.frames[idx as usize];
            if frame.dirty {
                frame.dirty = false;
                self.dirty -= 1;
                #[cfg(feature = "invariants")]
                self.check();
                return true;
            }
        }
        false
    }

    /// The logical-clock value of `page`'s most recent access, or `None`
    /// when the page is not resident. A page whose stamp has not moved
    /// since some earlier observation has not been touched in between —
    /// the database writer's "has this dirty page gone cold?" test.
    pub fn access_stamp(&self, page: PageId) -> Option<u64> {
        self.map.get(&page).map(|&idx| self.frames[idx as usize].stamp)
    }

    /// The logical-clock value of `page`'s most recent *write*, or `None`
    /// when the page is not resident. Unlike [`BufferCache::access_stamp`]
    /// this ignores re-reads: the database writer may write back a page
    /// that is read-hot but write-cold.
    pub fn dirty_stamp(&self, page: PageId) -> Option<u64> {
        self.map
            .get(&page)
            .map(|&idx| self.frames[idx as usize].dirty_stamp)
    }

    /// Collects up to `limit` dirty pages from the cold (LRU) end,
    /// scanning at most `scan` frames, marking them clean and returning
    /// them for writeback — the database writer's incremental checkpoint
    /// scan ("searches the pool of database blocks ... and writes
    /// modified blocks back to disk", §3.1). Hot dirty pages near the
    /// MRU end are left alone, so repeated updates coalesce.
    pub fn collect_dirty(&mut self, limit: usize, scan: usize) -> Vec<PageId> {
        let mut pages = Vec::new();
        let mut idx = self.tail;
        let mut scanned = 0;
        while idx != NIL && pages.len() < limit && scanned < scan {
            let frame = &mut self.frames[idx as usize];
            if frame.dirty {
                frame.dirty = false;
                self.dirty -= 1;
                pages.push(frame.page);
            }
            idx = frame.prev;
            scanned += 1;
        }
        #[cfg(feature = "invariants")]
        self.check();
        pages
    }

    /// Installs a page, returning a dirty victim if one was evicted.
    fn install(&mut self, page: PageId, dirty: bool) -> Option<PageId> {
        let mut evicted_dirty = None;
        let idx = if self.frames.len() < self.capacity {
            let idx = self.frames.len() as u32;
            self.frames.push(Frame {
                page,
                dirty,
                stamp: self.clock,
                dirty_stamp: if dirty { self.clock } else { 0 },
                prev: NIL,
                next: NIL,
            });
            idx
        } else {
            // Reuse the LRU frame.
            let idx = self.tail;
            let victim = self.frames[idx as usize];
            self.map.remove(&victim.page);
            if victim.dirty {
                self.dirty -= 1;
                self.stats.dirty_evictions += 1;
                evicted_dirty = Some(victim.page);
            }
            self.unlink(idx);
            let frame = &mut self.frames[idx as usize];
            frame.page = page;
            frame.dirty = dirty;
            frame.stamp = self.clock;
            frame.dirty_stamp = if dirty { self.clock } else { 0 };
            idx
        };
        if dirty {
            self.dirty += 1;
        }
        self.map.insert(page, idx);
        self.push_front(idx);
        evicted_dirty
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let f = &self.frames[idx as usize];
            (f.prev, f.next)
        };
        if prev != NIL {
            self.frames[prev as usize].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.frames[next as usize].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let f = &mut self.frames[idx as usize];
        f.prev = NIL;
        f.next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let f = &mut self.frames[idx as usize];
            f.prev = NIL;
            f.next = old_head;
        }
        if old_head != NIL {
            self.frames[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: u32) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    /// LRU/dirty accounting consistency check, called after every mutating
    /// operation under the `invariants` feature. Cheap size bounds run on
    /// every call; the O(n) structural walk (list ↔ map agreement, dirty
    /// recount) runs for small caches and periodically for large ones so
    /// full-size (344k-frame) simulations stay usable in debug builds.
    #[cfg(feature = "invariants")]
    fn check(&self) {
        debug_assert!(self.map.len() <= self.capacity, "over capacity");
        debug_assert_eq!(
            self.frames.len(),
            self.map.len(),
            "every frame stays mapped (frames are reused, never unlinked)"
        );
        debug_assert!(self.dirty <= self.map.len(), "dirty exceeds resident");
        debug_assert_eq!(self.head == NIL, self.map.is_empty());
        debug_assert_eq!(self.tail == NIL, self.map.is_empty());
        if !(self.map.len() <= 4_096 || self.clock.is_multiple_of(4_096)) {
            return;
        }
        let mut seen = 0usize;
        let mut dirty = 0usize;
        let mut idx = self.head;
        let mut prev = NIL;
        while idx != NIL {
            let f = &self.frames[idx as usize];
            debug_assert_eq!(f.prev, prev, "back link broken at frame {idx}");
            debug_assert_eq!(
                self.map.get(&f.page),
                Some(&idx),
                "map entry disagrees with frame {idx}"
            );
            seen += 1;
            dirty += usize::from(f.dirty);
            debug_assert!(seen <= self.map.len(), "LRU list has a cycle");
            prev = idx;
            idx = f.next;
        }
        debug_assert_eq!(prev, self.tail, "list does not end at tail");
        debug_assert_eq!(seen, self.map.len(), "list length != resident count");
        debug_assert_eq!(dirty, self.dirty, "dirty flag recount mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded::check;

    #[test]
    fn hit_after_install() {
        let mut c = BufferCache::new(4);
        assert!(!c.access(1, false).is_hit());
        assert!(c.access(1, false).is_hit());
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        let s = c.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_order_is_respected() {
        let mut c = BufferCache::new(3);
        c.access(1, false);
        c.access(2, false);
        c.access(3, false);
        c.access(1, false); // refresh 1; LRU is now 2
        c.access(4, false); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert!(c.contains(4));
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let mut c = BufferCache::new(2);
        c.access(1, true);
        c.access(2, false);
        assert_eq!(c.dirty_len(), 1);
        match c.access(3, false) {
            BufferAccess::Miss {
                evicted_dirty: Some(1),
            } => {}
            other => panic!("expected dirty eviction of page 1, got {other:?}"),
        }
        assert_eq!(c.dirty_len(), 0);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn clean_eviction_reports_nothing() {
        let mut c = BufferCache::new(2);
        c.access(1, false);
        c.access(2, false);
        match c.access(3, false) {
            BufferAccess::Miss { evicted_dirty: None } => {}
            other => panic!("expected clean eviction, got {other:?}"),
        }
    }

    #[test]
    fn write_hit_dirties_once() {
        let mut c = BufferCache::new(2);
        c.access(1, false);
        c.access(1, true);
        c.access(1, true);
        assert_eq!(c.dirty_len(), 1);
        assert!(c.mark_clean(1));
        assert!(!c.mark_clean(1), "already clean");
        assert!(!c.mark_clean(99), "not resident");
        assert_eq!(c.dirty_len(), 0);
    }

    #[test]
    fn prewarm_fills_without_stats() {
        let mut c = BufferCache::new(8);
        for p in 0..8 {
            c.prewarm(p, false);
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.stats().accesses, 0);
        for p in 0..8 {
            assert!(c.access(p, false).is_hit());
        }
        assert_eq!(c.stats().misses, 0);
        // Prewarming a resident page refreshes recency, not stats.
        c.prewarm(0, false);
        c.access(8, false); // evicts page 1, not 0
        assert!(c.contains(0));
        assert!(!c.contains(1));
        // Dirty prewarm seeds the modified flag.
        let mut d = BufferCache::new(2);
        d.prewarm(1, true);
        assert_eq!(d.dirty_len(), 1);
        d.prewarm(1, true); // idempotent
        assert_eq!(d.dirty_len(), 1);
    }

    #[test]
    fn working_set_beyond_capacity_misses() {
        let mut c = BufferCache::new(100);
        // Cyclic scan over 200 pages: worst case for LRU.
        for _ in 0..3 {
            for p in 0..200 {
                c.access(p, false);
            }
        }
        assert!(c.stats().miss_ratio() > 0.99);
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn collect_dirty_takes_cold_dirty_pages_only() {
        let mut c = BufferCache::new(8);
        for p in 0..8u64 {
            c.access(p, p % 2 == 0); // even pages dirty
        }
        // Refresh pages 0 and 2 so they sit at the MRU end.
        c.access(0, false);
        c.access(2, false);
        // LRU order (cold to hot): 1, 3, 4, 5, 6, 7, 0, 2.
        // Scanning the six coldest finds dirty pages 4 and 6.
        let collected = c.collect_dirty(10, 6);
        assert_eq!(collected, vec![4, 6]);
        assert_eq!(c.dirty_len(), 2, "hot dirty pages 0 and 2 remain");
        // Collected pages are clean but still resident.
        assert!(c.contains(4));
        assert!(c.access(4, false).is_hit());
        // Limit is respected.
        let mut c2 = BufferCache::new(8);
        for p in 0..8u64 {
            c2.access(p, true);
        }
        assert_eq!(c2.collect_dirty(3, 8).len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        let _ = BufferCache::new(0);
    }

    /// len() never exceeds capacity, dirty_len() never exceeds len(),
    /// and resident pages always hit, under arbitrary access mixes.
    #[test]
    fn invariants_under_random_traffic() {
        check("invariants_under_random_traffic", 2_000, |d| {
            let mut c = BufferCache::new(d.u64_in(1..20) as usize);
            for _ in 0..d.u64_in(1..400) {
                let page = d.u64_in(0..50);
                c.access(page, d.bool());
                assert!(c.len() <= c.capacity());
                assert!(c.dirty_len() <= c.len());
                assert!(c.contains(page), "just-accessed page resident");
                assert!(c.access(page, false).is_hit());
            }
        });
    }

    /// A working set no larger than capacity never misses once loaded.
    #[test]
    fn small_working_set_stays_resident() {
        check("small_working_set_stays_resident", 2_000, |d| {
            let pages: Vec<u64> = (0..d.u64_in(1..50)).map(|_| d.u64_in(0..10)).collect();
            let mut c = BufferCache::new(10);
            for &p in &pages {
                c.access(p, false);
            }
            c.reset_stats();
            for &p in &pages {
                assert!(c.access(p, false).is_hit());
            }
            assert_eq!(c.stats().misses, 0);
        });
    }
}
