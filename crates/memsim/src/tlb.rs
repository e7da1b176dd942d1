//! A fully-associative, LRU data-TLB over 4 KB pages.

use odb_core::Error;

/// Translation look-aside buffer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Total translations requested.
    pub accesses: u64,
    /// Translations that required a page walk.
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio in `[0, 1]`; zero with no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses > 0 {
            self.misses as f64 / self.accesses as f64
        } else {
            0.0
        }
    }
}

/// A fully-associative TLB with true-LRU replacement over 4 KB pages.
///
/// Modelled after Xeon MP's 64-entry fully-associative DTLB. The naive
/// structure — a stamp per entry, hits by linear scan, victims by
/// stamp-argmin — makes every translation an O(entries) walk, which
/// measured as the single most expensive device in the batched
/// characterization hot path. This implementation is O(1) per
/// translation and *decision-exact* with the naive one:
///
/// - residency lives in a small open-addressed hash index
///   (page → slot), so a lookup is one or two probes instead of a scan;
/// - recency lives in an intrusive doubly-linked list over the slots,
///   most-recent at the head. Touch moves a slot to the head; the
///   victim is the tail. Because the naive stamps strictly increase and
///   each touch restamps exactly one entry, stamp order *is*
///   last-touch order, so "minimum stamp" and "list tail" name the same
///   entry — every hit, miss, and eviction decision is identical (a
///   `cfg(test)` model pins this access-for-access).
///
/// ```
/// use odb_memsim::tlb::Tlb;
///
/// let mut t = Tlb::new(64)?;
/// assert!(!t.access(0x1000)); // cold miss
/// assert!(t.access(0x1FFF));  // same 4 KB page: hit
/// # Ok::<(), odb_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Resident page number per slot.
    pages: Vec<u64>,
    /// LRU list: previous (toward the head / MRU) link per slot;
    /// `u32::MAX` terminates.
    prev: Vec<u32>,
    /// LRU list: next (toward the tail / LRU victim) link per slot.
    next: Vec<u32>,
    /// Most recently touched slot (`u32::MAX` while empty).
    head: u32,
    /// Least recently touched slot — the eviction victim.
    tail: u32,
    /// Open-addressed index keys (the page number; [`EMPTY`] marks a
    /// free bucket), linear probing, ≥ 4× slack so most lookups resolve
    /// on the home bucket (the whole table is a few KB either way).
    idx_pages: Vec<u64>,
    /// Slot held by the same bucket of `idx_pages`.
    idx_slots: Vec<u32>,
    /// Fibonacci-hash shift: `64 - log2(buckets)`.
    idx_shift: u32,
    /// `buckets - 1` (buckets are a power of two).
    idx_mask: usize,
    capacity: usize,
    stats: TlbStats,
}

/// 4 KB pages.
const PAGE_SHIFT: u32 = 12;

/// The Fibonacci-hash multiplier of [`Tlb::home`].
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Free-bucket sentinel. Page numbers are addresses shifted right by
/// [`PAGE_SHIFT`], so no reachable page can collide with it.
const EMPTY: u64 = u64::MAX;

impl Tlb {
    /// Creates an empty TLB holding `entries` translations.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `entries` is zero.
    pub fn new(entries: usize) -> Result<Self, Error> {
        if entries == 0 {
            return Err(Error::InvalidConfig {
                field: "tlb_entries",
                reason: "TLB must have at least one entry".to_owned(),
            });
        }
        let buckets = (entries * 4).next_power_of_two().max(2);
        Ok(Self {
            pages: Vec::with_capacity(entries),
            prev: Vec::with_capacity(entries),
            next: Vec::with_capacity(entries),
            head: u32::MAX,
            tail: u32::MAX,
            idx_pages: vec![EMPTY; buckets],
            idx_slots: vec![0; buckets],
            idx_shift: 64 - buckets.trailing_zeros(),
            idx_mask: buckets - 1,
            capacity: entries,
            stats: TlbStats::default(),
        })
    }

    /// The home bucket of `page` (Fibonacci hashing: one multiply, one
    /// shift, and the high bits spread even sequential page numbers).
    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(FIB) >> self.idx_shift) as usize
    }

    /// The slot holding `page`, if resident.
    #[inline]
    fn idx_lookup(&self, page: u64) -> Option<u32> {
        let mut i = self.home(page);
        loop {
            let key = self.idx_pages[i];
            if key == page {
                return Some(self.idx_slots[i]);
            }
            if key == EMPTY {
                return None;
            }
            i = (i + 1) & self.idx_mask;
        }
    }

    /// Records `page` → `slot`. The index holds at most `capacity`
    /// entries in `4 * capacity` buckets, so a free bucket always
    /// exists.
    #[inline]
    fn idx_insert(&mut self, page: u64, slot: u32) {
        let mut i = self.home(page);
        while self.idx_pages[i] != EMPTY {
            i = (i + 1) & self.idx_mask;
        }
        self.idx_pages[i] = page;
        self.idx_slots[i] = slot;
    }

    /// Drops `page` (which must be present) from the index by
    /// backward-shift deletion: entries probing past the hole are pulled
    /// forward when their home bucket permits, so chains stay contiguous
    /// and no tombstones accumulate.
    #[inline]
    fn idx_remove(&mut self, page: u64) {
        let mask = self.idx_mask;
        let mut hole = self.home(page);
        while self.idx_pages[hole] != page {
            hole = (hole + 1) & mask;
        }
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let key = self.idx_pages[i];
            if key == EMPTY {
                break;
            }
            // Movable iff the entry's home lies cyclically at or before
            // the hole (its probe chain then still reaches it there).
            if i.wrapping_sub(self.home(key)) & mask >= i.wrapping_sub(hole) & mask {
                self.idx_pages[hole] = key;
                self.idx_slots[hole] = self.idx_slots[i];
                hole = i;
            }
        }
        self.idx_pages[hole] = EMPTY;
    }

    /// Splices `slot` in at the head (most recent) of the LRU list.
    #[inline]
    fn link_front(&mut self, slot: u32) {
        self.prev[slot as usize] = u32::MAX;
        self.next[slot as usize] = self.head;
        if self.head != u32::MAX {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == u32::MAX {
            self.tail = slot;
        }
    }

    /// Removes `slot` from the LRU list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let p = self.prev[slot as usize];
        let n = self.next[slot as usize];
        if p != u32::MAX {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != u32::MAX {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
    }

    /// Marks `slot` most recently used. Already-at-head (the common
    /// consecutive-same-page case) is a no-op — the MRU fast path of the
    /// naive implementation, for free.
    #[inline]
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Translates the page containing `addr`; returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let page = addr >> PAGE_SHIFT;
        if let Some(slot) = self.idx_lookup(page) {
            self.touch(slot);
            return true;
        }
        self.stats.misses += 1;
        self.miss_fill(page);
        false
    }

    /// Installs `page` after a miss: claim the next free slot while
    /// filling, else evict the list tail — exactly the stamp-argmin
    /// victim of the naive implementation.
    #[inline]
    fn miss_fill(&mut self, page: u64) {
        if self.pages.len() < self.capacity {
            // Still filling: claim the next free slot.
            let slot = self.pages.len() as u32;
            self.pages.push(page);
            self.prev.push(u32::MAX);
            self.next.push(u32::MAX);
            self.link_front(slot);
            self.idx_insert(page, slot);
        } else {
            let slot = self.tail;
            let victim_page = self.pages[slot as usize];
            self.idx_remove(victim_page);
            self.pages[slot as usize] = page;
            self.idx_insert(page, slot);
            self.touch(slot);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets statistics without evicting translations.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Number of resident translations.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` when no translations are resident.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive stamp-scan TLB this implementation replaced, kept
    /// verbatim as the behavioural oracle: hits by linear scan, LRU by
    /// per-entry clock stamps, victims by stamp-argmin.
    struct ModelTlb {
        pages: Vec<u64>,
        stamps: Vec<u64>,
        capacity: usize,
        clock: u64,
        stats: TlbStats,
    }

    impl ModelTlb {
        fn new(entries: usize) -> Self {
            Self {
                pages: Vec::new(),
                stamps: Vec::new(),
                capacity: entries,
                clock: 0,
                stats: TlbStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            self.stats.accesses += 1;
            let page = addr >> PAGE_SHIFT;
            if let Some(i) = self.pages.iter().position(|&p| p == page) {
                self.stamps[i] = self.clock;
                return true;
            }
            self.stats.misses += 1;
            if self.pages.len() < self.capacity {
                self.pages.push(page);
                self.stamps.push(self.clock);
            } else {
                let victim = self
                    .stamps
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &s)| s)
                    .map(|(i, _)| i)
                    .unwrap();
                self.pages[victim] = page;
                self.stamps[victim] = self.clock;
            }
            false
        }
    }

    #[test]
    fn same_page_hits_different_page_misses() {
        let mut t = Tlb::new(4).unwrap();
        assert!(!t.access(0x0000));
        assert!(t.access(0x0FFF));
        assert!(!t.access(0x1000));
        assert_eq!(t.stats().accesses, 3);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_replacement() {
        let mut t = Tlb::new(2).unwrap();
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // refresh page 0
        t.access(0x2000); // evicts page 1
        assert!(t.access(0x0000), "page 0 survived");
        assert!(!t.access(0x1000), "page 1 evicted");
    }

    #[test]
    fn working_set_within_capacity_has_no_steady_misses() {
        let mut t = Tlb::new(64).unwrap();
        for i in 0..64u64 {
            t.access(i << PAGE_SHIFT);
        }
        t.reset_stats();
        for _ in 0..5 {
            for i in 0..64u64 {
                assert!(t.access(i << PAGE_SHIFT));
            }
        }
        assert_eq!(t.stats().misses, 0);
        assert_eq!(t.len(), 64);
        assert!(!t.is_empty());
    }

    #[test]
    fn cyclic_overflow_thrashes() {
        let mut t = Tlb::new(8).unwrap();
        for _ in 0..4 {
            for i in 0..16u64 {
                t.access(i << PAGE_SHIFT);
            }
        }
        assert!(t.stats().miss_ratio() > 0.9);
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(matches!(
            Tlb::new(0),
            Err(Error::InvalidConfig { field: "tlb_entries", .. })
        ));
    }

    #[test]
    fn miss_ratio_zero_when_untouched() {
        let t = Tlb::new(4).unwrap();
        assert_eq!(t.stats().miss_ratio(), 0.0);
    }

    /// The hash-indexed LRU list must make the identical hit/miss (and
    /// therefore eviction) decision as the naive stamp-scan model on
    /// every single access, across capacities (including 1) and
    /// page-locality regimes from thrashing to resident.
    #[test]
    fn decision_exact_with_stamp_scan_model() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x71B_0002);
        for trial in 0..96usize {
            let cap = 1 + trial % 12;
            let distinct = 1 + trial % 40;
            let mut fast = Tlb::new(cap).unwrap();
            let mut model = ModelTlb::new(cap);
            for op in 0..600 {
                let addr = (rng.gen_range(0..distinct as u64) << PAGE_SHIFT)
                    | rng.gen_range(0..1u64 << PAGE_SHIFT);
                assert_eq!(
                    fast.access(addr),
                    model.access(addr),
                    "trial {trial} op {op}: diverged at addr {addr:#x}"
                );
            }
            assert_eq!(fast.stats(), model.stats, "trial {trial}: stats diverged");
            assert_eq!(fast.len(), model.pages.len(), "trial {trial}: residency count");
            // Same resident set, order aside.
            let mut a = fast.pages.clone();
            let mut b = model.pages.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "trial {trial}: resident pages diverged");
        }
    }

    /// Probe-chain wraparound and backward-shift deletion across the
    /// bucket-array boundary: pages crafted to share home buckets near
    /// the last bucket force probes (and hole back-shifts) to wrap, and
    /// the TLB must agree with the stamp-scan model through the eviction
    /// churn that exercises `idx_remove` on those chains.
    #[test]
    fn index_wraparound_and_backshift_match_model() {
        let cap = 4usize; // 16 buckets
        let probe = Tlb::new(cap).unwrap();
        let buckets = probe.idx_pages.len();
        // Pages homed into the last two buckets (probe chains wrap) and
        // the first bucket (the wrapped chain's continuation).
        let mut crafted: Vec<u64> = Vec::new();
        for target in [buckets - 2, buckets - 1, 0] {
            let mut found = 0;
            let mut page = 1u64;
            while found < 3 {
                if probe.home(page) == target {
                    crafted.push(page);
                    found += 1;
                }
                page += 1;
            }
        }
        // Interleave crafted pages so fills, wrapping probes, evictions
        // and back-shifted holes all occur repeatedly.
        let mut addrs = Vec::new();
        for round in 0..6 {
            for (k, &p) in crafted.iter().enumerate() {
                if (k + round) % 3 != 0 {
                    addrs.push(p << PAGE_SHIFT);
                }
            }
        }
        let mut model = ModelTlb::new(cap);
        let expect: Vec<u32> = addrs
            .iter()
            .enumerate()
            .filter(|&(_, &a)| !model.access(a))
            .map(|(i, _)| i as u32)
            .collect();
        let mut tlb = Tlb::new(cap).unwrap();
        let miss_idx: Vec<u32> = addrs
            .iter()
            .enumerate()
            .filter(|&(_, &a)| !tlb.access(a))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(miss_idx, expect, "wraparound miss set diverged");
        assert_eq!(tlb.stats(), model.stats);
        let mut a = tlb.pages.clone();
        let mut b = model.pages.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "wraparound resident pages diverged");
    }
}
