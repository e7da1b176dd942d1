//! Set-associative, write-back caches with pluggable replacement
//! (true-LRU by default; see [`crate::policy`] for the alternatives the
//! paper's §7 caching-scheme agenda motivates).

use crate::policy::{PolicyState, ReplacementPolicy};
use odb_core::config::CacheGeometry;

/// A victim line displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line-aligned address of the victim.
    pub addr: u64,
    /// `true` when the victim was modified and must be written back.
    pub dirty: bool,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled.
    Miss {
        /// The valid line displaced by the fill, if the set was full.
        /// Clean evictions matter too: the coherence directory must stop
        /// tracking the evicting processor as a holder.
        evicted: Option<Evicted>,
        /// `true` when the miss was caused by an earlier coherence
        /// invalidation of this very line (as opposed to cold/capacity).
        coherence: bool,
    },
}

impl Access {
    /// `true` for [`Access::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, Access::Hit)
    }

    /// The dirty victim's address, if this was a miss that wrote one back.
    pub fn dirty_writeback(&self) -> Option<u64> {
        match self {
            Access::Miss {
                evicted: Some(e), ..
            } if e.dirty => Some(e.addr),
            _ => None,
        }
    }
}

/// Running hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses of any kind.
    pub misses: u64,
    /// Misses attributable to coherence invalidations.
    pub coherence_misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines invalidated by the coherence directory.
    pub invalidations_received: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses > 0 {
            self.misses as f64 / self.accesses as f64
        } else {
            0.0
        }
    }
}

/// `flags` bit: the way holds a valid line.
const VALID: u8 = 1;
/// `flags` bit: the line has been written and needs a writeback.
const DIRTY: u8 = 2;

/// Way-index bits reserved in the packed `(valid, stamp, way)` victim
/// key of the branchless batch kernel; caps the kernel at 256-way sets
/// (far beyond any simulated geometry — wider caches take the scalar
/// fallback).
const IDX_BITS: u32 = 8;

/// One batched access outcome in flat plain-data form: the branchless
/// batch kernels write these with unconditional stores (no enum
/// discriminant to select on), and the hierarchy's per-level passes
/// consume them the same way. `evicted_addr` is meaningful only when
/// `evicted_valid` is set; on hits it holds whatever the touched way's
/// reconstruction produced and must be ignored.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AccessRow {
    /// The line was present.
    pub hit: bool,
    /// A valid victim was displaced by the fill (misses only).
    pub evicted_valid: bool,
    /// The displaced victim was dirty (writeback).
    pub evicted_dirty: bool,
    /// The miss was classified as a coherence miss.
    pub coherence: bool,
    /// Line-aligned victim address (gated by `evicted_valid`).
    pub evicted_addr: u64,
}

impl AccessRow {
    /// The row denoting `access` (fallback-path conversion).
    #[inline]
    fn from_access(access: Access) -> Self {
        match access {
            Access::Hit => AccessRow {
                hit: true,
                ..AccessRow::default()
            },
            Access::Miss { evicted, coherence } => AccessRow {
                hit: false,
                evicted_valid: evicted.is_some(),
                evicted_dirty: evicted.is_some_and(|e| e.dirty),
                coherence,
                evicted_addr: evicted.map_or(0, |e| e.addr),
            },
        }
    }
}

/// One set-associative cache level.
///
/// Addresses are byte addresses; the cache derives line/set indices from
/// its [`CacheGeometry`]. Replacement is true LRU within a set. The cache
/// is write-allocate, write-back.
///
/// ```
/// use odb_core::config::CacheGeometry;
/// use odb_memsim::cache::SetAssocCache;
///
/// let mut c = SetAssocCache::new(CacheGeometry::new(4096, 64, 2)?);
/// assert!(!c.access(0, false).is_hit()); // cold miss
/// assert!(c.access(0, false).is_hit());  // now resident
/// # Ok::<(), odb_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// Line tags in struct-of-arrays layout, way-major within each set
    /// (`tags[set * ways + way]`), parallel to `stamps` and `flags`: a
    /// set walk streams one contiguous row of tags (a single host cache
    /// line for an 8-way set) instead of strided record fields.
    tags: Vec<u64>,
    /// Replacement stamps; larger is more recent under LRU.
    stamps: Vec<u64>,
    /// [`VALID`] / [`DIRTY`] bits per way.
    flags: Vec<u8>,
    ways: usize,
    set_mask: u64,
    line_shift: u32,
    /// `log2(sets)`, precomputed: tag extraction and victim-address
    /// reconstruction run on every access/miss and must not re-derive it.
    sets_shift: u32,
    clock: u64,
    stats: CacheStats,
    policy: PolicyState,
    /// Line addresses lost to coherence invalidations and not yet
    /// re-fetched; used to classify the next miss on them.
    // Point-access only (insert/remove/contains, never iterated) on the
    // per-reference hot path, so hash order can never leak into sim state.
    // odb-analyzer: allow(unordered_iteration)
    invalidated: std::collections::HashSet<u64>,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry and true-LRU
    /// replacement.
    pub fn new(geometry: CacheGeometry) -> Self {
        Self::with_policy(geometry, ReplacementPolicy::Lru)
    }

    /// Creates an empty cache with an explicit replacement policy.
    pub fn with_policy(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let ways = geometry.associativity() as usize;
        let sets = geometry.sets() as usize;
        Self {
            geometry,
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            flags: vec![0; sets * ways],
            ways,
            set_mask: geometry.sets() - 1,
            line_shift: geometry.line_bytes().trailing_zeros(),
            sets_shift: geometry.sets().trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
            policy: PolicyState::new(policy),
            // odb-analyzer: allow(unordered_iteration) — see field above
            invalidated: std::collections::HashSet::new(),
        }
    }

    /// The replacement policy in force.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy.policy()
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (e.g. after a warm-up phase) without disturbing
    /// cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The line-aligned address containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    #[inline]
    fn set_index(&self, line_number: u64) -> usize {
        (line_number & self.set_mask) as usize
    }

    /// One fused set walk: the index of the (unique) valid way holding
    /// `tag` (`usize::MAX` when absent) and the index of the first way
    /// minimizing `(valid, stamp)` — invalid ways always win.
    ///
    /// The walk exits early on a hit; the victim candidate tracked up to
    /// that point is simply discarded (hits never fill), so a miss —
    /// which runs the loop to completion — still selects the exact
    /// first-minimum victim. Early exit wins for the scalar path: hits
    /// dominate most streams and the branchy scan leaves after ~half the
    /// ways. The batched LRU kernel uses its own branch-free scan
    /// instead (see `access_batch_lru_rows`), where pipelining across
    /// references matters more than per-walk instruction count.
    #[inline]
    fn walk_set(tags: &[u64], stamps: &[u64], flags: &[u8], tag: u64) -> (usize, usize) {
        let mut victim_at = 0usize;
        let mut victim_valid = true;
        let mut victim_stamp = u64::MAX;
        // Zipped iteration: one induction variable, no per-field bounds
        // checks (indexing three parallel slices defeats the bounds-check
        // eliminator and was measurably slower).
        for (i, ((&t, &s), &f)) in tags.iter().zip(stamps).zip(flags).enumerate() {
            let valid = f & VALID != 0;
            if valid && t == tag {
                return (i, victim_at);
            }
            // Strict `(valid, stamp) < (victim_valid, victim_stamp)`:
            // strict `<` keeps the first minimum, matching the old
            // tuple-key `min_by_key` scan.
            if (!valid & victim_valid) | ((valid == victim_valid) & (s < victim_stamp)) {
                victim_at = i;
                victim_valid = valid;
                victim_stamp = s;
            }
        }
        (usize::MAX, victim_at)
    }

    /// Accesses `addr` (read or write) and returns the outcome, updating
    /// LRU state and statistics.
    ///
    /// This is the hottest function in the characterization loop, so the
    /// set walk is a single fused pass ([`Self::walk_set`]) that resolves
    /// the hit *and* the victim candidate together instead of re-scanning
    /// on a miss. The naive two-pass version survives as
    /// `access_reference` under `cfg(test)`, and
    /// `access_equivalence_randomized` pins the two access-for-access
    /// identical.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        self.clock += 1;
        self.stats.accesses += 1;
        if self.policy.should_clear_stamps() {
            for s in &mut self.stamps {
                *s = 0;
            }
        }
        let line_number = addr >> self.line_shift;
        let tag = line_number >> self.sets_shift;
        let set = self.set_index(line_number);
        let base = set * self.ways;
        let clock = self.clock;
        let (hit_at, victim_at) = Self::walk_set(
            &self.tags[base..base + self.ways],
            &self.stamps[base..base + self.ways],
            &self.flags[base..base + self.ways],
            tag,
        );
        if hit_at != usize::MAX {
            if let Some(stamp) = self.policy.touch_stamp(clock) {
                self.stamps[base + hit_at] = stamp;
            }
            self.flags[base + hit_at] |= (write as u8) << 1;
            return Access::Hit;
        }

        // Miss: classify, then fill the victim way. The classification
        // set is empty unless coherence invalidations are in flight, so
        // the common path is a branch, not a hash probe.
        self.stats.misses += 1;
        let coherence = !self.invalidated.is_empty()
            && self.invalidated.remove(&(line_number << self.line_shift));
        if coherence {
            self.stats.coherence_misses += 1;
        }
        // `CacheGeometry` validation guarantees at least one way; were a
        // zero-way set ever constructed anyway it would simply never fill.
        if self.ways == 0 {
            return Access::Miss {
                evicted: None,
                coherence,
            };
        }
        let vi = base + victim_at;
        let vflags = self.flags[vi];
        let mut evicted = None;
        if vflags & VALID != 0 {
            let dirty = vflags & DIRTY != 0;
            if dirty {
                self.stats.writebacks += 1;
            }
            let victim_line = (self.tags[vi] << self.sets_shift | set as u64) << self.line_shift;
            evicted = Some(Evicted {
                addr: victim_line,
                dirty,
            });
        }
        self.tags[vi] = tag;
        self.stamps[vi] = self.policy.fill_stamp(clock);
        self.flags[vi] = VALID | ((write as u8) << 1);
        Access::Miss { evicted, coherence }
    }

    /// Streams `addrs`/`writes` through the cache in order, appending one
    /// [`AccessRow`] per element to `rows` (elements beyond the shorter of
    /// the two input slices are ignored). This is the kernel the
    /// hierarchy's per-level passes consume directly — plain-data rows
    /// let both the kernel and its consumers run select-style, with no
    /// enum discriminant to branch on.
    ///
    /// Bit-exact with calling [`SetAssocCache::access`] per element: the
    /// cache's clock, stamps, victim choices, and coherence
    /// classification depend only on its own access stream, which this
    /// kernel presents in the identical order. True-LRU (the
    /// configuration every simulated level uses by default) runs a
    /// specialized branch-free inner loop with the replacement-policy
    /// dispatch hoisted out, when its preconditions hold (1–256 ways,
    /// packed stamps nowhere near overflow); other policies delegate to
    /// the scalar walk element-by-element, which is trivially exact.
    #[inline]
    pub(crate) fn access_batch_rows(
        &mut self,
        addrs: &[u64],
        writes: &[bool],
        rows: &mut Vec<AccessRow>,
    ) {
        let n = addrs.len().min(writes.len());
        let packed_fits = self.ways >= 1
            && self.ways <= 1 << IDX_BITS
            && self.clock.saturating_add(n as u64).leading_zeros() > IDX_BITS;
        if self.policy.policy() == ReplacementPolicy::Lru && packed_fits {
            self.access_batch_lru_rows(&addrs[..n], &writes[..n], rows);
        } else {
            for (&addr, &write) in addrs[..n].iter().zip(writes) {
                let access = self.access(addr, write);
                rows.push(AccessRow::from_access(access));
            }
        }
    }

    /// [`SetAssocCache::access_batch_rows`] specialized for true LRU: no
    /// stamp-clearing epochs, touch and fill stamps are both the clock,
    /// and no replacement RNG exists, so every policy dispatch constant-
    /// folds away — and the whole per-reference body is branch-free.
    ///
    /// Branch-freedom is the point, not instruction count: the hit/miss
    /// outcome of a simulated access is inherently unpredictable, and on
    /// an out-of-order host every mispredicted hit/miss branch squashes
    /// the speculatively-issued tag loads of the *following* references.
    /// With no data-dependent branches the core keeps many references'
    /// tag-array loads in flight at once, which is where the batched
    /// walk's memory-level parallelism comes from. Three pieces make it
    /// work:
    ///
    /// - the set scan packs each way's `(valid, stamp, way)` into one
    ///   u64 key — `valid << 63 | stamp << 8 | way` — whose plain `min`
    ///   is the exact first-minimum victim of the scalar walk's
    ///   `(valid, stamp)` tuple scan (stamps are clock values, far below
    ///   2^55; the dispatch guard re-checks);
    /// - hit and fill write the same state under LRU (`stamp = clock`,
    ///   `tags[way] = tag` is a no-op on the hit way), so the touched
    ///   way updates unconditionally and only the flags byte needs a
    ///   mask-select;
    /// - coherence classification is deferred to a post-pass: the main
    ///   loop never probes the `invalidated` set, and a pass over the
    ///   recorded rows replays `remove` in miss order afterwards, which
    ///   is exact because only misses probe the set and the set only
    ///   shrinks during a batch. When no invalidations are in flight
    ///   (the common case) the post-pass is skipped outright.
    fn access_batch_lru_rows(&mut self, addrs: &[u64], writes: &[bool], rows: &mut Vec<AccessRow>) {
        // Monomorphize the loop for the associativities the modelled
        // geometries actually use: with the way count a compile-time
        // constant the set scan fully unrolls, slice bounds checks
        // vanish, and the two-lane reduction in `scan_set_fixed` halves
        // the length of the serial `min` chain. `0` is the sentinel for
        // the runtime-`ways` fallback loop.
        match self.ways {
            1 => self.lru_rows_loop::<1>(addrs, writes, rows),
            2 => self.lru_rows_loop::<2>(addrs, writes, rows),
            4 => self.lru_rows_loop::<4>(addrs, writes, rows),
            8 => self.lru_rows_loop::<8>(addrs, writes, rows),
            12 => self.lru_rows_loop::<12>(addrs, writes, rows),
            16 => self.lru_rows_loop::<16>(addrs, writes, rows),
            _ => self.lru_rows_loop::<0>(addrs, writes, rows),
        }
    }

    /// One set's hit/victim scan with the way count fixed at compile
    /// time. Returns `(match index + 1, packed victim key minimum)` —
    /// identical to the runtime-`ways` scan in `lru_rows_loop`, but the
    /// reduction runs in two independent lanes (even ways, odd ways)
    /// merged at the end, so the host's serial dependence chain is half
    /// as long. Exact: the packed keys embed the way index, so they are
    /// all distinct and `min` over any association order yields the same
    /// key; at most one way matches the tag, so the lane sums still add
    /// to `match index + 1`.
    #[inline(always)]
    fn scan_set_fixed<const W: usize>(
        tags: &[u64],
        stamps: &[u64],
        flags: &[u8],
        tag: u64,
    ) -> (usize, u64) {
        // Re-slicing to the constant length lets the compiler prove
        // every `[i]` below in range (and fully unroll the loop).
        let tags = &tags[..W];
        let stamps = &stamps[..W];
        let flags = &flags[..W];
        let mut found = [0usize; 2];
        let mut kmin = [u64::MAX; 2];
        let mut i = 0;
        while i + 1 < W {
            let valid = (flags[i] & VALID) as u64;
            found[0] += usize::from((valid != 0) & (tags[i] == tag)) * (i + 1);
            kmin[0] = kmin[0].min((valid << 63) | (stamps[i] << IDX_BITS) | i as u64);
            let valid = (flags[i + 1] & VALID) as u64;
            found[1] += usize::from((valid != 0) & (tags[i + 1] == tag)) * (i + 2);
            kmin[1] = kmin[1].min((valid << 63) | (stamps[i + 1] << IDX_BITS) | (i + 1) as u64);
            i += 2;
        }
        if i < W {
            let valid = (flags[i] & VALID) as u64;
            found[0] += usize::from((valid != 0) & (tags[i] == tag)) * (i + 1);
            kmin[0] = kmin[0].min((valid << 63) | (stamps[i] << IDX_BITS) | i as u64);
        }
        (found[0] + found[1], kmin[0].min(kmin[1]))
    }

    /// The branch-free LRU batch loop, monomorphized per way count
    /// (`W == 0` means "read `self.ways` at run time").
    fn lru_rows_loop<const W: usize>(
        &mut self,
        addrs: &[u64],
        writes: &[bool],
        rows: &mut Vec<AccessRow>,
    ) {
        let line_shift = self.line_shift;
        let sets_shift = self.sets_shift;
        let set_mask = self.set_mask;
        let ways_n = if W == 0 { self.ways } else { W };
        let idx_mask = (1u64 << IDX_BITS) - 1;
        let start = rows.len();
        rows.resize(start + addrs.len(), AccessRow::default());
        let out = &mut rows[start..];
        let mut clock = self.clock;
        let mut misses = 0u64;
        let mut writebacks = 0u64;
        for ((row, &addr), &write) in out.iter_mut().zip(addrs).zip(writes) {
            clock += 1;
            let line_number = addr >> line_shift;
            let tag = line_number >> sets_shift;
            let set = (line_number & set_mask) as usize;
            let base = set * ways_n;
            let tags = &self.tags[base..base + ways_n];
            let stamps = &self.stamps[base..base + ways_n];
            let flags = &self.flags[base..base + ways_n];
            let (found_plus1, key_min) = if W == 0 {
                let mut found_plus1 = 0usize;
                let mut key_min = u64::MAX;
                for (i, ((&t, &s), &f)) in tags.iter().zip(stamps).zip(flags).enumerate() {
                    let valid = (f & VALID) as u64;
                    // Valid tags in a set are unique: at most one term is
                    // non-zero, so the sum *is* the match index + 1.
                    found_plus1 += usize::from((valid != 0) & (t == tag)) * (i + 1);
                    key_min = key_min.min((valid << 63) | (s << IDX_BITS) | i as u64);
                }
                (found_plus1, key_min)
            } else {
                Self::scan_set_fixed::<W>(tags, stamps, flags, tag)
            };
            let hit = found_plus1 != 0;
            let way = if hit {
                found_plus1 - 1
            } else {
                (key_min & idx_mask) as usize
            };
            let vi = base + way;
            let vtag = self.tags[vi];
            let vflags = self.flags[vi];
            self.tags[vi] = tag;
            self.stamps[vi] = clock;
            // Hit: keep the old flags (VALID already set) and OR in the
            // dirty bit. Miss: fresh VALID plus the dirty bit.
            let keep = (hit as u8).wrapping_neg();
            self.flags[vi] = (vflags & keep) | VALID | ((write as u8) << 1);
            let evicted_valid = !hit & (vflags & VALID != 0);
            let evicted_dirty = evicted_valid & (vflags & DIRTY != 0);
            misses += u64::from(!hit);
            writebacks += u64::from(evicted_dirty);
            *row = AccessRow {
                hit,
                evicted_valid,
                evicted_dirty,
                coherence: false,
                evicted_addr: (vtag << sets_shift | set as u64) << line_shift,
            };
        }
        self.clock = clock;
        self.stats.accesses += addrs.len() as u64;
        self.stats.misses += misses;
        self.stats.writebacks += writebacks;
        if !self.invalidated.is_empty() {
            // Coherence post-pass: replay the classification probes in
            // miss order, exactly as the scalar walk interleaves them.
            for (row, &addr) in rows[start..].iter_mut().zip(addrs) {
                if !row.hit && self.invalidated.remove(&(addr >> line_shift << line_shift)) {
                    row.coherence = true;
                    self.stats.coherence_misses += 1;
                    if self.invalidated.is_empty() {
                        break;
                    }
                }
            }
        }
    }

    /// `true` when the line containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let line_number = addr >> self.line_shift;
        let tag = line_number >> self.sets_shift;
        let set = self.set_index(line_number);
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .zip(&self.flags[base..base + self.ways])
            .any(|(&t, &f)| f & VALID != 0 && t == tag)
    }

    /// Invalidates the line containing `addr` (a coherence action from a
    /// remote writer). Returns `true` if the line was resident.
    ///
    /// The next miss on the same line is classified as a coherence miss.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line_number = addr >> self.line_shift;
        let tag = line_number >> self.sets_shift;
        let set = self.set_index(line_number);
        let base = set * self.ways;
        let found = (base..base + self.ways)
            .find(|&i| self.flags[i] & VALID != 0 && self.tags[i] == tag);
        if let Some(i) = found {
            self.flags[i] = 0;
            self.stats.invalidations_received += 1;
            self.invalidated.insert(line_number << self.line_shift);
            // Bound the classification set; correctness does not depend on
            // it and coherence traffic is rare by design.
            if self.invalidated.len() > 1 << 16 {
                self.invalidated.clear();
            }
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
impl SetAssocCache {
    /// The pre-optimization two-pass `access`, kept verbatim as the one
    /// reference for this layer: find the hit with one scan, then re-scan
    /// with `min_by_key` for the victim. `access_equivalence_randomized`
    /// pins the fused scalar walk and `batch_equivalence_randomized` the
    /// batched row kernels access-for-access identical to this on random
    /// geometries, policies, and address streams.
    fn access_reference(&mut self, addr: u64, write: bool) -> Access {
        self.clock += 1;
        self.stats.accesses += 1;
        if self.policy.should_clear_stamps() {
            for s in &mut self.stamps {
                *s = 0;
            }
        }
        let line_number = addr >> self.line_shift;
        let tag = line_number >> self.geometry.sets().trailing_zeros();
        let set = self.set_index(line_number);
        let base = set * self.ways;
        let clock = self.clock;
        let touch = self.policy.touch_stamp(clock);

        // Hit path.
        if let Some(i) = (base..base + self.ways)
            .find(|&i| self.flags[i] & VALID != 0 && self.tags[i] == tag)
        {
            if let Some(stamp) = touch {
                self.stamps[i] = stamp;
            }
            self.flags[i] |= (write as u8) << 1;
            return Access::Hit;
        }

        // Miss: classify, then fill via the policy's victim (minimum
        // stamp among valid lines; invalid lines are always preferred).
        self.stats.misses += 1;
        let line_addr = line_number << self.line_shift;
        let coherence = self.invalidated.remove(&line_addr);
        if coherence {
            self.stats.coherence_misses += 1;
        }
        let Some(vi) = (base..base + self.ways)
            .min_by_key(|&i| (self.flags[i] & VALID != 0, self.stamps[i]))
        else {
            return Access::Miss {
                evicted: None,
                coherence,
            };
        };
        let mut evicted = None;
        if self.flags[vi] & VALID != 0 {
            let dirty = self.flags[vi] & DIRTY != 0;
            if dirty {
                self.stats.writebacks += 1;
            }
            let victim_line = (self.tags[vi] << self.geometry.sets().trailing_zeros()
                | set as u64)
                << self.line_shift;
            evicted = Some(Evicted {
                addr: victim_line,
                dirty,
            });
        }
        self.tags[vi] = tag;
        self.stamps[vi] = self.policy.fill_stamp(clock);
        self.flags[vi] = VALID | ((write as u8) << 1);
        Access::Miss { evicted, coherence }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odb_core::config::CacheGeometry;

    fn small() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(CacheGeometry::new(512, 64, 2).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000, false).is_hit());
        assert!(c.access(0x1000, false).is_hit());
        assert!(c.access(0x103F, false).is_hit(), "same 64 B line");
        assert!(!c.access(0x1040, false).is_hit(), "next line");
        let s = c.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.misses, 2);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = sets × line = 256 B).
        c.access(0x0000, false);
        c.access(0x0100, false);
        c.access(0x0000, false); // refresh line A
        c.access(0x0200, false); // evicts B (LRU)
        assert!(c.contains(0x0000));
        assert!(!c.contains(0x0100));
        assert!(c.contains(0x0200));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0x0000, true); // dirty A
        c.access(0x0100, false);
        let access = c.access(0x0200, false);
        assert_eq!(access.dirty_writeback(), Some(0x0000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_reports_victim_without_writeback() {
        let mut c = small();
        c.access(0x0000, false);
        c.access(0x0100, false);
        match c.access(0x0200, false) {
            Access::Miss {
                evicted: Some(e), ..
            } => {
                assert_eq!(e.addr, 0x0000);
                assert!(!e.dirty);
            }
            other => panic!("expected clean eviction, got {other:?}"),
        }
        // Cold fill into a non-full set evicts nothing.
        let mut c2 = small();
        match c2.access(0x0000, false) {
            Access::Miss { evicted: None, .. } => {}
            other => panic!("expected no victim, got {other:?}"),
        }
    }

    #[test]
    fn invalidation_classifies_next_miss_as_coherence() {
        let mut c = small();
        c.access(0x0000, false);
        assert!(c.invalidate(0x0000));
        assert!(!c.invalidate(0x0000), "already gone");
        match c.access(0x0000, false) {
            Access::Miss {
                coherence: true, ..
            } => {}
            other => panic!("expected coherence miss, got {other:?}"),
        }
        let s = c.stats();
        assert_eq!(s.coherence_misses, 1);
        assert_eq!(s.invalidations_received, 1);
        // Re-fetched line misses later are NOT coherence misses.
        c.access(0x0100, false);
        c.access(0x0200, false); // evicts 0x0000 by capacity eventually
        match c.access(0x0000, false) {
            Access::Hit => {}
            Access::Miss { coherence, .. } => assert!(!coherence),
        }
    }

    #[test]
    fn write_marks_line_dirty_on_hit_too() {
        let mut c = small();
        c.access(0x0000, false); // clean fill
        c.access(0x0000, true); // dirtied by hit
        c.access(0x0100, false);
        let access = c.access(0x0200, false);
        assert!(
            access.dirty_writeback().is_some(),
            "hit-write should dirty the line, got {access:?}"
        );
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(0x0000, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x0000, false).is_hit(), "contents survive");
    }

    #[test]
    fn line_addr_masks_offset() {
        let c = small();
        assert_eq!(c.line_addr(0x1234), 0x1200);
        assert_eq!(c.line_addr(0x1240), 0x1240);
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        // 32 KB 8-way: hold a 16 KB working set with zero steady misses.
        let mut c = SetAssocCache::new(CacheGeometry::new(32 << 10, 64, 8).unwrap());
        let lines: Vec<u64> = (0..256).map(|i| i * 64).collect();
        for &a in &lines {
            c.access(a, false);
        }
        c.reset_stats();
        for _ in 0..10 {
            for &a in &lines {
                assert!(c.access(a, false).is_hit());
            }
        }
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        // 4 KB direct-ish cache cyclically scanning 8 KB misses every time.
        let mut c = SetAssocCache::new(CacheGeometry::new(4 << 10, 64, 1).unwrap());
        let lines: Vec<u64> = (0..128).map(|i| i * 64).collect();
        for _ in 0..3 {
            for &a in &lines {
                c.access(a, false);
            }
        }
        assert!(
            c.stats().miss_ratio() > 0.99,
            "cyclic scan over 2x capacity under LRU thrashes"
        );
    }

    #[test]
    fn policies_behave_differently_under_streaming() {
        use crate::policy::ReplacementPolicy;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // A hot set that fits (32 lines) mixed with a cold stream that
        // does not: judicious policies keep the hot set resident.
        let geometry = CacheGeometry::new(4 << 10, 64, 4).unwrap(); // 64 lines
        let miss_ratio = |policy: ReplacementPolicy| {
            let mut c = SetAssocCache::with_policy(geometry, policy);
            let mut rng = SmallRng::seed_from_u64(77);
            let mut hot_misses = 0u64;
            let mut hot_refs = 0u64;
            for i in 0..200_000u64 {
                if rng.gen_bool(0.5) {
                    let hot = (i * 2_654_435_761 % 32) * 64;
                    hot_refs += 1;
                    if !c.access(hot, false).is_hit() {
                        hot_misses += 1;
                    }
                } else {
                    // Cold stream: fresh line every time.
                    c.access((1 << 20) + i * 64, false);
                }
            }
            hot_misses as f64 / hot_refs as f64
        };
        let lru = miss_ratio(ReplacementPolicy::Lru);
        let fifo = miss_ratio(ReplacementPolicy::Fifo);
        let random = miss_ratio(ReplacementPolicy::Random);
        let bip = miss_ratio(ReplacementPolicy::StreamResistant);
        let nru = miss_ratio(ReplacementPolicy::Nru);
        // The stream-resistant policy protects the hot set from the scan.
        assert!(
            bip < lru * 0.5,
            "stream-resistant {bip:.3} should beat LRU {lru:.3} under streaming"
        );
        // All ratios are sane probabilities.
        for (name, v) in [
            ("lru", lru),
            ("fifo", fifo),
            ("random", random),
            ("bip", bip),
            ("nru", nru),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} ratio {v}");
        }
    }

    #[test]
    fn non_lru_policies_preserve_hit_semantics() {
        use crate::policy::ReplacementPolicy;
        for policy in ReplacementPolicy::ALL {
            let mut c = SetAssocCache::with_policy(
                CacheGeometry::new(4096, 64, 2).unwrap(),
                policy,
            );
            assert_eq!(c.policy(), policy);
            assert!(!c.access(0x40, false).is_hit(), "{policy}: cold miss");
            assert!(c.access(0x40, false).is_hit(), "{policy}: then hit");
            assert!(c.access(0x7F, true).is_hit(), "{policy}: same line");
            // Invalid ways are always filled before evicting valid lines.
            let mut c2 = SetAssocCache::with_policy(
                CacheGeometry::new(4096, 64, 2).unwrap(),
                policy,
            );
            c2.access(0x0000, false);
            c2.access(0x1000, false); // same set, second way
            assert!(c2.contains(0x0000), "{policy}: no premature eviction");
            assert!(c2.contains(0x1000), "{policy}: fill used free way");
        }
    }

    /// Walks many random geometries × every policy × random
    /// address/write/invalidate streams and requires the fused scalar
    /// `access` and the two-pass `access_reference` to agree
    /// access-for-access.
    #[test]
    fn access_equivalence_randomized() {
        use crate::policy::ReplacementPolicy;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x0DB_CAC4E);
        for trial in 0..200 {
            let line = 1u64 << rng.gen_range(5u32..8); // 32..128 B
            let sets = 1u64 << rng.gen_range(0u32..5); // 1..16 sets
            let ways = rng.gen_range(1u64..5);
            let policy = ReplacementPolicy::ALL[rng.gen_range(0..ReplacementPolicy::ALL.len())];
            let geometry =
                CacheGeometry::new(line * sets * ways, line as u32, ways as u32).unwrap();
            let mut fast = SetAssocCache::with_policy(geometry, policy);
            let mut naive = SetAssocCache::with_policy(geometry, policy);
            for op in 0..400 {
                let addr = rng.gen_range(0u64..1 << 14);
                let write = rng.gen_bool(0.3);
                if rng.gen_ratio(1, 16) {
                    assert_eq!(fast.invalidate(addr), naive.invalidate(addr));
                }
                let a = fast.access(addr, write);
                let b = naive.access_reference(addr, write);
                assert_eq!(
                    a, b,
                    "trial {trial} op {op}: {policy} diverged at addr {addr:#x} write {write}"
                );
            }
            assert_eq!(fast.stats(), naive.stats(), "trial {trial}: stats diverged");
        }
    }

    /// The [`Access`] a batched row denotes (`evicted_addr` is ignored
    /// unless `evicted_valid` is set).
    fn row_access(row: AccessRow) -> Access {
        if row.hit {
            Access::Hit
        } else {
            Access::Miss {
                evicted: row.evicted_valid.then_some(Evicted {
                    addr: row.evicted_addr,
                    dirty: row.evicted_dirty,
                }),
                coherence: row.coherence,
            }
        }
    }

    /// The batched row kernel produces the identical access sequence,
    /// statistics, and tag/stamp/flag arrays as the two-pass
    /// `access_reference` — across the monomorphized associativities
    /// ({1,2,4,8,12,16}) and the runtime-`ways` fallback (3), every
    /// policy (LRU takes the branch-free loop, the others the
    /// per-element fallback), uneven chunk sizes (batch size 1 and
    /// partial final batches), and coherence invalidations landing
    /// between chunks. This is the layer-level guarantee that neither
    /// the per-width `scan_set_fixed` specializations nor the deferred
    /// coherence post-pass can change results.
    #[test]
    fn batch_equivalence_randomized() {
        use crate::policy::ReplacementPolicy;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x0DB_BA7C4);
        for &ways in &[1u64, 2, 3, 4, 8, 12, 16] {
            for policy in ReplacementPolicy::ALL {
                let line = 1u64 << rng.gen_range(5u32..8); // 32..128 B
                let sets = 1u64 << rng.gen_range(0u32..5); // 1..16 sets
                let geometry =
                    CacheGeometry::new(line * sets * ways, line as u32, ways as u32).unwrap();
                // Addresses span four times the capacity: hits, capacity
                // misses and resident invalidation targets all occur.
                let span = 4 * line * sets * ways;
                let mut reference = SetAssocCache::with_policy(geometry, policy);
                let mut batched = SetAssocCache::with_policy(geometry, policy);
                for round in 0..6 {
                    let len = rng.gen_range(0usize..400);
                    let chunk = rng.gen_range(1usize..80);
                    let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0..span)).collect();
                    let writes: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.3)).collect();
                    let mut rows = Vec::new();
                    let mut expect = Vec::new();
                    for (a, w) in addrs.chunks(chunk).zip(writes.chunks(chunk)) {
                        if rng.gen_bool(0.3) {
                            let addr = addrs[rng.gen_range(0..len)];
                            assert_eq!(reference.invalidate(addr), batched.invalidate(addr));
                        }
                        batched.access_batch_rows(a, w, &mut rows);
                        expect.extend(
                            a.iter().zip(w).map(|(&a, &w)| reference.access_reference(a, w)),
                        );
                    }
                    let got: Vec<Access> = rows.into_iter().map(row_access).collect();
                    let tag = format!("ways {ways} {policy} round {round}");
                    assert_eq!(got, expect, "{tag}: access sequence diverged");
                    assert_eq!(batched.stats(), reference.stats(), "{tag}: stats diverged");
                    assert_eq!(batched.tags, reference.tags, "{tag}: tags diverged");
                    assert_eq!(batched.stamps, reference.stamps, "{tag}: stamps diverged");
                    assert_eq!(batched.flags, reference.flags, "{tag}: flags diverged");
                }
            }
        }
    }

    /// The batched LRU row kernel agrees with the production scalar path
    /// `access` (the fused `walk_set`), not only with `access_reference`:
    /// identical access sequence, statistics and tag/stamp/flag arrays
    /// across the monomorphized associativities ({1,2,4,8,12,16}), the
    /// runtime-`ways` fallback (3), interleaved invalidations and uneven
    /// batch chunking.
    #[test]
    fn batch_matches_scalar_per_associativity() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x00DB_A235);
        for &ways in &[1u64, 2, 3, 4, 8, 12, 16] {
            let sets = 16u64;
            let line = 64u64;
            let geometry =
                CacheGeometry::new(line * sets * ways, line as u32, ways as u32).unwrap();
            let mut scalar = SetAssocCache::new(geometry);
            let mut batched = SetAssocCache::new(geometry);
            for round in 0..8 {
                let len = rng.gen_range(0usize..600);
                let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..1 << 16)).collect();
                let writes: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.3)).collect();
                let chunk = rng.gen_range(1usize..80);
                if rng.gen_bool(0.5) {
                    let addr = rng.gen_range(0u64..1 << 16);
                    assert_eq!(scalar.invalidate(addr), batched.invalidate(addr));
                }
                let mut rows = Vec::new();
                for (a, w) in addrs.chunks(chunk).zip(writes.chunks(chunk)) {
                    batched.access_batch_rows(a, w, &mut rows);
                }
                let got: Vec<Access> = rows.into_iter().map(row_access).collect();
                let expect: Vec<Access> = addrs
                    .iter()
                    .zip(&writes)
                    .map(|(&a, &w)| scalar.access(a, w))
                    .collect();
                assert_eq!(got, expect, "ways {ways} round {round}: batch diverged from scalar");
                assert_eq!(batched.stats(), scalar.stats());
                assert_eq!(batched.tags, scalar.tags, "ways {ways}: tags diverged");
                assert_eq!(batched.stamps, scalar.stamps);
                assert_eq!(batched.flags, scalar.flags);
            }
        }
    }

    /// Accesses never panic and stats stay consistent for arbitrary
    /// address streams with interleaved invalidations.
    #[test]
    fn stats_consistency() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x0DB_57A7);
        for trial in 0..64 {
            let len = rng.gen_range(1u64..500);
            let mut c = small();
            for _ in 0..len {
                let addr = rng.gen_range(0u64..1 << 20);
                if rng.gen_ratio(1, 8) {
                    c.invalidate(addr);
                }
                c.access(addr, rng.gen_bool(0.5));
            }
            let s = c.stats();
            assert_eq!(s.accesses, len, "trial {trial}");
            assert!(s.misses <= s.accesses, "trial {trial}: {s:?}");
            assert!(s.coherence_misses <= s.misses, "trial {trial}: {s:?}");
            assert!(s.writebacks <= s.misses, "trial {trial}: {s:?}");
        }
    }

    /// Immediately repeating an access always hits.
    #[test]
    fn temporal_locality_always_hits() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x0DB_7E4B);
        for _ in 0..1_000 {
            let addr = rng.gen_range(0u64..1 << 30);
            let mut c = small();
            c.access(addr, false);
            assert!(c.access(addr, false).is_hit(), "addr {addr:#x}");
            assert!(c.contains(addr), "addr {addr:#x}");
        }
    }
}
