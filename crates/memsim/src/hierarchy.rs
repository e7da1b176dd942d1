//! One processor's cache stack: trace cache, L1D, unified L2, unified L3
//! and the data TLB, with per-space (user/OS) event counting.

use crate::batch::{BatchOutcomes, FillEvent, RefBatch, WriteEvent};
use crate::cache::{Access, Evicted, SetAssocCache};
use crate::coherence::Invalidate;
use crate::tlb::Tlb;
use odb_core::config::{CacheGeometry, SystemConfig};
use odb_core::Error;

/// Execution space an event is attributed to (the paper splits every
/// metric into user and OS components).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Database/user code.
    User,
    /// Kernel code (I/O path, scheduler).
    Os,
}

impl Space {
    /// Both spaces, user first.
    pub const ALL: [Space; 2] = [Space::User, Space::Os];

    fn index(self) -> usize {
        match self {
            Space::User => 0,
            Space::Os => 1,
        }
    }
}

/// Event counts attributed to one space on one processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyCounts {
    /// Instructions retired.
    pub instructions: u64,
    /// Instruction-fetch line references issued to the trace cache.
    pub code_refs: u64,
    /// Data references issued to L1D.
    pub data_refs: u64,
    /// Data references that were writes.
    pub data_writes: u64,
    /// Trace-cache misses.
    pub tc_misses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 lookups (TC misses + L1D misses).
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 lookups (== L2 misses).
    pub l3_accesses: u64,
    /// L3 misses (memory accesses over the bus).
    pub l3_misses: u64,
    /// L3 misses classified as coherence misses.
    pub l3_coherence_misses: u64,
    /// Dirty L3 victims written back over the bus.
    pub l3_writebacks: u64,
    /// TLB translations requested.
    pub tlb_accesses: u64,
    /// TLB misses (page walks).
    pub tlb_misses: u64,
    /// Next-line prefetches issued by the L2 prefetcher.
    pub prefetches_issued: u64,
    /// Prefetches that had to fill from memory (bus transactions that are
    /// not demand misses).
    pub prefetch_l3_fills: u64,
}

impl HierarchyCounts {
    /// Merges another processor's / space's counts into this one.
    pub fn accumulate(&mut self, other: &HierarchyCounts) {
        self.instructions += other.instructions;
        self.code_refs += other.code_refs;
        self.data_refs += other.data_refs;
        self.data_writes += other.data_writes;
        self.tc_misses += other.tc_misses;
        self.l1d_misses += other.l1d_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
        self.l3_accesses += other.l3_accesses;
        self.l3_misses += other.l3_misses;
        self.l3_coherence_misses += other.l3_coherence_misses;
        self.l3_writebacks += other.l3_writebacks;
        self.tlb_accesses += other.tlb_accesses;
        self.tlb_misses += other.tlb_misses;
        self.prefetches_issued += other.prefetches_issued;
        self.prefetch_l3_fills += other.prefetch_l3_fills;
    }
}

/// Result of an access that reached the L3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L3Fill {
    /// Line-aligned address now resident in L3 (for directory tracking).
    pub filled: u64,
    /// Victim displaced from L3, if any (directory must drop the holder;
    /// dirty victims also cost a bus transaction).
    pub evicted: Option<Evicted>,
    /// `true` when this miss was caused by a coherence invalidation.
    pub coherence: bool,
}

/// Outcome of one reference as seen by the bus/coherence layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefOutcome {
    /// Populated when the reference missed all levels and filled the L3.
    pub l3_fill: Option<L3Fill>,
    /// `true` when the reference wrote a line that is (now) resident in
    /// L3 — the caller must notify the coherence directory.
    pub wrote_line: Option<u64>,
}

/// One processor's TC/L1D/L2/L3/TLB stack.
///
/// The hierarchy is modelled as inclusive: anything resident in an inner
/// level is also in L3, so a directory invalidation at L3 flushes inner
/// levels too.
///
/// The L3 is held behind `Rc<RefCell<…>>` so that several cores can share
/// one last-level cache (a CMP organization); SMP construction gives each
/// core a private instance.
#[derive(Debug)]
pub struct CpuHierarchy {
    tc: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    l3: std::rc::Rc<std::cell::RefCell<SetAssocCache>>,
    /// L3 line shift copied out at construction: the per-reference paths
    /// compute line-aligned addresses without touching the `RefCell`
    /// (a borrow per access is measurable in the characterization loop).
    l3_line_shift: u32,
    tlb: Tlb,
    counts: [HierarchyCounts; 2],
    /// Next-line prefetch into L2 on every L2 demand miss (a §7-style
    /// "more efficient use of limited capacity" mechanism to study).
    l2_prefetch: bool,
}

/// Xeon MP's L1 data cache: 8 KB, 4-way, 64 B lines. Fixed because the
/// paper's analysis never varies it (the L1D is invisible in Tables 2–4;
/// its effect is folded into the 0.5 base CPI).
fn l1d_geometry() -> Result<CacheGeometry, Error> {
    CacheGeometry::new(8 << 10, 64, 4)
}

impl CpuHierarchy {
    /// Builds the stack described by a [`SystemConfig`] (true-LRU L3).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration describes an
    /// unbuildable stack (e.g. zero TLB entries).
    pub fn new(config: &SystemConfig) -> Result<Self, Error> {
        Self::with_l3_policy(config, crate::policy::ReplacementPolicy::Lru)
    }

    /// Builds the stack with an explicit L3 replacement policy — the §7
    /// "judicious caching schemes" exploration hook. Inner levels stay
    /// LRU (they are small and reuse-dominated).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] as for [`CpuHierarchy::new`].
    pub fn with_l3_policy(
        config: &SystemConfig,
        policy: crate::policy::ReplacementPolicy,
    ) -> Result<Self, Error> {
        let l3 = std::rc::Rc::new(std::cell::RefCell::new(SetAssocCache::with_policy(
            config.l3, policy,
        )));
        Self::with_shared_l3(config, l3)
    }

    /// Builds the stack around an externally owned L3 — pass the same
    /// handle to several cores to model a CMP's shared last-level cache.
    /// Inner-level coherence between the sharers is not simulated (their
    /// interaction happens at the shared L3, where capacity and reuse
    /// effects dominate).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] as for [`CpuHierarchy::new`].
    pub fn with_shared_l3(
        config: &SystemConfig,
        l3: std::rc::Rc<std::cell::RefCell<SetAssocCache>>,
    ) -> Result<Self, Error> {
        let l3_line_shift = l3.borrow().geometry().line_bytes().trailing_zeros();
        Ok(Self {
            tc: SetAssocCache::new(config.trace_cache),
            l1d: SetAssocCache::new(l1d_geometry()?),
            l2: SetAssocCache::new(config.l2),
            l3,
            l3_line_shift,
            tlb: Tlb::new(config.tlb_entries as usize)?,
            counts: [HierarchyCounts::default(); 2],
            l2_prefetch: false,
        })
    }

    /// Line-aligned address as the L3 (and the coherence directory) sees
    /// it, computed without borrowing the shared cache.
    #[inline]
    fn l3_line_addr(&self, addr: u64) -> u64 {
        addr >> self.l3_line_shift << self.l3_line_shift
    }

    /// Enables next-line prefetching into L2 on demand misses. Prefetch
    /// fills are counted separately from demand misses (they consume bus
    /// bandwidth but do not stall the pipeline).
    pub fn enable_l2_prefetch(&mut self) {
        self.l2_prefetch = true;
    }

    /// Records `n` retired instructions in `space`.
    pub fn retire_instructions(&mut self, n: u64, space: Space) {
        self.counts[space.index()].instructions += n;
    }

    /// Counts for one space.
    pub fn counts(&self, space: Space) -> &HierarchyCounts {
        &self.counts[space.index()]
    }

    /// Zeroes the per-space counters (after warm-up) without disturbing
    /// cache contents.
    pub fn reset_counts(&mut self) {
        self.counts = [HierarchyCounts::default(); 2];
    }

    /// Issues an instruction-fetch line reference.
    #[inline]
    pub fn fetch_code(&mut self, addr: u64, space: Space) -> RefOutcome {
        let c = &mut self.counts[space.index()];
        c.code_refs += 1;
        if self.tc.access(addr, false).is_hit() {
            return RefOutcome::default();
        }
        self.counts[space.index()].tc_misses += 1;
        self.descend(addr, false, space)
    }

    /// Issues a data reference (`write` dirties the line).
    #[inline]
    pub fn access_data(&mut self, addr: u64, write: bool, space: Space) -> RefOutcome {
        {
            let c = &mut self.counts[space.index()];
            c.data_refs += 1;
            if write {
                c.data_writes += 1;
            }
            c.tlb_accesses += 1;
        }
        if !self.tlb.access(addr) {
            self.counts[space.index()].tlb_misses += 1;
        }
        let line = self.l3_line_addr(addr);
        if self.l1d.access(addr, write).is_hit() {
            return RefOutcome {
                l3_fill: None,
                wrote_line: write.then_some(line),
            };
        }
        self.counts[space.index()].l1d_misses += 1;
        let mut outcome = self.descend(addr, write, space);
        if write {
            outcome.wrote_line = Some(line);
        }
        outcome
    }

    /// L2→L3 path shared by code and data misses.
    #[inline]
    fn descend(&mut self, addr: u64, write: bool, space: Space) -> RefOutcome {
        let c = &mut self.counts[space.index()];
        c.l2_accesses += 1;
        if self.l2.access(addr, write).is_hit() {
            return RefOutcome::default();
        }
        if self.l2_prefetch {
            self.prefetch_next_line(addr, space);
        }
        let c = &mut self.counts[space.index()];
        c.l2_misses += 1;
        c.l3_accesses += 1;
        match self.l3.borrow_mut().access(addr, write) {
            Access::Hit => RefOutcome::default(),
            Access::Miss { evicted, coherence } => {
                let c = &mut self.counts[space.index()];
                c.l3_misses += 1;
                if coherence {
                    c.l3_coherence_misses += 1;
                }
                if evicted.is_some_and(|e| e.dirty) {
                    c.l3_writebacks += 1;
                }
                RefOutcome {
                    l3_fill: Some(L3Fill {
                        filled: self.l3_line_addr(addr),
                        evicted,
                        coherence,
                    }),
                    wrote_line: None,
                }
            }
        }
    }

    /// Fetches `addr`'s successor line into L2 (and L3 if absent),
    /// counting it as prefetch traffic rather than a demand miss.
    fn prefetch_next_line(&mut self, addr: u64, space: Space) {
        let line_bytes = self.l2.geometry().line_bytes() as u64;
        let next = self.l2.line_addr(addr).saturating_add(line_bytes);
        let c = &mut self.counts[space.index()];
        c.prefetches_issued += 1;
        if self.l2.access(next, false).is_hit() {
            return;
        }
        let filled_from_memory = !matches!(
            self.l3.borrow_mut().access(next, false),
            Access::Hit
        );
        if filled_from_memory {
            self.counts[space.index()].prefetch_l3_fills += 1;
        }
    }

    /// Walks a whole [`RefBatch`] through the stack level by level: one
    /// TLB-and-bookkeeping pass over the data column, one L1D pass, one
    /// trace-cache pass over the code column, then the misses merged (by
    /// sequence number) into a single L2 stream and its misses into a
    /// single L3 stream.
    ///
    /// Bit-exact with issuing [`CpuHierarchy::fetch_code`] /
    /// [`CpuHierarchy::access_data`] per reference in batch order: every
    /// device still observes exactly its scalar access stream (each level
    /// sees only the previous level's misses, in sequence order), and
    /// per-space counters are order-insensitive sums. Coherence actions
    /// are *not* applied here — the scalar walk's
    /// [`RefOutcome::l3_fill`]/[`RefOutcome::wrote_line`] per-reference
    /// outcomes are returned instead as the ordered
    /// [`BatchOutcomes::fills`]/[`BatchOutcomes::writes`] event lists,
    /// which the caller must replay through the directory in sequence
    /// order (fills before writes on the same reference) before any other
    /// processor runs. See [`crate::batch`] for the full contract.
    ///
    /// `out` is cleared on entry; its buffers are recycled across calls
    /// so the steady-state walk performs no heap allocation.
    pub fn access_batch(&mut self, batch: &RefBatch, out: &mut BatchOutcomes) {
        out.clear();

        // Data column: bookkeeping with the TLB translation and the
        // directory's `WriteEvent`s folded in (the TLB sees only data
        // references, and this loop visits them in scalar order; event
        // content depends only on the batch columns), then the L1D pass.
        for (i, ((&addr, &write), &space)) in batch
            .data_addrs
            .iter()
            .zip(&batch.data_writes)
            .zip(&batch.data_space)
            .enumerate()
        {
            let tlb_miss = !self.tlb.access(addr);
            let c = &mut self.counts[space.index()];
            c.data_refs += 1;
            c.data_writes += write as u64;
            c.tlb_accesses += 1;
            c.tlb_misses += u64::from(tlb_miss);
            if write {
                // Every data write surfaces for the directory, hit or miss
                // (`RefOutcome::wrote_line` does the same on the scalar path).
                out.writes.push(WriteEvent {
                    seq: batch.data_seq[i],
                    line: addr >> self.l3_line_shift << self.l3_line_shift,
                });
            }
        }
        self.l1d
            .access_batch_rows(&batch.data_addrs, &batch.data_writes, &mut out.row_scratch);
        // Miss compaction and per-space counting, select-style: an
        // unconditional index store with a conditional-increment cursor
        // keeps the hit/miss outcome out of the branch predictor.
        let mut misses_by_space = [0u64; 2];
        out.data_miss_idx.resize(out.row_scratch.len(), 0);
        let mut count = 0usize;
        for (i, (row, &space)) in out.row_scratch.iter().zip(&batch.data_space).enumerate() {
            out.data_miss_idx[count] = i as u32;
            count += usize::from(!row.hit);
            misses_by_space[space.index()] += u64::from(!row.hit);
        }
        out.data_miss_idx.truncate(count);
        for (space_idx, &misses) in misses_by_space.iter().enumerate() {
            self.counts[space_idx].l1d_misses += misses;
        }

        // Code column: the trace-cache pass (code fetches skip the D-TLB).
        for &space in &batch.code_space {
            self.counts[space.index()].code_refs += 1;
        }
        out.no_writes.clear();
        out.no_writes.resize(batch.code_addrs.len(), false);
        out.row_scratch.clear();
        self.tc
            .access_batch_rows(&batch.code_addrs, &out.no_writes, &mut out.row_scratch);
        let mut misses_by_space = [0u64; 2];
        out.code_miss_idx.resize(out.row_scratch.len(), 0);
        let mut count = 0usize;
        for (i, (row, &space)) in out.row_scratch.iter().zip(&batch.code_space).enumerate() {
            out.code_miss_idx[count] = i as u32;
            count += usize::from(!row.hit);
            misses_by_space[space.index()] += u64::from(!row.hit);
        }
        out.code_miss_idx.truncate(count);
        for (space_idx, &misses) in misses_by_space.iter().enumerate() {
            self.counts[space_idx].tc_misses += misses;
        }

        // Merge the two miss queues into the L2 demand stream in original
        // reference order (sequence numbers are unique, so no tie rule is
        // needed), counting `l2_accesses` as each element lands (one
        // element, one count — order-insensitive, so folding the count
        // into the merge drops a whole pass over the stream). An
        // all-data or all-code batch — the common shapes — skips the
        // two-pointer compare loop entirely.
        if out.code_miss_idx.is_empty() {
            for &idx in &out.data_miss_idx {
                let i = idx as usize;
                out.l2_addrs.push(batch.data_addrs[i]);
                out.l2_writes.push(batch.data_writes[i]);
                out.l2_space.push(batch.data_space[i]);
                out.l2_seq.push(batch.data_seq[i]);
                self.counts[batch.data_space[i].index()].l2_accesses += 1;
            }
        } else if out.data_miss_idx.is_empty() {
            for &idx in &out.code_miss_idx {
                let i = idx as usize;
                out.l2_addrs.push(batch.code_addrs[i]);
                out.l2_writes.push(false);
                out.l2_space.push(batch.code_space[i]);
                out.l2_seq.push(batch.code_seq[i]);
                self.counts[batch.code_space[i].index()].l2_accesses += 1;
            }
        } else {
            let mut di = 0usize;
            let mut ci = 0usize;
            while di < out.data_miss_idx.len() || ci < out.code_miss_idx.len() {
                let take_data = match (out.data_miss_idx.get(di), out.code_miss_idx.get(ci)) {
                    (Some(&d), Some(&c)) => batch.data_seq[d as usize] < batch.code_seq[c as usize],
                    (Some(_), None) => true,
                    _ => false,
                };
                if take_data {
                    let i = out.data_miss_idx[di] as usize;
                    out.l2_addrs.push(batch.data_addrs[i]);
                    out.l2_writes.push(batch.data_writes[i]);
                    out.l2_space.push(batch.data_space[i]);
                    out.l2_seq.push(batch.data_seq[i]);
                    self.counts[batch.data_space[i].index()].l2_accesses += 1;
                    di += 1;
                } else {
                    let i = out.code_miss_idx[ci] as usize;
                    out.l2_addrs.push(batch.code_addrs[i]);
                    out.l2_writes.push(false);
                    out.l2_space.push(batch.code_space[i]);
                    out.l2_seq.push(batch.code_seq[i]);
                    self.counts[batch.code_space[i].index()].l2_accesses += 1;
                    ci += 1;
                }
            }
        }

        // L2 pass. With the prefetcher off this is one batched kernel;
        // with it on, the demand access and the next-line probe must
        // interleave in L2's stream exactly as `descend` issues them, so
        // the walk goes reference by reference while still deferring the
        // L3 probes (prefetch probe queued before its demand access, as
        // `prefetch_next_line` runs before `descend` touches L3).
        out.row_scratch.clear();
        if !self.l2_prefetch {
            self.l2
                .access_batch_rows(&out.l2_addrs, &out.l2_writes, &mut out.row_scratch);
            // Compact the surviving misses *in place* over the same
            // `l2_*` columns (cursor advances on misses; over-written
            // slots are truncated away): without the prefetcher every
            // L3 access is a demand access, so the separate `l3_*`
            // refill columns — and the copy into them — are pure
            // plumbing. `count <= i` always, so each slot is read
            // before it can be overwritten.
            let mut misses_by_space = [0u64; 2];
            let mut count = 0usize;
            for (i, row) in out.row_scratch.iter().enumerate() {
                let miss = !row.hit;
                misses_by_space[out.l2_space[i].index()] += u64::from(miss);
                out.l2_addrs[count] = out.l2_addrs[i];
                out.l2_writes[count] = out.l2_writes[i];
                out.l2_space[count] = out.l2_space[i];
                out.l2_seq[count] = out.l2_seq[i];
                count += usize::from(miss);
            }
            out.l2_addrs.truncate(count);
            out.l2_writes.truncate(count);
            out.l2_space.truncate(count);
            out.l2_seq.truncate(count);
            for (space_idx, &misses) in misses_by_space.iter().enumerate() {
                let c = &mut self.counts[space_idx];
                c.l2_misses += misses;
                c.l3_accesses += misses;
            }
            // L3 pass over the compacted columns: all demand, so the
            // event loop skips the prefetch check entirely.
            out.row_scratch.clear();
            self.l3
                .borrow_mut()
                .access_batch_rows(&out.l2_addrs, &out.l2_writes, &mut out.row_scratch);
            for (i, row) in out.row_scratch.iter().enumerate() {
                if row.hit {
                    continue;
                }
                let c = &mut self.counts[out.l2_space[i].index()];
                c.l3_misses += 1;
                if row.coherence {
                    c.l3_coherence_misses += 1;
                }
                if row.evicted_dirty {
                    c.l3_writebacks += 1;
                }
                out.fills.push(FillEvent {
                    seq: out.l2_seq[i],
                    fill: L3Fill {
                        filled: out.l2_addrs[i] >> self.l3_line_shift << self.l3_line_shift,
                        evicted: row.evicted_valid.then_some(Evicted {
                            addr: row.evicted_addr,
                            dirty: row.evicted_dirty,
                        }),
                        coherence: row.coherence,
                    },
                });
            }
            return;
        }

        // Prefetch path: the per-reference interleave builds the mixed
        // demand/prefetch L3 stream in the dedicated `l3_*` columns
        // (in-place reuse is impossible here — one L2 miss can emit two
        // L3 accesses).
        {
            let line_bytes = self.l2.geometry().line_bytes() as u64;
            for i in 0..out.l2_addrs.len() {
                let addr = out.l2_addrs[i];
                let write = out.l2_writes[i];
                let space = out.l2_space[i];
                if self.l2.access(addr, write).is_hit() {
                    continue;
                }
                let next = self.l2.line_addr(addr).saturating_add(line_bytes);
                self.counts[space.index()].prefetches_issued += 1;
                if !self.l2.access(next, false).is_hit() {
                    out.l3_addrs.push(next);
                    out.l3_writes.push(false);
                    out.l3_space.push(space);
                    out.l3_seq.push(out.l2_seq[i]);
                    out.l3_prefetch.push(true);
                }
                let c = &mut self.counts[space.index()];
                c.l2_misses += 1;
                c.l3_accesses += 1;
                out.l3_addrs.push(addr);
                out.l3_writes.push(write);
                out.l3_space.push(space);
                out.l3_seq.push(out.l2_seq[i]);
                out.l3_prefetch.push(false);
            }
        }

        // L3 pass (prefetch path): one borrow, one kernel. Prefetch
        // probes only count fill traffic and never surface directory
        // events (exactly as `prefetch_next_line` discards everything
        // but the hit flag); demand misses become ordered `FillEvent`s.
        // By this depth the stream is a small fraction of the batch, so
        // the event loop can afford its branches.
        out.row_scratch.clear();
        self.l3
            .borrow_mut()
            .access_batch_rows(&out.l3_addrs, &out.l3_writes, &mut out.row_scratch);
        for (i, row) in out.row_scratch.iter().enumerate() {
            if row.hit {
                continue;
            }
            if out.l3_prefetch[i] {
                self.counts[out.l3_space[i].index()].prefetch_l3_fills += 1;
                continue;
            }
            let c = &mut self.counts[out.l3_space[i].index()];
            c.l3_misses += 1;
            if row.coherence {
                c.l3_coherence_misses += 1;
            }
            if row.evicted_dirty {
                c.l3_writebacks += 1;
            }
            out.fills.push(FillEvent {
                seq: out.l3_seq[i],
                fill: L3Fill {
                    filled: out.l3_addrs[i] >> self.l3_line_shift << self.l3_line_shift,
                    evicted: row.evicted_valid.then_some(Evicted {
                        addr: row.evicted_addr,
                        dirty: row.evicted_dirty,
                    }),
                    coherence: row.coherence,
                },
            });
        }
    }

    /// Direct access to L3 statistics (for tests and diagnostics).
    /// Shared-L3 cores report the shared cache's combined statistics.
    pub fn l3_stats(&self) -> crate::cache::CacheStats {
        self.l3.borrow().stats()
    }
}

impl Invalidate for CpuHierarchy {
    /// Invalidates the line in every level (inclusive hierarchy).
    fn invalidate_line(&mut self, addr: u64) -> bool {
        self.l1d.invalidate(addr);
        self.l2.invalidate(addr);
        self.tc.invalidate(addr);
        self.l3.borrow_mut().invalidate(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odb_core::config::SystemConfig;

    fn hier() -> CpuHierarchy {
        CpuHierarchy::new(&SystemConfig::xeon_quad()).unwrap()
    }

    #[test]
    fn cold_data_ref_misses_all_levels() {
        let mut h = hier();
        let out = h.access_data(0x10_0000, false, Space::User);
        let fill = out.l3_fill.expect("cold miss reaches memory");
        assert_eq!(fill.filled, 0x10_0000);
        assert!(!fill.coherence);
        let c = h.counts(Space::User);
        assert_eq!(c.data_refs, 1);
        assert_eq!(c.l1d_misses, 1);
        assert_eq!(c.l2_misses, 1);
        assert_eq!(c.l3_misses, 1);
        assert_eq!(c.tlb_misses, 1);
        assert_eq!(h.counts(Space::Os).data_refs, 0, "space attribution");
    }

    #[test]
    fn warm_data_ref_hits_l1_and_goes_no_further() {
        let mut h = hier();
        h.access_data(0x10_0000, false, Space::User);
        let out = h.access_data(0x10_0008, false, Space::User);
        assert!(out.l3_fill.is_none());
        let c = h.counts(Space::User);
        assert_eq!(c.l1d_misses, 1);
        assert_eq!(c.l2_accesses, 1, "second ref never reached L2");
    }

    #[test]
    fn code_fetch_path_counts_tc() {
        let mut h = hier();
        h.fetch_code(0x40_0000, Space::Os);
        h.fetch_code(0x40_0000, Space::Os);
        let c = h.counts(Space::Os);
        assert_eq!(c.code_refs, 2);
        assert_eq!(c.tc_misses, 1);
        assert_eq!(c.l3_misses, 1);
        assert_eq!(c.tlb_accesses, 0, "code fetches skip the D-TLB");
    }

    #[test]
    fn writes_surface_for_coherence() {
        let mut h = hier();
        let out = h.access_data(0x20_0000, true, Space::User);
        assert_eq!(out.wrote_line, Some(0x20_0000));
        assert!(out.l3_fill.is_some());
        // A hit-write also surfaces.
        let out2 = h.access_data(0x20_0000, true, Space::User);
        assert_eq!(out2.wrote_line, Some(0x20_0000));
        assert!(out2.l3_fill.is_none());
        assert_eq!(h.counts(Space::User).data_writes, 2);
    }

    #[test]
    fn invalidation_flushes_inner_levels() {
        let mut h = hier();
        h.access_data(0x30_0000, false, Space::User);
        assert!(h.invalidate_line(0x30_0000));
        // The next reference misses L1D (not silently hits) and is a
        // coherence miss at L3.
        let out = h.access_data(0x30_0000, false, Space::User);
        let fill = out.l3_fill.expect("invalidated line re-fetched");
        assert!(fill.coherence);
        assert_eq!(h.counts(Space::User).l3_coherence_misses, 1);
        assert_eq!(h.counts(Space::User).l1d_misses, 2);
    }

    #[test]
    fn retire_and_reset() {
        let mut h = hier();
        h.retire_instructions(1000, Space::User);
        h.retire_instructions(50, Space::Os);
        assert_eq!(h.counts(Space::User).instructions, 1000);
        assert_eq!(h.counts(Space::Os).instructions, 50);
        h.access_data(0x1000, false, Space::User);
        h.reset_counts();
        assert_eq!(h.counts(Space::User).instructions, 0);
        assert_eq!(h.counts(Space::User).data_refs, 0);
        // Contents survive the reset: same line now hits.
        let out = h.access_data(0x1000, false, Space::User);
        assert!(out.l3_fill.is_none());
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = HierarchyCounts {
            instructions: 10,
            l3_misses: 2,
            ..Default::default()
        };
        let b = HierarchyCounts {
            instructions: 5,
            l3_misses: 1,
            tlb_misses: 7,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.instructions, 15);
        assert_eq!(a.l3_misses, 3);
        assert_eq!(a.tlb_misses, 7);
    }

    #[test]
    fn next_line_prefetch_converts_sequential_misses_to_hits() {
        let config = SystemConfig::xeon_quad();
        let run = |prefetch: bool| {
            let mut h = CpuHierarchy::new(&config).unwrap();
            if prefetch {
                h.enable_l2_prefetch();
            }
            // A sequential scan: each line follows its predecessor.
            for i in 0..2_000u64 {
                h.access_data(0x100_0000 + i * 64, false, Space::User);
            }
            (h.counts(Space::User).l2_misses, h.counts(Space::User).prefetches_issued)
        };
        let (base_misses, base_prefetches) = run(false);
        let (pf_misses, pf_prefetches) = run(true);
        assert_eq!(base_prefetches, 0);
        assert!(pf_prefetches > 0);
        assert!(
            pf_misses * 3 < base_misses * 2,
            "sequential scan: prefetch cuts L2 demand misses {base_misses} -> {pf_misses}"
        );
    }

    #[test]
    fn shared_l3_dedups_across_cores() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let config = SystemConfig::xeon_quad();
        let l3 = Rc::new(RefCell::new(SetAssocCache::new(config.l3)));
        let mut core0 = CpuHierarchy::with_shared_l3(&config, l3.clone()).unwrap();
        let mut core1 = CpuHierarchy::with_shared_l3(&config, l3.clone()).unwrap();
        // Core 0 fetches a line into the shared L3.
        let out0 = core0.access_data(0x70_0000, false, Space::User);
        assert!(out0.l3_fill.is_some(), "cold fill through core 0");
        // Core 1 misses its private L1/L2 but hits the shared L3.
        let out1 = core1.access_data(0x70_0000, false, Space::User);
        assert!(out1.l3_fill.is_none(), "shared L3 already holds the line");
        assert_eq!(core1.counts(Space::User).l2_misses, 1);
        assert_eq!(core1.counts(Space::User).l3_misses, 0);
        // The shared statistics reflect both cores' traffic.
        assert_eq!(core0.l3_stats().accesses, 2);
        assert_eq!(core0.l3_stats().misses, 1);
        assert_eq!(core1.l3_stats(), core0.l3_stats());
    }

    /// The batched walk must report the same ordered fill/write events
    /// as the scalar walk's per-reference `RefOutcome`s and leave
    /// identical counters and cache state — with and without the L2
    /// prefetcher, across uneven batch lengths (including partial and
    /// empty batches) and invalidations landing between batches.
    #[test]
    fn batch_walk_matches_scalar_walk() {
        use crate::batch::{BatchOutcomes, RefBatch};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x0DB_51AC4);
        for variant in 0..6 {
            let config = SystemConfig::xeon_quad();
            let mut scalar = CpuHierarchy::new(&config).unwrap();
            let mut batched = CpuHierarchy::new(&config).unwrap();
            if variant % 2 == 1 {
                scalar.enable_l2_prefetch();
                batched.enable_l2_prefetch();
            }
            let mut out = BatchOutcomes::new();
            for round in 0..10 {
                let cap = rng.gen_range(1usize..300); // includes capacity 1
                let mut batch = RefBatch::with_capacity(cap);
                let len = rng.gen_range(0..=cap);
                let mut expect_fills = Vec::new();
                let mut expect_writes = Vec::new();
                for seq in 0..len as u32 {
                    let addr = rng.gen_range(0u64..1 << 21);
                    let space = if rng.gen_bool(0.8) { Space::User } else { Space::Os };
                    if rng.gen_bool(0.4) {
                        batch.push_code(addr, space);
                        let o = scalar.fetch_code(addr, space);
                        if let Some(f) = o.l3_fill {
                            expect_fills.push((seq, f));
                        }
                        assert!(o.wrote_line.is_none());
                    } else {
                        let write = rng.gen_bool(0.3);
                        batch.push_data(addr, write, space);
                        let o = scalar.access_data(addr, write, space);
                        if let Some(f) = o.l3_fill {
                            expect_fills.push((seq, f));
                        }
                        if let Some(w) = o.wrote_line {
                            expect_writes.push((seq, w));
                        }
                    }
                }
                batched.access_batch(&batch, &mut out);
                let got_fills: Vec<(u32, L3Fill)> =
                    out.fills().iter().map(|f| (f.seq, f.fill)).collect();
                let got_writes: Vec<(u32, u64)> =
                    out.writes().iter().map(|w| (w.seq, w.line)).collect();
                assert_eq!(got_fills, expect_fills, "variant {variant} round {round}: fills");
                assert_eq!(got_writes, expect_writes, "variant {variant} round {round}: writes");
                // A remote invalidation between batches must classify the
                // same later miss as a coherence miss on both paths.
                if rng.gen_bool(0.5) {
                    let addr = rng.gen_range(0u64..1 << 21);
                    assert_eq!(scalar.invalidate_line(addr), batched.invalidate_line(addr));
                }
            }
            for space in Space::ALL {
                assert_eq!(
                    scalar.counts(space),
                    batched.counts(space),
                    "variant {variant}: {space:?} counters diverged"
                );
            }
            assert_eq!(scalar.l3_stats(), batched.l3_stats());
        }
    }

    /// Batch capacity is immaterial: one fixed reference stream
    /// produces identical fill/write events (order and payload),
    /// counters, and L3 statistics whether chunked at capacity 1, 7, or
    /// 256, matching the scalar per-reference walk.
    #[test]
    fn batch_capacity_immaterial() {
        use crate::batch::{BatchOutcomes, RefBatch};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let config = SystemConfig::xeon_quad();
        let mut rng = SmallRng::seed_from_u64(0x00DB_5144);
        let refs: Vec<(u64, bool, bool, Space)> = (0..1500)
            .map(|_| {
                (
                    rng.gen_range(0u64..1 << 21),
                    rng.gen_bool(0.4),
                    rng.gen_bool(0.3),
                    if rng.gen_bool(0.8) { Space::User } else { Space::Os },
                )
            })
            .collect();
        for prefetch in [false, true] {
            // Reference: the scalar per-reference walk.
            let mut reference = CpuHierarchy::new(&config).unwrap();
            if prefetch {
                reference.enable_l2_prefetch();
            }
            let mut expect_fills = Vec::new();
            let mut expect_writes = Vec::new();
            for &(addr, is_code, write, space) in &refs {
                let o = if is_code {
                    reference.fetch_code(addr, space)
                } else {
                    reference.access_data(addr, write, space)
                };
                if let Some(f) = o.l3_fill {
                    expect_fills.push(f);
                }
                if let Some(w) = o.wrote_line {
                    expect_writes.push(w);
                }
            }
            for &cap in &[1usize, 7, 256] {
                let mut h = CpuHierarchy::new(&config).unwrap();
                if prefetch {
                    h.enable_l2_prefetch();
                }
                let mut out = BatchOutcomes::new();
                let mut got_fills = Vec::new();
                let mut got_writes = Vec::new();
                for chunk in refs.chunks(cap) {
                    let mut batch = RefBatch::with_capacity(cap);
                    for &(addr, is_code, write, space) in chunk {
                        if is_code {
                            batch.push_code(addr, space);
                        } else {
                            batch.push_data(addr, write, space);
                        }
                    }
                    h.access_batch(&batch, &mut out);
                    got_fills.extend(out.fills().iter().map(|f| f.fill));
                    got_writes.extend(out.writes().iter().map(|w| w.line));
                }
                let tag = format!("prefetch {prefetch} cap {cap}");
                assert_eq!(got_fills, expect_fills, "{tag}: fills diverged");
                assert_eq!(got_writes, expect_writes, "{tag}: writes diverged");
                for space in Space::ALL {
                    assert_eq!(
                        reference.counts(space),
                        h.counts(space),
                        "{tag}: {space:?} counters diverged"
                    );
                }
                assert_eq!(reference.l3_stats(), h.l3_stats(), "{tag}: L3 stats");
            }
        }
    }

    /// Shared-L3 (CMP) mode: two cores alternating batches against one
    /// shared last-level cache stay bit-exact with the scalar walk.
    #[test]
    fn batch_walk_matches_scalar_with_shared_l3() {
        use crate::batch::{BatchOutcomes, RefBatch};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::cell::RefCell;
        use std::rc::Rc;
        let config = SystemConfig::xeon_quad();
        let l3_s = Rc::new(RefCell::new(SetAssocCache::new(config.l3)));
        let l3_b = Rc::new(RefCell::new(SetAssocCache::new(config.l3)));
        let mut scalar: Vec<CpuHierarchy> = (0..2)
            .map(|_| CpuHierarchy::with_shared_l3(&config, l3_s.clone()).unwrap())
            .collect();
        let mut batched: Vec<CpuHierarchy> = (0..2)
            .map(|_| CpuHierarchy::with_shared_l3(&config, l3_b.clone()).unwrap())
            .collect();
        let mut out = BatchOutcomes::new();
        let mut rng = SmallRng::seed_from_u64(0x0DB_C3E);
        for round in 0..12 {
            let cpu = round % 2;
            let mut batch = RefBatch::with_capacity(64);
            let mut expect_fills = Vec::new();
            for seq in 0..rng.gen_range(0..=64u32) {
                let addr = rng.gen_range(0u64..1 << 20);
                let write = rng.gen_bool(0.25);
                batch.push_data(addr, write, Space::User);
                if let Some(f) = scalar[cpu].access_data(addr, write, Space::User).l3_fill {
                    expect_fills.push((seq, f));
                }
            }
            batched[cpu].access_batch(&batch, &mut out);
            let got: Vec<(u32, L3Fill)> = out.fills().iter().map(|f| (f.seq, f.fill)).collect();
            assert_eq!(got, expect_fills, "round {round} cpu {cpu}");
        }
        for cpu in 0..2 {
            assert_eq!(scalar[cpu].counts(Space::User), batched[cpu].counts(Space::User));
        }
        assert_eq!(l3_s.borrow().stats(), l3_b.borrow().stats());
    }

    #[test]
    fn dirty_l3_victim_counts_writeback() {
        // Walk enough distinct written lines to force dirty L3 evictions.
        let mut h = hier();
        let l3_lines = SystemConfig::xeon_quad().l3.lines();
        for i in 0..(l3_lines * 2) {
            h.access_data(i * 64, true, Space::User);
        }
        assert!(h.counts(Space::User).l3_writebacks > 0);
    }
}
