//! A write-invalidate coherence directory over the per-processor caches.
//!
//! The Xeon MP keeps per-processor L3 caches coherent over the shared
//! front-side bus with a MESI protocol. This module models the part that
//! matters for the paper's analysis: a write by one processor invalidates
//! the line in every other processor's cache, and the victim's next miss
//! on that line is classified as a *coherence miss*. The paper's
//! (initially surprising) finding is that these are negligible next to
//! capacity misses on a 1 MB L3 — an outcome the simulation reproduces
//! rather than assumes, and which the `coherence` ablation experiment
//! toggles.

use crate::cache::SetAssocCache;
use std::collections::HashMap;

/// Something that can drop a line on request from the coherence directory.
///
/// Implemented by a bare [`SetAssocCache`] (L3-only coherence, used in
/// unit tests) and by a full [`crate::hierarchy::CpuHierarchy`] (which
/// also flushes its inner levels, as real inclusive hierarchies do).
pub trait Invalidate {
    /// Invalidates the line containing `addr`; returns `true` when the
    /// line was resident at the coherence point (L3).
    fn invalidate_line(&mut self, addr: u64) -> bool;
}

impl Invalidate for SetAssocCache {
    fn invalidate_line(&mut self, addr: u64) -> bool {
        self.invalidate(addr)
    }
}

/// Mutable references forward, so [`Directory::write`] accepts both
/// owned slices (`&mut [CpuHierarchy]`) and slices of references
/// (`&mut [&mut T]`) without the caller collecting a reference `Vec`.
impl<T: Invalidate + ?Sized> Invalidate for &mut T {
    fn invalidate_line(&mut self, addr: u64) -> bool {
        (**self).invalidate_line(addr)
    }
}

/// Processors a [`Directory`] can track: holder sets are one `u64` bit
/// per CPU. [`crate::trace::Characterizer::new`] rejects larger systems.
pub(crate) const MAX_CPUS: u32 = u64::BITS;

/// Tracks which processors hold which lines and broadcasts invalidations.
#[derive(Debug, Default)]
pub struct Directory {
    /// Line address → bitmask of holders (bit per CPU, up to [`MAX_CPUS`]).
    // Point-access only (entry/get/get_mut/remove, never iterated) on the
    // per-reference hot path, so hash order can never leak into sim state.
    // odb-analyzer: allow(unordered_iteration)
    holders: HashMap<u64, u64>,
    /// Total invalidation broadcasts performed.
    invalidations_sent: u64,
    /// When `false`, writes do not invalidate (ablation mode).
    enabled: bool,
}

impl Directory {
    /// Creates an enabled directory.
    pub fn new() -> Self {
        Self {
            // odb-analyzer: allow(unordered_iteration) — see field above
            holders: HashMap::new(),
            invalidations_sent: 0,
            enabled: true,
        }
    }

    /// Creates a directory with coherence disabled — an ablation that
    /// quantifies how much of the miss rate coherence is responsible for.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Whether invalidations are being performed.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Total invalidation messages sent so far.
    pub fn invalidations_sent(&self) -> u64 {
        self.invalidations_sent
    }

    /// Records that `cpu` now holds `line_addr` (after a fill).
    pub fn record_fill(&mut self, cpu: usize, line_addr: u64) {
        *self.holders.entry(line_addr).or_insert(0) |= 1 << cpu;
    }

    /// Records that `cpu` evicted `line_addr`.
    pub fn record_evict(&mut self, cpu: usize, line_addr: u64) {
        if let Some(mask) = self.holders.get_mut(&line_addr) {
            *mask &= !(1 << cpu);
            if *mask == 0 {
                self.holders.remove(&line_addr);
            }
        }
    }

    /// `true` when any processor other than `writer` holds `line_addr`.
    /// Cheap pre-check that lets callers skip assembling cache references
    /// for the overwhelmingly common unshared-write case.
    pub fn has_remote_holders(&self, writer: usize, line_addr: u64) -> bool {
        if !self.enabled {
            return false;
        }
        self.holders
            .get(&line_addr)
            .is_some_and(|mask| mask & !(1 << writer) != 0)
    }

    /// Handles a write by `writer` to `line_addr`: invalidates the line in
    /// every other holder's cache (a [`crate::hierarchy::CpuHierarchy`]
    /// flushes its inner levels too), where `caches[cpu]` is CPU `cpu`'s.
    /// Returns the number of remote copies invalidated. The hot path in
    /// `trace.rs` passes its hierarchy slice directly; a slice of
    /// references works as well.
    pub fn write<T: Invalidate>(
        &mut self,
        writer: usize,
        line_addr: u64,
        caches: &mut [T],
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let Some(mask) = self.holders.get_mut(&line_addr) else {
            return 0;
        };
        let others = *mask & !(1 << writer);
        if others == 0 {
            return 0;
        }
        let mut invalidated = 0;
        for (cpu, cache) in caches.iter_mut().enumerate() {
            if cpu != writer && others & (1 << cpu) != 0 && cache.invalidate_line(line_addr) {
                invalidated += 1;
                self.invalidations_sent += 1;
            }
        }
        *mask &= 1 << writer;
        if *mask == 0 {
            self.holders.remove(&line_addr);
        }
        invalidated
    }

    /// Number of lines with at least one holder (for tests/diagnostics).
    pub fn tracked_lines(&self) -> usize {
        self.holders.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odb_core::config::CacheGeometry;

    fn caches(n: usize) -> Vec<SetAssocCache> {
        (0..n)
            .map(|_| SetAssocCache::new(CacheGeometry::new(4096, 64, 2).unwrap()))
            .collect()
    }

    #[test]
    fn remote_write_invalidates_and_classifies() {
        let mut cs = caches(2);
        let mut dir = Directory::new();
        // CPU 0 reads line 0x1000.
        cs[0].access(0x1000, false);
        dir.record_fill(0, 0x1000);
        // CPU 1 writes the same line.
        cs[1].access(0x1000, true);
        dir.record_fill(1, 0x1000);
        let (a, b) = cs.split_at_mut(1);
        let inv = dir.write(1, 0x1000, &mut [&mut a[0], &mut b[0]]);
        assert_eq!(inv, 1);
        assert_eq!(dir.invalidations_sent(), 1);
        // CPU 0's next access is a coherence miss.
        match cs[0].access(0x1000, false) {
            crate::cache::Access::Miss {
                coherence: true, ..
            } => {}
            other => panic!("expected coherence miss, got {other:?}"),
        }
    }

    #[test]
    fn writer_keeps_its_own_copy() {
        let mut cs = caches(2);
        let mut dir = Directory::new();
        cs[0].access(0x2000, true);
        dir.record_fill(0, 0x2000);
        let (a, b) = cs.split_at_mut(1);
        let inv = dir.write(0, 0x2000, &mut [&mut a[0], &mut b[0]]);
        assert_eq!(inv, 0, "no remote holders");
        assert!(cs[0].contains(0x2000));
    }

    #[test]
    fn eviction_clears_directory_state() {
        let mut dir = Directory::new();
        dir.record_fill(0, 0x1000);
        dir.record_fill(1, 0x1000);
        assert_eq!(dir.tracked_lines(), 1);
        dir.record_evict(0, 0x1000);
        assert_eq!(dir.tracked_lines(), 1, "cpu1 still holds it");
        dir.record_evict(1, 0x1000);
        assert_eq!(dir.tracked_lines(), 0);
        // Evicting an untracked line is a no-op.
        dir.record_evict(1, 0xDEAD);
    }

    #[test]
    fn disabled_directory_never_invalidates() {
        let mut cs = caches(2);
        let mut dir = Directory::disabled();
        assert!(!dir.is_enabled());
        cs[0].access(0x1000, false);
        dir.record_fill(0, 0x1000);
        dir.record_fill(1, 0x1000);
        let (a, b) = cs.split_at_mut(1);
        let inv = dir.write(1, 0x1000, &mut [&mut a[0], &mut b[0]]);
        assert_eq!(inv, 0);
        assert!(cs[0].contains(0x1000), "line survives remote write");
        assert_eq!(dir.invalidations_sent(), 0);
    }

    #[test]
    fn four_way_sharing_invalidates_all_others() {
        let mut cs = caches(4);
        let mut dir = Directory::new();
        for (cpu, c) in cs.iter_mut().enumerate() {
            c.access(0x4000, false);
            dir.record_fill(cpu, 0x4000);
        }
        let mut refs: Vec<&mut SetAssocCache> = cs.iter_mut().collect();
        let inv = dir.write(2, 0x4000, &mut refs);
        assert_eq!(inv, 3);
        assert!(cs[2].contains(0x4000));
        for cpu in [0usize, 1, 3] {
            assert!(!cs[cpu].contains(0x4000), "cpu {cpu} invalidated");
        }
    }
}
