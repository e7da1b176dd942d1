//! Struct-of-arrays reference batching for the characterization hot path.
//!
//! The scalar path walks one reference at a time through
//! [`crate::hierarchy::CpuHierarchy`]; every access pays the full
//! per-level dispatch cost and the compiler can vectorize nothing. This
//! module supplies the batched alternative: the trace generator deposits
//! references into a [`RefBatch`] (separate struct-of-arrays columns for
//! code and data references, stitched together by a per-reference
//! sequence number), and `CpuHierarchy::access_batch` streams the whole
//! batch level by level — all TLB lookups, then all L1D probes, then the
//! merged L2 stream, then the L3 stream — as tight, data-parallel inner
//! loops over flat arrays.
//!
//! # The bit-exactness contract
//!
//! Batching reorders work *between* devices but never *within* one:
//! each cache or TLB still observes exactly the access sequence the
//! scalar walk would have issued to it, in the same order, because a
//! device's state depends only on its own access stream (each cache's
//! LRU clock counts only its own accesses, and replacement-policy RNG is
//! consumed only on that cache's fills). Coherence-directory actions are
//! not applied mid-walk; instead the hierarchy reports them as ordered
//! [`FillEvent`]/[`WriteEvent`] lists which the caller replays in
//! sequence-number order after the walk. That deferral is exact because
//! directory writes touch only the directory and *remote* caches
//! ([`crate::coherence::Directory::write`] never invalidates the
//! writer's own hierarchy), and remote caches execute no accesses of
//! their own until their next interleaving chunk — batches never span
//! the chunk boundary, which remains the coherence serialization point.
//!
//! The scalar walk survives as the oracle: randomized equivalence suites
//! in `cache.rs`, `hierarchy.rs` and `trace.rs` pin the batched kernels
//! to the scalar results event-for-event, so the `results/` drift gate
//! certifies the refactor instead of trusting it.

use crate::cache::AccessRow;
use crate::hierarchy::{L3Fill, Space};

/// Default number of references per batch.
///
/// Large enough that the per-level inner loops amortize their setup and
/// expose memory-level parallelism; small enough that a batch's scratch
/// stays resident in L1/L2 of the *host* machine.
pub const DEFAULT_BATCH_CAPACITY: usize = 256;

/// A fixed-capacity, struct-of-arrays buffer of memory references
/// awaiting a batched hierarchy walk.
///
/// Code and data references live in separate column families so each
/// pass touches only the fields it needs; `seq` columns record each
/// reference's position in the original interleaved stream, which is
/// what keeps the merged L2/L3 streams and the replayed coherence events
/// in scalar order.
///
/// ```
/// use odb_memsim::batch::RefBatch;
/// use odb_memsim::hierarchy::Space;
///
/// let mut b = RefBatch::with_capacity(4);
/// b.push_code(0x4000, Space::User);
/// b.push_data(0x8000, true, Space::User);
/// assert_eq!(b.len(), 2);
/// assert!(!b.is_full());
/// b.clear();
/// assert!(b.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RefBatch {
    capacity: usize,
    /// References pushed since the last [`RefBatch::clear`]; also the
    /// next sequence number.
    total: u32,
    pub(crate) code_addrs: Vec<u64>,
    pub(crate) code_space: Vec<Space>,
    pub(crate) code_seq: Vec<u32>,
    pub(crate) data_addrs: Vec<u64>,
    pub(crate) data_writes: Vec<bool>,
    pub(crate) data_space: Vec<Space>,
    pub(crate) data_seq: Vec<u32>,
}

impl RefBatch {
    /// An empty batch of [`DEFAULT_BATCH_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_BATCH_CAPACITY)
    }

    /// An empty batch holding at most `capacity` references (minimum 1).
    /// All columns are pre-sized; pushing never allocates.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            total: 0,
            code_addrs: Vec::with_capacity(capacity),
            code_space: Vec::with_capacity(capacity),
            code_seq: Vec::with_capacity(capacity),
            data_addrs: Vec::with_capacity(capacity),
            data_writes: Vec::with_capacity(capacity),
            data_space: Vec::with_capacity(capacity),
            data_seq: Vec::with_capacity(capacity),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// References currently buffered (code + data).
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// `true` when no references are buffered.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// `true` when the batch must be drained before the next push.
    pub fn is_full(&self) -> bool {
        self.total as usize >= self.capacity
    }

    /// Appends an instruction-fetch line reference.
    #[inline]
    pub fn push_code(&mut self, addr: u64, space: Space) {
        debug_assert!(!self.is_full(), "push into a full batch");
        self.code_addrs.push(addr);
        self.code_space.push(space);
        self.code_seq.push(self.total);
        self.total += 1;
    }

    /// Appends a data reference (`write` dirties the line).
    #[inline]
    pub fn push_data(&mut self, addr: u64, write: bool, space: Space) {
        debug_assert!(!self.is_full(), "push into a full batch");
        self.data_addrs.push(addr);
        self.data_writes.push(write);
        self.data_space.push(space);
        self.data_seq.push(self.total);
        self.total += 1;
    }

    /// Empties the batch, retaining column capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.total = 0;
        self.code_addrs.clear();
        self.code_space.clear();
        self.code_seq.clear();
        self.data_addrs.clear();
        self.data_writes.clear();
        self.data_space.clear();
        self.data_seq.clear();
    }
}

impl Default for RefBatch {
    fn default() -> Self {
        Self::new()
    }
}

/// An L3 fill produced by reference number `seq` of a batch — the
/// batched equivalent of [`crate::hierarchy::RefOutcome::l3_fill`],
/// tagged with its position so the caller can replay directory updates
/// in scalar order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillEvent {
    /// The reference's sequence number within its batch.
    pub seq: u32,
    /// The fill, identical to what the scalar walk would have reported.
    pub fill: L3Fill,
}

/// A line written by reference number `seq` of a batch — the batched
/// equivalent of [`crate::hierarchy::RefOutcome::wrote_line`]. The
/// caller must replay these (interleaved with [`FillEvent`]s by `seq`,
/// fills first on ties) through the coherence directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEvent {
    /// The reference's sequence number within its batch.
    pub seq: u32,
    /// Line-aligned address written, as the L3/directory sees it.
    pub line: u64,
}

/// Outputs and reusable scratch for one batched hierarchy walk.
///
/// Construct once and pass to every `CpuHierarchy::access_batch` call;
/// all interior vectors are recycled, so the steady-state walk performs
/// no heap allocation. The public surface is the two ordered event
/// lists; everything else is internal pass-to-pass plumbing.
#[derive(Debug, Default)]
pub struct BatchOutcomes {
    /// L3 fills in ascending `seq` order.
    pub(crate) fills: Vec<FillEvent>,
    /// Written lines in ascending `seq` order.
    pub(crate) writes: Vec<WriteEvent>,
    /// Per-access result rows of the most recent per-level pass.
    pub(crate) row_scratch: Vec<AccessRow>,
    /// Data-column indices that missed L1D.
    pub(crate) data_miss_idx: Vec<u32>,
    /// Code-column indices that missed the trace cache.
    pub(crate) code_miss_idx: Vec<u32>,
    /// All-`false` write flags for read-only (code) cache passes.
    pub(crate) no_writes: Vec<bool>,
    /// Merged L2 demand stream, in `seq` order. Without the L2
    /// prefetcher these columns are then compacted *in place* to the
    /// surviving L2 misses and fed straight to L3 — no copy into the
    /// `l3_*` columns.
    pub(crate) l2_addrs: Vec<u64>,
    pub(crate) l2_writes: Vec<bool>,
    pub(crate) l2_space: Vec<Space>,
    pub(crate) l2_seq: Vec<u32>,
    /// L3 stream (demand misses plus prefetch fills), in L2-pass order.
    /// Built only on the prefetch path, where one L2 miss can emit two
    /// L3 accesses and in-place reuse of the `l2_*` columns is
    /// impossible.
    pub(crate) l3_addrs: Vec<u64>,
    pub(crate) l3_writes: Vec<bool>,
    pub(crate) l3_space: Vec<Space>,
    pub(crate) l3_seq: Vec<u32>,
    pub(crate) l3_prefetch: Vec<bool>,
}

impl BatchOutcomes {
    /// Empty scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// L3 fills of the last walk, ascending by `seq`.
    pub fn fills(&self) -> &[FillEvent] {
        &self.fills
    }

    /// Written lines of the last walk, ascending by `seq`.
    pub fn writes(&self) -> &[WriteEvent] {
        &self.writes
    }

    /// Resets every output and scratch list (capacity retained).
    #[inline]
    pub fn clear(&mut self) {
        self.fills.clear();
        self.writes.clear();
        self.row_scratch.clear();
        self.data_miss_idx.clear();
        self.code_miss_idx.clear();
        self.l2_addrs.clear();
        self.l2_writes.clear();
        self.l2_space.clear();
        self.l2_seq.clear();
        self.l3_addrs.clear();
        self.l3_writes.clear();
        self.l3_space.clear();
        self.l3_seq.clear();
        self.l3_prefetch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_interleaves_sequence_numbers() {
        let mut b = RefBatch::with_capacity(8);
        b.push_code(0x100, Space::User);
        b.push_data(0x200, false, Space::User);
        b.push_data(0x300, true, Space::Os);
        b.push_code(0x400, Space::Os);
        assert_eq!(b.len(), 4);
        assert_eq!(b.code_seq, vec![0, 3]);
        assert_eq!(b.data_seq, vec![1, 2]);
        assert_eq!(b.data_writes, vec![false, true]);
        assert_eq!(b.code_space, vec![Space::User, Space::Os]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 8);
        // Sequence numbers restart after a clear.
        b.push_data(0x500, false, Space::User);
        assert_eq!(b.data_seq, vec![0]);
    }

    #[test]
    fn capacity_floor_is_one() {
        let b = RefBatch::with_capacity(0);
        assert_eq!(b.capacity(), 1);
        let mut b = RefBatch::with_capacity(1);
        assert!(!b.is_full());
        b.push_code(0, Space::User);
        assert!(b.is_full());
    }

    #[test]
    fn default_capacity_matches_constant() {
        assert_eq!(RefBatch::new().capacity(), DEFAULT_BATCH_CAPACITY);
        assert_eq!(RefBatch::default().capacity(), DEFAULT_BATCH_CAPACITY);
    }

    #[test]
    fn outcomes_clear_resets_events() {
        let mut out = BatchOutcomes::new();
        out.fills.push(FillEvent {
            seq: 1,
            fill: L3Fill {
                filled: 0x40,
                evicted: None,
                coherence: false,
            },
        });
        out.writes.push(WriteEvent { seq: 2, line: 0x80 });
        assert_eq!(out.fills().len(), 1);
        assert_eq!(out.writes().len(), 1);
        out.clear();
        assert!(out.fills().is_empty());
        assert!(out.writes().is_empty());
    }
}
