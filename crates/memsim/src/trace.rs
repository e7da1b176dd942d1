//! Structured synthetic trace generation and the multi-processor
//! characterization runner.
//!
//! The paper measures miss rates on live hardware; we regenerate them by
//! *sampled, execution-driven simulation*: a synthetic instruction/data
//! reference stream whose structure mirrors the ODB workload's —
//!
//! * a large, skewed **code** footprint (Oracle's instruction working set
//!   famously exceeds first-level instruction stores);
//! * per-process **stack/private** data with high locality;
//! * shared **SGA metadata** (latches, state objects) with a write
//!   fraction, the main source of coherence traffic;
//! * **buffer-header** arrays whose footprint grows with the database
//!   size until the buffer cache is exhausted;
//! * **database page data** supplied by the engine through
//!   [`DbRefSource`] — this is where warehouse-count dependence enters:
//!   the per-transaction page population grows with `W`, so
//!   inter-transaction reuse distance grows with `W` and the L3 MPI
//!   saturates past the point where the hot set exceeds L3 capacity;
//! * an interleaved **OS** stream whose share grows with I/O activity.
//!
//! Processes are rotated per the engine's context-switch-rate estimate, so
//! switch-induced cache pollution emerges naturally; the coherence
//! [`Directory`] connects the per-processor hierarchies.

use crate::batch::{BatchOutcomes, RefBatch};
use crate::coherence::Directory;
use crate::dist::Zipf;
use crate::hierarchy::{CpuHierarchy, HierarchyCounts, L3Fill, Space};
use crate::rates::{EventRates, SpaceRates};
use odb_core::config::SystemConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::time::Instant;

/// One database-data reference, as an offset into the shared buffer-cache
/// data region plus a write flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbRef {
    /// Byte offset within the database data region.
    pub offset: u64,
    /// `true` when the reference modifies the line.
    pub write: bool,
}

/// Supplies the database-data reference stream for one process.
///
/// The engine implements this with its transaction profiles (which tables
/// and pages each transaction type touches); tests can use
/// [`UniformDbSource`].
pub trait DbRefSource {
    /// Produces the next reference. Called once per sampled DB data
    /// reference; implementations advance their own transaction state.
    fn next_ref(&mut self, rng: &mut SmallRng) -> DbRef;
}

/// A synthetic source with page-level locality: picks pages uniformly
/// over a footprint, then emits several line references within each page
/// (as reading a row through a block does) before moving on.
#[derive(Debug, Clone)]
pub struct UniformDbSource {
    footprint_pages: u64,
    write_frac: f64,
    refs_per_page: u32,
    page_base: u64,
    left: u32,
}

/// Database block size used by the synthetic sources (8 KB, Oracle-like).
pub const DB_PAGE_BYTES: u64 = 8 << 10;

impl UniformDbSource {
    /// Uniform page selection over `footprint_bytes`, writing with
    /// probability `write_frac`, eight line references per page visit.
    pub fn new(footprint_bytes: u64, write_frac: f64) -> Self {
        Self {
            footprint_pages: (footprint_bytes / DB_PAGE_BYTES).max(1),
            write_frac,
            refs_per_page: 8,
            page_base: 0,
            left: 0,
        }
    }
}

impl DbRefSource for UniformDbSource {
    fn next_ref(&mut self, rng: &mut SmallRng) -> DbRef {
        if self.left == 0 {
            self.page_base = rng.gen_range(0..self.footprint_pages) * DB_PAGE_BYTES;
            self.left = self.refs_per_page;
        }
        self.left -= 1;
        DbRef {
            offset: self.page_base + rng.gen_range(0..DB_PAGE_BYTES / 64) * 64,
            write: rng.gen_bool(self.write_frac),
        }
    }
}

/// Fractions of user-space data references going to each stream; must sum
/// to 1 (validated by [`TraceParams::validate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataMix {
    /// Process-private stack and heap.
    pub stack: f64,
    /// Shared SGA metadata (latches, library cache, state objects).
    pub metadata: f64,
    /// Buffer-header array entries.
    pub buffer_header: f64,
    /// Database page data (via [`DbRefSource`]).
    pub db: f64,
}

/// Everything the trace generator needs to know about the workload's
/// memory behaviour. Constructed by the engine per configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParams {
    /// Hot user (database) code footprint in bytes.
    pub user_code_bytes: u64,
    /// Hot OS code footprint in bytes.
    pub os_code_bytes: u64,
    /// Per-instruction probability of a taken branch to a fresh code block.
    pub code_jump_prob: f64,
    /// Zipf exponent over code blocks (higher = tighter loops).
    pub code_zipf_s: f64,
    /// Data references per instruction.
    pub data_refs_per_instr: f64,
    /// Private stack/heap footprint per process, bytes.
    pub stack_bytes: u64,
    /// Write fraction for stack references.
    pub stack_write_frac: f64,
    /// Shared metadata footprint, bytes.
    pub metadata_bytes: u64,
    /// Write fraction for metadata references (drives coherence traffic).
    pub metadata_write_frac: f64,
    /// Write fraction for buffer-header references. Header mutations
    /// (touch counts, pin state) are rare relative to reads, and every
    /// one is a potential cross-processor invalidation.
    pub buffer_header_write_frac: f64,
    /// Buffer-header array footprint, bytes (64 B per cached page; grows
    /// with `W` until the buffer cache is full).
    pub buffer_header_bytes: u64,
    /// User-space data reference mix.
    pub mix: DataMix,
    /// Kernel data footprint, bytes.
    pub os_data_bytes: u64,
    /// Write fraction for kernel data references.
    pub os_write_frac: f64,
    /// Fraction of all instructions executed in OS space.
    pub os_fraction: f64,
    /// Length of one OS burst (syscall/interrupt path), instructions.
    pub os_burst_len: u64,
    /// Instructions between context switches on one CPU.
    pub instrs_per_context_switch: u64,
    /// Concurrent processes multiplexed on each CPU.
    pub processes_per_cpu: usize,
    /// Database write fraction forwarded to coherence accounting.
    pub db_write_frac: f64,
    /// Mean consecutive references to one sampled stack location (real
    /// streams dwell: a spilled register is reloaded, a local is reused).
    pub stack_dwell: u32,
    /// Mean dwell on a metadata location.
    pub metadata_dwell: u32,
    /// Mean dwell on a buffer-header entry.
    pub buffer_header_dwell: u32,
    /// Mean dwell on a database data line (column accesses within a row).
    pub db_dwell: u32,
    /// Mean dwell on a kernel data location.
    pub os_dwell: u32,
    /// Fraction of kernel data references that hit per-CPU structures
    /// (run queues, per-CPU slabs) rather than shared kernel state.
    pub os_percpu_frac: f64,
    /// Branch mispredictions per user instruction (flat across `W`, §5.1.1).
    pub user_branch_mispred: f64,
    /// Branch mispredictions per OS instruction.
    pub os_branch_mispred: f64,
    /// Residual user stall CPI (the "Other" component's floor).
    pub user_other_stall_cpi: f64,
    /// Residual OS stall CPI.
    pub os_other_stall_cpi: f64,
}

impl Default for TraceParams {
    /// Defaults tuned for the ODB-on-Xeon workload; the engine overrides
    /// the configuration-dependent fields (`buffer_header_bytes`,
    /// `os_fraction`, `instrs_per_context_switch`, `processes_per_cpu`).
    fn default() -> Self {
        Self {
            user_code_bytes: 1536 << 10,
            os_code_bytes: 256 << 10,
            code_jump_prob: 1.0 / 14.0,
            code_zipf_s: 1.5,
            data_refs_per_instr: 0.35,
            stack_bytes: 48 << 10,
            stack_write_frac: 0.3,
            metadata_bytes: 512 << 10,
            metadata_write_frac: 0.0015,
            buffer_header_write_frac: 0.002,
            buffer_header_bytes: 2 << 20,
            mix: DataMix {
                stack: 0.62,
                metadata: 0.10,
                buffer_header: 0.04,
                db: 0.24,
            },
            os_data_bytes: 128 << 10,
            os_write_frac: 0.08,
            os_fraction: 0.12,
            os_burst_len: 1_200,
            instrs_per_context_switch: 150_000,
            processes_per_cpu: 4,
            db_write_frac: 0.18,
            stack_dwell: 10,
            metadata_dwell: 6,
            buffer_header_dwell: 3,
            db_dwell: 8,
            os_dwell: 8,
            os_percpu_frac: 0.8,
            user_branch_mispred: 0.0040,
            os_branch_mispred: 0.0050,
            user_other_stall_cpi: 0.30,
            os_other_stall_cpi: 0.20,
        }
    }
}

impl TraceParams {
    /// Validates ranges and that the data mix sums to one.
    ///
    /// # Errors
    ///
    /// Returns [`odb_core::Error::InvalidConfig`] naming the bad field.
    pub fn validate(&self) -> Result<(), odb_core::Error> {
        let mix_sum = self.mix.stack + self.mix.metadata + self.mix.buffer_header + self.mix.db;
        if (mix_sum - 1.0).abs() > 1e-6 {
            return Err(odb_core::Error::InvalidConfig {
                field: "mix",
                reason: format!("data mix sums to {mix_sum}, expected 1.0"),
            });
        }
        for (field, v) in [
            ("code_jump_prob", self.code_jump_prob),
            ("data_refs_per_instr", self.data_refs_per_instr),
            ("os_fraction", self.os_fraction),
            ("metadata_write_frac", self.metadata_write_frac),
            ("buffer_header_write_frac", self.buffer_header_write_frac),
            ("stack_write_frac", self.stack_write_frac),
            ("os_write_frac", self.os_write_frac),
            ("db_write_frac", self.db_write_frac),
            ("os_percpu_frac", self.os_percpu_frac),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(odb_core::Error::InvalidConfig {
                    field,
                    reason: format!("{v} must lie in [0, 1]"),
                });
            }
        }
        if self.processes_per_cpu == 0 {
            return Err(odb_core::Error::InvalidConfig {
                field: "processes_per_cpu",
                reason: "must be nonzero".to_owned(),
            });
        }
        if self.instrs_per_context_switch == 0 {
            return Err(odb_core::Error::InvalidConfig {
                field: "instrs_per_context_switch",
                reason: "must be nonzero".to_owned(),
            });
        }
        for (field, v) in [
            ("stack_dwell", self.stack_dwell),
            ("metadata_dwell", self.metadata_dwell),
            ("buffer_header_dwell", self.buffer_header_dwell),
            ("db_dwell", self.db_dwell),
            ("os_dwell", self.os_dwell),
        ] {
            if v == 0 {
                return Err(odb_core::Error::InvalidConfig {
                    field,
                    reason: "dwell must be at least 1".to_owned(),
                });
            }
        }
        Ok(())
    }
}

// Region base addresses, spread across a 48-bit space so regions never
// collide; the odd low bits de-align region starts across cache sets.
const USER_CODE_BASE: u64 = 0x0000_4000_0000;
const OS_CODE_BASE: u64 = 0x0100_4A00_0000;
const METADATA_BASE: u64 = 0x0200_5340_0000;
const BUFHDR_BASE: u64 = 0x0300_60C0_0000;
const OS_DATA_BASE: u64 = 0x0400_7500_0000;
const OS_PERCPU_BASE: u64 = 0x0480_1180_0000;
const OS_PERCPU_STRIDE: u64 = 1 << 21;
const STACK_BASE: u64 = 0x0500_0000_0000;
const STACK_STRIDE: u64 = 1 << 21;
const DB_BASE: u64 = 0x1000_0000_0000;

/// Code blocks are 256 B: a handful of basic blocks.
const CODE_BLOCK: u64 = 256;
/// Cache-line granularity of data sampling.
const LINE: u64 = 64;

/// Aggregate result of one characterization run.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    /// Per-instruction event rates for each space (the engine's input).
    pub rates: EventRates,
    /// Raw user-space counts summed over all processors.
    pub user_counts: HierarchyCounts,
    /// Raw OS-space counts summed over all processors.
    pub os_counts: HierarchyCounts,
    /// Coherence invalidations broadcast during measurement.
    pub coherence_invalidations: u64,
    /// Instructions simulated during measurement (all CPUs, both spaces).
    pub instructions: u64,
}

impl Characterization {
    /// Overall L3 misses per instruction across both spaces.
    pub fn mpi(&self) -> f64 {
        let instr = self.user_counts.instructions + self.os_counts.instructions;
        if instr == 0 {
            return 0.0;
        }
        (self.user_counts.l3_misses + self.os_counts.l3_misses) as f64 / instr as f64
    }

    /// Fraction of L3 misses that were coherence misses (the paper finds
    /// this negligible on its machine).
    pub fn coherence_miss_fraction(&self) -> f64 {
        let misses = self.user_counts.l3_misses + self.os_counts.l3_misses;
        if misses == 0 {
            return 0.0;
        }
        (self.user_counts.l3_coherence_misses + self.os_counts.l3_coherence_misses) as f64
            / misses as f64
    }
}

/// An in-progress dwell on one data line: the stream re-references the
/// same line `left` more times before sampling a fresh location.
#[derive(Debug, Clone, Copy, Default)]
struct DataRun {
    line_base: u64,
    left: u32,
    write_frac: f64,
}

/// Per-process stream state.
struct ProcessState<S> {
    /// Global process id (determines its private stack region).
    pid: usize,
    user_code_cursor: u64,
    db_source: S,
    run: DataRun,
}

/// Per-CPU interleaving state.
struct CpuState {
    current: usize,
    until_switch: u64,
    os_remaining: u64,
    user_since_burst: u64,
    os_code_cursor: u64,
    os_run: DataRun,
    rng: SmallRng,
}

/// Draws a dwell length with the given mean: uniform over
/// `1..=2×mean − 1`, cheap and mean-exact.
fn draw_dwell(rng: &mut SmallRng, mean: u32) -> u32 {
    if mean <= 1 {
        1
    } else {
        rng.gen_range(1..=2 * mean - 1)
    }
}

/// Continues a dwell (same line, fresh offset) or reports exhaustion.
fn continue_run(run: &mut DataRun, rng: &mut SmallRng) -> Option<(u64, bool)> {
    if run.left == 0 {
        return None;
    }
    run.left -= 1;
    let offset = rng.gen_range(0..8u64) * 8;
    Some((run.line_base + offset, rng.gen_bool(run.write_frac)))
}

/// One generated (not yet simulated) reference, in generation order.
#[derive(Clone, Copy)]
struct StagedRef {
    addr: u64,
    write: bool,
    /// Instruction fetch (`true`) vs data reference.
    code: bool,
    space: Space,
}

/// One CPU's staged chunk: its references in generation order plus the
/// per-space retire counts. Produced by a worker between coherence
/// epochs, replayed serially at the epoch boundary. The buffer is
/// caller-owned scratch: cleared, never shrunk, so the steady state
/// allocates nothing.
#[derive(Default)]
struct StagedChunk {
    refs: Vec<StagedRef>,
    retired_user: u64,
    retired_os: u64,
}

/// Destination for generated references. The serial path drains into the
/// shared [`RefBatch`] as it goes; the parallel path stages into a
/// per-CPU buffer replayed later in CPU index order. Both run the *same*
/// generation loop ([`GenCtx::run_chunk_into`]), so the paths cannot
/// drift.
trait RefSink {
    /// An instruction-fetch line reference.
    fn code(&mut self, addr: u64, space: Space);
    /// A data reference.
    fn data(&mut self, addr: u64, write: bool, space: Space);
}

/// Stages into a per-CPU buffer (the parallel phase-A sink).
struct StageSink<'a> {
    refs: &'a mut Vec<StagedRef>,
}

impl RefSink for StageSink<'_> {
    fn code(&mut self, addr: u64, space: Space) {
        self.refs.push(StagedRef {
            addr,
            write: false,
            code: true,
            space,
        });
    }

    fn data(&mut self, addr: u64, write: bool, space: Space) {
        self.refs.push(StagedRef {
            addr,
            write,
            code: false,
            space,
        });
    }
}

/// Pushes straight into the shared [`RefBatch`], draining through the
/// hierarchy kernels whenever it fills — the serial path, and the exact
/// push/drain sequence the parallel replay reproduces.
struct DrainSink<'a> {
    ch: &'a Characterizer,
    cpu: usize,
    hierarchies: &'a mut [CpuHierarchy],
    directory: &'a mut Directory,
    batch: &'a mut RefBatch,
    out: &'a mut BatchOutcomes,
    phase_started: &'a mut Instant,
}

impl RefSink for DrainSink<'_> {
    fn code(&mut self, addr: u64, space: Space) {
        if self.batch.is_full() {
            self.ch.drain_batch(
                self.cpu,
                self.hierarchies,
                self.directory,
                self.batch,
                self.out,
                self.phase_started,
            );
        }
        self.batch.push_code(addr, space);
    }

    fn data(&mut self, addr: u64, write: bool, space: Space) {
        if self.batch.is_full() {
            self.ch.drain_batch(
                self.cpu,
                self.hierarchies,
                self.directory,
                self.batch,
                self.out,
                self.phase_started,
            );
        }
        self.batch.push_data(addr, write, space);
    }
}

/// Tests only: walks each reference through `fetch_code`/`access_data`
/// and applies its coherence outcome at once — the per-reference oracle
/// the batched walk plus ordered replay must equal.
#[cfg(test)]
struct OracleSink<'a> {
    cpu: usize,
    hierarchies: &'a mut [CpuHierarchy],
    directory: &'a mut Directory,
}

#[cfg(test)]
impl RefSink for OracleSink<'_> {
    fn code(&mut self, addr: u64, space: Space) {
        let outcome = self.hierarchies[self.cpu].fetch_code(addr, space);
        if let Some(fill) = outcome.l3_fill {
            replay_fill(self.cpu, fill, self.directory);
        }
    }

    fn data(&mut self, addr: u64, write: bool, space: Space) {
        let outcome = self.hierarchies[self.cpu].access_data(addr, write, space);
        if let Some(fill) = outcome.l3_fill {
            replay_fill(self.cpu, fill, self.directory);
        }
        if let Some(line) = outcome.wrote_line {
            replay_write(self.cpu, line, self.hierarchies, self.directory);
        }
    }
}

/// The `Sync` slice of the characterizer that reference *generation*
/// reads — the workload parameters plus the derived burst spacing.
/// Worker threads share copies of this; the `Cell`-based timing fields
/// (which make [`Characterizer`] `!Sync`) stay behind on the
/// characterizer, which is why generation is not a method on `&self`.
#[derive(Clone, Copy)]
struct GenCtx<'a> {
    params: &'a TraceParams,
    user_between_bursts: u64,
}

/// The multi-processor characterization runner.
///
/// Simulates `P` processor hierarchies round-robin in fine-grained chunks,
/// multiplexing `processes_per_cpu` process streams on each, with a
/// write-invalidate directory between them, and reduces the result to
/// [`EventRates`].
pub struct Characterizer {
    params: TraceParams,
    system: SystemConfig,
    /// Interleaving granularity in instructions.
    chunk: u64,
    /// Instructions of user execution between OS bursts yielding the
    /// configured OS share — `burst_len × (1 − f) / f`, precomputed once
    /// so the per-chunk path does no float work.
    user_between_bursts: u64,
    /// L3 replacement policy (LRU unless exploring §7 schemes).
    l3_policy: crate::policy::ReplacementPolicy,
    /// Last-level-cache organization (private per core, or one shared —
    /// the CMP what-if of the paper's introduction).
    shared_l3: bool,
    /// Next-line L2 prefetching (off on the paper's machine).
    l2_prefetch: bool,
    /// References per [`RefBatch`] in the generate/drain loop.
    batch_capacity: usize,
    /// Worker threads for chunk *generation* between coherence epochs
    /// (1 = fully serial). Bit-neutral either way: the hierarchy walk
    /// and directory replay stay serialized in CPU index order.
    within_point_jobs: usize,
    /// Wall-clock seconds spent generating references (between drains).
    /// `Cell` because the run path takes `&self`; timing is diagnostic
    /// only and never feeds back into simulation state.
    refill_seconds: Cell<f64>,
    /// Wall-clock seconds spent in batched hierarchy kernels and
    /// coherence-event replay.
    kernel_seconds: Cell<f64>,
    /// Tests only: route every chunk through the scalar reference walk so
    /// equivalence suites can pin the batched path against it.
    #[cfg(test)]
    scalar_oracle: bool,
}

/// Wall-clock split of the characterization loop (see
/// [`Characterizer::phase_split`]). Diagnostic only: the split is never
/// serialized into sweep artifacts, so it cannot perturb replay or the
/// drift gate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CharacterizePhaseSplit {
    /// Seconds spent generating references and refilling batches (RNG
    /// draws, cursor walks, dwell bookkeeping).
    pub refill_seconds: f64,
    /// Seconds spent in the batched hierarchy kernels plus ordered
    /// coherence-event replay.
    pub kernel_seconds: f64,
}

impl Characterizer {
    /// Creates a runner for the given machine and workload description.
    ///
    /// # Errors
    ///
    /// Returns [`odb_core::Error::InvalidConfig`] when either fails
    /// validation, or when the system has more processors than the
    /// coherence directory can track (64).
    pub fn new(system: SystemConfig, params: TraceParams) -> Result<Self, odb_core::Error> {
        system.validate()?;
        params.validate()?;
        if system.processors > crate::coherence::MAX_CPUS {
            return Err(odb_core::Error::InvalidConfig {
                field: "processors",
                reason: format!(
                    "the coherence directory tracks at most {} processors, got {}",
                    crate::coherence::MAX_CPUS,
                    system.processors
                ),
            });
        }
        let user_between_bursts = if params.os_fraction > 0.0 && params.os_fraction < 1.0 {
            (params.os_burst_len as f64 * (1.0 - params.os_fraction) / params.os_fraction) as u64
        } else {
            u64::MAX
        };
        Ok(Self {
            params,
            system,
            chunk: 20_000,
            user_between_bursts,
            l3_policy: crate::policy::ReplacementPolicy::Lru,
            shared_l3: false,
            l2_prefetch: false,
            batch_capacity: crate::batch::DEFAULT_BATCH_CAPACITY,
            within_point_jobs: 1,
            refill_seconds: Cell::new(0.0),
            kernel_seconds: Cell::new(0.0),
            #[cfg(test)]
            scalar_oracle: false,
        })
    }

    /// Returns a copy using `policy` for every processor's L3.
    #[must_use]
    pub fn with_l3_policy(mut self, policy: crate::policy::ReplacementPolicy) -> Self {
        self.l3_policy = policy;
        self
    }

    /// Returns a copy with next-line L2 prefetching enabled on every
    /// processor.
    #[must_use]
    pub fn with_l2_prefetch(mut self) -> Self {
        self.l2_prefetch = true;
        self
    }

    /// Returns a copy where all processors share one L3 of the system's
    /// configured geometry — a single-die CMP organization. Shared-L3
    /// runs need no inter-cache coherence, so any directory passed to
    /// [`Characterizer::run_with_directory`] is ignored.
    #[must_use]
    pub fn with_shared_l3(mut self) -> Self {
        self.shared_l3 = true;
        self
    }

    /// Tests only: returns a copy using batches of `capacity` references
    /// (minimum 1) in the generate/drain loop instead of
    /// [`crate::batch::DEFAULT_BATCH_CAPACITY`]; results are identical
    /// for every capacity (pinned by the `batch_capacity_is_immaterial`
    /// test).
    #[cfg(test)]
    #[must_use]
    fn with_batch_capacity(mut self, capacity: usize) -> Self {
        self.batch_capacity = capacity.max(1);
        self
    }

    /// Returns a copy that generates per-CPU reference chunks on up to
    /// `jobs` scoped worker threads (minimum 1) between coherence
    /// epochs. Results are bit-identical for every value — generation
    /// never reads cache state, each CPU's RNG and cursors are private,
    /// and the hierarchy/directory walk stays serialized in CPU index
    /// order (pinned by the `within_point_jobs_is_bit_neutral` suite) —
    /// only throughput changes.
    #[must_use]
    pub fn with_within_point_jobs(mut self, jobs: usize) -> Self {
        self.within_point_jobs = jobs.max(1);
        self
    }

    /// Tests only: run every chunk through the scalar per-reference walk
    /// instead of the batched kernels, making this characterizer the
    /// oracle for scalar/batched equivalence suites.
    #[cfg(test)]
    #[must_use]
    fn with_scalar_oracle(mut self) -> Self {
        self.scalar_oracle = true;
        self
    }

    /// Wall-clock split of time spent inside this characterizer's run
    /// calls so far: batch refill (trace generation) vs hierarchy
    /// kernels + coherence replay. Accumulates across rounds; diagnostic
    /// only.
    pub fn phase_split(&self) -> CharacterizePhaseSplit {
        CharacterizePhaseSplit {
            refill_seconds: self.refill_seconds.get(),
            kernel_seconds: self.kernel_seconds.get(),
        }
    }

    /// The workload parameters in use.
    pub fn params(&self) -> &TraceParams {
        &self.params
    }

    /// Runs warm-up then measurement, returning the reduced rates.
    ///
    /// `make_source` is called once per process (`P × processes_per_cpu`
    /// times) with the global process id. `measure_instructions` counts
    /// per CPU; warm-up runs `warmup_instructions` per CPU first, then all
    /// statistics are reset without disturbing cache state.
    ///
    /// # Errors
    ///
    /// Returns [`odb_core::Error::InvalidConfig`] if the system
    /// configuration describes an unbuildable cache stack or sampler.
    pub fn run<S, F>(
        &self,
        mut make_source: F,
        seed: u64,
        warmup_instructions: u64,
        measure_instructions: u64,
    ) -> Result<Characterization, odb_core::Error>
    where
        S: DbRefSource + Send,
        F: FnMut(usize) -> S,
    {
        self.run_with_directory(
            &mut Directory::new(),
            &mut make_source,
            seed,
            warmup_instructions,
            measure_instructions,
        )
    }

    /// Like [`Characterizer::run`], but with a caller-supplied directory —
    /// pass [`Directory::disabled`] for the coherence ablation.
    ///
    /// # Errors
    ///
    /// Returns [`odb_core::Error::InvalidConfig`] as for
    /// [`Characterizer::run`].
    pub fn run_with_directory<S, F>(
        &self,
        directory: &mut Directory,
        make_source: &mut F,
        seed: u64,
        warmup_instructions: u64,
        measure_instructions: u64,
    ) -> Result<Characterization, odb_core::Error>
    where
        S: DbRefSource + Send,
        F: FnMut(usize) -> S,
    {
        let p = self.system.processors as usize;
        let ppc = self.params.processes_per_cpu;
        let mut hierarchies: Vec<CpuHierarchy> = if self.shared_l3 {
            let l3 = std::rc::Rc::new(std::cell::RefCell::new(
                crate::cache::SetAssocCache::with_policy(self.system.l3, self.l3_policy),
            ));
            (0..p)
                .map(|_| CpuHierarchy::with_shared_l3(&self.system, l3.clone()))
                .collect::<Result<_, _>>()?
        } else {
            (0..p)
                .map(|_| CpuHierarchy::with_l3_policy(&self.system, self.l3_policy))
                .collect::<Result<_, _>>()?
        };
        if self.l2_prefetch {
            for h in &mut hierarchies {
                h.enable_l2_prefetch();
            }
        }
        // A shared physical L3 has nothing to keep coherent at that
        // level; neutralize the directory so invalidations cannot evict
        // the single copy both writers and readers use.
        let mut disabled_dir = Directory::disabled();
        let directory: &mut Directory = if self.shared_l3 {
            &mut disabled_dir
        } else {
            directory
        };
        // One flat, pre-sized table (`ppc` consecutive slots per CPU):
        // the per-chunk path slices into it instead of chasing a nested
        // `Vec<Vec<…>>`.
        let mut processes: Vec<ProcessState<S>> = Vec::with_capacity(p * ppc);
        for pid in 0..p * ppc {
            processes.push(ProcessState {
                pid,
                user_code_cursor: USER_CODE_BASE
                    + (pid as u64 * 4096) % self.params.user_code_bytes.max(4096),
                db_source: make_source(pid),
                run: DataRun::default(),
            });
        }
        let mut cpus: Vec<CpuState> = (0..p)
            .map(|cpu| CpuState {
                current: 0,
                until_switch: self.params.instrs_per_context_switch,
                os_remaining: 0,
                user_since_burst: 0,
                os_code_cursor: OS_CODE_BASE,
                os_run: DataRun::default(),
                rng: SmallRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64
                    .wrapping_mul(cpu as u64 + 1))),
            })
            .collect();

        let samplers = Samplers::new(&self.params)?;
        // Scratch for interleave's per-CPU countdown, allocated once for
        // both phases.
        let mut remaining = vec![0u64; p];
        // One reference batch + outcome scratch shared by every CPU and
        // both phases: a chunk always drains its batch completely before
        // the next CPU runs, so one buffer suffices and the steady-state
        // loop never allocates.
        let mut batch = RefBatch::with_capacity(self.batch_capacity);
        let mut out = BatchOutcomes::new();
        // Per-CPU staging buffers for the parallel generation path; the
        // Vecs start empty and are never touched when
        // `within_point_jobs == 1`.
        let mut staged: Vec<StagedChunk> = (0..p).map(|_| StagedChunk::default()).collect();
        // The wall-clock split is diagnostic only; nothing simulated
        // ever reads it.
        // odb-analyzer: allow(ambient_nondeterminism) — diagnostic timing.
        let mut phase_started = Instant::now();

        // Warm-up: identical loop, stats discarded afterwards.
        self.interleave(
            warmup_instructions,
            &mut hierarchies,
            &mut processes,
            &mut cpus,
            directory,
            &samplers,
            &mut remaining,
            &mut staged,
            &mut batch,
            &mut out,
            &mut phase_started,
        );
        for h in &mut hierarchies {
            h.reset_counts();
        }
        let inval_before = directory.invalidations_sent();

        self.interleave(
            measure_instructions,
            &mut hierarchies,
            &mut processes,
            &mut cpus,
            directory,
            &samplers,
            &mut remaining,
            &mut staged,
            &mut batch,
            &mut out,
            &mut phase_started,
        );

        let mut user = HierarchyCounts::default();
        let mut os = HierarchyCounts::default();
        for h in &hierarchies {
            user.accumulate(h.counts(Space::User));
            os.accumulate(h.counts(Space::Os));
        }
        let fallback = SpaceRates {
            tc_miss: 0.0,
            l2_miss: 0.0,
            l3_miss: 0.0,
            l3_coherence_miss: 0.0,
            l3_writeback: 0.0,
            tlb_miss: 0.0,
            branch_mispred: 0.0,
            other_stall_cpi: 0.0,
        };
        let rates = EventRates {
            user: SpaceRates::from_counts(
                &user,
                self.params.user_branch_mispred,
                self.params.user_other_stall_cpi,
            )
            .unwrap_or(fallback),
            os: SpaceRates::from_counts(
                &os,
                self.params.os_branch_mispred,
                self.params.os_other_stall_cpi,
            )
            .unwrap_or(fallback),
        };
        Ok(Characterization {
            rates,
            coherence_invalidations: directory.invalidations_sent() - inval_before,
            instructions: user.instructions + os.instructions,
            user_counts: user,
            os_counts: os,
        })
    }

    /// Runs `instructions` per CPU, interleaved in chunks for coherence
    /// fidelity. `remaining` and `staged` are caller-owned scratch (one
    /// slot per CPU) so repeated phases reuse the allocations.
    ///
    /// With `within_point_jobs > 1`, each round's chunk *generation*
    /// runs on scoped worker threads (phase A) while the hierarchy walks
    /// replay serially in CPU index order (phase B) — see
    /// `run_round_parallel` for the bit-exactness argument.
    #[allow(clippy::too_many_arguments)]
    fn interleave<S: DbRefSource + Send>(
        &self,
        instructions: u64,
        hierarchies: &mut [CpuHierarchy],
        processes: &mut [ProcessState<S>],
        cpus: &mut [CpuState],
        directory: &mut Directory,
        samplers: &Samplers,
        remaining: &mut [u64],
        staged: &mut [StagedChunk],
        batch: &mut RefBatch,
        out: &mut BatchOutcomes,
        phase_started: &mut Instant,
    ) {
        let ppc = self.params.processes_per_cpu;
        let workers = self.within_point_jobs.min(cpus.len());
        // The scalar oracle walks per reference and is inherently serial
        // per chunk; route it through the serial loop regardless.
        #[cfg(test)]
        let workers = if self.scalar_oracle { 1 } else { workers };
        remaining.fill(instructions);
        loop {
            let progressed = if workers > 1 {
                self.run_round_parallel(
                    workers,
                    hierarchies,
                    processes,
                    cpus,
                    directory,
                    samplers,
                    remaining,
                    staged,
                    batch,
                    out,
                    phase_started,
                )
            } else {
                let mut any = false;
                for cpu in 0..cpus.len() {
                    if remaining[cpu] == 0 {
                        continue;
                    }
                    let n = remaining[cpu].min(self.chunk);
                    remaining[cpu] -= n;
                    any = true;
                    self.run_chunk(
                        cpu,
                        n,
                        hierarchies,
                        &mut processes[cpu * ppc..(cpu + 1) * ppc],
                        &mut cpus[cpu],
                        directory,
                        samplers,
                        batch,
                        out,
                        phase_started,
                    );
                }
                any
            };
            if !progressed {
                break;
            }
        }
    }

    /// One parallel round: generate each active CPU's chunk on the
    /// bounded worker pool (phase A), then replay the staged chunks
    /// serially in CPU index order (phase B). Returns whether any CPU
    /// still had work.
    ///
    /// Bit-exactness argument, leaning on the documented generation
    /// contract (generation never reads cache state):
    /// * each worker owns a disjoint `(CpuState, process slice, staging
    ///   buffer)` triple, so every CPU's RNG stream, code cursors and
    ///   dwell state advance exactly as in the serial loop;
    /// * hierarchies and the directory are untouched in phase A, so
    ///   generating CPU k's chunk before CPU 0 has drained changes
    ///   nothing CPU k's generation reads;
    /// * phase B applies the identical push/drain sequence in the
    ///   identical CPU order as the serial loop, so the chunk boundary
    ///   remains the coherence epoch.
    ///
    /// The `within_point_jobs_is_bit_neutral` suite pins this against
    /// both the serial path and the scalar oracle.
    ///
    /// Per-round bookkeeping below allocates two small worklist `Vec`s;
    /// a round spans `chunk` (20 000) instructions per active CPU, so
    /// this is far off the per-reference hot path the `hot_path_alloc`
    /// lint audits.
    #[allow(clippy::too_many_arguments)]
    fn run_round_parallel<S: DbRefSource + Send>(
        &self,
        workers: usize,
        hierarchies: &mut [CpuHierarchy],
        processes: &mut [ProcessState<S>],
        cpus: &mut [CpuState],
        directory: &mut Directory,
        samplers: &Samplers,
        remaining: &mut [u64],
        staged: &mut [StagedChunk],
        batch: &mut RefBatch,
        out: &mut BatchOutcomes,
        phase_started: &mut Instant,
    ) -> bool {
        let ppc = self.params.processes_per_cpu;
        let ctx = GenCtx {
            params: &self.params,
            user_between_bursts: self.user_between_bursts,
        };
        type Item<'i, S> = (
            usize,
            u64,
            &'i mut CpuState,
            &'i mut [ProcessState<S>],
            &'i mut StagedChunk,
        );
        let mut items: Vec<Item<'_, S>> = Vec::with_capacity(cpus.len());
        for (cpu, ((state, procs), stage)) in cpus
            .iter_mut()
            .zip(processes.chunks_mut(ppc))
            .zip(staged.iter_mut())
            .enumerate()
        {
            if remaining[cpu] == 0 {
                continue;
            }
            let n = remaining[cpu].min(self.chunk);
            remaining[cpu] -= n;
            items.push((cpu, n, state, procs, stage));
        }
        if items.is_empty() {
            return false;
        }
        let active: Vec<usize> = items.iter().map(|item| item.0).collect();
        // Deterministic static assignment: CPU index modulo pool width.
        // (Any assignment would do — workers share nothing — but a fixed
        // one keeps scheduling noise out of profiles.)
        let mut buckets: Vec<Vec<Item<'_, S>>> = (0..workers).map(|_| Vec::new()).collect();
        for item in items {
            let slot = item.0 % workers;
            buckets[slot].push(item);
        }
        std::thread::scope(|scope| {
            for bucket in buckets {
                if bucket.is_empty() {
                    continue;
                }
                scope.spawn(move || {
                    for (cpu, n, state, procs, stage) in bucket {
                        stage.refs.clear();
                        let mut sink = StageSink {
                            refs: &mut stage.refs,
                        };
                        let (retired_user, retired_os) =
                            ctx.run_chunk_into(cpu, n, procs, state, samplers, &mut sink);
                        stage.retired_user = retired_user;
                        stage.retired_os = retired_os;
                    }
                });
            }
        });
        for &cpu in &active {
            self.replay_chunk(
                cpu,
                &staged[cpu],
                hierarchies,
                directory,
                batch,
                out,
                phase_started,
            );
        }
        true
    }

    /// Replays one staged chunk through the shared batch exactly as the
    /// serial drain path would have: push in generation order, drain
    /// whenever the batch fills and once more at the chunk end (the
    /// coherence epoch), then retire the chunk's instructions.
    #[allow(clippy::too_many_arguments)]
    fn replay_chunk(
        &self,
        cpu: usize,
        staged: &StagedChunk,
        hierarchies: &mut [CpuHierarchy],
        directory: &mut Directory,
        batch: &mut RefBatch,
        out: &mut BatchOutcomes,
        phase_started: &mut Instant,
    ) {
        for r in &staged.refs {
            if batch.is_full() {
                self.drain_batch(cpu, hierarchies, directory, batch, out, phase_started);
            }
            if r.code {
                batch.push_code(r.addr, r.space);
            } else {
                batch.push_data(r.addr, r.write, r.space);
            }
        }
        self.drain_batch(cpu, hierarchies, directory, batch, out, phase_started);
        hierarchies[cpu].retire_instructions(staged.retired_user, Space::User);
        hierarchies[cpu].retire_instructions(staged.retired_os, Space::Os);
    }

    /// Generates one interleaving chunk of references and streams them
    /// through the hierarchy in batches.
    ///
    /// Generation (RNG draws, code cursors, dwell state) never reads
    /// cache state, so a whole batch can be produced before any of it is
    /// simulated; the batch drains through the level-wise kernels
    /// whenever it fills and once more at chunk end, so batches never
    /// span the chunk boundary — the coherence serialization point
    /// between CPUs. Bit-exact with the per-reference walk of
    /// `OracleSink` (the `scalar_oracle` test hook routes there).
    #[allow(clippy::too_many_arguments)]
    fn run_chunk<S: DbRefSource>(
        &self,
        cpu: usize,
        instructions: u64,
        hierarchies: &mut [CpuHierarchy],
        procs: &mut [ProcessState<S>],
        state: &mut CpuState,
        directory: &mut Directory,
        samplers: &Samplers,
        batch: &mut RefBatch,
        out: &mut BatchOutcomes,
        phase_started: &mut Instant,
    ) {
        let ctx = GenCtx {
            params: &self.params,
            user_between_bursts: self.user_between_bursts,
        };
        #[cfg(test)]
        if self.scalar_oracle {
            let mut sink = OracleSink {
                cpu,
                hierarchies: &mut *hierarchies,
                directory: &mut *directory,
            };
            let (retired_user, retired_os) =
                ctx.run_chunk_into(cpu, instructions, procs, state, samplers, &mut sink);
            hierarchies[cpu].retire_instructions(retired_user, Space::User);
            hierarchies[cpu].retire_instructions(retired_os, Space::Os);
            return;
        }
        let (retired_user, retired_os) = {
            let mut sink = DrainSink {
                ch: self,
                cpu,
                hierarchies: &mut *hierarchies,
                directory: &mut *directory,
                batch: &mut *batch,
                out: &mut *out,
                phase_started: &mut *phase_started,
            };
            ctx.run_chunk_into(cpu, instructions, procs, state, samplers, &mut sink)
        };
        // The chunk boundary is the coherence epoch: nothing of this
        // chunk may stay buffered once another CPU runs.
        self.drain_batch(cpu, hierarchies, directory, batch, out, phase_started);
        hierarchies[cpu].retire_instructions(retired_user, Space::User);
        hierarchies[cpu].retire_instructions(retired_os, Space::Os);
    }

    /// Walks the pending batch through `cpu`'s hierarchy and replays the
    /// returned coherence events in reference order — each fill before
    /// the same reference's write, exactly as the scalar walk applies
    /// them per reference ([`replay_fill`], then [`replay_write`]).
    fn drain_batch(
        &self,
        cpu: usize,
        hierarchies: &mut [CpuHierarchy],
        directory: &mut Directory,
        batch: &mut RefBatch,
        out: &mut BatchOutcomes,
        phase_started: &mut Instant,
    ) {
        if batch.is_empty() {
            return;
        }
        // odb-analyzer: allow(ambient_nondeterminism) — diagnostic timing.
        let kernel_started = Instant::now();
        self.refill_seconds.set(
            self.refill_seconds.get()
                + kernel_started.duration_since(*phase_started).as_secs_f64(),
        );

        hierarchies[cpu].access_batch(batch, out);
        let fills = out.fills();
        let writes = out.writes();
        let mut fi = 0usize;
        let mut wi = 0usize;
        while fi < fills.len() || wi < writes.len() {
            let take_fill = match (fills.get(fi), writes.get(wi)) {
                (Some(f), Some(w)) => f.seq <= w.seq,
                (Some(_), None) => true,
                _ => false,
            };
            if take_fill {
                replay_fill(cpu, fills[fi].fill, directory);
                fi += 1;
            } else {
                replay_write(cpu, writes[wi].line, hierarchies, directory);
                wi += 1;
            }
        }
        batch.clear();

        // odb-analyzer: allow(ambient_nondeterminism) — diagnostic timing.
        let now = Instant::now();
        self.kernel_seconds.set(
            self.kernel_seconds.get() + now.duration_since(kernel_started).as_secs_f64(),
        );
        *phase_started = now;
    }

}

impl GenCtx<'_> {
    /// Generates one chunk of references into `sink` — the single
    /// generation loop behind both the serial drain path and the staged
    /// parallel path, so the two cannot drift.
    ///
    /// Generation (RNG draws, code cursors, dwell state) never reads
    /// cache state, so a whole chunk can be produced before any of it is
    /// simulated; that contract is what makes phase-A parallelism and
    /// the staged replay bit-identical to inline draining. Returns the
    /// `(user, os)` instruction retire counts for the chunk.
    fn run_chunk_into<S: DbRefSource, K: RefSink>(
        &self,
        cpu: usize,
        instructions: u64,
        procs: &mut [ProcessState<S>],
        state: &mut CpuState,
        samplers: &Samplers,
        sink: &mut K,
    ) -> (u64, u64) {
        let p = self.params;
        let user_between_bursts = self.user_between_bursts;
        let mut retired_user = 0u64;
        let mut retired_os = 0u64;

        for _ in 0..instructions {
            // Space selection via burst alternation.
            let space = if state.os_remaining > 0 {
                state.os_remaining -= 1;
                Space::Os
            } else if p.os_fraction >= 1.0 {
                Space::Os
            } else {
                state.user_since_burst += 1;
                if state.user_since_burst >= user_between_bursts {
                    state.user_since_burst = 0;
                    state.os_remaining = p.os_burst_len;
                }
                Space::User
            };

            match space {
                Space::User => retired_user += 1,
                Space::Os => retired_os += 1,
            }

            // Instruction fetch.
            let (cursor, code_base, code_bytes) = match space {
                Space::User => (
                    &mut procs[state.current].user_code_cursor,
                    USER_CODE_BASE,
                    p.user_code_bytes,
                ),
                Space::Os => (&mut state.os_code_cursor, OS_CODE_BASE, p.os_code_bytes),
            };
            let old_line = *cursor / LINE;
            if state.rng.gen_bool(p.code_jump_prob) {
                let sampler = match space {
                    Space::User => &samplers.user_code,
                    Space::Os => &samplers.os_code,
                };
                let block = sampler.sample(&mut state.rng);
                *cursor = code_base + block * CODE_BLOCK;
            } else {
                *cursor += 4;
                if *cursor >= code_base + code_bytes {
                    *cursor = code_base;
                }
            }
            let addr = *cursor;
            if addr / LINE != old_line {
                sink.code(addr, space);
            }

            // Data reference.
            if state.rng.gen_bool(p.data_refs_per_instr) {
                let (addr, write) = match space {
                    Space::User => self.user_data_ref(procs, state, samplers),
                    Space::Os => self.os_data_ref(cpu, state, samplers),
                };
                sink.data(addr, write, space);
            }

            // Context switch: rotate to the next process on this CPU.
            state.until_switch -= 1;
            if state.until_switch == 0 {
                state.until_switch = p.instrs_per_context_switch;
                state.current = (state.current + 1) % procs.len();
            }
        }
        (retired_user, retired_os)
    }

    /// Samples one user-space data reference for the current process,
    /// continuing any in-progress dwell first.
    fn user_data_ref<S: DbRefSource>(
        &self,
        procs: &mut [ProcessState<S>],
        state: &mut CpuState,
        samplers: &Samplers,
    ) -> (u64, bool) {
        let p = self.params;
        let proc = &mut procs[state.current];
        if let Some(r) = continue_run(&mut proc.run, &mut state.rng) {
            return r;
        }
        let u: f64 = state.rng.gen();
        let (line, dwell, write_frac) = if u < p.mix.stack {
            let rank = samplers.stack.sample(&mut state.rng);
            (
                STACK_BASE + proc.pid as u64 * STACK_STRIDE + rank * LINE,
                p.stack_dwell,
                p.stack_write_frac,
            )
        } else if u < p.mix.stack + p.mix.metadata {
            let rank = samplers.metadata.sample(&mut state.rng);
            (
                METADATA_BASE + rank * LINE,
                p.metadata_dwell,
                p.metadata_write_frac,
            )
        } else if u < p.mix.stack + p.mix.metadata + p.mix.buffer_header {
            let rank = samplers.buffer_header.sample(&mut state.rng);
            (
                BUFHDR_BASE + rank * LINE,
                p.buffer_header_dwell,
                p.buffer_header_write_frac,
            )
        } else {
            let r = proc.db_source.next_ref(&mut state.rng);
            let addr = DB_BASE + r.offset;
            let write_frac = if r.write { p.db_write_frac.max(0.5) } else { 0.0 };
            (addr & !(LINE - 1), p.db_dwell, write_frac)
        };
        proc.run = DataRun {
            line_base: line & !(LINE - 1),
            left: draw_dwell(&mut state.rng, dwell).saturating_sub(1),
            write_frac,
        };
        (line, state.rng.gen_bool(write_frac))
    }

    /// Samples one kernel data reference on `cpu`.
    fn os_data_ref(&self, cpu: usize, state: &mut CpuState, samplers: &Samplers) -> (u64, bool) {
        let p = self.params;
        if let Some(r) = continue_run(&mut state.os_run, &mut state.rng) {
            return r;
        }
        let rank = samplers.os_data.sample(&mut state.rng);
        let base = if state.rng.gen_bool(p.os_percpu_frac) {
            OS_PERCPU_BASE + cpu as u64 * OS_PERCPU_STRIDE
        } else {
            OS_DATA_BASE
        };
        let line = base + rank * LINE;
        state.os_run = DataRun {
            line_base: line,
            left: draw_dwell(&mut state.rng, p.os_dwell).saturating_sub(1),
            write_frac: p.os_write_frac,
        };
        (line, state.rng.gen_bool(p.os_write_frac))
    }
}

/// Records an L3 fill (and the victim it displaced) in the coherence
/// directory.
#[inline]
fn replay_fill(cpu: usize, fill: L3Fill, directory: &mut Directory) {
    if let Some(e) = fill.evicted {
        directory.record_evict(cpu, e.addr);
    }
    directory.record_fill(cpu, fill.filled);
}

/// Broadcasts a write by `cpu` to `line` to the other holders.
///
/// Invalidations go through [`Directory::write`] on the hierarchy slice
/// itself, so an invalidating write allocates nothing.
#[inline]
fn replay_write(
    cpu: usize,
    line: u64,
    hierarchies: &mut [CpuHierarchy],
    directory: &mut Directory,
) {
    if directory.has_remote_holders(cpu, line) {
        directory.write(cpu, line, hierarchies);
    }
}

/// Pre-built Zipf samplers over each region's line (or block) ranks.
struct Samplers {
    user_code: Zipf,
    os_code: Zipf,
    stack: Zipf,
    metadata: Zipf,
    buffer_header: Zipf,
    os_data: Zipf,
}

impl Samplers {
    fn new(p: &TraceParams) -> Result<Self, odb_core::Error> {
        let blocks = |bytes: u64, unit: u64| (bytes / unit).max(1);
        Ok(Self {
            user_code: Zipf::new(blocks(p.user_code_bytes, CODE_BLOCK), p.code_zipf_s)?,
            os_code: Zipf::new(blocks(p.os_code_bytes, CODE_BLOCK), p.code_zipf_s)?,
            stack: Zipf::new(blocks(p.stack_bytes, LINE), 1.0)?,
            metadata: Zipf::new(blocks(p.metadata_bytes, LINE), 1.0)?,
            buffer_header: Zipf::new(blocks(p.buffer_header_bytes, LINE), 0.9)?,
            os_data: Zipf::new(blocks(p.os_data_bytes, LINE), 1.1)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system(p: u32) -> SystemConfig {
        SystemConfig::xeon_quad().with_processors(p)
    }

    fn quick_params() -> TraceParams {
        TraceParams {
            processes_per_cpu: 2,
            instrs_per_context_switch: 30_000,
            ..TraceParams::default()
        }
    }

    fn run(p: u32, db_footprint: u64, seed: u64) -> Characterization {
        let ch = Characterizer::new(small_system(p), quick_params()).unwrap();
        ch.run(
            |_| UniformDbSource::new(db_footprint, 0.18),
            seed,
            600_000,
            400_000,
        )
        .unwrap()
    }

    #[test]
    fn produces_plausible_rates() {
        let c = run(1, 64 << 20, 42);
        assert!(c.instructions >= 400_000);
        let r = c.rates;
        assert!(r.user.l3_miss > 0.0, "some misses occur");
        assert!(r.user.l3_miss < 0.1, "but not absurdly many");
        assert!(r.user.l2_miss >= r.user.l3_miss, "L2 misses feed L3");
        assert!(r.user.tlb_miss > 0.0);
        assert!(r.os.l3_miss > 0.0);
        assert!(c.mpi() > 0.0);
    }

    #[test]
    fn os_fraction_is_respected() {
        let c = run(1, 64 << 20, 7);
        let total = c.instructions as f64;
        let os_frac = c.os_counts.instructions as f64 / total;
        assert!(
            (os_frac - 0.12).abs() < 0.03,
            "requested 0.12, observed {os_frac}"
        );
    }

    #[test]
    fn larger_db_footprint_raises_mpi() {
        // 512 KB of hot pages fit alongside the other streams in L3; a
        // 256 MB population does not.
        let small = run(1, 512 << 10, 9);
        let large = run(1, 256 << 20, 9);
        assert!(
            large.mpi() > small.mpi() * 1.05,
            "small {} vs large {}",
            small.mpi(),
            large.mpi()
        );
    }

    #[test]
    fn mpi_is_roughly_p_independent_and_coherence_is_small() {
        let one = run(1, 256 << 20, 21);
        let four = run(4, 256 << 20, 21);
        let ratio = four.mpi() / one.mpi();
        assert!(
            (0.8..1.25).contains(&ratio),
            "MPI should not scale with P: 1P {} vs 4P {}",
            one.mpi(),
            four.mpi()
        );
        assert!(
            four.coherence_miss_fraction() < 0.08,
            "coherence fraction {}",
            four.coherence_miss_fraction()
        );
        assert!(four.coherence_invalidations > 0, "sharing does occur");
    }

    #[test]
    fn determinism() {
        let a = run(2, 64 << 20, 1234);
        let b = run(2, 64 << 20, 1234);
        assert_eq!(a, b);
        let c = run(2, 64 << 20, 99);
        assert_ne!(a.user_counts, c.user_counts, "different seed differs");
    }

    #[test]
    fn disabled_coherence_ablation_removes_invalidations() {
        let ch = Characterizer::new(small_system(4), quick_params()).unwrap();
        let mut dir = Directory::disabled();
        let mut make = |_pid: usize| UniformDbSource::new(64 << 20, 0.18);
        let c = ch
            .run_with_directory(&mut dir, &mut make, 5, 300_000, 200_000)
            .unwrap();
        assert_eq!(c.coherence_invalidations, 0);
        assert_eq!(c.user_counts.l3_coherence_misses, 0);
    }

    #[test]
    fn validate_rejects_bad_mix_and_ranges() {
        let mut p = TraceParams::default();
        p.mix.db += 0.2;
        assert!(p.validate().is_err());
        let p = TraceParams {
            os_fraction: 1.5,
            ..TraceParams::default()
        };
        assert!(p.validate().is_err());
        let p = TraceParams {
            processes_per_cpu: 0,
            ..TraceParams::default()
        };
        assert!(p.validate().is_err());
        let p = TraceParams {
            instrs_per_context_switch: 0,
            ..TraceParams::default()
        };
        assert!(p.validate().is_err());
        assert!(TraceParams::default().validate().is_ok());
    }

    /// The directory's holder mask has one `u64` bit per CPU: a 65th
    /// processor is a typed configuration error, not a shift overflow
    /// (debug builds) or CPU 64 silently aliasing CPU 0 (release).
    #[test]
    fn rejects_more_processors_than_the_directory_tracks() {
        assert!(Characterizer::new(small_system(64), quick_params()).is_ok());
        let err = Characterizer::new(small_system(65), quick_params()).err();
        assert!(
            matches!(
                err,
                Some(odb_core::Error::InvalidConfig {
                    field: "processors",
                    ..
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn higher_os_share_improves_os_locality() {
        // The paper's Fig 11 mechanism: more time in kernel code means
        // warmer kernel state, so OS MPI falls as the OS share grows.
        let run_with_os = |os_fraction: f64| {
            let params = TraceParams {
                os_fraction,
                ..quick_params()
            };
            let ch = Characterizer::new(small_system(1), params).unwrap();
            ch.run(
                |_| UniformDbSource::new(64 << 20, 0.18),
                31,
                600_000,
                400_000,
            )
            .unwrap()
        };
        let light = run_with_os(0.05);
        let heavy = run_with_os(0.30);
        let light_os_mpi =
            light.os_counts.l3_misses as f64 / light.os_counts.instructions as f64;
        let heavy_os_mpi =
            heavy.os_counts.l3_misses as f64 / heavy.os_counts.instructions as f64;
        assert!(
            heavy_os_mpi < light_os_mpi,
            "OS MPI should fall with OS share: {light_os_mpi:.5} -> {heavy_os_mpi:.5}"
        );
    }

    #[test]
    fn faster_context_switching_pollutes_the_caches() {
        let run_with_cs = |instrs_per_switch: u64| {
            let params = TraceParams {
                instrs_per_context_switch: instrs_per_switch,
                processes_per_cpu: 8,
                ..TraceParams::default()
            };
            let ch = Characterizer::new(small_system(1), params).unwrap();
            ch.run(
                |_| UniformDbSource::new(64 << 20, 0.18),
                13,
                600_000,
                400_000,
            )
            .unwrap()
        };
        let calm = run_with_cs(400_000);
        let frantic = run_with_cs(25_000);
        assert!(
            frantic.mpi() > calm.mpi(),
            "switch-induced pollution must raise MPI: {:.5} vs {:.5}",
            calm.mpi(),
            frantic.mpi()
        );
    }

    #[test]
    fn stream_resistant_l3_policy_lowers_mpi_here_too() {
        let lru = Characterizer::new(small_system(1), quick_params()).unwrap();
        let bip = Characterizer::new(small_system(1), quick_params())
            .unwrap()
            .with_l3_policy(crate::policy::ReplacementPolicy::StreamResistant);
        let run = |ch: &Characterizer| {
            ch.run(
                |_| UniformDbSource::new(256 << 20, 0.18),
                47,
                600_000,
                400_000,
            )
            .unwrap()
        };
        let a = run(&lru);
        let b = run(&bip);
        assert!(
            b.mpi() < a.mpi() * 1.02,
            "stream-resistant should not lose to LRU under streaming DB              traffic: LRU {:.5} vs BIP {:.5}",
            a.mpi(),
            b.mpi()
        );
    }

    /// The tentpole's bit-exactness contract, end to end: entire
    /// characterizations through the batched generate/drain loop must
    /// equal the scalar per-reference oracle field for field — across
    /// processor counts (multi-CPU runs exercise mid-batch coherence
    /// invalidations and require them to land at the same reference as
    /// the scalar walk), the L2 prefetcher, the shared-L3 organization,
    /// and a non-LRU L3 policy.
    #[test]
    fn batched_walk_matches_scalar_oracle() {
        use crate::policy::ReplacementPolicy;
        let variants: &[(u32, bool, bool, ReplacementPolicy)] = &[
            (1, false, false, ReplacementPolicy::Lru),
            (4, false, false, ReplacementPolicy::Lru),
            (2, true, false, ReplacementPolicy::Lru),
            (2, false, true, ReplacementPolicy::Lru),
            (1, false, false, ReplacementPolicy::StreamResistant),
        ];
        for &(p, prefetch, shared, policy) in variants {
            let make = || {
                let mut ch = Characterizer::new(small_system(p), quick_params())
                    .unwrap()
                    .with_l3_policy(policy);
                if prefetch {
                    ch = ch.with_l2_prefetch();
                }
                if shared {
                    ch = ch.with_shared_l3();
                }
                ch
            };
            let run = |ch: &Characterizer| {
                ch.run(
                    |_| UniformDbSource::new(64 << 20, 0.18),
                    1712,
                    300_000,
                    200_000,
                )
                .unwrap()
            };
            let batched = run(&make());
            let scalar = run(&make().with_scalar_oracle());
            assert_eq!(
                batched, scalar,
                "P={p} prefetch={prefetch} shared={shared} {policy}"
            );
            if p == 4 {
                assert!(batched.coherence_invalidations > 0, "sharing exercised");
                assert!(
                    batched.user_counts.l3_coherence_misses
                        + batched.os_counts.l3_coherence_misses
                        > 0,
                    "mid-batch coherence misses exercised"
                );
            }
        }
    }

    /// The intra-point parallelism contract: within-point workers are a
    /// pure throughput knob. Serial (jobs=1), parallel over all CPUs
    /// (jobs=4 on P=4), an oversubscribed pool (jobs=16), and the scalar
    /// per-reference oracle must all produce the identical
    /// `Characterization` — with P=4 exercising mid-run coherence so the
    /// epoch-ordered replay is actually load-bearing.
    #[test]
    fn within_point_jobs_is_bit_neutral() {
        let run_with = |ch: Characterizer| {
            ch.run(
                |_| UniformDbSource::new(64 << 20, 0.18),
                1712,
                300_000,
                200_000,
            )
            .unwrap()
        };
        let make = || Characterizer::new(small_system(4), quick_params()).unwrap();
        let serial = run_with(make());
        let parallel = run_with(make().with_within_point_jobs(4));
        assert_eq!(serial, parallel, "jobs=4 must equal jobs=1");
        let oversubscribed = run_with(make().with_within_point_jobs(16));
        assert_eq!(serial, oversubscribed, "jobs>P must clamp and still match");
        let oracle = run_with(make().with_scalar_oracle().with_within_point_jobs(4));
        assert_eq!(serial, oracle, "parallel path must equal the scalar oracle");
        assert!(
            parallel.coherence_invalidations > 0,
            "P=4 must exercise coherence"
        );
    }

    /// Bit-neutrality must also hold for the shared-L3 organization and
    /// a non-default batch capacity: the `Rc`-shared cache never crosses
    /// a thread (only generation parallelizes), and staged replay must
    /// reproduce the same drain boundaries at any capacity.
    #[test]
    fn within_point_jobs_compose_with_shared_l3_and_capacity() {
        let run_with = |ch: Characterizer| {
            ch.run(
                |_| UniformDbSource::new(32 << 20, 0.18),
                99,
                200_000,
                150_000,
            )
            .unwrap()
        };
        let make = || {
            Characterizer::new(small_system(2), quick_params())
                .unwrap()
                .with_shared_l3()
                .with_batch_capacity(7)
        };
        assert_eq!(
            run_with(make()),
            run_with(make().with_within_point_jobs(2)),
            "shared L3 + capacity 7"
        );
    }

    /// Batch capacity is a pure throughput knob: capacity 1 equals the
    /// scalar walk, and odd capacities (which force partial final
    /// batches every chunk) equal the default.
    #[test]
    fn batch_capacity_is_immaterial() {
        let run_with = |ch: Characterizer| {
            ch.run(
                |_| UniformDbSource::new(64 << 20, 0.18),
                77,
                200_000,
                150_000,
            )
            .unwrap()
        };
        let make = || Characterizer::new(small_system(2), quick_params()).unwrap();
        let scalar = run_with(make().with_scalar_oracle());
        let one = run_with(make().with_batch_capacity(1));
        assert_eq!(one, scalar, "batch capacity 1 must equal the scalar walk");
        for cap in [7usize, 256, 1000] {
            assert_eq!(run_with(make().with_batch_capacity(cap)), one, "capacity {cap}");
        }
    }

    /// The refill/kernel wall-clock split accumulates once a run happens
    /// and both components are nonzero.
    #[test]
    fn phase_split_accumulates_wall_clock() {
        let ch = Characterizer::new(small_system(1), quick_params()).unwrap();
        assert_eq!(ch.phase_split(), CharacterizePhaseSplit::default());
        ch.run(|_| UniformDbSource::new(8 << 20, 0.1), 3, 50_000, 50_000)
            .unwrap();
        let split = ch.phase_split();
        assert!(split.refill_seconds > 0.0, "refill time recorded");
        assert!(split.kernel_seconds > 0.0, "kernel time recorded");
    }

    #[test]
    fn uniform_source_stays_in_footprint() {
        let mut s = UniformDbSource::new(1 << 20, 0.5);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut writes = 0;
        for _ in 0..1000 {
            let r = s.next_ref(&mut rng);
            assert!(r.offset < 1 << 20);
            if r.write {
                writes += 1;
            }
        }
        assert!((300..700).contains(&writes), "write frac ~0.5: {writes}");
    }
}
