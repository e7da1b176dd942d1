//! The ODB workload simulator: a from-scratch, full-system model of the
//! paper's experimental subject.
//!
//! The paper runs the Oracle Database Benchmark — an order-entry OLTP
//! workload over Oracle 9iR2 — on a 4-way Xeon server and measures it with
//! hardware counters. None of that stack is available here, so this crate
//! rebuilds the pieces that *determine the measured behaviour*:
//!
//! * [`schema`] — the warehouse/district/customer database layout and its
//!   page map (≈100 MB, 12,800 8 KB pages per warehouse);
//! * [`txn`] — the five transaction types, their mix, instruction budgets,
//!   page-touch profiles, lock demands and redo volumes;
//! * [`buffer`] — the SGA database buffer cache (page-level LRU over
//!   ~344k frames) whose misses become disk reads;
//! * [`locks`] — block-granularity lock manager; contention on the few
//!   district blocks at small `W` produces the context-switch spike of
//!   Fig 8;
//! * [`writers`] — the log writer (group commit, ≈6 KB redo per
//!   transaction) and database writer (dirty-page writeback with
//!   coalescing) background behaviours;
//! * [`profile`] — translation of a configuration into `odb-memsim`
//!   characterization inputs (the [`profile::OdbRefSource`] emits the same
//!   page population the engine touches);
//! * [`system`] — the discrete-event full-system simulation: server
//!   processes on a run queue over `P` CPUs, timing driven by
//!   characterized event rates and the live bus model, I/O through the
//!   disk array;
//! * [`measure`] — the measurement pipeline: characterize → warm up →
//!   sample, with an optional EMON noise stage, producing the
//!   [`odb_core::metrics::Measurement`] rows behind every figure.
//!
//! # Quickstart
//!
//! ```no_run
//! use odb_core::config::{OltpConfig, SystemConfig, WorkloadConfig};
//! use odb_engine::{OdbSimulator, SimOptions};
//!
//! let config = OltpConfig::new(
//!     WorkloadConfig::new(100, 48)?,
//!     SystemConfig::xeon_quad(),
//! )?;
//! let measurement = OdbSimulator::new(config, SimOptions::quick())?.run()?;
//! println!("TPS {:.0}, CPI {:.2}", measurement.tps(), measurement.cpi());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Unit tests use unwrap() freely; the workspace-level
// `clippy::unwrap_used` deny applies to shipped code only.
#![cfg_attr(test, allow(clippy::unwrap_used))]

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod buffer;
pub mod locks;
pub mod measure;
pub mod observe;
pub mod profile;
pub mod schema;
pub mod system;
pub mod txn;
pub mod writers;

pub use measure::{OdbSimulator, PhaseSeconds, SimOptions};
pub use observe::{LatencyObserver, LatencyStats, LogHistogram};

/// Seeded case generation for this crate's property tests.
///
/// A property runs a fixed number of cases, one per seed, drawn from a
/// splitmix64 stream over the ranges the property states. The suite is
/// therefore deterministic, a failure names the seed that reproduces it,
/// and no fuzzing dependency is needed.
#[cfg(test)]
mod seeded {
    use std::ops::Range;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// One case's draw stream.
    pub(crate) struct Draws {
        state: u64,
    }

    impl Draws {
        /// splitmix64: the same mixer `SimOptions::for_point` seeds with.
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform draw from `range`.
        pub(crate) fn u64_in(&mut self, range: Range<u64>) -> u64 {
            range.start + self.next_u64() % (range.end - range.start)
        }

        /// A uniform draw from `range`.
        pub(crate) fn f64_in(&mut self, range: Range<f64>) -> f64 {
            let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            range.start + (range.end - range.start) * unit
        }

        /// A fair coin.
        pub(crate) fn bool(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }
    }

    /// Checks `property` on seeds `0..cases`; the first failing case
    /// panics with the property's name and its seed.
    pub(crate) fn check(name: &str, cases: u64, mut property: impl FnMut(&mut Draws)) {
        for seed in 0..cases {
            let mut draws = Draws { state: seed };
            if catch_unwind(AssertUnwindSafe(|| property(&mut draws))).is_err() {
                panic!("property `{name}` failed at seed {seed}");
            }
        }
    }
}
