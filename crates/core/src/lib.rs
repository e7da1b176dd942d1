//! Core models from *Scaling and Characterizing Database Workloads:
//! Bridging the Gap between Research and Practice* (Hankins, Diep,
//! Annavaram, Hirano, Eri, Nueckel, Shen — MICRO 2003).
//!
//! This crate implements the paper's analytical contribution, independent of
//! any particular measurement source:
//!
//! * the **iron law of database performance** ([`ironlaw`]):
//!   `TPS = (P × F) / (IPX × CPI)`;
//! * the **CPI breakdown** methodology of the paper's Tables 2–4
//!   ([`breakdown`]): fixed stall costs per microarchitectural event, summed
//!   into a computed CPI, with the residual reported as *Other*;
//! * **linear and two-segment piecewise-linear regression** ([`regression`],
//!   [`pivot`]) used by the paper to split CPI/MPI trends into a *cached* and
//!   a *scaled* region whose intersection is the **pivot point**;
//! * **extrapolation** from a minimal representative configuration
//!   ([`extrapolate`]): predicting large-configuration behaviour from
//!   measurements at or just beyond the pivot.
//!
//! It also defines the configuration and metric vocabulary shared by the
//! simulation substrates ([`config`], [`metrics`], [`series`]): warehouses,
//! clients, processors and disks on one axis; TPS, IPX, CPI and MPI on the
//! other.
//!
//! # Quickstart
//!
//! ```
//! use odb_core::ironlaw;
//! use odb_core::pivot::TwoSegmentFit;
//!
//! // The iron law: a 4-processor, 1.6 GHz system executing 1.2M
//! // instructions per transaction at CPI 4.0 sustains ~1333 TPS.
//! let tps = ironlaw::tps(4, 1.6e9, 1.2e6, 4.0);
//! assert!((tps - 1333.3).abs() < 1.0);
//!
//! // Pivot-point analysis: a steep cached region followed by a flat
//! // scaled region intersect near x = 100.
//! let xs = [10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0];
//! let ys = [1.0, 1.6, 2.6, 4.6, 4.8, 5.2, 6.0];
//! let fit = TwoSegmentFit::fit(&xs, &ys)?;
//! let pivot = fit.pivot().expect("regions intersect");
//! assert!(pivot.x > 50.0 && pivot.x < 250.0);
//! # Ok::<(), odb_core::Error>(())
//! ```

// Unit tests use unwrap() freely; the workspace-level
// `clippy::unwrap_used` deny applies to shipped code only.
#![cfg_attr(test, allow(clippy::unwrap_used))]

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod breakdown;
pub mod codec;
pub mod config;
pub mod error;
pub mod extrapolate;
pub mod ironlaw;
pub mod metrics;
pub mod paper;
pub mod pivot;
pub mod regression;
pub mod series;

pub use error::Error;

/// Seeded case generation for this crate's property tests.
///
/// Each property runs [`CASES`] cases, one per seed, drawn from a
/// splitmix64 stream over the same half-open ranges the property states.
/// The suite is therefore deterministic, a failure names the seed that
/// reproduces it, and no fuzzing dependency is needed.
#[cfg(test)]
mod seeded {
    use std::ops::Range;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Cases (seeds `0..CASES`) each property is checked on.
    const CASES: u64 = 10_000;

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
        pub(crate) fn f64_in(&mut self, range: Range<f64>) -> f64 {
            let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            range.start + (range.end - range.start) * unit
        }

        /// A uniform draw from `range`.
        pub(crate) fn usize_in(&mut self, range: Range<usize>) -> usize {
            range.start + (self.next_u64() % (range.end - range.start) as u64) as usize
        }

        /// A vector whose length is drawn from `len` and whose elements are
        /// drawn from `values`.
        pub(crate) fn vec_f64(&mut self, values: Range<f64>, len: Range<usize>) -> Vec<f64> {
            let n = self.usize_in(len);
            (0..n).map(|_| self.f64_in(values.clone())).collect()
        }
    }

    /// Checks `property` on seeds `0..CASES`; the first failing case panics
    /// with the property's name and its seed.
    pub(crate) fn check(name: &str, mut property: impl FnMut(&mut Draws)) {
        for seed in 0..CASES {
            let mut draws = Draws { state: seed };
            if catch_unwind(AssertUnwindSafe(|| property(&mut draws))).is_err() {
                panic!("property `{name}` failed at seed {seed}");
            }
        }
    }
}
