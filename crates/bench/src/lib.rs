//! Shared helpers for the benchmark suite.
//!
//! The artifact benches regenerate every paper table and figure; the
//! expensive part — the measurement sweep — runs once here and the
//! per-artifact benches time the projection/fitting/rendering stage,
//! while `pipeline` benches time the measurement machinery itself. All
//! of them run on the in-house [`harness`] (no criterion in this
//! offline workspace). End-to-end sweep wall clock, with repeats and
//! per-layer work × cost, is measured by the separate `workload-bench/`
//! package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use odb_core::config::SystemConfig;
use odb_engine::SimOptions;
use odb_experiments::ladder::ConfigPoint;
use odb_experiments::runner::{Sweep, SweepOptions};

/// Reduced ladder used by the benchmark sweep (covers both regions).
pub const BENCH_WAREHOUSES: [u32; 6] = [10, 50, 100, 200, 400, 800];

/// A reduced but real sweep (all three processor counts over
/// [`BENCH_WAREHOUSES`]) at quick fidelity, for artifact benches.
///
/// # Panics
///
/// Panics on simulation errors — benches have no error channel.
pub fn bench_sweep() -> Sweep {
    let mut options = SweepOptions::quick();
    // One fixed-point round keeps the setup affordable.
    options.measure = SimOptions::quick();
    let points: Vec<ConfigPoint> = [1u32, 2, 4]
        .iter()
        .flat_map(|&p| {
            BENCH_WAREHOUSES.iter().map(move |&w| ConfigPoint {
                warehouses: w,
                processors: p,
            })
        })
        .collect();
    let sweep = Sweep::run_points(&SystemConfig::xeon_quad(), &options, &points);
    sweep.ensure_complete().expect("the reduced sweep must run");
    sweep
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_ladder_is_sorted() {
        assert!(super::BENCH_WAREHOUSES.windows(2).all(|w| w[0] < w[1]));
    }
}
