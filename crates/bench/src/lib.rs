//! Shared helpers for the benchmark suite.
//!
//! The `components` bench times the substrate data structures the
//! simulation's throughput stands on, on the in-house [`harness`] (no
//! criterion in this offline workspace). End-to-end sweep wall clock,
//! with repeats and per-layer work × cost, is measured by the separate
//! `workload-bench/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
