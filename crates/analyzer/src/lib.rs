//! Project-specific static analysis for the odb-scaling workspace.
//!
//! The paper's conclusions rest on tight numerical identities — the iron
//! law `TPS = (P × F)/(IPX × CPI)`, additive CPI breakdowns, piecewise
//! pivot fits — so a silent modelling bug corrupts every downstream table
//! while still looking plausible. This crate is the static half of the
//! project's correctness tooling (the dynamic half is the `invariants`
//! cargo feature on the simulation crates): a dependency-free scanner
//! that walks the workspace source tree and runs a registry of passes
//! ([`passes::registry`]) no generic tool knows about.
//!
//! Each pass is a [`passes::Pass`]: a stable lint id, a one-line
//! description (`--list-lints`), and span-carrying diagnostics. The
//! current catalog:
//!
//! * **panic** — `unwrap()`/`expect()`/`panic!`-family calls in non-test
//!   simulation library code;
//! * **lock_order** — `.acquire(` call sites must canonically order lock
//!   targets first (deadlock-freedom discipline);
//! * **raw_time** — floating-point `SimTime` construction is confined to
//!   `crates/des/src/time.rs`;
//! * **observer_seam** — observer-hook emissions must fire in every
//!   build flavour (never inside `#[cfg(feature = …)]`);
//! * **stray_file** — editor droppings and orphan modules;
//! * **hot_path_alloc** — no heap allocation in the audited
//!   per-reference hot-path functions of `odb-memsim`;
//! * **unordered_iteration**, **ambient_nondeterminism**,
//!   **rng_discipline**, **float_accumulation**, **thread_collection** —
//!   the determinism-audit family ([`passes::determinism`]) certifying
//!   the bit-exactness contract.
//!
//! Every site a pass finds is a violation. The one way to accept a site
//! (all passes, one syntax) is `// odb-analyzer: allow(<lint>)` on the
//! offending line, or on the line directly above it, with the
//! justification next to it.
//!
//! Run as `cargo run -p odb-analyzer`; exits non-zero on any violation.

// Unit tests use unwrap() freely; the workspace-level
// `clippy::unwrap_used` deny applies to shipped code only.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod passes;
pub mod report;
pub mod source;

use std::path::Path;

/// Runs every registered pass over the workspace rooted at `root` (the
/// directory holding the top-level `Cargo.toml` and `crates/`) and
/// returns the violations in discovery order; the tree passes the gate
/// when there are none.
///
/// # Errors
///
/// Returns an error string when the tree cannot be read at all (missing
/// `crates/` directory or an unreadable source file).
pub fn analyze(root: &Path) -> Result<Vec<report::Violation>, String> {
    let model = source::WorkspaceModel::load(root)?;
    let mut violations = Vec::new();
    for pass in passes::registry() {
        pass.run(&model, &mut violations);
    }
    Ok(violations)
}
