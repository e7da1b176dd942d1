//! The determinism-audit pass family: textual passes that certify the
//! bit-exactness contract parallel sweeps and within-point workers lean
//! on.
//!
//! The contract: given one `(SweepPoint, seed)`, the simulation stack
//! must produce bit-identical results regardless of host, thread count,
//! or run-to-run allocator state. These passes flag the classic ways
//! that contract silently breaks:
//!
//! * **unordered_iteration** — `HashMap`/`HashSet` state in sim code.
//!   Iteration order is randomized per process (SipHash keys), so any
//!   iteration that feeds simulated state or output is a per-run coin
//!   flip. Point-access-only maps are safe but must say so with an
//!   escape; order-sensitive ones must become `BTreeMap`/`BTreeSet`.
//! * **ambient_nondeterminism** — wall-clock time, thread identity,
//!   environment variables, or pointer-identity hashing leaking into
//!   sim code.
//! * **rng_discipline** — RNG construction outside the seeded
//!   `SimOptions::for_point` splitmix path: entropy-seeded RNGs are a
//!   fresh universe per run, and ad-hoc literal seeds silently correlate
//!   streams across components.
//! * **float_accumulation** — float reductions over unordered or
//!   thread-collected sources; `(a + b) + c != a + (b + c)` in IEEE 754,
//!   so the sum depends on visit order.
//! * **thread_collection** — completion-order collection of worker
//!   results in sim code: channel drains (`mpsc`, `recv`/`try_iter`)
//!   and shared-`Vec` pushes (`Mutex<Vec<…>>`) deliver results in the
//!   order workers *finish*, which differs run to run under load. The
//!   within-point parallel paths instead write into pre-partitioned
//!   per-worker slots merged in a fixed index order.

use super::Pass;
use crate::report::{Lint, Violation};
use crate::source::WorkspaceModel;

/// Crates audited for determinism: the whole simulation stack.
pub const DET_AUDITED: &[&str] = &["core", "des", "engine", "memsim", "ossim", "iosim"];

/// Import lines introduce a type, not a use of its iteration order;
/// the declaration/iteration sites are where the risk lives.
fn is_use_line(code: &str) -> bool {
    let t = code.trim_start();
    t.starts_with("use ") || t.starts_with("pub use ") || t.starts_with("pub(crate) use ")
}

/// Runs `per_line` over every line of the audited crates that is neither
/// test code nor escaped for `lint`, reporting each message it returns
/// as a `lint` violation.
fn scan_audited(
    model: &WorkspaceModel,
    out: &mut Vec<Violation>,
    lint: Lint,
    mut per_line: impl FnMut(&str) -> Option<String>,
) {
    for name in DET_AUDITED {
        let Some(krate) = model.get(name) else { continue };
        for file in &krate.src_files {
            for (i, line) in file.lines.iter().enumerate() {
                if line.in_test || line.allows(lint.name()) {
                    continue;
                }
                if let Some(message) = per_line(&line.code) {
                    out.push(Violation::new(lint, &file.rel_path, i + 1, message));
                }
            }
        }
    }
}

/// Flags `HashMap`/`HashSet` in non-test sim code. Hash iteration order
/// is per-process random, so hash-keyed sim state is deterministic only
/// if it is *never* iterated — a property the type system won't hold for
/// you. Convert to `BTreeMap`/`BTreeSet`, or escape a point-access-only
/// map with `// odb-analyzer: allow(unordered_iteration)` and say why
/// order can never leak.
pub struct UnorderedIterationPass;

impl Pass for UnorderedIterationPass {
    fn lint(&self) -> Lint {
        Lint::UnorderedIteration
    }

    fn description(&self) -> &'static str {
        "HashMap/HashSet in non-test simulation code (iteration order is per-run random)"
    }

    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>) {
        scan_audited(model, out, Lint::UnorderedIteration, |code| {
            if is_use_line(code) {
                return None;
            }
            let token = ["HashMap", "HashSet"].iter().find(|t| code.contains(**t))?;
            Some(format!(
                "`{token}` in simulation code: iteration order is randomized per \
                 process, so any iteration feeding sim state or output breaks \
                 bit-exactness; use BTreeMap/BTreeSet, or annotate a \
                 point-access-only map with \
                 `// odb-analyzer: allow(unordered_iteration)` and justify"
            ))
        });
    }
}

/// Ambient inputs that differ across hosts, runs, or threads.
const AMBIENT_TOKENS: &[&str] = &[
    "Instant::now(",
    "SystemTime",
    "thread::current(",
    "std::env::",
    "env::var(",
    "env::vars(",
    "ptr::hash(",
    "RandomState",
];

/// Flags ambient inputs — wall-clock time, thread identity, environment
/// variables, pointer-identity hashing — in sim code. Each is a value
/// the simulation cannot replay. Diagnostic-only uses (phase timers on
/// stderr) escape with `// odb-analyzer: allow(ambient_nondeterminism)`.
pub struct AmbientNondeterminismPass;

impl Pass for AmbientNondeterminismPass {
    fn lint(&self) -> Lint {
        Lint::AmbientNondeterminism
    }

    fn description(&self) -> &'static str {
        "wall-clock/thread-id/env-var/pointer-hash inputs in simulation code"
    }

    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>) {
        scan_audited(model, out, Lint::AmbientNondeterminism, |code| {
            if is_use_line(code) {
                return None;
            }
            let token = AMBIENT_TOKENS.iter().find(|t| code.contains(**t))?;
            Some(format!(
                "ambient input `{token}` in simulation code: the value differs \
                 across hosts/runs/threads and cannot be replayed; thread sim \
                 time or config through instead, or annotate a diagnostic-only \
                 use with `// odb-analyzer: allow(ambient_nondeterminism)`"
            ))
        });
    }
}

/// RNG constructors that bypass the seeded splitmix path outright.
const RNG_ENTROPY_TOKENS: &[&str] = &["from_entropy(", "thread_rng(", "OsRng", "from_os_rng("];

/// Flags RNG construction outside the `SimOptions::for_point` splitmix
/// derivation: entropy-seeded RNGs (`from_entropy`, `thread_rng`,
/// `OsRng`) are unreplayable, and `seed_from_u64(<literal>)` hardcodes a
/// stream that silently correlates with any other component using the
/// same constant. Derive per-component seeds from the point seed; escape
/// a justified fixed stream with `// odb-analyzer: allow(rng_discipline)`.
pub struct RngDisciplinePass;

impl Pass for RngDisciplinePass {
    fn lint(&self) -> Lint {
        Lint::RngDiscipline
    }

    fn description(&self) -> &'static str {
        "RNG construction outside the seeded SimOptions::for_point splitmix path"
    }

    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>) {
        scan_audited(model, out, Lint::RngDiscipline, |code| {
            if is_use_line(code) {
                return None;
            }
            if let Some(token) = RNG_ENTROPY_TOKENS.iter().find(|t| code.contains(**t)) {
                return Some(format!(
                    "entropy-seeded RNG `{token}`: the stream differs every run and \
                     cannot be replayed; derive the seed from \
                     SimOptions::for_point's splitmix path"
                ));
            }
            if has_literal_seed(code) {
                return Some(
                    "`seed_from_u64(<literal>)`: a hardcoded seed correlates this \
                     stream with every other component using the same constant and \
                     ignores the per-point seed; derive it from \
                     SimOptions::for_point's splitmix path, or annotate with \
                     `// odb-analyzer: allow(rng_discipline)` and justify"
                        .to_owned(),
                );
            }
            None
        });
    }
}

/// True when a `seed_from_u64(` call's first argument starts with a
/// numeric literal (decimal or `0x…`).
fn has_literal_seed(code: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find("seed_from_u64(") {
        let after = from + pos + "seed_from_u64(".len();
        let arg = code[after..].trim_start();
        if arg.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return true;
        }
        from = after;
    }
    false
}

/// Float-reduction call shapes.
const FLOAT_REDUCE_TOKENS: &[&str] = &[
    ".sum::<f64>",
    ".sum::<f32>",
    ".fold(0.0",
    ".fold(0f64",
    ".fold(0f32",
];

/// Sources whose visit order is unordered or thread-dependent.
const UNORDERED_SOURCE_TOKENS: &[&str] = &[
    "HashMap",
    "HashSet",
    "par_iter",
    "into_par_iter",
    "par_bridge",
];

/// Flags float reductions whose source is unordered or thread-collected
/// on the same line: IEEE-754 addition is not associative, so
/// `(a + b) + c != a + (b + c)` and the sum depends on visit order.
/// Reduce over an ordered source (sorted keys, a `Vec` in deterministic
/// order), or escape with `// odb-analyzer: allow(float_accumulation)`.
pub struct FloatAccumulationPass;

impl Pass for FloatAccumulationPass {
    fn lint(&self) -> Lint {
        Lint::FloatAccumulation
    }

    fn description(&self) -> &'static str {
        "float reductions over unordered/thread-collected sources (order-dependent sums)"
    }

    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>) {
        scan_audited(model, out, Lint::FloatAccumulation, |code| {
            let reduce = FLOAT_REDUCE_TOKENS.iter().find(|t| code.contains(**t))?;
            let source = UNORDERED_SOURCE_TOKENS
                .iter()
                .find(|t| code.contains(**t))?;
            Some(format!(
                "float reduction `{reduce}` over unordered source `{source}`: \
                 IEEE-754 addition is order-dependent, so the sum differs with \
                 visit order; reduce over a deterministically ordered source, or \
                 annotate with `// odb-analyzer: allow(float_accumulation)` and \
                 justify"
            ))
        });
    }
}

/// Completion-order collection shapes: shared push targets and channel
/// drains. Each delivers worker results in finish order.
const THREAD_COLLECTION_TOKENS: &[&str] = &[
    "Mutex<Vec<",
    "RwLock<Vec<",
    "mpsc::channel",
    "mpsc::sync_channel",
    "sync_channel(",
    ".recv()",
    ".try_recv()",
    ".try_iter()",
];

/// Flags completion-order collection of worker results in sim code:
/// draining a channel or pushing into a shared `Mutex<Vec<…>>` orders
/// results by when each worker *finished*, which varies run to run with
/// scheduling. Deterministic parallelism collects into pre-partitioned
/// per-worker slots (disjoint `chunks_mut` slices, an indexed `Vec` of
/// per-worker outputs) merged in a fixed index order — the pattern the
/// within-point characterization workers use. A collection whose order
/// provably cannot reach sim state or output escapes with
/// `// odb-analyzer: allow(thread_collection)`.
pub struct ThreadCollectionPass;

impl Pass for ThreadCollectionPass {
    fn lint(&self) -> Lint {
        Lint::ThreadCollection
    }

    fn description(&self) -> &'static str {
        "completion-order collection of worker results (channels, Mutex<Vec>) in simulation code"
    }

    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>) {
        scan_audited(model, out, Lint::ThreadCollection, |code| {
            if is_use_line(code) {
                return None;
            }
            let token = THREAD_COLLECTION_TOKENS
                .iter()
                .find(|t| code.contains(**t))?;
            Some(format!(
                "completion-order collection `{token}` in simulation code: worker \
                 results arrive in finish order, which differs run to run; collect \
                 into pre-partitioned per-worker slots merged in index order, or \
                 annotate with `// odb-analyzer: allow(thread_collection)` and \
                 justify why ordering cannot leak"
            ))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CrateModel, SourceFile, WorkspaceModel};

    fn model_with(rel: &str, krate: &str, text: &str) -> WorkspaceModel {
        WorkspaceModel {
            root: std::path::PathBuf::new(),
            crates: vec![CrateModel {
                name: krate.to_owned(),
                src_files: vec![SourceFile::parse(rel.to_owned(), text)],
                src_rs_paths: Vec::new(),
            }],
            all_files: Vec::new(),
        }
    }

    #[test]
    fn use_lines_and_tests_are_skipped() {
        let model = model_with(
            "crates/des/src/x.rs",
            "des",
            "use std::collections::HashMap;\n\
             struct S { m: HashMap<u32, u32> }\n\
             #[cfg(test)]\n\
             mod tests { struct T { m: HashMap<u32, u32> } }\n",
        );
        let mut out = Vec::new();
        UnorderedIterationPass.run(&model, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn escape_silences_unordered_iteration() {
        let model = model_with(
            "crates/des/src/x.rs",
            "des",
            "// odb-analyzer: allow(unordered_iteration) — point access only\n\
             struct S { m: HashMap<u32, u32> }\n",
        );
        let mut out = Vec::new();
        UnorderedIterationPass.run(&model, &mut out);
        assert_eq!(out.len(), 0, "{out:?}");
    }

    #[test]
    fn literal_seed_detection() {
        assert!(has_literal_seed("SmallRng::seed_from_u64(0xDB_CAFE)"));
        assert!(has_literal_seed("seed_from_u64( 7 )"));
        assert!(!has_literal_seed("seed_from_u64(mix)"));
        assert!(!has_literal_seed("seed_from_u64(self.seed)"));
    }

    #[test]
    fn rng_tokens_fire_and_variable_seed_does_not() {
        let model = model_with(
            "crates/engine/src/x.rs",
            "engine",
            "fn a() { let r = SmallRng::from_entropy(); }\n\
             fn b(seed: u64) { let r = SmallRng::seed_from_u64(seed); }\n\
             fn c() { let r = SmallRng::seed_from_u64(42); }\n",
        );
        let mut out = Vec::new();
        RngDisciplinePass.run(&model, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn float_accumulation_needs_both_halves() {
        let model = model_with(
            "crates/engine/src/x.rs",
            "engine",
            "fn a(m: &HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }\n\
             fn b(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n\
             fn c(m: &HashMap<u32, f64>) -> usize { m.len() }\n",
        );
        let mut out = Vec::new();
        FloatAccumulationPass.run(&model, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn thread_collection_tokens_fire() {
        let model = model_with(
            "crates/memsim/src/x.rs",
            "memsim",
            "fn a() { let out = Mutex::new(Vec::new()); }\n\
             struct S { rows: Mutex<Vec<Row>> }\n\
             fn b() { let (tx, rx) = mpsc::channel(); }\n\
             fn c(rx: &Receiver<Row>) { while let Ok(row) = rx.recv() {} }\n",
        );
        let mut out = Vec::new();
        ThreadCollectionPass.run(&model, &mut out);
        // Line 1 is `Mutex::new(Vec::new())` — not a declared shared-Vec
        // type, so only the typed field, the channel, and the drain fire.
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn thread_collection_skips_indexed_merges_and_escapes() {
        let model = model_with(
            "crates/memsim/src/x.rs",
            "memsim",
            "use std::sync::mpsc::channel;\n\
             fn merge(slots: &mut [Chunk]) { for s in slots.iter_mut() {} }\n\
             fn scoped(bufs: &mut [Vec<u8>]) { bufs.chunks_mut(2); }\n\
             // odb-analyzer: allow(thread_collection) — diagnostics only\n\
             fn d(rx: &Receiver<String>) { let _ = rx.try_recv(); }\n\
             #[cfg(test)]\n\
             mod tests { fn t(rx: Receiver<u8>) { rx.recv().unwrap(); } }\n",
        );
        let mut out = Vec::new();
        ThreadCollectionPass.run(&model, &mut out);
        assert_eq!(out.len(), 0, "{out:?}");
    }

    #[test]
    fn ambient_tokens_fire() {
        let model = model_with(
            "crates/engine/src/x.rs",
            "engine",
            "fn a() { let t = std::time::Instant::now(); }\n\
             // odb-analyzer: allow(ambient_nondeterminism) — stderr diagnostics\n\
             fn b() { let t = std::time::Instant::now(); }\n",
        );
        let mut out = Vec::new();
        AmbientNondeterminismPass.run(&model, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }
}
