//! The hot-path allocation pass: no heap allocation in the audited
//! per-reference functions of the characterization loop.

use super::{mark_fn_bodies, Pass};
use crate::report::{Lint, Violation};
use crate::source::WorkspaceModel;

/// The audited per-reference hot-path functions of `odb-memsim`, as
/// `(file, function names)` pairs. These run once (or more) per sampled
/// memory reference — billions of times per sweep — so a heap
/// allocation inside them is a per-reference cost by construction. The
/// batched kernels (`access_batch_rows`, `CpuHierarchy::access_batch`,
/// the `RefBatch` refill methods, `drain_batch`) are audited on the same
/// footing: they run once per batch, but a `collect()`/`Vec::new()`
/// inside one is a per-batch-refill allocation the SoA buffer reuse
/// exists to eliminate (`push`/`resize` on pre-sized buffers are fine).
///
/// Every entry must name a file that exists and a non-test `fn` in it:
/// an entry that matches nothing audits nothing, so the pass reports it.
pub const HOT_PATH_AUDITED: &[(&str, &[&str])] = &[
    (
        "crates/memsim/src/trace.rs",
        &[
            "interleave",
            "run_chunk",
            "run_chunk_into",
            "replay_chunk",
            "drain_batch",
            "user_data_ref",
            "os_data_ref",
            "replay_fill",
            "replay_write",
            "continue_run",
            "draw_dwell",
        ],
    ),
    (
        "crates/memsim/src/batch.rs",
        &["push_code", "push_data", "clear"],
    ),
    (
        "crates/memsim/src/cache.rs",
        &[
            "access",
            "access_batch_rows",
            "access_batch_lru_rows",
            "lru_rows_loop",
            "scan_set_fixed",
        ],
    ),
    (
        "crates/memsim/src/hierarchy.rs",
        &["fetch_code", "access_data", "descend", "access_batch"],
    ),
    (
        "crates/memsim/src/dist.rs",
        &["sample", "search_table", "search_window"],
    ),
    (
        "crates/memsim/src/tlb.rs",
        &["access", "miss_fill"],
    ),
    (
        "crates/memsim/src/coherence.rs",
        &["write", "has_remote_holders"],
    ),
];

/// Allocation tokens forbidden in the audited hot-path functions.
const ALLOC_TOKENS: &[&str] = &[".collect(", ".collect::<", ".to_vec()", "Vec::new()"];

/// Forbids per-reference heap allocation (`collect()`, `to_vec()`,
/// `Vec::new()`) inside the [`HOT_PATH_AUDITED`] functions — the inner
/// loop the whole sweep's wall-clock stands on. Deliberate cases carry a
/// `// odb-analyzer: allow(hot_path_alloc)` line escape. Stale entries
/// (a missing file, or a name no non-test `fn` declares) are violations
/// too, so the audit cannot silently stop reaching its code.
pub struct HotPathAllocPass;

impl Pass for HotPathAllocPass {
    fn lint(&self) -> Lint {
        Lint::HotPathAlloc
    }

    fn description(&self) -> &'static str {
        "heap allocation inside the audited per-reference hot-path functions of odb-memsim"
    }

    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>) {
        let Some(krate) = model.get("memsim") else { return };
        for (path, functions) in HOT_PATH_AUDITED {
            let Some(file) = krate.src_files.iter().find(|f| f.rel_path == *path) else {
                out.push(Violation::new(
                    Lint::HotPathAlloc,
                    path,
                    0,
                    "audited hot-path file does not exist, so its entry in \
                     `HOT_PATH_AUDITED` audits nothing; update the list"
                        .to_owned(),
                ));
                continue;
            };
            for name in *functions {
                let fn_paren = format!("fn {name}(");
                let fn_generic = format!("fn {name}<");
                let declared = file.lines.iter().any(|l| {
                    !l.in_test && (l.code.contains(&fn_paren) || l.code.contains(&fn_generic))
                });
                if !declared {
                    out.push(Violation::new(
                        Lint::HotPathAlloc,
                        &file.rel_path,
                        0,
                        format!(
                            "audited hot-path function `{name}` is not declared here, so its \
                             entry in `HOT_PATH_AUDITED` audits nothing; update the list"
                        ),
                    ));
                }
            }
            let code_lines: Vec<&str> = file.lines.iter().map(|l| l.code.as_str()).collect();
            let in_hot = mark_fn_bodies(&code_lines, functions);
            for (i, line) in file.lines.iter().enumerate() {
                if !in_hot[i] || line.in_test || line.allows("hot_path_alloc") {
                    continue;
                }
                if ALLOC_TOKENS.iter().any(|t| line.code.contains(t)) {
                    out.push(Violation::new(
                        Lint::HotPathAlloc,
                        &file.rel_path,
                        i + 1,
                        "heap allocation (`collect()`/`to_vec()`/`Vec::new()`) inside a \
                         per-reference hot-path function; hoist the buffer out of the \
                         loop, or annotate with `// odb-analyzer: allow(hot_path_alloc)` \
                         and justify"
                            .to_owned(),
                    ));
                }
            }
        }
    }
}
