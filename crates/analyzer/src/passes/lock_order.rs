//! The lock-order pass: the deadlock-freedom discipline.

use super::Pass;
use crate::report::{Lint, Violation};
use crate::source::WorkspaceModel;

/// Crates whose `.acquire(` call sites must order lock targets.
pub const LOCK_AUDITED: &[&str] = &["engine"];

/// Requires every `.acquire(` call site in the audited crates to live in
/// a file that sorts its lock targets with `canonical_order` on an
/// earlier line (the deadlock-freedom discipline), or to carry an
/// explicit `// odb-analyzer: allow(lock_order)` escape.
pub struct LockOrderPass;

impl Pass for LockOrderPass {
    fn lint(&self) -> Lint {
        Lint::LockOrder
    }

    fn description(&self) -> &'static str {
        ".acquire( call sites without a preceding canonical_order sort in the same file"
    }

    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>) {
        for name in LOCK_AUDITED {
            let Some(krate) = model.get(name) else { continue };
            for file in &krate.src_files {
                // The defining module's own API (`pub fn acquire`) is not a
                // call site; `.acquire(` is.
                let mut sort_seen_at: Option<usize> = None;
                for (i, line) in file.lines.iter().enumerate() {
                    if line.in_test {
                        continue;
                    }
                    if sort_seen_at.is_none()
                        && (line.code.contains("sort_by_key(canonical_order)")
                            || line.code.contains("sort_unstable_by_key(canonical_order)"))
                    {
                        sort_seen_at = Some(i);
                    }
                    if line.code.contains(".acquire(") && !line.allows("lock_order") {
                        let sorted_before = sort_seen_at.is_some_and(|s| s < i);
                        if !sorted_before {
                            out.push(Violation::new(
                                Lint::LockOrder,
                                &file.rel_path,
                                i + 1,
                                "`.acquire(` call site without a preceding \
                                 `sort_by_key(canonical_order)` in this file; acquire lock \
                                 targets in canonical order (or annotate with \
                                 `// odb-analyzer: allow(lock_order)` and justify)"
                                    .to_owned(),
                            ));
                        }
                    }
                }
            }
        }
    }
}
