//! The pass registry: every lint is a [`Pass`] with a stable id, a
//! one-line description, and a `run` method that pushes span-carrying
//! violations, each of which fails the gate.
//!
//! All passes share one escape syntax — `// odb-analyzer: allow(<id>)`
//! on the offending line or the line directly above it — and it is the
//! only way to accept a site.

pub mod determinism;
pub mod hot_path_alloc;
pub mod lock_order;
pub mod observer_seam;
pub mod panic_sites;
pub mod raw_time;
pub mod stray_files;

use crate::report::{Lint, Violation};
use crate::source::{mark_items, WorkspaceModel};

/// One static-analysis pass.
pub trait Pass {
    /// The lint this pass reports as (its [`Lint::name`] is the stable
    /// id used by escapes, `--list-lints`, and the README catalog).
    fn lint(&self) -> Lint;

    /// One-line description for `--list-lints`.
    fn description(&self) -> &'static str;

    /// Scans the workspace, pushing violations into `out`.
    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>);
}

/// Every pass, in execution (and `--list-lints`) order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(panic_sites::PanicSites),
        Box::new(lock_order::LockOrderPass),
        Box::new(raw_time::RawTimePass),
        Box::new(observer_seam::ObserverSeamPass),
        Box::new(stray_files::StrayFilesPass),
        Box::new(hot_path_alloc::HotPathAllocPass),
        Box::new(determinism::UnorderedIterationPass),
        Box::new(determinism::AmbientNondeterminismPass),
        Box::new(determinism::RngDisciplinePass),
        Box::new(determinism::FloatAccumulationPass),
        Box::new(determinism::ThreadCollectionPass),
    ]
}

/// Marks which lines sit inside a `#[cfg(feature = …)]` item (see
/// [`mark_items`] for where an item ends).
pub(crate) fn mark_cfg_feature(code_lines: &[&str]) -> Vec<bool> {
    mark_items(code_lines, |line| {
        line.find("#[cfg(").filter(|_| line.contains("feature"))
    })
}

/// Marks which lines sit inside any `fn <name>(`/`fn <name><` among
/// `names`, signature and body (see [`mark_items`]). A bodyless
/// declaration (trait method signature) ends at its `;`.
pub(crate) fn mark_fn_bodies(code_lines: &[&str], names: &[&str]) -> Vec<bool> {
    let heads: Vec<String> = names
        .iter()
        .flat_map(|n| [format!("fn {n}("), format!("fn {n}<")])
        .collect();
    mark_items(code_lines, |line| heads.iter().find_map(|h| line.find(h.as_str())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    #[test]
    fn cfg_feature_regions_are_marked() {
        let text = "\
fn a(hub: &mut H) { hub.emit(now, &e); }
#[cfg(feature = \"invariants\")]
fn gated(hub: &mut H) {
    hub.emit_with(now, || e);
}
#[cfg(feature = \"invariants\")]
use helper::check;
fn b(hub: &mut H) { hub.emit(now, &e); }
";
        let f = SourceFile::parse("crates/engine/src/x.rs".to_owned(), text);
        let code: Vec<&str> = f.lines.iter().map(|l| l.code.as_str()).collect();
        let marked = mark_cfg_feature(&code);
        assert!(!marked[0], "plain code before the attribute");
        assert!(marked[1] && marked[2] && marked[3] && marked[4], "gated fn");
        assert!(marked[5] && marked[6], "bodyless gated item");
        assert!(!marked[7], "code after the gated items");
    }

    #[test]
    fn registry_ids_are_unique_and_stable() {
        let passes = registry();
        let mut ids: Vec<&str> = passes.iter().map(|p| p.lint().name()).collect();
        let len = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), len, "duplicate lint id in the registry");
        assert_eq!(len, 11, "registry size is part of the catalog contract");
    }
}
