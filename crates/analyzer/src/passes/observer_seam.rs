//! The observer-seam pass: hook emissions must fire in every build
//! flavour.

use super::{mark_cfg_feature, Pass};
use crate::report::{Lint, Violation};
use crate::source::WorkspaceModel;

/// Crates whose observer-hub emissions are audited: hook calls must not
/// hide inside `#[cfg(feature = …)]` blocks.
pub const OBSERVER_AUDITED: &[&str] = &["des", "engine", "iosim", "ossim"];

/// Observer-hub emission call tokens.
const EMIT_TOKENS: &[&str] = &[".emit(", ".emit_with("];

/// Keeps the observer seam unconditional: an `.emit(`/`.emit_with(` call
/// inside a `#[cfg(feature = …)]` block means the event stream differs by
/// build flavour, so an observer registered in one flavour silently sees
/// fewer events in another. Consumers may be feature-gated (registration
/// is cheap and invisible when absent); the *emissions* may not. Escape:
/// `// odb-analyzer: allow(observer_seam)` with a justification.
pub struct ObserverSeamPass;

impl Pass for ObserverSeamPass {
    fn lint(&self) -> Lint {
        Lint::ObserverSeam
    }

    fn description(&self) -> &'static str {
        "observer-hook emissions hidden inside #[cfg(feature = ...)] blocks"
    }

    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>) {
        for name in OBSERVER_AUDITED {
            let Some(krate) = model.get(name) else { continue };
            for file in &krate.src_files {
                let code_lines: Vec<&str> =
                    file.lines.iter().map(|l| l.code.as_str()).collect();
                let in_feature = mark_cfg_feature(&code_lines);
                for (i, line) in file.lines.iter().enumerate() {
                    if !in_feature[i] || line.in_test || line.allows("observer_seam") {
                        continue;
                    }
                    if EMIT_TOKENS.iter().any(|t| line.code.contains(t)) {
                        out.push(Violation::new(
                            Lint::ObserverSeam,
                            &file.rel_path,
                            i + 1,
                            "observer-hook emission inside a `#[cfg(feature = …)]` block; \
                             hooks must fire in every build flavour so registered observers \
                             see the same event stream — gate the *observer registration* \
                             instead (or annotate with `// odb-analyzer: allow(observer_seam)` \
                             and justify)"
                                .to_owned(),
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CrateModel, SourceFile};

    #[test]
    fn emit_inside_cfg_feature_is_flagged_and_escapable() {
        let gated = SourceFile::parse(
            "crates/engine/src/x.rs".to_owned(),
            "#[cfg(feature = \"invariants\")]\n\
             fn gated(hub: &mut H) {\n    hub.emit(now, &e);\n}\n",
        );
        let clean = SourceFile::parse(
            "crates/engine/src/y.rs".to_owned(),
            "fn open(hub: &mut H) { hub.emit(now, &e); }\n\
             #[cfg(feature = \"invariants\")]\n\
             fn gated(hub: &mut H) {\n\
             \x20   // odb-analyzer: allow(observer_seam) — justified\n\
             \x20   hub.emit(now, &e);\n}\n",
        );
        let model = WorkspaceModel {
            root: std::path::PathBuf::new(),
            crates: vec![CrateModel {
                name: "engine".to_owned(),
                src_files: vec![gated, clean],
                src_rs_paths: Vec::new(),
            }],
            all_files: Vec::new(),
        };
        let mut out = Vec::new();
        ObserverSeamPass.run(&model, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, Lint::ObserverSeam);
        assert_eq!(out[0].path, "crates/engine/src/x.rs");
        assert_eq!(out[0].line, 3);
    }
}
