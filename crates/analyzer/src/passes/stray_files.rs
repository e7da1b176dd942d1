//! The stray-file pass: editor droppings and orphan modules.

use super::Pass;
use crate::report::{Lint, Violation};
use crate::source::{CrateModel, SourceFile, WorkspaceModel};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Extensions that mark editor/tooling droppings, plus the durability
/// layer's scratch state: run journals (`.journal`), atomic-write temp
/// files (`.part`) and result caches (`.cache`) are consumed or deleted
/// by the experiments binary and must never be committed.
const STRAY_SUFFIXES: &[&str] = &[
    ".tmp", ".bak", ".orig", ".rej", "~", ".journal", ".part", ".cache",
];

/// Flags stray files anywhere in the repository and orphan `.rs` modules
/// under any crate's `src/` tree.
pub struct StrayFilesPass;

impl Pass for StrayFilesPass {
    fn lint(&self) -> Lint {
        Lint::StrayFile
    }

    fn description(&self) -> &'static str {
        "editor droppings (*.tmp, *.bak, ...), run-journal/cache scratch state (*.journal, \
         *.part, *.cache) and orphan .rs modules no mod declaration reaches"
    }

    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>) {
        for path in &model.all_files {
            if STRAY_SUFFIXES.iter().any(|s| path.ends_with(s)) {
                out.push(Violation::new(
                    Lint::StrayFile,
                    path,
                    0,
                    "stray file (editor/tooling dropping); delete it or rename it into \
                     the tree properly"
                        .to_owned(),
                ));
            }
        }
        for krate in &model.crates {
            orphan_modules(krate, out);
        }
    }
}

/// Breadth-first module-reachability walk from the crate roots.
fn orphan_modules(krate: &CrateModel, out: &mut Vec<Violation>) {
    let files: HashMap<&str, &SourceFile> = krate
        .src_files
        .iter()
        .map(|f| (f.rel_path.as_str(), f))
        .collect();
    let all: BTreeSet<&str> = krate.src_rs_paths.iter().map(String::as_str).collect();
    let mut reachable: HashSet<String> = HashSet::new();
    let mut queue: VecDeque<String> = VecDeque::new();
    for path in &krate.src_rs_paths {
        // Roots: lib.rs, main.rs, anything under src/bin/.
        let is_root = path.ends_with("/src/lib.rs")
            || path.ends_with("/src/main.rs")
            || path.contains("/src/bin/");
        if is_root {
            reachable.insert(path.clone());
            queue.push_back(path.clone());
        }
    }
    while let Some(path) = queue.pop_front() {
        let Some(file) = files.get(path.as_str()) else { continue };
        // Directory that child modules resolve against: the file's own
        // directory for lib.rs/main.rs/mod.rs, otherwise a subdirectory
        // named after the file (2018-style `foo.rs` + `foo/bar.rs`).
        let (dir, stem) = split_dir_stem(&path);
        let base = if stem == "lib" || stem == "main" || stem == "mod" {
            dir.to_owned()
        } else {
            format!("{dir}/{stem}")
        };
        for (_, name) in file.external_mods() {
            for candidate in [
                format!("{base}/{name}.rs"),
                format!("{base}/{name}/mod.rs"),
            ] {
                if all.contains(candidate.as_str()) && reachable.insert(candidate.clone())
                {
                    queue.push_back(candidate);
                }
            }
        }
    }
    for path in &krate.src_rs_paths {
        if !reachable.contains(path) {
            out.push(Violation::new(
                Lint::StrayFile,
                path,
                0,
                format!(
                    "orphan module: no `mod` declaration reaches this file from \
                     crate `{}`'s roots",
                    krate.name
                ),
            ));
        }
    }
}

/// Splits `a/b/c.rs` into (`a/b`, `c`).
fn split_dir_stem(path: &str) -> (&str, &str) {
    let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    (dir, stem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_dir_stem_works() {
        assert_eq!(
            split_dir_stem("crates/des/src/time.rs"),
            ("crates/des/src", "time")
        );
    }
}
