//! The panic-site pass: `unwrap()`/`expect()`/`panic!`-family calls in
//! non-test library code of the simulation core.

use super::Pass;
use crate::report::{Lint, Violation};
use crate::source::{SourceFile, WorkspaceModel};

/// Crates whose library code must not panic (the simulation core).
pub const PANIC_AUDITED: &[&str] = &["core", "des", "engine", "memsim"];

/// Tokens that panic at runtime and are forbidden in library code.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Forbids `unwrap()`/`expect()`/`panic!`-family calls in non-test code
/// of the audited crates, honouring `// odb-analyzer: allow(panic)`.
pub struct PanicSites;

impl Pass for PanicSites {
    fn lint(&self) -> Lint {
        Lint::Panic
    }

    fn description(&self) -> &'static str {
        "unwrap()/expect()/panic!-family calls in non-test simulation library code"
    }

    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>) {
        for name in PANIC_AUDITED {
            let Some(krate) = model.get(name) else { continue };
            for file in &krate.src_files {
                for (line, token) in file_panic_sites(file) {
                    out.push(Violation::new(
                        Lint::Panic,
                        &file.rel_path,
                        line,
                        format!(
                            "panic site `{token}` in non-test library code; propagate a \
                             typed error instead (or annotate a documented contract panic \
                             with `// odb-analyzer: allow(panic)`)"
                        ),
                    ));
                }
            }
        }
    }
}

/// `(line_number, token)` for every panic site in `file`.
pub fn file_panic_sites(file: &SourceFile) -> Vec<(usize, &'static str)> {
    let mut sites = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test || line.allows("panic") {
            continue;
        }
        for token in PANIC_TOKENS {
            let mut from = 0;
            while let Some(pos) = line.code[from..].find(token) {
                from += pos + token.len();
                sites.push((i + 1, *token));
            }
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, text: &str) -> SourceFile {
        SourceFile::parse(rel.to_owned(), text)
    }

    #[test]
    fn panic_sites_skip_tests_allows_and_comments() {
        let f = file(
            "crates/core/src/x.rs",
            "\
fn a() { v.unwrap(); }            // one site (the comment text unwrap() is not)
fn b() { v.expect(\"m\"); }       // two
// odb-analyzer: allow(panic) — contract
fn c() { panic!(\"boom\"); }      // allowed
fn d() { v.unwrap_or_default(); } // not a site
#[cfg(test)]
mod tests { fn t() { v.unwrap(); } }
",
        );
        let sites = file_panic_sites(&f);
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert_eq!(sites[0], (1, ".unwrap()"));
        assert_eq!(sites[1], (2, ".expect("));
    }

    #[test]
    fn panic_family_macros_count() {
        let f = file(
            "x.rs",
            "fn a() { todo!() }\nfn b() { unreachable!(\"x\") }\nfn c() { unimplemented!() }\n",
        );
        // `todo!()` and `unimplemented!()` with no args still match the
        // `…!(` token form.
        assert_eq!(file_panic_sites(&f).len(), 3);
    }
}
