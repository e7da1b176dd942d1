//! End-to-end tests for the determinism-audit pass family: each lint
//! gets a positive fixture (must trip) and a negative fixture (must stay
//! quiet), seeded into a miniature workspace — plus the self-audit test
//! that `odb-analyzer` runs clean on its own tree.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use odb_analyzer::passes::hot_path_alloc::HOT_PATH_AUDITED;
use odb_analyzer::report::Lint;

static NEXT: AtomicUsize = AtomicUsize::new(0);

/// A throwaway workspace root, removed on drop.
struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(tag: &str) -> TempTree {
        let root = std::env::temp_dir().join(format!(
            "odb-analyzer-det-{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&root).expect("create temp root");
        TempTree { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        fs::write(path, content).expect("write file");
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Stubs every file and function the hot-path audit names, so each entry
/// has code to reach.
fn write_hot_path_stubs(t: &TempTree) {
    let mut lib = String::from("//! Minimal.\npub fn touch() -> u32 { 1 }\n");
    for (path, functions) in HOT_PATH_AUDITED {
        let module = path
            .trim_start_matches("crates/memsim/src/")
            .trim_end_matches(".rs");
        lib.push_str(&format!("pub mod {module};\n"));
        let stubs: String = functions
            .iter()
            .map(|name| format!("pub fn {name}() {{}}\n"))
            .collect();
        t.write(path, &format!("//! Stub.\n{stubs}"));
    }
    t.write("crates/memsim/src/lib.rs", &lib);
}

/// A minimal clean workspace covering every determinism-audited crate
/// (memsim carrying the hot-path audit's functions as stubs).
fn clean_tree(tag: &str) -> TempTree {
    let t = TempTree::new(tag);
    t.write(
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n",
    );
    for name in ["core", "des", "engine", "memsim", "ossim", "iosim"] {
        t.write(
            &format!("crates/{name}/Cargo.toml"),
            &format!("[package]\nname = \"odb-{name}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n"),
        );
        t.write(
            &format!("crates/{name}/src/lib.rs"),
            "//! Minimal.\npub fn touch() -> u32 { 1 }\n",
        );
    }
    write_hot_path_stubs(&t);
    t
}

fn lints_fired(root: &Path) -> Vec<Lint> {
    let violations = odb_analyzer::analyze(root).expect("analysis runs");
    violations.iter().map(|v| v.lint).collect()
}

fn assert_clean(root: &Path) {
    let violations = odb_analyzer::analyze(root).expect("analysis runs");
    assert!(violations.is_empty(), "expected clean, got: {violations:?}");
}

/// Seeds `fixture` as `crates/des/src/lib.rs` and returns the fired
/// lints.
fn fired_with_fixture(tag: &str, fixture: &str) -> Vec<Lint> {
    let t = clean_tree(tag);
    t.write("crates/des/src/lib.rs", fixture);
    lints_fired(&t.root)
}

#[test]
fn determinism_clean_tree_passes() {
    let t = clean_tree("clean");
    assert_clean(&t.root);
}

#[test]
fn unordered_iteration_positive_trips() {
    let fired = fired_with_fixture(
        "unord-pos",
        include_str!("fixtures/unordered_iteration_pos.rs"),
    );
    assert!(fired.contains(&Lint::UnorderedIteration), "fired: {fired:?}");
}

#[test]
fn unordered_iteration_negative_is_quiet() {
    let fired = fired_with_fixture(
        "unord-neg",
        include_str!("fixtures/unordered_iteration_neg.rs"),
    );
    assert!(fired.is_empty(), "fired: {fired:?}");
}

#[test]
fn ambient_nondeterminism_positive_trips() {
    let fired = fired_with_fixture(
        "ambient-pos",
        include_str!("fixtures/ambient_nondeterminism_pos.rs"),
    );
    assert!(
        fired.contains(&Lint::AmbientNondeterminism),
        "fired: {fired:?}"
    );
}

#[test]
fn ambient_nondeterminism_negative_is_quiet() {
    let fired = fired_with_fixture(
        "ambient-neg",
        include_str!("fixtures/ambient_nondeterminism_neg.rs"),
    );
    assert!(fired.is_empty(), "fired: {fired:?}");
}

#[test]
fn rng_discipline_positive_trips_both_shapes() {
    let t = clean_tree("rng-pos");
    t.write(
        "crates/des/src/lib.rs",
        include_str!("fixtures/rng_discipline_pos.rs"),
    );
    let violations = odb_analyzer::analyze(&t.root).expect("analysis runs");
    let rng: Vec<_> = violations
        .iter()
        .filter(|v| v.lint == Lint::RngDiscipline)
        .collect();
    assert_eq!(rng.len(), 2, "entropy + literal seed: {rng:?}");
}

#[test]
fn rng_discipline_negative_is_quiet() {
    let fired = fired_with_fixture("rng-neg", include_str!("fixtures/rng_discipline_neg.rs"));
    assert!(fired.is_empty(), "fired: {fired:?}");
}

#[test]
fn float_accumulation_positive_trips() {
    let fired = fired_with_fixture(
        "float-pos",
        include_str!("fixtures/float_accumulation_pos.rs"),
    );
    assert_eq!(
        fired,
        vec![Lint::FloatAccumulation],
        "the fixture isolates exactly one lint"
    );
}

#[test]
fn float_accumulation_negative_is_quiet() {
    let fired = fired_with_fixture(
        "float-neg",
        include_str!("fixtures/float_accumulation_neg.rs"),
    );
    assert!(fired.is_empty(), "fired: {fired:?}");
}

/// The acceptance criterion in executable form: the analyzer runs clean
/// on the workspace it ships in. Skipped when the build location no
/// longer looks like the workspace (e.g. a copied-out binary).
#[test]
fn self_audit_own_tree_is_clean() {
    let Some(manifest) = option_env!("CARGO_MANIFEST_DIR") else {
        return;
    };
    let root = Path::new(manifest).join("..").join("..");
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return;
    }
    let violations = odb_analyzer::analyze(&root).expect("analysis runs");
    assert!(
        violations.is_empty(),
        "self-audit found violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
