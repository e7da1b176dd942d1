//! End-to-end tests: build a miniature workspace in a temp directory,
//! seed one violation per lint class, and check the gate trips — plus a
//! clean tree that must pass. This is the executable form of the
//! acceptance criterion "exits non-zero on a seeded violation of each
//! lint class and zero on the shipped tree".

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
            "odb-analyzer-test-{}-{}-{tag}",
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

fn crate_manifest(name: &str) -> String {
    format!("[package]\nname = \"odb-{name}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n")
}

/// The memsim path of the `trace.rs` hot-path audit entry.
const TRACE_RS: &str = "crates/memsim/src/trace.rs";

/// A stub source file declaring every audited function of `path` except
/// `omit`, followed by `extra`.
fn audited_stub(path: &str, omit: &str, extra: &str) -> String {
    let (_, functions) = HOT_PATH_AUDITED
        .iter()
        .find(|(p, _)| *p == path)
        .expect("audited path");
    let mut text = String::from("//! Stub.\n");
    for name in functions.iter().filter(|n| **n != omit) {
        text.push_str(&format!("pub fn {name}() {{}}\n"));
    }
    text.push_str(extra);
    text
}

/// Stubs every file and function the hot-path audit names, so each entry
/// has code to reach.
fn write_hot_path_stubs(t: &TempTree) {
    let mut lib = String::from("//! Minimal.\npub fn touch() -> u32 { 1 }\n");
    for (path, _) in HOT_PATH_AUDITED {
        let module = path
            .trim_start_matches("crates/memsim/src/")
            .trim_end_matches(".rs");
        lib.push_str(&format!("pub mod {module};\n"));
        t.write(path, &audited_stub(path, "", ""));
    }
    t.write("crates/memsim/src/lib.rs", &lib);
}

/// A minimal clean workspace: the audited crates exist with panic-free
/// libraries, and memsim carries the hot-path audit's functions as stubs.
fn clean_tree(tag: &str) -> TempTree {
    let t = TempTree::new(tag);
    t.write(
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n",
    );
    for name in ["core", "des", "engine", "memsim"] {
        t.write(&format!("crates/{name}/Cargo.toml"), &crate_manifest(name));
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

#[test]
fn clean_tree_passes() {
    let t = clean_tree("clean");
    assert_clean(&t.root);
}

/// A tree with no baseline file of any kind still fails on a single
/// `panic!`: nothing outside the source can excuse a panic site.
#[test]
fn missing_baseline_with_sites_trips() {
    let t = clean_tree("nobase");
    assert!(!t.root.join("crates/analyzer/baseline.toml").exists());
    t.write(
        "crates/core/src/lib.rs",
        "//! Doc.\npub fn bad() { panic!(\"boom\") }\n",
    );
    let fired = lints_fired(&t.root);
    assert_eq!(fired, vec![Lint::Panic], "fired: {fired:?}");
}

/// Every panic site fails the gate on its own: there is no count to
/// stay under, so one `unwrap()` or one `panic!` trips it. A
/// `#[cfg(test)]` field ends at its comma, so the production item after
/// it is still audited.
#[test]
fn seeded_panic_in_lib_trips_baseline() {
    for (tag, lib) in [
        (
            "panic-unwrap",
            "//! Doc.\npub fn bad(v: Option<u32>) -> u32 { v.unwrap() }\n",
        ),
        (
            "panic-after-test-field",
            "//! Doc.\npub struct S {\n    #[cfg(test)]\n    probe: u32,\n}\n\
             pub fn bad(v: Option<u32>) -> u32 { v.unwrap() }\n",
        ),
    ] {
        let t = clean_tree(tag);
        t.write("crates/core/src/lib.rs", lib);
        let fired = lints_fired(&t.root);
        assert_eq!(fired, vec![Lint::Panic], "{tag}");
    }
}

#[test]
fn test_code_and_allow_marker_do_not_trip() {
    let t = clean_tree("panic-ok");
    t.write(
        "crates/core/src/lib.rs",
        "//! Doc.\n\
         // odb-analyzer: allow(panic) — contract documented here\n\
         pub fn checked(v: Option<u32>) -> u32 { v.expect(\"always set\") }\n\
         #[cfg(test)]\n\
         mod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n",
    );
    assert_clean(&t.root);
}

#[test]
fn seeded_unsorted_acquire_trips_lock_order() {
    let t = clean_tree("lock");
    t.write(
        "crates/engine/src/lib.rs",
        "//! Doc.\npub fn grab(locks: &mut M, pid: u32, tgt: T) { locks.acquire(pid, tgt); }\n",
    );
    let fired = lints_fired(&t.root);
    assert!(fired.contains(&Lint::LockOrder), "fired: {fired:?}");

    // The same call site below a canonical_order sort is fine.
    let t2 = clean_tree("lock-ok");
    t2.write(
        "crates/engine/src/lib.rs",
        "//! Doc.\npub fn grab(locks: &mut M, pid: u32, mut ts: Vec<T>) {\n\
         \x20   ts.sort_by_key(canonical_order);\n\
         \x20   for t in ts { locks.acquire(pid, t); }\n}\n",
    );
    assert_clean(&t2.root);
}

#[test]
fn seeded_raw_time_arithmetic_trips() {
    let t = clean_tree("rawtime");
    t.write(
        "crates/engine/src/lib.rs",
        "//! Doc.\npub fn later(s: f64) -> SimTime { SimTime::from_secs_f64(s * 2.0) }\n",
    );
    let fired = lints_fired(&t.root);
    assert!(fired.contains(&Lint::RawTime), "fired: {fired:?}");

    // ...as does an ad-hoc float→u64 cast into a constructor.
    let t2 = clean_tree("rawtime-cast");
    t2.write(
        "crates/engine/src/lib.rs",
        "//! Doc.\npub fn later(ns: f64) -> SimTime { SimTime::from_nanos(ns as u64) }\n",
    );
    let fired2 = lints_fired(&t2.root);
    assert!(fired2.contains(&Lint::RawTime), "fired: {fired2:?}");

    // ...but the same text inside des/src/time.rs is the one home.
    let t3 = clean_tree("rawtime-home");
    t3.write(
        "crates/des/src/time.rs",
        "//! Time.\npub fn conv(ns: f64) -> u64 { ns as u64 }\n\
         pub fn mk(s: f64) -> SimTime { SimTime::from_secs_f64(s) }\n",
    );
    t3.write(
        "crates/des/src/lib.rs",
        "//! Minimal.\npub mod time;\npub fn touch() -> u32 { 1 }\n",
    );
    assert_clean(&t3.root);
}

#[test]
fn seeded_feature_gated_emit_trips_observer_seam() {
    let t = clean_tree("seam");
    t.write(
        "crates/engine/src/lib.rs",
        "//! Doc.\n\
         #[cfg(feature = \"invariants\")]\n\
         pub fn gated(hub: &mut H, now: T, e: &E) {\n\
         \x20   hub.emit(now, e);\n}\n",
    );
    let fired = lints_fired(&t.root);
    assert!(fired.contains(&Lint::ObserverSeam), "fired: {fired:?}");

    // The same emission outside the cfg block is the intended shape, and
    // feature-gating the *registration* is explicitly fine.
    let t2 = clean_tree("seam-ok");
    t2.write(
        "crates/engine/src/lib.rs",
        "//! Doc.\n\
         pub fn open(hub: &mut H, now: T, e: &E) { hub.emit(now, e); }\n\
         pub fn build(hub: &mut H) {\n\
         \x20   #[cfg(feature = \"invariants\")]\n\
         \x20   hub.register(Box::new(Checker::default()));\n}\n",
    );
    assert_clean(&t2.root);
}

#[test]
fn seeded_stray_file_trips() {
    let t = clean_tree("stray");
    t.write("crates/engine/Cargo.toml.tmp", "[package]\n");
    let fired = lints_fired(&t.root);
    assert!(fired.contains(&Lint::StrayFile), "fired: {fired:?}");
}

#[test]
fn seeded_durability_scratch_trips() {
    // Leftover durability-layer scratch state: a run journal that a
    // crashed sweep left behind, and an atomic-write temp file.
    for (name, path) in [
        ("stray-journal", "results/sweep.journal"),
        ("stray-part", "results/.table1.txt.part"),
        ("stray-cache", "results/sweep.cache"),
    ] {
        let t = clean_tree(name);
        t.write(path, "scratch\n");
        let fired = lints_fired(&t.root);
        assert!(fired.contains(&Lint::StrayFile), "{path}: fired: {fired:?}");
    }
}

#[test]
fn seeded_orphan_module_trips() {
    let t = clean_tree("orphan");
    // A module file with no `mod lost;` declaration anywhere.
    t.write(
        "crates/core/src/lost.rs",
        "//! Unreachable.\npub fn nobody_calls() {}\n",
    );
    let fired = lints_fired(&t.root);
    assert!(fired.contains(&Lint::StrayFile), "fired: {fired:?}");

    // Declaring it rescues it — both foo.rs and foo/mod.rs styles.
    let t2 = clean_tree("orphan-ok");
    t2.write(
        "crates/core/src/lib.rs",
        "//! Minimal.\npub mod found;\npub fn touch() -> u32 { 1 }\n",
    );
    t2.write(
        "crates/core/src/found.rs",
        "//! Reachable.\npub mod nested;\n",
    );
    t2.write(
        "crates/core/src/found/nested/mod.rs",
        "//! Reachable too.\npub fn f() {}\n",
    );
    assert_clean(&t2.root);
}

#[test]
fn seeded_hot_path_allocation_trips() {
    let t = clean_tree("hotalloc");
    t.write(
        TRACE_RS,
        &audited_stub(
            TRACE_RS,
            "run_chunk",
            "pub fn run_chunk(hs: &mut [H]) {\n\
             \x20   let refs: Vec<&mut H> = hs.iter_mut().collect();\n\
             \x20   drop(refs);\n}\n",
        ),
    );
    let fired = lints_fired(&t.root);
    assert!(fired.contains(&Lint::HotPathAlloc), "fired: {fired:?}");

    // The same allocation outside an audited function is fine.
    let t2 = clean_tree("hotalloc-ok");
    t2.write(
        TRACE_RS,
        &audited_stub(
            TRACE_RS,
            "",
            "pub fn setup(hs: &mut [H]) -> Vec<&mut H> {\n\
             \x20   hs.iter_mut().collect()\n}\n",
        ),
    );
    assert_clean(&t2.root);

    // The line escape silences an audited function's allocation.
    let t3 = clean_tree("hotalloc-escape");
    t3.write(
        TRACE_RS,
        &audited_stub(
            TRACE_RS,
            "run_chunk",
            "pub fn run_chunk(hs: &mut [H]) {\n\
             \x20   // odb-analyzer: allow(hot_path_alloc) — justified\n\
             \x20   let refs: Vec<&mut H> = hs.iter_mut().collect();\n\
             \x20   drop(refs);\n}\n",
        ),
    );
    assert_clean(&t3.root);
}

/// An audit entry that reaches no code is itself a violation: a renamed
/// function, one declared only in test code, and a deleted file each
/// trip the gate, naming the stale entry.
#[test]
fn seeded_stale_hot_path_entries_trip() {
    let stale = |t: &TempTree, path: &str, needle: &str| {
        let violations = odb_analyzer::analyze(&t.root).expect("analysis runs");
        assert!(
            violations.iter().any(|v| v.lint == Lint::HotPathAlloc
                && v.path == path
                && v.message.contains(needle)),
            "expected a stale-entry violation for {path} ({needle}), got: {violations:?}"
        );
    };

    let t = clean_tree("hotstale-renamed");
    t.write(
        TRACE_RS,
        &audited_stub(TRACE_RS, "run_chunk", "pub fn run_chunk_renamed() {}\n"),
    );
    stale(&t, TRACE_RS, "`run_chunk`");

    let t2 = clean_tree("hotstale-test-only");
    t2.write(
        TRACE_RS,
        &audited_stub(
            TRACE_RS,
            "run_chunk",
            "#[cfg(test)]\nmod tests {\n    fn run_chunk() {}\n}\n",
        ),
    );
    stale(&t2, TRACE_RS, "`run_chunk`");

    let t3 = clean_tree("hotstale-file");
    fs::remove_file(t3.root.join("crates/memsim/src/tlb.rs")).expect("remove tlb.rs");
    stale(&t3, "crates/memsim/src/tlb.rs", "does not exist");
}

/// Smoke-test the actual binary when cargo provides its path (skipped
/// under bare-rustc test builds).
#[test]
fn binary_exit_codes() {
    let Some(bin) = option_env!("CARGO_BIN_EXE_odb-analyzer") else {
        return;
    };
    let t = clean_tree("bin-clean");
    let ok = std::process::Command::new(bin)
        .args(["--root"])
        .arg(&t.root)
        .output()
        .expect("run analyzer binary");
    assert!(
        ok.status.success(),
        "clean tree should exit 0; stdout: {}",
        String::from_utf8_lossy(&ok.stdout)
    );

    let t2 = clean_tree("bin-dirty");
    t2.write("junk.tmp", "scratch\n");
    let bad = std::process::Command::new(bin)
        .args(["--root"])
        .arg(&t2.root)
        .output()
        .expect("run analyzer binary");
    assert_eq!(
        bad.status.code(),
        Some(1),
        "stray file should exit 1; stdout: {}",
        String::from_utf8_lossy(&bad.stdout)
    );
}
