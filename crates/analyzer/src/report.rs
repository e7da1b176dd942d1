//! Violation types, lint identifiers, and text rendering.

use std::fmt;

/// Which lint produced a violation.
///
/// The [`Lint::name`] string is the stable id: it is what
/// `// odb-analyzer: allow(<lint>)` escapes name, what `--list-lints`
/// prints, and what the README lint catalog is drift-checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// `unwrap()`/`expect()`/`panic!`-family call in non-test simulation
    /// library code.
    Panic,
    /// `.acquire(` without canonical-order sorting.
    LockOrder,
    /// Floating-point simulated-time construction outside `des/src/time.rs`.
    RawTime,
    /// Observer-hook emission hidden inside a `#[cfg(feature = …)]` block.
    ObserverSeam,
    /// Stray file or orphan module.
    StrayFile,
    /// Heap allocation in an audited per-reference hot-path function.
    HotPathAlloc,
    /// Hash-ordered collection (`HashMap`/`HashSet`) in simulation code.
    UnorderedIteration,
    /// Wall-clock, environment, or pointer-identity input in simulation code.
    AmbientNondeterminism,
    /// RNG construction outside the seeded `SimOptions::for_point` path.
    RngDiscipline,
    /// Float reduction over an unordered or thread-collected source.
    FloatAccumulation,
    /// Completion-order collection of worker results (channel drains,
    /// `Mutex<Vec<…>>` pushes) in simulation code.
    ThreadCollection,
}

impl Lint {
    /// The short name used in output and in `odb-analyzer: allow(...)`
    /// markers.
    pub fn name(self) -> &'static str {
        match self {
            Lint::Panic => "panic",
            Lint::LockOrder => "lock_order",
            Lint::RawTime => "raw_time",
            Lint::ObserverSeam => "observer_seam",
            Lint::StrayFile => "stray_file",
            Lint::HotPathAlloc => "hot_path_alloc",
            Lint::UnorderedIteration => "unordered_iteration",
            Lint::AmbientNondeterminism => "ambient_nondeterminism",
            Lint::RngDiscipline => "rng_discipline",
            Lint::FloatAccumulation => "float_accumulation",
            Lint::ThreadCollection => "thread_collection",
        }
    }
}

/// One gate-failing finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The lint that fired.
    pub lint: Lint,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line number; 0 when the finding is about a whole file.
    pub line: usize,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Violation {
    /// A finding anchored at `path:line`.
    pub fn new(lint: Lint, path: &str, line: usize, message: String) -> Self {
        Violation {
            lint,
            path: path.to_owned(),
            line,
            message,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.lint.name(), self.path)?;
        if self.line > 0 {
            write!(f, ":{}", self.line)?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_with_and_without_anchor() {
        let v = Violation::new(Lint::RawTime, "crates/x/src/a.rs", 7, "msg".into());
        assert_eq!(v.to_string(), "[raw_time] crates/x/src/a.rs:7: msg");
        let w = Violation::new(Lint::StrayFile, "junk.tmp", 0, "msg".into());
        assert_eq!(w.to_string(), "[stray_file] junk.tmp: msg");
    }
}
