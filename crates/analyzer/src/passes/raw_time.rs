//! The raw-time pass: floating-point simulated-time construction is
//! confined to `crates/des/src/time.rs`.

use super::Pass;
use crate::report::{Lint, Violation};
use crate::source::WorkspaceModel;

/// The one file allowed to do floating-point simulated-time arithmetic.
pub const TIME_HOME: &str = "crates/des/src/time.rs";

/// Confines floating-point simulated-time construction to
/// `crates/des/src/time.rs`.
///
/// Two patterns are flagged outside that file (non-test code only):
///
/// * `from_secs_f64(` — raw float-seconds construction; use the clamping
///   helpers (`from_nanos_f64`, `from_millis_f64`, `SimTime::mul_f64`)
///   whose rounding contracts live in `time.rs`;
/// * a `from_nanos(`/`from_micros(`/`from_millis(`/`from_secs(` call with
///   an `as u64` cast on the same line — an ad-hoc float→time cast that
///   silently truncates and has no NaN story.
pub struct RawTimePass;

impl Pass for RawTimePass {
    fn lint(&self) -> Lint {
        Lint::RawTime
    }

    fn description(&self) -> &'static str {
        "floating-point SimTime construction outside crates/des/src/time.rs"
    }

    fn run(&self, model: &WorkspaceModel, out: &mut Vec<Violation>) {
        const CONSTRUCTORS: &[&str] = &[
            "from_nanos(",
            "from_micros(",
            "from_millis(",
            "from_secs(",
        ];
        for krate in &model.crates {
            for file in &krate.src_files {
                if file.rel_path == TIME_HOME {
                    continue;
                }
                for (i, line) in file.lines.iter().enumerate() {
                    if line.in_test || line.allows("raw_time") {
                        continue;
                    }
                    if line.code.contains("from_secs_f64(") {
                        out.push(Violation::new(
                            Lint::RawTime,
                            &file.rel_path,
                            i + 1,
                            "floating-point SimTime construction outside des/src/time.rs; \
                             use from_nanos_f64/from_millis_f64/mul_f64 (or annotate with \
                             `// odb-analyzer: allow(raw_time)`)"
                                .to_owned(),
                        ));
                    }
                    if line.code.contains("as u64")
                        && CONSTRUCTORS.iter().any(|c| line.code.contains(c))
                    {
                        out.push(Violation::new(
                            Lint::RawTime,
                            &file.rel_path,
                            i + 1,
                            "float→SimTime cast (`… as u64` inside a time constructor); \
                             use SimTime::from_nanos_f64, which owns the truncation \
                             contract"
                                .to_owned(),
                        ));
                    }
                }
            }
        }
    }
}
