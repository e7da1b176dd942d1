//! `odb-analyzer` — the workspace static-analysis gate.
//!
//! Exit status: 0 clean, 1 violations found, 2 usage/internal error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
odb-analyzer — static-analysis gate for the odb-scaling workspace

USAGE:
    cargo run -p odb-analyzer [-- OPTIONS]

OPTIONS:
    --root <DIR>         workspace root (default: autodetected)
    --list-lints         print one line per registered lint (id first) and exit
    --help               show this help

Run `--list-lints` for the pass catalog.
Escape hatch: `// odb-analyzer: allow(<lint>)` on the offending line or
the line directly above it.";

struct Options {
    root: Option<PathBuf>,
    list_lints: bool,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        root: None,
        list_lints: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--list-lints" => opts.list_lints = true,
            "--root" => {
                let dir = args.next().ok_or("--root requires a directory argument")?;
                opts.root = Some(PathBuf::from(dir));
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }
    Ok(Some(opts))
}

/// The workspace root: `--root` if given, else the manifest-relative
/// location this binary was built from, else the current directory.
fn find_root(opts: &Options) -> PathBuf {
    if let Some(root) = &opts.root {
        return root.clone();
    }
    // When run via `cargo run -p odb-analyzer`, the manifest dir is
    // <root>/crates/analyzer at compile time and the workspace layout is
    // fixed, so ../../ is the root — but only trust it if it still looks
    // like this workspace (the binary may have been copied elsewhere, or
    // built outside cargo, where the env var is absent).
    if let Some(manifest) = option_env!("CARGO_MANIFEST_DIR") {
        let compiled = std::path::Path::new(manifest).join("..").join("..");
        if compiled.join("Cargo.toml").is_file() && compiled.join("crates").is_dir() {
            return compiled;
        }
    }
    PathBuf::from(".")
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };

    if opts.list_lints {
        // One line per pass: the stable id first (machine-parsed by the
        // ci drift check against the README catalog), then the
        // description.
        for pass in odb_analyzer::passes::registry() {
            println!("{:<24} {}", pass.lint().name(), pass.description());
        }
        return ExitCode::SUCCESS;
    }

    let violations = match odb_analyzer::analyze(&find_root(&opts)) {
        Ok(violations) => violations,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };
    if violations.is_empty() {
        println!("odb-analyzer: clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("{v}");
        }
        println!("odb-analyzer: {} violation(s) — see above", violations.len());
        ExitCode::FAILURE
    }
}
