//! CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! odb-experiments <command> [--out DIR] [--quick] [--jobs N]
//!
//! Commands:
//!   all         every artifact below, in paper order
//!   table1      clients for ≥90% CPU utilization
//!   fig2        TPS vs W and P, with operating regions
//!   fig3        CPU utilization split (OS vs user)
//!   fig4..fig6  IPX total / user / OS
//!   fig7        disk I/O per transaction by kind
//!   fig8        context switches per transaction
//!   fig9..fig11 CPI total / user / OS
//!   table2..4   counter events, stall costs, component formulas
//!   fig12       CPI breakdown by event
//!   fig13..15   L3 MPI total / user / OS
//!   fig16       bus-transaction (IOQ) time and bus utilization
//!   fig17 fig18 two-segment fits with pivot points (4P)
//!   table5      pivot points for 1P/2P/4P + representative workload
//!   latency     commit-latency quantiles by transaction type (4P)
//!   fig19       Itanium2 CPI scaling (§6.3)
//!   extrapolate §6.2 projection accuracy check
//!   charts      ASCII line charts of the headline figures
//!   scorecard   automatic comparison against the paper's printed numbers
//!   variance    seed-to-seed variability of the headline metrics
//!   report      self-contained HTML report with SVG charts
//!   ablations   coherence / L3 size / bus / disks / replacement studies
//! ```
//!
//! Results print to stdout and are mirrored as CSV under `--out`
//! (default `results/`). `--quick` trades fidelity for speed. `--jobs N`
//! runs sweep points on `N` worker threads (default: all host cores);
//! output is bit-identical for every `N` thanks to per-point
//! deterministic seeding — see `odb_experiments::runner`.
//! `--within-point-jobs N` additionally parallelizes the reference
//! stream *inside* each point's cache characterization (also
//! bit-neutral), and `--thread-budget N` caps the product of the two
//! layers; a shape that cannot fit the budget is a usage error.

use odb_core::config::SystemConfig;
use odb_experiments::figures;
use odb_experiments::persist::write_atomic;
use odb_experiments::report::TextTable;
use odb_experiments::runner::{Sweep, SweepOptions};
use std::path::{Path, PathBuf};

/// `--help` text (the command list lives in the crate docs above).
const HELP: &str = "\
odb-experiments — regenerate the paper's tables and figures

Usage: odb-experiments [<command>] [--out DIR] [--quick] [--jobs N]
                       [--within-point-jobs N] [--thread-budget N]
                       [--trace FILE] [--resume JOURNAL]

Commands (default `all`): all, table1..table5, fig2..fig19, latency,
extrapolate, charts, scorecard, variance, report, ablations.

Options:
  --out DIR    Mirror artifacts under DIR (default `results/`).
  --quick      Trade fidelity for speed (tests and smoke runs).
  --jobs N     Run sweep points on N worker threads (default: all host
               cores). Every N produces bit-identical artifacts: each
               (W, P) point derives its seed from the point itself, and
               rows are collected in grid order regardless of which
               worker finishes first.
  --within-point-jobs N
               Request N worker threads *inside* each point's cache
               characterization (default 1 = serial). Bit-neutral: any
               N reproduces the serial artifacts byte for byte. The
               realized width is arbitrated against --jobs under the
               thread budget so the two layers never multiply.
  --thread-budget N
               Total simulation threads shared by --jobs and
               --within-point-jobs (default: max of the two). Rejected
               with a usage error when --jobs x --within-point-jobs
               exceeds it.
  --trace FILE Run the representative workload (100W/48C/4P) with a
               trace observer registered and write its seam events as
               JSON Lines to FILE. With no command, only the trace runs.
  --resume JOURNAL
               Resume an interrupted sweep from its run journal
               (written as `sweep.journal` next to the artifacts while
               a sweep runs). Completed points are replayed from the
               journal — byte-identical to an uninterrupted run — and
               only the remainder is simulated. The journal must match
               this invocation's options and code version.
  --help       Print this help.

Environment:
  ODB_REPLAY_SWEEP=FILE  Rebuild artifacts from a saved sweep.csv
                         instead of re-simulating.
  ODB_CRASH_AFTER_POINTS=N  Testing only: exit(3) after N sweep points
                         have been journalled (drives the ci.sh resume
                         smoke test).
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut out_dir = PathBuf::from("results");
    let mut quick = false;
    let mut jobs: Option<usize> = None;
    let mut within_point_jobs: Option<usize> = None;
    let mut thread_budget: Option<usize> = None;
    let mut trace: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print!("{HELP}");
                return;
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) if !dir.is_empty() => out_dir = PathBuf::from(dir),
                    _ => {
                        eprintln!("--out needs an output directory");
                        std::process::exit(2);
                    }
                }
            }
            "--quick" => quick = true,
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(path) if !path.is_empty() => trace = Some(PathBuf::from(path)),
                    _ => {
                        eprintln!("--trace needs an output file path");
                        std::process::exit(2);
                    }
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => jobs = Some(n),
                    _ => {
                        eprintln!("--jobs needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--within-point-jobs" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => within_point_jobs = Some(n),
                    _ => {
                        eprintln!("--within-point-jobs needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--thread-budget" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => thread_budget = Some(n),
                    _ => {
                        eprintln!("--thread-budget needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--resume" => {
                i += 1;
                match args.get(i) {
                    Some(path) if !path.is_empty() => resume = Some(PathBuf::from(path)),
                    _ => {
                        eprintln!("--resume needs a run-journal path");
                        std::process::exit(2);
                    }
                }
            }
            arg if command.is_none() => command = Some(arg.to_owned()),
            arg => {
                eprintln!("unexpected argument `{arg}` (see --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // `--trace` with no command means "just the trace": don't drag the
    // full 27-point sweep in behind an event dump.
    let trace_only = trace.is_some() && command.is_none();
    let command = command.unwrap_or_else(|| "all".to_owned());
    let jobs = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let mut options = if quick {
        SweepOptions::quick()
    } else {
        SweepOptions::standard()
    }
    .with_jobs(jobs);
    if let Some(wpj) = within_point_jobs {
        options = options.with_within_point_jobs(wpj);
    }
    if let Some(budget) = thread_budget {
        options = options.with_thread_budget(budget);
    }
    // Fail a contradictory parallelism shape in milliseconds as a usage
    // error, not after a multi-minute sweep as 27 per-point failures.
    if let Err(e) = options.validate() {
        eprintln!("error: {e} (see --help)");
        std::process::exit(2);
    }
    if !trace_only {
        if let Err(e) = run(&command, &options, &out_dir, resume.as_deref()) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = trace {
        if let Err(e) = write_trace(&path, &options) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the representative workload with the JSONL trace observer and
/// writes its event stream to `path` (the `--trace` flag).
fn write_trace(path: &Path, options: &SweepOptions) -> CmdResult {
    eprintln!("tracing the representative workload (100W/48C/4P)...");
    let lines =
        odb_experiments::latency::trace_to_file(&SystemConfig::xeon_quad(), options, path)?;
    eprintln!("wrote {lines} trace events to {}", path.display());
    Ok(())
}

type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// How a command produces its artifact. The variant decides whether the
/// shared Xeon sweep is prepared at all — `table2` alone must never
/// trigger a 27-point simulation.
enum Handler {
    /// A paper-constant table: no simulation at all.
    Static(&'static str, fn() -> TextTable),
    /// A table projected from the shared Xeon sweep.
    Table(&'static str, fn(&Sweep) -> TextTable),
    /// Like `Table`, for projections that can fail.
    Fallible(&'static str, fn(&Sweep) -> Result<TextTable, odb_core::Error>),
    /// Full custom access to the shared sweep (fit titles, HTML, …).
    Custom(fn(&Sweep, &SweepOptions, &Path) -> CmdResult),
    /// Runs its own simulations, independent of the shared sweep.
    Standalone(fn(&SweepOptions, &Path) -> CmdResult),
}

/// The one command table: drives both the up-front validation (a typo
/// fails in milliseconds instead of after a multi-minute sweep) and
/// dispatch, so the two cannot drift. Table order is `all`'s execution
/// order — the paper's artifact order.
const COMMANDS: &[(&str, Handler)] = &[
    ("table1", Handler::Table("Table 1: clients at 90% CPU utilization (* = target unreachable)", figures::table1)),
    ("fig2", Handler::Table("Figure 2: ODB TPS with P and W scaling", figures::fig2)),
    ("fig3", Handler::Table("Figure 3: CPU utilization split, OS and user (%)", figures::fig3)),
    ("fig4", Handler::Table("Figure 4: millions of instructions per transaction", figures::fig4)),
    ("fig5", Handler::Table("Figure 5: user-space IPX (millions)", figures::fig5)),
    ("fig6", Handler::Table("Figure 6: OS-space IPX (millions)", figures::fig6)),
    ("fig7", Handler::Table("Figure 7: disk I/O per transaction (KB), 4P", fig7_4p)),
    ("fig8", Handler::Table("Figure 8: context switches per transaction", figures::fig8)),
    ("fig9", Handler::Table("Figure 9: overall CPI", figures::fig9)),
    ("fig10", Handler::Table("Figure 10: user-space CPI", figures::fig10)),
    ("fig11", Handler::Table("Figure 11: OS-space CPI", figures::fig11)),
    ("table2", Handler::Static("Table 2: performance-monitoring events", figures::table2)),
    ("table3", Handler::Static("Table 3: clock-cycle cost per event", figures::table3)),
    ("table4", Handler::Static("Table 4: CPI component formulas", figures::table4)),
    ("fig12", Handler::Table("Figure 12: CPI breakdown by event, 4P", fig12_4p)),
    ("fig13", Handler::Table("Figure 13: L3 misses per instruction (x1000)", figures::fig13)),
    ("fig14", Handler::Table("Figure 14: user-space MPI (x1000)", figures::fig14)),
    ("fig15", Handler::Table("Figure 15: OS-space MPI (x1000)", figures::fig15)),
    ("fig16", Handler::Table("Figure 16: bus-transaction time in the IOQ (cycles)", figures::fig16)),
    ("fig17", Handler::Custom(fig17)),
    ("fig18", Handler::Custom(fig18)),
    ("table5", Handler::Fallible("Table 5: warehouses at the CPI/MPI pivot points", figures::table5)),
    ("latency", Handler::Custom(latency)),
    ("extrapolate",Handler::Fallible("Section 6.2: extrapolation from configurations <= 300W (4P CPI)", extrapolate)),
    ("scorecard", Handler::Custom(scorecard)),
    ("report", Handler::Custom(report)),
    ("charts", Handler::Custom(charts)),
    ("fig19", Handler::Standalone(fig19)),
    ("ablations", Handler::Standalone(ablations)),
    ("variance", Handler::Standalone(variance)),
];

fn run(command: &str, options: &SweepOptions, out: &Path, resume: Option<&Path>) -> CmdResult {
    let all = command == "all";
    if !all && !COMMANDS.iter().any(|(name, _)| *name == command) {
        eprintln!("unknown command `{command}`; see --help");
        std::process::exit(2);
    }
    std::fs::create_dir_all(out)?;
    let selected: Vec<&(&str, Handler)> = COMMANDS
        .iter()
        .filter(|(name, _)| all || *name == command)
        .collect();

    let needs_sweep = selected
        .iter()
        .any(|(_, h)| !matches!(h, Handler::Static(..) | Handler::Standalone(..)));
    let sweep = if needs_sweep {
        Some(xeon_sweep(options, out, resume)?)
    } else {
        None
    };
    let shared = || sweep.as_ref().ok_or("internal: sweep not prepared");
    for (name, handler) in selected {
        match handler {
            Handler::Static(title, table) => emit(out, name, title, &table())?,
            Handler::Table(title, table) => emit(out, name, title, &table(shared()?))?,
            Handler::Fallible(title, table) => emit(out, name, title, &table(shared()?)?)?,
            Handler::Custom(f) => f(shared()?, options, out)?,
            Handler::Standalone(f) => f(options, out)?,
        }
    }
    Ok(())
}

/// The shared Xeon sweep behind the table/figure commands: replayed
/// from `ODB_REPLAY_SWEEP` when set, else simulated through the run
/// journal (crash-safe, resumable via `--resume`) and archived as
/// `sweep.csv` for later replay.
fn xeon_sweep(
    options: &SweepOptions,
    out: &Path,
    resume: Option<&Path>,
) -> Result<Sweep, Box<dyn std::error::Error>> {
    use odb_experiments::journal::{self, ResultCache, RunHeader};
    if let Some(path) = std::env::var_os("ODB_REPLAY_SWEEP") {
        eprintln!("replaying sweep from {}...", path.to_string_lossy());
        return Ok(odb_experiments::persist::sweep_from_csv(
            &std::fs::read_to_string(path)?,
        )?);
    }
    let system = SystemConfig::xeon_quad();
    let points = odb_experiments::paper_ladder();
    let header = RunHeader::for_run(&system, options, &points);
    // Test-only crash injection (the ci.sh resume smoke test): exit(3)
    // once N fresh points have been journalled.
    let crash_after = std::env::var("ODB_CRASH_AFTER_POINTS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let journal_path = resume.map_or_else(|| out.join("sweep.journal"), Path::to_path_buf);
    let cache = match resume {
        Some(path) => {
            eprintln!("resuming from run journal {}...", path.display());
            let (cache, summary) = ResultCache::resume(path, &header, crash_after)?;
            if summary.truncated_tail {
                eprintln!("  discarded a torn final record (crash mid-append)");
            }
            for failure in &summary.prior_failures {
                eprintln!("  prior run failed at {failure}; re-running that point");
            }
            eprintln!(
                "  replayed {} measured points, {} probes, {} client searches",
                summary.replayed_points, summary.replayed_probes, summary.replayed_searches
            );
            cache
        }
        None => {
            if journal_path.exists() {
                eprintln!(
                    "note: overwriting leftover run journal {} (use --resume to continue it)",
                    journal_path.display()
                );
            }
            ResultCache::recording(&journal_path, &header, crash_after)?
        }
    };
    eprintln!("running the Xeon sweep (27 configurations with client search)...");
    let run_options = options.clone().with_cache(std::sync::Arc::clone(&cache));
    let sweep = Sweep::run_points(&system, &run_options, &points);
    for ((p, w), e) in sweep.failures() {
        eprintln!("sweep point (W={w}, P={p}) failed: {e}");
    }
    // Archive the rows that did measure before gating, so a partial
    // ladder is still inspectable after a failure.
    write_atomic(
        &out.join("sweep.csv"),
        odb_experiments::persist::sweep_to_csv(&sweep).as_bytes(),
    )?;
    // Surface any deferred journal I/O error before deciding the
    // journal's fate — a sweep whose safety net silently failed must
    // not report success.
    cache.finish()?;
    match sweep.ensure_complete() {
        Ok(()) => {
            // Every point measured: the journal has served its purpose.
            journal::remove_journal(&journal_path)?;
            Ok(sweep)
        }
        Err(e) => {
            eprintln!(
                "run journal kept at {p}; re-run with `--resume {p}` to continue",
                p = journal_path.display()
            );
            Err(e.into())
        }
    }
}

fn fig7_4p(sweep: &Sweep) -> TextTable {
    figures::fig7(sweep, 4)
}

fn fig12_4p(sweep: &Sweep) -> TextTable {
    figures::fig12(sweep, 4)
}

fn extrapolate(sweep: &Sweep) -> Result<TextTable, odb_core::Error> {
    figures::extrapolation_check(sweep, 4, 300)
}

/// The `latency` command: re-run the 4P trend points with the latency
/// observer registered and report per-transaction-type commit-latency
/// quantiles as a table, CSV, and an ASCII chart (`latency_chart.txt`).
fn latency(sweep: &Sweep, options: &SweepOptions, out: &Path) -> CmdResult {
    use odb_experiments::chart::{ascii_chart, ChartOptions};
    eprintln!("running the commit-latency study (trend warehouses, 4P)...");
    let points = odb_experiments::latency::measure(&SystemConfig::xeon_quad(), sweep, options)?;
    emit(
        out,
        "latency",
        "Commit latency by transaction type (4P, log2-bucket upper bounds, ms)",
        &odb_experiments::latency::table(&points),
    )?;
    let chart = ascii_chart(
        "Commit latency vs warehouses (4P, ms)",
        &odb_experiments::latency::series(&points),
        ChartOptions::default(),
    );
    println!("{chart}");
    write_atomic(&out.join("latency_chart.txt"), chart.as_bytes())?;
    Ok(())
}

fn fig17(sweep: &Sweep, _options: &SweepOptions, out: &Path) -> CmdResult {
    let r = figures::fig17(sweep, 4)?;
    let title = fit_title("Figure 17: CPI linear approximation, 4P", &r);
    emit(out, "fig17", &title, &r.table)
}

fn fig18(sweep: &Sweep, _options: &SweepOptions, out: &Path) -> CmdResult {
    let r = figures::fig18(sweep, 4)?;
    let title = fit_title("Figure 18: MPI linear approximation, 4P", &r);
    emit(out, "fig18", &title, &r.table)
}

fn scorecard(sweep: &Sweep, _options: &SweepOptions, out: &Path) -> CmdResult {
    let checks = odb_experiments::scorecard::scorecard(sweep)?;
    let table = odb_experiments::scorecard::render(&checks);
    let passed = checks.iter().filter(|c| c.pass).count();
    emit(
        out,
        "scorecard",
        &format!(
            "Scorecard: measured vs published anchors ({passed}/{} pass)",
            checks.len()
        ),
        &table,
    )
}

fn report(sweep: &Sweep, _options: &SweepOptions, out: &Path) -> CmdResult {
    let html = odb_experiments::html::report(sweep)?;
    write_atomic(&out.join("report.html"), html.as_bytes())?;
    eprintln!("wrote {}", out.join("report.html").display());
    Ok(())
}

/// Renders the headline figures as ASCII line charts into charts.txt.
fn charts(sweep: &Sweep, _options: &SweepOptions, out: &Path) -> CmdResult {
    use odb_experiments::chart::{ascii_chart, ChartOptions};
    use odb_experiments::figures::metric_series;
    let options = ChartOptions::default();
    let mut rendered = String::new();
    let mut add = |title: &str, series: Vec<odb_core::series::Series>| {
        rendered.push_str(&ascii_chart(title, &series, options));
        rendered.push('\n');
    };
    add(
        "Figure 2: TPS vs warehouses",
        metric_series(sweep, |r| r.measurement.tps()),
    );
    add(
        "Figure 4: IPX (millions) vs warehouses",
        metric_series(sweep, |r| r.measurement.ipx() / 1e6),
    );
    add(
        "Figure 8: context switches per transaction",
        metric_series(sweep, |r| r.measurement.context_switches_per_txn),
    );
    add(
        "Figure 9: CPI vs warehouses (note the knee near the pivot)",
        metric_series(sweep, |r| r.measurement.cpi()),
    );
    add(
        "Figure 13: L3 MPI x1000 (P-independent, saturating)",
        metric_series(sweep, |r| r.measurement.mpi() * 1e3),
    );
    add(
        "Figure 16: IOQ bus-transaction time (cycles)",
        metric_series(sweep, |r| r.measurement.bus_transaction_cycles),
    );
    println!("{rendered}");
    write_atomic(&out.join("charts.txt"), rendered.as_bytes())?;
    Ok(())
}

/// Multi-seed variability study (the paper's reference [2], Alameldeen &
/// Wood, motivates reporting it): how much do the headline metrics move
/// across seeds at fixed configuration and fidelity?
fn variance(options: &SweepOptions, out: &Path) -> Result<(), Box<dyn std::error::Error>> {
    use odb_core::config::{OltpConfig, WorkloadConfig};
    let seeds = 6u64;
    eprintln!("running the seed-variability study ({seeds} seeds at 100W/48C/4P)...");
    let mut tps = Vec::new();
    let mut cpi = Vec::new();
    let mut mpi = Vec::new();
    let mut cs = Vec::new();
    for seed in 0..seeds {
        let config = OltpConfig::new(
            WorkloadConfig::new(100, 48)?,
            SystemConfig::xeon_quad(),
        )?;
        let mut opts = options.measure.clone();
        opts.seed = 1000 + seed;
        let m = odb_engine::OdbSimulator::new(config, opts)?.run()?;
        tps.push(m.tps());
        cpi.push(m.cpi());
        mpi.push(m.mpi() * 1e3);
        cs.push(m.context_switches_per_txn);
    }
    let stats = |vs: &[f64]| -> (f64, f64) {
        let n = vs.len() as f64;
        let mean = vs.iter().sum::<f64>() / n;
        let sd = (vs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
        (mean, sd)
    };
    let mut t = TextTable::new(vec![
        "metric".into(),
        "mean".into(),
        "stddev".into(),
        "CoV %".into(),
    ]);
    for (name, vs) in [
        ("TPS", &tps),
        ("CPI", &cpi),
        ("MPI x1000", &mpi),
        ("cs/txn", &cs),
    ] {
        let (mean, sd) = stats(vs);
        t.row(vec![
            name.into(),
            format!("{mean:.3}"),
            format!("{sd:.3}"),
            format!("{:.2}", 100.0 * sd / mean),
        ]);
    }
    emit(
        out,
        "variance",
        &format!("Seed-to-seed variability at 100W/48C/4P ({seeds} seeds)"),
        &t,
    )
}

fn fit_title(base: &str, r: &figures::FitReport) -> String {
    match r.pivot {
        Some((x, y)) => format!(
            "{base} — cached: y = {:.5}x + {:.3}; scaled: y = {:.5}x + {:.3}; pivot at {:.0} warehouses (y = {:.3})",
            r.fit.cached.slope, r.fit.cached.intercept, r.fit.scaled.slope, r.fit.scaled.intercept, x, y
        ),
        None => format!("{base} — segments are parallel (no pivot)"),
    }
}

fn fig19(options: &SweepOptions, out: &Path) -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("running the Itanium2 sweep (8 configurations, 4P)...");
    let (_sweep, report) = figures::fig19(options)?;
    let title = fit_title("Figure 19: CPI scaling on an Itanium2 quad server", &report);
    emit(out, "fig19", &title, &report.table)
}

fn ablations(options: &SweepOptions, out: &Path) -> Result<(), Box<dyn std::error::Error>> {
    use odb_core::config::CacheGeometry;
    use odb_experiments::ladder::ConfigPoint;

    // L3-size ablation (§6.3: bigger L3 flattens the cached region and
    // moves the pivot right).
    eprintln!("running the L3-size ablation...");
    let mut t = TextTable::new(vec![
        "L3".into(),
        "CPI@10W".into(),
        "CPI@100W".into(),
        "CPI@800W".into(),
        "CPI pivot W".into(),
    ]);
    for (label, bytes) in [("512KB", 512 << 10), ("1MB", 1 << 20), ("2MB", 2 << 20)] {
        let mut system = SystemConfig::xeon_quad();
        system.l3 = CacheGeometry::new(bytes, 64, 8)?;
        let points: Vec<ConfigPoint> = odb_experiments::ladder::TREND_WAREHOUSES
            .iter()
            .map(|&w| ConfigPoint {
                warehouses: w,
                processors: 4,
            })
            .collect();
        let sweep = Sweep::run_points(&system, options, &points);
        sweep.ensure_complete()?;
        let fit = figures::fig17(&sweep, 4)?;
        let cpi_at = |w: u32| {
            sweep
                .row(4, w)
                .map(|r| format!("{:.2}", r.measurement.cpi()))
                .unwrap_or_default()
        };
        t.row(vec![
            label.into(),
            cpi_at(10),
            cpi_at(100),
            cpi_at(800),
            fit.pivot
                .map(|(x, _)| format!("{x:.0}"))
                .unwrap_or_else(|| "none".into()),
        ]);
    }
    emit(out, "ablation_l3", "Ablation: L3 capacity vs the CPI pivot (4P)", &t)?;

    // Coherence ablation: rerun one characterization with the directory
    // disabled and compare MPI (the paper's 'coherence is negligible').
    eprintln!("running the coherence ablation...");
    use odb_core::config::{OltpConfig, WorkloadConfig};
    use odb_engine::profile::{trace_params, OdbRefSource, WorkloadEstimates};
    use odb_engine::schema::PageMap;
    use odb_engine::txn::TxnSampler;
    use odb_memsim::coherence::Directory;
    use odb_memsim::Characterizer;
    let mut t = TextTable::new(vec![
        "Warehouses".into(),
        "MPI (coherent) x1000".into(),
        "MPI (no coherence) x1000".into(),
        "coherence share %".into(),
    ]);
    for &w in &[10u32, 100, 800] {
        let config = OltpConfig::new(
            WorkloadConfig::new(w, 48)?,
            SystemConfig::xeon_quad(),
        )?;
        let params = trace_params(&config, &WorkloadEstimates::initial());
        let characterizer = Characterizer::new(config.system.clone(), params)?;
        let sampler = TxnSampler::new(PageMap::new(w))?;
        let warm = options.measure.char_warmup_instructions;
        let run = options.measure.char_measure_instructions;
        let on = {
            let s = sampler.clone();
            let mut dir = Directory::new();
            characterizer.run_with_directory(
                &mut dir,
                &mut |_pid| OdbRefSource::with_sampler(s.clone(), 4),
                42,
                warm,
                run,
            )?
        };
        let off = {
            let s = sampler.clone();
            let mut dir = Directory::disabled();
            characterizer.run_with_directory(
                &mut dir,
                &mut |_pid| OdbRefSource::with_sampler(s.clone(), 4),
                42,
                warm,
                run,
            )?
        };
        t.row(vec![
            w.to_string(),
            format!("{:.3}", on.mpi() * 1e3),
            format!("{:.3}", off.mpi() * 1e3),
            format!("{:.1}", on.coherence_miss_fraction() * 100.0),
        ]);
    }
    emit(out, "ablation_coherence", "Ablation: coherence on/off (4P characterization)", &t)?;

    // Bus-bandwidth ablation (§6.3: more bandwidth flattens the scaled
    // region).
    eprintln!("running the bus-bandwidth ablation...");
    let mut t = TextTable::new(vec![
        "bus occupancy".into(),
        "CPI@800W".into(),
        "IOQ@800W".into(),
        "bus util@800W".into(),
    ]);
    for (label, scale) in [("1.0x", 1.0), ("0.67x (=+50% bandwidth)", 1.0 / 1.5), ("0.5x", 0.5)] {
        let mut system = SystemConfig::xeon_quad();
        system.bus.occupancy_cycles *= scale;
        let points = [ConfigPoint {
            warehouses: 800,
            processors: 4,
        }];
        let sweep = Sweep::run_points(&system, options, &points);
        sweep.ensure_complete()?;
        let row = sweep.row(4, 800).expect("measured");
        t.row(vec![
            label.into(),
            format!("{:.2}", row.measurement.cpi()),
            format!("{:.0}", row.measurement.bus_transaction_cycles),
            format!("{:.0}%", row.measurement.bus_utilization * 100.0),
        ]);
    }
    emit(out, "ablation_bus", "Ablation: bus bandwidth at 800W (4P)", &t)?;

    // CMP what-if (§1: "OLTP workloads would scale well on future CMP
    // designs"). Four cores with private TC/L1/L2 either carry private
    // 1 MB L3s kept coherent over a bus (the paper's SMP) or share one
    // 4 MB last-level cache on a die (a CMP). The shared organization
    // dedups the code/metadata/catalog footprint and needs no
    // invalidations — the advantage the paper predicts.
    eprintln!("running the CMP what-if ablation...");
    {
        use odb_core::config::CacheGeometry;
        let mut t = TextTable::new(vec![
            "organization".into(),
            "MPI@100W x1000".into(),
            "MPI@800W x1000".into(),
            "coherence share %".into(),
        ]);
        for (label, cmp) in [("SMP 4 x 1MB private L3", false), ("CMP 1 x 4MB shared L3", true)] {
            let mut cells = vec![label.to_string()];
            for &w in &[100u32, 800] {
                let mut system = SystemConfig::xeon_quad();
                if cmp {
                    system.l3 = CacheGeometry::new(4 << 20, 64, 8)?;
                }
                let config = OltpConfig::new(WorkloadConfig::new(w, 48)?, system)?;
                let params = trace_params(&config, &WorkloadEstimates::initial());
                let mut characterizer = Characterizer::new(config.system.clone(), params)?;
                if cmp {
                    characterizer = characterizer.with_shared_l3();
                }
                let sampler = TxnSampler::new(PageMap::new(w))?;
                let c = characterizer.run(
                    |_pid| OdbRefSource::with_sampler(sampler.clone(), 4),
                    42,
                    options.measure.char_warmup_instructions * 2,
                    options.measure.char_measure_instructions,
                )?;
                cells.push(format!("{:.3}", c.mpi() * 1e3));
                if w == 800 {
                    cells.push(format!("{:.1}", c.coherence_miss_fraction() * 100.0));
                }
            }
            t.row(cells);
        }
        emit(
            out,
            "ablation_cmp",
            "Ablation: SMP (private L3 + bus coherence) vs CMP (shared L3) at 4 cores",
            &t,
        )?;
    }

    // Replacement-policy ablation (§7: "more judicious and specialized
    // caching schemes" for the limited L3).
    eprintln!("running the L3 replacement-policy ablation...");
    use odb_memsim::policy::ReplacementPolicy;
    let mut t = TextTable::new(vec![
        "L3 policy".into(),
        "MPI@100W x1000".into(),
        "MPI@800W x1000".into(),
        "coherence share %".into(),
    ]);
    for policy in ReplacementPolicy::ALL {
        let mut cells = vec![policy.to_string()];
        for &w in &[100u32, 800] {
            let config = OltpConfig::new(
                WorkloadConfig::new(w, 48)?,
                SystemConfig::xeon_quad(),
            )?;
            let params = trace_params(&config, &WorkloadEstimates::initial());
            let characterizer = Characterizer::new(config.system.clone(), params)?
                .with_l3_policy(policy);
            let sampler = TxnSampler::new(PageMap::new(w))?;
            let c = characterizer.run(
                |_pid| OdbRefSource::with_sampler(sampler.clone(), 4),
                42,
                options.measure.char_warmup_instructions,
                options.measure.char_measure_instructions,
            )?;
            cells.push(format!("{:.3}", c.mpi() * 1e3));
            if w == 800 {
                cells.push(format!("{:.1}", c.coherence_miss_fraction() * 100.0));
            }
        }
        t.row(cells);
    }
    emit(out, "ablation_replacement", "Ablation: L3 replacement policy (4P characterization)", &t)?;

    // I/O-scheduler ablation: FIFO (the paper's Linux 2.4) vs an
    // elevator. Amortized seeks cut read latency at scale, easing the
    // masking burden (fewer clients / higher utilization).
    eprintln!("running the I/O-scheduler ablation...");
    let mut t = TextTable::new(vec![
        "scheduler".into(),
        "TPS@800W".into(),
        "util@800W".into(),
        "mean read wait proxy (cs/txn)".into(),
    ]);
    for (label, scheduler) in [
        ("FIFO", odb_iosim::Scheduler::Fifo),
        ("SCAN", odb_iosim::Scheduler::Scan),
    ] {
        let mut measure = options.measure.clone();
        measure.system.disk_scheduler = scheduler;
        let config = OltpConfig::new(
            WorkloadConfig::new(800, 64)?,
            SystemConfig::xeon_quad(),
        )?;
        let m = odb_engine::OdbSimulator::new(config, measure)?.run()?;
        t.row(vec![
            label.into(),
            format!("{:.0}", m.tps()),
            format!("{:.2}", m.cpu_utilization),
            format!("{:.2}", m.context_switches_per_txn),
        ]);
    }
    emit(out, "ablation_scheduler", "Ablation: disk scheduling at 800W (4P, 64 clients)", &t)?;

    // L2 prefetch ablation: next-line prefetching on the sequential
    // slices of the reference stream (code runs, row scans).
    eprintln!("running the L2-prefetch ablation...");
    {
        let mut t = TextTable::new(vec![
            "L2 prefetch".into(),
            "MPI@800W x1000".into(),
            "L2 misses/instr x1000".into(),
            "prefetch fills/instr x1000".into(),
        ]);
        for (label, prefetch) in [("off (paper's machine)", false), ("next-line", true)] {
            let config = OltpConfig::new(
                WorkloadConfig::new(800, 64)?,
                SystemConfig::xeon_quad(),
            )?;
            let params = trace_params(&config, &WorkloadEstimates::initial());
            let mut characterizer = Characterizer::new(config.system.clone(), params)?;
            if prefetch {
                characterizer = characterizer.with_l2_prefetch();
            }
            let sampler = TxnSampler::new(PageMap::new(800))?;
            let c = characterizer.run(
                |_pid| OdbRefSource::with_sampler(sampler.clone(), 4),
                42,
                options.measure.char_warmup_instructions,
                options.measure.char_measure_instructions,
            )?;
            let instr = (c.user_counts.instructions + c.os_counts.instructions) as f64;
            let l2 = (c.user_counts.l2_misses + c.os_counts.l2_misses) as f64;
            let pf = (c.user_counts.prefetch_l3_fills + c.os_counts.prefetch_l3_fills) as f64;
            t.row(vec![
                label.into(),
                format!("{:.3}", c.mpi() * 1e3),
                format!("{:.3}", l2 / instr * 1e3),
                format!("{:.3}", pf / instr * 1e3),
            ]);
        }
        emit(out, "ablation_prefetch", "Ablation: next-line L2 prefetch (4P characterization, 800W)", &t)?;
    }

    // Transaction-mix ablation: the iron law's IPX term is set by the
    // mix; a read-heavy mix runs lighter, logs less and locks less.
    eprintln!("running the transaction-mix ablation...");
    {
        use odb_engine::txn::TxnMix;
        let mut t = TextTable::new(vec![
            "mix".into(),
            "TPS@100W".into(),
            "IPX (M)".into(),
            "log KB/txn".into(),
            "cs/txn".into(),
        ]);
        for (label, mix) in [
            ("paper (45/43/4/4/4)", TxnMix::paper()),
            ("read-heavy", TxnMix::read_heavy()),
            ("write-heavy", TxnMix::write_heavy()),
        ] {
            let mut measure = options.measure.clone();
            measure.system.txn_mix = mix;
            let config = OltpConfig::new(
                WorkloadConfig::new(100, 48)?,
                SystemConfig::xeon_quad(),
            )?;
            let m = odb_engine::OdbSimulator::new(config, measure)?.run()?;
            t.row(vec![
                label.into(),
                format!("{:.0}", m.tps()),
                format!("{:.2}", m.ipx() / 1e6),
                format!("{:.1}", m.io_per_txn.log_write_kb),
                format!("{:.2}", m.context_switches_per_txn),
            ]);
        }
        emit(out, "ablation_mix", "Ablation: transaction mix at 100W (4P, 48 clients)", &t)?;
    }

    // Disk-bandwidth ablation (§6.3: more spindles push the I/O-bound
    // region out).
    eprintln!("running the disk-bandwidth ablation...");
    let mut t = TextTable::new(vec![
        "disks".into(),
        "TPS@1200W".into(),
        "util@1200W".into(),
        "cs/txn@1200W".into(),
    ]);
    for disks in [13u32, 26, 52] {
        let mut system = SystemConfig::xeon_quad();
        system.disk_array.disks = disks;
        let points = [ConfigPoint {
            warehouses: 1200,
            processors: 4,
        }];
        let sweep = Sweep::run_points(&system, options, &points);
        sweep.ensure_complete()?;
        let row = sweep.row(4, 1200).expect("measured");
        t.row(vec![
            disks.to_string(),
            format!("{:.0}", row.measurement.tps()),
            format!("{:.2}", row.measurement.cpu_utilization),
            format!("{:.2}", row.measurement.context_switches_per_txn),
        ]);
    }
    emit(out, "ablation_disks", "Ablation: disk count at 1200W (4P)", &t)
}

/// Prints an artifact and mirrors it to `<out>/<name>.txt` and `.csv`.
fn emit(
    out: &Path,
    name: &str,
    title: &str,
    table: &TextTable,
) -> Result<(), Box<dyn std::error::Error>> {
    let rendered = table.render();
    println!("\n== {title} ==\n{rendered}");
    write_atomic(
        &out.join(format!("{name}.txt")),
        format!("{title}\n\n{rendered}\n").as_bytes(),
    )?;
    write_atomic(&out.join(format!("{name}.csv")), table.to_csv().as_bytes())?;
    Ok(())
}
