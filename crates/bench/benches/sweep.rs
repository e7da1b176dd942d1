//! The sweep wall-clock benchmark: the perf baseline the repo ratchets
//! against.
//!
//! Times the full 27-point `paper_ladder()` sweep at quick and standard
//! fidelity, each at `jobs = 1` and `jobs = N`, asserts that the
//! parallel and sequential quick sweeps are **byte-identical** (the
//! determinism smoke test CI leans on), and emits `BENCH_sweep.json`
//! with per-phase wall-clock (`phase_seconds`: characterize — split
//! into batch-refill vs kernel time — vs engine DES) per entry plus the
//! `refs_per_sec` substrate microbenches (`hierarchy_walk`,
//! `hierarchy_walk_batch` and `zipf_draw`: the three-level hierarchy
//! walk in scalar and batched form, and the Zipf draw), plus
//! a `within_point` dimension timing one large characterization point
//! at within-point jobs 1 vs N (bit-identity asserted, throughput
//! recorded as `refs_per_sec`; stamped `parallel_unverified` on a
//! 1-core host).
//!
//! A baseline whose `host_cores` is 1 is refused when the output lands
//! in `results/` (the parallel-speedup ratchet would be vacuous) unless
//! `ODB_BENCH_ALLOW_1CORE=1` is set.
//! Two optional gates, both exiting nonzero on failure:
//!
//! * `--min-speedup RATIO` — host-relative, computed within this run:
//!   every fidelity's `jobs = 1` vs `jobs = N` speedup must reach
//!   `RATIO`. Robust across machines; the gate CI runs on multi-core
//!   hosts.
//! * `--baseline FILE --max-regress FRACTION` (default 25%) — absolute
//!   wall-clock ratchet against a recorded baseline. Only meaningful on
//!   the machine that recorded the baseline, so it is opt-in.
//!
//! Not a criterion bench on purpose: the measured unit is minutes-long
//! and run once, and the artifact (a small JSON file with absolute
//! wall-clock seconds and the host core count) is the deliverable.
//!
//! ```text
//! cargo bench -p odb-bench --bench sweep -- \
//!     [--quick-only] [--jobs N] [--out FILE] [--min-speedup RATIO] \
//!     [--baseline FILE] [--max-regress FRACTION]
//! ```

use odb_bench::harness::{black_box, measure_ns};
use odb_core::config::SystemConfig;
use odb_engine::PhaseSeconds;
use odb_experiments::persist::sweep_to_csv;
use odb_experiments::runner::{Sweep, SweepOptions};
use odb_memsim::dist::Zipf;
use odb_memsim::hierarchy::{CpuHierarchy, Space};
use odb_memsim::{BatchOutcomes, RefBatch, DEFAULT_BATCH_CAPACITY};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// One timed sweep configuration.
struct Entry {
    sweep: &'static str,
    jobs: usize,
    points: usize,
    seconds: f64,
    /// Wall-clock per simulation phase, summed over the sweep's rows
    /// (probe runs included) — tells future perf work which phase to
    /// ratchet.
    phase: PhaseSeconds,
}

/// The `refs_per_sec` throughput microbenches: the per-reference code
/// paths the characterization hot loop is made of, reported as
/// references (draws) per second so the artifact captures substrate
/// throughput alongside end-to-end sweep wall-clock:
///
/// * `hierarchy_walk` — one Zipf draw plus the scalar L1→L2→L3 walk;
/// * `hierarchy_walk_batch` — the same draws pushed into a full batch
///   and walked by `access_batch`, per reference; it covers exactly
///   what `hierarchy_walk` covers, so the ratio of the two is the
///   batching speedup;
/// * `zipf_draw` — the Zipf draw alone.
///
/// Nothing reads this section back, so a baseline carrying other
/// entries (older ones have `zipf_draw_batch`) still works as one.
fn refs_per_sec() -> Vec<(&'static str, f64)> {
    let zipf = Zipf::new(1 << 16, 0.9).expect("zipf");
    // Three-level hierarchy walk: L1→L2→L3 data reference with a
    // Zipf-distributed address stream, the shape `trace.rs` drives.
    let mut hierarchy = CpuHierarchy::new(&SystemConfig::xeon_quad()).expect("hierarchy");
    let mut rng = SmallRng::seed_from_u64(0xBE_11C4);
    let (walk_ns, _) = measure_ns(|| {
        let addr = zipf.sample(&mut rng) * 64;
        black_box(hierarchy.access_data(addr, false, Space::User))
    });
    // The same walk through the SoA batch kernels, a full batch per
    // measured iteration: draw and refill (as `trace.rs` does) →
    // `access_batch`.
    let mut hierarchy = CpuHierarchy::new(&SystemConfig::xeon_quad()).expect("hierarchy");
    let mut rng = SmallRng::seed_from_u64(0xBE_11C4);
    let mut batch = RefBatch::with_capacity(DEFAULT_BATCH_CAPACITY);
    let mut out = BatchOutcomes::new();
    let (walk_batch_ns, _) = measure_ns(|| {
        batch.clear();
        for _ in 0..DEFAULT_BATCH_CAPACITY {
            batch.push_data(zipf.sample(&mut rng) * 64, false, Space::User);
        }
        hierarchy.access_batch(&batch, &mut out);
        black_box(out.fills().len())
    });
    let walk_batch_ns = walk_batch_ns / DEFAULT_BATCH_CAPACITY as f64;
    // The Zipf draw alone: accelerated CDF search plus RNG.
    let mut rng = SmallRng::seed_from_u64(0xD1_57);
    let (draw_ns, _) = measure_ns(|| black_box(zipf.sample(&mut rng)));
    vec![
        ("hierarchy_walk", 1e9 / walk_ns.max(1e-3)),
        ("hierarchy_walk_batch", 1e9 / walk_batch_ns.max(1e-3)),
        ("zipf_draw", 1e9 / draw_ns.max(1e-3)),
    ]
}

/// One timed configuration of the within-point dimension.
struct WithinPointEntry {
    jobs: usize,
    seconds: f64,
    refs_per_sec: f64,
}

/// The within-point dimension: one large characterization point (800W,
/// 4P — the deep end of the ladder, where the per-point reference
/// stream is longest) timed at within-point jobs 1 vs N. The two runs
/// must produce identical event rates (the bit-exactness contract of
/// `odb_memsim::trace`); throughput is reported as simulated references
/// per wall-clock second so the artifact captures what the intra-point
/// workers buy on this host.
fn within_point_entries(jobs_n: usize) -> Vec<WithinPointEntry> {
    use odb_core::config::{OltpConfig, WorkloadConfig};
    use odb_engine::profile::{trace_params, OdbRefSource, WorkloadEstimates};
    use odb_engine::schema::PageMap;
    use odb_engine::txn::TxnSampler;
    use odb_memsim::Characterizer;
    let config = OltpConfig::new(
        WorkloadConfig::new(800, 64).expect("workload"),
        SystemConfig::xeon_quad(),
    )
    .expect("config");
    let params = trace_params(&config, &WorkloadEstimates::initial());
    let sampler = TxnSampler::new(PageMap::new(800)).expect("sampler");
    let (warm, run) = (2_000_000u64, 4_000_000u64);
    let mut widths = vec![1usize];
    if jobs_n > 1 {
        widths.push(jobs_n);
    }
    let mut entries = Vec::new();
    let mut reference = None;
    for &w in &widths {
        eprintln!("timing the within-point characterization at within_point_jobs={w}...");
        let characterizer = Characterizer::new(config.system.clone(), params.clone())
            .expect("characterizer")
            .with_within_point_jobs(w);
        let started = Instant::now();
        let c = characterizer
            .run(
                |_pid| OdbRefSource::with_sampler(sampler.clone(), 4),
                42,
                warm,
                run,
            )
            .expect("characterize");
        let seconds = started.elapsed().as_secs_f64();
        match &reference {
            None => reference = Some(c.rates),
            Some(r) => assert_eq!(
                r, &c.rates,
                "within_point_jobs={w} characterization is not byte-identical to serial"
            ),
        }
        let refs = (c.user_counts.code_refs
            + c.user_counts.data_refs
            + c.os_counts.code_refs
            + c.os_counts.data_refs) as f64;
        let refs_per_sec = refs / seconds.max(1e-9);
        eprintln!("  {seconds:.1}s, {refs_per_sec:.0} refs/s");
        entries.push(WithinPointEntry {
            jobs: w,
            seconds,
            refs_per_sec,
        });
    }
    entries
}

/// Resolves `--out` / `--baseline` paths: `cargo bench` runs this
/// binary with CWD = `crates/bench`, so a relative path would silently
/// land (or fail to resolve) under the package directory. Relative
/// paths are therefore anchored at the workspace root, where `ci.sh`,
/// `results/` and `target/` live.
fn workspace_path(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(p)
    }
}

/// The value of flag `args[i]`, or exit 2 — a typo must not silently
/// benchmark at an unintended configuration.
fn value<'a>(args: &'a [String], i: usize, flag: &str) -> &'a str {
    args.get(i).map(String::as_str).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}

/// Same, parsed; garbage exits 2 (mirrors the odb-experiments CLI).
fn parsed<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    let raw = value(args, i, flag);
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse `{raw}`");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick_only = false;
    let mut jobs: Option<usize> = None;
    let mut out = String::from("BENCH_sweep.json");
    let mut baseline: Option<String> = None;
    let mut max_regress = 0.25f64;
    let mut min_speedup: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick-only" => quick_only = true,
            "--jobs" => {
                i += 1;
                match parsed::<usize>(&args, i, "--jobs") {
                    0 => {
                        eprintln!("--jobs needs a positive integer");
                        std::process::exit(2);
                    }
                    n => jobs = Some(n),
                }
            }
            "--out" => {
                i += 1;
                out = value(&args, i, "--out").to_owned();
            }
            "--baseline" => {
                i += 1;
                baseline = Some(value(&args, i, "--baseline").to_owned());
            }
            "--max-regress" => {
                i += 1;
                max_regress = parsed(&args, i, "--max-regress");
            }
            "--min-speedup" => {
                i += 1;
                min_speedup = Some(parsed(&args, i, "--min-speedup"));
            }
            // `cargo bench` forwards its own harness flags; ignore them.
            "--bench" => {}
            arg => {
                eprintln!("unknown argument `{arg}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let jobs_n = jobs.unwrap_or(host_cores).max(1);
    let out_path = workspace_path(&out);
    // A baseline recorded on a 1-core host is worse than none: jobs=N
    // can only tie jobs=1, so the checked-in `--min-speedup` ratchet
    // becomes vacuous (the seed baseline showed speedup 0.818). Refuse
    // to record one into `results/` — the ratchet's home — unless the
    // operator explicitly insists; checked before the minutes-long
    // sweep so the refusal is cheap. `target/` scratch output (what
    // `ci.sh` writes) is unaffected.
    if host_cores == 1
        && out_path.starts_with(workspace_path("results"))
        && std::env::var("ODB_BENCH_ALLOW_1CORE").as_deref() != Ok("1")
    {
        eprintln!(
            "refusing to record a host_cores=1 baseline at {}: \
             the parallel-speedup ratchet would be vacuous. \
             Rerun on a multi-core host, or set ODB_BENCH_ALLOW_1CORE=1 \
             to record it anyway.",
            out_path.display()
        );
        std::process::exit(1);
    }

    let system = SystemConfig::xeon_quad();
    let mut entries: Vec<Entry> = Vec::new();
    let fidelities: &[(&'static str, SweepOptions)] = &if quick_only {
        vec![("quick", SweepOptions::quick())]
    } else {
        vec![
            ("quick", SweepOptions::quick()),
            ("standard", SweepOptions::standard()),
        ]
    };

    for (name, options) in fidelities {
        let mut csv_sequential = None;
        for &j in &[1usize, jobs_n] {
            eprintln!("timing the {name} sweep at jobs={j}...");
            let started = Instant::now();
            let sweep = Sweep::run(&system, &options.clone().with_jobs(j));
            sweep.ensure_complete().expect("sweep failed");
            let seconds = started.elapsed().as_secs_f64();
            eprintln!("  {:.1}s for {} points", seconds, sweep.len());
            let csv = sweep_to_csv(&sweep);
            match &csv_sequential {
                None => csv_sequential = Some(csv),
                Some(reference) => assert_eq!(
                    reference, &csv,
                    "jobs={j} {name} sweep is not byte-identical to jobs=1"
                ),
            }
            let mut phase = PhaseSeconds::default();
            for row in sweep.iter() {
                phase.accumulate(&row.phase_seconds);
            }
            entries.push(Entry {
                sweep: name,
                jobs: j,
                points: sweep.len(),
                seconds,
                phase,
            });
            if jobs_n == 1 {
                break; // jobs=N would repeat the jobs=1 measurement
            }
        }
    }

    eprintln!("timing the refs_per_sec microbenches...");
    let rates = refs_per_sec();
    for (name, rate) in &rates {
        eprintln!("  {name}: {rate:.0} refs/s");
    }

    let within_point = within_point_entries(jobs_n);

    let json = render_json(host_cores, jobs_n, &entries, &rates, &within_point);
    if let Some(parent) = out_path.parent() {
        std::fs::create_dir_all(parent).expect("create output directory");
    }
    std::fs::write(&out_path, &json).expect("write BENCH_sweep.json");
    eprintln!("wrote {}", out_path.display());
    print!("{json}");

    // Host-relative gate: computed entirely within this run, so it is
    // meaningful on any machine (unlike the absolute baseline below).
    if let Some(min) = min_speedup {
        if jobs_n == 1 {
            eprintln!("--min-speedup ignored: jobs=1 measures no parallel sweep");
        }
        let mut failed = false;
        for (name, _) in fidelities {
            let time_at = |jobs: usize| {
                entries
                    .iter()
                    .find(|e| e.sweep == *name && e.jobs == jobs)
                    .map(|e| e.seconds)
            };
            if let (Some(seq), Some(par)) = (time_at(1), time_at(jobs_n)) {
                if jobs_n > 1 && par > 0.0 {
                    let speedup = seq / par;
                    let verdict = if speedup < min { "TOO SLOW" } else { "ok" };
                    eprintln!(
                        "{name}: jobs={jobs_n} speedup {speedup:.2}x (floor {min:.2}x) — {verdict}"
                    );
                    failed |= speedup < min;
                }
            }
        }
        if failed {
            eprintln!("parallel sweep speedup fell below the {min:.2}x floor");
            std::process::exit(1);
        }
    }

    if let Some(path) = baseline {
        let path = workspace_path(&path);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        let mut failed = false;
        for entry in &entries {
            let Some(base) = baseline_seconds(&text, entry.sweep, entry.jobs) else {
                eprintln!(
                    "baseline has no entry for {} jobs={}; skipping",
                    entry.sweep, entry.jobs
                );
                continue;
            };
            let limit = base * (1.0 + max_regress);
            let verdict = if entry.seconds > limit { "REGRESSED" } else { "ok" };
            eprintln!(
                "{} jobs={}: {:.1}s vs baseline {:.1}s (limit {:.1}s) — {verdict}",
                entry.sweep, entry.jobs, entry.seconds, base, limit
            );
            failed |= entry.seconds > limit;
        }
        if failed {
            eprintln!(
                "sweep wall-clock regressed by more than {:.0}% against {}",
                max_regress * 100.0,
                path.display()
            );
            std::process::exit(1);
        }
    }
}

/// Renders the artifact: one entry object per line so the parser below
/// (and humans diffing the checked-in baseline) can work line-by-line.
fn render_json(
    host_cores: usize,
    jobs_n: usize,
    entries: &[Entry],
    rates: &[(&'static str, f64)],
    within_point: &[WithinPointEntry],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"odb-bench-sweep-v1\",\n");
    s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    s.push_str(&format!("  \"jobs_n\": {jobs_n},\n"));
    if host_cores == 1 {
        // On a 1-core host jobs=N can only tie jobs=1, so the recorded
        // speedups verify nothing. Stamp the artifact so downstream
        // readers (and ci.sh) can tell a vacuous baseline from a real one.
        s.push_str("  \"parallel_unverified\": true,\n");
    }
    s.push_str("  \"refs_per_sec\": {");
    for (i, (name, rate)) in rates.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{name}\": {rate:.0}"));
    }
    s.push_str("},\n");
    // The within-point dimension: per-width timings of one large
    // characterization point, one entry object per line like `entries`.
    // On a 1-core host the parallel width can only tie serial, so the
    // object carries its own `parallel_unverified` stamp.
    s.push_str("  \"within_point\": {\n");
    if host_cores == 1 {
        s.push_str("    \"parallel_unverified\": true,\n");
    }
    if let (Some(seq), Some(par)) = (
        within_point.iter().find(|e| e.jobs == 1),
        within_point.iter().find(|e| e.jobs > 1),
    ) {
        if par.seconds > 0.0 {
            s.push_str(&format!(
                "    \"speedup\": {:.3},\n",
                seq.seconds / par.seconds
            ));
        }
    }
    s.push_str("    \"entries\": [\n");
    for (i, e) in within_point.iter().enumerate() {
        s.push_str(&format!(
            "      {{\"within_point_jobs\": {}, \"seconds\": {:.3}, \"refs_per_sec\": {:.0}}}{}\n",
            e.jobs,
            e.seconds,
            e.refs_per_sec,
            if i + 1 < within_point.len() { "," } else { "" }
        ));
    }
    s.push_str("    ]\n  },\n");
    for (fidelity, key) in [("quick", "speedup_quick"), ("standard", "speedup_standard")] {
        let time_at = |jobs: usize| {
            entries
                .iter()
                .find(|e| e.sweep == fidelity && e.jobs == jobs)
                .map(|e| e.seconds)
        };
        if let (Some(seq), Some(par)) = (time_at(1), time_at(jobs_n)) {
            if jobs_n > 1 && par > 0.0 {
                s.push_str(&format!("  \"{key}\": {:.3},\n", seq / par));
            }
        }
    }
    s.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"sweep\": \"{}\", \"jobs\": {}, \"points\": {}, \"seconds\": {:.3}, \
             \"phase_seconds\": {{\"characterize\": {:.3}, \"characterize_refill\": {:.3}, \
             \"characterize_kernel\": {:.3}, \"engine\": {:.3}}}}}{}\n",
            e.sweep,
            e.jobs,
            e.points,
            e.seconds,
            e.phase.characterize,
            e.phase.characterize_refill,
            e.phase.characterize_kernel,
            e.phase.engine,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Pulls `seconds` for an `(sweep, jobs)` entry out of a baseline file
/// written by [`render_json`] (one entry per line — no JSON dependency
/// in this no-network workspace).
fn baseline_seconds(text: &str, sweep: &str, jobs: usize) -> Option<f64> {
    let sweep_tag = format!("\"sweep\": \"{sweep}\"");
    let jobs_tag = format!("\"jobs\": {jobs},");
    for line in text.lines() {
        if line.contains(&sweep_tag) && line.contains(&jobs_tag) {
            let rest = line.split("\"seconds\":").nth(1)?;
            let num: String = rest
                .chars()
                .skip_while(|c| c.is_whitespace())
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            return num.parse().ok();
        }
    }
    None
}
