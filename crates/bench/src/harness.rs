//! A tiny wall-clock micro-benchmark harness.
//!
//! This workspace builds offline, so the `criterion` dev-dependency
//! resolves to an empty stub; the benches carry their own timing loop
//! instead. The contract is deliberately small: [`bench`] warms a
//! closure up, calibrates a batch size, and prints the best-of-three
//! per-iteration time. No statistics beyond "best batch" — these runs
//! guide by eye; end-to-end speed is measured by `workload-bench/`.

pub use std::hint::black_box;
use std::time::Instant;

/// How long one calibrated measurement batch should take.
const TARGET_BATCH_NANOS: f64 = 50_000_000.0;

/// Measured batches per benchmark (the minimum is reported).
const BATCHES: u32 = 3;

/// Times `f` and returns `(best per-iteration nanoseconds, iterations
/// per measured batch)` — the measurement behind [`bench`].
///
/// Calibration doubles as warm-up: the batch size grows by 4× until one
/// batch runs ≥10 ms, then three batches sized for ~50 ms each are
/// measured and the fastest per-iteration time wins (the usual defense
/// against scheduling noise on a shared host).
fn measure_ns<R>(mut f: impl FnMut() -> R) -> (f64, u64) {
    let mut batch: u64 = 1;
    let per_iter_estimate = loop {
        let started = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let elapsed = started.elapsed();
        if elapsed.as_millis() >= 10 || batch >= (1 << 30) {
            break elapsed.as_nanos() as f64 / batch as f64;
        }
        batch *= 4;
    };
    let iters = ((TARGET_BATCH_NANOS / per_iter_estimate.max(1.0)).ceil() as u64).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let started = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(started.elapsed().as_nanos() as f64 / iters as f64);
    }
    (best, iters)
}

/// Times `f` and prints `<name>: <ns>/iter` (see [`measure_ns`]).
pub fn bench<R>(name: &str, f: impl FnMut() -> R) {
    let (best, iters) = measure_ns(f);
    if best >= 1_000_000.0 {
        println!("{name}: {:.3} ms/iter ({iters} iters/batch)", best / 1e6);
    } else {
        println!("{name}: {best:.1} ns/iter ({iters} iters/batch)");
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_runs_and_counts_iterations() {
        let mut calls = 0u64;
        super::bench("test/noop", || {
            calls += 1;
            calls
        });
        assert!(calls > 0, "the closure must have been driven");
    }
}
