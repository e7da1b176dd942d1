//! The sweep runner: client search plus measurement for every `(W, P)`.
//!
//! # Execution model
//!
//! The paper's evaluation is an embarrassingly parallel grid: each
//! `(W, P)` point is an independent client search followed by an
//! independent measurement-grade run. [`Sweep::run_points`] therefore
//! executes the grid on a bounded pool of [`SweepOptions::jobs`] scoped
//! worker threads. Workers pull the next pending point from a shared
//! atomic cursor, run the utilization search, pipeline straight into the
//! measurement for that point (no barrier between the two stages), and
//! feed the finished [`SweepRow`] into a shared `BTreeMap` keyed by
//! `(P, W)` — so collection order is always the deterministic grid
//! order no matter which worker finished first.
//!
//! # Thread-budget arbitration
//!
//! Two layers of parallelism compete for the same cores: the
//! across-point pool above ([`SweepOptions::jobs`]) and the within-point
//! characterization workers ([`SweepOptions::within_point_jobs`], see
//! `odb_memsim::trace`). Multiplying them naively oversubscribes —
//! `--jobs 4` with 4 within-point workers would peak at 16 threads — so
//! both draw from one budget ([`SweepOptions::thread_budget`], default
//! `max(jobs, within_point_jobs)`): the across-point pool keeps its
//! `jobs` workers and each worker gets
//! [`SweepOptions::effective_within_point_jobs`] =
//! `(budget / jobs).clamp(1, within_point_jobs)` generation threads.
//! An *explicit* budget that contradicts the requested shape
//! (`jobs × within_point_jobs > budget`) is rejected up front by
//! [`SweepOptions::validate`] rather than silently throttled. All of
//! this is scheduling only — within-point workers are bit-neutral at
//! every width, so arbitration can never change a result.
//!
//! # Determinism
//!
//! Every stochastic component of a point derives from a seed computed by
//! [`SimOptions::for_point`] from `(base seed, W, P)` alone. Combined
//! with the ordered collection above, a `jobs = N` sweep is
//! **bit-identical** to a `jobs = 1` sweep (asserted by the
//! `parallel_sweep_matches_sequential` test).
//!
//! # Failure isolation
//!
//! One bad point fails that point, not the ladder: a point whose
//! configuration is rejected or whose simulation reports corrupt state
//! lands in [`Sweep::failures`] while every other point still runs and
//! is measured. Callers that need an all-or-nothing sweep gate on
//! [`Sweep::ensure_complete`].

use crate::journal::ResultCache;
use crate::ladder::{paper_ladder, ConfigPoint, CLIENT_GRID};
use odb_core::config::{OltpConfig, SystemConfig, WorkloadConfig};
use odb_core::metrics::Measurement;
use odb_engine::{OdbSimulator, PhaseSeconds, SimOptions};
use odb_memsim::trace::Characterization;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The paper's utilization floor for comparable configurations (§3.2.1).
pub const UTILIZATION_TARGET: f64 = 0.90;

/// Controls sweep fidelity and parallelism.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Fast options used while searching for the client count.
    pub probe: SimOptions,
    /// Measurement-grade options for the final run per point.
    pub measure: SimOptions,
    /// Utilization floor the client search aims for.
    pub utilization_target: f64,
    /// Worker threads running grid points concurrently (clamped to ≥ 1).
    /// Output is bit-identical for every value; see the module docs.
    pub jobs: usize,
    /// *Requested* within-point characterization workers per grid point
    /// (clamped to ≥ 1; 1 = serial). The width actually used is
    /// [`SweepOptions::effective_within_point_jobs`], which arbitrates
    /// this request against `jobs` under the thread budget. Bit-neutral
    /// at every width — see the module docs.
    pub within_point_jobs: usize,
    /// Total simulation-thread budget shared by the across-point pool
    /// and the within-point workers. `None` (the default) derives
    /// `max(jobs, within_point_jobs)`, which never oversubscribes; an
    /// explicit budget must satisfy `jobs × within_point_jobs ≤ budget`
    /// or [`SweepOptions::validate`] rejects the configuration.
    pub thread_budget: Option<usize>,
    /// Optional result cache / run-journal sink (see [`crate::journal`]).
    /// When set, probes, client searches and completed rows are memoized
    /// and journalled as they finish; replayed entries skip simulation
    /// entirely. Bit-neutral by construction: a replayed row carries the
    /// exact bytes of the run that produced it.
    pub cache: Option<Arc<ResultCache>>,
}

impl SweepOptions {
    /// Experiment-grade settings (used by the CLI and benches).
    pub fn standard() -> Self {
        let mut probe = SimOptions::quick();
        probe.char_warmup_instructions = 1_200_000;
        probe.char_measure_instructions = 600_000;
        probe.warmup = odb_des::SimTime::from_millis(1_500);
        probe.measure = odb_des::SimTime::from_millis(2_500);
        let measure = SimOptions::standard();
        Self {
            probe: align_probe_load_mix(probe, &measure),
            measure,
            utilization_target: UTILIZATION_TARGET,
            jobs: 1,
            within_point_jobs: 1,
            thread_budget: None,
            cache: None,
        }
    }

    /// Reduced settings for tests: quick probes and quick measurement.
    pub fn quick() -> Self {
        let measure = SimOptions::quick();
        Self {
            probe: align_probe_load_mix(SimOptions::quick(), &measure),
            measure,
            utilization_target: UTILIZATION_TARGET,
            jobs: 1,
            within_point_jobs: 1,
            thread_budget: None,
            cache: None,
        }
    }

    /// Returns a copy that runs grid points on `jobs` worker threads
    /// (values below 1 are clamped to sequential execution).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Returns a copy that memoizes (and, if the cache journals,
    /// persists) probe/search/row results through `cache`.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Returns a copy requesting `jobs` within-point characterization
    /// workers per grid point (values below 1 are clamped to serial).
    /// The realized width is arbitrated against [`SweepOptions::jobs`]
    /// under the thread budget; see the module docs.
    #[must_use]
    pub fn with_within_point_jobs(mut self, jobs: usize) -> Self {
        self.within_point_jobs = jobs.max(1);
        self
    }

    /// Returns a copy with an explicit total thread budget shared by the
    /// across-point pool and the within-point workers. Must satisfy
    /// `jobs × within_point_jobs ≤ budget` — checked by
    /// [`SweepOptions::validate`], not silently throttled.
    #[must_use]
    pub fn with_thread_budget(mut self, budget: usize) -> Self {
        self.thread_budget = Some(budget);
        self
    }

    /// Checks the parallelism shape for internal contradictions. Called
    /// by [`Sweep::run_points`] before any point runs (a violation is
    /// recorded as the failure of *every* requested point) and by the
    /// CLI up front so a typo exits with a usage error instead of a
    /// 27-point failure ladder.
    ///
    /// # Errors
    ///
    /// [`odb_core::Error::InvalidConfig`] on `thread_budget == 0` or
    /// when the requested shape cannot fit the explicit budget
    /// (`jobs × within_point_jobs > thread_budget`).
    pub fn validate(&self) -> Result<(), odb_core::Error> {
        let Some(budget) = self.thread_budget else {
            return Ok(());
        };
        if budget == 0 {
            return Err(odb_core::Error::InvalidConfig {
                field: "thread_budget",
                reason: "need at least one simulation thread".to_owned(),
            });
        }
        let jobs = self.jobs.max(1);
        let wpj = self.within_point_jobs.max(1);
        if jobs * wpj > budget {
            return Err(odb_core::Error::InvalidConfig {
                field: "thread_budget",
                reason: format!(
                    "jobs ({jobs}) x within_point_jobs ({wpj}) = {} exceeds the \
                     thread budget of {budget}; lower one side or raise the budget",
                    jobs * wpj
                ),
            });
        }
        Ok(())
    }

    /// The within-point worker count each grid point actually runs with:
    /// `(budget / jobs).clamp(1, within_point_jobs)` against the
    /// explicit budget, or against the auto budget
    /// `max(jobs, within_point_jobs)` when none is set — so the default
    /// never oversubscribes (`jobs = 4` x `within_point_jobs = 4` peaks
    /// at 4 threads, not 16). Purely a scheduling decision: the result
    /// bytes are identical at every width.
    pub fn effective_within_point_jobs(&self) -> usize {
        let jobs = self.jobs.max(1);
        let wpj = self.within_point_jobs.max(1);
        let budget = self.thread_budget.unwrap_or_else(|| jobs.max(wpj));
        (budget / jobs).clamp(1, wpj)
    }
}

/// The one home of the probe/measure load-mix contract (§3.2.1):
/// configurations are only comparable when the client search judges CPU
/// utilization under the same load mix the measurement run sees. Disk
/// write traffic (dirty-page writeback) is the mix component that lags,
/// so the probe's writeback delay is pulled inside the (shorter) probe
/// window in the same proportion the measurement delay occupies the
/// measurement window — and never beyond the measurement's own delay.
fn align_probe_load_mix(
    mut probe: odb_engine::SimOptions,
    measure: &odb_engine::SimOptions,
) -> odb_engine::SimOptions {
    let measure_window = measure.measure.as_secs_f64();
    if measure_window > 0.0 {
        let occupancy = measure.system.writeback_delay.as_secs_f64() / measure_window;
        let scaled = probe.measure.mul_f64(occupancy);
        probe.system.writeback_delay = scaled.min(measure.system.writeback_delay);
    }
    probe
}

/// One measured point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The grid point.
    pub point: ConfigPoint,
    /// Client count chosen by the utilization search.
    pub clients: u32,
    /// `true` when even the maximum client count missed the utilization
    /// target — the I/O-bound region (1200 W in the paper).
    pub saturated: bool,
    /// The measurement-grade run.
    pub measurement: Measurement,
    /// The final cache characterization (for coherence analyses).
    pub characterization: Characterization,
    /// Wall-clock spent in each simulation phase for this point, summed
    /// over the probe runs of the client search and the measurement-grade
    /// run. Diagnostic only — never persisted to `sweep.csv`, so the
    /// results drift gate is blind to it — but surfaced by
    /// `workload-bench` so perf work can see which phase dominates.
    pub phase_seconds: PhaseSeconds,
}

/// Outcome of the client-count utilization search for one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSearch {
    /// Chosen client count (minimal qualifying count plus one grid step
    /// of headroom, or the grid maximum when saturated).
    pub clients: u32,
    /// `true` when even [`CLIENT_GRID`]'s maximum missed the target.
    pub saturated: bool,
    /// Wall-clock the probe runs of this search spent per phase.
    pub phase_seconds: PhaseSeconds,
}

/// All measured points, keyed by `(P, W)`.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    rows: BTreeMap<(u32, u32), SweepRow>,
    failures: BTreeMap<(u32, u32), odb_core::Error>,
}

impl Sweep {
    /// Runs the full paper ladder on `system` (pass
    /// [`SystemConfig::xeon_quad`] or [`SystemConfig::itanium2_quad`];
    /// the `processors` field is overridden per point).
    ///
    /// Infallible by design: a point that errors is recorded in
    /// [`Sweep::failures`] and the remaining points still run. Callers
    /// that need every point measured gate on [`Sweep::ensure_complete`].
    pub fn run(system: &SystemConfig, options: &SweepOptions) -> Self {
        Self::run_points(system, options, &paper_ladder())
    }

    /// Runs specific grid points (tests and partial regenerations) on
    /// [`SweepOptions::jobs`] worker threads. Output is independent of
    /// the worker count; see the module docs for why.
    ///
    /// A point whose configuration or simulation errors is recorded in
    /// [`Sweep::failures`] keyed by `(P, W)`; the other points are
    /// unaffected.
    pub fn run_points(
        system: &SystemConfig,
        options: &SweepOptions,
        points: &[ConfigPoint],
    ) -> Self {
        // A contradictory parallelism shape fails every requested point
        // (keeping the signature infallible) rather than launching a
        // sweep whose thread count the user explicitly forbade.
        if let Err(e) = options.validate() {
            let mut sweep = Self::default();
            for &point in points {
                sweep
                    .failures
                    .insert((point.processors, point.warehouses), e.clone());
            }
            return sweep;
        }
        let jobs = options.jobs.clamp(1, points.len().max(1));
        if jobs == 1 {
            let mut sweep = Self::default();
            for &point in points {
                let key = (point.processors, point.warehouses);
                match Self::measure_or_replay(system, options, point) {
                    Ok(row) => {
                        sweep.rows.insert(key, row);
                    }
                    Err(e) => {
                        sweep.failures.insert(key, e);
                    }
                }
            }
            return sweep;
        }

        // Work distribution: a shared atomic cursor hands each worker the
        // next pending point, so a slow point (the saturated 1200 W
        // search) never stalls the rest of the grid behind a static
        // partition. Finished rows and failures land in shared maps keyed
        // by (P, W), so collection order is grid order regardless of
        // completion order — and a failed point never aborts its peers.
        let rows = Mutex::new(BTreeMap::new());
        let failures = Mutex::new(BTreeMap::new());
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&point) = points.get(index) else { break };
                    let key = (point.processors, point.warehouses);
                    match Self::measure_or_replay(system, options, point) {
                        Ok(row) => {
                            lock_clean(&rows).insert(key, row);
                        }
                        Err(e) => {
                            lock_clean(&failures).insert(key, e);
                        }
                    }
                });
            }
        });
        Self {
            rows: rows.into_inner().unwrap_or_else(|p| p.into_inner()),
            failures: failures.into_inner().unwrap_or_else(|p| p.into_inner()),
        }
    }

    /// Points that failed to measure, keyed by `(P, W)` in grid order.
    pub fn failures(&self) -> &BTreeMap<(u32, u32), odb_core::Error> {
        &self.failures
    }

    /// Errors if any point failed. The error enumerates **every** failed
    /// `(P, W)` key — a partially failed 27-point ladder is diagnosable
    /// from one run instead of one fix-and-rerun cycle per point — while
    /// keeping the first failure's variant, so `InvalidConfig` stays
    /// distinguishable from `CorruptState`. Use after
    /// [`Sweep::run`]/[`Sweep::run_points`] when partial ladders are not
    /// acceptable (persistence, figure regeneration, benchmarks).
    ///
    /// # Errors
    ///
    /// The first failed point's error in grid order, its message
    /// annotated with that point's coordinates and, when more points
    /// failed, a `; also failed …` suffix naming each of the rest with
    /// its own error text.
    pub fn ensure_complete(&self) -> Result<(), odb_core::Error> {
        let mut failures = self.failures.iter();
        let Some(((p, w), first)) = failures.next() else {
            return Ok(());
        };
        let mut rest = String::new();
        for (i, ((p, w), e)) in failures.enumerate() {
            let sep = if i == 0 { "; also failed" } else { ";" };
            rest.push_str(&format!("{sep} (W={w}, P={p}): {e}"));
        }
        Err(match first.clone() {
            odb_core::Error::InvalidConfig { field, reason } => {
                odb_core::Error::InvalidConfig {
                    field,
                    reason: format!("sweep point (W={w}, P={p}): {reason}{rest}"),
                }
            }
            odb_core::Error::CorruptState { component, detail } => {
                odb_core::Error::CorruptState {
                    component,
                    detail: format!("sweep point (W={w}, P={p}): {detail}{rest}"),
                }
            }
            other => other,
        })
    }

    /// Probe-fidelity CPU utilization of `point` at `clients` clients —
    /// the quantity the client search thresholds. Deterministic: the
    /// probe seed comes from [`SimOptions::for_point`].
    ///
    /// # Errors
    ///
    /// Propagates configuration/simulation errors.
    pub fn probe_utilization(
        system: &SystemConfig,
        options: &SweepOptions,
        point: ConfigPoint,
        clients: u32,
    ) -> Result<f64, odb_core::Error> {
        Self::probe_utilization_timed(system, options, point, clients).map(|(u, _)| u)
    }

    /// [`Sweep::probe_utilization`] plus the probe run's per-phase
    /// wall-clock, so the client search can charge its cost to the right
    /// phase in the point's [`SweepRow::phase_seconds`].
    ///
    /// Consults [`SweepOptions::cache`] first: a cached probe returns its
    /// recorded utilization with zero phase time (phase timings are
    /// wall-clock diagnostics of *simulation actually performed* — a
    /// replay performs none).
    fn probe_utilization_timed(
        system: &SystemConfig,
        options: &SweepOptions,
        point: ConfigPoint,
        clients: u32,
    ) -> Result<(f64, PhaseSeconds), odb_core::Error> {
        if let Some(cache) = &options.cache {
            if let Some(utilization) = cache.probe(point.processors, point.warehouses, clients) {
                return Ok((utilization, PhaseSeconds::default()));
            }
        }
        let sys = system.clone().with_processors(point.processors);
        let probe = options
            .probe
            .for_point(point.warehouses, point.processors)
            .with_within_point_jobs(options.effective_within_point_jobs());
        let config = OltpConfig::new(WorkloadConfig::new(point.warehouses, clients)?, sys)?;
        let artifacts = OdbSimulator::new(config, probe)?.run_detailed()?;
        if let Some(cache) = &options.cache {
            cache.record_probe(
                point.processors,
                point.warehouses,
                clients,
                artifacts.measurement.cpu_utilization,
            );
        }
        Ok((
            artifacts.measurement.cpu_utilization,
            artifacts.phase_seconds,
        ))
    }

    /// The client-count utilization search for one point: binary-search
    /// [`CLIENT_GRID`] for the first count reaching the target (the grid
    /// is ascending and utilization is monotone in clients to within
    /// noise), then add one grid step of headroom. The headroom absorbs
    /// the fidelity gap between the fast probe and the measurement-grade
    /// run — and mirrors how the paper's operators provision clients:
    /// comfortably above, not at, the 90% knife edge.
    ///
    /// # Errors
    ///
    /// Propagates configuration/simulation errors.
    pub fn search_clients(
        system: &SystemConfig,
        options: &SweepOptions,
        point: ConfigPoint,
    ) -> Result<ClientSearch, odb_core::Error> {
        if let Some(cache) = &options.cache {
            if let Some((clients, saturated)) = cache.search(point.processors, point.warehouses) {
                return Ok(ClientSearch {
                    clients,
                    saturated,
                    phase_seconds: PhaseSeconds::default(),
                });
            }
        }
        let result = Self::search_clients_uncached(system, options, point)?;
        if let Some(cache) = &options.cache {
            cache.record_search(
                point.processors,
                point.warehouses,
                result.clients,
                result.saturated,
            );
        }
        Ok(result)
    }

    /// The search proper; [`Sweep::search_clients`] wraps it with the
    /// cache lookup/record so every return path is memoized once.
    fn search_clients_uncached(
        system: &SystemConfig,
        options: &SweepOptions,
        point: ConfigPoint,
    ) -> Result<ClientSearch, odb_core::Error> {
        let mut phase = PhaseSeconds::default();
        let mut probe = |clients: u32| -> Result<f64, odb_core::Error> {
            let (utilization, p) = Self::probe_utilization_timed(system, options, point, clients)?;
            phase.accumulate(&p);
            Ok(utilization)
        };
        let mut lo = 0usize;
        let mut hi = CLIENT_GRID.len() - 1;
        if probe(CLIENT_GRID[hi])? < options.utilization_target {
            return Ok(ClientSearch {
                clients: CLIENT_GRID[hi],
                saturated: true,
                phase_seconds: phase,
            });
        }
        while lo < hi {
            let mid = (lo + hi) / 2;
            if probe(CLIENT_GRID[mid])? >= options.utilization_target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(ClientSearch {
            clients: CLIENT_GRID[(hi + 1).min(CLIENT_GRID.len() - 1)],
            saturated: false,
            phase_seconds: phase,
        })
    }

    /// One point through the cache: a journalled row is replayed
    /// byte-exactly without simulating; a fresh point runs and its
    /// outcome (row or failure) is recorded before being returned. Both
    /// `run_points` paths go through here, so resume and memoization
    /// behave identically under any `jobs` count.
    fn measure_or_replay(
        system: &SystemConfig,
        options: &SweepOptions,
        point: ConfigPoint,
    ) -> Result<SweepRow, odb_core::Error> {
        if let Some(cache) = &options.cache {
            if let Some(row) = cache.row(point.processors, point.warehouses) {
                return Ok(row);
            }
        }
        match Self::run_point(system, options, point) {
            Ok(row) => {
                if let Some(cache) = &options.cache {
                    cache.record_row(&row);
                }
                Ok(row)
            }
            Err(e) => {
                if let Some(cache) = &options.cache {
                    cache.record_failure(point.processors, point.warehouses, &e);
                }
                Err(e)
            }
        }
    }

    /// Client search pipelined into measurement for one point.
    fn run_point(
        system: &SystemConfig,
        options: &SweepOptions,
        point: ConfigPoint,
    ) -> Result<SweepRow, odb_core::Error> {
        let ClientSearch {
            clients,
            saturated,
            phase_seconds: mut phase,
        } = Self::search_clients(system, options, point)?;
        let sys = system.clone().with_processors(point.processors);
        let measure = options
            .measure
            .for_point(point.warehouses, point.processors)
            .with_within_point_jobs(options.effective_within_point_jobs());
        let config = OltpConfig::new(WorkloadConfig::new(point.warehouses, clients)?, sys)?;
        let artifacts = OdbSimulator::new(config, measure)?.run_detailed()?;
        phase.accumulate(&artifacts.phase_seconds);
        Ok(SweepRow {
            point,
            clients,
            saturated,
            measurement: artifacts.measurement,
            characterization: artifacts.characterization,
            phase_seconds: phase,
        })
    }

    /// Assembles a sweep from pre-computed rows (testing, replaying saved
    /// results).
    pub fn from_rows(rows: Vec<SweepRow>) -> Self {
        Self {
            rows: rows
                .into_iter()
                .map(|r| ((r.point.processors, r.point.warehouses), r))
                .collect(),
            failures: BTreeMap::new(),
        }
    }

    /// The row for `(processors, warehouses)`, if measured.
    pub fn row(&self, processors: u32, warehouses: u32) -> Option<&SweepRow> {
        self.rows.get(&(processors, warehouses))
    }

    /// Rows for one processor count, ascending in `W`.
    pub fn rows_for(&self, processors: u32) -> Vec<&SweepRow> {
        self.rows
            .range((processors, 0)..(processors + 1, 0))
            .map(|(_, row)| row)
            .collect()
    }

    /// All rows in `(P, W)` order.
    pub fn iter(&self) -> impl Iterator<Item = &SweepRow> {
        self.rows.values()
    }

    /// Number of measured points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when nothing was measured.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Locks a mutex, discarding poisoning: sweep workers hold these locks
/// only around infallible map/option operations, so a poisoned lock can
/// only mean a panic in *another* worker's simulation code, and the data
/// under this lock is still consistent.
fn lock_clean<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small end-to-end sweep exercises the search and projections.
    /// Kept tiny: full-ladder sweeps live in the CLI and benches.
    #[test]
    fn mini_sweep_finds_clients_and_measures() {
        let points = [
            ConfigPoint {
                warehouses: 10,
                processors: 1,
            },
            ConfigPoint {
                warehouses: 10,
                processors: 2,
            },
        ];
        let sweep =
            Sweep::run_points(&SystemConfig::xeon_quad(), &SweepOptions::quick(), &points);
        sweep.ensure_complete().unwrap();
        assert_eq!(sweep.len(), 2);
        assert!(!sweep.is_empty());
        let row = sweep.row(1, 10).expect("measured");
        assert!(row.clients >= 1);
        assert!(!row.saturated, "10 W is CPU-bound, not I/O-bound");
        assert!(row.measurement.cpu_utilization >= 0.90);
        assert!(row.measurement.transactions > 0);
        // rows_for returns the P=1 block only.
        assert_eq!(sweep.rows_for(1).len(), 1);
        assert_eq!(sweep.rows_for(2).len(), 1);
        assert_eq!(sweep.rows_for(4).len(), 0);
        // 2P needs at least as many clients as 1P (Table 1's trend).
        let row2 = sweep.row(2, 10).unwrap();
        assert!(row2.clients >= row.clients);
    }

    /// The tentpole guarantee: a parallel sweep is bit-identical to a
    /// sequential sweep, row for row.
    #[test]
    fn parallel_sweep_matches_sequential() {
        let points: Vec<ConfigPoint> = [1u32, 2, 4]
            .iter()
            .flat_map(|&p| {
                [10u32, 25].iter().map(move |&w| ConfigPoint {
                    warehouses: w,
                    processors: p,
                })
            })
            .collect();
        let system = SystemConfig::xeon_quad();
        let sequential = Sweep::run_points(&system, &SweepOptions::quick(), &points);
        let parallel =
            Sweep::run_points(&system, &SweepOptions::quick().with_jobs(4), &points);
        sequential.ensure_complete().unwrap();
        parallel.ensure_complete().unwrap();
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(parallel.iter()) {
            assert_eq!(a.point, b.point, "collection order must be grid order");
            assert_eq!(a.clients, b.clients);
            assert_eq!(a.saturated, b.saturated);
            assert_eq!(a.measurement, b.measurement, "bit-identical rows at {:?}", a.point);
        }
    }

    /// The binary search must agree with a brute-force linear scan of
    /// CLIENT_GRID — i.e. still return the *minimal* qualifying count
    /// (plus the documented one-step headroom) when points run
    /// concurrently.
    #[test]
    fn client_search_is_minimal_under_concurrency() {
        let system = SystemConfig::xeon_quad();
        let options = SweepOptions::quick().with_jobs(4);
        let points = [
            ConfigPoint {
                warehouses: 10,
                processors: 1,
            },
            ConfigPoint {
                warehouses: 25,
                processors: 2,
            },
        ];
        let sweep = Sweep::run_points(&system, &options, &points);
        sweep.ensure_complete().unwrap();
        for &point in &points {
            // Reference: first qualifying count by exhaustive ascent.
            let minimal_index = CLIENT_GRID.iter().position(|&c| {
                Sweep::probe_utilization(&system, &options, point, c).unwrap()
                    >= options.utilization_target
            });
            let expected = match minimal_index {
                Some(i) => CLIENT_GRID[(i + 1).min(CLIENT_GRID.len() - 1)],
                None => *CLIENT_GRID.last().unwrap(),
            };
            let row = sweep.row(point.processors, point.warehouses).unwrap();
            assert_eq!(row.clients, expected, "point {point:?}");
            assert_eq!(row.saturated, minimal_index.is_none());
        }
    }

    /// Failure isolation: a bad point is recorded in `failures` while the
    /// good points still run and are measured — one bad point fails that
    /// point, not the ladder. `ensure_complete` then surfaces the failure
    /// with its coordinates, preserving the error variant.
    #[test]
    fn bad_point_fails_alone_and_gates_completion() {
        let points = [
            ConfigPoint {
                warehouses: 10,
                processors: 1,
            },
            ConfigPoint {
                warehouses: 0, // invalid: WorkloadConfig rejects 0 W
                processors: 2,
            },
        ];
        let sweep = Sweep::run_points(
            &SystemConfig::xeon_quad(),
            &SweepOptions::quick().with_jobs(2),
            &points,
        );
        // The good point was measured despite its neighbour failing.
        assert_eq!(sweep.len(), 1);
        let row = sweep.row(1, 10).expect("good point measured");
        assert!(row.measurement.transactions > 0);
        // The bad point is recorded under its (P, W) key.
        assert_eq!(sweep.failures().len(), 1);
        assert!(matches!(
            sweep.failures().get(&(2, 0)),
            Some(odb_core::Error::InvalidConfig { .. })
        ));
        // The all-or-nothing gate names the point and keeps the variant.
        let err = sweep.ensure_complete().unwrap_err();
        assert!(matches!(err, odb_core::Error::InvalidConfig { .. }));
        assert!(
            err.to_string().contains("(W=0, P=2)"),
            "gate error must name the point: {err}"
        );
    }

    /// `ensure_complete` must enumerate *every* failed point, not just
    /// the first — a partially failed ladder is diagnosed from one run.
    #[test]
    fn ensure_complete_enumerates_every_failure() {
        let points = [
            ConfigPoint {
                warehouses: 0, // invalid
                processors: 1,
            },
            ConfigPoint {
                warehouses: 10,
                processors: 1,
            },
            ConfigPoint {
                warehouses: 0, // invalid
                processors: 4,
            },
        ];
        let sweep = Sweep::run_points(
            &SystemConfig::xeon_quad(),
            &SweepOptions::quick(),
            &points,
        );
        assert_eq!(sweep.failures().len(), 2);
        let err = sweep.ensure_complete().unwrap_err();
        assert!(matches!(err, odb_core::Error::InvalidConfig { .. }));
        let msg = err.to_string();
        assert!(msg.contains("(W=0, P=1)"), "first failure named: {msg}");
        assert!(
            msg.contains("also failed (W=0, P=4)"),
            "second failure named: {msg}"
        );
    }

    /// The result cache is bit-neutral: a cached sweep equals an uncached
    /// one, and re-running with the same cache replays rows instead of
    /// simulating (observable through the hit counter).
    #[test]
    fn cached_sweep_is_bit_identical_and_replays() {
        let system = SystemConfig::xeon_quad();
        let points = [ConfigPoint {
            warehouses: 10,
            processors: 1,
        }];
        let plain = Sweep::run_points(&system, &SweepOptions::quick(), &points);
        let cache = crate::journal::ResultCache::in_memory();
        let cached_options = SweepOptions::quick().with_cache(Arc::clone(&cache));
        let first = Sweep::run_points(&system, &cached_options, &points);
        assert_eq!(
            plain.row(1, 10).unwrap().measurement,
            first.row(1, 10).unwrap().measurement,
            "recording through the cache must not perturb the result"
        );
        let hits_before = cache.hit_count();
        let second = Sweep::run_points(&system, &cached_options, &points);
        assert_eq!(
            first.row(1, 10).unwrap().measurement,
            second.row(1, 10).unwrap().measurement
        );
        assert!(
            cache.hit_count() > hits_before,
            "second run must be served from the cache"
        );
        cache.finish().unwrap();
    }

    /// The arbitration table: the effective within-point width under
    /// auto and explicit budgets.
    #[test]
    fn within_point_arbitration_math() {
        // Defaults: everything serial.
        assert_eq!(SweepOptions::quick().effective_within_point_jobs(), 1);
        // Auto budget = max(jobs, wpj): jobs >= wpj collapses the
        // within-point width to serial (the across-point pool already
        // fills the budget)...
        let o = SweepOptions::quick().with_jobs(4).with_within_point_jobs(4);
        assert_eq!(o.effective_within_point_jobs(), 1);
        // ...while wpj > jobs splits the larger side across the pool.
        let o = SweepOptions::quick().with_jobs(2).with_within_point_jobs(4);
        assert_eq!(o.effective_within_point_jobs(), 2);
        let o = SweepOptions::quick().with_within_point_jobs(8);
        assert_eq!(o.effective_within_point_jobs(), 8);
        // An explicit budget that fits grants the full request.
        let o = SweepOptions::quick()
            .with_jobs(2)
            .with_within_point_jobs(4)
            .with_thread_budget(8);
        o.validate().unwrap();
        assert_eq!(o.effective_within_point_jobs(), 4);
        // A generous budget never exceeds the request.
        let o = SweepOptions::quick()
            .with_jobs(1)
            .with_within_point_jobs(2)
            .with_thread_budget(64);
        assert_eq!(o.effective_within_point_jobs(), 2);
    }

    /// Contradictory explicit budgets are rejected up front with a typed
    /// error, not silently throttled.
    #[test]
    fn validate_rejects_contradictory_thread_budget() {
        let o = SweepOptions::quick()
            .with_jobs(4)
            .with_within_point_jobs(4)
            .with_thread_budget(8);
        let err = o.validate().unwrap_err();
        assert!(matches!(
            err,
            odb_core::Error::InvalidConfig {
                field: "thread_budget",
                ..
            }
        ));
        assert!(err.to_string().contains("16"), "names the product: {err}");
        let err = SweepOptions::quick().with_thread_budget(0).validate();
        assert!(matches!(
            err,
            Err(odb_core::Error::InvalidConfig {
                field: "thread_budget",
                ..
            })
        ));
        // Valid shapes pass, including no budget at all.
        SweepOptions::quick().validate().unwrap();
        SweepOptions::quick()
            .with_jobs(2)
            .with_within_point_jobs(2)
            .with_thread_budget(4)
            .validate()
            .unwrap();
    }

    /// `run_points` stays infallible under a bad parallelism shape: the
    /// validation error is recorded as the failure of every requested
    /// point, and `ensure_complete` surfaces it typed.
    #[test]
    fn invalid_budget_fails_every_point_without_running() {
        let points = [
            ConfigPoint {
                warehouses: 10,
                processors: 1,
            },
            ConfigPoint {
                warehouses: 25,
                processors: 2,
            },
        ];
        let options = SweepOptions::quick()
            .with_jobs(4)
            .with_within_point_jobs(4)
            .with_thread_budget(2);
        let sweep = Sweep::run_points(&SystemConfig::xeon_quad(), &options, &points);
        assert!(sweep.is_empty(), "no point may run under a rejected shape");
        assert_eq!(sweep.failures().len(), points.len());
        let err = sweep.ensure_complete().unwrap_err();
        assert!(matches!(
            err,
            odb_core::Error::InvalidConfig {
                field: "thread_budget",
                ..
            }
        ));
    }

    /// Within-point workers are bit-neutral at the sweep level too: the
    /// ci.sh determinism gate in miniature.
    #[test]
    fn within_point_sweep_is_bit_identical() {
        let points = [
            ConfigPoint {
                warehouses: 10,
                processors: 1,
            },
            ConfigPoint {
                warehouses: 10,
                processors: 2,
            },
        ];
        let system = SystemConfig::xeon_quad();
        let serial = Sweep::run_points(&system, &SweepOptions::quick(), &points);
        let wide = Sweep::run_points(
            &system,
            &SweepOptions::quick()
                .with_jobs(2)
                .with_within_point_jobs(4)
                .with_thread_budget(8),
            &points,
        );
        serial.ensure_complete().unwrap();
        wide.ensure_complete().unwrap();
        assert_eq!(serial.len(), wide.len());
        for (a, b) in serial.iter().zip(wide.iter()) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.clients, b.clients);
            assert_eq!(a.measurement, b.measurement, "bit drift at {:?}", a.point);
            assert_eq!(a.characterization.rates, b.characterization.rates);
        }
    }

    /// The probe/measure comparability contract: quick options leave the
    /// writeback delay untouched (it already fits the window proportion),
    /// and the probe delay never exceeds the measurement delay.
    #[test]
    fn probe_load_mix_alignment() {
        let quick = SweepOptions::quick();
        assert_eq!(
            quick.probe.system.writeback_delay,
            quick.measure.system.writeback_delay
        );
        let standard = SweepOptions::standard();
        assert!(
            standard.probe.system.writeback_delay <= standard.measure.system.writeback_delay
        );
        // The delay lands inside the probe window so writeback traffic is
        // visible to the utilization judgment.
        assert!(standard.probe.system.writeback_delay <= standard.probe.measure);
    }
}
