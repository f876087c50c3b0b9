//! The batch experiment engine.
//!
//! Every experiment in this crate reduces to the same shape: a matrix of
//! (machine, workload, SMT level) jobs, each measured with the two-pass
//! protocol in [`crate::runner`]. The engine owns that shape end to end:
//!
//! - a [`RunRequest`] describes the matrix and validates into a
//!   [`RunPlan`] (invalid machines, workloads, levels, or protocol
//!   constants are rejected up front with [`Error`], before any cycles
//!   are burned);
//! - [`Engine::run`] executes the plan across host cores with per-job
//!   fault isolation — a job that panics or hits the cycle cap becomes a
//!   structured [`JobError`] in the sweep instead of poisoning the other
//!   jobs;
//! - an optional [`ResultCache`] satisfies unchanged jobs from disk, so
//!   re-running a sweep only pays for what changed;
//! - a [`ProgressSink`] observes per-job completion and the final
//!   [`EngineMetrics`].

use crate::cache::ResultCache;
use crate::progress::{JobOutcome, NullSink, ProgressEvent, ProgressSink};
use crate::runner::{measure_level, BenchResult, LevelMeasurement, ProtocolConfig};
use rayon::prelude::*;
use smt_sim::error::panic_message;
use smt_sim::{Error, MachineConfig, SmtLevel};
use smt_workloads::WorkloadSpec;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A description of one experiment sweep: which machine, which
/// benchmarks, which SMT levels, under which protocol constants.
///
/// Build one with the fluent methods, then call [`RunRequest::plan`] to
/// validate it into an executable [`RunPlan`].
#[derive(Debug, Clone)]
pub struct RunRequest {
    machine: MachineConfig,
    benchmarks: Vec<WorkloadSpec>,
    levels: Vec<SmtLevel>,
    protocol: ProtocolConfig,
}

impl RunRequest {
    /// Start a request on `machine` — the head of the fluent chain:
    /// `RunRequest::on(machine).workloads(..).levels(..).protocol(..)`.
    pub fn on(machine: MachineConfig) -> RunRequest {
        RunRequest {
            machine,
            benchmarks: Vec::new(),
            levels: Vec::new(),
            protocol: ProtocolConfig::default(),
        }
    }

    /// Add one benchmark.
    pub fn benchmark(mut self, spec: WorkloadSpec) -> RunRequest {
        self.benchmarks.push(spec);
        self
    }

    /// Add a batch of workloads to measure.
    pub fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> RunRequest {
        self.benchmarks.extend(specs);
        self
    }

    /// Set the SMT levels every benchmark is measured at.
    pub fn levels(mut self, levels: impl IntoIterator<Item = SmtLevel>) -> RunRequest {
        self.levels = levels.into_iter().collect();
        self
    }

    /// Use every SMT level the machine supports.
    pub fn all_levels(mut self) -> RunRequest {
        self.levels = self.machine.smt_levels();
        self
    }

    /// Override the measurement-protocol constants (part of the cache
    /// key: changing them re-measures every job).
    pub fn protocol(mut self, protocol: ProtocolConfig) -> RunRequest {
        self.protocol = protocol;
        self
    }

    /// Validate the request into an executable [`RunPlan`].
    ///
    /// Checks the machine, every workload spec, the protocol constants,
    /// and that every requested level is one the machine supports, so
    /// [`Engine::run`] never trips the simulator's internal assertions on
    /// malformed input.
    pub fn plan(self) -> Result<RunPlan, Error> {
        self.machine.validate()?;
        self.protocol.validate()?;
        if self.benchmarks.is_empty() {
            return Err(Error::InvalidWorkload("request has no benchmarks".into()));
        }
        if self.levels.is_empty() {
            return Err(Error::InvalidMachine("request has no SMT levels".into()));
        }
        let mut seen_names = std::collections::BTreeSet::new();
        for spec in &self.benchmarks {
            spec.validate()?;
            if !seen_names.insert(spec.name.clone()) {
                return Err(Error::InvalidWorkload(format!(
                    "duplicate benchmark name `{}` in request",
                    spec.name
                )));
            }
        }
        let mut seen_levels = std::collections::BTreeSet::new();
        for &level in &self.levels {
            if level.ways() > self.machine.arch.max_smt.ways() {
                return Err(Error::InvalidMachine(format!(
                    "machine `{}` supports up to {}, requested {level}",
                    self.machine.arch.name, self.machine.arch.max_smt
                )));
            }
            if !seen_levels.insert(level) {
                return Err(Error::InvalidMachine(format!(
                    "duplicate level {level} in request"
                )));
            }
        }
        let jobs: Vec<JobSpec> = (0..self.benchmarks.len())
            .flat_map(|bench| {
                self.levels
                    .iter()
                    .map(move |&level| JobSpec { bench, level })
            })
            .collect();
        Ok(RunPlan {
            machine: self.machine,
            benchmarks: self.benchmarks,
            levels: self.levels,
            protocol: self.protocol,
            jobs,
        })
    }
}

/// One (benchmark, level) cell of the job matrix.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    bench: usize,
    level: SmtLevel,
}

/// A validated, executable job matrix. Produced by [`RunRequest::plan`].
#[derive(Debug, Clone)]
pub struct RunPlan {
    machine: MachineConfig,
    benchmarks: Vec<WorkloadSpec>,
    levels: Vec<SmtLevel>,
    protocol: ProtocolConfig,
    jobs: Vec<JobSpec>,
}

impl RunPlan {
    /// Total number of jobs (benchmarks × levels).
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The machine every job runs on.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The benchmarks in the plan, in request order.
    pub fn benchmarks(&self) -> &[WorkloadSpec] {
        &self.benchmarks
    }

    /// The SMT levels every benchmark is measured at.
    pub fn levels(&self) -> &[SmtLevel] {
        &self.levels
    }

    /// The protocol constants the jobs run under.
    pub fn protocol(&self) -> &ProtocolConfig {
        &self.protocol
    }
}

/// Why one job of a sweep produced no usable measurement.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The job panicked (simulator assertion, arithmetic bug, ...); the
    /// panic was caught on the worker and the rest of the sweep ran on.
    Panicked {
        /// Benchmark whose job panicked.
        benchmark: String,
        /// SMT level of the job.
        level: SmtLevel,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The run hit `max_run_cycles` without finishing. The partial
    /// measurement is preserved for diagnosis but is not entered into
    /// the result set or the cache.
    Incomplete {
        /// Benchmark whose run was capped.
        benchmark: String,
        /// SMT level of the job.
        level: SmtLevel,
        /// What was measured before the cap.
        measurement: Box<LevelMeasurement>,
    },
}

impl JobError {
    /// The benchmark this error belongs to.
    pub fn benchmark(&self) -> &str {
        match self {
            JobError::Panicked { benchmark, .. } | JobError::Incomplete { benchmark, .. } => {
                benchmark
            }
        }
    }

    /// The SMT level of the failed job.
    pub fn level(&self) -> SmtLevel {
        match self {
            JobError::Panicked { level, .. } | JobError::Incomplete { level, .. } => *level,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked {
                benchmark,
                level,
                message,
            } => {
                write!(f, "`{benchmark}` @ {level} panicked: {message}")
            }
            JobError::Incomplete {
                benchmark,
                level,
                measurement,
            } => write!(
                f,
                "`{benchmark}` @ {level} hit the cycle cap after {} cycles",
                measurement.cycles
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// Counters describing how a sweep was satisfied.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Jobs in the plan.
    pub jobs_total: usize,
    /// Jobs simulated fresh (including failed attempts).
    pub jobs_run: usize,
    /// Jobs satisfied from the result cache.
    pub cache_hits: usize,
    /// Jobs that produced a [`JobError`].
    pub jobs_failed: usize,
    /// Cache entries that could not be read or written (each such job
    /// was simply recomputed / left uncached).
    pub cache_errors: usize,
    /// Simulated cycles across all fresh first-pass runs.
    pub cycles_simulated: u64,
    /// Wall time of the whole sweep.
    pub wall: Duration,
}

impl EngineMetrics {
    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs: {} run, {} cached, {} failed; {:.2e} cycles simulated in {:.2?}",
            self.jobs_total,
            self.jobs_run,
            self.cache_hits,
            self.jobs_failed,
            self.cycles_simulated as f64,
            self.wall
        )
    }
}

/// Everything a sweep produced.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One entry per benchmark in plan order. A benchmark whose job
    /// failed at some level still appears here with the levels that
    /// succeeded.
    pub results: Vec<BenchResult>,
    /// Structured errors for the jobs that failed, in job order.
    pub errors: Vec<JobError>,
    /// How the sweep was satisfied.
    pub metrics: EngineMetrics,
}

impl SweepResult {
    /// `true` when every job produced a completed measurement.
    pub fn all_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Executes [`RunPlan`]s: parallel or serial, cached or not, silent or
/// reporting progress.
pub struct Engine {
    cache: Option<ResultCache>,
    sink: Arc<dyn ProgressSink>,
    serial: bool,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// A parallel, uncached, silent engine.
    pub fn new() -> Engine {
        Engine {
            cache: None,
            sink: Arc::new(NullSink),
            serial: false,
        }
    }

    /// An engine caching under [`ResultCache::default_dir`]
    /// (`results/cache/`).
    pub fn cached() -> Engine {
        Engine::new().with_cache(ResultCache::new(ResultCache::default_dir()))
    }

    /// Attach a result cache.
    pub fn with_cache(mut self, cache: ResultCache) -> Engine {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// Attach a progress sink, shared with the worker threads.
    pub fn progress(mut self, sink: Arc<dyn ProgressSink>) -> Engine {
        self.sink = sink;
        self
    }

    /// Force single-threaded execution (jobs run in plan order).
    /// Measurements are deterministic either way; serial mode exists for
    /// tests that prove it and for debugging with ordered output.
    pub fn serial(mut self, serial: bool) -> Engine {
        self.serial = serial;
        self
    }

    /// Execute every job of `plan`, assembling per-benchmark results.
    ///
    /// Never panics on job failure: each job runs under
    /// [`catch_unwind`], and runs that hit the cycle cap are reported as
    /// [`JobError::Incomplete`]. The sweep itself is infallible — in the
    /// worst case every job fails and `results` holds empty level maps.
    pub fn run(&self, plan: &RunPlan) -> SweepResult {
        let t0 = Instant::now();
        let jobs_total = plan.jobs.len();
        self.sink
            .on_event(&ProgressEvent::SweepStarted { jobs_total });
        let done = AtomicUsize::new(0);

        let execute = |job: &JobSpec| -> JobResult {
            let jt0 = Instant::now();
            let spec = &plan.benchmarks[job.bench];
            let mut cache_errors = 0usize;
            let key = self
                .cache
                .as_ref()
                .map(|_| ResultCache::key(&plan.machine, spec, job.level, &plan.protocol));

            let mut cached = None;
            if let (Some(cache), Some(key)) = (&self.cache, &key) {
                match cache.load(key) {
                    Ok(hit) => cached = hit,
                    Err(_) => cache_errors += 1, // unreadable entry: recompute
                }
            }

            let (outcome, payload) = match cached {
                Some(m) => (JobOutcome::CacheHit, Ok(m)),
                None => {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        measure_level(&plan.machine, spec, job.level, &plan.protocol)
                    }));
                    match run {
                        Ok(m) if m.completed => {
                            if let (Some(cache), Some(key)) = (&self.cache, &key) {
                                if cache.store(key, &m).is_err() {
                                    cache_errors += 1;
                                }
                            }
                            (JobOutcome::Computed, Ok(m))
                        }
                        Ok(m) => (
                            JobOutcome::Failed,
                            Err(JobError::Incomplete {
                                benchmark: spec.name.clone(),
                                level: job.level,
                                measurement: Box::new(m),
                            }),
                        ),
                        Err(payload) => (
                            JobOutcome::Failed,
                            Err(JobError::Panicked {
                                benchmark: spec.name.clone(),
                                level: job.level,
                                message: panic_message(&payload),
                            }),
                        ),
                    }
                }
            };

            let jobs_done = done.fetch_add(1, Ordering::Relaxed) + 1;
            self.sink.on_event(&ProgressEvent::JobFinished {
                benchmark: &spec.name,
                level: job.level,
                outcome,
                jobs_done,
                jobs_total,
                elapsed: jt0.elapsed(),
            });
            JobResult {
                bench: job.bench,
                outcome,
                payload,
                cache_errors,
            }
        };

        let outcomes: Vec<JobResult> = if self.serial {
            plan.jobs.iter().map(execute).collect()
        } else {
            plan.jobs.par_iter().map(execute).collect()
        };

        let mut metrics = EngineMetrics {
            jobs_total,
            ..EngineMetrics::default()
        };
        let mut levels: Vec<BTreeMap<SmtLevel, LevelMeasurement>> =
            plan.benchmarks.iter().map(|_| BTreeMap::new()).collect();
        let mut errors = Vec::new();
        for job in outcomes {
            metrics.cache_errors += job.cache_errors;
            match job.outcome {
                JobOutcome::CacheHit => metrics.cache_hits += 1,
                JobOutcome::Computed => metrics.jobs_run += 1,
                JobOutcome::Failed => {
                    metrics.jobs_run += 1;
                    metrics.jobs_failed += 1;
                }
            }
            match job.payload {
                Ok(m) => {
                    if job.outcome == JobOutcome::Computed {
                        metrics.cycles_simulated += m.cycles;
                    }
                    levels[job.bench].insert(m.smt, m);
                }
                Err(e) => {
                    if let JobError::Incomplete { measurement, .. } = &e {
                        metrics.cycles_simulated += measurement.cycles;
                    }
                    errors.push(e);
                }
            }
        }
        let results: Vec<BenchResult> = plan
            .benchmarks
            .iter()
            .zip(levels)
            .map(|(spec, levels)| BenchResult {
                name: spec.name.clone(),
                levels,
            })
            .collect();
        metrics.wall = t0.elapsed();
        self.sink
            .on_event(&ProgressEvent::SweepFinished { metrics: &metrics });
        SweepResult {
            results,
            errors,
            metrics,
        }
    }
}

/// Worker-side record for one finished job.
struct JobResult {
    bench: usize,
    outcome: JobOutcome,
    payload: Result<LevelMeasurement, JobError>,
    cache_errors: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::catalog;

    fn tiny_plan() -> RunPlan {
        RunRequest::on(MachineConfig::generic(2))
            .workloads([catalog::ep().scaled(0.01), catalog::ssca2().scaled(0.01)])
            .levels([SmtLevel::Smt1, SmtLevel::Smt2])
            .plan()
            .unwrap()
    }

    #[test]
    fn plan_validates_inputs() {
        let machine = MachineConfig::generic(2);
        assert!(matches!(
            RunRequest::on(machine.clone())
                .levels([SmtLevel::Smt1])
                .plan(),
            Err(Error::InvalidWorkload(_))
        ));
        assert!(matches!(
            RunRequest::on(machine.clone())
                .benchmark(catalog::ep())
                .plan(),
            Err(Error::InvalidMachine(_))
        ));
        // generic machines are SMT2: SMT4 jobs must be rejected at plan
        // time, not blow up inside the simulator.
        assert!(matches!(
            RunRequest::on(machine.clone())
                .benchmark(catalog::ep())
                .levels([SmtLevel::Smt4])
                .plan(),
            Err(Error::InvalidMachine(_))
        ));
        let dup = RunRequest::on(machine)
            .workloads([catalog::ep(), catalog::ep()])
            .levels([SmtLevel::Smt1])
            .plan();
        assert!(matches!(dup, Err(Error::InvalidWorkload(_))));
    }

    #[test]
    fn sweep_covers_the_matrix() {
        let plan = tiny_plan();
        assert_eq!(plan.job_count(), 4);
        let sweep = Engine::new().run(&plan);
        assert!(sweep.all_ok(), "errors: {:?}", sweep.errors);
        assert_eq!(sweep.results.len(), 2);
        assert_eq!(sweep.results[0].name, "EP");
        for r in &sweep.results {
            assert_eq!(r.levels.len(), 2);
        }
        assert_eq!(sweep.metrics.jobs_run, 4);
        assert_eq!(sweep.metrics.cache_hits, 0);
        assert!(sweep.metrics.cycles_simulated > 0);
    }

    #[test]
    fn all_levels_uses_machine_support() {
        let plan = RunRequest::on(MachineConfig::generic(2))
            .benchmark(catalog::ep().scaled(0.01))
            .all_levels()
            .plan()
            .unwrap();
        assert_eq!(plan.levels(), &[SmtLevel::Smt1, SmtLevel::Smt2]);
    }
}
