//! Integration tests for the batch engine: cache round-trips, parallel vs
//! serial determinism, and per-job fault isolation.

use smt_experiments::{
    Engine, JobError, JobOutcome, ProgressEvent, ProgressSink, ProtocolConfig, ResultCache,
    RunRequest,
};
use smt_sim::{MachineConfig, SmtLevel};
use smt_workloads::catalog;
use std::path::PathBuf;
use std::sync::Mutex;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smt-engine-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_plan() -> smt_experiments::RunPlan {
    RunRequest::on(MachineConfig::generic(2))
        .workloads([catalog::ep().scaled(0.01), catalog::ssca2().scaled(0.01)])
        .levels([SmtLevel::Smt1, SmtLevel::Smt2])
        .plan()
        .expect("valid plan")
}

#[test]
fn second_run_is_served_entirely_from_cache() {
    let dir = tmp_dir("roundtrip");
    let plan = tiny_plan();

    let cold = Engine::new().with_cache(ResultCache::new(&dir)).run(&plan);
    assert!(cold.all_ok(), "cold sweep failed: {:?}", cold.errors);
    assert_eq!(cold.metrics.jobs_run, 4);
    assert_eq!(cold.metrics.cache_hits, 0);
    assert_eq!(cold.metrics.cache_errors, 0);
    assert_eq!(ResultCache::new(&dir).len(), 4, "every job persisted");

    // A fresh engine over the same directory must not simulate anything.
    let warm = Engine::new().with_cache(ResultCache::new(&dir)).run(&plan);
    assert!(warm.all_ok());
    assert_eq!(warm.metrics.cache_hits, 4);
    assert_eq!(warm.metrics.jobs_run, 0);
    assert_eq!(warm.metrics.cycles_simulated, 0);

    // The reloaded measurements are the originals, bit for bit.
    for (a, b) in cold.results.iter().zip(&warm.results) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.levels.len(), b.levels.len());
        for (level, ma) in &a.levels {
            let mb = &b.levels[level];
            assert_eq!(ma.perf, mb.perf, "{} @ {level}", a.name);
            assert_eq!(ma.cycles, mb.cycles);
            assert_eq!(ma.completed, mb.completed);
            assert_eq!(ma.factors.value(), mb.factors.value());
            assert_eq!(ma.naive, mb.naive);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changing_the_protocol_invalidates_the_cache() {
    let dir = tmp_dir("invalidate");
    let plan = tiny_plan();
    let engine = Engine::new().with_cache(ResultCache::new(&dir));
    engine.run(&plan);

    let other = RunRequest::on(MachineConfig::generic(2))
        .workloads([catalog::ep().scaled(0.01), catalog::ssca2().scaled(0.01)])
        .levels([SmtLevel::Smt1, SmtLevel::Smt2])
        .protocol(ProtocolConfig {
            window_cycles: 40_000,
            ..ProtocolConfig::default()
        })
        .plan()
        .expect("valid plan");
    let sweep = engine.run(&other);
    assert_eq!(
        sweep.metrics.cache_hits, 0,
        "protocol change must re-measure"
    );
    assert_eq!(sweep.metrics.jobs_run, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_and_serial_sweeps_are_identical() {
    let plan = tiny_plan();
    let par = Engine::new().run(&plan);
    let ser = Engine::new().serial(true).run(&plan);
    assert!(par.all_ok() && ser.all_ok());
    assert_eq!(par.results.len(), ser.results.len());
    for (a, b) in par.results.iter().zip(&ser.results) {
        assert_eq!(a.name, b.name);
        for (level, ma) in &a.levels {
            let mb = &b.levels[level];
            assert_eq!(ma.perf, mb.perf, "{} @ {level} diverged", a.name);
            assert_eq!(ma.cycles, mb.cycles);
            assert_eq!(ma.factors.value(), mb.factors.value());
        }
    }
}

#[test]
fn one_capped_job_does_not_poison_the_sweep() {
    let dir = tmp_dir("faults");
    // 50k cycles is plenty for tiny EP (~17k) and far too little for the
    // larger CG job (~400k): exactly one job must fail.
    let protocol = ProtocolConfig {
        warmup_cycles: 1_000,
        window_cycles: 5_000,
        max_run_cycles: 50_000,
    };
    let plan = RunRequest::on(MachineConfig::generic(2))
        .workloads([catalog::ep().scaled(0.01), catalog::cg_mpi().scaled(0.2)])
        .levels([SmtLevel::Smt1])
        .protocol(protocol)
        .plan()
        .expect("valid plan");
    let sweep = Engine::new().with_cache(ResultCache::new(&dir)).run(&plan);

    assert_eq!(sweep.errors.len(), 1, "exactly one job fails");
    match &sweep.errors[0] {
        JobError::Incomplete {
            benchmark,
            level,
            measurement,
        } => {
            assert_eq!(benchmark, "CG_MPI");
            assert_eq!(*level, SmtLevel::Smt1);
            assert!(!measurement.completed);
            assert!(measurement.cycles >= 50_000);
        }
        other => panic!("expected Incomplete, got {other}"),
    }
    assert_eq!(sweep.metrics.jobs_failed, 1);

    // The healthy benchmark is fully measured...
    assert_eq!(sweep.results.len(), 2);
    let ep = &sweep.results[0];
    assert_eq!(ep.name, "EP");
    assert!(ep.levels[&SmtLevel::Smt1].completed);
    // ...the failed one appears with no measurement at the failed level...
    assert!(sweep.results[1].level(SmtLevel::Smt1).is_err());
    // ...and the failure was not persisted, so a rerun retries it.
    assert_eq!(
        ResultCache::new(&dir).len(),
        1,
        "only the completed job is cached"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Collects outcomes so tests can assert what the engine reported.
#[derive(Default)]
struct RecordingSink {
    started: Mutex<Vec<usize>>,
    outcomes: Mutex<Vec<(String, JobOutcome)>>,
    finished: Mutex<Vec<usize>>,
}

impl ProgressSink for RecordingSink {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        match event {
            ProgressEvent::SweepStarted { jobs_total } => {
                self.started.lock().unwrap().push(*jobs_total);
            }
            ProgressEvent::JobFinished {
                benchmark, outcome, ..
            } => {
                self.outcomes
                    .lock()
                    .unwrap()
                    .push((benchmark.to_string(), *outcome));
            }
            ProgressEvent::SweepFinished { metrics } => {
                self.finished.lock().unwrap().push(metrics.jobs_total);
            }
        }
    }
}

#[test]
fn progress_sink_sees_every_job() {
    let dir = tmp_dir("progress");
    let sink = std::sync::Arc::new(RecordingSink::default());
    let engine = Engine::new()
        .with_cache(ResultCache::new(&dir))
        .progress(sink.clone());
    let plan = tiny_plan();

    engine.run(&plan);
    assert_eq!(*sink.started.lock().unwrap(), vec![4]);
    assert_eq!(*sink.finished.lock().unwrap(), vec![4]);
    {
        let outcomes = sink.outcomes.lock().unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|(_, o)| *o == JobOutcome::Computed));
    }

    engine.run(&plan);
    let outcomes = sink.outcomes.lock().unwrap();
    assert_eq!(outcomes.len(), 8);
    assert!(outcomes[4..]
        .iter()
        .all(|(_, o)| *o == JobOutcome::CacheHit));
    let _ = std::fs::remove_dir_all(&dir);
}
