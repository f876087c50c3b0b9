//! `smt-experiments`: the harness regenerating every table and figure of
//! *"An SMT-Selection Metric to Improve Multithreaded Applications'
//! Performance"* (Funston et al., IPDPS 2012).
//!
//! - [`runner`] — the measurement protocol (whole-run throughput + online
//!   counter windows) for one (machine, workload, SMT level).
//! - [`engine`] — the batch engine executing a (machine, workload, level)
//!   job matrix with fault isolation, a content-addressed result cache
//!   ([`cache`]), and pluggable progress reporting ([`progress`]).
//! - [`suite`] — dataset collection: every benchmark at every SMT level on
//!   each evaluation machine.
//! - [`scatter`] — the generic "metric vs. speedup + threshold" template
//!   behind Figs. 6 and 8-15.
//! - [`figures`] — one function per paper artifact (Figs. 1, 2, 6-17,
//!   Table I, success rates).
//! - [`sched_demo`] — the Section-V dynamic-selection experiment.
//! - [`autotune`] — the stability-vs-regret study of the closed-loop
//!   autotuner (`smt-autotune`) against static levels and the per-phase
//!   oracle.
//! - [`ablation`] — the Eq.-1 factor study (full product vs. each factor
//!   removed).
//! - [`placement`] — the placement-allocator accuracy study: each search
//!   strategy's regret against a simulate-every-placement oracle.
//! - [`score`] — `repro score`: the canonical-corpus accuracy scorer and
//!   its committed `results/score/` artifacts and regression gate.
//! - [`cli`] — the strict flag reader and exit-code mapping every binary
//!   shares.
//!
//! The `repro` binary drives everything:
//! `cargo run --release -p smt-experiments --bin repro -- all --scale 0.3`.

#![warn(missing_docs)]

pub mod ablation;
pub mod autotune;
pub mod cache;
pub mod cli;
pub mod engine;
pub mod figures;
pub mod placement;
pub mod plot;
pub mod progress;
pub mod runner;
pub mod scatter;
pub mod sched_demo;
pub mod score;
pub mod suite;
pub mod validation;

pub use autotune::{AutotuneScenario, AutotuneStudy};
pub use cache::ResultCache;
pub use engine::{Engine, EngineMetrics, JobError, RunPlan, RunRequest, SweepResult};
pub use placement::{PlacementRow, PlacementStudy};
pub use progress::{JobOutcome, NullSink, ProgressEvent, ProgressSink, StderrSink};
pub use runner::{measure_level, BenchResult, LevelMeasurement, ProtocolConfig};
pub use scatter::{ScatterFigure, ScatterPoint};
pub use score::{run_score, write_artifacts, ScoreCmd, ScoreOutcome, MIN_OVERALL_ACCURACY};
pub use suite::{Machine, SuiteData};
