//! # smt-select
//!
//! A full Rust reproduction of **"An SMT-Selection Metric to Improve
//! Multithreaded Applications' Performance"** (Funston, El Maghraoui,
//! Jann, Pattnaik, Fedorova — IPDPS 2012).
//!
//! The paper introduces **SMTsm**, an online metric computed from hardware
//! performance counters that predicts whether a multithreaded application
//! prefers a higher or lower simultaneous-multithreading (SMT) level:
//!
//! ```text
//! SMTsm = ||instruction-mix − ideal-SMT-mix||₂ × DispHeld × (TotalTime / AvgThrdTime)
//! ```
//!
//! This workspace rebuilds the entire system the paper rests on:
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] (`smt-sim`) | cycle-level SMT CPU simulator: issue ports, queues, SMT partitioning, caches, memory bandwidth, NUMA, performance counters — the stand-in for the paper's POWER7 and Nehalem machines |
//! | [`workloads`] (`smt-workloads`) | parameterized synthetic workloads + a catalog mirroring the paper's Table I benchmarks |
//! | [`metric`] (`smtsm`) | the SMT-selection metric, ideal mixes, Gini/PPI threshold learning, naive baselines |
//! | [`sched`] (`smt-sched`) | dynamic SMT-level controller, user-level optimizer, oracle and IPC-probe baselines |
//! | [`autotune`] (`smt-autotune`) | closed-loop phase-aware autotuning runtime: change-point detection on the factor vector, per-phase memory, hysteresis/cooldown policy, pluggable actuation (simulator, dry-run log, `sched_setaffinity`) |
//! | [`stats`] (`smt-stats`) | Gini impurity, correlation, classification accounting |
//! | [`experiments`] (`smt-experiments`) | regenerates every paper table and figure (`repro` binary) |
//! | [`service`] (`smt-service`) | `smtd`: an online recommendation daemon — clients stream counter windows over TCP/Unix sockets and get SMT-level answers from the same decision core the offline controller uses |
//! | [`collect`] (`smt-collect`) | counter acquisition: live `perf_event_open` collection, a simulator-backed backend, and checksummed trace record/replay feeding the same windows into every layer above |
//! | [`corpus`] (`smt-corpus`) | the canonical benchmark corpus: checksummed trace manifests, deterministic corpus generation, and the resumable batch scorer reproducing the paper's 93%/86% accuracy headline against a simulate-every-level oracle |
//!
//! # Quick start
//!
//! ```
//! use smt_select::prelude::*;
//!
//! // A POWER7-like 8-core machine at SMT4 running the EP benchmark.
//! let cfg = MachineConfig::power7(1);
//! let workload = SyntheticWorkload::new(catalog::ep().scaled(0.02));
//! let mut sim = Simulation::new(cfg.clone(), SmtLevel::Smt4, workload);
//!
//! // Sample the SMT-selection metric online.
//! let spec = MetricSpec::for_arch(&cfg.arch);
//! let window = sim.measure_window(20_000);
//! let factors = smtsm_factors(&spec, &window);
//! println!("SMTsm = {:.4}", factors.value());
//!
//! // Small values mean: keep the high SMT level.
//! let predictor = ThresholdPredictor::fixed(0.15);
//! assert_eq!(predictor.predict(factors.value()), SmtPreference::Higher);
//! ```
//!
//! See `examples/` for complete scenarios and `DESIGN.md` / `EXPERIMENTS.md`
//! for the reproduction methodology and results.

pub use smt_autotune as autotune;
pub use smt_collect as collect;
pub use smt_corpus as corpus;
pub use smt_experiments as experiments;
pub use smt_sched as sched;
pub use smt_service as service;
pub use smt_sim as sim;
pub use smt_stats as stats;
pub use smt_workloads as workloads;
pub use smtsm as metric;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use smt_autotune::{
        Actuation, Actuator, AffinityActuator, AffinityReport, AutotuneConfig, AutotuneDecision,
        AutotuneLoop, AutotuneReport, AutotuneSimReport, Command, DecisionReason, DecisionRecord,
        DryRunActuator, PhaseEntry, PhaseKey, PhaseMemory, SimActuator,
    };
    pub use smt_collect::{
        CapabilityReport, CollectReport, Collector, CounterBackend, EventMap, PerfBackend,
        SimBackend, TraceBackend, TraceMeta, TraceReader, TraceWriter, WindowIter,
    };
    pub use smt_corpus::{
        build_corpus, score_corpus, verify_corpus, ArchPolicy, BuildOptions, CorpusArch,
        CorpusEntry, CorpusManifest, OracleLabel, ReplayPolicy, ScoreOptions, ScoreReport,
        ScoreTrajectory, SizeTier, VerifyReport,
    };
    pub use smt_experiments::{
        Engine, EngineMetrics, JobError, ProgressEvent, ProgressSink, ProtocolConfig, ResultCache,
        RunPlan, RunRequest, SweepResult,
    };
    pub use smt_sched::{
        compare, ipc_probe_run, oracle_sweep, placement_oracle, solo_signature, tune,
        AllocatorConfig, ControllerConfig, DynamicSmtController, Placement, PlacementOracleReport,
        PlacementOutcome, PlacementReport, Recommendation, SearchStrategy, StreamDecision,
    };
    pub use smt_service::{
        run_bench, run_tier_sweep, BenchOp, BenchOptions, Client, CodecKind, CodecPolicy, Endpoint,
        ServerConfig, ServerHandle, ServiceMetrics, ServiceSink, SessionSpec,
    };
    pub use smt_sim::{
        ArchDescriptor, Instr, InstrClass, MachineConfig, RunResult, ScriptedWorkload, Simulation,
        SmtLevel, WindowMeasurement, Workload,
    };
    pub use smt_workloads::{
        catalog, AccessPattern, DepProfile, InstrMix, MemBehavior, MultiWorkload, PhasedWorkload,
        SyncSpec, SyntheticWorkload, WorkloadSpec,
    };
    pub use smtsm::{
        gini_sweep, smtsm, smtsm_factors, CompatModel, LevelSelector, MetricSpec, NaiveMetric,
        OnlineSampler, PhaseDetector, PpiSweep, SmtPreference, SmtsmFactors, ThreadSignature,
        ThresholdPredictor, VectorPhaseDetector, DEFAULT_THRESHOLD_MID, DEFAULT_THRESHOLD_TOP,
    };
}
