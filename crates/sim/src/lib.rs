//! `smt-sim`: a cycle-level simultaneous-multithreading CPU simulator.
//!
//! This crate is the hardware substrate for the `smt-select` reproduction of
//! *"An SMT-Selection Metric to Improve Multithreaded Applications'
//! Performance"* (Funston et al., IPDPS 2012). The paper evaluates its
//! metric on real POWER7 and Nehalem machines; this simulator stands in for
//! that hardware, modeling exactly the structures the metric depends on:
//!
//! - **issue ports and issue queues** ([`arch`]): the per-class port layout
//!   that defines the *ideal SMT instruction mix*;
//! - **dispatch-held accounting** ([`core`]): the
//!   `PM_DISP_CLB_HELD_RES`-style event behind the metric's second factor;
//! - **SMT resource partitioning** ([`core`]): per-thread shares of fetch
//!   buffers, issue queues, and the in-flight window at SMT2/SMT4;
//! - **caches and finite memory bandwidth** ([`cache`]): latency hiding
//!   (where SMT wins) versus bandwidth saturation (where it loses);
//! - **multi-chip NUMA** ([`cache`], [`machine`]): the two-chip POWER7
//!   experiments;
//! - **hardware performance counters** ([`counters`]): the PMU facade the
//!   metric samples online.
//!
//! # Quick start
//!
//! ```
//! use smt_sim::{MachineConfig, Simulation, SmtLevel, ScriptedWorkload, Instr, InstrClass};
//!
//! let script: Vec<Instr> = (0..100).map(|_| Instr::simple(InstrClass::FixedPoint)).collect();
//! let mut workload = ScriptedWorkload::new("demo", script);
//! let mut sim = Simulation::new(MachineConfig::generic(2), SmtLevel::Smt2, workload);
//! let result = sim.run_until_finished(100_000);
//! assert!(result.completed);
//! ```

#![warn(missing_docs)]

pub mod arch;
pub mod branch;
pub mod cache;
pub mod core;
pub mod counters;
pub mod error;
pub mod isa;
pub mod machine;
pub mod profile;
pub mod soa;
pub mod workload;

pub use arch::{ArchDescriptor, Latencies, Partitioning, PortDesc, QueueDesc, SmtLevel};
pub use branch::{BranchPredictor, BranchPredictorConfig};
pub use cache::{AccessOutcome, Cache, CacheConfig, MemConfig, MemoryController, MemorySystem};
pub use counters::{CoreCounters, ThreadCounters, WindowMeasurement};
pub use error::Error;
pub use isa::{Fetched, Instr, InstrBlock, InstrClass, DEP_WINDOW, NUM_CLASSES};
pub use machine::{MachineConfig, RunResult, Simulation, Stepping};
pub use profile::{ticks_per_sec, PhaseProfile};
pub use soa::IssueEngine;
pub use workload::{ScriptedWorkload, Workload};
