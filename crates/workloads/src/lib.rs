//! `smt-workloads`: synthetic multithreaded workload models.
//!
//! The paper evaluates the SMT-selection metric on 27+ real benchmarks
//! (NAS, PARSEC, SPEC OMP2001, SSCA2, STREAM, SPECjbb2005, and two
//! commercial applications — Table I). Those binaries, their inputs, and
//! the AIX/POWER7 machines they ran on are not reproducible here, so this
//! crate provides *parameterized synthetic equivalents*: workloads declared
//! by the characteristics that actually determine SMT preference —
//! instruction mix, ILP, cache footprint, branch behaviour, and
//! synchronization (spinning vs. blocking vs. barriers vs. Amdahl serial
//! sections vs. I/O idling).
//!
//! - [`spec`] — the declarative [`WorkloadSpec`] and its knobs.
//! - [`gen`] — [`SyntheticWorkload`], the executable instance
//!   (implements [`smt_sim::Workload`]).
//! - [`catalog`] — one spec per paper benchmark, plus the per-figure suites.
//! - [`phases`] — phase-changing workloads for the adaptive scheduler demo.
//! - [`multi`] — multiprogrammed co-scheduling (several applications
//!   sharing one machine, as in the symbiotic-scheduling related work).
//! - [`placed`] — single-threaded jobs pinned to explicit (core, SMT
//!   context) slots, the simulator-side half of the placement allocator.

#![warn(missing_docs)]

pub mod catalog;
pub mod gen;
pub mod multi;
pub mod phases;
pub mod placed;
pub mod spec;

pub use gen::SyntheticWorkload;
pub use multi::MultiWorkload;
pub use phases::PhasedWorkload;
pub use placed::PlacedWorkload;
pub use spec::{AccessPattern, DepProfile, InstrMix, MemBehavior, SyncSpec, WorkloadSpec};
