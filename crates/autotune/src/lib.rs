//! Closed-loop phase-aware SMT autotuning.
//!
//! Everything below the `smtselect` CLI verb that *acts* on the paper's
//! metric lives here. The pipeline the crate closes:
//!
//! ```text
//!   CounterBackend ──windows──▶ AutotuneLoop ──Command──▶ Actuator
//!        ▲                        │   │                      │
//!        │              VectorPhaseDetector                  │
//!        │                        │   │                      ▼
//!   (sim / perf /           PhaseMemory           (sim / dry-run log /
//!    .smtc trace)        (learned levels)          sched_setaffinity)
//! ```
//!
//! - [`AutotuneLoop`] folds counter windows into the Eq.-1 factor vector,
//!   detects phase boundaries by change-point detection on *all three*
//!   factors, keys phases into a [`PhaseMemory`] so revisits reuse their
//!   learned level, and guards every decision with hysteresis + cooldown.
//! - [`Actuator`] is the seam between decision and effect. [`SimActuator`]
//!   reconfigures the in-tree simulator (ground truth for regret studies),
//!   [`DryRunActuator`] only logs (safe everywhere; the replay target for
//!   golden-file CI), and [`AffinityActuator`] shrinks a process's CPU
//!   affinity mask on Linux/x86-64 via raw `sched_setaffinity` — probed
//!   with [`AffinityActuator::probe`] and cleanly reported as unsupported
//!   elsewhere.
//! - Because the decision core is a pure function of the window stream, a
//!   run recorded to a `.smtc` trace replays to a byte-identical decision
//!   log on any host.
//!
//! Policy knobs live in [`AutotuneConfig`]; callers set them in code or,
//! for the window length, through `smtselect autotune --window-cycles`.

#![warn(missing_docs)]

pub mod actuator;
pub mod affinity;
pub mod config;
pub mod memory;
pub mod runtime;

pub use actuator::{Actuation, Actuator, Command, DecisionReason, DryRunActuator, SimActuator};
pub use affinity::{AffinityActuator, AffinityReport};
pub use config::AutotuneConfig;
pub use memory::{PhaseEntry, PhaseKey, PhaseMemory};
pub use runtime::{
    AutotuneDecision, AutotuneLoop, AutotuneReport, AutotuneSimReport, DecisionRecord,
};
