//! `smt-collect`: counter acquisition for the SMT-selection metric.
//!
//! Every other layer of this workspace — the batch engine, the fast
//! simulator, the `smtd` daemon — consumes
//! [`WindowMeasurement`](smt_sim::WindowMeasurement) counter windows. This
//! crate is where those windows *come from*. The paper
//! computes SMTsm from live PMU counters on POWER7 and Nehalem; reproducing
//! that fidelity means owning event selection, multiplex scaling, and
//! per-thread attribution, not just the arithmetic downstream of them.
//!
//! The subsystem is one trait and three backends:
//!
//! - [`CounterBackend`] — anything that can produce a stream of counter
//!   windows ([`backend`]).
//! - [`PerfBackend`] — live collection on Linux via raw `perf_event_open`
//!   syscalls ([`perf`]): grouped events with `time_enabled`/`time_running`
//!   multiplex scaling, per-thread attachment through `/proc/<pid>/task`,
//!   and an [`EventMap`] descriptor translating architecture-specific PMU
//!   encodings into the Eq.-1 factors. Degrades gracefully: a host that
//!   denies `perf_event_open` yields a structured [`CapabilityReport`],
//!   never a panic.
//! - [`SimBackend`] — a deterministic adapter over the in-tree simulator
//!   ([`sim_backend`]), so the whole collect → record → replay → recommend
//!   pipeline is CI-testable without a PMU.
//! - [`TraceBackend`] — record/replay of counter windows in a compact
//!   length-prefixed, checksummed binary format ([`trace`]): live sessions
//!   become reproducible offline corpora that re-feed bit-identically into
//!   `OnlineSampler::push_window`, the batch engine, and `smtd ingest`.

#![warn(missing_docs)]

pub mod backend;
pub mod capability;
pub mod events;
pub mod perf;
pub mod sim_backend;
pub mod trace;

pub use backend::{CollectReport, Collector, CounterBackend, WindowIter};
pub use capability::{CapabilityReport, EventSupport, SupportStatus};
pub use events::{
    counter_delta, scale_multiplexed, EventDesc, EventKind, EventMap, ScaledCount, ThreadSample,
};
pub use perf::PerfBackend;
pub use sim_backend::SimBackend;
pub use trace::{fnv1a, TraceBackend, TraceMeta, TraceReader, TraceWriter, TRACE_VERSION};
