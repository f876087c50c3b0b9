//! The workspace-wide error type.
//!
//! Every layer that can reject input — machine/arch validation in this
//! crate, workload-spec validation in `smt-workloads`, result lookups and
//! the batch engine in `smt-experiments` — reports through [`Error`], so
//! callers compose fallible paths with `?` instead of unwinding through
//! `expect`/`assert!`.

use crate::arch::SmtLevel;

/// Unified error for configuration, measurement, and persistence
/// failures across the smt-select workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A machine or architecture descriptor failed validation.
    InvalidMachine(String),
    /// A workload specification failed validation.
    InvalidWorkload(String),
    /// A result table has no measurement at the requested SMT level.
    MissingLevel {
        /// Benchmark whose table was consulted.
        benchmark: String,
        /// The absent level.
        level: SmtLevel,
    },
    /// A measured quantity is outside the domain a computation needs
    /// (e.g. non-positive performance in a speedup ratio).
    InvalidMeasurement(String),
    /// Reading or writing persisted results failed.
    Io(String),
    /// Encoding or decoding persisted results failed.
    Serde(String),
    /// A runtime configuration knob (CLI flag, env var, policy field)
    /// failed validation.
    Config(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidMachine(msg) => write!(f, "invalid machine: {msg}"),
            Error::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            Error::MissingLevel { benchmark, level } => {
                write!(f, "benchmark `{benchmark}` has no measurement at {level}")
            }
            Error::InvalidMeasurement(msg) => write!(f, "invalid measurement: {msg}"),
            Error::Io(msg) => write!(f, "i/o: {msg}"),
            Error::Serde(msg) => write!(f, "serialization: {msg}"),
            Error::Config(msg) => write!(f, "config: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// The message of a caught panic: its `&str` or `String` payload, or a
/// placeholder for any other payload type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e.to_string())
    }
}
