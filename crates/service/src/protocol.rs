//! The `smtd` wire protocol: message types and codec negotiation.
//!
//! A connection starts in newline-delimited JSON (NDJSON): each line a
//! client sends is one [`Request`]; each line the server sends back is one
//! [`Response`]. The `hello` request carries the client's protocol
//! revision *and* the [`CodecKind`] it wants for the rest of the
//! connection; the server's `welcome` echoes the codec it granted, and
//! both sides switch immediately after that exchange. Old clients that
//! never heard of codecs simply omit the field — it is
//! `#[serde(default)]`, so decoding defaults it to [`CodecKind::Ndjson`]
//! and the revision-1 wire format keeps working byte-for-byte.
//!
//! The actual byte formats live in [`crate::codec`]: [`NdjsonCodec`] is
//! this module's `write_line`/`decode_line` behind the [`Codec`] trait,
//! and [`BinaryCodec`] is a length-prefixed FNV-1a-checksummed framing in
//! the `.smtc` trace-record idiom. The protocol is strictly
//! request/response in order under both codecs, so a client can pipeline
//! frames and match replies positionally.
//!
//! A connection owns at most one *session* — created by `hello`, which
//! instantiates the per-client decision state (a [`MetricSpec`]-driven
//! `OnlineSampler`, a `PhaseDetector`, and a trained `LevelSelector`
//! wrapped in a `DynamicSmtController`). `ingest` folds streamed counter
//! windows into that state; `recommend` reads the current answer without
//! advancing it; `stats` and `shutdown` are ops verbs that work with or
//! without a session.
//!
//! [`MetricSpec`]: smtsm::MetricSpec
//! [`NdjsonCodec`]: crate::codec::NdjsonCodec
//! [`BinaryCodec`]: crate::codec::BinaryCodec
//! [`Codec`]: crate::codec::Codec

use serde::Serialize;
use smt_sched::{PlacementReport, Recommendation, StreamDecision};
use smt_sim::{SmtLevel, WindowMeasurement};

/// Protocol revision carried in `hello`/`welcome`. Bumped on any wire
/// change a previous client could not parse. Revision 2 added codec
/// negotiation; revision 3 added per-thread tagged ingest and the `place`
/// verb. The server still accepts [`MIN_PROTOCOL_VERSION`], and sessions
/// opened at an older revision are simply refused the newer verbs
/// ([`ErrorCode::PlacementUnsupported`]) — their wire surface is
/// untouched.
pub const PROTOCOL_VERSION: u32 = 3;

/// Oldest protocol revision the server still accepts in `hello`.
pub const MIN_PROTOCOL_VERSION: u32 = 1;

/// Wire format for everything after the `hello`/`welcome` exchange.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, serde::Deserialize)]
pub enum CodecKind {
    /// Newline-delimited JSON — the PR 4 format, and what every
    /// connection speaks until negotiation.
    #[default]
    Ndjson,
    /// Length-prefixed binary frames with an FNV-1a checksum.
    Binary,
}

impl std::str::FromStr for CodecKind {
    type Err = smt_sim::Error;

    fn from_str(s: &str) -> Result<CodecKind, smt_sim::Error> {
        match s {
            "ndjson" | "json" => Ok(CodecKind::Ndjson),
            "binary" | "bin" => Ok(CodecKind::Binary),
            other => Err(smt_sim::Error::Io(format!(
                "unknown codec {other:?} (expected ndjson or binary)"
            ))),
        }
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecKind::Ndjson => write!(f, "ndjson"),
            CodecKind::Binary => write!(f, "binary"),
        }
    }
}

/// Session parameters a client proposes in `hello`. Mirrors the knobs of
/// the offline controller so online and offline decisions are comparable.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct SessionSpec {
    /// Target machine model: `p7`, `p7x2`, or `nhm`.
    pub machine: String,
    /// Threshold for the top rung (SMT4-vs-SMT2 on POWER7).
    pub threshold: f64,
    /// Threshold for the middle rung (SMT2-vs-SMT1); ignored on two-level
    /// machines.
    pub mid: f64,
    /// Counter-window length in cycles the client intends to stream.
    pub window_cycles: u64,
    /// EWMA smoothing factor in (0, 1].
    pub alpha: f64,
    /// Consecutive windows that must agree before a switch.
    pub hysteresis: u64,
    /// Probe the top level after this many parked windows.
    pub probe_interval: u64,
    /// Watch parked IPC for phase changes.
    pub phase_detect: bool,
}

impl SessionSpec {
    /// Defaults matching `ControllerConfig::default()` on a single-chip
    /// POWER7 with the paper's fixed thresholds.
    pub fn power7() -> SessionSpec {
        SessionSpec {
            machine: "p7".to_string(),
            threshold: 0.15,
            mid: 0.20,
            window_cycles: 50_000,
            alpha: 0.5,
            hysteresis: 2,
            probe_interval: 8,
            phase_detect: true,
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub enum Request {
    /// Open a session with the given decision parameters.
    Hello {
        /// Client's protocol revision.
        proto: u32,
        /// Requested session parameters.
        spec: SessionSpec,
        /// Wire format the client wants after `welcome`. Old clients omit
        /// it; decoding defaults to [`CodecKind::Ndjson`].
        #[serde(default)]
        codec: CodecKind,
    },
    /// Stream counter windows into the session, in measurement order.
    Ingest {
        /// Counter-window deltas, each tagged with the SMT level it was
        /// measured at.
        windows: Vec<WindowMeasurement>,
    },
    /// Stream solo-run counter windows attributed to one client thread
    /// (protocol revision 3). Tagged windows feed the session's
    /// per-thread signatures for `place`; they do not advance the
    /// SMT-level decision core.
    IngestTagged {
        /// Client-chosen thread id the windows belong to.
        thread: u32,
        /// Solo-run counter-window deltas for that thread.
        windows: Vec<WindowMeasurement>,
    },
    /// Ask for a thread-to-core placement over previously tagged threads
    /// (protocol revision 3).
    Place {
        /// Thread ids to place; empty means every tagged thread, in
        /// first-tagged order.
        threads: Vec<u32>,
    },
    /// Read the session's current recommendation.
    Recommend,
    /// Read server-wide operational metrics.
    Stats,
    /// Ask the daemon to stop accepting connections and exit its reactor
    /// loops once in-flight requests finish.
    Shutdown,
    /// Test-only fault injection (disabled unless the server opts in):
    /// `op == "panic"` panics the handler mid-request to exercise
    /// per-connection fault isolation.
    Debug {
        /// Fault to inject.
        op: String,
    },
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, serde::Deserialize)]
pub enum ErrorCode {
    /// The payload was not a parseable `Request`.
    BadRequest,
    /// The verb needs a session but `hello` has not succeeded yet.
    NoSession,
    /// A `hello` was sent on a connection that already has a session.
    SessionExists,
    /// The server is at its session limit; retry later.
    Busy,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The handler failed internally (e.g. panicked); the connection
    /// survives.
    Internal,
    /// The client's protocol revision is outside
    /// [`MIN_PROTOCOL_VERSION`]`..=`[`PROTOCOL_VERSION`].
    Unsupported,
    /// The codec requested in `hello` is not allowed by the server's
    /// codec policy.
    UnsupportedCodec,
    /// A mid-stream framing/codec error: a binary frame failed its length
    /// or checksum validation, or a checksummed body did not decode. The
    /// server answers with this code (framing errors also close the
    /// connection, since the stream can no longer be trusted).
    BadFrame,
    /// A `place` request named a thread id with no tagged windows.
    UnknownThread,
    /// The session cannot serve `place`: it was opened at a protocol
    /// revision before 3, or no thread has been tagged yet.
    PlacementUnsupported,
}

/// Summary of one `ingest` batch.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct IngestSummary {
    /// Windows folded into the session by this request.
    pub accepted: u64,
    /// Total windows folded over the session's lifetime.
    pub total_windows: u64,
    /// Level the session wants the client's machine at after this batch.
    pub level: SmtLevel,
    /// Decisions (switch/probe events) triggered within this batch.
    pub switches: Vec<StreamDecision>,
}

/// Server-wide operational metrics, served by `stats`. With a sharded
/// server this is the merge of every shard's registry.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct StatsReport {
    /// Sessions currently open.
    pub sessions_active: u64,
    /// Sessions opened since start.
    pub sessions_total: u64,
    /// Requests handled since start (all verbs, including errors).
    pub requests_total: u64,
    /// Requests answered with an `Error` response.
    pub errors_total: u64,
    /// Connections shed with `busy` before a session was opened.
    pub busy_rejections: u64,
    /// Counter windows ingested since start.
    pub windows_ingested: u64,
    /// Recommendations handed out per SMT level, `(ways, count)`.
    pub recommendations: Vec<(usize, u64)>,
    /// Median request service time, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request service time, microseconds.
    pub p99_us: u64,
    /// Seconds since the server started.
    pub uptime_secs: f64,
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub enum Response {
    /// Session opened.
    Welcome {
        /// Server-assigned session id (unique for the server's lifetime).
        session: u64,
        /// Server's protocol revision.
        proto: u32,
        /// Top SMT level of the session's machine model — the level the
        /// client should measure at for the metric to be meaningful.
        top: SmtLevel,
        /// Codec the server granted; both sides switch to it right after
        /// this response. Old servers omit it; decoding defaults to
        /// [`CodecKind::Ndjson`].
        #[serde(default)]
        codec: CodecKind,
    },
    /// Ingest result.
    Ingested(IngestSummary),
    /// Current recommendation.
    Recommendation(Recommendation),
    /// Placement answer (protocol revision 3).
    Placement(PlacementReport),
    /// Operational metrics.
    Stats(StatsReport),
    /// Shutdown acknowledged; the connection will close after this
    /// response.
    Bye,
    /// The request failed; the session (if any) is untouched.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }
}

/// Encode one protocol message as a line (JSON + `\n`).
pub fn encode_line<T: serde::Serialize>(msg: &T) -> Result<String, smt_sim::Error> {
    let mut line = Vec::new();
    write_line(msg, &mut line)?;
    Ok(String::from_utf8(line).expect("JSON text is UTF-8"))
}

/// Append one protocol message to `out` as a line (JSON + `\n`).
pub fn write_line<T: serde::Serialize>(msg: &T, out: &mut Vec<u8>) -> Result<(), smt_sim::Error> {
    serde_json::to_writer(&mut *out, msg).map_err(|e| smt_sim::Error::Serde(e.to_string()))?;
    out.push(b'\n');
    Ok(())
}

/// Decode one protocol line (with or without its trailing newline).
pub fn decode_line<T: serde::Deserialize>(line: &str) -> Result<T, smt_sim::Error> {
    serde_json::from_str(line.trim_end_matches(['\r', '\n']))
        .map_err(|e| smt_sim::Error::Serde(e.to_string()))
}
