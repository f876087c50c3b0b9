//! `smt-service`: `smtd`, an online SMT-recommendation daemon.
//!
//! The paper's controller decides from a stream of hardware-counter
//! windows; nothing about that decision requires living in the same
//! process as the workload. This crate lifts the decision core behind a
//! small wire protocol so many machines (or many simulated clients) can
//! stream their counters to one recommendation service:
//!
//! - [`protocol`] — the typed requests/responses: `hello` opens a session
//!   (and negotiates a codec), `ingest` streams counter windows,
//!   `recommend` reads the current answer, `stats`/`shutdown` are ops
//!   verbs.
//! - [`codec`] — the two wire framings behind one [`Codec`] trait:
//!   newline-delimited JSON (the v1 wire format, still spoken by old
//!   clients) and a checksummed length-prefixed binary framing in the
//!   `.smtc` trace idiom, negotiated at `hello`.
//! - [`endpoint`] — `tcp://host:port` / `unix:///path` endpoint strings,
//!   parsed once and accepted everywhere an address used to be.
//! - [`session`] — per-connection state: one
//!   [`DynamicSmtController`](smt_sched::DynamicSmtController), the exact
//!   decision core offline runs use, so online and offline answers agree
//!   by construction.
//! - [`server`] — the daemon: an epoll-based reactor (raw syscalls on
//!   x86-64 Linux, a portable polling fallback elsewhere) with
//!   nonblocking sockets, edge-triggered readiness, session state
//!   sharded across reactor threads, busy-shedding backpressure, and
//!   per-request panic isolation.
//! - [`reactor`] — the [`Poller`](reactor::Poller)/[`Waker`](reactor::Waker)
//!   readiness primitive the server is built on.
//! - [`metrics`] — per-shard operational registries behind the `stats`
//!   verb (sessions, requests, p50/p99 service time, recommendations by
//!   level), merged on read, plus the [`ServiceSink`]
//!   observer hook.
//! - [`client`] — a blocking typed client speaking either codec, with a
//!   raw-line escape hatch for fault-injection tests.
//! - [`bench`](mod@bench) — the `bench-serve` load generator: doubling connection
//!   tiers per codec and op, reported as throughput plus p50/p99
//!   milliseconds. It judges nothing; perfbench's `serve` workload is the
//!   serving yardstick.

#![warn(missing_docs)]

pub mod bench;
pub mod client;
pub mod codec;
pub mod endpoint;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod session;

pub use bench::{run_bench, run_tier_sweep, BenchOp, BenchOptions, BenchSummary};
pub use client::Client;
pub use codec::{codec_for, BinaryCodec, Codec, NdjsonCodec};
pub use endpoint::Endpoint;
pub use metrics::{merged_report, NullSink, ServiceMetrics, ServiceSink, StderrSink};
pub use protocol::{
    CodecKind, ErrorCode, IngestSummary, Request, Response, SessionSpec, StatsReport,
    MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
pub use server::{spawn, spawn_with_sink, CodecPolicy, MetricsView, ServerConfig, ServerHandle};
pub use session::{PlaceError, Session};
