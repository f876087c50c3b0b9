//! Load-test harness for `smtd` (`smtselect bench-serve`).
//!
//! Spawns N client connections, each streaming genuine counter windows
//! pre-generated from a simulated workload. The pools and their encoded
//! ingest frames are built once per process and shared (the timed phase
//! measures the server, not the client's simulator or encoder). Every
//! request's service time is recorded, and the run is summarized as
//! throughput plus **first-class** p50/p99 latency in milliseconds.
//!
//! [`run_tier_sweep`] drives a doubling ladder of connection counts
//! (1, 2, 4, ... max) per codec. Each connection is one client OS thread.
//! The harness only generates load and prints what it saw; serving
//! regressions are judged by perfbench's `serve` workload, which repeats
//! runs on one host and checks every answer against an offline session.
//!
//! Tiers come in two op flavors ([`BenchOp`]): `stream` is the classic
//! `ingest`/`recommend` traffic, `place` sets each session up with tagged
//! solo profiles (untimed) and then times nothing but `place` calls, so
//! the placement verb's solve-and-serialize path is measured on its own.

use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use smt_sim::{Error, MachineConfig, Simulation, SmtLevel, WindowMeasurement};
use smt_workloads::{catalog, SyntheticWorkload, WorkloadSpec};

use crate::client::Client;
use crate::codec::codec_for;
use crate::protocol::{CodecKind, Request, Response, SessionSpec};

/// Which request verb a tier exercises.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum BenchOp {
    /// `ingest` batches with a `recommend` every fifth request — the
    /// streaming traffic the daemon was built for.
    #[default]
    Stream,
    /// `place` calls against a session pre-loaded with tagged solo
    /// profiles; the timed phase is pure placement solves.
    Place,
}

impl std::fmt::Display for BenchOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchOp::Stream => write!(f, "stream"),
            BenchOp::Place => write!(f, "place"),
        }
    }
}

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests per connection (ingest batches; each fifth request also
    /// reads a recommendation) — or `place` calls under [`BenchOp::Place`].
    pub requests: usize,
    /// Counter windows per ingest batch.
    pub windows_per_ingest: usize,
    /// Codec each connection negotiates at `hello`.
    pub codec: CodecKind,
    /// Verb mix the timed phase drives.
    pub op: BenchOp,
}

impl BenchOptions {
    /// Full-fidelity settings: 8 connections × 200 requests.
    pub fn full() -> BenchOptions {
        BenchOptions {
            connections: 8,
            requests: 200,
            windows_per_ingest: 4,
            codec: CodecKind::Ndjson,
            op: BenchOp::Stream,
        }
    }

    /// Quick settings for CI smoke runs: 4 connections × 40 requests.
    pub fn quick() -> BenchOptions {
        BenchOptions {
            connections: 4,
            requests: 40,
            windows_per_ingest: 4,
            codec: CodecKind::Ndjson,
            op: BenchOp::Stream,
        }
    }

    /// Replace the codec, builder-style.
    pub fn codec(mut self, codec: CodecKind) -> BenchOptions {
        self.codec = codec;
        self
    }

    /// Replace the op, builder-style.
    pub fn op(mut self, op: BenchOp) -> BenchOptions {
        self.op = op;
        self
    }
}

/// Outcome of one load run at one (op, codec, connections) tier.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// Verb mix the timed phase drove.
    pub op: BenchOp,
    /// Codec the connections negotiated.
    pub codec: CodecKind,
    /// Connections driven.
    pub connections: usize,
    /// Requests answered across all connections.
    pub requests_total: u64,
    /// Counter windows streamed across all connections.
    pub windows_total: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Aggregate request throughput.
    pub requests_per_sec: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
}

impl BenchSummary {
    /// Render the summary as a short human-readable block.
    pub fn render(&self) -> String {
        format!(
            "bench-serve [{} {}]: {} connections, {} requests ({} windows) in {:.2}s\n  \
             throughput {:.0} req/s, p50 {:.3} ms, p99 {:.3} ms",
            self.op,
            self.codec,
            self.connections,
            self.requests_total,
            self.windows_total,
            self.wall_secs,
            self.requests_per_sec,
            self.p50_ms,
            self.p99_ms,
        )
    }
}

/// The workload each connection streams, rotating through a mix of
/// scalable, memory-bound, and contended behaviors so the server sees
/// sessions that genuinely disagree about the right SMT level.
fn workload_for(conn: usize) -> WorkloadSpec {
    let specs: [fn() -> WorkloadSpec; WORKLOAD_ROTATION] = [
        catalog::ep,
        catalog::specjbb_contention,
        catalog::mg,
        catalog::stream,
        catalog::blackscholes,
        catalog::bt,
    ];
    specs[conn % specs.len()]().scaled(0.3)
}

/// Distinct workloads in the rotation.
const WORKLOAD_ROTATION: usize = 6;

/// Windows pre-generated per workload and replayed cyclically.
const POOL_WINDOWS: usize = 24;

/// Cap on distinct pre-encoded ingest frames per (codec, workload,
/// batch) pool cycle.
const MAX_FRAMES: usize = 64;

/// The shared window pool for a workload slot, simulated once per
/// process. Sharing matters at the 4096-connection tier: the untimed
/// setup is six simulations, not thousands.
fn window_pool(widx: usize) -> &'static [WindowMeasurement] {
    static POOLS: OnceLock<Vec<Vec<WindowMeasurement>>> = OnceLock::new();
    &POOLS.get_or_init(|| {
        let spec = SessionSpec::power7();
        (0..WORKLOAD_ROTATION)
            .map(|w| {
                let machine =
                    MachineConfig::by_name(&spec.machine).expect("bench session machine exists");
                let mut sim = Simulation::new(
                    machine,
                    SmtLevel::Smt4,
                    SyntheticWorkload::new(workload_for(w)),
                );
                let mut pool = Vec::with_capacity(POOL_WINDOWS);
                while pool.len() < POOL_WINDOWS && !sim.finished() {
                    pool.push(sim.measure_window(spec.window_cycles));
                }
                assert!(
                    !pool.is_empty(),
                    "bench workload {w} finished before producing any windows"
                );
                pool
            })
            .collect()
    })[widx % WORKLOAD_ROTATION]
}

/// Pre-encoded ingest frames for a (codec, workload, batch-size) triple,
/// following the pool cycle until it repeats. Built once and shared by
/// every connection on that workload so the timed loop writes bytes
/// instead of re-encoding identical windows.
fn ingest_frames(
    codec: CodecKind,
    widx: usize,
    per_batch: usize,
) -> Result<Arc<Vec<Vec<u8>>>, Error> {
    type FrameCache = Mutex<HashMap<(CodecKind, usize, usize), Arc<Vec<Vec<u8>>>>>;
    static CACHE: OnceLock<FrameCache> = OnceLock::new();
    let key = (codec, widx % WORKLOAD_ROTATION, per_batch);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().ok().and_then(|m| m.get(&key).cloned()) {
        return Ok(hit);
    }
    let pool = window_pool(key.1);
    let mut frames = Vec::new();
    let mut next = 0usize;
    loop {
        let mut windows = Vec::with_capacity(per_batch);
        for _ in 0..per_batch {
            windows.push(pool[next].clone());
            next = (next + 1) % pool.len();
        }
        let mut buf = Vec::new();
        codec_for(codec).encode_request(&Request::Ingest { windows }, &mut buf)?;
        frames.push(buf);
        if next == 0 || frames.len() >= MAX_FRAMES {
            break;
        }
    }
    let frames = Arc::new(frames);
    if let Ok(mut m) = cache.lock() {
        m.insert(key, Arc::clone(&frames));
    }
    Ok(frames)
}

/// Drive a running server at `addr` (an endpoint string) with
/// `opts.connections` concurrent clients and summarize what happened.
///
/// All clients connect and fetch their shared pre-encoded frames
/// (untimed), release together from a barrier, then replay through
/// `hello`/`ingest`/`recommend`, timing every request. The run's wall
/// time is the longest timed phase, so throughput reflects what the
/// server sustained while every connection was live.
pub fn run_bench(addr: &str, opts: &BenchOptions) -> Result<BenchSummary, Error> {
    let connections = opts.connections.max(1);
    let barrier = Arc::new(Barrier::new(connections));
    let mut threads = Vec::new();
    for conn in 0..connections {
        let addr = addr.to_string();
        let opts = opts.clone();
        let barrier = Arc::clone(&barrier);
        threads.push(
            std::thread::Builder::new()
                .name(format!("bench-conn-{conn}"))
                // Thousands of driver threads at the top tiers: keep the
                // stacks small (the drivers only shuttle bytes).
                .stack_size(512 * 1024)
                .spawn(move || drive_connection(&addr, conn, &opts, &barrier))
                .map_err(|e| Error::Io(format!("spawn bench thread: {e}")))?,
        );
    }

    let mut latencies: Vec<f64> = Vec::new();
    let mut windows_total = 0u64;
    let mut wall_secs = 0f64;
    for t in threads {
        let (lat, windows, timed) = t
            .join()
            .map_err(|_| Error::Io("bench thread panicked".to_string()))??;
        latencies.extend(lat);
        windows_total += windows;
        wall_secs = wall_secs.max(timed);
    }
    let wall_secs = wall_secs.max(f64::MIN_POSITIVE);

    latencies.sort_by(f64::total_cmp);
    let requests_total = latencies.len() as u64;
    Ok(BenchSummary {
        op: opts.op,
        codec: opts.codec,
        connections,
        requests_total,
        windows_total,
        wall_secs,
        requests_per_sec: requests_total as f64 / wall_secs,
        p50_ms: quantile(&latencies, 0.50) * 1e3,
        p99_ms: quantile(&latencies, 0.99) * 1e3,
    })
}

/// Run a doubling ladder of connection tiers (1, 2, 4, ... up to
/// `max_connections`) for each codec in `codecs`, scaling per-connection
/// request counts down as tiers widen so every tier does comparable
/// total work. Returns one [`BenchSummary`] per (codec, tier).
pub fn run_tier_sweep(
    addr: &str,
    base: &BenchOptions,
    max_connections: usize,
    codecs: &[CodecKind],
) -> Result<Vec<BenchSummary>, Error> {
    let max_connections = max_connections.max(1);
    let mut tiers = Vec::new();
    let mut c = 1usize;
    while c <= max_connections {
        tiers.push(c);
        c *= 2;
    }
    if *tiers.last().expect("at least one tier") != max_connections {
        tiers.push(max_connections);
    }
    let budget = base.requests.max(1) * base.connections.max(1);
    let mut out = Vec::new();
    for &codec in codecs {
        for &connections in &tiers {
            let opts = BenchOptions {
                connections,
                requests: (budget / connections).max(4),
                windows_per_ingest: base.windows_per_ingest,
                codec,
                op: base.op,
            };
            out.push(run_bench(addr, &opts)?);
        }
    }
    Ok(out)
}

/// One client: set up, sync on the barrier, then drive the op mix timing
/// every request. Returns the request latencies, windows streamed, and
/// the timed-phase duration.
fn drive_connection(
    addr: &str,
    conn: usize,
    opts: &BenchOptions,
    barrier: &Barrier,
) -> Result<(Vec<f64>, u64, f64), Error> {
    match opts.op {
        BenchOp::Stream => drive_stream(addr, conn, opts, barrier),
        BenchOp::Place => drive_place(addr, opts, barrier),
    }
}

/// Stream driver: fetch the shared pre-encoded frames (untimed), then
/// replay through `hello`/`ingest`/`recommend`, timing every request.
fn drive_stream(
    addr: &str,
    conn: usize,
    opts: &BenchOptions,
    barrier: &Barrier,
) -> Result<(Vec<f64>, u64, f64), Error> {
    let per_batch = opts.windows_per_ingest.max(1);
    let frames = ingest_frames(opts.codec, conn, per_batch)?;
    let spec = SessionSpec::power7();
    let mut client = connect_with_retry(addr)?;
    let mut latencies = Vec::with_capacity(opts.requests + 2);
    let mut windows_streamed = 0u64;

    barrier.wait();
    let timed = Instant::now();

    let t = Instant::now();
    client.hello_with(&spec, opts.codec)?;
    latencies.push(t.elapsed().as_secs_f64());

    let mut next = 0usize;
    for req in 0..opts.requests {
        let t = Instant::now();
        match client.call_encoded(&frames[next])? {
            Response::Ingested(_) => {}
            Response::Error { code, message } => {
                return Err(Error::Io(format!("server error {code:?}: {message}")))
            }
            other => return Err(Error::Serde(format!("expected ingested, got {other:?}"))),
        }
        latencies.push(t.elapsed().as_secs_f64());
        windows_streamed += per_batch as u64;
        next = (next + 1) % frames.len();

        if req % 5 == 4 {
            let t = Instant::now();
            client.recommend()?;
            latencies.push(t.elapsed().as_secs_f64());
        }
    }

    let t = Instant::now();
    client.recommend()?;
    latencies.push(t.elapsed().as_secs_f64());

    Ok((latencies, windows_streamed, timed.elapsed().as_secs_f64()))
}

/// Tagged threads each place-op session carries — one per workload in the
/// rotation, so every solve sees the full scalable/memory-bound/contended
/// mix.
const PLACE_THREADS: usize = WORKLOAD_ROTATION;

/// Solo-profile windows tagged per thread before the timed phase.
const PLACE_PROFILE_WINDOWS: usize = 8;

/// Place driver: `hello` and the tagged solo profiles go in **before**
/// the barrier, so the timed phase is nothing but `place` calls — the
/// tier measures the server's solve-and-serialize path, not session
/// setup.
fn drive_place(
    addr: &str,
    opts: &BenchOptions,
    barrier: &Barrier,
) -> Result<(Vec<f64>, u64, f64), Error> {
    let spec = SessionSpec::power7();
    let mut client = connect_with_retry(addr)?;
    client.hello_with(&spec, opts.codec)?;
    let mut windows_streamed = 0u64;
    for thread in 0..PLACE_THREADS {
        let pool = window_pool(thread);
        let profile = &pool[..PLACE_PROFILE_WINDOWS.min(pool.len())];
        client.ingest_tagged(thread as u32, profile)?;
        windows_streamed += profile.len() as u64;
    }

    let mut latencies = Vec::with_capacity(opts.requests);
    barrier.wait();
    let timed = Instant::now();
    for _ in 0..opts.requests {
        let t = Instant::now();
        let report = client.place(&[])?;
        latencies.push(t.elapsed().as_secs_f64());
        if report.threads.len() != PLACE_THREADS {
            return Err(Error::Serde(format!(
                "place answered {} threads (expected {PLACE_THREADS})",
                report.threads.len()
            )));
        }
    }

    Ok((latencies, windows_streamed, timed.elapsed().as_secs_f64()))
}

/// Connect with retries: at the widest tiers, thousands of simultaneous
/// connects can outrun the accept loop's backlog.
fn connect_with_retry(addr: &str) -> Result<Client, Error> {
    let mut delay = Duration::from_millis(5);
    let mut last = None;
    for _ in 0..10 {
        match Client::connect(addr, Duration::from_secs(30)) {
            Ok(c) => return Ok(c),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(200));
            }
        }
    }
    Err(last.unwrap_or_else(|| Error::Io(format!("{addr}: connect failed"))))
}

/// Nearest-rank quantile of an ascending-sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.50), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn workloads_rotate_and_stay_distinct() {
        let a = workload_for(0);
        let b = workload_for(1);
        assert_ne!(a.name, b.name);
        assert_eq!(workload_for(0).name, workload_for(6).name);
    }

    #[test]
    fn ingest_frames_cycle_the_pool_and_are_shared() {
        let a = ingest_frames(CodecKind::Binary, 0, 4).unwrap();
        let b = ingest_frames(CodecKind::Binary, 0, 4).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache should dedupe identical keys");
        // Stepping the pool by 4 closes its cycle after len/gcd(len, 4)
        // distinct frames (capped at MAX_FRAMES).
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let pool_len = window_pool(0).len();
        assert_eq!(a.len(), (pool_len / gcd(pool_len, 4)).min(MAX_FRAMES));
        assert!(a.iter().all(|f| !f.is_empty()));
    }
}
