//! The `smtd` daemon: an epoll-based reactor with sharded sessions.
//!
//! Threading model (no async runtime — the workspace is offline and
//! vendors no executor):
//!
//! - one **accept thread** owns the listeners (TCP, plus an optional Unix
//!   socket) behind its own [`Poller`], admits connections, and deals new
//!   ones round-robin to the shards;
//! - N **shard threads** each own one [`Poller`], the connections dealt
//!   to them, those connections' sessions, and a private
//!   [`ServiceMetrics`] registry — *no lock is ever taken on the request
//!   path*. Session ids encode their shard (`(id - 1) % nshards`), so
//!   session state is partitioned by construction; `stats` merges the
//!   per-shard registries on demand.
//! - every socket is nonblocking with per-connection read/write buffers
//!   and edge-triggered readiness: on a readable edge the shard reads
//!   until `WouldBlock` and peels complete frames off the buffer; on a
//!   writable edge it flushes the pending response bytes;
//! - backpressure: when `max_sessions` connections are already admitted,
//!   new ones are shed *at accept time* with a structured `busy` error
//!   instead of being queued into unbounded memory;
//! - fault isolation: every request runs under [`catch_unwind`] — a
//!   panicking handler answers `internal`, and because a panic is
//!   confined to one connection on one shard, every other session (on
//!   this shard and all others) lives on.
//!
//! Codec negotiation happens per connection: frames are split with the
//! connection's current [`CodecKind`] (NDJSON until `hello`), the
//! `welcome` response is encoded in the *old* codec, and the connection
//! switches immediately after.
//!
//! [`catch_unwind`]: std::panic::catch_unwind

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smt_sim::error::panic_message;
use smt_sim::Error;

use crate::codec::codec_for;
use crate::endpoint::Endpoint;
use crate::metrics::{merged_report, NullSink, ServiceMetrics, ServiceSink};
use crate::protocol::{
    encode_line, CodecKind, ErrorCode, Request, Response, StatsReport, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};
use crate::reactor::{PollEvent, Poller, Waker};
use crate::session::Session;

/// Reactor wait slice; shutdown and sweeps are observed at least this
/// often even with no traffic (wakeups cut the latency to microseconds).
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// Read chunk size per `read` call on a readable edge.
const READ_CHUNK: usize = 16 * 1024;

/// A connection whose unconsumed input grows past this is dropped —
/// nothing legitimate buffers this far ahead of the server.
const MAX_PENDING_INPUT: usize = 256 << 20;

/// Which codecs `hello` may negotiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecPolicy {
    /// Grant whatever the client asks for.
    #[default]
    Both,
    /// NDJSON only; binary requests are answered `unsupported_codec`.
    NdjsonOnly,
    /// Binary only; NDJSON sessions are refused (the `hello` exchange
    /// itself still travels as NDJSON).
    BinaryOnly,
}

impl CodecPolicy {
    /// The codec to grant for a request, if the policy allows one.
    fn grant(self, requested: CodecKind) -> Option<CodecKind> {
        match (self, requested) {
            (CodecPolicy::Both, r) => Some(r),
            (CodecPolicy::NdjsonOnly, CodecKind::Ndjson) => Some(CodecKind::Ndjson),
            (CodecPolicy::BinaryOnly, CodecKind::Binary) => Some(CodecKind::Binary),
            _ => None,
        }
    }
}

impl FromStr for CodecPolicy {
    type Err = Error;

    fn from_str(s: &str) -> Result<CodecPolicy, Error> {
        match s {
            "both" => Ok(CodecPolicy::Both),
            "ndjson" => Ok(CodecPolicy::NdjsonOnly),
            "binary" => Ok(CodecPolicy::BinaryOnly),
            other => Err(Error::Io(format!(
                "unknown codec policy {other:?} (expected both, ndjson, or binary)"
            ))),
        }
    }
}

/// Server tuning knobs.
///
/// Two construction styles work: the original field-struct form
/// (`ServerConfig { addr, ..Default::default() }`) and a fluent builder
/// in the `RunRequest::on(..)` idiom:
///
/// ```no_run
/// use smt_service::server::{CodecPolicy, ServerConfig};
/// use smt_service::endpoint::Endpoint;
/// use std::time::Duration;
///
/// let cfg = ServerConfig::at(&Endpoint::tcp("127.0.0.1:7099"))
///     .shards(4)
///     .max_sessions(4096)
///     .idle_budget(Duration::from_secs(60))
///     .codecs(CodecPolicy::Both);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP bind address, e.g. `127.0.0.1:7099`. Port 0 picks a free port
    /// (the bound address is reported by [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Also listen on this Unix socket path (removed and re-created).
    pub unix_path: Option<PathBuf>,
    /// Reactor shards (threads owning sessions). 0 = one per available
    /// core, at most 8.
    pub shards: usize,
    /// Admitted-connection ceiling; beyond it new connections are shed
    /// with a `busy` error at accept time.
    pub max_sessions: usize,
    /// Idle budget: close a connection that sends nothing for this long.
    pub read_timeout: Duration,
    /// Close a connection whose peer stops draining responses for this
    /// long.
    pub write_timeout: Duration,
    /// Allow the test-only `debug` verb (fault injection).
    pub enable_debug: bool,
    /// Which codecs `hello` may negotiate.
    pub codecs: CodecPolicy,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            unix_path: None,
            shards: 0,
            max_sessions: 1024,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            enable_debug: false,
            codecs: CodecPolicy::Both,
        }
    }
}

impl ServerConfig {
    /// Start a builder listening at `endpoint` (TCP endpoints replace the
    /// bind address; Unix endpoints add a socket alongside the default
    /// TCP listener).
    pub fn at(endpoint: &Endpoint) -> ServerConfig {
        ServerConfig::default().on(endpoint)
    }

    /// Point the server at `endpoint`, builder-style.
    pub fn on(mut self, endpoint: &Endpoint) -> ServerConfig {
        match endpoint {
            Endpoint::Tcp(addr) => self.addr = addr.clone(),
            Endpoint::Unix(path) => self.unix_path = Some(path.clone()),
        }
        self
    }

    /// Set the reactor shard count (0 = one per available core, at most 8).
    pub fn shards(mut self, n: usize) -> ServerConfig {
        self.shards = n;
        self
    }

    /// Set the admitted-connection ceiling.
    pub fn max_sessions(mut self, n: usize) -> ServerConfig {
        self.max_sessions = n;
        self
    }

    /// Set the idle budget (`read_timeout`).
    pub fn idle_budget(mut self, d: Duration) -> ServerConfig {
        self.read_timeout = d;
        self
    }

    /// Set the write-stall budget (`write_timeout`).
    pub fn write_budget(mut self, d: Duration) -> ServerConfig {
        self.write_timeout = d;
        self
    }

    /// Set the codec policy.
    pub fn codecs(mut self, policy: CodecPolicy) -> ServerConfig {
        self.codecs = policy;
        self
    }

    /// Enable or disable the test-only `debug` verb.
    pub fn debug(mut self, on: bool) -> ServerConfig {
        self.enable_debug = on;
        self
    }

    /// The shard count this config resolves to: an explicit `shards`
    /// wins; otherwise the available cores (shards spin on CPU-bound
    /// decode/dispatch, so overshooting the core count only buys context
    /// switches), capped at 8.
    pub fn shard_count(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(8)
        }
    }
}

/// Either transport, nonblocking.
enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Sock {
    fn fd(&self) -> RawFd {
        match self {
            Sock::Tcp(s) => s.as_raw_fd(),
            Sock::Unix(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => std::io::Read::read(s, buf),
            Sock::Unix(s) => std::io::Read::read(s, buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Sock::Tcp(s) => {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)
            }
            Sock::Unix(s) => s.set_nonblocking(true),
        }
    }
}

/// One admitted connection, owned by exactly one shard.
struct Conn {
    sock: Sock,
    codec: CodecKind,
    session: Option<Session>,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    last_activity: Instant,
    write_stalled_since: Option<Instant>,
    close_after_flush: bool,
}

impl Conn {
    fn new(sock: Sock) -> Conn {
        Conn {
            sock,
            codec: CodecKind::Ndjson,
            session: None,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            last_activity: Instant::now(),
            write_stalled_since: None,
            close_after_flush: false,
        }
    }
}

/// Shared server state (cold path only — nothing here is touched per
/// request except the shutdown flag load).
struct Shared {
    cfg: ServerConfig,
    sink: Arc<dyn ServiceSink>,
    shutdown: AtomicBool,
    /// Connections admitted and not yet closed.
    active: AtomicUsize,
    /// One registry per shard; `stats` merges them.
    shard_metrics: Vec<Arc<ServiceMetrics>>,
    /// Every poller's waker, so shutdown interrupts all waits promptly.
    wakers: Mutex<Vec<Waker>>,
}

impl Shared {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Ok(wakers) = self.wakers.lock() {
            for w in wakers.iter() {
                w.wake();
            }
        }
    }

    fn merged_stats(&self) -> StatsReport {
        merged_report(self.shard_metrics.iter().map(Arc::as_ref))
    }
}

/// A merge-on-read view over the per-shard metrics registries.
pub struct MetricsView {
    shards: Vec<Arc<ServiceMetrics>>,
}

impl MetricsView {
    /// Merge every shard's counters into one report.
    pub fn report(&self) -> StatsReport {
        merged_report(self.shards.iter().map(Arc::as_ref))
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::trigger_shutdown`] (or send the `shutdown` verb) and
/// then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The TCP address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// A merge-on-read view over the per-shard metrics registries.
    pub fn metrics(&self) -> MetricsView {
        MetricsView {
            shards: self.shared.shard_metrics.clone(),
        }
    }

    /// Ask every loop to wind down. Idempotent; returns immediately.
    pub fn trigger_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Whether shutdown has been requested (by this handle or a client).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Wait for the accept loop and every shard to finish.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(path) = &self.shared.cfg.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Hand-off from the accept thread to a shard.
struct ShardInbox {
    queue: Mutex<Vec<Sock>>,
    waker: Waker,
}

/// Bind the listeners and spawn the accept loop and reactor shards.
pub fn spawn(cfg: ServerConfig) -> Result<ServerHandle, Error> {
    spawn_with_sink(cfg, Arc::new(NullSink))
}

/// [`spawn`] with an observer for lifecycle events.
pub fn spawn_with_sink(
    cfg: ServerConfig,
    sink: Arc<dyn ServiceSink>,
) -> Result<ServerHandle, Error> {
    let tcp =
        TcpListener::bind(&cfg.addr).map_err(|e| Error::Io(format!("bind {}: {e}", cfg.addr)))?;
    let local_addr = tcp
        .local_addr()
        .map_err(|e| Error::Io(format!("local_addr: {e}")))?;
    tcp.set_nonblocking(true)
        .map_err(|e| Error::Io(format!("set_nonblocking: {e}")))?;

    let unix = match &cfg.unix_path {
        Some(path) => {
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)
                .map_err(|e| Error::Io(format!("bind {}: {e}", path.display())))?;
            l.set_nonblocking(true)
                .map_err(|e| Error::Io(format!("set_nonblocking: {e}")))?;
            Some(l)
        }
        None => None,
    };

    let nshards = cfg.shard_count();
    let shard_metrics: Vec<Arc<ServiceMetrics>> = (0..nshards)
        .map(|_| Arc::new(ServiceMetrics::new()))
        .collect();

    let mut shard_pollers = Vec::with_capacity(nshards);
    let mut inboxes = Vec::with_capacity(nshards);
    let mut wakers = Vec::with_capacity(nshards + 1);
    for _ in 0..nshards {
        let poller = Poller::new().map_err(|e| Error::Io(format!("poller: {e}")))?;
        let waker = poller.waker();
        inboxes.push(Arc::new(ShardInbox {
            queue: Mutex::new(Vec::new()),
            waker: waker.clone(),
        }));
        wakers.push(waker);
        shard_pollers.push(poller);
    }
    let mut accept_poller = Poller::new().map_err(|e| Error::Io(format!("poller: {e}")))?;
    wakers.push(accept_poller.waker());

    let shared = Arc::new(Shared {
        cfg: cfg.clone(),
        sink,
        shutdown: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        shard_metrics: shard_metrics.clone(),
        wakers: Mutex::new(wakers),
    });

    let mut threads = Vec::new();
    for (index, poller) in shard_pollers.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let metrics = Arc::clone(&shard_metrics[index]);
        let inbox = Arc::clone(&inboxes[index]);
        threads.push(
            std::thread::Builder::new()
                .name(format!("smtd-shard-{index}"))
                .spawn(move || shard_loop(&shared, &metrics, poller, &inbox, index, nshards))
                .map_err(|e| Error::Io(format!("spawn shard: {e}")))?,
        );
    }
    {
        accept_poller
            .register(tcp.as_raw_fd(), TOKEN_TCP)
            .map_err(|e| Error::Io(format!("register tcp listener: {e}")))?;
        if let Some(l) = &unix {
            accept_poller
                .register(l.as_raw_fd(), TOKEN_UNIX)
                .map_err(|e| Error::Io(format!("register unix listener: {e}")))?;
        }
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("smtd-accept".to_string())
                .spawn(move || accept_loop(&shared, &tcp, unix.as_ref(), accept_poller, &inboxes))
                .map_err(|e| Error::Io(format!("spawn accept: {e}")))?,
        );
    }

    Ok(ServerHandle {
        shared,
        local_addr,
        threads,
    })
}

const TOKEN_TCP: u64 = 0;
const TOKEN_UNIX: u64 = 1;

fn accept_loop(
    shared: &Shared,
    tcp: &TcpListener,
    unix: Option<&UnixListener>,
    mut poller: Poller,
    inboxes: &[Arc<ShardInbox>],
) {
    let mut events: Vec<PollEvent> = Vec::new();
    let mut rr = 0usize;
    while !shared.shutdown.load(Ordering::SeqCst) {
        if poller.wait(&mut events, POLL_INTERVAL).is_err() {
            std::thread::sleep(POLL_INTERVAL);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Edge-triggered listeners: accept until WouldBlock on every
        // wakeup (events for one listener do not starve the other).
        loop {
            match tcp.accept() {
                Ok((stream, _)) => admit(shared, Sock::Tcp(stream), inboxes, &mut rr),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        if let Some(listener) = unix {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => admit(shared, Sock::Unix(stream), inboxes, &mut rr),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
    }
}

/// Deal a fresh connection to a shard, or shed it with a structured
/// `busy` line when the server is at capacity.
fn admit(shared: &Shared, sock: Sock, inboxes: &[Arc<ShardInbox>], rr: &mut usize) {
    if sock.set_nonblocking().is_err() {
        return;
    }
    // Reserve a slot first so two racing accepts cannot both slip past
    // the ceiling; release it on any shed path.
    let admitted = shared.active.fetch_add(1, Ordering::SeqCst) < shared.cfg.max_sessions;
    if !admitted {
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shed(shared, sock);
        return;
    }
    let inbox = &inboxes[*rr % inboxes.len()];
    *rr += 1;
    match inbox.queue.lock() {
        Ok(mut q) => {
            q.push(sock);
            drop(q);
            inbox.waker.wake();
        }
        Err(_) => {
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn shed(shared: &Shared, mut sock: Sock) {
    // Busy rejections happen before a shard is chosen; charge them to
    // shard 0 so the merged count is right without double counting.
    if let Some(m) = shared.shard_metrics.first() {
        m.connection_shed();
    }
    shared.sink.connection_shed();
    let line = encode_line(&Response::error(
        ErrorCode::Busy,
        format!(
            "server at capacity ({} sessions); retry later",
            shared.cfg.max_sessions
        ),
    ))
    .unwrap_or_else(|_| "{\"Error\":{\"code\":\"Busy\",\"message\":\"\"}}\n".to_string());
    // Best effort on a fresh nonblocking socket: the send buffer is
    // empty, so a single write virtually always takes the whole line.
    let _ = sock.write(line.as_bytes());
}

/// Per-shard context threaded through request handling.
struct ShardCtx<'a> {
    shared: &'a Shared,
    metrics: &'a ServiceMetrics,
    /// Next session id this shard will issue (stride `nshards`).
    next_session: u64,
    nshards: u64,
    /// Set when a handler processed the `shutdown` verb; acted on after
    /// the response is flushed.
    shutdown_requested: bool,
}

fn shard_loop(
    shared: &Shared,
    metrics: &Arc<ServiceMetrics>,
    mut poller: Poller,
    inbox: &ShardInbox,
    index: usize,
    nshards: usize,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut last_sweep = Instant::now();
    let mut ctx = ShardCtx {
        shared,
        metrics,
        next_session: index as u64 + 1,
        nshards: nshards as u64,
        shutdown_requested: false,
    };

    loop {
        let _ = poller.wait(&mut events, POLL_INTERVAL);

        // Adopt connections the accept thread dealt us.
        let fresh: Vec<Sock> = match inbox.queue.lock() {
            Ok(mut q) => q.drain(..).collect(),
            Err(_) => Vec::new(),
        };
        for sock in fresh {
            let token = next_token;
            next_token += 1;
            if poller.register(sock.fd(), token).is_err() {
                shared.active.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let mut conn = Conn::new(sock);
            // Bytes may already be buffered (epoll reports readiness
            // present at registration, but the fallback poller does not
            // track edges at all) — run one service pass immediately.
            let keep = service_conn(&mut ctx, &mut conn, true, false, false, &mut scratch);
            if keep {
                conns.insert(token, conn);
            } else {
                close_conn(shared, metrics, &mut poller, conn);
            }
            maybe_shutdown(&mut ctx);
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            // Drain: one best-effort flush per connection, then close.
            for (_, mut conn) in conns.drain() {
                let _ = flush_wbuf(&mut conn);
                close_conn(shared, metrics, &mut poller, conn);
            }
            return;
        }

        for &ev in &events {
            let Some(mut conn) = conns.remove(&ev.token) else {
                continue;
            };
            let keep = service_conn(
                &mut ctx,
                &mut conn,
                ev.readable,
                ev.writable,
                ev.hangup,
                &mut scratch,
            );
            if keep {
                conns.insert(ev.token, conn);
            } else {
                close_conn(shared, metrics, &mut poller, conn);
            }
            maybe_shutdown(&mut ctx);
        }

        // Periodic sweep: idle budgets and write stalls.
        if last_sweep.elapsed() >= POLL_INTERVAL {
            last_sweep = Instant::now();
            let now = Instant::now();
            let doomed: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    now.duration_since(c.last_activity) >= shared.cfg.read_timeout
                        || c.write_stalled_since
                            .is_some_and(|t| now.duration_since(t) >= shared.cfg.write_timeout)
                })
                .map(|(&t, _)| t)
                .collect();
            for token in doomed {
                if let Some(conn) = conns.remove(&token) {
                    close_conn(shared, metrics, &mut poller, conn);
                }
            }
        }
    }
}

/// Act on a handled `shutdown` verb — after its `Bye` got a flush chance.
fn maybe_shutdown(ctx: &mut ShardCtx<'_>) {
    if ctx.shutdown_requested {
        ctx.shutdown_requested = false;
        ctx.shared.request_shutdown();
    }
}

/// Release a connection: deregister, account, close.
fn close_conn(shared: &Shared, metrics: &ServiceMetrics, poller: &mut Poller, conn: Conn) {
    let _ = poller.deregister(conn.sock.fd());
    if let Some(s) = &conn.session {
        metrics.session_closed();
        shared.sink.session_closed(s.id());
    }
    shared.active.fetch_sub(1, Ordering::SeqCst);
}

/// One service pass over a connection. Returns `false` when the
/// connection is done and should be closed.
fn service_conn(
    ctx: &mut ShardCtx<'_>,
    conn: &mut Conn,
    readable: bool,
    writable: bool,
    hangup: bool,
    scratch: &mut [u8],
) -> bool {
    if writable && flush_wbuf(conn).is_err() {
        return false;
    }

    let mut eof = false;
    if readable || hangup {
        loop {
            match conn.sock.read(scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = Instant::now();
                    if conn.rbuf.len() - conn.rpos > MAX_PENDING_INPUT {
                        return false;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    // Peel and handle every complete frame currently buffered.
    while !conn.close_after_flush {
        let codec = codec_for(conn.codec);
        match codec.split_frame(&conn.rbuf[conn.rpos..]) {
            Ok(None) => break,
            Ok(Some(frame)) => {
                let (start, end) = (conn.rpos + frame.start, conn.rpos + frame.end);
                conn.rpos += frame.consumed;
                // Swap the read buffer out so the payload slice does not
                // hold a borrow of `conn` while the handler mutates it.
                let rbuf = std::mem::take(&mut conn.rbuf);
                handle_payload(ctx, conn, &rbuf[start..end]);
                conn.rbuf = rbuf;
            }
            Err(e) => {
                // Framing-level corruption: answer structurally, then
                // close — the stream cannot be resynchronized.
                let code = match conn.codec {
                    CodecKind::Binary => ErrorCode::BadFrame,
                    CodecKind::Ndjson => ErrorCode::BadRequest,
                };
                queue_response(
                    ctx,
                    conn,
                    Response::error(code, format!("framing error: {e}")),
                    false,
                );
                conn.close_after_flush = true;
            }
        }
    }

    // Compact the consumed prefix.
    if conn.rpos == conn.rbuf.len() {
        conn.rbuf.clear();
        conn.rpos = 0;
    } else if conn.rpos > 64 * 1024 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }

    if flush_wbuf(conn).is_err() {
        return false;
    }
    if conn.close_after_flush && conn.wpos == conn.wbuf.len() {
        return false;
    }
    if eof {
        // Peer finished sending. Anything unflushed gets one last chance
        // above; a partial trailing frame is dropped silently.
        return false;
    }
    true
}

/// Decode and dispatch one frame payload; queue the encoded response.
fn handle_payload(ctx: &mut ShardCtx<'_>, conn: &mut Conn, payload: &[u8]) {
    if conn.codec == CodecKind::Ndjson && payload.iter().all(u8::is_ascii_whitespace) {
        return; // blank keep-alive line
    }
    let started = Instant::now();
    let codec = codec_for(conn.codec);

    // The handler mutates only connection-local state (the session) plus
    // monotone counters, so observing a half-applied ingest after a panic
    // is benign — hence AssertUnwindSafe, same justification as the
    // experiment engine's worker loop.
    let session = &mut conn.session;
    let outcome = catch_unwind(AssertUnwindSafe(|| match codec.decode_request(payload) {
        Ok(request) => handle_request(ctx, session, request),
        Err(e) => {
            let code = match codec.kind() {
                CodecKind::Binary => ErrorCode::BadFrame,
                CodecKind::Ndjson => ErrorCode::BadRequest,
            };
            (
                Response::error(code, format!("unparseable request: {e}")),
                false,
            )
        }
    }));
    let (response, close) = match outcome {
        Ok(pair) => pair,
        Err(panic_payload) => {
            let msg = panic_message(panic_payload.as_ref());
            ctx.shared.sink.handler_panicked(&msg);
            (
                Response::error(ErrorCode::Internal, format!("handler panicked: {msg}")),
                false,
            )
        }
    };

    let ok = !matches!(response, Response::Error { .. });
    ctx.metrics.request_served(ok, started.elapsed());
    queue_response(ctx, conn, response, close);
}

/// Encode a response into the connection's write buffer with its current
/// codec, then apply any codec switch the response implies.
fn queue_response(ctx: &mut ShardCtx<'_>, conn: &mut Conn, response: Response, close: bool) {
    let codec = codec_for(conn.codec);
    if codec.encode_response(&response, &mut conn.wbuf).is_err() {
        conn.close_after_flush = true;
        return;
    }
    match &response {
        // The welcome travels in the old codec; everything after speaks
        // the granted one.
        Response::Welcome { codec: granted, .. } => conn.codec = *granted,
        Response::Bye => ctx.shutdown_requested = true,
        _ => {}
    }
    if close {
        conn.close_after_flush = true;
    }
}

/// Write as much of the pending output as the socket accepts.
fn flush_wbuf(conn: &mut Conn) -> Result<(), ()> {
    while conn.wpos < conn.wbuf.len() {
        match conn.sock.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
        conn.write_stalled_since = None;
    } else if conn.write_stalled_since.is_none() {
        conn.write_stalled_since = Some(Instant::now());
    }
    Ok(())
}

/// Dispatch one request. Returns the response and whether the connection
/// should close afterwards.
fn handle_request(
    ctx: &mut ShardCtx<'_>,
    session: &mut Option<Session>,
    request: Request,
) -> (Response, bool) {
    let shared = ctx.shared;
    if shared.shutdown.load(Ordering::SeqCst) {
        return (
            Response::error(ErrorCode::ShuttingDown, "server is draining"),
            true,
        );
    }
    match request {
        Request::Hello { proto, spec, codec } => {
            if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&proto) {
                return (
                    Response::error(
                        ErrorCode::Unsupported,
                        format!(
                            "protocol {proto} unsupported (server speaks \
                             {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
                        ),
                    ),
                    false,
                );
            }
            if proto < codec.min_protocol() {
                return (
                    Response::error(
                        ErrorCode::UnsupportedCodec,
                        format!(
                            "codec {codec} needs protocol {} or later (hello says {proto})",
                            codec.min_protocol()
                        ),
                    ),
                    false,
                );
            }
            let Some(granted) = shared.cfg.codecs.grant(codec) else {
                return (
                    Response::error(
                        ErrorCode::UnsupportedCodec,
                        format!("codec {codec} refused by server policy"),
                    ),
                    false,
                );
            };
            if session.is_some() {
                return (
                    Response::error(ErrorCode::SessionExists, "connection already has a session"),
                    false,
                );
            }
            let id = ctx.next_session;
            match Session::new(id, &spec) {
                Ok(mut s) => {
                    ctx.next_session += ctx.nshards;
                    s.set_proto(proto);
                    let top = s.top();
                    *session = Some(s);
                    ctx.metrics.session_opened();
                    shared.sink.session_opened(id);
                    (
                        Response::Welcome {
                            session: id,
                            proto: PROTOCOL_VERSION,
                            top,
                            codec: granted,
                        },
                        false,
                    )
                }
                Err(e) => (
                    Response::error(ErrorCode::BadRequest, format!("bad session spec: {e}")),
                    false,
                ),
            }
        }
        Request::Ingest { windows } => match session.as_mut() {
            Some(s) => {
                let summary = s.ingest(&windows);
                ctx.metrics.windows_ingested(summary.accepted);
                (Response::Ingested(summary), false)
            }
            None => (
                Response::error(
                    ErrorCode::NoSession,
                    "ingest requires a session (send hello)",
                ),
                false,
            ),
        },
        Request::IngestTagged { thread, windows } => match session.as_mut() {
            Some(s) => {
                let summary = s.ingest_tagged(thread, &windows);
                ctx.metrics.windows_ingested(summary.accepted);
                (Response::Ingested(summary), false)
            }
            None => (
                Response::error(
                    ErrorCode::NoSession,
                    "ingest_tagged requires a session (send hello)",
                ),
                false,
            ),
        },
        Request::Place { threads } => match session.as_ref() {
            Some(s) => match s.place(&threads) {
                Ok(report) => (Response::Placement(report), false),
                Err(e) => (Response::error(e.code(), e.message()), false),
            },
            None => (
                Response::error(
                    ErrorCode::NoSession,
                    "place requires a session (send hello)",
                ),
                false,
            ),
        },
        Request::Recommend => match session.as_ref() {
            Some(s) => {
                let r = s.recommend();
                ctx.metrics.recommended(r.level);
                (Response::Recommendation(r), false)
            }
            None => (
                Response::error(
                    ErrorCode::NoSession,
                    "recommend requires a session (send hello)",
                ),
                false,
            ),
        },
        Request::Stats => (Response::Stats(shared.merged_stats()), false),
        Request::Shutdown => (Response::Bye, true),
        Request::Debug { op } => {
            if !shared.cfg.enable_debug {
                return (
                    Response::error(ErrorCode::BadRequest, "debug verb is disabled"),
                    false,
                );
            }
            match op.as_str() {
                "panic" => panic!("injected debug panic"),
                other => (
                    Response::error(ErrorCode::BadRequest, format!("unknown debug op {other:?}")),
                    false,
                ),
            }
        }
    }
}
