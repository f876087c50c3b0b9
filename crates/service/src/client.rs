//! A blocking `smtd` client.
//!
//! [`Client`] speaks the typed protocol ([`Client::hello`],
//! [`Client::ingest`], ...) over either codec: connections start in
//! NDJSON, and [`Client::hello_with`] can negotiate the binary framing —
//! the switch happens right after the `welcome` response, mirroring the
//! server. [`Client::send_raw_line`] bypasses the encoder so tests can
//! send garbage and watch the server answer with a structured error
//! instead of dying.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use smt_sched::{PlacementReport, Recommendation};
use smt_sim::{Error, SmtLevel, WindowMeasurement};

use crate::codec::codec_for;
use crate::endpoint::Endpoint;
use crate::protocol::{
    CodecKind, IngestSummary, Request, Response, SessionSpec, StatsReport, PROTOCOL_VERSION,
};

/// Either transport, nonbuffered (the client keeps its own read buffer so
/// it can peel codec frames rather than lines).
enum Transport {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Transport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            Transport::Unix(s) => s.read(buf),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match self {
            Transport::Tcp(s) => s.write_all(buf),
            Transport::Unix(s) => s.write_all(buf),
        }
    }
}

/// A blocking protocol client over TCP or a Unix socket.
pub struct Client {
    transport: Transport,
    codec: CodecKind,
    rbuf: Vec<u8>,
    rpos: usize,
    /// Write buffer, reused by every [`Client::call`].
    wbuf: Vec<u8>,
}

impl Client {
    /// Connect to an endpoint: `tcp://host:port`, `unix:///path`, or a
    /// bare `host:port` (kept for old call sites).
    pub fn connect(endpoint: &str, timeout: Duration) -> Result<Client, Error> {
        Client::connect_endpoint(&endpoint.parse()?, timeout)
    }

    /// Connect to a parsed [`Endpoint`].
    pub fn connect_endpoint(endpoint: &Endpoint, timeout: Duration) -> Result<Client, Error> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream =
                    TcpStream::connect(addr).map_err(|e| Error::Io(format!("{addr}: {e}")))?;
                stream
                    .set_read_timeout(Some(timeout))
                    .and_then(|()| stream.set_write_timeout(Some(timeout)))
                    .and_then(|()| stream.set_nodelay(true))
                    .map_err(|e| Error::Io(format!("{addr}: {e}")))?;
                Ok(Client::over(Transport::Tcp(stream)))
            }
            Endpoint::Unix(path) => Client::connect_unix(path, timeout),
        }
    }

    /// Connect over a Unix socket path.
    pub fn connect_unix(path: &Path, timeout: Duration) -> Result<Client, Error> {
        let stream =
            UnixStream::connect(path).map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
        Ok(Client::over(Transport::Unix(stream)))
    }

    fn over(transport: Transport) -> Client {
        Client {
            transport,
            codec: CodecKind::Ndjson,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
        }
    }

    /// The codec this connection currently speaks.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// Send one request and read its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, Error> {
        let mut out = std::mem::take(&mut self.wbuf);
        out.clear();
        let sent = codec_for(self.codec)
            .encode_request(request, &mut out)
            .and_then(|()| self.call_encoded(&out));
        self.wbuf = out;
        sent
    }

    /// Send pre-encoded request bytes (already framed in this
    /// connection's current codec) and read one response. The load
    /// generator uses this to amortize encoding across connections.
    pub fn call_encoded(&mut self, frame: &[u8]) -> Result<Response, Error> {
        self.transport
            .write_all(frame)
            .map_err(|e| Error::Io(format!("write: {e}")))?;
        self.read_response()
    }

    /// Send a raw line (appending `\n` if missing) and read one response
    /// line. This is the garbage-injection escape hatch: the line does not
    /// have to be a valid request, or even JSON. Only meaningful while
    /// the connection still speaks NDJSON.
    pub fn send_raw_line(&mut self, line: &str) -> Result<Response, Error> {
        if self.codec != CodecKind::Ndjson {
            return Err(Error::Io(
                "send_raw_line requires the ndjson codec".to_string(),
            ));
        }
        let mut out = line.trim_end_matches(['\r', '\n']).to_string();
        out.push('\n');
        self.call_encoded(out.as_bytes())
    }

    /// Read one response frame in the connection's current codec.
    fn read_response(&mut self) -> Result<Response, Error> {
        loop {
            let codec = codec_for(self.codec);
            if let Some(frame) = codec.split_frame(&self.rbuf[self.rpos..])? {
                let (start, end) = (self.rpos + frame.start, self.rpos + frame.end);
                self.rpos += frame.consumed;
                let response = codec.decode_response(&self.rbuf[start..end]);
                if self.rpos == self.rbuf.len() {
                    self.rbuf.clear();
                    self.rpos = 0;
                }
                return response;
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self
                .transport
                .read(&mut chunk)
                .map_err(|e| Error::Io(format!("read: {e}")))?;
            if n == 0 {
                return Err(Error::Io("connection closed by server".to_string()));
            }
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Open a session; returns `(session id, top SMT level)`.
    pub fn hello(&mut self, spec: &SessionSpec) -> Result<(u64, SmtLevel), Error> {
        let (session, top, _) = self.hello_with(spec, CodecKind::Ndjson)?;
        Ok((session, top))
    }

    /// Open a session and negotiate `codec`; returns
    /// `(session id, top SMT level, granted codec)`. The `hello` itself
    /// always travels as NDJSON; on success the connection switches to
    /// whatever the server granted.
    pub fn hello_with(
        &mut self,
        spec: &SessionSpec,
        codec: CodecKind,
    ) -> Result<(u64, SmtLevel, CodecKind), Error> {
        match self.call(&Request::Hello {
            proto: PROTOCOL_VERSION,
            spec: spec.clone(),
            codec,
        })? {
            Response::Welcome {
                session,
                top,
                codec: granted,
                ..
            } => {
                self.codec = granted;
                Ok((session, top, granted))
            }
            other => Err(unexpected("welcome", &other)),
        }
    }

    /// Stream a batch of counter windows into the session.
    pub fn ingest(&mut self, windows: &[WindowMeasurement]) -> Result<IngestSummary, Error> {
        match self.call(&Request::Ingest {
            windows: windows.to_vec(),
        })? {
            Response::Ingested(summary) => Ok(summary),
            other => Err(unexpected("ingested", &other)),
        }
    }

    /// Stream windows from any fallible source — a collector backend
    /// iterator, a trace replay — into the session in batches of
    /// `batch` (clamped to ≥ 1). Stops at the source's end or first
    /// error; returns the final [`IngestSummary`] (`None` when the
    /// source was empty).
    pub fn ingest_stream(
        &mut self,
        windows: impl IntoIterator<Item = Result<WindowMeasurement, Error>>,
        batch: usize,
    ) -> Result<Option<IngestSummary>, Error> {
        let batch = batch.max(1);
        let mut pending = Vec::with_capacity(batch);
        let mut last = None;
        for window in windows {
            pending.push(window?);
            if pending.len() >= batch {
                last = Some(self.ingest(&pending)?);
                pending.clear();
            }
        }
        if !pending.is_empty() {
            last = Some(self.ingest(&pending)?);
        }
        Ok(last)
    }

    /// Stream solo-run counter windows attributed to one client thread,
    /// feeding the session's per-thread signatures for [`place`].
    ///
    /// [`place`]: Client::place
    pub fn ingest_tagged(
        &mut self,
        thread: u32,
        windows: &[WindowMeasurement],
    ) -> Result<IngestSummary, Error> {
        match self.call(&Request::IngestTagged {
            thread,
            windows: windows.to_vec(),
        })? {
            Response::Ingested(summary) => Ok(summary),
            other => Err(unexpected("ingested", &other)),
        }
    }

    /// Ask for a thread-to-core placement over tagged threads. An empty
    /// `threads` slice places every tagged thread, in first-tagged order.
    pub fn place(&mut self, threads: &[u32]) -> Result<PlacementReport, Error> {
        match self.call(&Request::Place {
            threads: threads.to_vec(),
        })? {
            Response::Placement(report) => Ok(report),
            other => Err(unexpected("placement", &other)),
        }
    }

    /// Read the session's current recommendation.
    pub fn recommend(&mut self) -> Result<Recommendation, Error> {
        match self.call(&Request::Recommend)? {
            Response::Recommendation(r) => Ok(r),
            other => Err(unexpected("recommendation", &other)),
        }
    }

    /// Read server-wide operational metrics.
    pub fn stats(&mut self) -> Result<StatsReport, Error> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Ask the daemon to shut down.
    pub fn shutdown(&mut self) -> Result<(), Error> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(unexpected("bye", &other)),
        }
    }
}

/// Map a wrong-variant (or server-error) response to a client error that
/// preserves the server's code and message.
fn unexpected(wanted: &str, got: &Response) -> Error {
    match got {
        Response::Error { code, message } => Error::Io(format!("server error {code:?}: {message}")),
        other => Error::Serde(format!("expected {wanted} response, got {other:?}")),
    }
}
