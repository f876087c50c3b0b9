//! Wire codecs: one trait, two framings of the same protocol.
//!
//! [`NdjsonCodec`] is the original newline-delimited JSON format —
//! `hello` always travels in it, so any server can read any client's
//! opening frame. [`BinaryCodec`] is the negotiated fast path (protocol
//! revision 4 and later): each message is one record in the `.smtc`
//! trace idiom,
//!
//! ```text
//! +----------+-------------------------+------------------+
//! | len: u32 | checksum: u64           | body: `len` bytes|
//! | (LE)     | XXH64(body, seed 0), LE |                  |
//! +----------+-------------------------+------------------+
//! ```
//!
//! with counter windows inside `ingest` bodies encoded by the *same*
//! [`encode_window`]/[`decode_window`] pair the trace format uses, so the
//! hot ingest path shares one battle-tested byte layout with record/replay.
//! Only the frame checksum differs from the trace format: `.smtc` records
//! keep FNV-1a, whose one dependent multiply per byte made it most of the
//! cost of decoding an `ingest` frame, while XXH64 runs four independent
//! 8-byte lanes. Encoding writes the body in place behind a reserved header
//! and patches length and checksum afterwards, so a frame is never copied.
//!
//! Both codecs implement incremental framing ([`Codec::split_frame`]):
//! the reactor appends whatever the socket yields into a per-connection
//! buffer and peels complete frames off the front. A framing-level error
//! (oversized length, checksum mismatch) poisons the stream — the server
//! answers [`ErrorCode::BadFrame`] and closes; a checksummed body that
//! fails to decode is answered without closing, since framing is intact.

use smt_collect::trace::{decode_window, encode_window};
use smt_sched::{PlacementReport, Recommendation, StreamDecision};
use smt_sim::{Error, SmtLevel, WindowMeasurement};
use smtsm::SmtsmFactors;

use crate::protocol::{
    decode_line, write_line, CodecKind, ErrorCode, IngestSummary, Request, Response, SessionSpec,
    StatsReport,
};

/// Ceiling on one frame's payload, mirroring the `.smtc` record cap. An
/// NDJSON line or binary body longer than this is a framing error.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Bytes of binary-frame header (`len: u32` + `checksum: u64`).
pub const BINARY_HEADER_LEN: usize = 12;

/// One complete frame found at the front of a read buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Bytes to consume from the buffer (header + payload + terminator).
    pub consumed: usize,
    /// Payload start offset within the buffer.
    pub start: usize,
    /// Payload end offset within the buffer.
    pub end: usize,
}

/// A wire format: framing plus message encoding, both directions.
///
/// Implementations are stateless — grab one with [`codec_for`] and share
/// it freely across connections and threads.
pub trait Codec: Send + Sync {
    /// Which format this is (the negotiation token).
    fn kind(&self) -> CodecKind;

    /// Append one framed request to `out`.
    fn encode_request(&self, request: &Request, out: &mut Vec<u8>) -> Result<(), Error>;

    /// Append one framed response to `out`.
    fn encode_response(&self, response: &Response, out: &mut Vec<u8>) -> Result<(), Error>;

    /// Try to peel one complete frame off the front of `buf`.
    ///
    /// `Ok(None)` means the frame is still incomplete — read more bytes
    /// and retry. `Err` means the stream is poisoned at the framing level
    /// (oversized length, checksum mismatch) and the connection cannot be
    /// resynchronized.
    fn split_frame(&self, buf: &[u8]) -> Result<Option<Frame>, Error>;

    /// Decode a frame payload as a request.
    fn decode_request(&self, payload: &[u8]) -> Result<Request, Error>;

    /// Decode a frame payload as a response.
    fn decode_response(&self, payload: &[u8]) -> Result<Response, Error>;
}

/// The codec singleton for a negotiated kind.
pub fn codec_for(kind: CodecKind) -> &'static dyn Codec {
    match kind {
        CodecKind::Ndjson => &NdjsonCodec,
        CodecKind::Binary => &BinaryCodec,
    }
}

// ---------------------------------------------------------------------------
// NDJSON
// ---------------------------------------------------------------------------

/// Newline-delimited JSON: one message per `\n`-terminated line.
#[derive(Debug, Clone, Copy, Default)]
pub struct NdjsonCodec;

impl Codec for NdjsonCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Ndjson
    }

    fn encode_request(&self, request: &Request, out: &mut Vec<u8>) -> Result<(), Error> {
        write_line(request, out)
    }

    fn encode_response(&self, response: &Response, out: &mut Vec<u8>) -> Result<(), Error> {
        write_line(response, out)
    }

    fn split_frame(&self, buf: &[u8]) -> Result<Option<Frame>, Error> {
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let end = if pos > 0 && buf[pos - 1] == b'\r' {
                    pos - 1
                } else {
                    pos
                };
                Ok(Some(Frame {
                    consumed: pos + 1,
                    start: 0,
                    end,
                }))
            }
            None if buf.len() > MAX_FRAME_LEN as usize => Err(Error::Serde(format!(
                "ndjson line exceeds {MAX_FRAME_LEN} bytes without a newline"
            ))),
            None => Ok(None),
        }
    }

    fn decode_request(&self, payload: &[u8]) -> Result<Request, Error> {
        let s =
            std::str::from_utf8(payload).map_err(|e| Error::Serde(format!("not utf-8: {e}")))?;
        decode_line(s)
    }

    fn decode_response(&self, payload: &[u8]) -> Result<Response, Error> {
        let s =
            std::str::from_utf8(payload).map_err(|e| Error::Serde(format!("not utf-8: {e}")))?;
        decode_line(s)
    }
}

// ---------------------------------------------------------------------------
// Binary
// ---------------------------------------------------------------------------

/// Length-prefixed binary frames: `len: u32 LE | xxh64(body): u64 LE |
/// body`, with a one-byte message tag opening each body. See the module
/// docs for the frame layout and DESIGN §3.11 for the full body spec.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

// Request body tags.
const REQ_HELLO: u8 = 1;
const REQ_INGEST: u8 = 2;
const REQ_RECOMMEND: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;
const REQ_DEBUG: u8 = 6;
const REQ_PLACE: u8 = 7;
const REQ_INGEST_TAGGED: u8 = 8;

// Response body tags.
const RESP_WELCOME: u8 = 1;
const RESP_INGESTED: u8 = 2;
const RESP_RECOMMENDATION: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_BYE: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_PLACEMENT: u8 = 7;

impl Codec for BinaryCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Binary
    }

    fn encode_request(&self, request: &Request, out: &mut Vec<u8>) -> Result<(), Error> {
        let start = open_frame(out);
        match request {
            Request::Hello { proto, spec, codec } => {
                out.push(REQ_HELLO);
                put_u32(out, *proto);
                out.push(codec_byte(*codec));
                put_spec(out, spec);
            }
            Request::Ingest { windows } => {
                out.push(REQ_INGEST);
                put_windows(out, windows);
            }
            Request::IngestTagged { thread, windows } => {
                out.push(REQ_INGEST_TAGGED);
                put_u32(out, *thread);
                put_windows(out, windows);
            }
            Request::Place { threads } => {
                out.push(REQ_PLACE);
                put_u32(out, threads.len() as u32);
                for t in threads {
                    put_u32(out, *t);
                }
            }
            Request::Recommend => out.push(REQ_RECOMMEND),
            Request::Stats => out.push(REQ_STATS),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::Debug { op } => {
                out.push(REQ_DEBUG);
                put_str(out, op);
            }
        }
        close_frame(out, start)
    }

    fn encode_response(&self, response: &Response, out: &mut Vec<u8>) -> Result<(), Error> {
        let start = open_frame(out);
        match response {
            Response::Welcome {
                session,
                proto,
                top,
                codec,
            } => {
                out.push(RESP_WELCOME);
                put_u64(out, *session);
                put_u32(out, *proto);
                put_level(out, *top);
                out.push(codec_byte(*codec));
            }
            Response::Ingested(s) => {
                out.push(RESP_INGESTED);
                put_ingest_summary(out, s);
            }
            Response::Recommendation(r) => {
                out.push(RESP_RECOMMENDATION);
                put_recommendation(out, r);
            }
            Response::Stats(s) => {
                out.push(RESP_STATS);
                put_stats(out, s);
            }
            Response::Placement(r) => {
                out.push(RESP_PLACEMENT);
                put_placement_report(out, r);
            }
            Response::Bye => out.push(RESP_BYE),
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                out.push(error_code_byte(*code));
                put_str(out, message);
            }
        }
        close_frame(out, start)
    }

    fn split_frame(&self, buf: &[u8]) -> Result<Option<Frame>, Error> {
        if buf.len() < BINARY_HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(Error::Serde(format!(
                "binary frame length {len} out of range (1..={MAX_FRAME_LEN})"
            )));
        }
        let total = BINARY_HEADER_LEN + len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let want = u64::from_le_bytes(buf[4..12].try_into().unwrap());
        let got = xxh64(&buf[BINARY_HEADER_LEN..total]);
        if want != got {
            return Err(Error::Serde(format!(
                "binary frame checksum mismatch: header {want:#018x}, body {got:#018x}"
            )));
        }
        Ok(Some(Frame {
            consumed: total,
            start: BINARY_HEADER_LEN,
            end: total,
        }))
    }

    fn decode_request(&self, payload: &[u8]) -> Result<Request, Error> {
        let mut c = Cur::new(payload);
        let req = match c.u8()? {
            REQ_HELLO => {
                let proto = c.u32()?;
                let codec = codec_from_byte(c.u8()?)?;
                let spec = get_spec(&mut c)?;
                Request::Hello { proto, spec, codec }
            }
            REQ_INGEST => Request::Ingest {
                windows: get_windows(&mut c)?,
            },
            REQ_RECOMMEND => Request::Recommend,
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_DEBUG => Request::Debug { op: c.str()? },
            REQ_PLACE => {
                let n = c.u32()? as usize;
                let mut threads = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    threads.push(c.u32()?);
                }
                Request::Place { threads }
            }
            REQ_INGEST_TAGGED => Request::IngestTagged {
                thread: c.u32()?,
                windows: get_windows(&mut c)?,
            },
            tag => return Err(Error::Serde(format!("unknown request tag {tag}"))),
        };
        c.finish()?;
        Ok(req)
    }

    fn decode_response(&self, payload: &[u8]) -> Result<Response, Error> {
        let mut c = Cur::new(payload);
        let resp = match c.u8()? {
            RESP_WELCOME => Response::Welcome {
                session: c.u64()?,
                proto: c.u32()?,
                top: c.level()?,
                codec: codec_from_byte(c.u8()?)?,
            },
            RESP_INGESTED => Response::Ingested(get_ingest_summary(&mut c)?),
            RESP_RECOMMENDATION => Response::Recommendation(get_recommendation(&mut c)?),
            RESP_STATS => Response::Stats(get_stats(&mut c)?),
            RESP_PLACEMENT => Response::Placement(get_placement_report(&mut c)?),
            RESP_BYE => Response::Bye,
            RESP_ERROR => Response::Error {
                code: error_code_from_byte(c.u8()?)?,
                message: c.str()?,
            },
            tag => return Err(Error::Serde(format!("unknown response tag {tag}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Start a frame at the end of `out`: reserve its header and return
/// where it begins. The caller appends the body, then [`close_frame`]s.
fn open_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; BINARY_HEADER_LEN]);
    start
}

/// Patch `len | xxh64` over the header reserved at `start`, covering
/// everything appended since. An oversized body is cut back off, leaving
/// `out` as it was before [`open_frame`].
fn close_frame(out: &mut Vec<u8>, start: usize) -> Result<(), Error> {
    let len = out.len() - start - BINARY_HEADER_LEN;
    if len > MAX_FRAME_LEN as usize {
        out.truncate(start);
        return Err(Error::Serde(format!(
            "message body {len} bytes exceeds frame cap {MAX_FRAME_LEN}"
        )));
    }
    let sum = xxh64(&out[start + BINARY_HEADER_LEN..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + BINARY_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    Ok(())
}

// --- XXH64 ------------------------------------------------------------------

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte lane"))
}

/// XXH64 with seed 0, the binary frame checksum: four independent 8-byte
/// lanes over each 32-byte stripe, then the tail. Integrity only, not
/// cryptographic.
fn xxh64(input: &[u8]) -> u64 {
    let stripes = input.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if input.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *acc = xxh_round(*acc, le64(lane));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &acc| xxh_merge(h, acc))
    } else {
        P5
    };
    h = h.wrapping_add(input.len() as u64);
    let mut words = tail.chunks_exact(8);
    for w in &mut words {
        h = (h ^ xxh_round(0, le64(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let w = u32::from_le_bytes(rest[..4].try_into().expect("4-byte word"));
        h = (h ^ u64::from(w).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

// --- little-endian writers --------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Counter windows as `count: u32 | (len: u32 | window body)*`, each body
/// encoded straight into `out` and its length patched in behind it.
fn put_windows(out: &mut Vec<u8>, windows: &[WindowMeasurement]) {
    put_u32(out, windows.len() as u32);
    for w in windows {
        let at = out.len();
        put_u32(out, 0);
        encode_window(w, out);
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

fn put_level(out: &mut Vec<u8>, level: SmtLevel) {
    out.push(level.ways() as u8);
}

fn codec_byte(kind: CodecKind) -> u8 {
    match kind {
        CodecKind::Ndjson => 0,
        CodecKind::Binary => 1,
    }
}

fn codec_from_byte(b: u8) -> Result<CodecKind, Error> {
    match b {
        0 => Ok(CodecKind::Ndjson),
        1 => Ok(CodecKind::Binary),
        other => Err(Error::Serde(format!("unknown codec byte {other}"))),
    }
}

const ERROR_CODES: [ErrorCode; 11] = [
    ErrorCode::BadRequest,
    ErrorCode::NoSession,
    ErrorCode::SessionExists,
    ErrorCode::Busy,
    ErrorCode::ShuttingDown,
    ErrorCode::Internal,
    ErrorCode::Unsupported,
    ErrorCode::UnsupportedCodec,
    ErrorCode::BadFrame,
    ErrorCode::UnknownThread,
    ErrorCode::PlacementUnsupported,
];

fn error_code_byte(code: ErrorCode) -> u8 {
    ERROR_CODES.iter().position(|&c| c == code).unwrap_or(0) as u8
}

fn error_code_from_byte(b: u8) -> Result<ErrorCode, Error> {
    ERROR_CODES
        .get(b as usize)
        .copied()
        .ok_or_else(|| Error::Serde(format!("unknown error code byte {b}")))
}

fn put_spec(out: &mut Vec<u8>, spec: &SessionSpec) {
    put_str(out, &spec.machine);
    put_f64(out, spec.threshold);
    put_f64(out, spec.mid);
    put_u64(out, spec.window_cycles);
    put_f64(out, spec.alpha);
    put_u64(out, spec.hysteresis);
    put_u64(out, spec.probe_interval);
    put_bool(out, spec.phase_detect);
}

fn put_decision(out: &mut Vec<u8>, d: &StreamDecision) {
    put_level(out, d.level);
    match d.metric {
        Some(m) => {
            put_bool(out, true);
            put_f64(out, m);
        }
        None => put_bool(out, false),
    }
    put_bool(out, d.switched);
    put_bool(out, d.probe);
}

fn put_ingest_summary(out: &mut Vec<u8>, s: &IngestSummary) {
    put_u64(out, s.accepted);
    put_u64(out, s.total_windows);
    put_level(out, s.level);
    put_u32(out, s.switches.len() as u32);
    for d in &s.switches {
        put_decision(out, d);
    }
}

fn put_recommendation(out: &mut Vec<u8>, r: &Recommendation) {
    put_level(out, r.level);
    put_f64(out, r.smtsm);
    put_f64(out, r.factors.mix_deviation);
    put_f64(out, r.factors.disp_held);
    put_f64(out, r.factors.scalability);
    put_f64(out, r.confidence);
    put_u64(out, r.windows);
}

fn put_stats(out: &mut Vec<u8>, s: &StatsReport) {
    put_u64(out, s.sessions_active);
    put_u64(out, s.sessions_total);
    put_u64(out, s.requests_total);
    put_u64(out, s.errors_total);
    put_u64(out, s.busy_rejections);
    put_u64(out, s.windows_ingested);
    put_u32(out, s.recommendations.len() as u32);
    for &(ways, count) in &s.recommendations {
        put_u64(out, ways as u64);
        put_u64(out, count);
    }
    put_u64(out, s.p50_us);
    put_u64(out, s.p99_us);
    put_f64(out, s.uptime_secs);
}

// --- cursor reader ----------------------------------------------------------

/// Bounds-checked little-endian reader over a frame body.
struct Cur<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Cur<'a> {
        Cur { b, off: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| {
                Error::Serde(format!(
                    "truncated body: wanted {n} bytes at offset {}, body is {}",
                    self.off,
                    self.b.len()
                ))
            })?;
        let s = &self.b[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, Error> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::Serde(format!("bad bool byte {other}"))),
        }
    }

    fn str(&mut self) -> Result<String, Error> {
        let n = self.u32()? as usize;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|e| Error::Serde(format!("bad utf-8 string: {e}")))
    }

    fn level(&mut self) -> Result<SmtLevel, Error> {
        let ways = self.u8()? as usize;
        SmtLevel::from_ways(ways).ok_or_else(|| Error::Serde(format!("bad SMT level byte {ways}")))
    }

    /// The whole body must be consumed — trailing bytes are a decode
    /// error, so a corrupted length field cannot smuggle junk past a
    /// valid prefix.
    fn finish(self) -> Result<(), Error> {
        if self.off == self.b.len() {
            Ok(())
        } else {
            Err(Error::Serde(format!(
                "{} trailing bytes after message body",
                self.b.len() - self.off
            )))
        }
    }
}

fn get_spec(c: &mut Cur<'_>) -> Result<SessionSpec, Error> {
    Ok(SessionSpec {
        machine: c.str()?,
        threshold: c.f64()?,
        mid: c.f64()?,
        window_cycles: c.u64()?,
        alpha: c.f64()?,
        hysteresis: c.u64()?,
        probe_interval: c.u64()?,
        phase_detect: c.bool()?,
    })
}

fn get_windows(c: &mut Cur<'_>) -> Result<Vec<WindowMeasurement>, Error> {
    let n = c.u32()? as usize;
    let mut windows = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let len = c.u32()? as usize;
        windows.push(decode_window(c.bytes(len)?)?);
    }
    Ok(windows)
}

fn get_decision(c: &mut Cur<'_>) -> Result<StreamDecision, Error> {
    Ok(StreamDecision {
        level: c.level()?,
        metric: if c.bool()? { Some(c.f64()?) } else { None },
        switched: c.bool()?,
        probe: c.bool()?,
    })
}

fn get_ingest_summary(c: &mut Cur<'_>) -> Result<IngestSummary, Error> {
    let accepted = c.u64()?;
    let total_windows = c.u64()?;
    let level = c.level()?;
    let n = c.u32()? as usize;
    let mut switches = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        switches.push(get_decision(c)?);
    }
    Ok(IngestSummary {
        accepted,
        total_windows,
        level,
        switches,
    })
}

fn get_recommendation(c: &mut Cur<'_>) -> Result<Recommendation, Error> {
    Ok(Recommendation {
        level: c.level()?,
        smtsm: c.f64()?,
        factors: SmtsmFactors {
            mix_deviation: c.f64()?,
            disp_held: c.f64()?,
            scalability: c.f64()?,
        },
        confidence: c.f64()?,
        windows: c.u64()?,
    })
}

fn put_placement_report(out: &mut Vec<u8>, r: &PlacementReport) {
    put_u32(out, r.threads.len() as u32);
    for t in &r.threads {
        put_u32(out, *t);
    }
    put_u32(out, r.cores.len() as u32);
    for core in &r.cores {
        put_u32(out, core.len() as u32);
        for t in core {
            put_u32(out, *t);
        }
    }
    put_f64(out, r.predicted);
    put_u32(out, r.per_core.len() as u32);
    for p in &r.per_core {
        put_f64(out, *p);
    }
    put_u64(out, r.windows);
}

fn get_placement_report(c: &mut Cur<'_>) -> Result<PlacementReport, Error> {
    let n = c.u32()? as usize;
    let mut threads = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        threads.push(c.u32()?);
    }
    let n = c.u32()? as usize;
    let mut cores = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let m = c.u32()? as usize;
        let mut core = Vec::with_capacity(m.min(4096));
        for _ in 0..m {
            core.push(c.u32()?);
        }
        cores.push(core);
    }
    let predicted = c.f64()?;
    let n = c.u32()? as usize;
    let mut per_core = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        per_core.push(c.f64()?);
    }
    Ok(PlacementReport {
        threads,
        cores,
        predicted,
        per_core,
        windows: c.u64()?,
    })
}

fn get_stats(c: &mut Cur<'_>) -> Result<StatsReport, Error> {
    let sessions_active = c.u64()?;
    let sessions_total = c.u64()?;
    let requests_total = c.u64()?;
    let errors_total = c.u64()?;
    let busy_rejections = c.u64()?;
    let windows_ingested = c.u64()?;
    let n = c.u32()? as usize;
    let mut recommendations = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let ways = c.u64()? as usize;
        let count = c.u64()?;
        recommendations.push((ways, count));
    }
    Ok(StatsReport {
        sessions_active,
        sessions_total,
        requests_total,
        errors_total,
        busy_rejections,
        windows_ingested,
        recommendations,
        p50_us: c.u64()?,
        p99_us: c.u64()?,
        uptime_secs: c.f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                proto: crate::protocol::PROTOCOL_VERSION,
                spec: SessionSpec::power7(),
                codec: CodecKind::Binary,
            },
            Request::Ingest { windows: vec![] },
            Request::Recommend,
            Request::Stats,
            Request::Shutdown,
            Request::Debug {
                op: "panic".to_string(),
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Welcome {
                session: 42,
                proto: 2,
                top: SmtLevel::Smt4,
                codec: CodecKind::Binary,
            },
            Response::Ingested(IngestSummary {
                accepted: 3,
                total_windows: 9,
                level: SmtLevel::Smt2,
                switches: vec![StreamDecision {
                    level: SmtLevel::Smt2,
                    metric: Some(0.25),
                    switched: true,
                    probe: false,
                }],
            }),
            Response::Bye,
            Response::Error {
                code: ErrorCode::BadFrame,
                message: "checksum mismatch".to_string(),
            },
        ]
    }

    #[test]
    fn both_codecs_round_trip_sample_messages() {
        for kind in [CodecKind::Ndjson, CodecKind::Binary] {
            let codec = codec_for(kind);
            for req in sample_requests() {
                let mut buf = Vec::new();
                codec.encode_request(&req, &mut buf).unwrap();
                let frame = codec.split_frame(&buf).unwrap().unwrap();
                assert_eq!(frame.consumed, buf.len());
                let back = codec.decode_request(&buf[frame.start..frame.end]).unwrap();
                assert_eq!(back, req, "{kind} request");
            }
            for resp in sample_responses() {
                let mut buf = Vec::new();
                codec.encode_response(&resp, &mut buf).unwrap();
                let frame = codec.split_frame(&buf).unwrap().unwrap();
                let back = codec.decode_response(&buf[frame.start..frame.end]).unwrap();
                assert_eq!(back, resp, "{kind} response");
            }
        }
    }

    #[test]
    fn binary_frames_are_incremental() {
        let codec = BinaryCodec;
        let mut buf = Vec::new();
        codec.encode_request(&Request::Recommend, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert_eq!(
                codec.split_frame(&buf[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes must be incomplete"
            );
        }
        assert!(codec.split_frame(&buf).unwrap().is_some());
    }

    #[test]
    fn binary_checksum_mismatch_is_a_framing_error() {
        let codec = BinaryCodec;
        let mut buf = Vec::new();
        codec.encode_request(&Request::Stats, &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        assert!(codec.split_frame(&buf).is_err());
    }

    #[test]
    fn binary_trailing_bytes_are_rejected() {
        let codec = BinaryCodec;
        // A valid checksum over a body with junk after a complete message.
        let mut body = vec![REQ_RECOMMEND, 0xAA];
        let mut buf = Vec::new();
        put_u32(&mut buf, body.len() as u32);
        put_u64(&mut buf, xxh64(&body));
        buf.append(&mut body);
        let frame = codec.split_frame(&buf).unwrap().unwrap();
        assert!(codec.decode_request(&buf[frame.start..frame.end]).is_err());
    }

    /// The published XXH64 (seed 0) answers; the last input is 43 bytes,
    /// so it runs the 32-byte stripe path and every tail step.
    #[test]
    fn xxh64_matches_known_answers() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog"),
            0x0b24_2d36_1fda_71bc
        );
    }

    #[test]
    fn ndjson_splits_on_newlines_and_tolerates_crlf() {
        let codec = NdjsonCodec;
        let buf = b"{\"x\":1}\r\nrest";
        let frame = codec.split_frame(buf).unwrap().unwrap();
        assert_eq!(&buf[frame.start..frame.end], b"{\"x\":1}");
        assert_eq!(frame.consumed, 9);
        assert_eq!(codec.split_frame(b"no newline yet").unwrap(), None);
    }
}
