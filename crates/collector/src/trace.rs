//! Trace record/replay: counter windows as a compact, checksummed binary
//! file.
//!
//! A recorded live (or simulated) session becomes a reproducible offline
//! corpus: replaying a trace feeds the *bit-identical* window sequence
//! back into `OnlineSampler::push_window`, the batch engine, or a live
//! `smtd` session. Integers only — no floats are stored — so round-trip
//! equality is exact by construction and asserted by proptests.
//!
//! ## Format (`.smtc`, all integers little-endian)
//!
//! ```text
//! header — 64 bytes:
//!   0  magic           8B  "SMTCOLL\0"
//!   8  version         u32
//!   12 nports          u32   issue ports per thread record
//!   16 window_cycles   u64   cadence hint (0 = unknown/live)
//!   24 machine         16B   NUL-padded machine tag ("p7", "nhm", …)
//!   40 count           u64   windows in the file; MAX = unterminated
//!   48 reserved        u64   zero
//!   56 checksum        u64   FNV-1a over bytes 0..56
//! record — one per window:
//!   len               u32   body length in bytes
//!   checksum          u64   FNV-1a over the body
//!   body              encoded WindowMeasurement
//! ```
//!
//! A writer that cannot seek leaves `count = MAX` ("unterminated"): the
//! reader then accepts a clean EOF at any record boundary. A finalized
//! trace (`count` patched in) additionally rejects files with missing or
//! extra records, so truncation is caught even when it happens to land on
//! a record boundary.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use smt_sim::{CoreCounters, Error, SmtLevel, ThreadCounters, WindowMeasurement, NUM_CLASSES};

use crate::backend::CounterBackend;

/// Current trace-format version.
pub const TRACE_VERSION: u32 = 1;

const MAGIC: [u8; 8] = *b"SMTCOLL\0";
const HEADER_LEN: usize = 64;
const COUNT_OFFSET: u64 = 40;
const CHECKSUM_OFFSET: u64 = 56;
const COUNT_UNTERMINATED: u64 = u64::MAX;
/// Upper bound on one record body; anything larger is treated as
/// corruption rather than allocated.
const MAX_RECORD_LEN: u32 = 64 << 20;

/// FNV-1a over a byte slice — same family the result cache uses; cheap,
/// deterministic, and plenty for torn-file detection (not cryptographic).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Trace-level metadata carried in the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Machine tag (`p7`, `p7x2`, `nhm`, or free-form ≤ 15 bytes) — lets a
    /// replayer pick the right `MetricSpec`/session machine.
    pub machine: String,
    /// Issue-port count of every thread record.
    pub nports: usize,
    /// Window cadence the windows were collected at (0 = unknown).
    pub window_cycles: u64,
}

impl TraceMeta {
    /// Validate the tag fits the fixed header field.
    fn validate(&self) -> Result<(), Error> {
        if self.machine.len() > 15 || self.machine.bytes().any(|b| b == 0) {
            return Err(Error::InvalidMeasurement(format!(
                "machine tag {:?} must be 1-15 NUL-free bytes",
                self.machine
            )));
        }
        Ok(())
    }
}

fn header_bytes(meta: &TraceMeta, count: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&TRACE_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&(meta.nports as u32).to_le_bytes());
    h[16..24].copy_from_slice(&meta.window_cycles.to_le_bytes());
    h[24..24 + meta.machine.len()].copy_from_slice(meta.machine.as_bytes());
    h[40..48].copy_from_slice(&count.to_le_bytes());
    // 48..56 reserved, zero.
    let crc = fnv1a(&h[..CHECKSUM_OFFSET as usize]);
    h[56..64].copy_from_slice(&crc.to_le_bytes());
    h
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8-byte slice"))
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4-byte slice"))
}

/// Append one window's record body to `b`. Purely integer fields, fixed
/// order; see the module docs for the layout guarantee. Appending (rather
/// than returning a fresh buffer) lets framers write the body straight
/// behind their own header.
pub fn encode_window(m: &WindowMeasurement, b: &mut Vec<u8>) {
    // Exact size: 13-byte window header; per thread 16 counters and the
    // class counts (u64 each), a u32 port count and the port counts; six
    // core counters.
    let ports: usize = m.per_thread.iter().map(|t| t.port_issued.len()).sum();
    let size = 13 + m.per_thread.len() * (16 * 8 + NUM_CLASSES * 8 + 4) + ports * 8 + 6 * 8;
    let start = b.len();
    b.reserve(size);
    b.extend_from_slice(&m.wall_cycles.to_le_bytes());
    b.push(m.smt.ways() as u8);
    b.extend_from_slice(&(m.per_thread.len() as u32).to_le_bytes());
    for t in &m.per_thread {
        for v in [
            t.cpu_cycles,
            t.sleep_cycles,
            t.fetched,
            t.dispatched,
            t.issued,
            t.work_units,
            t.spin_instrs,
            t.disp_held_cycles,
            t.branches,
            t.branch_mispredicts,
            t.l1d_misses,
            t.l1i_misses,
            t.l2_misses,
            t.l3_misses,
            t.mem_refs,
            t.remote_accesses,
        ] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        for c in &t.class_issued {
            b.extend_from_slice(&c.to_le_bytes());
        }
        b.extend_from_slice(&(t.port_issued.len() as u32).to_le_bytes());
        for p in &t.port_issued {
            b.extend_from_slice(&p.to_le_bytes());
        }
    }
    for v in [
        m.cores.cycles,
        m.cores.active_cycles,
        m.cores.disp_held_cycles,
        m.cores.dispatch_slots_used,
        m.cores.issue_slots_used,
        m.cores.lmq_rejections,
    ] {
        b.extend_from_slice(&v.to_le_bytes());
    }
    debug_assert_eq!(b.len() - start, size);
}

/// Decode one record body back into a window. Every length is validated;
/// corruption yields [`Error::Serde`], never a panic or wild allocation.
pub fn decode_window(b: &[u8]) -> Result<WindowMeasurement, Error> {
    let corrupt = |what: &str| Error::Serde(format!("corrupt trace record: {what}"));
    let mut off = 0usize;
    let need = |off: usize, n: usize| -> Result<(), Error> {
        if off + n > b.len() {
            Err(corrupt("record body shorter than its fields"))
        } else {
            Ok(())
        }
    };
    need(off, 13)?;
    let wall_cycles = u64_at(b, off);
    off += 8;
    let smt = match b[off] {
        1 => SmtLevel::Smt1,
        2 => SmtLevel::Smt2,
        4 => SmtLevel::Smt4,
        other => return Err(corrupt(&format!("SMT ways {other}"))),
    };
    off += 1;
    let nthreads = u32_at(b, off) as usize;
    off += 4;
    // A thread record is ≥ (16 + NUM_CLASSES) u64s + a u32.
    let min_thread = (16 + NUM_CLASSES) * 8 + 4;
    if nthreads > (b.len() - off) / min_thread + 1 {
        return Err(corrupt(&format!("thread count {nthreads}")));
    }
    let mut per_thread = Vec::with_capacity(nthreads);
    for _ in 0..nthreads {
        need(off, min_thread)?;
        let mut fields = [0u64; 16];
        for f in &mut fields {
            *f = u64_at(b, off);
            off += 8;
        }
        let mut class_issued = [0u64; NUM_CLASSES];
        for c in &mut class_issued {
            *c = u64_at(b, off);
            off += 8;
        }
        let nports = u32_at(b, off) as usize;
        off += 4;
        need(off, nports.saturating_mul(8))?;
        let mut port_issued = Vec::with_capacity(nports);
        for _ in 0..nports {
            port_issued.push(u64_at(b, off));
            off += 8;
        }
        per_thread.push(ThreadCounters {
            cpu_cycles: fields[0],
            sleep_cycles: fields[1],
            fetched: fields[2],
            dispatched: fields[3],
            issued: fields[4],
            work_units: fields[5],
            spin_instrs: fields[6],
            disp_held_cycles: fields[7],
            branches: fields[8],
            branch_mispredicts: fields[9],
            l1d_misses: fields[10],
            l1i_misses: fields[11],
            l2_misses: fields[12],
            l3_misses: fields[13],
            mem_refs: fields[14],
            remote_accesses: fields[15],
            class_issued,
            port_issued,
        });
    }
    need(off, 6 * 8)?;
    let mut core_fields = [0u64; 6];
    for f in &mut core_fields {
        *f = u64_at(b, off);
        off += 8;
    }
    if off != b.len() {
        return Err(corrupt("trailing bytes after the core counters"));
    }
    Ok(WindowMeasurement {
        wall_cycles,
        smt,
        per_thread,
        cores: CoreCounters {
            cycles: core_fields[0],
            active_cycles: core_fields[1],
            disp_held_cycles: core_fields[2],
            dispatch_slots_used: core_fields[3],
            issue_slots_used: core_fields[4],
            lmq_rejections: core_fields[5],
        },
    })
}

/// Streaming trace writer.
pub struct TraceWriter<W: Write + Seek> {
    out: W,
    meta: TraceMeta,
    written: u64,
}

impl TraceWriter<BufWriter<File>> {
    /// Create (truncate) a trace file at `path`.
    pub fn create(path: impl AsRef<Path>, meta: TraceMeta) -> Result<Self, Error> {
        let f = File::create(path.as_ref())
            .map_err(|e| Error::Io(format!("creating {}: {e}", path.as_ref().display())))?;
        TraceWriter::new(BufWriter::new(f), meta)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Write the header (count left "unterminated" until
    /// [`finalize`](TraceWriter::finalize)).
    pub fn new(mut out: W, meta: TraceMeta) -> Result<TraceWriter<W>, Error> {
        meta.validate()?;
        out.write_all(&header_bytes(&meta, COUNT_UNTERMINATED))
            .map_err(|e| Error::Io(format!("writing trace header: {e}")))?;
        Ok(TraceWriter {
            out,
            meta,
            written: 0,
        })
    }

    /// Windows appended so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Append one window as a checksummed record.
    pub fn append(&mut self, m: &WindowMeasurement) -> Result<(), Error> {
        let mut rec = vec![0u8; 12];
        encode_window(m, &mut rec);
        let body_len = (rec.len() - 12) as u32;
        let crc = fnv1a(&rec[12..]);
        rec[0..4].copy_from_slice(&body_len.to_le_bytes());
        rec[4..12].copy_from_slice(&crc.to_le_bytes());
        self.out
            .write_all(&rec)
            .map_err(|e| Error::Io(format!("writing trace record: {e}")))?;
        self.written += 1;
        Ok(())
    }

    /// Patch the window count (and header checksum) and flush. A trace
    /// that is never finalized stays readable, but the reader cannot
    /// distinguish its clean EOF from truncation at a record boundary.
    pub fn finalize(self) -> Result<u64, Error> {
        self.finalize_into_inner().map(|(n, _)| n)
    }

    /// Like [`finalize`](TraceWriter::finalize), but hands back the
    /// underlying writer (for in-memory traces).
    pub fn finalize_into_inner(mut self) -> Result<(u64, W), Error> {
        let header = header_bytes(&self.meta, self.written);
        self.out
            .seek(SeekFrom::Start(COUNT_OFFSET))
            .map_err(|e| Error::Io(format!("seeking trace header: {e}")))?;
        self.out
            .write_all(&header[COUNT_OFFSET as usize..])
            .map_err(|e| Error::Io(format!("patching trace header: {e}")))?;
        self.out
            .flush()
            .map_err(|e| Error::Io(format!("flushing trace: {e}")))?;
        Ok((self.written, self.out))
    }

    /// Abandon the trace and return the writer without finalizing.
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// Validating trace reader.
pub struct TraceReader<R: Read> {
    input: R,
    meta: TraceMeta,
    declared: u64,
    read: u64,
    done: bool,
}

impl TraceReader<BufReader<File>> {
    /// Open and validate a trace file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        let f = File::open(path.as_ref())
            .map_err(|e| Error::Io(format!("opening {}: {e}", path.as_ref().display())))?;
        TraceReader::new(BufReader::new(f))
    }
}

impl<R: Read> TraceReader<R> {
    /// Validate the header and position at the first record.
    pub fn new(mut input: R) -> Result<TraceReader<R>, Error> {
        let corrupt = |what: String| Error::Serde(format!("corrupt trace header: {what}"));
        let mut h = [0u8; HEADER_LEN];
        input
            .read_exact(&mut h)
            .map_err(|e| corrupt(format!("short header ({e})")))?;
        if h[0..8] != MAGIC {
            return Err(corrupt("bad magic (not an smt-collect trace)".to_string()));
        }
        let version = u32_at(&h, 8);
        if version != TRACE_VERSION {
            return Err(corrupt(format!(
                "version {version}, this build reads {TRACE_VERSION}"
            )));
        }
        let declared_crc = u64_at(&h, CHECKSUM_OFFSET as usize);
        let actual_crc = fnv1a(&h[..CHECKSUM_OFFSET as usize]);
        if declared_crc != actual_crc {
            return Err(corrupt(format!(
                "checksum mismatch ({declared_crc:#x} declared, {actual_crc:#x} computed)"
            )));
        }
        let machine_field = &h[24..40];
        let end = machine_field.iter().position(|&b| b == 0).unwrap_or(16);
        let machine = std::str::from_utf8(&machine_field[..end])
            .map_err(|_| corrupt("machine tag is not UTF-8".to_string()))?
            .to_string();
        Ok(TraceReader {
            input,
            meta: TraceMeta {
                machine,
                nports: u32_at(&h, 12) as usize,
                window_cycles: u64_at(&h, 16),
            },
            declared: u64_at(&h, COUNT_OFFSET as usize),
            read: 0,
            done: false,
        })
    }

    /// Header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Declared window count; `None` for an unterminated (streamed) trace.
    pub fn declared_count(&self) -> Option<u64> {
        (self.declared != COUNT_UNTERMINATED).then_some(self.declared)
    }

    /// Read, verify, and decode the next record; `Ok(None)` at a clean
    /// end of trace. Not `Iterator::next` — decoding is fallible and a
    /// corrupt record must surface as an error, not end the stream.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<WindowMeasurement>, Error> {
        if self.done {
            return Ok(None);
        }
        if self.declared != COUNT_UNTERMINATED && self.read == self.declared {
            // Exactly the declared count: anything further is corruption.
            let mut probe = [0u8; 1];
            return match self.input.read(&mut probe) {
                Ok(0) => {
                    self.done = true;
                    Ok(None)
                }
                Ok(_) => Err(Error::Serde(
                    "corrupt trace: data after the declared window count".to_string(),
                )),
                Err(e) => Err(Error::Io(format!("reading trace: {e}"))),
            };
        }
        let mut prefix = [0u8; 12];
        match read_fully(&mut self.input, &mut prefix)? {
            0 => {
                if self.declared != COUNT_UNTERMINATED {
                    return Err(Error::Serde(format!(
                        "truncated trace: {} of {} declared windows",
                        self.read, self.declared
                    )));
                }
                self.done = true;
                return Ok(None);
            }
            12 => {}
            n => {
                return Err(Error::Serde(format!(
                    "truncated trace: {n}-byte partial record prefix after window {}",
                    self.read
                )))
            }
        }
        let len = u32_at(&prefix, 0);
        let declared_crc = u64_at(&prefix, 4);
        if len == 0 || len > MAX_RECORD_LEN {
            return Err(Error::Serde(format!(
                "corrupt trace: record length {len} after window {}",
                self.read
            )));
        }
        let mut body = vec![0u8; len as usize];
        if read_fully(&mut self.input, &mut body)? != body.len() {
            return Err(Error::Serde(format!(
                "truncated trace: partial record body after window {}",
                self.read
            )));
        }
        let actual_crc = fnv1a(&body);
        if actual_crc != declared_crc {
            return Err(Error::Serde(format!(
                "corrupt trace: record {} checksum mismatch ({declared_crc:#x} declared, \
                 {actual_crc:#x} computed)",
                self.read
            )));
        }
        let w = decode_window(&body)?;
        self.read += 1;
        Ok(Some(w))
    }

    /// Decode the entire remainder of the trace.
    pub fn read_all(&mut self) -> Result<Vec<WindowMeasurement>, Error> {
        let mut out = Vec::new();
        while let Some(w) = self.next()? {
            out.push(w);
        }
        Ok(out)
    }
}

/// Read until `buf` is full or EOF; returns bytes read. Distinguishes
/// "clean EOF at a boundary" (0) from "torn mid-item" (0 < n < len).
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(Error::Io(format!("reading trace: {e}"))),
        }
    }
    Ok(filled)
}

/// Replay backend: a recorded trace as a [`CounterBackend`].
///
/// Windows come back exactly as recorded — `window_cycles` is ignored, the
/// trace's own cadence applies.
pub struct TraceBackend {
    reader: TraceReader<BufReader<File>>,
    source: String,
}

impl TraceBackend {
    /// Open a trace for replay.
    pub fn open(path: impl AsRef<Path>) -> Result<TraceBackend, Error> {
        let source = path.as_ref().display().to_string();
        Ok(TraceBackend {
            reader: TraceReader::open(path)?,
            source,
        })
    }

    /// Header metadata of the underlying trace.
    pub fn meta(&self) -> &TraceMeta {
        self.reader.meta()
    }
}

impl CounterBackend for TraceBackend {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn describe(&self) -> String {
        format!(
            "{} (machine {}, {} windows)",
            self.source,
            self.reader.meta().machine,
            self.reader
                .declared_count()
                .map(|c| c.to_string())
                .unwrap_or_else(|| "?".to_string())
        )
    }

    fn next_window(&mut self, _window_cycles: u64) -> Result<Option<WindowMeasurement>, Error> {
        self.reader.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn meta() -> TraceMeta {
        TraceMeta {
            machine: "p7".to_string(),
            nports: 8,
            window_cycles: 50_000,
        }
    }

    fn sample_window(seed: u64) -> WindowMeasurement {
        let mut t = ThreadCounters::new(8);
        t.cpu_cycles = 1000 + seed;
        t.issued = 500 * (seed + 1);
        t.disp_held_cycles = seed * 7;
        t.class_issued[2] = seed;
        t.port_issued[3] = seed * 3;
        let mut u = ThreadCounters::new(8);
        u.cpu_cycles = 900;
        WindowMeasurement {
            wall_cycles: 50_000,
            smt: SmtLevel::Smt4,
            per_thread: vec![t, u],
            cores: CoreCounters {
                cycles: 50_000,
                active_cycles: 49_000,
                disp_held_cycles: seed,
                dispatch_slots_used: 1,
                issue_slots_used: 2,
                lmq_rejections: 3,
            },
        }
    }

    fn record(windows: &[WindowMeasurement], finalize: bool) -> Vec<u8> {
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), meta()).expect("writer");
        for m in windows {
            w.append(m).expect("append");
        }
        if finalize {
            let (n, cursor) = w.finalize_into_inner().expect("finalize");
            assert_eq!(n, windows.len() as u64);
            cursor.into_inner()
        } else {
            w.into_inner().into_inner()
        }
    }

    fn encoded(w: &WindowMeasurement) -> Vec<u8> {
        let mut body = Vec::new();
        encode_window(w, &mut body);
        body
    }

    #[test]
    fn encode_decode_round_trip_is_bit_identical() -> Result<(), Error> {
        for seed in [0u64, 1, 7, 1_000_000] {
            let w = sample_window(seed);
            assert_eq!(decode_window(&encoded(&w))?, w);
        }
        // Zero-thread window survives too.
        let empty = WindowMeasurement {
            wall_cycles: 1,
            smt: SmtLevel::Smt1,
            per_thread: vec![],
            cores: CoreCounters::default(),
        };
        assert_eq!(decode_window(&encoded(&empty))?, empty);
        Ok(())
    }

    #[test]
    fn file_round_trip_finalized() -> Result<(), Error> {
        let windows: Vec<_> = (0..5).map(sample_window).collect();
        let bytes = record(&windows, true);
        let mut r = TraceReader::new(Cursor::new(bytes))?;
        assert_eq!(r.meta(), &meta());
        assert_eq!(r.declared_count(), Some(5));
        let back = r.read_all()?;
        assert_eq!(back, windows);
        // Idempotent at EOF.
        assert_eq!(r.next()?, None);
        Ok(())
    }

    #[test]
    fn unterminated_trace_reads_to_eof() -> Result<(), Error> {
        let windows: Vec<_> = (0..3).map(sample_window).collect();
        let bytes = record(&windows, false);
        let mut r = TraceReader::new(Cursor::new(bytes))?;
        assert_eq!(r.declared_count(), None);
        assert_eq!(r.read_all()?, windows);
        Ok(())
    }

    #[test]
    fn missing_records_detected_when_finalized() -> Result<(), Error> {
        let windows: Vec<_> = (0..3).map(sample_window).collect();
        let mut bytes = record(&windows, true);
        // Chop the last record off entirely (a truncation that lands on a
        // record boundary — only the declared count can catch it).
        let body_len = encoded(&windows[2]).len();
        bytes.truncate(bytes.len() - body_len - 12);
        let mut r = TraceReader::new(Cursor::new(bytes))?;
        let mut err = None;
        for _ in 0..3 {
            match r.next() {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let msg = err
            .expect("boundary truncation must be detected")
            .to_string();
        assert!(msg.contains("truncated"), "{msg}");
        Ok(())
    }

    #[test]
    fn flipped_bit_detected_by_record_checksum() -> Result<(), Error> {
        let windows: Vec<_> = (0..2).map(sample_window).collect();
        let mut bytes = record(&windows, true);
        // Flip one byte inside the first record's body.
        let idx = HEADER_LEN + 12 + 20;
        bytes[idx] ^= 0x40;
        let mut r = TraceReader::new(Cursor::new(bytes))?;
        let err = r
            .next()
            .expect_err("corruption must be detected")
            .to_string();
        assert!(err.contains("checksum"), "{err}");
        Ok(())
    }

    #[test]
    fn header_corruption_detected() {
        let bytes = record(&[sample_window(1)], true);

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 1;
        assert!(TraceReader::new(Cursor::new(bad_magic)).is_err());

        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert!(TraceReader::new(Cursor::new(bad_version)).is_err());

        let mut bad_field = bytes.clone();
        bad_field[12] ^= 1; // nports no longer matches the checksum
        assert!(TraceReader::new(Cursor::new(bad_field)).is_err());

        let short: Vec<u8> = bytes[..40].to_vec();
        assert!(TraceReader::new(Cursor::new(short)).is_err());
    }

    #[test]
    fn mid_record_truncation_detected() -> Result<(), Error> {
        let bytes = record(&[sample_window(1), sample_window(2)], false);
        let cut = bytes.len() - 5;
        let mut r = TraceReader::new(Cursor::new(bytes[..cut].to_vec()))?;
        assert!(r.next()?.is_some());
        assert!(r.next().is_err());
        Ok(())
    }

    #[test]
    fn absurd_record_length_rejected_without_allocation() -> Result<(), Error> {
        let mut bytes = record(&[sample_window(1)], false);
        // Rewrite the first record's length to 1 GiB.
        let off = HEADER_LEN;
        bytes[off..off + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let mut r = TraceReader::new(Cursor::new(bytes))?;
        let err = r.next().expect_err("length must be rejected").to_string();
        assert!(err.contains("record length"), "{err}");
        Ok(())
    }

    #[test]
    fn bad_machine_tags_rejected() {
        let long = TraceMeta {
            machine: "a-very-long-machine-name".to_string(),
            nports: 1,
            window_cycles: 0,
        };
        assert!(TraceWriter::new(Cursor::new(Vec::new()), long).is_err());
        let nul = TraceMeta {
            machine: "p\u{0}7".to_string(),
            nports: 1,
            window_cycles: 0,
        };
        assert!(TraceWriter::new(Cursor::new(Vec::new()), nul).is_err());
    }
}
