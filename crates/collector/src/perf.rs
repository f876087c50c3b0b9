//! Live counter collection via raw `perf_event_open`.
//!
//! No external dependencies: the syscall boundary is a hand-rolled
//! `syscall` instruction (x86-64 Linux) plus a `repr(C)` `perf_event_attr`.
//! On any other target the syscall layer reports `ENOSYS` and everything
//! above it degrades to a structured [`CapabilityReport`] — the crate
//! builds and tests everywhere, and *never panics* for lack of a PMU.
//!
//! Collection model, mirroring how the paper measured POWER7:
//!
//! - **per-thread attribution** — every thread listed in
//!   `/proc/<pid>/task` gets its own event *group* (leader + members), so
//!   the scalability factor (`TotalTime / AvgThrdTime`) comes from real
//!   per-thread CPU time, and new threads are picked up by rescanning at
//!   each window boundary (no `inherit`, which cannot be combined with
//!   grouped reads);
//! - **multiplex scaling** — groups are read with
//!   `PERF_FORMAT_TOTAL_TIME_ENABLED|TOTAL_TIME_RUNNING|GROUP` and counts
//!   are rescaled by `time_enabled / time_running`
//!   ([`crate::scale_multiplexed`]), with torn reads (shrinking times,
//!   short reads, mismatched member counts) rejected as
//!   [`Error::InvalidMeasurement`];
//! - **event selection** — the [`EventMap`] names the per-architecture
//!   encodings; optional events that fail to open are skipped and
//!   reported, required ones fail attachment with a capability report
//!   embedded in the error.

use std::fs::File;
use std::io::Read as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use smt_sim::{Error, SmtLevel, WindowMeasurement};

use crate::backend::CounterBackend;
use crate::capability::{CapabilityReport, EventSupport, SupportStatus};
use crate::events::{scale_multiplexed, EventDesc, EventKind, EventMap, ScaledCount, ThreadSample};

/// `perf_event_attr`, laid out to `PERF_ATTR_SIZE_VER5` (112 bytes).
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfEventAttr {
    /// Event type (`PERF_TYPE_*`).
    pub type_: u32,
    /// Size of this struct, for ABI versioning.
    pub size: u32,
    /// Event encoding (`PERF_COUNT_*` or a raw code).
    pub config: u64,
    sample_period: u64,
    sample_type: u64,
    /// Read format flags (`PERF_FORMAT_*`).
    pub read_format: u64,
    /// Bitfield: bit 0 `disabled`, bit 5 `exclude_kernel`, bit 6
    /// `exclude_hv`, …
    pub flags: u64,
    wakeup_events: u32,
    bp_type: u32,
    config1: u64,
    config2: u64,
    branch_sample_type: u64,
    sample_regs_user: u64,
    sample_stack_user: u32,
    clockid: i32,
    sample_regs_intr: u64,
    aux_watermark: u32,
    sample_max_stack: u16,
    reserved_2: u16,
}

/// `PERF_ATTR_SIZE_VER5`.
pub const ATTR_SIZE: u32 = 112;
/// `PERF_FORMAT_TOTAL_TIME_ENABLED`.
pub const FORMAT_TOTAL_TIME_ENABLED: u64 = 1 << 0;
/// `PERF_FORMAT_TOTAL_TIME_RUNNING`.
pub const FORMAT_TOTAL_TIME_RUNNING: u64 = 1 << 1;
/// `PERF_FORMAT_GROUP`: one read returns the whole group.
pub const FORMAT_GROUP: u64 = 1 << 3;
const FLAG_DISABLED: u64 = 1 << 0;
const FLAG_EXCLUDE_KERNEL: u64 = 1 << 5;
const FLAG_EXCLUDE_HV: u64 = 1 << 6;

const EPERM: i32 = 1;
const ENOENT: i32 = 2;
const EACCES: i32 = 13;
const ENODEV: i32 = 19;
const EINVAL: i32 = 22;
const ENOSYS: i32 = 38;
const EOPNOTSUPP: i32 = 95;

const IOC_ENABLE: u64 = 0x2400;
const IOC_RESET: u64 = 0x2403;
const IOC_FLAG_GROUP: u64 = 1;

/// Raw syscall layer. Only x86-64 Linux has a real implementation; every
/// other target reports `-ENOSYS`, which the layers above translate into
/// [`SupportStatus::UnsupportedPlatform`].
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::PerfEventAttr;

    const SYS_READ: i64 = 0;
    const SYS_CLOSE: i64 = 3;
    const SYS_IOCTL: i64 = 16;
    const SYS_PERF_EVENT_OPEN: i64 = 298;

    /// Five-argument raw syscall; returns `-errno` on failure.
    unsafe fn syscall5(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
        ret
    }

    pub fn perf_event_open(attr: &PerfEventAttr, pid: i32, cpu: i32, group_fd: i32) -> i64 {
        unsafe {
            syscall5(
                SYS_PERF_EVENT_OPEN,
                attr as *const PerfEventAttr as i64,
                pid as i64,
                cpu as i64,
                group_fd as i64,
                0,
            )
        }
    }

    pub fn read(fd: i32, buf: &mut [u8]) -> i64 {
        unsafe {
            syscall5(
                SYS_READ,
                fd as i64,
                buf.as_mut_ptr() as i64,
                buf.len() as i64,
                0,
                0,
            )
        }
    }

    pub fn ioctl(fd: i32, req: u64, arg: u64) -> i64 {
        unsafe { syscall5(SYS_IOCTL, fd as i64, req as i64, arg as i64, 0, 0) }
    }

    pub fn close(fd: i32) -> i64 {
        unsafe { syscall5(SYS_CLOSE, fd as i64, 0, 0, 0, 0) }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use super::{PerfEventAttr, ENOSYS};

    pub fn perf_event_open(_attr: &PerfEventAttr, _pid: i32, _cpu: i32, _group_fd: i32) -> i64 {
        -(ENOSYS as i64)
    }
    pub fn read(_fd: i32, _buf: &mut [u8]) -> i64 {
        -(ENOSYS as i64)
    }
    pub fn ioctl(_fd: i32, _req: u64, _arg: u64) -> i64 {
        -(ENOSYS as i64)
    }
    pub fn close(_fd: i32) -> i64 {
        -(ENOSYS as i64)
    }
}

/// Owned perf event fd, closed on drop.
#[derive(Debug)]
struct EventFd(i32);

impl Drop for EventFd {
    fn drop(&mut self) {
        if self.0 >= 0 {
            let _ = sys::close(self.0);
        }
    }
}

fn attr_for(desc: &EventDesc, leader: bool) -> PerfEventAttr {
    PerfEventAttr {
        type_: desc.perf_type,
        size: ATTR_SIZE,
        config: desc.config,
        read_format: FORMAT_TOTAL_TIME_ENABLED | FORMAT_TOTAL_TIME_RUNNING | FORMAT_GROUP,
        flags: FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV | if leader { FLAG_DISABLED } else { 0 },
        ..Default::default()
    }
}

fn classify_errno(errno: i32) -> SupportStatus {
    match errno {
        EPERM | EACCES => SupportStatus::Denied { errno },
        ENOSYS => SupportStatus::UnsupportedPlatform,
        ENOENT | ENODEV | EINVAL | EOPNOTSUPP => SupportStatus::Missing { errno },
        other => SupportStatus::Missing { errno: other },
    }
}

/// Probe which of `map`'s events this host can count, by opening each one
/// briefly on the calling thread. Never fails: every outcome — including
/// "this build has no syscall layer" — lands in the report.
pub fn probe(map: &EventMap) -> CapabilityReport {
    let mut events = Vec::with_capacity(map.events.len());
    for desc in &map.events {
        let attr = attr_for(desc, true);
        let ret = sys::perf_event_open(&attr, 0, -1, -1);
        let status = if ret >= 0 {
            let _ = sys::close(ret as i32);
            SupportStatus::Supported
        } else {
            classify_errno((-ret) as i32)
        };
        events.push(EventSupport {
            name: desc.name.to_string(),
            perf_type: desc.perf_type,
            config: desc.config,
            optional: desc.optional,
            status,
        });
    }
    let mut notes = Vec::new();
    if let Ok(mut f) = File::open("/proc/sys/kernel/perf_event_paranoid") {
        let mut s = String::new();
        if f.read_to_string(&mut s).is_ok() {
            notes.push(format!("perf_event_paranoid = {}", s.trim()));
        }
    }
    if events.iter().any(|e| !e.optional && !e.status.ok()) {
        notes.push(
            "live collection unavailable; use --backend sim or replay a recorded trace".to_string(),
        );
    }
    CapabilityReport {
        backend: "perf".to_string(),
        platform: format!("{}/{}", std::env::consts::OS, std::env::consts::ARCH),
        event_map: map.arch.to_string(),
        usable: false,
        events,
        notes,
    }
    .finish()
}

/// One attached thread: a group leader plus member events, and the
/// previous raw reading for delta computation.
#[derive(Debug)]
struct ThreadGroup {
    tid: u32,
    leader: EventFd,
    _members: Vec<EventFd>,
    /// Kinds in group-read order (leader first).
    kinds: Vec<EventKind>,
    prev: Option<GroupReading>,
}

#[derive(Debug, Clone)]
struct GroupReading {
    time_enabled: u64,
    time_running: u64,
    values: Vec<u64>,
}

impl ThreadGroup {
    /// Open the map's events on `tid`. Required events must open; optional
    /// failures are recorded in `skipped`.
    fn open(tid: u32, map: &EventMap, skipped: &mut Vec<String>) -> Result<ThreadGroup, Error> {
        let mut leader: Option<EventFd> = None;
        let mut members = Vec::new();
        let mut kinds = Vec::new();
        for desc in &map.events {
            let is_leader = leader.is_none();
            let attr = attr_for(desc, is_leader);
            let group_fd = leader.as_ref().map(|l| l.0).unwrap_or(-1);
            let ret = sys::perf_event_open(&attr, tid as i32, -1, group_fd);
            if ret < 0 {
                let errno = (-ret) as i32;
                if desc.optional {
                    skipped.push(format!("{} (errno {errno})", desc.name));
                    continue;
                }
                return Err(Error::InvalidMeasurement(format!(
                    "perf_event_open({}) on tid {tid} failed with errno {errno} ({:?})",
                    desc.name,
                    classify_errno(errno)
                )));
            }
            let fd = EventFd(ret as i32);
            if is_leader {
                leader = Some(fd);
            } else {
                members.push(fd);
            }
            kinds.push(desc.kind);
        }
        let leader = leader
            .ok_or_else(|| Error::InvalidMeasurement(format!("no events opened on tid {tid}")))?;
        sys::ioctl(leader.0, IOC_RESET, IOC_FLAG_GROUP);
        sys::ioctl(leader.0, IOC_ENABLE, IOC_FLAG_GROUP);
        Ok(ThreadGroup {
            tid,
            leader,
            _members: members,
            kinds,
            prev: None,
        })
    }

    /// One grouped read: `nr, time_enabled, time_running, values[nr]`.
    fn read(&self) -> Result<GroupReading, Error> {
        let want = 3 + self.kinds.len();
        let mut buf = vec![0u8; want * 8];
        let n = sys::read(self.leader.0, &mut buf);
        if n < 0 {
            return Err(Error::Io(format!(
                "reading perf group on tid {} failed with errno {}",
                self.tid, -n
            )));
        }
        let n = n as usize;
        if n < 3 * 8 || !n.is_multiple_of(8) {
            return Err(Error::InvalidMeasurement(format!(
                "torn perf group read on tid {}: {n} bytes",
                self.tid
            )));
        }
        let words: Vec<u64> = buf[..n]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect();
        let nr = words[0] as usize;
        if nr != self.kinds.len() || words.len() != 3 + nr {
            return Err(Error::InvalidMeasurement(format!(
                "torn perf group read on tid {}: kernel reported {nr} events, expected {}",
                self.tid,
                self.kinds.len()
            )));
        }
        Ok(GroupReading {
            time_enabled: words[1],
            time_running: words[2],
            values: words[3..].to_vec(),
        })
    }

    /// Delta since the previous reading, multiplex-scaled. The first call
    /// establishes the baseline and returns `None`.
    fn sample_delta(&mut self) -> Result<Option<ThreadSample>, Error> {
        let now = self.read()?;
        let Some(prev) = self.prev.replace(now.clone()) else {
            return Ok(None);
        };
        let d_enabled = now
            .time_enabled
            .checked_sub(prev.time_enabled)
            .ok_or_else(|| {
                Error::InvalidMeasurement("time_enabled moved backwards (torn read)".to_string())
            })?;
        let d_running = now
            .time_running
            .checked_sub(prev.time_running)
            .ok_or_else(|| {
                Error::InvalidMeasurement("time_running moved backwards (torn read)".to_string())
            })?;
        let mut counts = Vec::with_capacity(self.kinds.len());
        for (i, &kind) in self.kinds.iter().enumerate() {
            let dv = now.values[i].checked_sub(prev.values[i]).ok_or_else(|| {
                Error::InvalidMeasurement(format!(
                    "counter {i} on tid {} moved backwards (torn read)",
                    self.tid
                ))
            })?;
            // Validates the enabled/running relation per event.
            scale_multiplexed(dv, d_enabled.max(1), d_running.min(d_enabled.max(1)))?;
            counts.push(ScaledCount {
                kind,
                value: dv,
                time_enabled: d_enabled.max(1),
                time_running: d_running.min(d_enabled.max(1)),
            });
        }
        Ok(Some(ThreadSample {
            tid: self.tid,
            counts,
        }))
    }
}

/// Live PMU collection attached to a running process.
pub struct PerfBackend {
    map: EventMap,
    pid: u32,
    smt: SmtLevel,
    threads: Vec<ThreadGroup>,
    /// Optional events that failed to open, per thread (deduplicated).
    skipped: Vec<String>,
    last_window_at: Option<Instant>,
}

impl PerfBackend {
    /// Attach to every thread of `pid`. Fails with a structured error when
    /// the process doesn't exist or a *required* event cannot be opened —
    /// run [`probe`] first to know in advance.
    pub fn attach(pid: u32, map: EventMap) -> Result<PerfBackend, Error> {
        let mut backend = PerfBackend {
            smt: host_smt_level(),
            map,
            pid,
            threads: Vec::new(),
            skipped: Vec::new(),
            last_window_at: None,
        };
        backend.rescan_threads()?;
        if backend.threads.is_empty() {
            return Err(Error::InvalidMeasurement(format!(
                "process {pid} has no attachable threads"
            )));
        }
        Ok(backend)
    }

    /// Event map in use.
    pub fn event_map(&self) -> &EventMap {
        &self.map
    }

    /// Optional events that could not be opened (collection is degraded).
    pub fn skipped_events(&self) -> &[String] {
        &self.skipped
    }

    /// List `/proc/<pid>/task`; `Ok(None)` once the process is gone.
    fn list_tids(&self) -> Result<Option<Vec<u32>>, Error> {
        let dir = PathBuf::from(format!("/proc/{}/task", self.pid));
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Error::Io(format!("reading {}: {e}", dir.display()))),
        };
        let mut tids = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| Error::Io(e.to_string()))?;
            if let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) {
                tids.push(tid);
            }
        }
        tids.sort_unstable();
        if tids.is_empty() {
            return Ok(None);
        }
        Ok(Some(tids))
    }

    /// Attach groups for newly appeared threads, drop exited ones.
    /// Returns false when the whole process is gone.
    fn rescan_threads(&mut self) -> Result<bool, Error> {
        let Some(tids) = self.list_tids()? else {
            return Ok(false);
        };
        self.threads.retain(|t| tids.binary_search(&t.tid).is_ok());
        let mut skipped = Vec::new();
        for &tid in &tids {
            if self.threads.iter().all(|t| t.tid != tid) {
                match ThreadGroup::open(tid, &self.map, &mut skipped) {
                    Ok(g) => self.threads.push(g),
                    // A thread can exit between listing and attach; only
                    // propagate when nothing at all is attachable.
                    Err(e) if self.threads.is_empty() => return Err(e),
                    Err(_) => {}
                }
            }
        }
        for s in skipped {
            if !self.skipped.contains(&s) {
                self.skipped.push(s);
            }
        }
        self.threads.sort_by_key(|t| t.tid);
        Ok(true)
    }
}

impl CounterBackend for PerfBackend {
    fn name(&self) -> &'static str {
        "perf"
    }

    fn describe(&self) -> String {
        format!(
            "pid {} via perf_event_open ({} map, {} threads{})",
            self.pid,
            self.map.arch,
            self.threads.len(),
            if self.skipped.is_empty() {
                String::new()
            } else {
                format!(", {} events skipped", self.skipped.len())
            }
        )
    }

    fn next_window(&mut self, window_cycles: u64) -> Result<Option<WindowMeasurement>, Error> {
        if !self.rescan_threads()? {
            return Ok(None);
        }
        // First call after attach: establish baselines, then wait a full
        // window before the first delta.
        if self.last_window_at.is_none() {
            for t in &mut self.threads {
                let _ = t.sample_delta()?;
            }
        }
        let interval =
            Duration::from_nanos((window_cycles as f64 / self.map.nominal_ghz).round() as u64);
        std::thread::sleep(interval);
        let started = self.last_window_at.replace(Instant::now());
        let elapsed_ns = match started {
            Some(prev) => prev.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            None => interval.as_nanos().min(u128::from(u64::MAX)) as u64,
        };
        let mut samples = Vec::with_capacity(self.threads.len());
        for t in &mut self.threads {
            match t.sample_delta() {
                Ok(Some(s)) => samples.push(s),
                Ok(None) => {}
                // A thread that exited mid-window reads as gone, not torn.
                Err(Error::Io(_)) => {}
                Err(e) => return Err(e),
            }
        }
        if samples.is_empty() {
            // All threads exited during the window.
            return Ok(None);
        }
        self.map
            .window_from_samples(&samples, elapsed_ns.max(1), self.smt)
            .map(Some)
    }
}

/// SMT level of the host, from sibling lists in sysfs; `Smt1` when the
/// topology is unreadable.
pub fn host_smt_level() -> SmtLevel {
    let path = "/sys/devices/system/cpu/cpu0/topology/thread_siblings_list";
    let Ok(s) = std::fs::read_to_string(path) else {
        return SmtLevel::Smt1;
    };
    let siblings = s.trim().split([',', '-']).count();
    match siblings {
        0 | 1 => SmtLevel::Smt1,
        2 | 3 => SmtLevel::Smt2,
        _ => SmtLevel::Smt4,
    }
}

/// `PERF_TYPE_HARDWARE`.
const TYPE_HARDWARE: u32 = 0;
/// `PERF_COUNT_HW_CPU_CYCLES`.
const HW_CPU_CYCLES: u64 = 0;
/// `PERF_COUNT_HW_INSTRUCTIONS`.
const HW_INSTRUCTIONS: u64 = 1;

/// One scaled hardware count from [`SelfCounters`]: the raw value
/// multiplied by `time_enabled / time_running` (identity when the event
/// was never multiplexed off the PMU).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfCount {
    /// Multiplex-scaled event count.
    pub value: u64,
    /// Fraction of the measurement the event was actually counting
    /// (1.0 = never descheduled from the PMU).
    pub running_fraction: f64,
}

/// Self-attached CPU-cycles + instructions counters for the calling
/// process — the hardware-truth companion to the simulator's TSC-based
/// phase profile in `repro perf`.
///
/// Built on the same raw-syscall layer as [`PerfBackend`], with the same
/// degradation contract: on hosts where the PMU is masked
/// (`perf_event_paranoid`, containers, non-x86-64 builds) [`open`]
/// returns a `SelfCounters` whose [`available`] is `false` and whose
/// reads are `None` — never an error, never a panic. The
/// [`try_cycles`]/[`try_instructions`] variants expose the parse path's
/// actual failures (short or torn kernel reads) as [`Error`] instead of
/// folding them into `None`.
///
/// [`try_cycles`]: SelfCounters::try_cycles
/// [`try_instructions`]: SelfCounters::try_instructions
///
/// [`open`]: SelfCounters::open
/// [`available`]: SelfCounters::available
#[derive(Debug, Default)]
pub struct SelfCounters {
    cycles: Option<EventFd>,
    instructions: Option<EventFd>,
}

impl SelfCounters {
    /// Try to open both counters on the calling process (pid 0, any CPU),
    /// enabled immediately. Events that fail to open are simply absent.
    pub fn open() -> SelfCounters {
        SelfCounters {
            cycles: Self::open_one(HW_CPU_CYCLES),
            instructions: Self::open_one(HW_INSTRUCTIONS),
        }
    }

    fn open_one(config: u64) -> Option<EventFd> {
        let attr = PerfEventAttr {
            type_: TYPE_HARDWARE,
            size: ATTR_SIZE,
            config,
            read_format: FORMAT_TOTAL_TIME_ENABLED | FORMAT_TOTAL_TIME_RUNNING,
            flags: FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV,
            ..Default::default()
        };
        let ret = sys::perf_event_open(&attr, 0, -1, -1);
        (ret >= 0).then(|| EventFd(ret as i32))
    }

    /// Whether at least one hardware counter opened.
    pub fn available(&self) -> bool {
        self.cycles.is_some() || self.instructions.is_some()
    }

    /// Current CPU-cycle count since [`SelfCounters::open`]. `None` covers
    /// both "counter never opened" and any read failure — the lossy
    /// convenience view of [`SelfCounters::try_cycles`].
    pub fn cycles(&self) -> Option<SelfCount> {
        self.cycles.as_ref().and_then(|fd| Self::read_one(fd).ok())
    }

    /// Current retired-instruction count since [`SelfCounters::open`];
    /// lossy convenience view of [`SelfCounters::try_instructions`].
    pub fn instructions(&self) -> Option<SelfCount> {
        self.instructions
            .as_ref()
            .and_then(|fd| Self::read_one(fd).ok())
    }

    /// Fallible cycle read: `Ok(None)` means the counter never opened
    /// (masked PMU), `Err` means the kernel read itself went wrong — a
    /// short or torn read, or a counter that has never been scheduled.
    pub fn try_cycles(&self) -> Result<Option<SelfCount>, Error> {
        self.cycles.as_ref().map(Self::read_one).transpose()
    }

    /// Fallible instruction read; see [`SelfCounters::try_cycles`].
    pub fn try_instructions(&self) -> Result<Option<SelfCount>, Error> {
        self.instructions.as_ref().map(Self::read_one).transpose()
    }

    fn read_one(fd: &EventFd) -> Result<SelfCount, Error> {
        // Non-group read format: value, time_enabled, time_running.
        let mut buf = [0u8; 24];
        let n = sys::read(fd.0, &mut buf);
        if n < 0 {
            return Err(Error::Io(format!(
                "reading perf self-counter failed with errno {}",
                -n
            )));
        }
        if n != 24 {
            return Err(Error::InvalidMeasurement(format!(
                "short perf self-counter read: {n} bytes, expected 24"
            )));
        }
        let word = |i: usize| -> Result<u64, Error> {
            buf.get(i * 8..(i + 1) * 8)
                .and_then(|b| <[u8; 8]>::try_from(b).ok())
                .map(u64::from_ne_bytes)
                .ok_or_else(|| {
                    Error::InvalidMeasurement(format!(
                        "perf self-counter read too short for word {i}"
                    ))
                })
        };
        let (value, enabled, running) = (word(0)?, word(1)?, word(2)?);
        if running == 0 {
            return Err(Error::InvalidMeasurement(
                "perf self-counter has never been scheduled onto the PMU".to_string(),
            ));
        }
        let scale = enabled as f64 / running as f64;
        Ok(SelfCount {
            value: (value as f64 * scale) as u64,
            running_fraction: (running as f64 / enabled.max(1) as f64).min(1.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::PERF_TYPE_HARDWARE;

    #[test]
    fn attr_layout_is_abi_sized() {
        assert_eq!(std::mem::size_of::<PerfEventAttr>(), ATTR_SIZE as usize);
        let desc = EventDesc {
            kind: EventKind::Instructions,
            name: "instructions",
            perf_type: PERF_TYPE_HARDWARE,
            config: 1,
            optional: false,
        };
        let a = attr_for(&desc, true);
        assert_eq!(a.size, ATTR_SIZE);
        assert_eq!(a.flags & FLAG_DISABLED, FLAG_DISABLED);
        let m = attr_for(&desc, false);
        assert_eq!(m.flags & FLAG_DISABLED, 0);
        assert_eq!(
            m.read_format,
            FORMAT_TOTAL_TIME_ENABLED | FORMAT_TOTAL_TIME_RUNNING | FORMAT_GROUP
        );
    }

    #[test]
    fn errno_classification() {
        assert_eq!(
            classify_errno(EPERM),
            SupportStatus::Denied { errno: EPERM }
        );
        assert_eq!(
            classify_errno(EACCES),
            SupportStatus::Denied { errno: EACCES }
        );
        assert_eq!(classify_errno(ENOSYS), SupportStatus::UnsupportedPlatform);
        assert!(matches!(
            classify_errno(ENOENT),
            SupportStatus::Missing { .. }
        ));
        assert!(matches!(
            classify_errno(EINVAL),
            SupportStatus::Missing { .. }
        ));
    }

    /// A `SelfCounters` with no open events must read as `Ok(None)` on the
    /// fallible path and `None` on the convenience path — absence is not
    /// an error, only torn/short kernel reads are.
    #[test]
    fn absent_self_counters_read_as_none() {
        let counters = SelfCounters::default();
        assert!(!counters.available());
        assert!(counters.cycles().is_none());
        assert!(counters.instructions().is_none());
        assert!(matches!(counters.try_cycles(), Ok(None)));
        assert!(matches!(counters.try_instructions(), Ok(None)));
    }

    /// The probe must *never* panic or error, whatever the host allows —
    /// this is the graceful-degradation contract. On CI containers it
    /// typically reports Denied or UnsupportedPlatform throughout.
    #[test]
    fn probe_is_total() {
        for map in [
            EventMap::generic(),
            EventMap::nehalem_like(),
            EventMap::power7_like(),
        ] {
            let report = probe(&map);
            assert_eq!(report.events.len(), map.events.len());
            let text = report.render();
            assert!(text.contains(map.arch));
            // JSON-serializable for `smtselect collect --probe --json`.
            assert!(serde_json::to_string(&report).is_ok());
        }
    }

    #[test]
    fn attach_to_missing_process_is_an_error_not_a_panic() {
        // PID 4194304 exceeds the default pid_max; /proc/<pid>/task cannot
        // exist.
        let err = PerfBackend::attach(4_194_304, EventMap::generic());
        assert!(err.is_err());
    }

    #[test]
    fn attach_to_self_collects_or_degrades() {
        // On a host that allows perf this collects real windows; on a
        // locked-down container it must fail with a structured error.
        match PerfBackend::attach(std::process::id(), EventMap::generic()) {
            Ok(mut b) => {
                let burn: u64 = (0..200_000u64).map(|x| x.wrapping_mul(31)).sum();
                assert!(burn != 1);
                match b.next_window(2_000_000) {
                    Ok(Some(w)) => {
                        assert!(!w.per_thread.is_empty());
                        assert!(w.wall_cycles > 0);
                    }
                    Ok(None) => {}
                    Err(Error::InvalidMeasurement(_)) | Err(Error::Io(_)) => {}
                    Err(e) => panic!("unexpected error class: {e}"),
                }
            }
            Err(Error::InvalidMeasurement(msg)) => {
                assert!(msg.contains("errno"), "structured errno expected: {msg}");
            }
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }

    #[test]
    fn self_counters_collect_or_degrade_without_panicking() {
        let sc = SelfCounters::open();
        // Burn some user-mode work so an available counter has something
        // to count.
        let burn: u64 = (0..200_000u64).map(|x| x.wrapping_mul(31)).sum();
        assert!(burn != 1);
        // `None` is always legal: the fd may have failed to open (masked
        // PMU) or the read itself may degrade.
        if let Some(c) = sc.cycles() {
            assert!(c.value > 0);
            assert!(c.running_fraction > 0.0 && c.running_fraction <= 1.0);
        }
        // Masked-PMU hosts must land here without an error path.
        let _ = sc.instructions();
    }

    #[test]
    fn host_smt_level_is_total() {
        // Must not panic regardless of sysfs availability.
        let _ = host_smt_level();
    }
}
