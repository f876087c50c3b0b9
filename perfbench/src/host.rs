//! Host-speed normalisation.
//!
//! On a shared host the speed a thread gets *while it runs* drifts by
//! tens of percent within minutes: other tenants load the sibling
//! hyperthread and the shared caches, and the clock frequency moves. The
//! thread CPU clock ([`CpuClock`]) removes time the thread does not run
//! at all, but not this. So every timed pass also runs a fixed probe
//! kernel in short chunks, and the pass's times are divided by the
//! slowdown the probe implies ([`HostSpeed::slowdown`]). Single-threaded
//! passes run a chunk between ops every [`PROBE_EVERY`] and scale each
//! op's latency by the chunks run around it ([`HostSpeed::scale_ops`]),
//! since the host's speed drifts within a pass too. The multi-threaded
//! `serve` pass, pinned to one CPU ([`pin_to_one_cpu`]), runs chunks just
//! before and after its timed section. Reported times are therefore in
//! reference-host seconds: the time the pass would take on a host where
//! one probe chunk takes [`REFERENCE_CHUNK_S`]. The probe is frozen code
//! in this package, so a change to the program under test moves the
//! pass's time and leaves the probe's alone.

use std::time::Duration;

use crate::stats::CpuClock;

// A chunk is three kernels, each a different kind of work the simulator
// does and a different way a neighbour on the host can slow it: integer
// and branch work on an L1-resident table, dependent loads and stores
// over an L2-sized one, and an interpreter's unpredictable dispatch. On
// the 2-vCPU reference host the chunk's slowdowns tracked the passes'
// more closely than any one kernel or an L3-sized walk did: over the
// 90 passes of ten runs per workload, the correlation of log pass time
// with log chunk time was 0.98 (`label`), 0.97 (`tune`) and 0.80
// (`serve`).

/// L1-resident table, in 64-bit words (16 KiB).
const L1_WORDS: usize = 1 << 11;
/// L2-sized table (256 KiB).
const L2_WORDS: usize = 1 << 15;
/// Interpreter program length.
const PROGRAM_LEN: usize = 4096;
/// Steps per chunk of each kernel (about 0.5, 1 and 2.7 ms on the
/// reference host).
const L1_ITERS: u64 = 125_000;
const L2_ITERS: u64 = 75_000;
const INTERP_ITERS: u64 = 125_000;
/// Thread CPU time between chunks during a pass (chunks cost about 5%).
const PROBE_EVERY: Duration = Duration::from_millis(80);
/// One chunk's CPU time on the reference host, seconds. It only sets the
/// scale of the reported times.
pub const REFERENCE_CHUNK_S: f64 = 0.0045;
/// How much more the program's times move than the probe's, as an
/// exponent: a chunk 10% slower than on the reference host predicts a
/// pass about 1.8 × 10% slower. Fitted on the same 90 passes as the
/// slope of log pass time on log chunk time: 1.65 (`label`), 2.05
/// (`tune`) and 1.69 (`serve`); 2.0 on 14 further `tune` passes.
const SENSITIVITY: f64 = 1.8;
/// Chunks on either side of an op that give its local slowdown: about
/// 0.7 s of CPU time each way.
const LOCAL_CHUNKS: usize = 8;

/// The probe kernel and the chunk times of one pass.
#[derive(Debug)]
pub struct HostSpeed {
    l1: Vec<u64>,
    l2: Vec<u64>,
    program: Vec<u8>,
    state: u64,
    clock: CpuClock,
    last: Duration,
    chunk_s: Vec<f64>,
    spent: Duration,
    /// For each op recorded with [`HostSpeed::after_op`], the chunks run
    /// before it ended.
    op_marks: Vec<usize>,
}

impl HostSpeed {
    /// A fresh probe; no chunk has run yet.
    pub fn new() -> HostSpeed {
        let table = |n: usize| {
            (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect()
        };
        HostSpeed {
            l1: table(L1_WORDS),
            l2: table(L2_WORDS),
            program: (0..PROGRAM_LEN as u64)
                .map(|i| (crate::mix(0, i) % OPCODES) as u8)
                .collect(),
            state: 0x2545_F491_4F6C_DD1D,
            clock: CpuClock::start(),
            last: Duration::ZERO,
            chunk_s: Vec::new(),
            spent: Duration::ZERO,
            op_marks: Vec::new(),
        }
    }

    /// Run `n` chunks now (around a timed section that is not this
    /// thread's).
    pub fn probe(&mut self, n: usize) {
        for _ in 0..n {
            self.chunk();
        }
    }

    /// Call right after each timed op of a single-threaded pass, in the
    /// order the ops' latencies are recorded: marks where the op ran,
    /// then does what [`HostSpeed::between_ops`] does.
    pub fn after_op(&mut self) {
        self.op_marks.push(self.chunk_s.len());
        self.between_ops();
    }

    /// Call between steps of a single-threaded pass: runs a chunk once
    /// [`PROBE_EVERY`] of CPU time has passed since the last one.
    pub fn between_ops(&mut self) {
        if self.clock.elapsed() - self.last >= PROBE_EVERY {
            self.chunk();
        }
    }

    fn chunk(&mut self) {
        let start = self.clock.elapsed();
        let x = walk(&mut self.l1, self.state, L1_ITERS);
        let x = walk(&mut self.l2, x, L2_ITERS);
        self.state = interpret(&self.program, x, INTERP_ITERS);
        let end = self.clock.elapsed();
        self.chunk_s.push((end - start).as_secs_f64());
        self.spent += end - start;
        self.last = end;
    }

    /// CPU time the chunks took; a pass subtracts it from its own time.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Chunks run so far.
    pub fn chunks(&self) -> usize {
        self.chunk_s.len()
    }

    /// How much slower than on the reference host the probe implies the
    /// program ran: the mean chunk time over [`REFERENCE_CHUNK_S`] (the
    /// mean, because a pass's time is a sum over the same stretch of host
    /// time), raised to [`SENSITIVITY`]. 1 when no chunk ran.
    pub fn slowdown(&self) -> f64 {
        if self.chunk_s.is_empty() {
            return 1.0;
        }
        let mean = self.chunk_s.iter().sum::<f64>() / self.chunk_s.len() as f64;
        factor(mean)
    }

    /// The pass's op latencies, each divided by its slowdown. Ops marked
    /// with [`HostSpeed::after_op`] use the mean of the chunks within
    /// [`LOCAL_CHUNKS`] on either side of them; otherwise every op uses
    /// the whole pass's [`HostSpeed::slowdown`].
    pub fn scale_ops(&self, op_ms: &[f64]) -> Vec<f64> {
        if self.op_marks.is_empty() || self.chunk_s.is_empty() {
            let s = self.slowdown();
            return op_ms.iter().map(|t| t / s).collect();
        }
        assert_eq!(
            self.op_marks.len(),
            op_ms.len(),
            "every timed op must be marked with after_op"
        );
        let prefix: Vec<f64> = std::iter::once(0.0)
            .chain(self.chunk_s.iter().scan(0.0, |sum, c| {
                *sum += c;
                Some(*sum)
            }))
            .collect();
        let n = self.chunk_s.len();
        op_ms
            .iter()
            .zip(&self.op_marks)
            .map(|(t, &k)| {
                // `k <= n`, so the window is never empty.
                let (lo, hi) = (k.saturating_sub(LOCAL_CHUNKS), (k + LOCAL_CHUNKS).min(n));
                t / factor((prefix[hi] - prefix[lo]) / (hi - lo) as f64)
            })
            .collect()
    }
}

/// The slowdown a mean chunk time implies.
fn factor(mean_chunk_s: f64) -> f64 {
    (mean_chunk_s / REFERENCE_CHUNK_S).powf(SENSITIVITY)
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to the lowest-numbered CPU it may run on.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<(), String> {
    /// Room for 1,024 CPUs, as glibc's `cpu_set_t`.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let word = mask.iter().position(|w| *w != 0).ok_or("empty CPU mask")?;
    let mut one = [0u64; WORDS];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: as above, reading `size` bytes from `one`.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Elsewhere threads are left where the OS puts them.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<(), String> {
    Ok(())
}

/// One xorshift64 step.
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A xorshift stream steering a dependent walk over `words` (a power of
/// two long), with a data-dependent branch and a store per step.
#[inline(never)]
fn walk(words: &mut [u64], mut x: u64, iters: u64) -> u64 {
    let mask = words.len() - 1;
    let (mut at, mut acc) = (0usize, 0u64);
    for _ in 0..iters {
        x = xorshift(x);
        let v = words[at];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v >> 3);
        } else {
            acc ^= v.rotate_left(7);
        }
        words[at] = v.wrapping_add(x);
        at = ((v ^ x) as usize) & mask;
    }
    std::hint::black_box(acc);
    x
}

/// Opcodes of the probe interpreter.
const OPCODES: u64 = 16;

/// Run `program` on eight registers for `iters` steps; the data decides
/// branches and jumps, so dispatch is unpredictable.
#[inline(never)]
fn interpret(program: &[u8], mut x: u64, iters: u64) -> u64 {
    let mut regs = [1u64; 8];
    let mut pc = 0usize;
    for _ in 0..iters {
        let r = (x & 7) as usize;
        match program[pc] {
            0 => regs[r] = regs[r].wrapping_add(x),
            1 => regs[r] ^= regs[(r + 1) & 7],
            2 => regs[r] = regs[r].rotate_left(5),
            3 if regs[r] & 1 == 1 => pc = (pc + 7) % program.len(),
            4 => regs[r] = regs[r].wrapping_mul(0x5851_F42D_4C95_7F2D),
            5 => x ^= regs[r],
            6 => regs[r] = (regs[r] >> 3) | 1,
            7 if regs[r] > x => x = x.wrapping_sub(regs[r]),
            8 => regs[(r + 3) & 7] = regs[r].wrapping_sub(1),
            9 => pc = (regs[r] as usize) % program.len(),
            10 => regs[r] = u64::from(regs[r].count_ones()) ^ x,
            11 => x = x.rotate_right(11),
            12 if x & 4 == 0 => regs[r] = regs[r].wrapping_add(3),
            13 => regs[r] = regs[r].swap_bytes(),
            14 => regs[r] |= x >> 40,
            _ => regs[r] = regs[r].wrapping_add(regs[(r + 5) & 7]),
        }
        x = xorshift(x);
        pc = (pc + 1) % program.len();
    }
    std::hint::black_box(regs);
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_run_on_schedule_and_are_accounted() {
        let mut h = HostSpeed::new();
        assert_eq!(h.slowdown(), 1.0);
        h.between_ops();
        assert_eq!(h.chunks(), 0, "no chunk before PROBE_EVERY has passed");
        while h.chunks() == 0 {
            h.between_ops();
        }
        h.between_ops();
        assert_eq!(h.chunks(), 1, "the interval restarts after each chunk");
        assert!(h.spent() > Duration::ZERO);
        assert!(h.slowdown() > 0.0 && h.slowdown().is_finite());
    }

    #[test]
    fn ops_are_scaled_by_the_chunks_around_them() {
        let mut h = HostSpeed::new();
        // The probe ran at reference speed, then at half speed.
        h.chunk_s = [
            vec![REFERENCE_CHUNK_S; 20],
            vec![2.0 * REFERENCE_CHUNK_S; 20],
        ]
        .concat();
        let slow = 2f64.powf(SENSITIVITY);
        // Unmarked ops (the multi-threaded pass) share the pass's slowdown.
        let pass = h.slowdown();
        assert_eq!(h.scale_ops(&[1.0, 2.0]), [1.0 / pass, 2.0 / pass]);
        // Marked ops: one at the start, one at the end.
        h.op_marks = vec![0, 40];
        let scaled = h.scale_ops(&[10.0, 10.0]);
        assert!((scaled[0] - 10.0).abs() < 1e-9, "{scaled:?}");
        assert!((scaled[1] - 10.0 / slow).abs() < 1e-9, "{scaled:?}");
    }

    #[test]
    fn the_kernel_is_deterministic() {
        let mut a = HostSpeed::new();
        let mut b = HostSpeed::new();
        a.chunk();
        b.chunk();
        assert_eq!(a.state, b.state);
        assert_eq!((a.l1, a.l2), (b.l1, b.l2));
    }
}
