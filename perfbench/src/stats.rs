//! Summary statistics shared by every workload: the median, the tail
//! percentile rule, the ok/failed tally, the process's peak RSS, and the
//! thread CPU clock the single-threaded workloads are timed on.

use std::time::Duration;

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A latency distribution, kept sorted.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// The tail a distribution supports: the highest ladder percentile with
/// at least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile (e.g. 99.0).
    pub pct: f64,
    /// Value at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples in the distribution.
    pub n: usize,
}

impl Samples {
    /// Build from unsorted values.
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest value with at least `pct`% of
    /// the samples at or below it. `None` when empty.
    pub fn percentile(&self, pct: f64) -> Option<f64> {
        let n = self.sorted.len();
        (n > 0).then(|| self.sorted[nearest_rank(pct, n) - 1])
    }

    /// The median.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
    /// samples beyond it; `None` with fewer than 20 samples, where not
    /// even the median qualifies.
    pub fn tail(&self) -> Option<Tail> {
        let n = self.sorted.len();
        TAIL_LADDER.iter().find_map(|&pct| {
            if n == 0 {
                return None;
            }
            let rank = nearest_rank(pct, n);
            let beyond = n - rank;
            (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
                pct,
                value: self.sorted[rank - 1],
                beyond,
                n,
            })
        })
    }
}

/// 1-based nearest rank of `pct` in `n` samples, in integer arithmetic
/// on hundredths of a percent so that e.g. p99.9 of 10,000 is rank 9,990.
fn nearest_rank(pct: f64, n: usize) -> usize {
    let hundredths = (pct * 100.0).round() as u128;
    let rank = (hundredths * n as u128).div_ceil(10_000) as usize;
    rank.clamp(1, n)
}

/// Median of a small set of measurements (set-up repetitions, passes).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).p50().unwrap_or(0.0)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A stopwatch on the calling thread's CPU clock
/// (`CLOCK_THREAD_CPUTIME_ID`). It advances only while the thread runs,
/// so time the host gives to other tenants (steal) or to other threads
/// does not count; on a shared host that is most of the run-to-run
/// spread of a single-threaded, compute-bound pass. Where the clock is
/// not available it falls back to wall time.
#[derive(Debug, Clone, Copy)]
pub struct CpuClock {
    start: Duration,
}

impl CpuClock {
    /// Start timing now.
    pub fn start() -> CpuClock {
        CpuClock {
            start: thread_cpu_time(),
        }
    }

    /// CPU time the thread has used since [`CpuClock::start`].
    pub fn elapsed(&self) -> Duration {
        thread_cpu_time().saturating_sub(self.start)
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on 64-bit Linux), and the clock id is a
    // constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Elsewhere: wall time since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_time() -> Duration {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(std::time::Instant::now).elapsed()
}

/// Ops attempted and ops that failed or did not match the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or mismatched the reference.
    pub failed: u64,
}

impl Tally {
    /// Count `n` ops, all of them failed when `ok` is false.
    pub fn add(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of attempted ops that succeeded and matched (0 when none
    /// were attempted).
    pub fn ok_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let t = ramp(1000).tail().expect("tail");
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));
        // 999 samples: p99's rank is 990, leaving 9 beyond — not enough.
        let t = ramp(999).tail().expect("tail");
        assert_eq!((t.pct, t.value, t.beyond, t.n), (90.0, 900.0, 99, 999));
        // 10,000 samples reach p99.9.
        let t = ramp(10_000).tail().expect("tail");
        assert_eq!((t.pct, t.beyond), (99.9, 10));
        // 20 samples support only the median; 19 support nothing.
        let t = ramp(20).tail().expect("tail");
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
        assert_eq!(ramp(19).tail(), None);
        assert_eq!(Samples::default().tail(), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = ramp(4);
        assert_eq!(s.p50(), Some(2.0));
        assert_eq!(s.percentile(100.0), Some(4.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn cpu_clock_counts_work_not_sleep() {
        let c = CpuClock::start();
        std::thread::sleep(Duration::from_millis(50));
        let slept = c.elapsed();
        assert!(
            slept < Duration::from_millis(25),
            "sleep counted: {slept:?}"
        );
        let (mut x, spin) = (1u64, Instant::now());
        while c.elapsed() < slept + Duration::from_millis(20) {
            assert!(spin.elapsed() < Duration::from_secs(10), "work not counted");
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.add(8, true);
        t.add(2, false);
        assert_eq!(t.ok_rate(), 0.8);
        let mut u = Tally::default();
        u.merge(t);
        assert_eq!(u, t);
        assert_eq!(Tally::default().ok_rate(), 0.0);
    }
}
