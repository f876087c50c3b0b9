//! Self-profiling support: cycle-attributed per-phase timing of the
//! simulator's own hot path.
//!
//! `repro perf` runs a fixed workload matrix through
//! [`Simulation::run_cycles_profiled`](crate::machine::Simulation::run_cycles_profiled),
//! which timestamps every pipeline phase of every core-step with [`ticks`]
//! (the TSC on x86-64, a monotonic-clock fallback elsewhere) and
//! accumulates the deltas here. The result answers "where did the wall
//! time go?" — issue scan vs cache walks vs dispatch vs fetch vs
//! bookkeeping — without external tooling, so perf PRs can see their
//! target before and their effect after.
//!
//! Overhead note: a phase boundary is one `rdtsc` (~10 ns), five per
//! simulated core-cycle, so profiled runs are slower than plain runs and
//! their absolute cycles/sec is *not* a speed measurement; the repository
//! benchmark (`BENCHMARK.json`) is. The per-phase *shares* are what the
//! mode is for. Profiling never changes what is simulated: a profiled run
//! leaves the same counters as a plain one (checked by
//! `profiled_run_matches_plain_run` in the differential suite).

/// Per-phase tick totals over a profiled run. All tick fields are in
/// [`ticks`] units; convert with [`ticks_per_sec`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile {
    /// Wake/retire: LMQ sweep, unparking, thread state transitions, and
    /// dynamic-partition cap refresh.
    pub retire: u64,
    /// Issue scan proper (ready classification, port selection, commit),
    /// *excluding* the cache-hierarchy walks below.
    pub issue: u64,
    /// Cache-hierarchy walks issued from the issue stage (L1 probes and
    /// `MemorySystem::access` for loads/stores).
    pub mem: u64,
    /// Dispatch: queue routing, ROB window checks, DispHeld accounting.
    pub dispatch: u64,
    /// Fetch: workload instruction generation plus I-cache probes.
    pub fetch: u64,
    /// End-of-cycle accounting (and, in debug builds, invariant checks).
    pub bookkeeping: u64,
    /// Core-steps timed (one per core per non-skipped cycle).
    pub steps: u64,
    /// Simulated cycles covered by the profiled run, including cycles
    /// elided by fast-forward (which cost no phase time).
    pub cycles: u64,
}

impl PhaseProfile {
    /// Sum of all phase buckets.
    pub fn total_ticks(&self) -> u64 {
        self.retire + self.issue + self.mem + self.dispatch + self.fetch + self.bookkeeping
    }

    /// Accumulate another profile (e.g. across matrix cases).
    pub fn merge(&mut self, other: &PhaseProfile) {
        self.retire += other.retire;
        self.issue += other.issue;
        self.mem += other.mem;
        self.dispatch += other.dispatch;
        self.fetch += other.fetch;
        self.bookkeeping += other.bookkeeping;
        self.steps += other.steps;
        self.cycles += other.cycles;
    }

    /// `(label, ticks)` rows in pipeline order, for table/folded output.
    pub fn phases(&self) -> [(&'static str, u64); 6] {
        [
            ("retire", self.retire),
            ("issue_scan", self.issue),
            ("cache", self.mem),
            ("dispatch", self.dispatch),
            ("fetch", self.fetch),
            ("bookkeeping", self.bookkeeping),
        ]
    }
}

/// A raw timestamp in arbitrary-but-monotonic units: the TSC on x86-64,
/// nanoseconds from a process-local epoch elsewhere.
#[inline]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // Safety: RDTSC is unprivileged and has no memory operands.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        use std::time::Instant;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        let epoch = *EPOCH.get_or_init(Instant::now);
        epoch.elapsed().as_nanos() as u64
    }
}

/// Measure how many [`ticks`] elapse per wall second (~10 ms calibration
/// spin against the monotonic clock; invariant-TSC hosts make this
/// stable).
pub fn ticks_per_sec() -> f64 {
    use std::time::{Duration, Instant};
    let t0 = ticks();
    let w0 = Instant::now();
    while w0.elapsed() < Duration::from_millis(10) {
        std::hint::spin_loop();
    }
    let dt = ticks() - t0;
    dt as f64 / w0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_monotonic() {
        let a = ticks();
        let b = ticks();
        assert!(b >= a);
    }

    #[test]
    fn calibration_is_positive_and_sane() {
        let tps = ticks_per_sec();
        // Anything from a 1 MHz fallback clock to a 10 GHz TSC.
        assert!(tps > 1e5 && tps < 2e10, "ticks/sec = {tps}");
    }

    #[test]
    fn profile_merges_and_totals() {
        let mut a = PhaseProfile {
            retire: 1,
            issue: 2,
            mem: 3,
            dispatch: 4,
            fetch: 5,
            bookkeeping: 6,
            steps: 7,
            cycles: 8,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total_ticks(), 2 * (1 + 2 + 3 + 4 + 5 + 6));
        assert_eq!(a.steps, 14);
        assert_eq!(a.cycles, 16);
        assert_eq!(a.phases()[1], ("issue_scan", 4));
    }
}
