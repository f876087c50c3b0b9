//! Self-profiling support: cycle-attributed per-phase timing of the
//! simulator's own hot path.
//!
//! [`Simulation::run_cycles_profiled`](crate::machine::Simulation::run_cycles_profiled)
//! timestamps every pipeline phase of every core-step with [`ticks`]
//! (the TSC on x86-64, a monotonic-clock fallback elsewhere) and
//! accumulates the deltas here. The result answers "where did the wall
//! time go?" — issue scan vs cache walks vs dispatch vs fetch vs
//! bookkeeping — without external tooling, so perf PRs can see their
//! target before and their effect after. Its one front end is the
//! repository benchmark's traced run (`perfbench --trace 1`), which
//! reports each phase's share of [`PhaseProfile::total_ticks`] as
//! `sim.share.*`.
//!
//! There is one stepping path. [`Core::step`](crate::core::Core::step)
//! and the run driver behind `run_cycles` are generic over [`Phases`]:
//! plain runs pass `()`, whose stamps are a constant 0 and whose profile
//! is `None`, so the timing code compiles away; profiled runs pass a
//! [`PhaseProfile`].
//!
//! Overhead note: a phase boundary is one `rdtsc` (~10 ns), five per
//! simulated core-cycle, so profiled runs are slower than plain runs and
//! their absolute cycles/sec is *not* a speed measurement; the repository
//! benchmark (`BENCHMARK.json`) is. The per-phase *shares* are what the
//! mode is for. Profiling never changes what is simulated: a profiled run
//! leaves the same counters as a plain one (checked by
//! `profiled_run_matches_plain_run` in the differential suite).

/// Per-phase tick totals over a profiled run. All tick fields are in
/// [`ticks`] units, so read them as shares of [`Self::total_ticks`].
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

/// Where a core-step's phase timing goes: nowhere for `()` (plain runs),
/// into the buckets for [`PhaseProfile`].
pub trait Phases {
    /// A timestamp at a phase boundary: [`ticks`] when timing, else 0.
    fn stamp(&self) -> u64;
    /// The buckets to charge, or `None` when not timing.
    fn profile(&mut self) -> Option<&mut PhaseProfile>;
}

impl Phases for () {
    #[inline(always)]
    fn stamp(&self) -> u64 {
        0
    }

    #[inline(always)]
    fn profile(&mut self) -> Option<&mut PhaseProfile> {
        None
    }
}

impl Phases for PhaseProfile {
    #[inline(always)]
    fn stamp(&self) -> u64 {
        ticks()
    }

    #[inline(always)]
    fn profile(&mut self) -> Option<&mut PhaseProfile> {
        Some(self)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, InstrClass};
    use crate::machine::{MachineConfig, Simulation};
    use crate::workload::ScriptedWorkload;
    use crate::SmtLevel;

    #[test]
    fn ticks_are_monotonic() {
        let a = ticks();
        let b = ticks();
        assert!(b >= a);
    }

    /// Profiled slices merge into one profile, as the benchmark's traced
    /// run sums its slices: the cycles add up, and the total is the sum
    /// of the six phase rows, in pipeline order.
    #[test]
    fn profile_merges_and_totals() {
        let script = (0..2_000)
            .map(|_| Instr::simple(InstrClass::FixedPoint))
            .collect();
        let w = ScriptedWorkload::new("fx", script);
        let mut sim = Simulation::new(MachineConfig::generic(1), SmtLevel::Smt1, w);
        let mut prof = PhaseProfile::default();
        let ran = sim.run_cycles_profiled(300, &mut prof) + sim.run_cycles_profiled(300, &mut prof);
        assert_eq!(prof.cycles, ran);
        assert!(prof.steps > 0);
        let rows = prof.phases();
        assert_eq!(
            rows.map(|(label, _)| label),
            [
                "retire",
                "issue_scan",
                "cache",
                "dispatch",
                "fetch",
                "bookkeeping"
            ]
        );
        assert_eq!(prof.total_ticks(), rows.iter().map(|(_, t)| t).sum::<u64>());
        assert!(prof.total_ticks() > 0);
    }
}
