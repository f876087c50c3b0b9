//! Hardware performance counters.
//!
//! This is the simulator's PMU: everything the SMT-selection metric (and
//! the naive baseline metrics of Fig. 2) reads. Counters come in two banks:
//! per-software-thread [`ThreadCounters`] and per-core [`CoreCounters`].
//! A [`WindowMeasurement`] is a *delta* of both banks over a sampling
//! window, plus the context (SMT level, wall cycles) needed to evaluate
//! the metric — the analogue of one `perf`-style sampling interval.
//!
//! Counter updates are part of the simulator's bit-identity contract:
//! both issue engines (the legacy entry walk and the word-parallel SoA
//! bitset engine, DESIGN.md §3.13) must produce identical values in both
//! banks at *every* observation point, not just at completion — enforced
//! across engines, stepping modes and the phase profiler by the differential
//! proptests in `crates/experiments/tests/differential.rs`.

use crate::arch::SmtLevel;
use crate::isa::{InstrClass, NUM_CLASSES};
use serde::{Deserialize, Serialize};

/// Event counts attributed to one software thread.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadCounters {
    /// Cycles the thread was bound to a hardware context and runnable
    /// (includes spin-waiting; excludes sleep).
    pub cpu_cycles: u64,
    /// Cycles the thread was blocked (sleep, blocking locks, barriers).
    pub sleep_cycles: u64,
    /// Instructions fetched into the thread's buffer.
    pub fetched: u64,
    /// Instructions dispatched into issue queues.
    pub dispatched: u64,
    /// Instructions issued to ports (== completed, for our purposes).
    pub issued: u64,
    /// Useful work units among issued instructions.
    pub work_units: u64,
    /// Issued instructions carrying zero work (spin-loop overhead).
    pub spin_instrs: u64,
    /// Cycles this thread had dispatchable instructions, dispatched none,
    /// and was turned away by an issue queue whose execution resources were
    /// saturated (ports all busy, or loads rejected on a full load-miss
    /// queue). This is the per-thread `PM_DISP_CLB_HELD_RES` analogue the
    /// metric's DispHeld factor aggregates.
    pub disp_held_cycles: u64,
    /// Branch instructions issued.
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_mispredicts: u64,
    /// Loads+stores that missed L1D.
    pub l1d_misses: u64,
    /// Instruction fetches that missed the L1I (front-end stalls).
    pub l1i_misses: u64,
    /// Misses that also missed L2.
    pub l2_misses: u64,
    /// Misses that also missed L3 (went to DRAM).
    pub l3_misses: u64,
    /// Memory references issued (loads + stores).
    pub mem_refs: u64,
    /// Accesses serviced by a remote chip's memory controller.
    pub remote_accesses: u64,
    /// Issued instructions by class.
    pub class_issued: [u64; NUM_CLASSES],
    /// Issued instructions by issue port (length = arch port count).
    pub port_issued: Vec<u64>,
}

impl ThreadCounters {
    /// Fresh zeroed bank for an architecture with `nports` issue ports.
    pub fn new(nports: usize) -> ThreadCounters {
        ThreadCounters {
            port_issued: vec![0; nports],
            ..Default::default()
        }
    }

    /// Elementwise `self - earlier`; panics if `earlier` is not a prefix
    /// state of `self` (counters are monotonic).
    pub fn delta(&self, earlier: &ThreadCounters) -> ThreadCounters {
        assert_eq!(self.port_issued.len(), earlier.port_issued.len());
        let mut d = self.clone();
        d.cpu_cycles -= earlier.cpu_cycles;
        d.sleep_cycles -= earlier.sleep_cycles;
        d.fetched -= earlier.fetched;
        d.dispatched -= earlier.dispatched;
        d.issued -= earlier.issued;
        d.work_units -= earlier.work_units;
        d.spin_instrs -= earlier.spin_instrs;
        d.disp_held_cycles -= earlier.disp_held_cycles;
        d.branches -= earlier.branches;
        d.branch_mispredicts -= earlier.branch_mispredicts;
        d.l1d_misses -= earlier.l1d_misses;
        d.l1i_misses -= earlier.l1i_misses;
        d.l2_misses -= earlier.l2_misses;
        d.l3_misses -= earlier.l3_misses;
        d.mem_refs -= earlier.mem_refs;
        d.remote_accesses -= earlier.remote_accesses;
        for i in 0..NUM_CLASSES {
            d.class_issued[i] -= earlier.class_issued[i];
        }
        for i in 0..d.port_issued.len() {
            d.port_issued[i] -= earlier.port_issued[i];
        }
        d
    }

    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: &ThreadCounters) {
        assert_eq!(self.port_issued.len(), other.port_issued.len());
        self.cpu_cycles += other.cpu_cycles;
        self.sleep_cycles += other.sleep_cycles;
        self.fetched += other.fetched;
        self.dispatched += other.dispatched;
        self.issued += other.issued;
        self.work_units += other.work_units;
        self.spin_instrs += other.spin_instrs;
        self.disp_held_cycles += other.disp_held_cycles;
        self.branches += other.branches;
        self.branch_mispredicts += other.branch_mispredicts;
        self.l1d_misses += other.l1d_misses;
        self.l1i_misses += other.l1i_misses;
        self.l2_misses += other.l2_misses;
        self.l3_misses += other.l3_misses;
        self.mem_refs += other.mem_refs;
        self.remote_accesses += other.remote_accesses;
        for i in 0..NUM_CLASSES {
            self.class_issued[i] += other.class_issued[i];
        }
        for i in 0..self.port_issued.len() {
            self.port_issued[i] += other.port_issued[i];
        }
    }

    /// Record one issued instruction.
    #[inline]
    pub fn record_issue(&mut self, class: InstrClass, port: usize, work: u8) {
        self.issued += 1;
        self.work_units += u64::from(work);
        if work == 0 {
            self.spin_instrs += 1;
        }
        self.class_issued[class.index()] += 1;
        self.port_issued[port] += 1;
    }
}

/// Event counts attributed to one core (the dispatcher's view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreCounters {
    /// Cycles the core was stepped.
    pub cycles: u64,
    /// Cycles with at least one runnable hardware thread.
    pub active_cycles: u64,
    /// Cycles on which at least one hardware thread was dispatch-held by a
    /// congested queue (see [`ThreadCounters::disp_held_cycles`]); a
    /// core-level diagnostic view of the same event.
    pub disp_held_cycles: u64,
    /// Dispatch slots actually used (for utilization diagnostics).
    pub dispatch_slots_used: u64,
    /// Issue slots (port-cycles) actually used.
    pub issue_slots_used: u64,
    /// Loads whose issue was cancelled because the load-miss queue was full.
    pub lmq_rejections: u64,
}

impl CoreCounters {
    /// Charge `k` cycles in which the core provably did nothing, exactly
    /// as `k` single-cycle accounting passes would: wall cycles always,
    /// active cycles when a runnable thread existed. The event counters
    /// (dispatch, issue, held, rejections) stay put — an idle cycle has
    /// no events by definition. Used by the fast-forward stepper.
    pub fn charge_idle(&mut self, k: u64, any_running: bool) {
        self.cycles += k;
        if any_running {
            self.active_cycles += k;
        }
    }

    /// Elementwise `self - earlier`.
    pub fn delta(&self, earlier: &CoreCounters) -> CoreCounters {
        CoreCounters {
            cycles: self.cycles - earlier.cycles,
            active_cycles: self.active_cycles - earlier.active_cycles,
            disp_held_cycles: self.disp_held_cycles - earlier.disp_held_cycles,
            dispatch_slots_used: self.dispatch_slots_used - earlier.dispatch_slots_used,
            issue_slots_used: self.issue_slots_used - earlier.issue_slots_used,
            lmq_rejections: self.lmq_rejections - earlier.lmq_rejections,
        }
    }

    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: &CoreCounters) {
        self.cycles += other.cycles;
        self.active_cycles += other.active_cycles;
        self.disp_held_cycles += other.disp_held_cycles;
        self.dispatch_slots_used += other.dispatch_slots_used;
        self.issue_slots_used += other.issue_slots_used;
        self.lmq_rejections += other.lmq_rejections;
    }
}

/// A complete counter reading over one sampling window: the input to the
/// SMT-selection metric and to every baseline metric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowMeasurement {
    /// Wall-clock cycles covered by the window (`TotalTime` in Eq. 1).
    pub wall_cycles: u64,
    /// SMT level the machine ran at during the window.
    pub smt: SmtLevel,
    /// Per-software-thread counter deltas.
    pub per_thread: Vec<ThreadCounters>,
    /// Core counter deltas summed over all cores.
    pub cores: CoreCounters,
}

impl WindowMeasurement {
    /// Total issued instructions across threads.
    pub fn total_issued(&self) -> u64 {
        self.per_thread.iter().map(|t| t.issued).sum()
    }

    /// Total useful work units across threads.
    pub fn total_work(&self) -> u64 {
        self.per_thread.iter().map(|t| t.work_units).sum()
    }

    /// Aggregate counters over all threads.
    pub fn aggregate(&self) -> ThreadCounters {
        let nports = self
            .per_thread
            .first()
            .map(|t| t.port_issued.len())
            .unwrap_or(0);
        let mut agg = ThreadCounters::new(nports);
        for t in &self.per_thread {
            agg.merge(t);
        }
        agg
    }

    /// Fraction of issued instructions in each class, aggregated over
    /// threads. All-zero when nothing issued.
    pub fn class_fractions(&self) -> [f64; NUM_CLASSES] {
        let agg = self.aggregate();
        let total = agg.issued as f64;
        let mut f = [0.0; NUM_CLASSES];
        if total > 0.0 {
            for (fi, &issued) in f.iter_mut().zip(&agg.class_issued) {
                *fi = issued as f64 / total;
            }
        }
        f
    }

    /// Fraction of *port events* on each issue port (a store on a paired
    /// architecture counts on both its ports, as on real Nehalem).
    pub fn port_fractions(&self) -> Vec<f64> {
        let agg = self.aggregate();
        let total: u64 = agg.port_issued.iter().sum();
        if total == 0 {
            return vec![0.0; agg.port_issued.len()];
        }
        agg.port_issued
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// The DispHeld factor: the fraction of runnable thread-cycles on which
    /// dispatch was held for lack of saturated execution resources
    /// (aggregated over all hardware threads).
    pub fn disp_held_fraction(&self) -> f64 {
        let cpu: u64 = self.per_thread.iter().map(|t| t.cpu_cycles).sum();
        if cpu == 0 {
            return 0.0;
        }
        let held: u64 = self.per_thread.iter().map(|t| t.disp_held_cycles).sum();
        held as f64 / cpu as f64
    }

    /// The scalability factor: wall-clock time over average per-thread CPU
    /// time (`TotalTime / AvgThrdTime` in Eq. 1). At least 1 by
    /// construction; large values mean threads spent time blocked.
    pub fn scalability_ratio(&self) -> f64 {
        if self.per_thread.is_empty() || self.wall_cycles == 0 {
            return 1.0;
        }
        let total_cpu: u64 = self.per_thread.iter().map(|t| t.cpu_cycles).sum();
        let avg = total_cpu as f64 / self.per_thread.len() as f64;
        if avg <= 0.0 {
            return 1.0;
        }
        (self.wall_cycles as f64 / avg).max(1.0)
    }

    /// Aggregate instructions per cycle over the window (per core-cycle
    /// basis is not meaningful across SMT levels; this is machine IPC).
    pub fn ipc(&self) -> f64 {
        if self.wall_cycles == 0 {
            return 0.0;
        }
        self.total_issued() as f64 / self.wall_cycles as f64
    }

    /// Cycles per instruction as the paper's Fig. 2 uses it: average CPU
    /// cycles consumed per issued instruction.
    pub fn cpi(&self) -> f64 {
        let issued = self.total_issued();
        if issued == 0 {
            return 0.0;
        }
        let cpu: u64 = self.per_thread.iter().map(|t| t.cpu_cycles).sum();
        cpu as f64 / issued as f64
    }

    /// L1D misses per thousand issued instructions (Fig. 2, top-left).
    pub fn l1_mpki(&self) -> f64 {
        let issued = self.total_issued();
        if issued == 0 {
            return 0.0;
        }
        let m: u64 = self.per_thread.iter().map(|t| t.l1d_misses).sum();
        m as f64 * 1000.0 / issued as f64
    }

    /// Branch mispredictions per thousand issued instructions (Fig. 2).
    pub fn branch_mpki(&self) -> f64 {
        let issued = self.total_issued();
        if issued == 0 {
            return 0.0;
        }
        let m: u64 = self.per_thread.iter().map(|t| t.branch_mispredicts).sum();
        m as f64 * 1000.0 / issued as f64
    }

    /// Fraction of issued instructions that are vector-scalar/floating
    /// point ("% of VSU instructions", Fig. 2 bottom-right).
    pub fn vsu_fraction(&self) -> f64 {
        self.class_fractions()[InstrClass::VectorScalar.index()]
    }

    /// Where the machine's dispatch capacity went over the window — a
    /// CPI-stack-style utilization breakdown. Fractions of total dispatch
    /// slots (cycles x width x cores, approximated by slot counters):
    /// `(used, held, other)` where `used` is slots that dispatched an
    /// instruction, `held` is the share of runnable thread-cycles the
    /// dispatcher was resource-held, and `other` is everything else
    /// (fetch-starved, sleeping, dependency stalls).
    pub fn utilization_breakdown(&self, dispatch_width: u64) -> (f64, f64, f64) {
        let capacity = (self.cores.cycles * dispatch_width) as f64;
        if capacity == 0.0 {
            return (0.0, 0.0, 1.0);
        }
        let used = (self.cores.dispatch_slots_used as f64 / capacity).min(1.0);
        // Attribute unused capacity to resource holds first (capped by the
        // held thread-cycle fraction), the rest to idleness/stalls, so the
        // three components always partition 1.0.
        let held_frac = self.disp_held_fraction()
            * (self.cores.active_cycles as f64 / self.cores.cycles.max(1) as f64);
        let held = held_frac.min(1.0 - used);
        let other = (1.0 - used - held).max(0.0);
        (used, held, other)
    }

    /// Useful work per cycle — the performance measure used for speedups.
    pub fn work_per_cycle(&self) -> f64 {
        if self.wall_cycles == 0 {
            return 0.0;
        }
        self.total_work() as f64 / self.wall_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc(nports: usize) -> ThreadCounters {
        ThreadCounters::new(nports)
    }

    #[test]
    fn record_issue_updates_all_views() {
        let mut t = tc(4);
        t.record_issue(InstrClass::Load, 2, 1);
        t.record_issue(InstrClass::Branch, 1, 0);
        assert_eq!(t.issued, 2);
        assert_eq!(t.work_units, 1);
        assert_eq!(t.spin_instrs, 1);
        assert_eq!(t.class_issued[InstrClass::Load.index()], 1);
        assert_eq!(t.port_issued[2], 1);
        assert_eq!(t.port_issued[1], 1);
    }

    #[test]
    fn delta_and_merge_are_inverse() {
        let mut a = tc(2);
        a.record_issue(InstrClass::FixedPoint, 0, 1);
        a.cpu_cycles = 100;
        let mut b = a.clone();
        b.record_issue(InstrClass::Store, 1, 1);
        b.cpu_cycles = 250;
        let d = b.delta(&a);
        assert_eq!(d.issued, 1);
        assert_eq!(d.cpu_cycles, 150);
        let mut back = a.clone();
        back.merge(&d);
        assert_eq!(back, b);
    }

    fn window(threads: Vec<ThreadCounters>, wall: u64, cores: CoreCounters) -> WindowMeasurement {
        WindowMeasurement {
            wall_cycles: wall,
            smt: SmtLevel::Smt4,
            per_thread: threads,
            cores,
        }
    }

    #[test]
    fn class_fractions_sum_to_one() {
        let mut t = tc(8);
        for _ in 0..3 {
            t.record_issue(InstrClass::Load, 0, 1);
        }
        t.record_issue(InstrClass::VectorScalar, 4, 1);
        let w = window(vec![t], 100, CoreCounters::default());
        let f = w.class_fractions();
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((f[InstrClass::Load.index()] - 0.75).abs() < 1e-12);
        assert!((w.vsu_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fractions_empty_window_are_zero() {
        let w = window(vec![tc(4)], 100, CoreCounters::default());
        assert_eq!(w.class_fractions(), [0.0; NUM_CLASSES]);
        assert_eq!(w.port_fractions(), vec![0.0; 4]);
        assert_eq!(w.ipc(), 0.0);
        assert_eq!(w.cpi(), 0.0);
        assert_eq!(w.l1_mpki(), 0.0);
    }

    #[test]
    fn disp_held_fraction_uses_thread_cpu_cycles() {
        let mut a = tc(1);
        a.cpu_cycles = 800;
        a.disp_held_cycles = 200;
        let mut b = tc(1);
        b.cpu_cycles = 200;
        b.disp_held_cycles = 0;
        let w = window(vec![a, b], 1000, CoreCounters::default());
        assert!((w.disp_held_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn scalability_ratio_all_busy_is_one() {
        let mut a = tc(1);
        a.cpu_cycles = 1000;
        let mut b = tc(1);
        b.cpu_cycles = 1000;
        let w = window(vec![a, b], 1000, CoreCounters::default());
        assert!((w.scalability_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scalability_ratio_half_sleeping_is_two() {
        let mut a = tc(1);
        a.cpu_cycles = 1000;
        let mut b = tc(1);
        b.cpu_cycles = 0;
        let w = window(vec![a, b], 1000, CoreCounters::default());
        assert!((w.scalability_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mpki_math() {
        let mut t = tc(1);
        t.issued = 2000;
        t.l1d_misses = 10;
        t.branch_mispredicts = 4;
        let w = window(vec![t], 100, CoreCounters::default());
        assert!((w.l1_mpki() - 5.0).abs() < 1e-12);
        assert!((w.branch_mpki() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_breakdown_sums_to_one_at_most() {
        let mut t = tc(1);
        t.cpu_cycles = 100;
        t.disp_held_cycles = 25;
        let cores = CoreCounters {
            cycles: 100,
            active_cycles: 100,
            dispatch_slots_used: 240, // of 100 cycles x 4-wide = 400
            ..Default::default()
        };
        let w = window(vec![t], 100, cores);
        let (used, held, other) = w.utilization_breakdown(4);
        assert!((used - 0.6).abs() < 1e-12);
        assert!((held - 0.25).abs() < 1e-12);
        assert!((used + held + other - 1.0).abs() < 1e-9);

        // Saturated dispatch leaves no room to attribute holds.
        let mut t2 = tc(1);
        t2.cpu_cycles = 100;
        t2.disp_held_cycles = 50;
        let cores2 = CoreCounters {
            cycles: 100,
            active_cycles: 100,
            dispatch_slots_used: 400,
            ..Default::default()
        };
        let w2 = window(vec![t2], 100, cores2);
        let (u2, h2, o2) = w2.utilization_breakdown(4);
        assert_eq!((u2, h2, o2), (1.0, 0.0, 0.0));
    }

    #[test]
    fn utilization_breakdown_empty_window() {
        let w = window(vec![tc(1)], 0, CoreCounters::default());
        let (u, h, o) = w.utilization_breakdown(6);
        assert_eq!((u, h, o), (0.0, 0.0, 1.0));
    }

    #[test]
    fn core_counters_delta_merge() {
        let a = CoreCounters {
            cycles: 10,
            active_cycles: 8,
            disp_held_cycles: 2,
            dispatch_slots_used: 30,
            issue_slots_used: 25,
            lmq_rejections: 1,
        };
        let b = CoreCounters {
            cycles: 25,
            active_cycles: 20,
            disp_held_cycles: 5,
            dispatch_slots_used: 70,
            issue_slots_used: 60,
            lmq_rejections: 3,
        };
        let d = b.delta(&a);
        assert_eq!(d.cycles, 15);
        let mut back = a;
        back.merge(&d);
        assert_eq!(back, b);
    }
}
