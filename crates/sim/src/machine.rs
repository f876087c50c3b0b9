//! Whole-machine configuration and the simulation driver.
//!
//! A [`MachineConfig`] describes chips x cores x caches; a [`Simulation`]
//! binds a machine at a given SMT level to a [`Workload`] and advances them
//! cycle by cycle. Following the paper's evaluation protocol (Section IV),
//! the number of software threads always equals the number of hardware
//! contexts: `chips * cores_per_chip * smt.ways()`. Changing the SMT level
//! — the simulated `smtctl` — drains the pipelines, rebuilds the hardware
//! contexts, and re-shards the workload across the new thread count while
//! keeping caches warm.

use crate::arch::{ArchDescriptor, SmtLevel};
use crate::cache::{CacheConfig, MemConfig, MemorySystem};
use crate::core::{Core, StepMode};
use crate::counters::{CoreCounters, ThreadCounters, WindowMeasurement};
use crate::error::Error;
use crate::profile::{PhaseProfile, Phases};
use crate::soa::IssueEngine;
use crate::workload::Workload;
use serde::{Deserialize, Serialize};

/// Configuration of a complete machine.
#[derive(Debug, Clone, Serialize)]
pub struct MachineConfig {
    /// Core microarchitecture.
    pub arch: ArchDescriptor,
    /// Number of chips (sockets).
    pub chips: usize,
    /// Cores per chip.
    pub cores_per_chip: usize,
    /// Private L1D per core.
    pub l1: CacheConfig,
    /// Private L1 instruction cache per core.
    pub l1i: CacheConfig,
    /// Private L2 per core.
    pub l2: CacheConfig,
    /// Shared L3 per chip.
    pub l3: CacheConfig,
    /// Memory channel per chip.
    pub mem: MemConfig,
}

impl MachineConfig {
    /// The paper's AIX/POWER7 machine: `chips` sockets of 8 cores, SMT4.
    /// One chip reproduces the single-chip experiments (Figs. 6-9); two
    /// chips the 16-core experiments (Figs. 13-15).
    pub fn power7(chips: usize) -> MachineConfig {
        MachineConfig {
            arch: ArchDescriptor::power7(),
            chips,
            cores_per_chip: 8,
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 8,
                line_bytes: 64,
                latency: 2,
            },
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 4,
                line_bytes: 128,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                assoc: 8,
                line_bytes: 64,
                latency: 12,
            },
            l3: CacheConfig {
                size_bytes: 16 * 1024 * 1024,
                assoc: 16,
                line_bytes: 64,
                latency: 30,
            },
            mem: MemConfig {
                latency: 180,
                bytes_per_cycle: 16.0,
                remote_extra_latency: 120,
            },
        }
    }

    /// The paper's Linux/Core i7 machine: one quad-core Nehalem-like chip,
    /// SMT2 (Fig. 10, Fig. 12).
    pub fn nehalem() -> MachineConfig {
        MachineConfig {
            arch: ArchDescriptor::nehalem(),
            chips: 1,
            cores_per_chip: 4,
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 8,
                line_bytes: 64,
                latency: 2,
            },
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 4,
                line_bytes: 64,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                assoc: 8,
                line_bytes: 64,
                latency: 10,
            },
            l3: CacheConfig {
                size_bytes: 8 * 1024 * 1024,
                assoc: 16,
                line_bytes: 64,
                latency: 35,
            },
            mem: MemConfig {
                latency: 150,
                bytes_per_cycle: 12.0,
                remote_extra_latency: 0,
            },
        }
    }

    /// A small generic machine for tests and the quickstart example.
    pub fn generic(cores: usize) -> MachineConfig {
        MachineConfig {
            arch: ArchDescriptor::generic(),
            chips: 1,
            cores_per_chip: cores,
            l1: CacheConfig {
                size_bytes: 16 * 1024,
                assoc: 4,
                line_bytes: 64,
                latency: 2,
            },
            l1i: CacheConfig {
                size_bytes: 16 * 1024,
                assoc: 4,
                line_bytes: 64,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 128 * 1024,
                assoc: 8,
                line_bytes: 64,
                latency: 10,
            },
            l3: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                assoc: 16,
                line_bytes: 64,
                latency: 25,
            },
            mem: MemConfig {
                latency: 120,
                bytes_per_cycle: 8.0,
                remote_extra_latency: 0,
            },
        }
    }

    /// Resolve a machine name (`p7`, `p7x2`, `nhm`) to its model: the one
    /// table behind the CLI's `--machine`, `smtd` sessions and the machine
    /// tags in recorded traces.
    pub fn by_name(name: &str) -> Result<MachineConfig, Error> {
        match name {
            "p7" => Ok(MachineConfig::power7(1)),
            "p7x2" => Ok(MachineConfig::power7(2)),
            "nhm" => Ok(MachineConfig::nehalem()),
            other => Err(Error::InvalidMachine(format!(
                "unknown machine {other:?} (expected p7, p7x2, or nhm)"
            ))),
        }
    }

    /// Total cores on the machine.
    pub fn total_cores(&self) -> usize {
        self.chips * self.cores_per_chip
    }

    /// Software threads used at an SMT level (threads == hardware contexts).
    pub fn sw_threads_at(&self, smt: SmtLevel) -> usize {
        self.total_cores() * smt.ways()
    }

    /// SMT levels this machine supports, lowest first.
    pub fn smt_levels(&self) -> Vec<SmtLevel> {
        SmtLevel::up_to(self.arch.max_smt)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), Error> {
        self.arch.validate()?;
        if self.chips == 0 || self.cores_per_chip == 0 {
            return Err(Error::InvalidMachine(
                "machine must have at least one core".into(),
            ));
        }
        Ok(())
    }
}

/// Outcome of running a workload (to completion or a cycle budget).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Cycles elapsed during this run call.
    pub cycles: u64,
    /// Workload work units emitted in total (cumulative).
    pub work_done: u64,
    /// The workload finished and pipelines drained.
    pub completed: bool,
}

impl RunResult {
    /// Useful work per cycle over this run.
    pub fn perf(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.work_done as f64 / self.cycles as f64
        }
    }
}

/// How [`Simulation::run_cycles`] and [`Simulation::run_until_finished`]
/// advance time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepping {
    /// Step every cycle individually (the reference semantics).
    Naive,
    /// After a cycle in which no core did any work, ask every core for the
    /// next cycle at which it *could* act ([`Core::quiet_until`]) and jump
    /// there in one step, batch-charging the idle cycles. Cores that are
    /// idle, or only re-rejecting the same loads on a full load-miss
    /// queue, skip their steps even while other cores work. Produces
    /// bit-identical counters and completion cycles to [`Stepping::Naive`]
    /// (proven by the differential test suite) while skipping the long
    /// all-stalled stretches of memory- and synchronization-bound phases.
    FastForward,
}

/// The quiescence window to cache for `core` after it stepped cycle `now`
/// with activity `act`: the end of the window [`Core::quiet_until`] proves
/// from `now + 1`, or 0 (no window). A window is armed only after a
/// pure-idle or stall step whose rejections the analysis predicts for
/// every later cycle, so each elided cycle repeats that step's events.
fn quiet_mark(core: &Core, arch: &ArchDescriptor, mem: &MemorySystem, now: u64, act: u32) -> u64 {
    let rejections = core.step_rejections();
    if act != rejections {
        return 0;
    }
    match core.quiet_until(arch, mem, now + 1) {
        Some((end, r)) if r == rejections => end,
        _ => 0,
    }
}

/// Charge `core` its elided-cycle `debt` in one batch
/// ([`Core::charge_idle`]) and clear it, tallying the cycles into
/// `stall_elided` when they belong to a stall window.
fn settle(core: &mut Core, debt: &mut u64, sw: &mut [ThreadCounters], stall_elided: &mut u64) {
    if *debt > 0 {
        if core.step_rejections() > 0 {
            *stall_elided += *debt;
        }
        core.charge_idle(*debt, sw);
        *debt = 0;
    }
}

/// A machine executing a workload.
pub struct Simulation<W: Workload> {
    cfg: MachineConfig,
    smt: SmtLevel,
    cores: Vec<Core>,
    mem: MemorySystem,
    workload: W,
    now: u64,
    sw: Vec<ThreadCounters>,
    stepping: Stepping,
    /// Issue engine the cores were built with.
    engine: IssueEngine,
    /// Cycles advanced via fast-forward jumps (diagnostics/tests).
    idle_skipped: u64,
    /// Core-cycles charged through stall windows (diagnostics/tests).
    stall_elided: u64,
    /// Elided cycles owed to each core but not yet charged to its
    /// counters. Quiet cores accrue one debt cycle instead of a
    /// `charge_idle` call per cycle; debts are settled in one batched
    /// charge before the core next steps and at every public boundary (so
    /// externally observable counters are always exact).
    idle_debt: Vec<u64>,
    /// Per-core quiescence windows: until cycle `quiet_cache[i]`, every
    /// step of core `i` would provably repeat its last step's events —
    /// none after a pure-idle step, the same LMQ rejections after a stall
    /// step — so it is replaced by one debt cycle. Armed from
    /// [`Core::quiet_until`] (see [`quiet_mark`]); sound because every
    /// cached event is an absolute, core-local time (sleep/park wakes,
    /// producer completions, fetch stalls, LMQ slot frees) and a stall
    /// depends only on the core's own L1 and LMQ, none of which another
    /// core can change — any path that could consult shared state
    /// (workload fetch, a drained retire) makes `quiet_until` return
    /// `None` instead of a mark.
    quiet_cache: Vec<u64>,
}

impl<W: Workload> Simulation<W> {
    /// Build a machine at `smt` and bind `workload` across
    /// `cfg.sw_threads_at(smt)` software threads.
    pub fn new(cfg: MachineConfig, smt: SmtLevel, mut workload: W) -> Simulation<W> {
        cfg.validate().expect("invalid machine config");
        assert!(smt <= cfg.arch.max_smt, "machine does not support {smt}");
        let n = cfg.sw_threads_at(smt);
        workload.set_thread_count(n);
        let mem = MemorySystem::with_icache(
            cfg.chips,
            cfg.cores_per_chip,
            cfg.l1,
            cfg.l1i,
            cfg.l2,
            cfg.l3,
            cfg.mem,
        );
        let engine = IssueEngine::Soa;
        let cores = Self::build_cores(&cfg, smt, engine);
        let ncores = cores.len();
        let sw = vec![ThreadCounters::new(cfg.arch.num_ports()); n];
        Simulation {
            cfg,
            smt,
            cores,
            mem,
            workload,
            now: 0,
            sw,
            stepping: Stepping::FastForward,
            engine,
            idle_skipped: 0,
            stall_elided: 0,
            idle_debt: vec![0; ncores],
            quiet_cache: vec![0; ncores],
        }
    }

    /// Hardware context `k` of core `c` is bound to software thread
    /// `k * ncores + c`, so threads spread across cores first (as an OS
    /// scheduler would place them).
    fn build_cores(cfg: &MachineConfig, smt: SmtLevel, engine: IssueEngine) -> Vec<Core> {
        let ncores = cfg.total_cores();
        (0..ncores)
            .map(|c| {
                let sw_ids: Vec<usize> = (0..smt.ways()).map(|k| k * ncores + c).collect();
                Core::with_engine(&cfg.arch, c, &sw_ids, engine)
            })
            .collect()
    }

    /// Rebuild the cores with a different issue engine. Only legal before
    /// the first cycle (engines are bit-identical, but swapping mid-run
    /// would discard in-flight state).
    pub fn set_issue_engine(&mut self, engine: IssueEngine) {
        assert_eq!(self.now, 0, "engine can only change before cycle 0");
        self.engine = engine;
        self.cores = Self::build_cores(&self.cfg, self.smt, self.engine);
        self.quiet_cache.fill(0);
        self.idle_debt.fill(0);
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Current SMT level.
    pub fn smt(&self) -> SmtLevel {
        self.smt
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The workload (for progress queries).
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// Cumulative per-software-thread counters since the last
    /// (re)configuration.
    pub fn thread_counters(&self) -> &[ThreadCounters] {
        &self.sw
    }

    /// Memory system (for diagnostics).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Workload finished and all pipelines drained.
    pub fn finished(&self) -> bool {
        self.workload.finished() && self.cores.iter().all(Core::drained)
    }

    /// Select how the run loops advance time. The default is
    /// [`Stepping::FastForward`]; [`Stepping::Naive`] exists for the
    /// differential tests that prove the two produce identical results.
    pub fn set_stepping(&mut self, stepping: Stepping) {
        // Marks cached under the previous mode may predate naive-mode
        // steps that changed core state; drop them rather than reason
        // about staleness across mode switches.
        self.quiet_cache.fill(0);
        self.stepping = stepping;
    }

    /// Cycles covered by machine-wide fast-forward jumps so far (zero
    /// under [`Stepping::Naive`]). Diagnostics: how much of the run the
    /// quiescence analysis elided on every core at once. Per-core windows,
    /// idle or stall, are not counted here.
    pub fn idle_cycles_skipped(&self) -> u64 {
        self.idle_skipped
    }

    /// Core-cycles charged through stall windows so far (zero under
    /// [`Stepping::Naive`] and the legacy engine): steps elided because
    /// they would only have re-rejected the same loads and stores on a
    /// full load-miss queue. Counts per core, and includes stall cycles
    /// inside machine-wide jumps.
    pub fn stall_cycles_elided(&self) -> u64 {
        self.stall_elided
    }

    /// Charge every core's outstanding idle debt in one batched call per
    /// core. After this, counters reflect all `self.now` cycles exactly.
    fn settle_idle_debt(&mut self) {
        for (i, core) in self.cores.iter_mut().enumerate() {
            settle(
                core,
                &mut self.idle_debt[i],
                &mut self.sw,
                &mut self.stall_elided,
            );
        }
    }

    /// Advance one cycle, timing core-steps into `phases`, and report the
    /// machine-wide activity count (zero means every core's cycle was
    /// provably a no-op).
    fn step_once<P: Phases>(&mut self, phases: &mut P) -> u32 {
        let fast = self.stepping == Stepping::FastForward;
        let mut activity = 0;
        for (i, core) in self.cores.iter_mut().enumerate() {
            // A core inside its quiescence window accrues one debt cycle
            // (~no work at all) instead of a full pipeline step (~µs) even
            // while other cores stay busy — the per-core analogue of
            // `fast_forward_to`, which needs *every* core quiet. A window
            // cycle's charge only depends on thread states and the arming
            // step's event delta, which provably cannot change inside the
            // window, so the deferred batch charge is identical to
            // per-cycle charges.
            if fast && self.quiet_cache[i] > self.now {
                self.idle_debt[i] += 1;
                continue;
            }
            settle(
                core,
                &mut self.idle_debt[i],
                &mut self.sw,
                &mut self.stall_elided,
            );
            let act = core.step(
                &self.cfg.arch,
                self.now,
                StepMode::Normal,
                &mut self.workload,
                &mut self.mem,
                &mut self.sw,
                phases,
            );
            if fast {
                self.quiet_cache[i] = quiet_mark(core, &self.cfg.arch, &self.mem, self.now, act);
            }
            activity += act;
        }
        self.now += 1;
        activity
    }

    /// After a zero-activity cycle, jump straight to the next cycle at
    /// which any core could act (bounded by `end`), charging the skipped
    /// cycles exactly as naive stepping would. No-op if any core has work
    /// available now or next cycle.
    fn fast_forward_to(&mut self, end: u64) {
        let now = self.now;
        let mut target = end;
        for (i, core) in self.cores.iter().enumerate() {
            if self.quiet_cache[i] > now {
                target = target.min(self.quiet_cache[i]);
                continue;
            }
            // Outside a live window a core joins the jump only while
            // purely idle: an expired stall window is never reused, since
            // only its arming step proved the charged delta.
            match core.quiet_until(&self.cfg.arch, &self.mem, now) {
                Some((event, 0)) => target = target.min(event),
                _ => return,
            }
        }
        if target <= now {
            return;
        }
        let k = target - now;
        for (i, core) in self.cores.iter_mut().enumerate() {
            self.idle_debt[i] += k;
            settle(
                core,
                &mut self.idle_debt[i],
                &mut self.sw,
                &mut self.stall_elided,
            );
        }
        self.idle_skipped += k;
        self.now = target;
    }

    /// Run exactly `n` cycles (or fewer if the workload finishes).
    /// Returns cycles actually run.
    pub fn run_cycles(&mut self, n: u64) -> u64 {
        self.run(n, &mut ())
    }

    /// Like [`run_cycles`](Self::run_cycles), but timestamps every pipeline
    /// phase of every core-step and accumulates the tick deltas into
    /// `prof`. Read by the benchmark's traced run; not meant for
    /// throughput measurement (see the [`crate::profile`] overhead note).
    pub fn run_cycles_profiled(&mut self, n: u64, prof: &mut PhaseProfile) -> u64 {
        let ran = self.run(n, prof);
        prof.cycles += ran;
        ran
    }

    /// Run until the workload completes or `max_cycles` elapse.
    pub fn run_until_finished(&mut self, max_cycles: u64) -> RunResult {
        let cycles = self.run_cycles(max_cycles);
        RunResult {
            cycles,
            work_done: self.workload.work_done(),
            completed: self.finished(),
        }
    }

    /// The one run driver: step up to `n` cycles (stopping early once the
    /// workload finishes), fast-forwarding after zero-activity cycles, then
    /// settle idle debt so counters are exact. Returns cycles run.
    fn run<P: Phases>(&mut self, n: u64, phases: &mut P) -> u64 {
        let start = self.now;
        let end = start.saturating_add(n);
        if self.finished() {
            return 0;
        }
        while self.now < end {
            let activity = self.step_once(phases);
            if activity > 0 {
                // `finished()` can only change on a cycle that did work,
                // so quiet cycles skip the (all-cores) drain scan.
                if self.finished() {
                    break;
                }
            } else if self.stepping == Stepping::FastForward && self.now < end {
                self.fast_forward_to(end);
            }
        }
        self.settle_idle_debt();
        self.now - start
    }

    /// Aggregate core counters over all cores.
    pub fn core_counters(&self) -> CoreCounters {
        let mut agg = CoreCounters::default();
        for c in &self.cores {
            agg.merge(&c.counters);
        }
        agg
    }

    /// Run a sampling window of up to `cycles` cycles and return the
    /// counter deltas — one "performance counter read" as the online
    /// sampler would take it.
    pub fn measure_window(&mut self, cycles: u64) -> WindowMeasurement {
        let sw_before = self.sw.clone();
        let cores_before = self.core_counters();
        let start = self.now;
        self.run_cycles(cycles);
        let wall = self.now - start;
        let per_thread: Vec<ThreadCounters> = self
            .sw
            .iter()
            .zip(&sw_before)
            .map(|(a, b)| a.delta(b))
            .collect();
        WindowMeasurement {
            wall_cycles: wall,
            smt: self.smt,
            per_thread,
            cores: self.core_counters().delta(&cores_before),
        }
    }

    /// Switch the machine to a different SMT level (the simulated
    /// `smtctl`): drain all pipelines, rebuild hardware contexts, and
    /// re-shard the workload across the new thread count. Caches stay warm.
    /// Per-thread counters reset (they describe the new thread set).
    ///
    /// Returns the number of drain cycles spent.
    pub fn reconfigure(&mut self, smt: SmtLevel) -> u64 {
        assert!(
            smt <= self.cfg.arch.max_smt,
            "machine does not support {smt}"
        );
        self.settle_idle_debt();
        let start = self.now;
        // Drain: no fetch, let everything in flight complete.
        let drain_limit = 1_000_000;
        while !self.cores.iter().all(Core::drained) {
            assert!(
                self.now - start < drain_limit,
                "pipeline failed to drain within {drain_limit} cycles"
            );
            for core in &mut self.cores {
                core.step(
                    &self.cfg.arch,
                    self.now,
                    StepMode::Drain,
                    &mut self.workload,
                    &mut self.mem,
                    &mut self.sw,
                    &mut (),
                );
            }
            self.now += 1;
        }
        let drained_in = self.now - start;
        self.smt = smt;
        let n = self.cfg.sw_threads_at(smt);
        self.workload.set_thread_count(n);
        self.cores = Self::build_cores(&self.cfg, smt, self.engine);
        self.quiet_cache = vec![0; self.cores.len()];
        self.idle_debt = vec![0; self.cores.len()];
        self.sw = vec![ThreadCounters::new(self.cfg.arch.num_ports()); n];
        drained_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, InstrClass};
    use crate::workload::ScriptedWorkload;

    fn fx_script(n: usize) -> Vec<Instr> {
        (0..n)
            .map(|_| Instr::simple(InstrClass::FixedPoint))
            .collect()
    }

    #[test]
    fn machine_presets_validate() {
        MachineConfig::power7(1).validate().unwrap();
        MachineConfig::power7(2).validate().unwrap();
        MachineConfig::nehalem().validate().unwrap();
        MachineConfig::generic(2).validate().unwrap();
    }

    #[test]
    fn by_name_resolves_exactly_the_named_machines() -> Result<(), Error> {
        assert_eq!(MachineConfig::by_name("p7")?.total_cores(), 8);
        assert_eq!(MachineConfig::by_name("p7x2")?.total_cores(), 16);
        assert_eq!(MachineConfig::by_name("nhm")?.arch.max_smt, SmtLevel::Smt2);
        assert!(matches!(
            MachineConfig::by_name("vax"),
            Err(Error::InvalidMachine(_))
        ));
        Ok(())
    }

    #[test]
    fn sw_threads_follow_protocol() {
        let p7 = MachineConfig::power7(1);
        assert_eq!(p7.sw_threads_at(SmtLevel::Smt1), 8);
        assert_eq!(p7.sw_threads_at(SmtLevel::Smt2), 16);
        assert_eq!(p7.sw_threads_at(SmtLevel::Smt4), 32);
        let p7x2 = MachineConfig::power7(2);
        assert_eq!(p7x2.sw_threads_at(SmtLevel::Smt4), 64);
        let nhm = MachineConfig::nehalem();
        assert_eq!(nhm.sw_threads_at(SmtLevel::Smt2), 8);
        assert_eq!(nhm.smt_levels(), vec![SmtLevel::Smt1, SmtLevel::Smt2]);
    }

    #[test]
    fn simulation_runs_to_completion() {
        let cfg = MachineConfig::generic(2);
        let w = ScriptedWorkload::new("fx", fx_script(200));
        let mut sim = Simulation::new(cfg, SmtLevel::Smt1, w);
        assert_eq!(sim.workload().thread_count(), 2);
        let res = sim.run_until_finished(100_000);
        assert!(res.completed);
        assert_eq!(res.work_done, 400);
        assert!(res.perf() > 0.0);
    }

    #[test]
    fn measure_window_covers_requested_cycles() {
        let cfg = MachineConfig::generic(1);
        let w = ScriptedWorkload::new("fx", fx_script(100_000));
        let mut sim = Simulation::new(cfg, SmtLevel::Smt1, w);
        let m = sim.measure_window(500);
        assert_eq!(m.wall_cycles, 500);
        assert_eq!(m.per_thread.len(), 1);
        assert!(m.total_issued() > 0);
        assert_eq!(m.smt, SmtLevel::Smt1);
    }

    #[test]
    fn measure_window_is_a_delta() {
        let cfg = MachineConfig::generic(1);
        let w = ScriptedWorkload::new("fx", fx_script(100_000));
        let mut sim = Simulation::new(cfg, SmtLevel::Smt1, w);
        let a = sim.measure_window(300);
        let b = sim.measure_window(300);
        // Steady-state windows should be close in issue count, proving the
        // second is not cumulative.
        let ia = a.total_issued() as f64;
        let ib = b.total_issued() as f64;
        assert!((ia - ib).abs() / ia < 0.5, "ia={ia} ib={ib}");
    }

    #[test]
    fn reconfigure_changes_thread_count_and_drains() {
        let cfg = MachineConfig::generic(2);
        let w = ScriptedWorkload::new("fx", fx_script(50_000));
        let mut sim = Simulation::new(cfg, SmtLevel::Smt1, w);
        sim.run_cycles(100);
        assert_eq!(sim.workload().thread_count(), 2);
        sim.reconfigure(SmtLevel::Smt2);
        assert_eq!(sim.smt(), SmtLevel::Smt2);
        assert_eq!(sim.workload().thread_count(), 4);
        assert_eq!(sim.thread_counters().len(), 4);
        // Still runs after reconfiguration.
        let res = sim.run_until_finished(1_000_000);
        assert!(res.completed);
    }

    #[test]
    fn smt2_beats_smt1_on_dependency_bound_work() {
        // Per-thread dependent chains; more hardware threads means more
        // chains in flight per core.
        let chain: Vec<Instr> = (0..2000)
            .map(|_| Instr::simple(InstrClass::VectorScalar).with_dep(1))
            .collect();
        let cfg = MachineConfig::generic(2);

        let w1 = ScriptedWorkload::new("chain", chain.clone());
        let mut s1 = Simulation::new(cfg.clone(), SmtLevel::Smt1, w1);
        let r1 = s1.run_until_finished(10_000_000);
        assert!(r1.completed);

        let w2 = ScriptedWorkload::new("chain", chain);
        let mut s2 = Simulation::new(cfg, SmtLevel::Smt2, w2);
        let r2 = s2.run_until_finished(10_000_000);
        assert!(r2.completed);

        // SMT2 runs twice the total work (scripted: per-thread) in barely
        // more time, so work/cycle must be clearly higher.
        assert!(
            r2.perf() > r1.perf() * 1.5,
            "SMT2 perf {} vs SMT1 perf {}",
            r2.perf(),
            r1.perf()
        );
    }

    #[test]
    fn stall_windows_replay_rejections_exactly() {
        // Independent loads to distinct lines: every one misses, so the
        // LMQ stays full and queued loads re-reject until a slot frees.
        let script: Vec<Instr> = (0..400u64).map(|k| Instr::load(k * 4096 * 64)).collect();
        let run = |stepping: Stepping| {
            let w = ScriptedWorkload::new("misses", script.clone());
            let mut sim = Simulation::new(MachineConfig::generic(1), SmtLevel::Smt2, w);
            sim.set_stepping(stepping);
            let res = sim.run_until_finished(5_000_000);
            assert!(res.completed);
            (
                sim.core_counters(),
                sim.thread_counters().to_vec(),
                sim.stall_cycles_elided(),
            )
        };
        let (naive_core, naive_threads, naive_elided) = run(Stepping::Naive);
        let (fast_core, fast_threads, fast_elided) = run(Stepping::FastForward);
        assert!(naive_core.lmq_rejections > 0);
        assert_eq!(naive_elided, 0);
        assert!(fast_elided > 0, "no stall window opened");
        assert_eq!(naive_core, fast_core);
        assert_eq!(naive_threads, fast_threads);
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn smt4_rejected_on_smt2_machine() {
        let cfg = MachineConfig::nehalem();
        let w = ScriptedWorkload::new("fx", fx_script(10));
        let _ = Simulation::new(cfg, SmtLevel::Smt4, w);
    }

    #[test]
    fn two_chip_machine_runs_remote_accesses() {
        let cfg = MachineConfig::power7(2);
        let script: Vec<Instr> = (0..200u64)
            .map(|k| {
                let mut i = Instr::load(k * 4096 * 64);
                i.remote = true;
                i
            })
            .collect();
        let w = ScriptedWorkload::new("remote", script);
        let mut sim = Simulation::new(cfg, SmtLevel::Smt1, w);
        let res = sim.run_until_finished(5_000_000);
        assert!(res.completed);
        let remote: u64 = sim
            .thread_counters()
            .iter()
            .map(|t| t.remote_accesses)
            .sum();
        assert!(remote > 0, "expected remote accesses on a two-chip machine");
    }
}
