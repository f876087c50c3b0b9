//! Differential proof for the simulator's optimized hot paths: over
//! catalog workloads × SMT levels × machines, every combination of
//! [`Stepping::FastForward`] and the SoA bitset issue engine must produce
//! **bit-identical** per-thread and core counter snapshots, completion
//! cycles, and work totals to the naive, legacy-engine
//! one-cycle-at-a-time reference — the acceptance bar that lets every
//! figure in the repo run on the optimized paths without re-validating
//! the science. The phase profiler (`run_cycles_profiled`) must be just
//! as invisible: a profiled run leaves the same counters as a plain one.

use proptest::prelude::*;
use smt_sim::{
    CoreCounters, IssueEngine, MachineConfig, PhaseProfile, RunResult, Simulation, SmtLevel,
    Stepping, ThreadCounters, Workload as _,
};
use smt_workloads::{catalog, SyntheticWorkload, WorkloadSpec};

/// Cycle cap: generous enough that every scaled-down case completes.
const MAX_CYCLES: u64 = 4_000_000;

/// One end-state snapshot, containing everything an experiment can
/// observe from a finished simulation.
#[derive(Debug, PartialEq)]
struct Snapshot {
    result: RunResult,
    now: u64,
    per_thread: Vec<ThreadCounters>,
    cores: CoreCounters,
    skipped: u64,
}

fn run_with(
    cfg: &MachineConfig,
    smt: SmtLevel,
    spec: &WorkloadSpec,
    stepping: Stepping,
) -> Snapshot {
    run_engine(cfg, smt, spec, stepping, None)
}

fn run_engine(
    cfg: &MachineConfig,
    smt: SmtLevel,
    spec: &WorkloadSpec,
    stepping: Stepping,
    engine: Option<IssueEngine>,
) -> Snapshot {
    let mut sim = Simulation::new(cfg.clone(), smt, SyntheticWorkload::new(spec.clone()));
    sim.set_stepping(stepping);
    if let Some(engine) = engine {
        sim.set_issue_engine(engine);
    }
    let result = sim.run_until_finished(MAX_CYCLES);
    Snapshot {
        result,
        now: sim.now(),
        per_thread: sim.thread_counters().to_vec(),
        cores: sim.core_counters(),
        skipped: sim.idle_cycles_skipped(),
    }
}

/// A POWER7-style core pair: exercises SMT4, dynamic partitioning, and
/// the multi-queue issue topology without the full 8-core machine cost.
fn small_power7() -> MachineConfig {
    let mut cfg = MachineConfig::power7(1);
    cfg.cores_per_chip = 2;
    cfg
}

/// [`small_power7`] with a two-entry load-miss queue: every workload
/// runs under constant LMQ pressure, so the per-core stall windows open
/// on compute-bound mixes too, not only on memory-bound ones.
fn small_lmq_power7() -> MachineConfig {
    let mut cfg = small_power7();
    cfg.arch.lmq_capacity = 2;
    cfg
}

/// The differential case matrix: machines spanning every descriptor
/// family (generic single-queue, POWER7 multi-queue/dynamic-partitioned,
/// Nehalem store-pair ports, a starved LMQ) × workloads spanning every
/// synchronization and memory regime in the catalog.
fn machines() -> Vec<(MachineConfig, SmtLevel)> {
    vec![
        (MachineConfig::generic(1), SmtLevel::Smt1),
        (MachineConfig::generic(2), SmtLevel::Smt2),
        (small_power7(), SmtLevel::Smt4),
        (small_power7(), SmtLevel::Smt2),
        (MachineConfig::nehalem(), SmtLevel::Smt2),
        (small_lmq_power7(), SmtLevel::Smt4),
    ]
}

fn specs() -> Vec<WorkloadSpec> {
    vec![
        catalog::ep().scaled(0.004),               // compute-bound
        catalog::stream().scaled(0.004),           // memory-bound (long stalls)
        catalog::specjbb_contention().scaled(0.2), // lock contention (sleeps)
        catalog::mg().scaled(0.004),               // barriers + memory
        catalog::blackscholes().scaled(0.004),     // mixed parallel
        catalog::specjbb().scaled(0.1),            // rate-limited (idle gaps)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]
    #[test]
    fn fast_forward_matches_naive_bit_for_bit(
        machine_idx in 0usize..6,
        spec_idx in 0usize..6,
    ) {
        let (cfg, smt) = machines().swap_remove(machine_idx);
        let spec = specs().swap_remove(spec_idx);
        let naive = run_with(&cfg, smt, &spec, Stepping::Naive);
        let fast = run_with(&cfg, smt, &spec, Stepping::FastForward);
        prop_assert!(naive.result.completed, "naive run hit the cycle cap");
        prop_assert_eq!(naive.skipped, 0);
        prop_assert_eq!(&naive.result, &fast.result);
        prop_assert_eq!(naive.now, fast.now);
        prop_assert_eq!(&naive.cores, &fast.cores);
        prop_assert_eq!(&naive.per_thread, &fast.per_thread);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]
    /// The tentpole differential: SoA bitset engine × stepping × machine
    /// × workload, all judged against the legacy-engine naive-stepper
    /// reference.
    #[test]
    fn soa_engine_matches_legacy_reference_bit_for_bit(
        machine_idx in 0usize..6,
        spec_idx in 0usize..6,
        fast_forward in any::<bool>(),
    ) {
        let (cfg, smt) = machines().swap_remove(machine_idx);
        let spec = specs().swap_remove(spec_idx);
        let stepping = if fast_forward { Stepping::FastForward } else { Stepping::Naive };
        let reference = run_engine(&cfg, smt, &spec, Stepping::Naive, Some(IssueEngine::Legacy));
        let soa = run_engine(&cfg, smt, &spec, stepping, Some(IssueEngine::Soa));
        prop_assert!(reference.result.completed, "reference run hit the cycle cap");
        prop_assert_eq!(&reference.result, &soa.result);
        prop_assert_eq!(reference.now, soa.now);
        prop_assert_eq!(&reference.cores, &soa.cores);
        prop_assert_eq!(&reference.per_thread, &soa.per_thread);
    }
}

/// The phase profiler only reads the clock around each pipeline phase:
/// a run sliced through `run_cycles_profiled` must leave the same cycle,
/// counters and fast-forward jumps as `run_cycles` in the same slices,
/// and so must `run_until_finished`, which shares the same run driver.
/// The profile itself must be charged through the whole stepping path:
/// every phase that does work gets ticks, the cache walks in `try_issue`
/// included.
#[test]
fn profiled_run_matches_plain_run() {
    const SLICE: u64 = 10_000;
    for spec in [
        catalog::stream().scaled(0.004),
        catalog::specjbb_contention().scaled(0.2),
    ] {
        for (cfg, smt) in machines() {
            let mk = || Simulation::new(cfg.clone(), smt, SyntheticWorkload::new(spec.clone()));
            let mut plain = mk();
            let mut profiled = mk();
            let mut until = mk();
            let mut prof = PhaseProfile::default();
            while !plain.finished() && plain.now() < MAX_CYCLES {
                let a = plain.run_cycles(SLICE);
                let b = profiled.run_cycles_profiled(SLICE, &mut prof);
                let r = until.run_until_finished(SLICE);
                assert_eq!(a, b, "{} at {smt}", spec.name);
                assert_eq!(a, r.cycles, "{} at {smt}", spec.name);
                assert_eq!(r.completed, plain.finished());
                assert_eq!(r.work_done, plain.workload().work_done());
                for sim in [&profiled, &until] {
                    assert_eq!(plain.now(), sim.now());
                    assert_eq!(plain.thread_counters(), sim.thread_counters());
                    assert_eq!(plain.core_counters(), sim.core_counters());
                    assert_eq!(plain.idle_cycles_skipped(), sim.idle_cycles_skipped());
                    assert_eq!(plain.stall_cycles_elided(), sim.stall_cycles_elided());
                }
            }
            assert!(plain.finished(), "{} at {smt} hit the cycle cap", spec.name);
            assert!(profiled.finished());
            assert!(prof.steps > 0, "the profiler timed no core-steps");
            assert_eq!(prof.cycles, profiled.now());
            for (phase, ticks) in [
                ("issue", prof.issue),
                ("mem", prof.mem),
                ("dispatch", prof.dispatch),
                ("fetch", prof.fetch),
            ] {
                assert!(ticks > 0, "{} at {smt}: no {phase} ticks", spec.name);
            }
        }
    }
}

/// The equivalence must also hold mid-run, where experiments read
/// counters through sampling windows rather than at completion.
#[test]
fn windowed_counters_match_naive() {
    let cfg = small_power7();
    let spec = catalog::stream().scaled(0.01);
    let mut naive = Simulation::new(
        cfg.clone(),
        SmtLevel::Smt4,
        SyntheticWorkload::new(spec.clone()),
    );
    naive.set_stepping(Stepping::Naive);
    let mut fast = Simulation::new(cfg, SmtLevel::Smt4, SyntheticWorkload::new(spec));
    for _ in 0..4 {
        let a = naive.measure_window(5_000);
        let b = fast.measure_window(5_000);
        assert_eq!(a.wall_cycles, b.wall_cycles);
        assert_eq!(a.per_thread, b.per_thread);
        assert_eq!(a.cores, b.cores);
    }
    assert_eq!(naive.now(), fast.now());
}

/// Stall windows replay LMQ rejections and dispatch-held cycles in
/// batches; every sampling window must still see exactly the naive
/// per-cycle counts.
#[test]
fn windowed_stall_counters_match_naive() {
    let cfg = small_lmq_power7();
    let spec = catalog::blackscholes().scaled(0.01);
    let mut naive = Simulation::new(
        cfg.clone(),
        SmtLevel::Smt4,
        SyntheticWorkload::new(spec.clone()),
    );
    naive.set_stepping(Stepping::Naive);
    let mut fast = Simulation::new(cfg, SmtLevel::Smt4, SyntheticWorkload::new(spec));
    let mut rejections = 0;
    for _ in 0..6 {
        let a = naive.measure_window(3_000);
        let b = fast.measure_window(3_000);
        assert_eq!(a.wall_cycles, b.wall_cycles);
        assert_eq!(a.cores.lmq_rejections, b.cores.lmq_rejections);
        assert_eq!(a.cores.disp_held_cycles, b.cores.disp_held_cycles);
        // Per-thread equality covers each thread's dispatch-held cycles.
        assert_eq!(a.per_thread, b.per_thread);
        assert_eq!(a.cores, b.cores);
        rejections += a.cores.lmq_rejections;
    }
    assert_eq!(naive.now(), fast.now());
    assert!(rejections > 0, "the small LMQ never filled");
    assert!(
        fast.stall_cycles_elided() > 0,
        "no stall window opened under LMQ pressure"
    );
}

/// Engine equivalence must also hold through sampling windows: the SoA
/// engine's wakeup/parking bookkeeping may not shift counters even at
/// arbitrary mid-run observation points.
#[test]
fn windowed_counters_match_across_engines() {
    let cfg = small_power7();
    let spec = catalog::specjbb_contention().scaled(0.2);
    let mk = |engine: IssueEngine| {
        let mut sim = Simulation::new(
            cfg.clone(),
            SmtLevel::Smt4,
            SyntheticWorkload::new(spec.clone()),
        );
        sim.set_issue_engine(engine);
        sim
    };
    let mut legacy = mk(IssueEngine::Legacy);
    let mut soa = mk(IssueEngine::Soa);
    for _ in 0..4 {
        let a = legacy.measure_window(5_000);
        let b = soa.measure_window(5_000);
        assert_eq!(a.wall_cycles, b.wall_cycles);
        assert_eq!(a.per_thread, b.per_thread);
        assert_eq!(a.cores, b.cores);
    }
    assert_eq!(legacy.now(), soa.now());
}

/// Stall windows must actually open on memory-bound work at SMT4 —
/// otherwise the differential cases above could pass without ever
/// replaying a rejection.
#[test]
fn stall_windows_engage_on_memory_bound_work() {
    let spec = catalog::stream().scaled(0.004);
    let mut sim = Simulation::new(small_power7(), SmtLevel::Smt4, SyntheticWorkload::new(spec));
    let res = sim.run_until_finished(MAX_CYCLES);
    assert!(res.completed);
    assert!(sim.core_counters().lmq_rejections > 0);
    assert!(
        sim.stall_cycles_elided() > 0,
        "expected stall windows on Stream at SMT4"
    );
}

/// The fast path must actually engage on stall-heavy work — otherwise
/// the differential proof is vacuous.
#[test]
fn fast_forward_skips_cycles_on_stalled_work() {
    let spec = catalog::specjbb_contention().scaled(0.3);
    let mut sim = Simulation::new(
        MachineConfig::generic(1),
        SmtLevel::Smt1,
        SyntheticWorkload::new(spec),
    );
    let res = sim.run_until_finished(MAX_CYCLES);
    assert!(res.completed);
    assert!(
        sim.idle_cycles_skipped() > 0,
        "expected fast-forward jumps on a contended workload"
    );
}
