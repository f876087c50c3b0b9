//! Deep-dive tool: run one catalog benchmark at each SMT level and print
//! pipeline utilization details for simulator calibration.

use std::process::ExitCode;

use smt_experiments::cli::{self, positional, Flags};
use smt_sim::{Error, MachineConfig, Simulation, SmtLevel, Workload};
use smt_workloads::{catalog, SyntheticWorkload};
use smtsm::{smtsm_factors, MetricSpec};

const USAGE: &str = "\
usage: inspect [BENCHMARK] [SCALE]
  Run one POWER7-suite benchmark (default EP) at each SMT level with its
  work scaled by SCALE (default 0.3) and print pipeline utilization.
";

fn main() -> ExitCode {
    cli::main("inspect", USAGE, run)
}

fn run(args: Vec<String>) -> Result<(), Error> {
    let args = Flags::new(args).finish()?;
    let name: String = positional(&args, 0, "benchmark", "EP".into())?;
    let scale: f64 = positional(&args, 1, "scale", 0.3)?;
    let spec = catalog::power7_suite()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(&name))
        .ok_or_else(|| Error::InvalidWorkload(format!("unknown benchmark {name:?}")))?
        .scaled(scale);
    let cfg = MachineConfig::power7(1);
    let mspec = MetricSpec::for_arch(&cfg.arch);
    for smt in [SmtLevel::Smt1, SmtLevel::Smt2, SmtLevel::Smt4] {
        let w = SyntheticWorkload::new(spec.clone());
        let mut sim = Simulation::new(cfg.clone(), smt, w);
        let res = sim.run_until_finished(100_000_000);
        let cycles = sim.now().max(1);
        let perf = sim.workload().work_done() as f64 / cycles as f64;

        let w = SyntheticWorkload::new(spec.clone());
        let mut sim = Simulation::new(cfg.clone(), smt, w);
        sim.run_cycles((cycles / 5).clamp(1, 40_000));
        let m = sim.measure_window((cycles / 2).clamp(1, 80_000));
        let f = smtsm_factors(&mspec, &m);
        let cc = &m.cores;
        let ncores = 8.0;
        let agg = m.aggregate();
        println!(
            "{} {}: cycles={} perf={:.2} ipc={:.2} metric={:.4} (mix={:.3} dheld={:.4} scal={:.3})",
            spec.name,
            smt,
            cycles,
            perf,
            m.ipc(),
            f.value(),
            f.mix_deviation,
            f.disp_held,
            f.scalability
        );
        println!(
            "   disp_slots/cyc={:.2} issue_slots/cyc={:.2} lmq_rej/kcyc={:.1} l1mpki={:.1} l3mpki={:.1} spin%={:.1} br_mpki={:.1} done={}",
            cc.dispatch_slots_used as f64 / (cc.cycles as f64 / ncores) / ncores,
            cc.issue_slots_used as f64 / (cc.cycles as f64 / ncores) / ncores,
            cc.lmq_rejections as f64 * 1000.0 / (cc.cycles as f64 / ncores),
            m.l1_mpki(),
            agg.l3_misses as f64 * 1000.0 / agg.issued.max(1) as f64,
            agg.spin_instrs as f64 * 100.0 / agg.issued.max(1) as f64,
            m.branch_mpki(),
            res.completed,
        );
        let cf = m.class_fractions();
        println!(
            "   mix: L={:.2} S={:.2} B={:.2} CR={:.2} FX={:.2} VS={:.2}",
            cf[0], cf[1], cf[2], cf[3], cf[4], cf[5]
        );
    }
    Ok(())
}
