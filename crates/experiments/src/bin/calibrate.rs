//! Calibration scratch tool: run a machine's suite and dump speedups vs
//! metric values so simulator/catalog parameters can be tuned.

use std::process::ExitCode;

use smt_experiments::cli::{self, positional, Flags};
use smt_experiments::{Engine, RunRequest};
use smt_sim::{Error, MachineConfig, SmtLevel};
use smt_workloads::catalog;

const USAGE: &str = "\
usage: calibrate [SCALE] [p7|p7x2|nhm]
  Run the machine's whole suite (default p7) at every SMT level with
  catalog sizes scaled by SCALE (default 0.25) and print speedups vs
  metric values.
";

fn main() -> ExitCode {
    cli::main("calibrate", USAGE, run)
}

fn run(args: Vec<String>) -> Result<(), Error> {
    let args = Flags::new(args).finish()?;
    let scale: f64 = positional(&args, 0, "scale", 0.25)?;
    let machine: String = positional(&args, 1, "machine", "p7".into())?;
    let cfg = MachineConfig::by_name(&machine)?;
    let suite = if machine == "nhm" {
        catalog::nehalem_suite()
    } else {
        catalog::power7_suite()
    };
    let levels = cfg.smt_levels();
    let top = cfg.arch.max_smt;
    let plan = RunRequest::on(cfg)
        .workloads(suite.into_iter().map(|s| s.scaled(scale)))
        .levels(levels)
        .plan()?;
    let t0 = std::time::Instant::now();
    let sweep = Engine::new().run(&plan);
    eprintln!(
        "suite ran in {:?} ({})",
        t0.elapsed(),
        sweep.metrics.summary()
    );
    for err in &sweep.errors {
        eprintln!("job failed: {err}");
    }
    println!(
        "{:<22} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7} {:>6}",
        "name", "s41", "s21", "metric4", "mixdev", "dheld", "scal", "l1mpki", "done"
    );
    for r in &sweep.results {
        let m4 = r.level(top)?;
        println!(
            "{:<22} {:>7.3} {:>7.3} {:>8.4} {:>8.4} {:>8.4} {:>8.3} {:>7.1} {:>6}",
            r.name,
            r.speedup(top, SmtLevel::Smt1)?,
            r.speedup(SmtLevel::Smt2, SmtLevel::Smt1)?,
            m4.factors.value(),
            m4.factors.mix_deviation,
            m4.factors.disp_held,
            m4.factors.scalability,
            m4.naive[0],
            r.levels.values().all(|l| l.completed),
        );
    }
    Ok(())
}
