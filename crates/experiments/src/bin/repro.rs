//! `repro` — regenerate the paper's tables and figures.
//!
//! [`USAGE`] (printed by `--help`) lists the artifacts and flags.
//!
//! The artifact, when given, is the first argument, and each artifact
//! reads only its own flags: `score` takes the scorer's, every other
//! artifact the suite and engine flags below, so a flag meant for another
//! artifact is a usage error rather than silently ignored.
//!
//! `repro score` replays the committed benchmark corpus
//! (`results/corpus/manifest.json`) through the decision core and scores
//! the predictions against the manifest's simulate-every-level oracle
//! labels — the paper's 93%/86%/~90% headline as a regression-gated
//! number. `--resume` picks up an interrupted run from the journal,
//! `--limit N` stops after N new entries, `--label` records the run in
//! the committed trajectory, `--out DIR` (default `results/score`) takes
//! `score.json` / `REPORT.md` / `trajectory.json` and `--no-out` skips
//! writing; `--check FILE` fails if accuracy fell more than `--tolerance`
//! points (default 2.0) below the baseline, or below the 85% floor.
//!
//! `--scale` scales every workload's total work (default 0.3; 1.0 matches
//! the catalog's full sizes and takes several minutes per machine on one
//! host core). `--json DIR` additionally dumps each artifact as JSON.
//!
//! Measurements go through the batch engine with a result cache under
//! `results/cache/` (override with `--cache-dir`, disable with
//! `--no-cache`): the second run of the same artifact set reloads every
//! unchanged job from disk instead of re-simulating it.

use smt_experiments::cli::{self, Flags};
use smt_experiments::figures;
use smt_experiments::sched_demo;
use smt_experiments::score::{self, ScoreCmd, ScoreOutcome};
use smt_experiments::suite::{Machine, SuiteData};
use smt_experiments::{Engine, ProgressSink, ResultCache, StderrSink};
use smt_sim::Error;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: repro [<artifact>] [--scale S] [--json DIR] [--csv DIR]
             [--no-cache] [--cache-dir DIR] [--serial] [--verbose]
       repro score [--manifest FILE] [--tier s|m|l] [--resume] [--limit N]
                   [--label NAME] [--out DIR | --no-out]
                   [--check FILE] [--tolerance POINTS]

artifacts:
  table1                      Table I (benchmark inventory)
  fig1 fig2 fig6 fig7 fig8 fig9 fig16 fig17   single-chip POWER7-like
  fig10 fig12                 Nehalem-like
  fig11                       single-chip, metric measured at SMT1
  fig13 fig14 fig15           two-chip POWER7-like (NUMA)
  success                     93%/86%/90% success-rate summary
  ablation                    Eq.-1 factor study (single-chip data)
  placement                   placement-allocator regret study
  validate                    seed-robustness replicas (not in `all`)
  sched                       Section-V dynamic-selection demo
  autotune                    closed-loop stability-vs-regret study (not in `all`)
  score                       corpus accuracy scorer (not in `all`)
  all                         everything not marked otherwise (the default)
";

/// Every artifact name `repro` accepts.
const ARTIFACTS: &[&str] = &[
    "all",
    "table1",
    "fig1",
    "fig2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "success",
    "ablation",
    "placement",
    "validate",
    "sched",
    "autotune",
    "score",
];

fn main() -> ExitCode {
    cli::main("repro", USAGE, run)
}

/// Progress sink printing only per-sweep summaries (the default; pass
/// `--verbose` for per-job lines via [`StderrSink`]).
struct SummarySink;

impl ProgressSink for SummarySink {
    fn on_event(&self, event: &smt_experiments::ProgressEvent<'_>) {
        if let smt_experiments::ProgressEvent::SweepFinished { metrics } = event {
            eprintln!("[engine] {}", metrics.summary());
        }
    }
}

/// Lazily collected per-machine datasets, all sharing one engine.
struct Data {
    scale: f64,
    engine: Engine,
    cache: HashMap<&'static str, SuiteData>,
}

impl Data {
    fn get(&mut self, machine: Machine) -> Result<&SuiteData, Error> {
        let key = match machine {
            Machine::Power7OneChip => "p7",
            Machine::Power7TwoChip => "p7x2",
            Machine::Nehalem => "nhm",
        };
        if !self.cache.contains_key(key) {
            eprintln!("[repro] collecting {} suite (scale {})...", key, self.scale);
            let t0 = std::time::Instant::now();
            let data = SuiteData::collect_with(machine, self.scale, &self.engine)?;
            eprintln!("[repro] ...done in {:?}", t0.elapsed());
            self.cache.insert(key, data);
        }
        Ok(&self.cache[key])
    }
}

fn dump_csv(dir: &Option<String>, name: &str, csv: &str) -> Result<(), Error> {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{name}.csv");
        std::fs::write(&path, csv)?;
        eprintln!("[repro] wrote {path}");
    }
    Ok(())
}

fn dump_json<T: serde::Serialize>(
    dir: &Option<String>,
    name: &str,
    value: &T,
) -> Result<(), Error> {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{name}.json");
        let body = serde_json::to_string_pretty(value).map_err(|e| Error::Serde(e.to_string()))?;
        std::fs::write(&path, body)?;
        eprintln!("[repro] wrote {path}");
    }
    Ok(())
}

/// The `repro score` flags, read into a [`ScoreCmd`].
fn score_cmd(f: &mut Flags) -> Result<ScoreCmd, Error> {
    let mut cmd = ScoreCmd {
        resume: f.switch("--resume"),
        limit: f.value("--limit")?,
        label: f.value("--label")?,
        check: f.value("--check")?,
        ..ScoreCmd::default()
    };
    cmd.manifest = f.get("--manifest", cmd.manifest)?;
    if let Some(t) = f.value::<String>("--tier")? {
        cmd.tier = Some(smt_corpus::SizeTier::from_name(&t)?);
    }
    let out = f.get("--out", PathBuf::from("results/score"))?;
    if !f.switch("--no-out") {
        cmd.out_dir = Some(out);
    }
    cmd.tolerance_points = f.get("--tolerance", cmd.tolerance_points)?;
    Ok(cmd)
}

/// `repro score`: replay the committed corpus through the decision core,
/// publish the `results/score/` artifacts, gate against the baseline.
fn run_score_cmd(cmd: &ScoreCmd) -> Result<(), Error> {
    eprintln!(
        "[repro] scoring corpus {} (journal {}{})...",
        cmd.manifest.display(),
        cmd.journal.display(),
        if cmd.resume { ", resuming" } else { "" }
    );
    match score::run_score(cmd)? {
        ScoreOutcome::Partial { done, remaining } => {
            eprintln!(
                "[repro] partial run: {done} entr{} journaled, {remaining} remaining — \
                 rerun with --resume to finish",
                if done == 1 { "y" } else { "ies" }
            );
        }
        ScoreOutcome::Complete(report) => {
            let traj_path = cmd
                .out_dir
                .as_deref()
                .unwrap_or_else(|| std::path::Path::new("results/score"))
                .join("trajectory.json");
            let trajectory = smt_corpus::ScoreTrajectory::load(&traj_path).unwrap_or_default();
            print!("{}", smt_corpus::render_markdown(&report, &trajectory));
            if let Some(dir) = &cmd.out_dir {
                eprintln!(
                    "[repro] wrote {}/score.json and {}/REPORT.md",
                    dir.display(),
                    dir.display()
                );
            }
            if cmd.check.is_some() {
                eprintln!(
                    "[repro] score check OK: overall {:.1}% (floor {:.0}%, tolerance {} points)",
                    report.summary.accuracy * 100.0,
                    score::MIN_OVERALL_ACCURACY * 100.0,
                    cmd.tolerance_points
                );
            }
        }
    }
    Ok(())
}

/// Finish reading `f`: a positional left over is a second artifact, or
/// one that did not come first.
fn finish(f: Flags) -> Result<(), Error> {
    match f.finish()?.first() {
        None => Ok(()),
        Some(extra) => Err(Error::Config(format!(
            "unexpected argument {extra:?}: one artifact at a time, given first"
        ))),
    }
}

fn run(args: Vec<String>) -> Result<(), Error> {
    let mut args = args.into_iter().peekable();
    let artifact = match args.next_if(|a| !a.starts_with('-')) {
        None => "all".to_string(),
        Some(a) if ARTIFACTS.contains(&a.as_str()) => a,
        Some(other) => {
            return Err(Error::Config(format!(
                "unknown artifact {other:?}; try --help"
            )))
        }
    };
    let mut f = Flags::new(args);
    if artifact == "score" {
        let cmd = score_cmd(&mut f)?;
        finish(f)?;
        return run_score_cmd(&cmd);
    }
    let scale = f.get("--scale", 0.3)?;
    let json_dir = f.value::<String>("--json")?;
    let csv_dir = f.value::<String>("--csv")?;
    let no_cache = f.switch("--no-cache");
    let cache_dir = f.value::<PathBuf>("--cache-dir")?;
    let serial = f.switch("--serial");
    let verbose = f.switch("--verbose");
    finish(f)?;
    let sink: Arc<dyn ProgressSink> = if verbose {
        Arc::new(StderrSink)
    } else {
        Arc::new(SummarySink)
    };
    let mut engine = Engine::new().progress(sink).serial(serial);
    if !no_cache {
        let dir = cache_dir.unwrap_or_else(ResultCache::default_dir);
        eprintln!("[repro] result cache at {}", dir.display());
        engine = engine.with_cache(ResultCache::new(dir));
    }
    let mut data = Data {
        scale,
        engine,
        cache: HashMap::new(),
    };
    let wanted = |name: &str| artifact == "all" || artifact == name;
    let t_run = std::time::Instant::now();

    if wanted("table1") {
        let t = figures::table1();
        println!("Table I: Benchmarks Evaluated\n\n{}", t.render());
        dump_csv(&csv_dir, "table1", &t.to_csv())?;
    }
    if wanted("fig1") {
        let f = figures::fig1(data.get(Machine::Power7OneChip)?)?;
        println!("{}", f.render());
        dump_json(&json_dir, "fig1", &f)?;
    }
    if wanted("fig2") {
        let f = figures::fig2(data.get(Machine::Power7OneChip)?)?;
        println!("{}", f.render());
        println!(
            "max |pearson r| across panels = {:.3} (paper: no usable correlation)\n",
            f.max_abs_correlation()
        );
        dump_json(&json_dir, "fig2", &f)?;
    }
    if wanted("fig7") {
        let f = figures::fig7(data.get(Machine::Power7OneChip)?)?;
        println!("{}", f.render());
        dump_json(&json_dir, "fig7", &f)?;
    }
    type ScatterGen = fn(&SuiteData) -> Result<smt_experiments::ScatterFigure, Error>;
    for (name, gen, machine) in [
        ("fig6", figures::fig6 as ScatterGen, Machine::Power7OneChip),
        ("fig8", figures::fig8 as ScatterGen, Machine::Power7OneChip),
        ("fig9", figures::fig9 as ScatterGen, Machine::Power7OneChip),
        (
            "fig11",
            figures::fig11 as ScatterGen,
            Machine::Power7OneChip,
        ),
        ("fig10", figures::fig10 as ScatterGen, Machine::Nehalem),
        ("fig12", figures::fig12 as ScatterGen, Machine::Nehalem),
        (
            "fig13",
            figures::fig13 as ScatterGen,
            Machine::Power7TwoChip,
        ),
        (
            "fig14",
            figures::fig14 as ScatterGen,
            Machine::Power7TwoChip,
        ),
        (
            "fig15",
            figures::fig15 as ScatterGen,
            Machine::Power7TwoChip,
        ),
    ] {
        if wanted(name) {
            let f = gen(data.get(machine)?)?;
            println!("{}", f.render());
            dump_json(&json_dir, name, &f)?;
            dump_csv(&csv_dir, name, &f.to_csv())?;
        }
    }
    if wanted("fig16") {
        let f6 = figures::fig6(data.get(Machine::Power7OneChip)?)?;
        let f = figures::fig16(&f6);
        println!("{}", f.render());
        dump_json(&json_dir, "fig16", &f)?;
    }
    if wanted("fig17") {
        let f6 = figures::fig6(data.get(Machine::Power7OneChip)?)?;
        let f = figures::fig17(&f6);
        println!("{}", f.render());
        dump_json(&json_dir, "fig17", &f)?;
    }
    if wanted("success") {
        let f6 = figures::fig6(data.get(Machine::Power7OneChip)?)?;
        let f10 = figures::fig10(data.get(Machine::Nehalem)?)?;
        let s = figures::success_rates(&f6, &f10);
        println!("{}", s.render());
        dump_json(&json_dir, "success", &s)?;
    }
    if wanted("ablation") {
        let p7 = data.get(Machine::Power7OneChip)?;
        let a = smt_experiments::ablation::run(
            p7,
            smt_sim::SmtLevel::Smt4,
            smt_sim::SmtLevel::Smt4,
            smt_sim::SmtLevel::Smt1,
        )?;
        println!("{}", a.render());
        dump_json(&json_dir, "ablation", &a)?;
    }
    if wanted("placement") {
        let p = smt_experiments::placement::run()?;
        println!("{}", p.render());
        dump_json(&json_dir, "placement", &p)?;
    }
    if artifact == "validate" {
        // Not part of "all" (it re-collects the suite several times).
        let v = smt_experiments::validation::run_with(3, data.scale, &data.engine)?;
        println!("{}", v.render());
        dump_json(&json_dir, "validate", &v)?;
    }
    if wanted("sched") {
        // Train the selector thresholds from the single-chip data.
        let (t_top, t_mid) = {
            let p7 = data.get(Machine::Power7OneChip)?;
            let f6 = figures::fig6(p7)?;
            let f8 = figures::fig8(p7)?;
            (f6.threshold, f8.threshold)
        };
        eprintln!("[repro] sched: trained thresholds top={t_top:.4} mid={t_mid:.4}");
        let demo = sched_demo::run(data.scale.min(0.2), t_top, t_mid, 2_000_000_000)?;
        println!("{}", demo.render());
        dump_json(&json_dir, "sched", &demo)?;
    }
    if artifact == "autotune" {
        // Not part of "all" (runs every scenario at every static level
        // plus the per-phase oracle sweep on top of the closed loop).
        let (t_top, t_mid) = {
            let p7 = data.get(Machine::Power7OneChip)?;
            let f6 = figures::fig6(p7)?;
            let f8 = figures::fig8(p7)?;
            (f6.threshold, f8.threshold)
        };
        eprintln!("[repro] autotune: trained thresholds top={t_top:.4} mid={t_mid:.4}");
        // The study needs phases spanning ~100 sampling windows each;
        // below scale 0.5 they get too short to re-detect and recall.
        let study =
            smt_experiments::autotune::run(data.scale.max(0.5), t_top, t_mid, 4_000_000_000)?;
        println!("{}", study.render());
        dump_json(&json_dir, "autotune", &study)?;
        let dir = std::path::Path::new("results/autotune");
        std::fs::create_dir_all(dir)?;
        let body = serde_json::to_string_pretty(&study).map_err(|e| Error::Serde(e.to_string()))?;
        std::fs::write(dir.join("study.json"), body)?;
        eprintln!("[repro] wrote results/autotune/study.json");
    }

    eprintln!("[repro] total wall time {:?}", t_run.elapsed());
    Ok(())
}
