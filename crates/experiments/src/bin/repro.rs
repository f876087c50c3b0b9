//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <artifact> [--scale S] [--json DIR] [--csv DIR]
//!      [--no-cache] [--cache-dir DIR] [--serial] [--verbose]
//!
//! artifacts:
//!   table1                      Table I (benchmark inventory)
//!   fig1 fig2 fig6 fig7 fig8 fig9 fig16 fig17   single-chip POWER7-like
//!   fig10 fig12                 Nehalem-like
//!   fig11                       single-chip, metric measured at SMT1
//!   fig13 fig14 fig15           two-chip POWER7-like (NUMA)
//!   success                     93%/86%/90% success-rate summary
//!   ablation                    Eq.-1 factor study (single-chip data)
//!   validate                    seed-robustness replicas (not in `all`)
//!   sched                       Section-V dynamic-selection demo
//!   autotune                    closed-loop stability-vs-regret study (not in `all`)
//!   perf                        simulator phase profiler (not in `all`)
//!   score                       corpus accuracy scorer (not in `all`)
//!   all                         everything above
//! ```
//!
//! `repro perf` self-profiles a fixed simulator matrix, prints per-phase
//! shares, and writes `results/perf/profile-<label>.json` plus a
//! flamegraph-ready `flamegraph-<label>.folded`. Extra flags: `--quick`
//! (smaller windows, for CI) and `--label NAME` (run label, default
//! `local`, or `quick` under `--quick`). End-to-end simulator speed is
//! measured by the repository benchmark (`BENCHMARK.json`).
//!
//! `repro score` replays the committed benchmark corpus
//! (`results/corpus/manifest.json`) through the decision core and scores
//! the predictions against the manifest's simulate-every-level oracle
//! labels — the paper's 93%/86%/~90% headline as a regression-gated
//! number. Flags: `--manifest FILE`, `--tier s|m|l`, `--resume` (pick up
//! an interrupted run from the journal), `--limit N` (stop after N new
//! entries), `--label NAME` (record the run in the committed trajectory),
//! `--out DIR` (write `score.json` / `REPORT.md` / `trajectory.json`,
//! default `results/score`), `--no-out` (score without writing),
//! `--check FILE` (exit non-zero if accuracy fell more than `--tolerance`
//! points below the baseline, default 2.0, or below the 85% floor).
//!
//! `--scale` scales every workload's total work (default 0.3; 1.0 matches
//! the catalog's full sizes and takes several minutes per machine on one
//! host core). `--json DIR` additionally dumps each artifact as JSON.
//!
//! Measurements go through the batch engine with a result cache under
//! `results/cache/` (override with `--cache-dir`, disable with
//! `--no-cache`): the second run of the same artifact set reloads every
//! unchanged job from disk instead of re-simulating it.

use smt_experiments::figures;
use smt_experiments::sched_demo;
use smt_experiments::suite::{Machine, SuiteData};
use smt_experiments::{Engine, ProgressSink, ResultCache, StderrSink};
use smt_sim::Error;
use std::collections::HashMap;
use std::sync::Arc;

struct Args {
    artifact: String,
    scale: f64,
    json_dir: Option<String>,
    csv_dir: Option<String>,
    no_cache: bool,
    cache_dir: Option<String>,
    serial: bool,
    verbose: bool,
    quick: bool,
    label: Option<String>,
    out: Option<String>,
    check: Option<String>,
    tolerance: Option<f64>,
    manifest: Option<String>,
    resume: bool,
    tier: Option<String>,
    limit: Option<usize>,
    no_out: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        artifact: String::from("all"),
        scale: 0.3,
        json_dir: None,
        csv_dir: None,
        no_cache: false,
        cache_dir: None,
        serial: false,
        verbose: false,
        quick: false,
        label: None,
        out: None,
        check: None,
        tolerance: None,
        manifest: None,
        resume: false,
        tier: None,
        limit: None,
        no_out: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale takes a number"));
            }
            "--json" => {
                args.json_dir = Some(it.next().unwrap_or_else(|| die("--json takes a directory")));
            }
            "--csv" => {
                args.csv_dir = Some(it.next().unwrap_or_else(|| die("--csv takes a directory")));
            }
            "--no-cache" => args.no_cache = true,
            "--cache-dir" => {
                args.cache_dir = Some(
                    it.next()
                        .unwrap_or_else(|| die("--cache-dir takes a directory")),
                );
            }
            "--serial" => args.serial = true,
            "--verbose" => args.verbose = true,
            "--quick" => args.quick = true,
            "--label" => {
                args.label = Some(it.next().unwrap_or_else(|| die("--label takes a name")));
            }
            "--out" => {
                args.out = Some(it.next().unwrap_or_else(|| die("--out takes a directory")));
            }
            "--check" => {
                args.check = Some(it.next().unwrap_or_else(|| die("--check takes a file")));
            }
            "--tolerance" => {
                args.tolerance = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--tolerance takes a number")),
                );
            }
            "--manifest" => {
                args.manifest = Some(it.next().unwrap_or_else(|| die("--manifest takes a file")));
            }
            "--resume" => args.resume = true,
            "--tier" => {
                args.tier = Some(it.next().unwrap_or_else(|| die("--tier takes s|m|l")));
            }
            "--limit" => {
                args.limit = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--limit takes a count")),
                );
            }
            "--no-out" => args.no_out = true,
            "-h" | "--help" => {
                eprintln!(
                    "usage: repro <artifact|all> [--scale S] [--json DIR] [--csv DIR] \
                     [--no-cache] [--cache-dir DIR] [--serial] [--verbose]\n\
                     artifacts: table1 fig1 fig2 fig6-17 success ablation placement sched \
                     autotune validate perf score"
                );
                std::process::exit(0);
            }
            other => args.artifact = other.to_string(),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
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

fn main() {
    let args = parse_args();
    if let Err(e) = run(&args) {
        eprintln!("repro: {e}");
        std::process::exit(1);
    }
}

/// `repro perf`: self-profile the simulator matrix, print the phase
/// table, and write `results/perf/profile-<label>.json` plus a
/// flamegraph-ready `flamegraph-<label>.folded` (feed it to any
/// `flamegraph.pl`-compatible renderer).
fn run_perf_cmd(args: &Args) -> Result<(), Error> {
    use smt_experiments::perf;
    let mut opts = if args.quick {
        perf::PerfOptions::quick()
    } else {
        perf::PerfOptions::full()
    };
    if let Some(label) = &args.label {
        opts = opts.label(label.clone());
    }
    eprintln!(
        "[repro] profiling simulator phases ({} cycles/window)...",
        opts.window
    );
    let run = perf::run_profile(&opts);
    print!("{}", run.render());

    let dir = std::path::Path::new("results/perf");
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("profile-{}.json", run.label));
    let body = serde_json::to_string_pretty(&run).map_err(|e| Error::Serde(e.to_string()))?;
    std::fs::write(&json_path, body)?;
    eprintln!("[repro] wrote {}", json_path.display());
    let folded_path = dir.join(format!("flamegraph-{}.folded", run.label));
    std::fs::write(&folded_path, run.folded())?;
    eprintln!("[repro] wrote {}", folded_path.display());
    Ok(())
}

/// `repro score`: replay the committed corpus through the decision core,
/// publish the `results/score/` artifacts, gate against the baseline.
fn run_score_cmd(args: &Args) -> Result<(), Error> {
    use smt_experiments::score::{self, ScoreCmd, ScoreOutcome};
    let mut cmd = ScoreCmd {
        resume: args.resume,
        limit: args.limit,
        label: args.label.clone(),
        ..ScoreCmd::default()
    };
    if let Some(m) = &args.manifest {
        cmd.manifest = std::path::PathBuf::from(m);
    }
    if let Some(t) = &args.tier {
        cmd.tier = Some(
            smt_corpus::SizeTier::from_name(t)
                .unwrap_or_else(|_| die(&format!("unknown --tier {t:?} (want s|m|l)"))),
        );
    }
    if !args.no_out {
        cmd.out_dir = Some(std::path::PathBuf::from(
            args.out
                .clone()
                .unwrap_or_else(|| "results/score".to_string()),
        ));
    }
    cmd.check = args.check.clone().map(std::path::PathBuf::from);
    if let Some(t) = args.tolerance {
        cmd.tolerance_points = t;
    }
    eprintln!(
        "[repro] scoring corpus {} (journal {}{})...",
        cmd.manifest.display(),
        cmd.journal.display(),
        if cmd.resume { ", resuming" } else { "" }
    );
    match score::run_score(&cmd)? {
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

fn run(args: &Args) -> Result<(), Error> {
    if args.artifact == "perf" {
        return run_perf_cmd(args);
    }
    if args.artifact == "score" {
        return run_score_cmd(args);
    }
    let sink: Arc<dyn ProgressSink> = if args.verbose {
        Arc::new(StderrSink)
    } else {
        Arc::new(SummarySink)
    };
    let mut engine = Engine::new().progress(sink).serial(args.serial);
    if !args.no_cache {
        let dir = args
            .cache_dir
            .clone()
            .map(std::path::PathBuf::from)
            .unwrap_or_else(ResultCache::default_dir);
        eprintln!("[repro] result cache at {}", dir.display());
        engine = engine.with_cache(ResultCache::new(dir));
    }
    let mut data = Data {
        scale: args.scale,
        engine,
        cache: HashMap::new(),
    };
    let wanted = |name: &str| args.artifact == "all" || args.artifact == name;
    let mut emitted = false;
    let t_run = std::time::Instant::now();

    if wanted("table1") {
        let t = figures::table1();
        println!("Table I: Benchmarks Evaluated\n\n{}", t.render());
        dump_csv(&args.csv_dir, "table1", &t.to_csv())?;
        emitted = true;
    }
    if wanted("fig1") {
        let f = figures::fig1(data.get(Machine::Power7OneChip)?)?;
        println!("{}", f.render());
        dump_json(&args.json_dir, "fig1", &f)?;
        emitted = true;
    }
    if wanted("fig2") {
        let f = figures::fig2(data.get(Machine::Power7OneChip)?)?;
        println!("{}", f.render());
        println!(
            "max |pearson r| across panels = {:.3} (paper: no usable correlation)\n",
            f.max_abs_correlation()
        );
        dump_json(&args.json_dir, "fig2", &f)?;
        emitted = true;
    }
    if wanted("fig7") {
        let f = figures::fig7(data.get(Machine::Power7OneChip)?)?;
        println!("{}", f.render());
        dump_json(&args.json_dir, "fig7", &f)?;
        emitted = true;
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
            dump_json(&args.json_dir, name, &f)?;
            dump_csv(&args.csv_dir, name, &f.to_csv())?;
            emitted = true;
        }
    }
    if wanted("fig16") {
        let f6 = figures::fig6(data.get(Machine::Power7OneChip)?)?;
        let f = figures::fig16(&f6);
        println!("{}", f.render());
        dump_json(&args.json_dir, "fig16", &f)?;
        emitted = true;
    }
    if wanted("fig17") {
        let f6 = figures::fig6(data.get(Machine::Power7OneChip)?)?;
        let f = figures::fig17(&f6);
        println!("{}", f.render());
        dump_json(&args.json_dir, "fig17", &f)?;
        emitted = true;
    }
    if wanted("success") {
        let f6 = figures::fig6(data.get(Machine::Power7OneChip)?)?;
        let f10 = figures::fig10(data.get(Machine::Nehalem)?)?;
        let s = figures::success_rates(&f6, &f10);
        println!("{}", s.render());
        dump_json(&args.json_dir, "success", &s)?;
        emitted = true;
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
        dump_json(&args.json_dir, "ablation", &a)?;
        emitted = true;
    }
    if wanted("placement") {
        let p = smt_experiments::placement::run()?;
        println!("{}", p.render());
        dump_json(&args.json_dir, "placement", &p)?;
        emitted = true;
    }
    if args.artifact == "validate" {
        // Not part of "all" (it re-collects the suite several times).
        let v = smt_experiments::validation::run_with(3, data.scale, &data.engine)?;
        println!("{}", v.render());
        dump_json(&args.json_dir, "validate", &v)?;
        emitted = true;
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
        dump_json(&args.json_dir, "sched", &demo)?;
        emitted = true;
    }
    if args.artifact == "autotune" {
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
        dump_json(&args.json_dir, "autotune", &study)?;
        let dir = std::path::Path::new("results/autotune");
        std::fs::create_dir_all(dir)?;
        let body = serde_json::to_string_pretty(&study).map_err(|e| Error::Serde(e.to_string()))?;
        std::fs::write(dir.join("study.json"), body)?;
        eprintln!("[repro] wrote results/autotune/study.json");
        emitted = true;
    }

    if !emitted {
        eprintln!("unknown artifact {:?}; try --help", args.artifact);
        std::process::exit(1);
    }
    eprintln!("[repro] total wall time {:?}", t_run.elapsed());
    Ok(())
}
