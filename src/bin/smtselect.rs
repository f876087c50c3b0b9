//! `smtselect` — command-line front end to the SMT-selection toolkit.
//!
//! [`USAGE`] (printed by `--help`) lists every command with the flags it
//! reads; a flag a command does not read is rejected. What the commands do:
//!
//! - `list`: the benchmark catalog (Table I).
//! - `analyze`: measure SMTsm online at the machine's top SMT level, print
//!   the three factors and the recommendation; `--verify` also runs every
//!   level to completion and reports whether the recommendation was right.
//! - `train`: run the machine's whole suite, train Gini and PPI thresholds
//!   for top-vs-bottom prediction, print them (and save JSON with `--out`).
//! - `tune`: run the benchmark under the dynamic SMT controller and print
//!   the switch log and final throughput.
//! - `autotune`: the closed-loop phase-aware autotuner. With benchmark
//!   names the phases run back to back as one workload on the simulator,
//!   the loop switches the machine's SMT level live (change-point
//!   detection + phase memory + hysteresis/cooldown), and `--record` tees
//!   every counter window into a .smtc trace. `--replay` re-feeds a
//!   recorded trace through the identical decision core with a dry-run
//!   actuator: the decision log is byte-identical to the live run's (the
//!   CI golden check). `--probe-affinity` reports whether this host lets
//!   the affinity actuator pin threads (sched_setaffinity), and never
//!   fails: an unusable host is a finding.
//! - `serve`: run smtd, the recommendation daemon: an epoll reactor with
//!   session state sharded across `--shards` threads (0 = one per core, at
//!   most 8). Clients open with an NDJSON hello and may negotiate the
//!   length-prefixed binary codec; `--codecs` restricts what hello may
//!   grant. ENDPOINT is tcp://HOST:PORT, unix:///PATH, or bare HOST:PORT.
//!   Returns when a client sends the shutdown verb.
//! - `bench-serve`: load-test a running smtd (or an in-process one with
//!   `--spawn`) and report throughput and p50/p99 latency in milliseconds.
//!   `--tiers MAX` sweeps a doubling ladder of connection counts (1, 2, 4,
//!   ... MAX) per selected codec and op — `stream` is ingest/recommend
//!   traffic, `place` times nothing but placement solves against
//!   pre-tagged sessions. Each connection is one client thread. It prints
//!   one summary per tier and judges only the answers, not the speed: an
//!   error response or a wrong-sized placement fails the run. `--shutdown`
//!   stops the server afterwards.
//! - `place`: profile each benchmark solo (N counter windows on one core
//!   at SMT1), then solve for the thread-to-core placement the co-run
//!   compatibility model predicts best. The answer goes through the
//!   daemon's own session type — with `--connect` the tagged windows are
//!   streamed to a live smtd instead, and the JSON answers are
//!   byte-identical by construction.
//! - `collect`: pull counter windows from a backend — the simulator
//!   (default) or a live process via perf_event_open (`--backend perf
//!   --pid P`) — feed them through the online sampler, and print the
//!   recommendation. `--record` tees every window into a .smtc trace;
//!   `--probe` only reports which PMU events this host supports.
//! - `record`: shorthand for `collect --record FILE`: capture a trace.
//! - `replay`: re-feed a recorded trace window by window into the daemon's
//!   session type (or, with `--connect`, a live smtd) and print the
//!   recommendation the stream converges to. Replay is bit-identical.
//! - `corpus build`: deterministically regenerate every (arch × tier ×
//!   workload) trace plus its simulate-every-level oracle label and write
//!   a sealed, checksummed manifest under DIR (default results/corpus);
//!   `--check` compares the rebuild against a committed manifest and exits
//!   nonzero on drift (the CI byte-stability gate). `corpus verify`
//!   re-checksums every trace a manifest lists (default
//!   results/corpus/manifest.json) and exits nonzero if any file is
//!   missing, truncated, or edited. `repro score` replays the corpus.
//!
//! `analyze`, `tune`, `collect`, `replay` and `place` print with `--json`
//! the record the daemon serves, rendered from the same struct, so offline
//! and online answers are byte-comparable.
//!
//! Exit status: 0 on success, 2 for a usage error (unknown command or
//! flag, malformed value, unknown machine or benchmark), 1 for any other
//! failure, including a failed `--check` gate.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use smt_select::experiments::cli::{self, Flags};
use smt_select::prelude::*;
use smt_select::service;
use smt_select::sim::Error;

const USAGE: &str = "\
smtselect — SMT-level selection via the SMTsm metric (IPDPS'12)

usage: smtselect <command> [arguments] [flags]      (M = p7|p7x2|nhm)

  list
  analyze <bench> [--machine M] [--scale S] [--threshold T] [--mid T]
          [--verify] [--json]
  train [--machine M] [--scale S] [--out FILE]
  tune <bench> [--machine M] [--scale S] [--threshold T] [--mid T] [--json]
  autotune <bench>... [--machine M] [--scale S] [--threshold T] [--mid T]
           [--window-cycles C] [--record FILE] [--json] [--verbose]
  autotune --replay FILE [--machine M] [--threshold T] [--mid T] [--json]
  autotune --probe-affinity [--json]
  place <bench>... [--machine M] [--scale S] [--threshold T] [--mid T]
        [--windows N] [--window-cycles C] [--json]
        [--connect [--addr ENDPOINT] [--codec ndjson|binary]]
  collect <bench> [--backend sim|perf] [--pid P] [--machine M] [--scale S]
          [--threshold T] [--mid T] [--windows N] [--window-cycles C]
          [--events p7|nhm|generic] [--record FILE] [--json]
  collect --probe [--events p7|nhm|generic] [--json]
  record <bench> --out FILE [collect flags except --record]
  replay <trace.smtc> [--threshold T] [--mid T] [--json] [--verbose]
         [--connect [--addr ENDPOINT] [--codec ndjson|binary]]
  corpus build [--out DIR] [--tier s|m|l] [--base-scale S]
               [--check MANIFEST] [--json]
  corpus verify [MANIFEST] [--json]
  serve [--addr ENDPOINT] [--unix PATH] [--shards N] [--max-sessions N]
        [--codecs both|ndjson|binary] [--debug-verbs] [--verbose]
  bench-serve [--addr ENDPOINT | --spawn [--shards N]] [--quick]
              [--connections N] [--requests N]
              [--codec ndjson|binary|both] [--op stream|place|both]
              [--tiers MAX] [--shutdown]

defaults: --machine p7, --scale 0.3, --windows 32, --window-cycles 50000,
          --addr 127.0.0.1:7099, --events generic
";

/// The default daemon endpoint for `serve`, `bench-serve` and `--connect`.
const DEFAULT_ADDR: &str = "127.0.0.1:7099";

fn main() -> ExitCode {
    cli::main("smtselect", USAGE, run)
}

fn run(args: Vec<String>) -> Result<(), Error> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(Error::Config("missing command; see --help".into()));
    };
    let f = Flags::new(rest.iter().cloned());
    match cmd.as_str() {
        "list" => cmd_list(f),
        "analyze" => cmd_analyze(f),
        "train" => cmd_train(f),
        "tune" => cmd_tune(f),
        "autotune" => cmd_autotune(f),
        "place" => cmd_place(f),
        "collect" => cmd_collect(f, "--record"),
        "record" => cmd_collect(f, "--out"),
        "replay" => cmd_replay(f),
        "corpus" => cmd_corpus(f),
        "serve" => cmd_serve(f),
        "bench-serve" => cmd_bench_serve(f),
        other => Err(Error::Config(format!(
            "unknown command {other:?}; see --help"
        ))),
    }
}

/// Resolve `--machine` through the one machine table
/// ([`MachineConfig::by_name`]), which `smtd` shares; the label is
/// display-only.
fn machine(name: &str) -> Result<(MachineConfig, &'static str), Error> {
    let cfg = MachineConfig::by_name(name)?;
    let label = match name {
        "p7" => "8-core POWER7-like chip",
        "p7x2" => "two 8-core POWER7-like chips",
        _ => "quad-core Nehalem-like",
    };
    Ok((cfg, label))
}

fn find_spec(name: &str) -> Result<WorkloadSpec, Error> {
    catalog::power7_suite()
        .into_iter()
        .chain(catalog::nehalem_suite())
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            Error::InvalidWorkload(format!("unknown benchmark {name:?}; try `smtselect list`"))
        })
}

/// The first positional argument, which `what` names in the error.
fn first(positional: Vec<String>, what: &str) -> Result<String, Error> {
    positional
        .into_iter()
        .next()
        .ok_or_else(|| Error::Config(format!("missing {what}")))
}

/// Tag a file failure with its path.
fn at<E: std::fmt::Display>(path: &str) -> impl FnOnce(E) -> Error + '_ {
    move |e| Error::Io(format!("{path}: {e}"))
}

fn print_json<T: serde::Serialize>(value: &T) -> Result<(), Error> {
    let line = serde_json::to_string(value).map_err(|e| Error::Serde(e.to_string()))?;
    println!("{line}");
    Ok(())
}

/// The `--threshold` / `--mid` pair every deciding command reads.
struct Thresholds {
    top: f64,
    mid: f64,
}

impl Thresholds {
    fn read(f: &mut Flags) -> Result<Thresholds, Error> {
        Ok(Thresholds {
            top: f.get("--threshold", DEFAULT_THRESHOLD_TOP)?,
            mid: f.get("--mid", DEFAULT_THRESHOLD_MID)?,
        })
    }

    /// The session parameters the CLI's offline paths and `smtd` clients
    /// share.
    fn session_spec(&self, machine: &str) -> service::SessionSpec {
        let mut spec = service::SessionSpec::power7();
        spec.machine = machine.to_string();
        spec.threshold = self.top;
        spec.mid = self.mid;
        spec
    }

    /// The level selector `machine`'s ladder decides with, shaped as the
    /// corpus scorer and `smtd` sessions shape it.
    fn selector(&self, machine: &MachineConfig) -> Result<LevelSelector, Error> {
        let policy = ReplayPolicy {
            threshold_top: self.top,
            threshold_mid: self.mid,
            ..ReplayPolicy::default()
        };
        smt_select::corpus::selector_for_machine(machine, &policy)
    }
}

/// A local stand-in for an `smtd` session. Its parameters come from the
/// command line, so a rejection is a usage error.
fn session(spec: &service::SessionSpec) -> Result<service::Session, Error> {
    service::Session::new(0, spec)
        .map_err(|e| Error::Config(format!("bad session parameters: {e}")))
}

/// Open a live `smtd` session for `--connect`.
fn connect(addr: &str, codec: CodecKind, spec: &service::SessionSpec) -> Result<Client, Error> {
    let mut client = Client::connect(addr, Duration::from_secs(10))
        .map_err(|e| Error::Io(format!("cannot connect to {addr}: {e}")))?;
    let (session, top, granted) = client.hello_with(spec, codec)?;
    eprintln!("session {session} (top {top}, codec {granted}) on {addr}");
    Ok(client)
}

fn cmd_list(f: Flags) -> Result<(), Error> {
    f.finish()?;
    let mut seen = std::collections::HashSet::new();
    println!("{:<22} {:<14} description", "benchmark", "suite");
    println!("{}", "-".repeat(78));
    for s in catalog::power7_suite()
        .into_iter()
        .chain(catalog::nehalem_suite())
    {
        if seen.insert(s.name.clone()) {
            println!("{:<22} {:<14} {}", s.name, s.suite, s.description);
        }
    }
    Ok(())
}

fn cmd_analyze(mut f: Flags) -> Result<(), Error> {
    let machine_name = f.get("--machine", "p7".to_string())?;
    let scale = f.get("--scale", 0.3)?;
    let th = Thresholds::read(&mut f)?;
    let verify = f.switch("--verify");
    let json = f.switch("--json");
    let name = first(f.finish()?, "benchmark name")?;
    let (cfg, label) = machine(&machine_name)?;
    let spec = find_spec(&name)?.scaled(scale);
    let top = cfg.arch.max_smt;
    let mspec = MetricSpec::for_arch(&cfg.arch);

    if json {
        // Offline analysis through the daemon's own session type: stream
        // top-level windows into a Session and print its recommendation,
        // so this line is byte-identical to what `smtd` would serve for
        // the same counter stream.
        let sspec = th.session_spec(&machine_name);
        let mut session = session(&sspec)?;
        let mut sim = Simulation::new(cfg, top, SyntheticWorkload::new(spec));
        sim.run_cycles(25_000);
        for _ in 0..8 {
            if sim.finished() {
                break;
            }
            let m = sim.measure_window(sspec.window_cycles);
            session.ingest(std::slice::from_ref(&m));
        }
        return print_json(&session.recommend());
    }

    let mut sim = Simulation::new(cfg.clone(), top, SyntheticWorkload::new(spec.clone()));
    sim.run_cycles(25_000);
    let window = sim.measure_window(60_000);
    let factors = smtsm_factors(&mspec, &window);
    let pref = ThresholdPredictor::fixed(th.top).predict(factors.value());

    println!("benchmark : {} on {label} @ {top}", spec.name);
    println!(
        "factors   : mix-deviation {:.4}  disp-held {:.4}  scalability {:.4}",
        factors.mix_deviation, factors.disp_held, factors.scalability
    );
    println!(
        "SMTsm     : {:.4}  (threshold {:.4})",
        factors.value(),
        th.top
    );
    println!(
        "verdict   : prefer {} SMT",
        match pref {
            SmtPreference::Higher => "the HIGHER",
            SmtPreference::Lower => "a LOWER",
        }
    );
    let (used, held, other) = window.utilization_breakdown(cfg.arch.dispatch_width as u64);
    println!(
        "dispatch  : {:.0}% used, {:.0}% held, {:.0}% idle/stalled",
        used * 100.0,
        held * 100.0,
        other * 100.0
    );

    if verify {
        println!("\nverify (full runs):");
        let oracle = oracle_sweep(&cfg, || SyntheticWorkload::new(spec.clone()), 2_000_000_000)?;
        for l in &oracle.levels {
            println!(
                "  {}: {:.2} work/cycle{}",
                l.smt,
                l.result.perf(),
                if l.smt == oracle.best {
                    "   <- best"
                } else {
                    ""
                }
            );
        }
        let correct = match pref {
            SmtPreference::Higher => oracle.best == top,
            SmtPreference::Lower => oracle.best < top,
        };
        println!(
            "  prediction was {}",
            if correct { "CORRECT" } else { "WRONG" }
        );
    }
    Ok(())
}

fn cmd_train(mut f: Flags) -> Result<(), Error> {
    use smt_select::stats::classify::SpeedupCase;
    let machine_name = f.get("--machine", "p7".to_string())?;
    let scale = f.get("--scale", 0.3)?;
    let out = f.value::<String>("--out")?;
    f.finish()?;
    let (cfg, label) = machine(&machine_name)?;
    let suite = if machine_name == "nhm" {
        catalog::nehalem_suite()
    } else {
        catalog::power7_suite()
    };
    let specs: Vec<WorkloadSpec> = suite.into_iter().map(|s| s.scaled(scale)).collect();
    let levels = cfg.smt_levels();
    let top = cfg.arch.max_smt;
    let bottom = SmtLevel::Smt1;
    eprintln!(
        "training on {} benchmarks ({label}, {top} vs {bottom})...",
        specs.len()
    );
    let plan = RunRequest::on(cfg).workloads(specs).levels(levels).plan()?;
    let sweep = Engine::cached().run(&plan);
    for err in &sweep.errors {
        eprintln!("job failed: {err}");
    }
    let cases: Vec<SpeedupCase> = sweep
        .results
        .iter()
        .filter_map(|r| {
            let metric = r.metric_at(top).ok()?;
            let speedup = r.speedup(top, bottom).ok()?;
            Some(SpeedupCase::new(r.name.clone(), metric, speedup))
        })
        .collect();
    let gini = ThresholdPredictor::train_gini(&cases);
    let ppi = ThresholdPredictor::train_ppi(&cases);
    let sweep = PpiSweep::run(&cases);
    println!(
        "gini threshold : {:.4} (accuracy {:.1}%)",
        gini.threshold,
        gini.accuracy(&cases) * 100.0
    );
    println!(
        "ppi threshold  : {:.4} (accuracy {:.1}%, avg improvement {:.1}%)",
        ppi.threshold,
        ppi.accuracy(&cases) * 100.0,
        sweep.best_improvement
    );
    // The shipped defaults are what every untrained consumer (CLI flags,
    // corpus scorer, daemon sessions) resolves to; print the drift so a
    // trained threshold diverging from them is visible, never silent.
    println!(
        "shipped default: {DEFAULT_THRESHOLD_TOP:.4} top / {DEFAULT_THRESHOLD_MID:.4} mid \
         (gini drift {:+.4})",
        gini.threshold - DEFAULT_THRESHOLD_TOP
    );
    if let Some(path) = &out {
        let body = serde_json::json!({
            "machine": machine_name,
            "scale": scale,
            "gini": gini,
            "ppi": ppi,
            "default_threshold_top": DEFAULT_THRESHOLD_TOP,
            "default_threshold_mid": DEFAULT_THRESHOLD_MID,
            "cases": cases,
        });
        let text = serde_json::to_string_pretty(&body).map_err(|e| Error::Serde(e.to_string()))?;
        std::fs::write(path, text).map_err(at(path))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_corpus(mut f: Flags) -> Result<(), Error> {
    use smt_select::corpus::{check_against, DEFAULT_MANIFEST};
    let tier = f.value::<String>("--tier")?;
    let base_scale = f.value::<f64>("--base-scale")?;
    let out = f.get("--out", "results/corpus".to_string())?;
    let check = f.value::<String>("--check")?;
    let json = f.switch("--json");
    let positional = f.finish()?;
    match positional.first().map(String::as_str) {
        Some("build") => {
            // The window geometry (windows, window_cycles, warmup) is
            // deliberately NOT flag-overridable: a corpus built with a
            // different geometry could never byte-match the committed
            // manifest, so only the size knobs are exposed.
            let mut opts = BuildOptions::default();
            if let Some(t) = &tier {
                opts = opts.tier(SizeTier::from_name(t)?);
            }
            if let Some(s) = base_scale {
                opts.base_scale = s;
            }
            let cells = opts.tiers.len()
                * opts
                    .arches
                    .iter()
                    .map(|&a| smt_select::corpus::suite_for_arch(a).len())
                    .sum::<usize>();
            eprintln!("building {cells} corpus cells into {out}/ ...");
            let outcome = build_corpus(std::path::Path::new(&out), &opts)?;
            let manifest = outcome.manifest;
            if json {
                print_json(&serde_json::json!({
                    "manifest": outcome.manifest_path.display().to_string(),
                    "entries": manifest.entries.len(),
                    "checksum": format!("{:#018x}", manifest.checksum),
                }))?;
            } else {
                println!(
                    "built {} entries, manifest {} (checksum {:#018x})",
                    manifest.entries.len(),
                    outcome.manifest_path.display(),
                    manifest.checksum
                );
            }
            if let Some(committed_path) = &check {
                let committed = CorpusManifest::load(std::path::Path::new(committed_path))
                    .map_err(at(committed_path))?;
                let drifts = check_against(&manifest, &committed);
                if !drifts.is_empty() {
                    let lines: Vec<String> = drifts
                        .iter()
                        .map(|d| format!("{}: {}", d.id, d.what))
                        .collect();
                    return Err(Error::InvalidMeasurement(format!(
                        "rebuild drifts from {committed_path}:\n  {}",
                        lines.join("\n  ")
                    )));
                }
                println!("check OK: rebuild matches {committed_path}");
            }
            Ok(())
        }
        Some("verify") => {
            let path = positional
                .get(1)
                .cloned()
                .unwrap_or_else(|| DEFAULT_MANIFEST.to_string());
            let manifest = CorpusManifest::load(std::path::Path::new(&path)).map_err(at(&path))?;
            let report = verify_corpus(&manifest, std::path::Path::new(&path));
            if json {
                print_json(&serde_json::json!({
                    "manifest": path,
                    "entries": manifest.entries.len(),
                    "failures": report.failures().len(),
                    "ok": report.ok(),
                }))?;
            } else {
                print!("{}", report.render());
            }
            if !report.ok() {
                return Err(Error::InvalidMeasurement(format!(
                    "{path}: {} of {} entries failed verification",
                    report.failures().len(),
                    manifest.entries.len()
                )));
            }
            Ok(())
        }
        Some(other) => Err(Error::Config(format!(
            "unknown corpus verb {other:?}; expected build|verify"
        ))),
        None => Err(Error::Config("missing corpus verb (build|verify)".into())),
    }
}

fn cmd_tune(mut f: Flags) -> Result<(), Error> {
    let machine_name = f.get("--machine", "p7".to_string())?;
    let scale = f.get("--scale", 0.3)?;
    let th = Thresholds::read(&mut f)?;
    let json = f.switch("--json");
    let name = first(f.finish()?, "benchmark name")?;
    let (cfg, label) = machine(&machine_name)?;
    let spec = find_spec(&name)?.scaled(scale);
    let top = cfg.arch.max_smt;
    if json {
        // Closed-loop tuning through the daemon's session type: the local
        // simulation plays the client's machine, applying each level the
        // session answers with, and the final recommendation is printed
        // exactly as `smtd` would serve it.
        let sspec = th.session_spec(&machine_name);
        let mut session = session(&sspec)?;
        let mut sim = Simulation::new(cfg, top, SyntheticWorkload::new(spec));
        while !sim.finished() && sim.now() < 5_000_000_000 {
            let m = sim.measure_window(sspec.window_cycles);
            let summary = session.ingest(std::slice::from_ref(&m));
            if sim.smt() != summary.level && !sim.finished() {
                sim.reconfigure(summary.level);
            }
        }
        return print_json(&session.recommend());
    }

    let mut sim = Simulation::new(cfg.clone(), top, SyntheticWorkload::new(spec.clone()));
    let mut ctl = DynamicSmtController::new(
        th.selector(&cfg)?,
        MetricSpec::for_arch(&cfg.arch),
        ControllerConfig::default(),
    );
    let report = ctl.run(&mut sim, 5_000_000_000);
    println!(
        "tuned {} on {label}: {:.2} work/cycle over {} cycles ({} windows, completed: {})",
        spec.name, report.perf, report.cycles, report.windows, report.completed
    );
    if report.switches.is_empty() {
        println!("no switches: stayed at {top}");
    }
    for s in &report.switches {
        match s.metric {
            Some(m) => println!("  cycle {:>10}: -> {} (SMTsm {:.4})", s.at_cycle, s.to, m),
            None => println!("  cycle {:>10}: -> {} (probe)", s.at_cycle, s.to),
        }
    }
    Ok(())
}

fn print_autotune_summary(report: &AutotuneReport, verbose: bool) {
    println!(
        "decisions  : {} window(s): {} switch(es), {} probe(s), {} phase change(s), \
         {} recall(s), {} learned, {} phase(s) remembered",
        report.windows,
        report.switches,
        report.probes,
        report.phase_changes,
        report.recalls,
        report.learned,
        report.phases_remembered
    );
    println!("final      : {}", report.final_level);
    if verbose {
        for d in &report.decisions {
            match d.metric {
                Some(m) => println!(
                    "  window {:>5}: {} -> {} ({:?}, SMTsm {m:.4})",
                    d.window, d.from, d.to, d.reason
                ),
                None => println!(
                    "  window {:>5}: {} -> {} ({:?})",
                    d.window, d.from, d.to, d.reason
                ),
            }
        }
    }
}

fn cmd_autotune(mut f: Flags) -> Result<(), Error> {
    let probe_affinity = f.switch("--probe-affinity");
    let replay = f.value::<String>("--replay")?;
    let machine_name = f.get("--machine", "p7".to_string())?;
    let scale = f.get("--scale", 0.3)?;
    let th = Thresholds::read(&mut f)?;
    let window_cycles = f.get("--window-cycles", 50_000u64)?;
    let record = f.value::<String>("--record")?;
    let json = f.switch("--json");
    let verbose = f.switch("--verbose");
    let benches = f.finish()?;

    if probe_affinity {
        // Capability probe, same contract as `collect --probe`: always a
        // structured answer, never a failure.
        let report = AffinityActuator::probe(std::process::id() as i32);
        if json {
            return print_json(&report);
        }
        print!("{}", report.render());
        return Ok(());
    }

    if let Some(path) = &replay {
        let mut backend = TraceBackend::open(path).map_err(at(path))?;
        let meta = backend.meta().clone();
        // The trace's own machine wins; --machine covers untagged traces.
        let cfg = match MachineConfig::by_name(&meta.machine) {
            Ok(cfg) => cfg,
            Err(_) => machine(&machine_name)?.0,
        };
        let mut tune = AutotuneConfig::default();
        if meta.window_cycles > 0 {
            tune.window_cycles = meta.window_cycles;
        }
        let mut ctl = AutotuneLoop::new(th.selector(&cfg)?, MetricSpec::for_arch(&cfg.arch), tune)?;
        let mut dry = DryRunActuator::new();
        let report = ctl
            .run_stream(&mut backend, &mut dry, u64::MAX)
            .map_err(at(path))?;
        if json {
            // The byte-diffable decision log: replaying the same trace
            // with the same thresholds always prints the same bytes.
            return print_json(&report);
        }
        println!("replayed   : {path} (machine {})", meta.machine);
        print_autotune_summary(&report, true);
        return Ok(());
    }

    if benches.is_empty() {
        return Err(Error::Config(
            "autotune needs benchmark name(s), --replay FILE, or --probe-affinity".into(),
        ));
    }
    let (cfg, label) = machine(&machine_name)?;
    let top = cfg.arch.max_smt;
    let specs = benches
        .iter()
        .map(|n| Ok(find_spec(n)?.scaled(scale)))
        .collect::<Result<Vec<_>, Error>>()?;
    let phased = PhasedWorkload::new(benches.join("+"), specs);
    let tune = AutotuneConfig {
        window_cycles,
        ..AutotuneConfig::default()
    };
    let mut ctl = AutotuneLoop::new(th.selector(&cfg)?, MetricSpec::for_arch(&cfg.arch), tune)?;
    let mut act = SimActuator::new(Simulation::new(cfg.clone(), top, phased));

    let report = if let Some(path) = &record {
        let meta = TraceMeta {
            machine: machine_name.clone(),
            nports: cfg.arch.num_ports(),
            window_cycles: tune.window_cycles,
        };
        let mut writer = TraceWriter::create(path, meta).map_err(at(path))?;
        let report = act.run_recording(&mut ctl, 5_000_000_000, &mut writer)?;
        writer.finalize().map_err(at(path))?;
        eprintln!("recorded   : {path}");
        report
    } else {
        act.run(&mut ctl, 5_000_000_000)?
    };

    if json {
        return print_json(&report);
    }
    println!(
        "autotuned  : {} on {label} @ {top} ({} cycles/window)",
        benches.join("+"),
        tune.window_cycles
    );
    println!(
        "perf       : {:.3} work/cycle over {} cycles (drains {}, completed: {})",
        report.perf, report.cycles, report.drain_cycles, report.completed
    );
    print_autotune_summary(&report.decisions, verbose);
    Ok(())
}

/// `collect`, or `record` when the trace path comes from `--out`.
fn cmd_collect(mut f: Flags, record_flag: &str) -> Result<(), Error> {
    use smt_select::collect::perf;
    let events = f.get("--events", "generic".to_string())?;
    let probe = f.switch("--probe");
    let json = f.switch("--json");
    let machine_name = f.get("--machine", "p7".to_string())?;
    let backend_name = f.get("--backend", "sim".to_string())?;
    let pid = f.value::<u32>("--pid")?;
    let scale = f.get("--scale", 0.3)?;
    let windows = f.get("--windows", 32u64)?;
    let window_cycles = f.get("--window-cycles", 50_000u64)?;
    let th = Thresholds::read(&mut f)?;
    let record_to = f.value::<String>(record_flag)?;
    let positional = f.finish()?;
    if record_flag == "--out" && record_to.is_none() {
        return Err(Error::Config(
            "record needs --out FILE (the trace to write)".into(),
        ));
    }
    let map = EventMap::by_name(&events)?;

    if probe {
        // Capability probe: report per-event support and exit. Always a
        // structured answer, never a failure — an unusable host is a
        // finding, not an error.
        let report = perf::probe(&map);
        if json {
            return print_json(&report);
        }
        print!("{}", report.render());
        return Ok(());
    }

    let (cfg, _label) = machine(&machine_name)?;
    let backend: Box<dyn CounterBackend> = match backend_name.as_str() {
        "sim" => {
            let name = first(positional, "benchmark name for the sim backend")?;
            let spec = find_spec(&name)?.scaled(scale);
            let sim = Simulation::new(cfg.clone(), cfg.arch.max_smt, SyntheticWorkload::new(spec));
            Box::new(SimBackend::new(name, sim).warmup(25_000))
        }
        "perf" => {
            let pid =
                pid.ok_or_else(|| Error::Config("--backend perf needs --pid <process id>".into()))?;
            let b = PerfBackend::attach(pid, map).map_err(|e| {
                Error::Io(format!(
                    "live collection unavailable: {e}\nhint: `smtselect collect --probe \
                     --events {events}` reports per-event support"
                ))
            })?;
            for skipped in b.skipped_events() {
                eprintln!("note: optional event {skipped} unavailable, continuing");
            }
            Box::new(b)
        }
        other => {
            return Err(Error::Config(format!(
                "unknown backend {other:?} (expected sim or perf)"
            )))
        }
    };

    let mut collector = Collector::new(backend);
    if let Some(path) = &record_to {
        let meta = TraceMeta {
            machine: machine_name.clone(),
            nports: cfg.arch.num_ports(),
            window_cycles,
        };
        collector = collector.record_to(path, meta).map_err(at(path))?;
    }

    eprintln!("collecting from {}...", collector.backend().describe());
    let collected = collector.collect(windows, window_cycles)?;

    // The recommendation comes from the daemon's own session type, so a
    // collected stream answers exactly as `smtd` would for the same bits.
    let mut sspec = th.session_spec(&machine_name);
    sspec.window_cycles = window_cycles;
    let mut session = session(&sspec)?;
    session.ingest(&collected);
    let report = collector.finish()?;
    let rec = session.recommend();

    if json {
        return print_json(&serde_json::json!({ "report": report, "recommendation": rec }));
    }
    println!(
        "collected  : {} window(s) of {window_cycles} cycles via {} backend{}",
        report.windows,
        report.backend,
        if report.exhausted {
            " (source exhausted)"
        } else {
            ""
        }
    );
    if let Some(path) = &report.recorded_to {
        println!("recorded   : {path}");
    }
    println!(
        "recommend  : {} (SMTsm {:.4}, confidence {:.2}, {} windows)",
        rec.level, rec.smtsm, rec.confidence, rec.windows
    );
    Ok(())
}

fn cmd_replay(mut f: Flags) -> Result<(), Error> {
    let th = Thresholds::read(&mut f)?;
    let connect_to = f.switch("--connect");
    let addr = f.get("--addr", DEFAULT_ADDR.to_string())?;
    let codec = f.get("--codec", CodecKind::Ndjson)?;
    let json = f.switch("--json");
    let verbose = f.switch("--verbose");
    let path = first(f.finish()?, "trace file")?;
    let mut backend = TraceBackend::open(&path).map_err(at(&path))?;
    let meta = backend.meta().clone();
    let mut sspec = th.session_spec(&meta.machine);
    if meta.window_cycles > 0 {
        sspec.window_cycles = meta.window_cycles;
    }

    if connect_to {
        // Stream the trace into a live smtd instead of a local session.
        let mut client = connect(&addr, codec, &sspec)?;
        let summary = client.ingest_stream(WindowIter::new(&mut backend, 0), 16)?;
        let rec = client.recommend()?;
        if json {
            return print_json(&rec);
        }
        let streamed = summary.map(|s| s.total_windows).unwrap_or(0);
        println!("streamed   : {streamed} window(s) from {path} to {addr}");
        println!(
            "recommend  : {} (SMTsm {:.4}, confidence {:.2})",
            rec.level, rec.smtsm, rec.confidence
        );
        return Ok(());
    }

    let mut session = session(&sspec)?;
    let mut replayed = 0u64;
    while let Some(w) = backend.next_window(0).map_err(|e| {
        Error::InvalidMeasurement(format!("replay failed after {replayed} windows: {e}"))
    })? {
        let s = session.ingest(std::slice::from_ref(&w));
        replayed += 1;
        if verbose {
            println!("window {replayed:>4}: level {}", s.level);
        }
    }
    let rec = session.recommend();
    if json {
        return print_json(&rec);
    }
    println!(
        "replayed   : {replayed} window(s) from {path} (machine {})",
        meta.machine
    );
    println!(
        "recommend  : {} (SMTsm {:.4}, confidence {:.2})",
        rec.level, rec.smtsm, rec.confidence
    );
    Ok(())
}

fn cmd_place(mut f: Flags) -> Result<(), Error> {
    let machine_name = f.get("--machine", "p7".to_string())?;
    let scale = f.get("--scale", 0.3)?;
    let th = Thresholds::read(&mut f)?;
    let windows = f.get("--windows", 32u64)?;
    let window_cycles = f.get("--window-cycles", 50_000u64)?;
    let connect_to = f.switch("--connect");
    let addr = f.get("--addr", DEFAULT_ADDR.to_string())?;
    let codec = f.get("--codec", CodecKind::Ndjson)?;
    let json = f.switch("--json");
    let names = f.finish()?;
    if names.is_empty() {
        return Err(Error::Config(
            "place needs at least one benchmark name; try `smtselect list`".into(),
        ));
    }
    let (cfg, label) = machine(&machine_name)?;
    let mspec = MetricSpec::for_arch(&cfg.arch);

    // Solo profiles: each benchmark runs alone on one core of the target
    // machine at SMT1, and its counter windows become one tagged thread.
    let mut profiles: Vec<Vec<WindowMeasurement>> = Vec::with_capacity(names.len());
    for name in &names {
        let spec = find_spec(name)?.scaled(scale);
        let (_sig, windows) = solo_signature(
            &cfg,
            &mspec,
            Box::new(SyntheticWorkload::new(spec)),
            windows as usize,
            window_cycles,
        );
        profiles.push(windows);
    }

    let sspec = th.session_spec(&machine_name);
    let report = if connect_to {
        // Stream the tagged profiles into a live smtd and ask it to place.
        let mut client = connect(&addr, codec, &sspec)?;
        for (i, windows) in profiles.iter().enumerate() {
            client.ingest_tagged(i as u32, windows)?;
        }
        client.place(&[])?
    } else {
        // Offline: the daemon's own session type answers locally, so this
        // line is byte-identical to what a live smtd would serve.
        let mut session = session(&sspec)?;
        for (i, windows) in profiles.iter().enumerate() {
            session.ingest_tagged(i as u32, windows);
        }
        session
            .place(&[])
            .map_err(|e| Error::InvalidMeasurement(format!("place failed: {}", e.message())))?
    };

    if json {
        return print_json(&report);
    }
    println!(
        "placed     : {} thread(s) on {label} ({windows} windows each)",
        names.len()
    );
    for (core, (members, tput)) in report.cores.iter().zip(&report.per_core).enumerate() {
        let who: Vec<String> = members
            .iter()
            .map(|&t| format!("{t}:{}", names.get(t as usize).map_or("?", String::as_str)))
            .collect();
        println!(
            "  core {core}: {:<40} predicted {tput:.3} work/cycle",
            who.join("  ")
        );
    }
    println!(
        "predicted  : {:.3} work/cycle total (from {} solo windows)",
        report.predicted, report.windows
    );
    Ok(())
}

fn cmd_serve(mut f: Flags) -> Result<(), Error> {
    let addr = f.get("--addr", DEFAULT_ADDR.parse::<Endpoint>()?)?;
    let unix = f.value::<std::path::PathBuf>("--unix")?;
    let mut cfg = service::ServerConfig::at(&addr)
        .shards(f.get("--shards", 0)?)
        .max_sessions(f.get("--max-sessions", 1024)?)
        .codecs(f.get("--codecs", CodecPolicy::Both)?)
        .debug(f.switch("--debug-verbs"));
    let verbose = f.switch("--verbose");
    f.finish()?;
    if unix.is_some() {
        cfg.unix_path = unix;
    }
    let shards = cfg.shard_count();
    let sink: Arc<dyn ServiceSink> = if verbose {
        Arc::new(service::StderrSink)
    } else {
        Arc::new(service::NullSink)
    };
    let unix_path = cfg.unix_path.clone();
    let handle = service::spawn_with_sink(cfg, sink)?;
    println!(
        "smtd listening on {} ({shards} shard{})",
        Endpoint::tcp(handle.local_addr().to_string()),
        if shards == 1 { "" } else { "s" }
    );
    if let Some(path) = &unix_path {
        println!("smtd listening on {}", Endpoint::unix(path));
    }
    handle.join();
    eprintln!("smtd: shut down");
    Ok(())
}

fn cmd_bench_serve(mut f: Flags) -> Result<(), Error> {
    let mut bench = if f.switch("--quick") {
        BenchOptions::quick()
    } else {
        BenchOptions::full()
    };
    bench.connections = f.get("--connections", bench.connections)?;
    bench.requests = f.get("--requests", bench.requests)?;
    let codecs = match f.get("--codec", "ndjson".to_string())?.as_str() {
        "both" => vec![CodecKind::Ndjson, CodecKind::Binary],
        one => vec![one
            .parse()
            .map_err(|e| Error::Config(format!("--codec: {e}")))?],
    };
    let ops = match f.get("--op", "stream".to_string())?.as_str() {
        "stream" => vec![BenchOp::Stream],
        "place" => vec![BenchOp::Place],
        "both" => vec![BenchOp::Stream, BenchOp::Place],
        other => {
            return Err(Error::Config(format!(
                "bad --op {other:?} (expected stream, place, or both)"
            )))
        }
    };
    let tier_max = f.value::<usize>("--tiers")?;
    let spawn = f.switch("--spawn");
    let shards = f.get("--shards", 0)?;
    let addr = f.get("--addr", DEFAULT_ADDR.to_string())?;
    let shutdown = f.switch("--shutdown");
    f.finish()?;
    let widest = tier_max.unwrap_or(bench.connections).max(bench.connections);

    // --spawn runs the server in-process on a free port; otherwise drive
    // an already-running daemon at --addr.
    let spawned = if spawn {
        let cfg = service::ServerConfig::at(&Endpoint::tcp("127.0.0.1:0"))
            .shards(shards)
            .max_sessions((widest * 2).max(64));
        Some(service::spawn(cfg)?)
    } else {
        None
    };
    let addr = match &spawned {
        Some(h) => h.local_addr().to_string(),
        None => addr,
    };

    for &op in &ops {
        let bench = bench.clone().op(op);
        let tiers = match tier_max {
            Some(max) => run_tier_sweep(&addr, &bench, max, &codecs),
            None => codecs
                .iter()
                .map(|&codec| run_bench(&addr, &bench.clone().codec(codec)))
                .collect(),
        }
        .map_err(|e| Error::Io(format!("bench-serve failed against {addr}: {e}")))?;
        for summary in &tiers {
            println!("{}", summary.render());
        }
    }

    if shutdown || spawned.is_some() {
        let mut client = Client::connect(&addr, Duration::from_secs(5))
            .map_err(|e| Error::Io(format!("cannot connect for shutdown: {e}")))?;
        client.shutdown()?;
        eprintln!("server shut down");
    }
    if let Some(handle) = spawned {
        handle.join();
    }
    Ok(())
}
