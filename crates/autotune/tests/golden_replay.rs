//! Golden-file check of the record/replay invariant.
//!
//! `tests/golden/phased.smtc` is a committed counter trace of one
//! closed-loop run (EP → contended SPECjbb → EP on the single-chip
//! POWER7-like machine), and `tests/golden/phased.decisions.json` is the
//! decision log that run produced. Replaying the trace through a fresh
//! [`AutotuneLoop`] with a [`DryRunActuator`] must reproduce the log byte
//! for byte — the decision core is a pure function of the window stream,
//! so any drift means a behavior change that must be reviewed (and, if
//! intended, re-goldened).
//!
//! The CLI mirrors this exact configuration (`smtselect autotune --replay
//! tests/golden/phased.smtc --threshold 0.10 --mid 0.15`), which is what
//! the CI `autotune-smoke` job diffs.
//!
//! Regenerate both files after an intended policy change with:
//!
//! ```text
//! SMT_AUTOTUNE_REGOLDEN=1 cargo test -p smt-autotune --test golden_replay
//! ```

use std::path::PathBuf;

use smt_autotune::{AutotuneConfig, AutotuneLoop, DryRunActuator, SimActuator};
use smt_collect::{TraceBackend, TraceMeta, TraceWriter};
use smt_sim::{Error, MachineConfig, SmtLevel};
use smt_workloads::{catalog, PhasedWorkload};
use smtsm::{LevelSelector, MetricSpec, ThresholdPredictor};

/// Pinned run parameters. These must stay in lockstep with the CI job's
/// CLI flags; the golden files encode exactly this configuration.
const WINDOW_CYCLES: u64 = 4_000;
const T_TOP: f64 = 0.10;
const T_MID: f64 = 0.15;
const MAX_CYCLES: u64 = 600_000_000;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn config() -> AutotuneConfig {
    // The pinned constants above are the whole configuration: the golden
    // run reads no environment and no flags.
    AutotuneConfig {
        window_cycles: WINDOW_CYCLES,
        ..AutotuneConfig::default()
    }
}

fn make_loop() -> Result<AutotuneLoop, Error> {
    let selector = LevelSelector::three_level(
        ThresholdPredictor::fixed(T_TOP),
        ThresholdPredictor::fixed(T_MID),
    );
    AutotuneLoop::new(selector, MetricSpec::power7(), config())
}

fn regen() -> Result<(), Error> {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir)?;
    let workload = PhasedWorkload::new(
        "golden-phased".to_string(),
        vec![
            catalog::ep().scaled(0.2),
            catalog::specjbb_contention().scaled(0.3),
            catalog::ep().scaled(0.12),
        ],
    );
    let cfg = MachineConfig::power7(1);
    let sim = smt_sim::Simulation::new(cfg.clone(), SmtLevel::Smt4, workload);
    let mut act = SimActuator::new(sim);
    let mut ctl = make_loop()?;
    let meta = TraceMeta {
        machine: "p7".to_string(),
        nports: cfg.arch.num_ports(),
        window_cycles: WINDOW_CYCLES,
    };
    let mut writer = TraceWriter::create(dir.join("phased.smtc"), meta)?;
    let report = act.run_recording(&mut ctl, MAX_CYCLES, &mut writer)?;
    writer.finalize()?;
    assert!(report.completed, "golden run must finish its workload");
    assert!(
        report.decisions.switches >= 2,
        "golden run must exercise the actuator, got {} switches",
        report.decisions.switches
    );
    let body =
        serde_json::to_string_pretty(&report.decisions).map_err(|e| Error::Serde(e.to_string()))?;
    std::fs::write(dir.join("phased.decisions.json"), body + "\n")?;
    eprintln!(
        "regenerated golden: {} windows, {} switches, {} phase changes",
        report.decisions.windows, report.decisions.switches, report.decisions.phase_changes
    );
    Ok(())
}

#[test]
fn committed_trace_replays_to_the_committed_decision_log() -> Result<(), Error> {
    if std::env::var("SMT_AUTOTUNE_REGOLDEN").is_ok() {
        return regen();
    }
    let dir = golden_dir();
    let mut backend = TraceBackend::open(dir.join("phased.smtc"))?;
    let mut ctl = make_loop()?;
    let mut dry = DryRunActuator::new();
    let report = ctl.run_stream(&mut backend, &mut dry, u64::MAX)?;
    let replayed =
        serde_json::to_string_pretty(&report).map_err(|e| Error::Serde(e.to_string()))? + "\n";
    let committed = std::fs::read_to_string(dir.join("phased.decisions.json"))?;
    assert_eq!(
        replayed, committed,
        "decision log drifted from tests/golden/phased.decisions.json; if the \
         policy change is intended, regenerate with SMT_AUTOTUNE_REGOLDEN=1"
    );
    assert_eq!(
        dry.log().len() as u64,
        report.switches,
        "every switch must reach the dry-run actuator"
    );
    Ok(())
}
