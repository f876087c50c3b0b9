//! Trace replay through the dynamic-selection decision core.
//!
//! `smt-collect` turns a live (or simulated) session into a `.smtc` trace
//! file; this module turns such traces back into controller decisions.
//! Each trace is replayed through a fresh [`DynamicSmtController`] — the
//! same decision core behind `smtd` and the Section-V scheduler demo — so
//! recorded sessions can be re-analyzed under different thresholds without
//! touching the machine they came from.
//!
//! Replay is *open-loop*: the trace's windows were recorded at the
//! machine's top SMT level and do not follow the controller's decisions.
//! The controller therefore keeps measuring the metric on every window,
//! and the replay's **predicted level** is defined mechanically as the
//! level the selector wanted in the majority of smoothed windows after an
//! EWMA warmup ([`ReplayPolicy::warmup_windows`]) — the decision the
//! stream converges to, robust to where the trace happens to end.

use std::path::{Path, PathBuf};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use smt_collect::TraceReader;
use smt_sched::{ControllerConfig, DynamicSmtController};
use smt_sim::{Error, MachineConfig, SmtLevel};
use smt_stats::table::{fnum, Table};
use smtsm::{LevelSelector, MetricSpec, DEFAULT_THRESHOLD_MID, DEFAULT_THRESHOLD_TOP};

use crate::manifest::ArchPolicy;

/// File extension recorded traces carry.
pub const TRACE_EXT: &str = "smtc";

/// Replay policy: thresholds plus controller tuning.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPolicy {
    /// Top-rung metric threshold (SMT4-vs-lower on three-level machines,
    /// SMT2-vs-SMT1 on two-level machines).
    pub threshold_top: f64,
    /// Mid-rung metric threshold (SMT2-vs-SMT1 on three-level machines).
    pub threshold_mid: f64,
    /// Controller tuning (hysteresis, probe interval, ...).
    pub controller: ControllerConfig,
    /// Smoothed windows to skip before prediction votes are counted (lets
    /// the EWMA converge; the controller still observes every window).
    pub warmup_windows: u64,
}

impl Default for ReplayPolicy {
    fn default() -> ReplayPolicy {
        ReplayPolicy {
            threshold_top: DEFAULT_THRESHOLD_TOP,
            threshold_mid: DEFAULT_THRESHOLD_MID,
            controller: ControllerConfig::default(),
            warmup_windows: 4,
        }
    }
}

impl ReplayPolicy {
    /// A policy scoring under `arch_policy`'s thresholds.
    pub fn from_arch_policy(p: ArchPolicy) -> ReplayPolicy {
        ReplayPolicy {
            threshold_top: p.threshold_top,
            threshold_mid: p.threshold_mid,
            ..ReplayPolicy::default()
        }
    }

    /// Fingerprint of every decision-relevant knob, used by the score
    /// journal to reject resumption under a different policy.
    pub fn fingerprint(&self) -> u64 {
        let c = &self.controller;
        let repr = format!(
            "{:?}|{:?}|{}|{}|{}|{}|{}|{}",
            self.threshold_top,
            self.threshold_mid,
            c.window_cycles,
            c.alpha,
            c.hysteresis,
            c.probe_interval,
            c.phase_detect,
            self.warmup_windows
        );
        smt_collect::fnv1a(repr.as_bytes())
    }
}

/// Outcome of replaying one trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceReplay {
    /// Trace file name.
    pub trace: String,
    /// Machine tag from the trace header.
    pub machine: String,
    /// Windows replayed.
    pub windows: u64,
    /// Level switches the controller decided on.
    pub switches: u64,
    /// Level the controller settled on after the last window.
    pub final_level: SmtLevel,
    /// Last smoothed metric value observed at the top level.
    pub final_metric: Option<f64>,
    /// Windows spent at each level, in `SmtLevel::ALL` order.
    pub windows_at_level: Vec<(SmtLevel, u64)>,
    /// Post-warmup windows in which the selector wanted each level, in
    /// `SmtLevel::ALL` order.
    pub wanted_at_level: Vec<(SmtLevel, u64)>,
    /// The level the replay converged to: the post-warmup majority of
    /// [`TraceReplay::wanted_at_level`] (ties break to the higher level,
    /// matching the machine's run-at-top default). `None` when the trace
    /// had no post-warmup metric windows.
    pub predicted: Option<SmtLevel>,
}

/// A corpus replay: every trace in a directory under one policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusReport {
    /// Per-trace outcomes, in file-name order.
    pub replays: Vec<TraceReplay>,
    /// Files that failed to replay, as `(name, error)` pairs.
    pub failures: Vec<(String, String)>,
}

/// Build the level selector a machine scores under — the same shape the
/// `smtd` session builds, so replay answers and daemon answers come from
/// identical decision cores.
pub fn selector_for_machine(
    machine: &MachineConfig,
    policy: &ReplayPolicy,
) -> Result<LevelSelector, Error> {
    let levels = machine.smt_levels();
    let top = *levels
        .last()
        .ok_or_else(|| Error::InvalidMachine("machine has no SMT levels".to_string()))?;
    Ok(LevelSelector::ladder(
        top,
        policy.threshold_top,
        policy.threshold_mid,
    ))
}

/// Replay one trace through a fresh controller under `policy`.
pub fn replay_trace(path: &Path, policy: &ReplayPolicy) -> Result<TraceReplay, Error> {
    let mut reader = TraceReader::open(path)?;
    let machine = MachineConfig::by_name(&reader.meta().machine)?;
    let spec = MetricSpec::for_arch(&machine.arch);
    let selector = selector_for_machine(&machine, policy)?;
    let mut ctl = DynamicSmtController::new(selector, spec, policy.controller);
    let tag = reader.meta().machine.clone();
    let mut windows = 0u64;
    let mut switches = 0u64;
    let mut final_level = ctl.top_level();
    let mut final_metric = None;
    let mut at_level = [0u64; SmtLevel::ALL.len()];
    let mut wanted = [0u64; SmtLevel::ALL.len()];
    let mut metric_windows = 0u64;
    while let Some(w) = reader.next()? {
        let decision = ctl.observe(&w);
        windows += 1;
        if decision.switched {
            switches += 1;
        }
        if let Some(m) = decision.metric {
            final_metric = Some(m);
            metric_windows += 1;
            if metric_windows > policy.warmup_windows {
                let want = ctl.selector().recommend(m);
                if let Some(i) = SmtLevel::ALL.iter().position(|l| *l == want) {
                    wanted[i] += 1;
                }
            }
        }
        final_level = decision.level;
        if let Some(i) = SmtLevel::ALL.iter().position(|l| *l == decision.level) {
            at_level[i] += 1;
        }
    }
    // Majority vote, ties to the higher level: iterate descending and
    // keep the first strict maximum.
    let predicted = SmtLevel::ALL
        .iter()
        .copied()
        .zip(wanted)
        .filter(|(_, n)| *n > 0)
        .max_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
        .map(|(l, _)| l);
    Ok(TraceReplay {
        trace: path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string()),
        machine: tag,
        windows,
        switches,
        final_level,
        final_metric,
        windows_at_level: SmtLevel::ALL.iter().copied().zip(at_level).collect(),
        wanted_at_level: SmtLevel::ALL.iter().copied().zip(wanted).collect(),
        predicted,
    })
}

/// Trace files in `dir`, sorted by name for deterministic report order.
pub fn corpus_files(dir: &Path) -> Result<Vec<PathBuf>, Error> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| Error::Io(format!("reading corpus dir {}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == TRACE_EXT))
        .collect();
    files.sort();
    Ok(files)
}

/// Replay every `.smtc` trace in `dir` in parallel. A corrupt or
/// unreadable trace becomes a `failures` entry, not an error for the whole
/// corpus — one bad file must not sink a thousand good ones.
pub fn replay_dir(dir: &Path, policy: &ReplayPolicy) -> Result<CorpusReport, Error> {
    let files = corpus_files(dir)?;
    let outcomes: Vec<(String, Result<TraceReplay, Error>)> = files
        .par_iter()
        .map(|path| {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            (name, replay_trace(path, policy))
        })
        .collect();
    let mut replays = Vec::new();
    let mut failures = Vec::new();
    for (name, outcome) in outcomes {
        match outcome {
            Ok(r) => replays.push(r),
            Err(e) => failures.push((name, e.to_string())),
        }
    }
    Ok(CorpusReport { replays, failures })
}

impl CorpusReport {
    /// Render the corpus outcome as a table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "trace", "machine", "windows", "switches", "final", "metric",
        ]);
        for r in &self.replays {
            t.row(vec![
                r.trace.clone(),
                r.machine.clone(),
                r.windows.to_string(),
                r.switches.to_string(),
                r.final_level.to_string(),
                r.final_metric
                    .map(|m| fnum(m, 4))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        let mut out = format!(
            "corpus: {} trace(s) replayed, {} failed\n\n{}",
            self.replays.len(),
            self.failures.len(),
            t.render()
        );
        for (name, err) in &self.failures {
            out.push_str(&format!("  FAILED {name}: {err}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_collect::{TraceMeta, TraceWriter};
    use smt_sim::Simulation;
    use smt_workloads::{catalog, SyntheticWorkload};

    fn record_sim_trace(path: &Path, windows: u64) -> Result<(), Error> {
        let cfg = MachineConfig::power7(1);
        let nports = cfg.arch.num_ports();
        let mut sim = Simulation::new(
            cfg,
            SmtLevel::Smt4,
            SyntheticWorkload::new(catalog::ep().scaled(1.0)),
        );
        let mut w = TraceWriter::create(
            path,
            TraceMeta {
                machine: "p7".to_string(),
                nports,
                window_cycles: 25_000,
            },
        )?;
        for _ in 0..windows {
            w.append(&sim.measure_window(25_000))?;
        }
        w.finalize()?;
        Ok(())
    }

    #[test]
    fn replaying_a_recorded_sim_trace_works() -> Result<(), Error> {
        let dir = std::env::temp_dir().join("smtc-corpus-test");
        std::fs::create_dir_all(&dir).map_err(|e| Error::Io(e.to_string()))?;
        let path = dir.join("ep-p7.smtc");
        record_sim_trace(&path, 12)?;
        let replay = replay_trace(&path, &ReplayPolicy::default())?;
        assert_eq!(replay.windows, 12);
        assert_eq!(replay.machine, "p7");
        let counted: u64 = replay.windows_at_level.iter().map(|(_, n)| n).sum();
        assert_eq!(counted, 12);
        // 12 top-level windows minus 4 warmup leave 8 voting windows.
        let votes: u64 = replay.wanted_at_level.iter().map(|(_, n)| n).sum();
        assert_eq!(votes, 8);
        assert!(replay.predicted.is_some());

        let report = replay_dir(&dir, &ReplayPolicy::default())?;
        assert!(report.replays.iter().any(|r| r.trace == "ep-p7.smtc"));
        assert!(report.render().contains("ep-p7.smtc"));
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn corrupt_trace_is_a_failure_not_a_crash() -> Result<(), Error> {
        let dir = std::env::temp_dir().join("smtc-corpus-corrupt");
        std::fs::create_dir_all(&dir).map_err(|e| Error::Io(e.to_string()))?;
        let path = dir.join("bad.smtc");
        std::fs::write(&path, b"not a trace at all").map_err(|e| Error::Io(e.to_string()))?;
        let report = replay_dir(&dir, &ReplayPolicy::default())?;
        assert!(report.replays.is_empty());
        assert_eq!(report.failures.len(), 1);
        assert!(report.render().contains("FAILED bad.smtc"));
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn two_level_machines_get_two_level_selectors() -> Result<(), Error> {
        let nhm = MachineConfig::by_name("nhm")?;
        let sel = selector_for_machine(&nhm, &ReplayPolicy::default())?;
        assert_eq!(sel.rungs.len(), 1);
        assert_eq!(sel.rungs[0].0, SmtLevel::Smt2);
        let p7 = MachineConfig::by_name("p7")?;
        let sel = selector_for_machine(&p7, &ReplayPolicy::default())?;
        assert_eq!(sel.rungs.len(), 2);
        assert_eq!(sel.rungs[0].0, SmtLevel::Smt4);
        Ok(())
    }

    #[test]
    fn policy_fingerprint_tracks_thresholds() {
        let a = ReplayPolicy::default();
        let mut b = ReplayPolicy::default();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.threshold_top += 0.01;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
