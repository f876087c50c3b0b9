//! Suite-level data collection.
//!
//! All evaluation figures derive from three underlying datasets — the
//! POWER7-like single-chip suite (Figs. 1, 2, 6-9, 16, 17), the two-chip
//! suite (Figs. 13-15), and the Nehalem-like suite (Figs. 10, 12). Each is
//! collected once per invocation (every benchmark at every supported SMT
//! level) and shared by the figure generators.

use crate::engine::{Engine, RunRequest};
use crate::runner::BenchResult;
use serde::{Deserialize, Serialize};
use smt_sim::{Error, MachineConfig, SmtLevel};
use smt_workloads::catalog;

/// Which evaluation machine a dataset was collected on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Machine {
    /// One 8-core POWER7-like chip (SMT1/2/4).
    Power7OneChip,
    /// Two 8-core POWER7-like chips, 16 cores, NUMA (SMT1/2/4).
    Power7TwoChip,
    /// One 4-core Nehalem-like chip (SMT1/2).
    Nehalem,
}

impl Machine {
    /// Machine configuration.
    pub fn config(self) -> MachineConfig {
        match self {
            Machine::Power7OneChip => MachineConfig::power7(1),
            Machine::Power7TwoChip => MachineConfig::power7(2),
            Machine::Nehalem => MachineConfig::nehalem(),
        }
    }

    /// Evaluation suite for the machine.
    pub fn suite(self) -> Vec<smt_workloads::WorkloadSpec> {
        match self {
            Machine::Power7OneChip | Machine::Power7TwoChip => catalog::power7_suite(),
            Machine::Nehalem => catalog::nehalem_suite(),
        }
    }

    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Machine::Power7OneChip => "AIX-like / 8-core POWER7-like chip",
            Machine::Power7TwoChip => "AIX-like / two 8-core POWER7-like chips",
            Machine::Nehalem => "Linux-like / quad-core Nehalem-like (Core i7)",
        }
    }
}

/// One machine's complete measurement set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteData {
    /// The machine.
    pub machine: Machine,
    /// Work-scale factor applied to every catalog spec.
    pub scale: f64,
    /// Per-benchmark measurements across all supported SMT levels.
    pub results: Vec<BenchResult>,
}

impl SuiteData {
    /// Collect the dataset: every suite benchmark at every supported SMT
    /// level, scaled by `scale` (1.0 = full catalog work sizes), on a
    /// default (parallel, uncached, silent) [`Engine`].
    pub fn collect(machine: Machine, scale: f64) -> Result<SuiteData, Error> {
        SuiteData::collect_with(machine, scale, &Engine::new())
    }

    /// Collect the dataset on a caller-configured engine (cache, progress
    /// sink, serial mode).
    ///
    /// Job failures do not abort the collection: a benchmark whose run
    /// panicked or hit the cycle cap simply lacks that level (see
    /// [`SuiteData::all_completed`]); the sweep's own error list is
    /// reported through the engine's progress sink.
    pub fn collect_with(machine: Machine, scale: f64, engine: &Engine) -> Result<SuiteData, Error> {
        let cfg = machine.config();
        let plan = RunRequest::on(cfg)
            .workloads(machine.suite().into_iter().map(|s| s.scaled(scale)))
            .all_levels()
            .plan()?;
        let sweep = engine.run(&plan);
        Ok(SuiteData {
            machine,
            scale,
            results: sweep.results,
        })
    }

    /// Find one benchmark's results by name.
    pub fn get(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// `(metric@metric_at, speedup hi/lo)` pairs for every benchmark —
    /// the raw material of every scatter figure.
    pub fn scatter_points(
        &self,
        metric_at: SmtLevel,
        hi: SmtLevel,
        lo: SmtLevel,
    ) -> Result<Vec<(String, f64, f64)>, Error> {
        self.results
            .iter()
            .map(|r| Ok((r.name.clone(), r.metric_at(metric_at)?, r.speedup(hi, lo)?)))
            .collect()
    }

    /// All runs completed within their cycle budget.
    pub fn all_completed(&self) -> bool {
        self.results
            .iter()
            .all(|r| r.levels.values().all(|l| l.completed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_configs_and_suites_line_up() {
        assert_eq!(Machine::Power7OneChip.config().total_cores(), 8);
        assert_eq!(Machine::Power7TwoChip.config().total_cores(), 16);
        assert_eq!(Machine::Nehalem.config().total_cores(), 4);
        assert_eq!(Machine::Power7OneChip.suite().len(), 28);
        assert!(Machine::Nehalem.suite().len() >= 20);
        assert!(Machine::Nehalem.label().contains("Nehalem"));
    }

    #[test]
    fn tiny_collection_has_all_levels() {
        let data = SuiteData::collect(Machine::Nehalem, 0.01).unwrap();
        assert_eq!(data.results.len(), Machine::Nehalem.suite().len());
        for r in &data.results {
            assert_eq!(r.levels.len(), 2, "{}", r.name);
        }
        let pts = data
            .scatter_points(SmtLevel::Smt2, SmtLevel::Smt2, SmtLevel::Smt1)
            .unwrap();
        assert_eq!(pts.len(), data.results.len());
    }
}
