//! The Section-V application experiment: dynamic SMT selection driven by
//! the metric, compared against static levels and the IPC-probe baseline,
//! on phase-changing workloads.
//!
//! The paper argues SMTsm "allows adaptively choosing the optimal SMT
//! level for a workload as it goes through different phases"; this
//! experiment quantifies it: each scenario concatenates an SMT-friendly
//! phase with an SMT-hostile one (or vice versa), so no static level is
//! right throughout.

use serde::{Deserialize, Serialize};
use smt_sched::{compare, ControllerConfig, PolicyComparison};
use smt_sim::{Error, MachineConfig, SmtLevel};
use smt_stats::table::{fnum, Table};
use smt_workloads::{catalog, PhasedWorkload, WorkloadSpec};
use smtsm::{LevelSelector, ThresholdPredictor};

/// One phase-changing scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name.
    pub name: String,
    /// Phase spec names, in order.
    pub phases: Vec<String>,
    /// Policy results.
    pub comparison: PolicyComparison,
}

/// Full scheduler-demo result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedDemo {
    /// All scenarios.
    pub scenarios: Vec<Scenario>,
    /// The thresholds the selector used (SMT4-vs-SMT2, SMT2-vs-SMT1).
    pub thresholds: (f64, f64),
}

/// The built-in phase-change scenarios (phases scaled by `scale`).
pub fn scenarios(scale: f64) -> Vec<(String, Vec<WorkloadSpec>)> {
    vec![
        (
            "compute-then-contention".into(),
            vec![
                catalog::ep().scaled(scale),
                catalog::specjbb_contention().scaled(scale),
            ],
        ),
        (
            "contention-then-compute".into(),
            vec![
                catalog::specjbb_contention().scaled(scale),
                catalog::blackscholes().scaled(scale),
            ],
        ),
        (
            "compute-bandwidth-compute".into(),
            vec![
                catalog::ep().scaled(scale * 0.6),
                catalog::swim().scaled(scale * 0.6),
                catalog::bt().scaled(scale * 0.6),
            ],
        ),
    ]
}

/// Run the scheduler demo with thresholds trained elsewhere (e.g. from the
/// fig-6/fig-8 data).
pub fn run(
    scale: f64,
    threshold_top: f64,
    threshold_mid: f64,
    max_cycles: u64,
) -> Result<SchedDemo, Error> {
    let cfg = MachineConfig::power7(1);
    let selector = LevelSelector::three_level(
        ThresholdPredictor::fixed(threshold_top),
        ThresholdPredictor::fixed(threshold_mid),
    );
    let ctl = ControllerConfig {
        window_cycles: 25_000,
        alpha: 0.6,
        hysteresis: 2,
        probe_interval: 8,
        phase_detect: true,
    };
    let mut out = Vec::new();
    for (name, phases) in scenarios(scale) {
        let phase_names: Vec<String> = phases.iter().map(|p| p.name.clone()).collect();
        let comparison = compare(
            &cfg,
            || PhasedWorkload::new(name.clone(), phases.clone()),
            selector.clone(),
            ctl,
            max_cycles,
        )?;
        out.push(Scenario {
            name,
            phases: phase_names,
            comparison,
        });
    }
    Ok(SchedDemo {
        scenarios: out,
        thresholds: (threshold_top, threshold_mid),
    })
}

impl SchedDemo {
    /// Render the comparison table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "scenario",
            "static SMT1",
            "static SMT2",
            "static SMT4",
            "oracle",
            "dynamic",
            "dyn/oracle",
            "IPC-probe",
            "switches",
        ]);
        for s in &self.scenarios {
            let perf_at = |lvl: SmtLevel| {
                s.comparison
                    .static_perf
                    .iter()
                    .find(|(l, _)| *l == lvl)
                    .map(|(_, p)| *p)
                    .unwrap_or(0.0)
            };
            t.row(vec![
                s.name.clone(),
                fnum(perf_at(SmtLevel::Smt1), 2),
                fnum(perf_at(SmtLevel::Smt2), 2),
                fnum(perf_at(SmtLevel::Smt4), 2),
                format!(
                    "{} ({})",
                    fnum(s.comparison.oracle_perf().unwrap_or(f64::NAN), 2),
                    s.comparison.oracle
                ),
                fnum(s.comparison.dynamic.perf, 2),
                fnum(s.comparison.dynamic_vs_oracle().unwrap_or(f64::NAN), 2),
                format!(
                    "{} ({})",
                    fnum(s.comparison.ipc_probe.1, 2),
                    s.comparison.ipc_probe.0
                ),
                s.comparison.dynamic.switches.len().to_string(),
            ]);
        }
        format!(
            "sched: dynamic SMT selection on phase-changing workloads \
             (thresholds {:.3}/{:.3}; perf = work/cycle)\n\n{}",
            self.thresholds.0,
            self.thresholds.1,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_well_formed() {
        let sc = scenarios(0.1);
        assert_eq!(sc.len(), 3);
        for (name, phases) in &sc {
            assert!(!name.is_empty());
            assert!(phases.len() >= 2);
            for p in phases {
                p.validate().unwrap();
            }
        }
    }

    #[test]
    fn demo_runs_and_dynamic_is_reasonable() {
        let demo = run(0.05, 0.10, 0.15, 500_000_000).unwrap();
        assert_eq!(demo.scenarios.len(), 3);
        for s in &demo.scenarios {
            assert!(s.comparison.dynamic.completed, "{} incomplete", s.name);
            assert!(
                s.comparison.dynamic_vs_oracle().unwrap() > 0.6,
                "{}: dynamic at {:.2} of oracle",
                s.name,
                s.comparison.dynamic_vs_oracle().unwrap()
            );
        }
        assert!(demo.render().contains("dyn/oracle"));
    }
}
