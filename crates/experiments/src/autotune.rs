//! Stability-vs-regret evaluation of the closed-loop autotuner.
//!
//! Three questions, one table:
//!
//! 1. **Does closing the loop pay?** On multi-phase workloads no static
//!    level is right throughout; the autotuner should beat the *best*
//!    fixed level end to end.
//! 2. **How close to optimal?** The per-phase oracle
//!    ([`smt_sched::phase_oracle`]) runs every phase at its own best level
//!    with free switches — unachievable online. Regret is how far below
//!    that bound the autotuner lands.
//! 3. **Is it stable?** An adversarial oscillator alternates SMT-friendly
//!    and SMT-hostile phases; without hysteresis + cooldown the actuator
//!    thrashes. The study runs the oscillator twice — tuned policy vs. a
//!    naive no-hysteresis/no-cooldown/no-memory loop — and records both
//!    switch counts next to the policy's hard bound.

use serde::{Deserialize, Serialize};
use smt_autotune::{AutotuneConfig, AutotuneLoop, SimActuator};
use smt_sched::{oracle_sweep, phase_oracle};
use smt_sim::{Error, MachineConfig, Simulation, SmtLevel};
use smt_stats::table::{fnum, Table};
use smt_workloads::{catalog, PhasedWorkload, WorkloadSpec};
use smtsm::{LevelSelector, MetricSpec};

/// One scenario of the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutotuneScenario {
    /// Scenario name.
    pub name: String,
    /// Phase spec names, in order.
    pub phases: Vec<String>,
    /// Built to stress switch stability rather than throughput; excluded
    /// from the mean-regret aggregate (its free-switching oracle is
    /// unachievable by construction) but held to the switch bound.
    pub adversarial: bool,
    /// End-to-end throughput of the full phased run at each fixed level.
    pub static_perf: Vec<(SmtLevel, f64)>,
    /// The best fixed level and its throughput.
    pub best_static: (SmtLevel, f64),
    /// Free-switching per-phase oracle throughput.
    pub oracle_perf: f64,
    /// The oracle's per-phase level choices.
    pub oracle_levels: Vec<SmtLevel>,
    /// Closed-loop throughput (includes every probe and drain).
    pub autotune_perf: f64,
    /// Actuated switches under the tuned policy.
    pub switches: u64,
    /// Switches a naive loop (no hysteresis, no cooldown, no memory)
    /// performs on the same workload.
    pub naive_switches: u64,
    /// Hard policy ceiling on switches: two per cooldown interval
    /// (probe→recall round trips count as one decision).
    pub switch_bound: u64,
    /// Windows the loop observed.
    pub windows: u64,
    /// Probe round trips.
    pub probes: u64,
    /// Phase-memory recalls.
    pub recalls: u64,
    /// Confirmed phase boundaries.
    pub phase_changes: u64,
    /// Cycles lost to reconfiguration drains.
    pub drain_cycles: u64,
    /// The closed-loop run finished the workload.
    pub completed: bool,
}

impl AutotuneScenario {
    /// Closed-loop throughput over the best fixed level.
    pub fn gain_vs_static(&self) -> f64 {
        if self.best_static.1 > 0.0 {
            self.autotune_perf / self.best_static.1
        } else {
            0.0
        }
    }

    /// Fraction of the oracle bound left on the table (0 = matched it).
    pub fn regret(&self) -> f64 {
        if self.oracle_perf > 0.0 {
            (1.0 - self.autotune_perf / self.oracle_perf).max(0.0)
        } else {
            0.0
        }
    }
}

/// Full study output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutotuneStudy {
    /// All scenarios.
    pub scenarios: Vec<AutotuneScenario>,
    /// Mean regret over the non-adversarial scenarios.
    pub mean_regret: f64,
    /// Best gain over the best static level across scenarios.
    pub max_gain: f64,
    /// Selector thresholds used (SMT4-vs-SMT2, SMT2-vs-SMT1).
    pub thresholds: (f64, f64),
    /// The loop policy evaluated.
    pub config: AutotuneConfig,
}

/// The study's scenario suite (phases scaled by `scale`).
///
/// The first three are realistic phase sequences (compute→contention,
/// contention→compute, compute→bandwidth→compute); the last is the
/// adversarial oscillator.
pub fn scenarios(scale: f64) -> Vec<(String, Vec<WorkloadSpec>, bool)> {
    let osc = PhasedWorkloadSpecs::alternating(
        catalog::ep().scaled(scale * 0.35),
        catalog::specjbb_contention().scaled(scale * 0.5),
        4,
    );
    vec![
        (
            "compute-then-contention".into(),
            vec![
                catalog::ep().scaled(scale),
                catalog::specjbb_contention().scaled(scale * 1.4),
            ],
            false,
        ),
        (
            "contention-then-compute".into(),
            vec![
                catalog::specjbb_contention().scaled(scale * 1.4),
                catalog::bt().scaled(scale * 0.7),
            ],
            false,
        ),
        (
            "compute-bandwidth-compute".into(),
            vec![
                catalog::ep().scaled(scale * 0.7),
                catalog::swim().scaled(scale * 0.7),
                catalog::bt().scaled(scale * 0.7),
            ],
            false,
        ),
        ("adversarial-oscillator".into(), osc, true),
    ]
}

/// Helper: the spec list of [`PhasedWorkload::alternating`] without
/// building the workload (the study needs the raw specs for the oracle).
struct PhasedWorkloadSpecs;

impl PhasedWorkloadSpecs {
    fn alternating(a: WorkloadSpec, b: WorkloadSpec, repeats: usize) -> Vec<WorkloadSpec> {
        let mut specs = Vec::with_capacity(repeats * 2);
        for _ in 0..repeats {
            specs.push(a.clone());
            specs.push(b.clone());
        }
        specs
    }
}

fn autotune_run(
    cfg: &MachineConfig,
    name: &str,
    specs: &[WorkloadSpec],
    sel: LevelSelector,
    tune: AutotuneConfig,
    max_cycles: u64,
) -> Result<(smt_autotune::AutotuneSimReport, u64), Error> {
    let w = PhasedWorkload::new(name.to_string(), specs.to_vec());
    let top = *cfg
        .smt_levels()
        .last()
        .ok_or_else(|| Error::InvalidMachine("machine supports no SMT levels".to_string()))?;
    let sim = Simulation::new(cfg.clone(), top, w);
    let mut act = SimActuator::new(sim);
    let mut ctl = AutotuneLoop::new(sel, MetricSpec::power7(), tune)?;
    let report = act.run(&mut ctl, max_cycles)?;
    let drains = act.drain_cycles();
    Ok((report, drains))
}

/// Run the full study. `t_top`/`t_mid` are trained selector thresholds
/// (`repro autotune` trains them from the fig-6/fig-8 sweeps, exactly like
/// the Section-V scheduler demo).
pub fn run(scale: f64, t_top: f64, t_mid: f64, max_cycles: u64) -> Result<AutotuneStudy, Error> {
    let cfg = MachineConfig::power7(1);
    let sel = LevelSelector::ladder(cfg.arch.max_smt, t_top, t_mid);
    // Small windows relative to the scaled-down catalog sizes, so each
    // phase spans ~100 windows just as a production phase would span
    // hundreds of full-size windows.
    let tune = AutotuneConfig {
        window_cycles: 2_000,
        probe_interval: 40,
        ..AutotuneConfig::default()
    };
    let naive = AutotuneConfig {
        hysteresis: 1,
        cooldown: 0,
        warmup: 0,
        memory: false,
        ..tune
    };
    let mut out = Vec::new();
    for (name, specs, adversarial) in scenarios(scale) {
        let phase_names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();

        // Static baselines: the whole phased workload at each fixed level.
        let sweep = oracle_sweep(
            &cfg,
            || PhasedWorkload::new(name.clone(), specs.clone()),
            max_cycles,
        )?;
        if let Some(l) = sweep.levels.iter().find(|l| !l.result.completed) {
            return Err(Error::InvalidMeasurement(format!(
                "{name}: static {} run did not finish within {max_cycles} cycles",
                l.smt
            )));
        }
        let static_perf: Vec<(SmtLevel, f64)> = sweep
            .levels
            .iter()
            .map(|l| (l.smt, l.result.perf()))
            .collect();
        let best_static = (sweep.best, sweep.best_perf()?);

        // Free-switching per-phase oracle.
        let oracle = phase_oracle(&cfg, &specs, max_cycles)?;

        // The closed loop, tuned and naive.
        let (auto, drains) = autotune_run(&cfg, &name, &specs, sel.clone(), tune, max_cycles)?;
        if !auto.completed {
            return Err(Error::InvalidMeasurement(format!(
                "{name}: closed-loop run did not finish within {max_cycles} cycles"
            )));
        }
        let (naive_run, _) = autotune_run(&cfg, &name, &specs, sel.clone(), naive, max_cycles)?;

        // Hard policy ceiling: at most one switch per cooldown interval,
        // doubled because a probe's recall answer rides inside the
        // cooldown (a round trip is one decision).
        let windows = auto.decisions.windows;
        let switch_bound = match windows.checked_div(tune.cooldown) {
            Some(intervals) => 2 * (intervals + 1),
            None => windows,
        };

        out.push(AutotuneScenario {
            name,
            phases: phase_names,
            adversarial,
            static_perf,
            best_static,
            oracle_perf: oracle.perf,
            oracle_levels: oracle.best_levels(),
            autotune_perf: auto.perf,
            switches: auto.decisions.switches,
            naive_switches: naive_run.decisions.switches,
            switch_bound,
            windows,
            probes: auto.decisions.probes,
            recalls: auto.decisions.recalls,
            phase_changes: auto.decisions.phase_changes,
            drain_cycles: drains,
            completed: auto.completed,
        });
    }

    let honest: Vec<&AutotuneScenario> = out.iter().filter(|s| !s.adversarial).collect();
    let mean_regret = if honest.is_empty() {
        0.0
    } else {
        honest.iter().map(|s| s.regret()).sum::<f64>() / honest.len() as f64
    };
    let max_gain = out
        .iter()
        .map(|s| s.gain_vs_static())
        .fold(0.0f64, f64::max);
    Ok(AutotuneStudy {
        scenarios: out,
        mean_regret,
        max_gain,
        thresholds: (t_top, t_mid),
        config: tune,
    })
}

impl AutotuneStudy {
    /// Render the stability-vs-regret table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "scenario",
            "best static",
            "oracle",
            "autotune",
            "gain",
            "regret",
            "switches",
            "naive",
            "bound",
            "recalls",
        ]);
        for s in &self.scenarios {
            t.row(vec![
                if s.adversarial {
                    format!("{} *", s.name)
                } else {
                    s.name.clone()
                },
                format!("{} ({})", fnum(s.best_static.1, 2), s.best_static.0),
                fnum(s.oracle_perf, 2),
                fnum(s.autotune_perf, 2),
                format!("{:+.1}%", (s.gain_vs_static() - 1.0) * 100.0),
                format!("{:.1}%", s.regret() * 100.0),
                s.switches.to_string(),
                s.naive_switches.to_string(),
                s.switch_bound.to_string(),
                s.recalls.to_string(),
            ]);
        }
        format!(
            "autotune: closed-loop phase-aware SMT selection \
             (thresholds {:.3}/{:.3}; perf = work/cycle)\n\n{}\n\
             mean regret vs per-phase oracle (non-adversarial): {:.1}%   \
             best gain over best static level: {:+.1}%\n\
             * adversarial oscillator: judged on switch stability, not regret\n",
            self.thresholds.0,
            self.thresholds.1,
            t.render(),
            self.mean_regret * 100.0,
            (self.max_gain - 1.0) * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_well_formed() {
        let sc = scenarios(0.1);
        assert_eq!(sc.len(), 4);
        let adversarial: Vec<_> = sc.iter().filter(|(_, _, a)| *a).collect();
        assert_eq!(adversarial.len(), 1);
        assert_eq!(adversarial[0].1.len(), 8, "oscillator alternates 4x2");
        for (name, specs, _) in &sc {
            assert!(!name.is_empty());
            assert!(specs.len() >= 2);
            for s in specs {
                s.validate().unwrap();
            }
        }
    }

    #[test]
    #[ignore = "slow: full autotune study; run with --ignored"]
    fn study_meets_the_acceptance_bars() {
        let study = run(0.5, 0.10, 0.15, 4_000_000_000).unwrap();
        eprintln!("{}", study.render());
        assert!(
            study.max_gain >= 1.10,
            "closed loop must beat best static by >= 10% somewhere, got {:+.1}%",
            (study.max_gain - 1.0) * 100.0
        );
        assert!(
            study.mean_regret <= 0.02,
            "mean regret vs per-phase oracle must be <= 2%, got {:.1}%",
            study.mean_regret * 100.0
        );
        for s in &study.scenarios {
            assert!(
                s.switches <= s.switch_bound,
                "{}: {} switches exceed the policy bound {}",
                s.name,
                s.switches,
                s.switch_bound
            );
        }
        let osc = study
            .scenarios
            .iter()
            .find(|s| s.adversarial)
            .expect("oscillator present");
        assert!(
            osc.switches <= osc.naive_switches,
            "hysteresis must not switch more than the naive loop"
        );
    }
}
