//! The dynamic SMT-level controller (Section V).
//!
//! The controller runs the machine at its top SMT level by default (as all
//! SMT-capable systems do), samples SMTsm periodically from the hardware
//! counters, and drops to a lower level when the trained selector says the
//! workload prefers one — with hysteresis so a single noisy window cannot
//! flap the machine. Because the metric is only meaningful at the *top*
//! level (Figs. 11/12: measured at SMT1 it cannot foresee contention), the
//! controller re-probes the top level periodically while parked at a lower
//! one, which is also what lets it follow phase changes.

use serde::{Deserialize, Serialize};
use smt_sim::{Simulation, SmtLevel, WindowMeasurement, Workload};
use smtsm::{LevelSelector, MetricSpec, OnlineSampler, PhaseDetector};

/// Controller tuning knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Counter-sampling window length in cycles.
    pub window_cycles: u64,
    /// EWMA smoothing factor for the sampler (1.0 = none).
    pub alpha: f64,
    /// Consecutive windows that must agree before switching levels.
    pub hysteresis: u64,
    /// While parked below the top level, re-probe the top level after this
    /// many windows.
    pub probe_interval: u64,
    /// Watch machine IPC while parked and probe the top level immediately
    /// when a phase change is detected, instead of waiting out the probe
    /// interval.
    pub phase_detect: bool,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            window_cycles: 50_000,
            alpha: 0.5,
            hysteresis: 2,
            probe_interval: 8,
            phase_detect: true,
        }
    }
}

/// One entry in the controller's decision log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchEvent {
    /// Cycle at which the switch was initiated.
    pub at_cycle: u64,
    /// Level switched to.
    pub to: SmtLevel,
    /// Smoothed metric value that triggered the decision (None for probe
    /// returns to the top level).
    pub metric: Option<f64>,
}

/// Outcome of a controller-managed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControllerReport {
    /// Total cycles elapsed.
    pub cycles: u64,
    /// Work completed.
    pub work_done: u64,
    /// Work per cycle over the whole managed run.
    pub perf: f64,
    /// The workload ran to completion.
    pub completed: bool,
    /// Level-switch log.
    pub switches: Vec<SwitchEvent>,
    /// Sampling windows taken.
    pub windows: u64,
}

/// What the controller wants after observing one counter window — the
/// streaming analogue of one iteration of [`DynamicSmtController::run`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamDecision {
    /// Level the machine should run at for the next window.
    pub level: SmtLevel,
    /// Smoothed metric value, when the window was measured at the top
    /// level (the only place the metric is meaningful).
    pub metric: Option<f64>,
    /// This window triggered a level switch.
    pub switched: bool,
    /// The switch (if any) is a probe return to the top level rather than
    /// a metric-driven decision.
    pub probe: bool,
}

/// Samples the metric online and reconfigures the machine's SMT level.
#[derive(Debug, Clone)]
pub struct DynamicSmtController {
    selector: LevelSelector,
    sampler: OnlineSampler,
    cfg: ControllerConfig,
    /// Candidate level and how many consecutive windows recommended it.
    pending: Option<(SmtLevel, u64)>,
    /// Windows spent parked below the top level since the last probe.
    parked_windows: u64,
    /// IPC watcher used while parked (phase_detect).
    detector: PhaseDetector,
}

impl DynamicSmtController {
    /// Build a controller from a trained selector.
    pub fn new(selector: LevelSelector, spec: MetricSpec, cfg: ControllerConfig) -> Self {
        DynamicSmtController {
            selector,
            sampler: OnlineSampler::new(spec, cfg.window_cycles, cfg.alpha),
            cfg,
            pending: None,
            parked_windows: 0,
            detector: PhaseDetector::new(0.4, 0.5, 3),
        }
    }

    /// Fold one counter window into the controller and decide what level
    /// the machine should run at next. The window carries the level it was
    /// measured at (`m.smt`); windows at the top level feed the metric,
    /// windows below it feed only the parked IPC phase watcher.
    ///
    /// This is the whole decision core: [`run`] drives it from an owned
    /// `Simulation`, while a recommendation daemon drives it from counter
    /// snapshots streamed by remote clients — both see identical decisions
    /// for identical window streams.
    ///
    /// [`run`]: DynamicSmtController::run
    pub fn observe(&mut self, m: &WindowMeasurement) -> StreamDecision {
        let top = self.top_level();
        if m.smt == top {
            let (metric, _) = self.sampler.push_window(m);
            let want = self.selector.recommend(metric);
            if want != m.smt {
                let n = match self.pending {
                    Some((lvl, n)) if lvl == want => n + 1,
                    _ => 1,
                };
                self.pending = Some((want, n));
                if n >= self.cfg.hysteresis {
                    self.sampler.reset();
                    self.detector.reset();
                    self.pending = None;
                    self.parked_windows = 0;
                    return StreamDecision {
                        level: want,
                        metric: Some(metric),
                        switched: true,
                        probe: false,
                    };
                }
            } else {
                self.pending = None;
            }
            StreamDecision {
                level: top,
                metric: Some(metric),
                switched: false,
                probe: false,
            }
        } else {
            // Parked at a lower level: the metric is not meaningful down
            // here (Figs. 11/12), so watch only the IPC for phase changes,
            // and periodically re-probe the top level regardless.
            self.parked_windows += 1;
            let phase_changed = self.cfg.phase_detect && self.detector.push(m.ipc());
            if phase_changed || self.parked_windows >= self.cfg.probe_interval {
                self.sampler.reset();
                self.detector.reset();
                self.parked_windows = 0;
                StreamDecision {
                    level: top,
                    metric: None,
                    switched: true,
                    probe: true,
                }
            } else {
                StreamDecision {
                    level: m.smt,
                    metric: None,
                    switched: false,
                    probe: false,
                }
            }
        }
    }

    /// Drive `sim` until the workload finishes or `max_cycles` elapse,
    /// sampling and switching as configured. The simulation should start at
    /// the machine's top SMT level.
    pub fn run<W: Workload>(
        &mut self,
        sim: &mut Simulation<W>,
        max_cycles: u64,
    ) -> ControllerReport {
        let start = sim.now();
        let mut switches = Vec::new();
        let mut windows = 0u64;

        while !sim.finished() && sim.now() - start < max_cycles {
            let m = sim.measure_window(self.cfg.window_cycles);
            windows += 1;
            if sim.finished() {
                // The window that completes the run decides nothing: a
                // switch now would only burn drain cycles.
                break;
            }
            let d = self.observe(&m);
            if d.switched {
                sim.reconfigure(d.level);
                switches.push(SwitchEvent {
                    at_cycle: sim.now(),
                    to: d.level,
                    metric: d.metric,
                });
            }
        }

        let cycles = sim.now() - start;
        ControllerReport {
            cycles,
            work_done: sim.workload().work_done(),
            perf: if cycles > 0 {
                sim.workload().work_done() as f64 / cycles as f64
            } else {
                0.0
            },
            completed: sim.finished(),
            switches,
            windows,
        }
    }

    /// The highest level the selector knows about.
    pub fn top_level(&self) -> SmtLevel {
        self.selector
            .rungs
            .first()
            .map(|(l, _)| *l)
            .unwrap_or(self.selector.floor)
    }

    /// The trained selector driving decisions.
    pub fn selector(&self) -> &LevelSelector {
        &self.selector
    }

    /// The controller's tuning knobs.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// The online sampler (exposes the current smoothed metric).
    pub fn sampler(&self) -> &OnlineSampler {
        &self.sampler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::MachineConfig;
    use smt_workloads::{catalog, SyntheticWorkload};
    use smtsm::ThresholdPredictor;

    fn selector() -> LevelSelector {
        LevelSelector::three_level(
            ThresholdPredictor::fixed(0.05),
            ThresholdPredictor::fixed(0.10),
        )
    }

    fn small_cfg() -> ControllerConfig {
        ControllerConfig {
            window_cycles: 10_000,
            alpha: 0.6,
            hysteresis: 2,
            probe_interval: 6,
            phase_detect: true,
        }
    }

    #[test]
    fn scalable_workload_stays_at_top_level() {
        let w = SyntheticWorkload::new(catalog::ep().scaled(0.15));
        let mut sim = Simulation::new(MachineConfig::power7(1), SmtLevel::Smt4, w);
        let mut ctl = DynamicSmtController::new(selector(), MetricSpec::power7(), small_cfg());
        let report = ctl.run(&mut sim, 50_000_000);
        assert!(report.completed);
        assert!(
            report.switches.is_empty(),
            "EP must not trigger switches: {:?}",
            report.switches
        );
    }

    #[test]
    fn contended_workload_switches_down() {
        let w = SyntheticWorkload::new(catalog::specjbb_contention().scaled(0.4));
        let mut sim = Simulation::new(MachineConfig::power7(1), SmtLevel::Smt4, w);
        let mut ctl = DynamicSmtController::new(selector(), MetricSpec::power7(), small_cfg());
        let report = ctl.run(&mut sim, 100_000_000);
        assert!(report.completed);
        assert!(
            report.switches.iter().any(|s| s.to < SmtLevel::Smt4),
            "heavy contention must switch down: {:?}",
            report.switches
        );
    }

    #[test]
    fn controller_reports_progress() {
        let w = SyntheticWorkload::new(catalog::mg().scaled(0.05));
        let total = {
            use smt_sim::Workload as _;
            w.total_work()
        };
        let mut sim = Simulation::new(MachineConfig::power7(1), SmtLevel::Smt4, w);
        let mut ctl = DynamicSmtController::new(selector(), MetricSpec::power7(), small_cfg());
        let report = ctl.run(&mut sim, 100_000_000);
        assert!(report.completed);
        assert_eq!(report.work_done, total);
        assert!(report.perf > 0.0);
        assert!(report.windows > 0);
    }

    #[test]
    fn streamed_windows_match_sim_driven_run() {
        // Drive one controller from an owned simulation via run(), and a
        // second from the window stream the first one saw, via observe().
        // Decisions must be identical — this is what lets a daemon serve
        // remote clients with the exact offline decision core.
        let spec = catalog::specjbb_contention().scaled(0.3);
        let mut sim = Simulation::new(
            MachineConfig::power7(1),
            SmtLevel::Smt4,
            SyntheticWorkload::new(spec.clone()),
        );
        let mut replica = DynamicSmtController::new(selector(), MetricSpec::power7(), small_cfg());

        // Re-implement run()'s loop, capturing each window and feeding it
        // to the replica before applying the original decision to the sim.
        let mut ctl = DynamicSmtController::new(selector(), MetricSpec::power7(), small_cfg());
        let top = ctl.top_level();
        let mut switches = Vec::new();
        let mut replica_level = top;
        while !sim.finished() && sim.now() < 100_000_000 {
            let m = sim.measure_window(ctl.config().window_cycles);
            if sim.finished() {
                break;
            }
            let d = ctl.observe(&m);
            let r = replica.observe(&m);
            assert_eq!(d, r, "replica diverged");
            replica_level = r.level;
            if d.switched {
                sim.reconfigure(d.level);
                switches.push(d.level);
            }
        }
        assert!(
            switches.iter().any(|&l| l < SmtLevel::Smt4),
            "contended stream must switch down: {switches:?}"
        );
        assert_eq!(replica_level, sim.smt());
    }

    /// Gafort and Dedup at the default config once switched on the very
    /// window that finished them; no switch may land at or after the
    /// run's last cycle.
    #[test]
    fn the_completing_window_switches_nothing() {
        for spec in [catalog::gafort().scaled(0.3), catalog::dedup().scaled(0.3)] {
            let mut sim = Simulation::new(
                MachineConfig::power7(1),
                SmtLevel::Smt4,
                SyntheticWorkload::new(spec),
            );
            let selector = LevelSelector::ladder(
                SmtLevel::Smt4,
                smtsm::DEFAULT_THRESHOLD_TOP,
                smtsm::DEFAULT_THRESHOLD_MID,
            );
            let mut ctl = DynamicSmtController::new(
                selector,
                MetricSpec::power7(),
                ControllerConfig::default(),
            );
            let report = ctl.run(&mut sim, 100_000_000);
            assert!(report.completed);
            assert!(
                report.switches.iter().all(|s| s.at_cycle < report.cycles),
                "switch at completion in a {}-cycle run: {:?}",
                report.cycles,
                report.switches
            );
        }
    }

    #[test]
    fn top_level_from_selector() {
        let ctl = DynamicSmtController::new(selector(), MetricSpec::power7(), small_cfg());
        assert_eq!(ctl.top_level(), SmtLevel::Smt4);
    }
}
