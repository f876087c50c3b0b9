//! Simulator self-profiler behind `repro perf`.
//!
//! Runs a fixed matrix of catalog workloads × SMT levels × machine sizes
//! through [`Simulation::run_cycles_profiled`], which splits every
//! core-step into six pipeline phases (see [`smt_sim::profile`]), and
//! wraps the sweep in self-attached hardware counters where the host
//! permits. The result is a per-case phase table plus flamegraph-ready
//! folded stacks. End-to-end speed is measured by the repository
//! benchmark (`BENCHMARK.json`), not here.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};
use smt_sim::{MachineConfig, Simulation, SmtLevel};
use smt_workloads::{catalog, SyntheticWorkload, WorkloadSpec};

/// Cycles simulated before the profiled window, so cold-start effects
/// (empty caches, empty queues) don't pollute the steady-state shares.
const WARMUP_CYCLES: u64 = 2_000;

/// Knobs for [`run_profile`].
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Label stored on the resulting [`ProfiledRun`].
    pub label: String,
    /// Simulated cycles in each profiled window.
    pub window: u64,
}

impl PerfOptions {
    /// Full-fidelity settings: 100k-cycle windows.
    pub fn full() -> PerfOptions {
        PerfOptions {
            label: "local".to_string(),
            window: 100_000,
        }
    }

    /// Quick settings for CI smoke runs: 20k-cycle windows.
    pub fn quick() -> PerfOptions {
        PerfOptions {
            label: "quick".to_string(),
            window: 20_000,
        }
    }

    /// Replace the label, builder-style.
    pub fn label(mut self, label: impl Into<String>) -> PerfOptions {
        self.label = label.into();
        self
    }
}

/// One row of the fixed measurement matrix.
struct PerfCase {
    bench: &'static str,
    machine: fn() -> MachineConfig,
    smt: SmtLevel,
    spec: fn() -> WorkloadSpec,
}

/// The measurement matrix: EP across SMT levels, a compute/memory/contended
/// trio at SMT4, and a two-chip machine.
fn matrix() -> Vec<PerfCase> {
    fn p7() -> MachineConfig {
        MachineConfig::power7(1)
    }
    fn p7x2() -> MachineConfig {
        MachineConfig::power7(2)
    }
    let case = |bench, machine, smt, spec| PerfCase {
        bench,
        machine,
        smt,
        spec,
    };
    vec![
        case("p7_ep", p7, SmtLevel::Smt1, catalog::ep),
        case("p7_ep", p7, SmtLevel::Smt2, catalog::ep),
        case("p7_ep", p7, SmtLevel::Smt4, catalog::ep),
        case("p7_blackscholes", p7, SmtLevel::Smt4, catalog::blackscholes),
        case("p7_stream", p7, SmtLevel::Smt4, catalog::stream),
        case(
            "p7_specjbb_contention",
            p7,
            SmtLevel::Smt4,
            catalog::specjbb_contention,
        ),
        case("p7x2_mg", p7x2, SmtLevel::Smt4, catalog::mg),
    ]
}

/// Phase breakdown of one matrix case from a profiled sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfiledCase {
    /// Case name, e.g. `p7_ep`.
    pub bench: String,
    /// Hardware threads per core during the measurement.
    pub smt: usize,
    /// Simulated cycles in the profiled window.
    pub cycles: u64,
    /// Core-steps timed (one per core per non-skipped cycle).
    pub steps: u64,
    /// `(phase, ticks)` rows in pipeline order.
    pub phase_ticks: Vec<(String, u64)>,
}

/// A full self-profiled sweep of the perf matrix: per-case phase tick
/// breakdowns plus, where the host PMU allows, hardware cycle/instruction
/// totals for the whole sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfiledRun {
    /// Human-chosen label naming the run (and its artifact files).
    pub label: String,
    /// Calibrated tick rate, for converting phase ticks to seconds.
    pub ticks_per_sec: f64,
    /// Per-case phase breakdowns.
    pub cases: Vec<ProfiledCase>,
    /// Phase totals summed across all cases.
    pub total: Vec<(String, u64)>,
    /// Hardware CPU cycles over the sweep (multiplex-scaled), if the PMU
    /// was readable; `None` on locked-down hosts.
    pub hw_cycles: Option<u64>,
    /// Hardware retired instructions over the sweep, if readable.
    pub hw_instructions: Option<u64>,
}

impl ProfiledRun {
    /// Render the sweep as folded stacks (`frame;frame;frame ticks`), the
    /// input format of flamegraph tooling: one line per case × phase under
    /// a common `smtsim` root.
    pub fn folded(&self) -> String {
        let mut s = String::new();
        for case in &self.cases {
            for (phase, ticks) in &case.phase_ticks {
                if *ticks > 0 {
                    let _ = writeln!(s, "smtsim;{}/smt{};{phase} {ticks}", case.bench, case.smt);
                }
            }
        }
        s
    }

    /// Render a human-readable table: per-case phase shares plus the
    /// sweep-wide totals and (when present) hardware counts.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "profiled run `{}`", self.label);
        for case in &self.cases {
            let total: u64 = case.phase_ticks.iter().map(|(_, t)| *t).sum();
            let total = total.max(1);
            let _ = writeln!(
                s,
                "  {}/smt{}: {} cycles, {} core-steps",
                case.bench, case.smt, case.cycles, case.steps
            );
            for (phase, ticks) in &case.phase_ticks {
                let _ = writeln!(
                    s,
                    "    {phase:<12} {:>14} ticks  {:>5.1}%",
                    ticks,
                    *ticks as f64 / total as f64 * 100.0
                );
            }
        }
        let grand: u64 = self.total.iter().map(|(_, t)| *t).sum();
        let grand = grand.max(1);
        let _ = writeln!(s, "  sweep total ({:.2e} ticks/sec):", self.ticks_per_sec);
        for (phase, ticks) in &self.total {
            let _ = writeln!(
                s,
                "    {phase:<12} {:>14} ticks  {:>5.1}%  (~{:.3}s)",
                ticks,
                *ticks as f64 / grand as f64 * 100.0,
                *ticks as f64 / self.ticks_per_sec
            );
        }
        match (self.hw_cycles, self.hw_instructions) {
            (Some(c), Some(i)) => {
                let _ = writeln!(
                    s,
                    "  hardware: {c} cpu-cycles, {i} instructions ({:.2} IPC)",
                    i as f64 / c.max(1) as f64
                );
            }
            (Some(c), None) => {
                let _ = writeln!(s, "  hardware: {c} cpu-cycles");
            }
            (None, Some(i)) => {
                let _ = writeln!(s, "  hardware: {i} instructions");
            }
            (None, None) => {
                let _ = writeln!(s, "  hardware: PMU unavailable (perf_event_paranoid?)");
            }
        }
        s
    }
}

/// Run the matrix once per case under the phase profiler, producing a
/// [`ProfiledRun`]. One pass per case is enough: phase *shares* are
/// robust to host noise even when absolute rates are not. The whole
/// sweep is wrapped in self-attached hardware counters where the host
/// permits.
pub fn run_profile(opts: &PerfOptions) -> ProfiledRun {
    let counters = smt_collect::SelfCounters::open();
    let mut cases = Vec::new();
    let mut total = smt_sim::PhaseProfile::default();
    for case in matrix() {
        let mut sim = Simulation::new(
            (case.machine)(),
            case.smt,
            SyntheticWorkload::new((case.spec)()),
        );
        sim.run_cycles(WARMUP_CYCLES);
        let mut prof = smt_sim::PhaseProfile::default();
        let cycles = sim.run_cycles_profiled(opts.window, &mut prof);
        total.merge(&prof);
        cases.push(ProfiledCase {
            bench: case.bench.to_string(),
            smt: case.smt.ways(),
            cycles,
            steps: prof.steps,
            phase_ticks: prof
                .phases()
                .iter()
                .map(|(label, t)| (label.to_string(), *t))
                .collect(),
        });
    }
    ProfiledRun {
        label: opts.label.clone(),
        ticks_per_sec: smt_sim::ticks_per_sec(),
        cases,
        total: total
            .phases()
            .iter()
            .map(|(label, t)| (label.to_string(), *t))
            .collect(),
        hw_cycles: counters.cycles().map(|c| c.value),
        hw_instructions: counters.instructions().map(|c| c.value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_measures_every_case() {
        let opts = PerfOptions {
            label: "unit".to_string(),
            window: 500,
        };
        let run = run_profile(&opts);
        assert_eq!(run.cases.len(), matrix().len());
        for c in &run.cases {
            assert!(c.cycles > 0, "{} simulated nothing", c.bench);
            assert!(c.steps > 0, "{} timed no core-steps", c.bench);
        }
        assert!(!run.folded().is_empty());
    }
}
