//! Placement-allocator accuracy experiment.
//!
//! For each placement scenario suite, simulate every feasible placement
//! (the oracle), then solve the same instance with each search strategy
//! and report the *regret* of the predicted-best placement — how far the
//! measured throughput of the allocator's choice falls below the
//! oracle-best. The acceptance gate for the allocator is a mean regret
//! of at most 10% with the exhaustive search.

use serde::{Deserialize, Serialize};
use smt_sched::allocator::{placement_oracle, scenarios, AllocatorConfig, SearchStrategy};
use smt_sim::Error;
use smt_stats::table::{fnum, Table};
use smtsm::MetricSpec;

/// One (scenario, strategy) result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementRow {
    /// Scenario name.
    pub scenario: String,
    /// Search strategy solved with.
    pub strategy: String,
    /// Model-predicted throughput of the chosen placement (work/cycle).
    pub predicted: f64,
    /// Simulator-measured throughput of the chosen placement.
    pub measured: f64,
    /// Best measured throughput over every feasible placement.
    pub oracle_best: f64,
    /// `1 - measured / oracle_best`.
    pub regret: f64,
    /// Feasible placements the oracle simulated.
    pub candidates: usize,
}

/// The full allocator-accuracy study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementStudy {
    /// One row per (scenario, strategy), scenario-major.
    pub rows: Vec<PlacementRow>,
    /// Mean regret per strategy, in [`strategies`] order.
    pub mean_regret: Vec<(String, f64)>,
}

/// The strategies compared.
pub fn strategies() -> Vec<SearchStrategy> {
    vec![
        SearchStrategy::Greedy,
        SearchStrategy::LocalSearch,
        SearchStrategy::Exhaustive,
    ]
}

/// Run the study over the three scenario suites.
pub fn run() -> Result<PlacementStudy, Error> {
    let spec = MetricSpec::power7();
    let mut rows = Vec::new();
    for sc in scenarios::all() {
        let sigs = sc.signatures(&spec);
        let make_jobs = || sc.make_jobs();
        let oracle = placement_oracle(&sc.cfg, &make_jobs, sc.max_cycles)?;
        let best = oracle.best_perf();
        for strategy in strategies() {
            let outcome = AllocatorConfig::for_machine(sc.cfg.clone())
                .threads(sigs.clone())
                .search(strategy)
                .solve()?;
            let measured = oracle.perf_of(&outcome.placement).ok_or_else(|| {
                Error::InvalidMeasurement(format!(
                    "{}: {strategy:?} produced a placement outside the oracle set",
                    sc.name
                ))
            })?;
            rows.push(PlacementRow {
                scenario: sc.name.to_string(),
                strategy: format!("{strategy:?}"),
                predicted: outcome.predicted,
                measured,
                oracle_best: best,
                regret: oracle.regret(&outcome.placement).unwrap_or(1.0),
                candidates: oracle.candidates.len(),
            });
        }
    }
    let mean_regret = strategies()
        .iter()
        .map(|s| {
            let name = format!("{s:?}");
            let rs: Vec<f64> = rows
                .iter()
                .filter(|r| r.strategy == name)
                .map(|r| r.regret)
                .collect();
            let mean = rs.iter().sum::<f64>() / rs.len().max(1) as f64;
            (name, mean)
        })
        .collect();
    Ok(PlacementStudy { rows, mean_regret })
}

impl PlacementStudy {
    /// Mean regret of the exhaustive search (the acceptance-gated number).
    pub fn exhaustive_mean_regret(&self) -> f64 {
        self.mean_regret
            .iter()
            .find(|(n, _)| n == "Exhaustive")
            .map(|(_, r)| *r)
            .unwrap_or(1.0)
    }

    /// Render as a table plus per-strategy means.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "scenario",
            "strategy",
            "predicted",
            "measured",
            "oracle best",
            "regret",
            "candidates",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.scenario.clone(),
                r.strategy.clone(),
                fnum(r.predicted, 4),
                fnum(r.measured, 4),
                fnum(r.oracle_best, 4),
                format!("{:.1}%", r.regret * 100.0),
                r.candidates.to_string(),
            ]);
        }
        let means: Vec<String> = self
            .mean_regret
            .iter()
            .map(|(n, r)| format!("{n} {:.1}%", r * 100.0))
            .collect();
        format!(
            "placement: allocator vs. simulate-every-placement oracle\n\n{}\nmean regret: {}\n",
            t.render(),
            means.join(", ")
        )
    }
}
