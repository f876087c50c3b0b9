//! The generic "SMTsm vs. speedup" scatter experiment.
//!
//! Figures 6, 8, 9, 10, 11, 12, 13, 14, and 15 are all instances of one
//! template: plot each benchmark's speedup between two SMT levels against
//! the metric measured at some level, learn a threshold, and report how
//! well the threshold separates the winners from the losers. This module
//! implements the template once; `crate::figures` instantiates it per
//! paper figure.

use crate::suite::SuiteData;
use serde::{Deserialize, Serialize};
use smt_sim::{Error, SmtLevel};
use smt_stats::classify::{mispredicted, BinaryConfusion, SpeedupCase};
use smt_stats::corr::{pearson, spearman};
use smt_stats::resample::bootstrap_ci;
use smt_stats::table::{fnum, Table};
use smtsm::gini_sweep;

/// One benchmark's point on a scatter figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScatterPoint {
    /// Benchmark label.
    pub name: String,
    /// SMTsm at the figure's measurement level.
    pub metric: f64,
    /// Speedup `hi/lo`.
    pub speedup: f64,
}

/// A fully evaluated scatter figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScatterFigure {
    /// Figure id ("fig6", ...).
    pub id: String,
    /// Human title, mirroring the paper's caption.
    pub title: String,
    /// SMT level the metric was measured at.
    pub metric_at: SmtLevel,
    /// Speedup numerator level.
    pub hi: SmtLevel,
    /// Speedup denominator level.
    pub lo: SmtLevel,
    /// The points.
    pub points: Vec<ScatterPoint>,
    /// Gini-learned threshold (midpoint of the optimal range).
    pub threshold: f64,
    /// Optimal-threshold range from the Gini sweep.
    pub threshold_range: (f64, f64),
    /// Minimum Gini impurity achieved.
    pub min_impurity: f64,
    /// Prediction success rate at the learned threshold.
    pub accuracy: f64,
    /// Benchmarks mispredicted at the learned threshold.
    pub mispredicted: Vec<String>,
    /// Pearson correlation between metric and speedup.
    pub pearson_r: Option<f64>,
    /// Spearman rank correlation.
    pub spearman_rho: Option<f64>,
    /// Bootstrap 95% confidence interval on the (retrained) prediction
    /// accuracy — how solid the success rate is over this benchmark sample.
    pub accuracy_ci: Option<smt_stats::ConfidenceInterval>,
}

impl ScatterFigure {
    /// Evaluate the template over a dataset.
    ///
    /// Fails with [`Error::MissingLevel`] when a benchmark lacks a
    /// measurement at one of the requested levels (e.g. its job failed in
    /// the engine sweep that collected `data`).
    pub fn evaluate(
        id: &str,
        title: &str,
        data: &SuiteData,
        metric_at: SmtLevel,
        hi: SmtLevel,
        lo: SmtLevel,
    ) -> Result<ScatterFigure, Error> {
        let points: Vec<ScatterPoint> = data
            .scatter_points(metric_at, hi, lo)?
            .into_iter()
            .map(|(name, metric, speedup)| ScatterPoint {
                name,
                metric,
                speedup,
            })
            .collect();
        let cases: Vec<SpeedupCase> = points
            .iter()
            .map(|p| SpeedupCase::new(p.name.clone(), p.metric, p.speedup))
            .collect();
        let sweep = gini_sweep(&cases);
        let threshold = sweep.best_separator();
        let confusion = BinaryConfusion::score(&cases, threshold);
        let xs: Vec<f64> = points.iter().map(|p| p.metric).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.speedup).collect();
        // Bootstrap the whole train-and-score pipeline: each resample
        // relearns its own threshold, so the interval reflects threshold
        // instability too.
        let accuracy_ci = bootstrap_ci(
            &cases,
            |sample| {
                // A single-class resample has no well-posed threshold;
                // condition the interval on both classes being present.
                let higher = sample.iter().filter(|c| c.prefers_higher()).count();
                if higher == 0 || higher == sample.len() {
                    return None;
                }
                let t = gini_sweep(sample).best_separator();
                Some(BinaryConfusion::score(sample, t).accuracy())
            },
            400,
            0.95,
            0x5eed,
        );
        Ok(ScatterFigure {
            id: id.to_string(),
            title: title.to_string(),
            metric_at,
            hi,
            lo,
            threshold,
            threshold_range: sweep.optimal_range,
            min_impurity: sweep.min_impurity,
            accuracy: confusion.accuracy(),
            mispredicted: mispredicted(&cases, threshold)
                .into_iter()
                .map(String::from)
                .collect(),
            pearson_r: pearson(&xs, &ys),
            spearman_rho: spearman(&xs, &ys),
            accuracy_ci,
            points,
        })
    }

    /// The labeled cases (for threshold-method figures and success tables).
    pub fn cases(&self) -> Vec<SpeedupCase> {
        self.points
            .iter()
            .map(|p| SpeedupCase::new(p.name.clone(), p.metric, p.speedup))
            .collect()
    }

    /// CSV of the points (benchmark, metric, speedup, side, prefers).
    pub fn to_csv(&self) -> String {
        let mut t = Table::new(vec!["benchmark", "metric", "speedup", "side", "prefers"]);
        for p in &self.points {
            t.row(vec![
                p.name.clone(),
                format!("{:.6}", p.metric),
                format!("{:.6}", p.speedup),
                if p.metric < self.threshold {
                    "left"
                } else {
                    "right"
                }
                .to_string(),
                if p.speedup >= 1.0 {
                    self.hi.to_string()
                } else {
                    self.lo.to_string()
                },
            ]);
        }
        t.to_csv()
    }

    /// Render the figure as the paper-style data table plus summary lines.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "benchmark",
            &format!("SMTsm@{}", self.metric_at),
            &format!("{}/{} speedup", self.hi, self.lo),
            "side",
            "prefers",
        ]);
        let mut sorted = self.points.clone();
        sorted.sort_by(|a, b| a.metric.total_cmp(&b.metric));
        for p in &sorted {
            t.row(vec![
                p.name.clone(),
                fnum(p.metric, 4),
                fnum(p.speedup, 3),
                if p.metric < self.threshold {
                    "left"
                } else {
                    "right"
                }
                .to_string(),
                if p.speedup >= 1.0 {
                    self.hi.to_string()
                } else {
                    self.lo.to_string()
                },
            ]);
        }
        let plot = crate::plot::ascii_scatter(
            &self
                .points
                .iter()
                .map(|p| (p.metric, p.speedup))
                .collect::<Vec<_>>(),
            64,
            16,
            Some(self.threshold),
            Some(1.0),
            &format!("SMTsm@{}", self.metric_at),
            &format!("{}/{} speedup", self.hi, self.lo),
        );
        let mut out = format!("{}: {}\n\n{}\n{}", self.id, self.title, plot, t.render());
        out.push_str(&format!(
            "\nthreshold = {:.4} (optimal range {:.4}..{:.4}, min impurity {:.3})\n",
            self.threshold, self.threshold_range.0, self.threshold_range.1, self.min_impurity
        ));
        out.push_str(&format!(
            "success rate = {:.1}% ({} mispredicted: {})\n",
            self.accuracy * 100.0,
            self.mispredicted.len(),
            if self.mispredicted.is_empty() {
                "none".to_string()
            } else {
                self.mispredicted.join(", ")
            }
        ));
        if let (Some(r), Some(rho)) = (self.pearson_r, self.spearman_rho) {
            out.push_str(&format!("pearson r = {r:.3}, spearman rho = {rho:.3}\n"));
        }
        if let Some(ci) = self.accuracy_ci {
            out.push_str(&format!(
                "bootstrap 95% CI on retrained accuracy: {:.1}%..{:.1}%\n",
                ci.lo * 100.0,
                ci.hi * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{BenchResult, LevelMeasurement};
    use crate::suite::Machine;
    use smtsm::SmtsmFactors;
    use std::collections::BTreeMap;

    fn fake_level(smt: SmtLevel, perf: f64, metric: f64) -> LevelMeasurement {
        LevelMeasurement {
            smt,
            perf,
            cycles: 1000,
            completed: true,
            factors: SmtsmFactors {
                mix_deviation: metric,
                disp_held: 1.0,
                scalability: 1.0,
            },
            naive: [0.0; 4],
        }
    }

    fn fake_data() -> SuiteData {
        // Two SMT4-winners with low metric, two losers with high metric.
        let mk = |name: &str, s41: f64, metric: f64| {
            let mut levels = BTreeMap::new();
            levels.insert(SmtLevel::Smt1, fake_level(SmtLevel::Smt1, 1.0, metric));
            levels.insert(
                SmtLevel::Smt2,
                fake_level(SmtLevel::Smt2, (1.0 + s41) / 2.0, metric),
            );
            levels.insert(SmtLevel::Smt4, fake_level(SmtLevel::Smt4, s41, metric));
            BenchResult {
                name: name.into(),
                levels,
            }
        };
        SuiteData {
            machine: Machine::Power7OneChip,
            scale: 1.0,
            results: vec![
                mk("win-a", 1.8, 0.01),
                mk("win-b", 1.4, 0.03),
                mk("lose-a", 0.7, 0.20),
                mk("lose-b", 0.4, 0.35),
            ],
        }
    }

    #[test]
    fn evaluate_learns_a_separating_threshold() {
        let fig = ScatterFigure::evaluate(
            "figX",
            "test",
            &fake_data(),
            SmtLevel::Smt4,
            SmtLevel::Smt4,
            SmtLevel::Smt1,
        )
        .unwrap();
        assert_eq!(fig.points.len(), 4);
        assert_eq!(fig.accuracy, 1.0);
        assert!(fig.threshold > 0.03 && fig.threshold < 0.20);
        assert!(fig.mispredicted.is_empty());
        assert!(
            fig.pearson_r.unwrap() < -0.5,
            "negative correlation expected"
        );
    }

    #[test]
    fn render_contains_all_points_and_summary() {
        let fig = ScatterFigure::evaluate(
            "fig6",
            "test render",
            &fake_data(),
            SmtLevel::Smt4,
            SmtLevel::Smt4,
            SmtLevel::Smt1,
        )
        .unwrap();
        let s = fig.render();
        for name in ["win-a", "win-b", "lose-a", "lose-b"] {
            assert!(s.contains(name), "missing {name} in render");
        }
        assert!(s.contains("threshold ="));
        assert!(s.contains("success rate = 100.0%"));
    }

    #[test]
    fn cases_roundtrip() {
        let fig = ScatterFigure::evaluate(
            "fig6",
            "t",
            &fake_data(),
            SmtLevel::Smt4,
            SmtLevel::Smt4,
            SmtLevel::Smt1,
        )
        .unwrap();
        let cases = fig.cases();
        assert_eq!(cases.len(), 4);
        assert_eq!(cases[0].name, "win-a");
    }
}
