//! Trained SMT-preference predictors.
//!
//! A [`ThresholdPredictor`] wraps a learned metric threshold: workloads
//! measuring below it are predicted to prefer the higher SMT level. A
//! [`LevelSelector`] composes pairwise predictors into a full SMT-level
//! recommendation for machines with more than two levels (POWER7's
//! SMT1/SMT2/SMT4).

use crate::threshold::{gini_sweep, PpiSweep};
use serde::{Deserialize, Serialize};
use smt_sim::SmtLevel;
use smt_stats::classify::{BinaryConfusion, SpeedupCase};

/// Shipped default top-rung threshold: SMT4-vs-lower on three-level
/// machines, SMT2-vs-SMT1 on two-level machines.
///
/// This is the untrained fallback every consumer starts from — the
/// `smtselect` CLI's `--threshold` default, the corpus scorer's
/// [`crate::LevelSelector`] rungs, and the daemon's session spec default
/// all resolve here, so "what policy does the repo score under when
/// nobody trained one" has exactly one answer. `smtselect train` prints
/// its learned thresholds next to these constants (and embeds both in its
/// `--out` JSON) so drift between training output and scoring defaults is
/// visible, never silent.
pub const DEFAULT_THRESHOLD_TOP: f64 = 0.15;

/// Shipped default mid-rung threshold (SMT2-vs-SMT1 on three-level
/// machines). See [`DEFAULT_THRESHOLD_TOP`] for the sharing contract.
pub const DEFAULT_THRESHOLD_MID: f64 = 0.20;

/// Predicted preference between two adjacent SMT levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SmtPreference {
    /// The higher SMT level is predicted to perform at least as well.
    Higher,
    /// The lower SMT level is predicted to perform better.
    Lower,
}

/// How a threshold was learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainingMethod {
    /// Gini-impurity minimization (Section V-A).
    Gini,
    /// Average-PPI maximization (Section V-B).
    Ppi,
}

/// A binary higher-vs-lower SMT predictor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdPredictor {
    /// The learned threshold.
    pub threshold: f64,
    /// How it was trained.
    pub method: TrainingMethod,
}

impl ThresholdPredictor {
    /// Use a fixed threshold (e.g. the paper's 0.07 for POWER7 SMT4/SMT1).
    pub fn fixed(threshold: f64) -> ThresholdPredictor {
        ThresholdPredictor {
            threshold,
            method: TrainingMethod::Gini,
        }
    }

    /// Train with the Gini-impurity method.
    pub fn train_gini(cases: &[SpeedupCase]) -> ThresholdPredictor {
        ThresholdPredictor {
            threshold: gini_sweep(cases).best_separator(),
            method: TrainingMethod::Gini,
        }
    }

    /// Train with the average-PPI method.
    pub fn train_ppi(cases: &[SpeedupCase]) -> ThresholdPredictor {
        ThresholdPredictor {
            threshold: PpiSweep::run(cases).best_threshold,
            method: TrainingMethod::Ppi,
        }
    }

    /// Predict from a metric value.
    pub fn predict(&self, metric: f64) -> SmtPreference {
        if metric < self.threshold {
            SmtPreference::Higher
        } else {
            SmtPreference::Lower
        }
    }

    /// Success rate over labeled cases (the paper's 93%/86% numbers).
    pub fn accuracy(&self, cases: &[SpeedupCase]) -> f64 {
        BinaryConfusion::score(cases, self.threshold).accuracy()
    }

    /// Confusion counts over labeled cases.
    pub fn confusion(&self, cases: &[SpeedupCase]) -> BinaryConfusion {
        BinaryConfusion::score(cases, self.threshold)
    }
}

/// Full SMT-level recommendation built from pairwise thresholds, measured
/// at the machine's top SMT level (Section IV-B shows the metric must be
/// measured at the highest level).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LevelSelector {
    /// Levels in descending order with the predictor deciding "stay at or
    /// above this level vs. drop below": `(level, predictor-vs-next-lower)`.
    pub rungs: Vec<(SmtLevel, ThresholdPredictor)>,
    /// The lowest level (fallback when every rung says "lower").
    pub floor: SmtLevel,
}

impl LevelSelector {
    /// A two-level selector (e.g. Nehalem SMT2/SMT1).
    pub fn two_level(top: SmtLevel, floor: SmtLevel, p: ThresholdPredictor) -> LevelSelector {
        assert!(top > floor);
        LevelSelector {
            rungs: vec![(top, p)],
            floor,
        }
    }

    /// A three-level POWER7-style selector: `p_top` decides SMT4-vs-SMT2
    /// and `p_mid` decides SMT2-vs-SMT1 (both evaluated on the same
    /// metric-at-SMT4 measurement).
    pub fn three_level(p_top: ThresholdPredictor, p_mid: ThresholdPredictor) -> LevelSelector {
        LevelSelector {
            rungs: vec![(SmtLevel::Smt4, p_top), (SmtLevel::Smt2, p_mid)],
            floor: SmtLevel::Smt1,
        }
    }

    /// The fixed-threshold ladder for a machine whose top level is `top`:
    /// SMT4-vs-SMT2 at `threshold_top` then SMT2-vs-SMT1 at
    /// `threshold_mid` when `top` is SMT4, otherwise top-vs-SMT1 at
    /// `threshold_top`.
    pub fn ladder(top: SmtLevel, threshold_top: f64, threshold_mid: f64) -> LevelSelector {
        if top == SmtLevel::Smt4 {
            LevelSelector::three_level(
                ThresholdPredictor::fixed(threshold_top),
                ThresholdPredictor::fixed(threshold_mid),
            )
        } else {
            LevelSelector::two_level(
                top,
                SmtLevel::Smt1,
                ThresholdPredictor::fixed(threshold_top),
            )
        }
    }

    /// Recommend a level from a metric value measured at the top level.
    pub fn recommend(&self, metric: f64) -> SmtLevel {
        for (level, p) in &self.rungs {
            if p.predict(metric) == SmtPreference::Higher {
                return *level;
            }
        }
        self.floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cases() -> Vec<SpeedupCase> {
        vec![
            SpeedupCase::new("a", 0.01, 1.9),
            SpeedupCase::new("b", 0.03, 1.4),
            SpeedupCase::new("c", 0.12, 0.8),
            SpeedupCase::new("d", 0.20, 0.4),
        ]
    }

    #[test]
    fn trained_predictor_is_perfect_on_clean_data() {
        for p in [
            ThresholdPredictor::train_gini(&cases()),
            ThresholdPredictor::train_ppi(&cases()),
        ] {
            assert_eq!(p.accuracy(&cases()), 1.0, "{p:?}");
            assert!(p.threshold > 0.03 && p.threshold <= 0.12);
            assert_eq!(p.predict(0.01), SmtPreference::Higher);
            assert_eq!(p.predict(0.30), SmtPreference::Lower);
        }
    }

    #[test]
    fn fixed_threshold_matches_paper_usage() {
        let p = ThresholdPredictor::fixed(0.07);
        assert_eq!(p.predict(0.05), SmtPreference::Higher);
        assert_eq!(p.predict(0.07), SmtPreference::Lower);
    }

    #[test]
    fn confusion_reports_errors() {
        let p = ThresholdPredictor::fixed(0.02);
        let c = p.confusion(&cases());
        assert_eq!(c.errors(), 1); // "b" (0.03, speedup 1.4) misclassified
        assert!((p.accuracy(&cases()) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn three_level_selector_walks_rungs() {
        let sel = LevelSelector::three_level(
            ThresholdPredictor::fixed(0.07),
            ThresholdPredictor::fixed(0.15),
        );
        assert_eq!(sel.recommend(0.01), SmtLevel::Smt4);
        assert_eq!(sel.recommend(0.10), SmtLevel::Smt2);
        assert_eq!(sel.recommend(0.30), SmtLevel::Smt1);
    }

    #[test]
    fn two_level_selector() {
        let sel = LevelSelector::two_level(
            SmtLevel::Smt2,
            SmtLevel::Smt1,
            ThresholdPredictor::fixed(0.05),
        );
        assert_eq!(sel.recommend(0.01), SmtLevel::Smt2);
        assert_eq!(sel.recommend(0.09), SmtLevel::Smt1);
    }

    #[test]
    fn ladder_follows_the_top_level() {
        let p7 = LevelSelector::ladder(SmtLevel::Smt4, 0.07, 0.15);
        assert_eq!(p7.recommend(0.01), SmtLevel::Smt4);
        assert_eq!(p7.recommend(0.10), SmtLevel::Smt2);
        assert_eq!(p7.recommend(0.30), SmtLevel::Smt1);
        let nhm = LevelSelector::ladder(SmtLevel::Smt2, 0.07, 0.15);
        assert_eq!(nhm.rungs.len(), 1);
        assert_eq!(nhm.recommend(0.01), SmtLevel::Smt2);
        assert_eq!(nhm.recommend(0.10), SmtLevel::Smt1);
    }

    #[test]
    #[should_panic]
    fn two_level_requires_ordering() {
        LevelSelector::two_level(
            SmtLevel::Smt1,
            SmtLevel::Smt2,
            ThresholdPredictor::fixed(0.05),
        );
    }
}
