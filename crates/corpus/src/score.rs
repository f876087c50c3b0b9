//! The resumable batch scorer.
//!
//! `score_corpus` replays every manifest entry through the
//! [`DynamicSmtController`](smt_sched::DynamicSmtController) decision core
//! (via [`crate::replay`]) and scores the predicted SMT level against the
//! manifest's simulate-every-level oracle label. Correctness follows the
//! paper's criterion: an exact label match, or a predicted level whose
//! oracle throughput sits within [`NEAR_TIE_EPSILON`] of the best level's
//! (near-ties are "don't care" — either level is the right answer). The
//! strict label-match rate is reported alongside as *exact* accuracy.
//! Three properties the paper's 93%/86% headline needs to be
//! *reproducible* rather than merely reported:
//!
//! - **Resumable.** Every finished entry is appended to a JSONL journal
//!   as it completes; an interrupted run picks up where it left off
//!   instead of re-replaying hundreds of traces. The journal header pins
//!   the manifest checksum and the per-arch policy fingerprints, so a
//!   stale journal (different corpus, different thresholds) is rejected,
//!   never silently mixed in.
//! - **Fault-isolated.** Entries score in parallel under rayon with a
//!   per-entry panic boundary: one corrupt trace becomes one `error`
//!   outcome, not a dead batch.
//! - **Deterministic.** The final report is assembled from the outcome
//!   set in manifest-entry order with no timestamps, so a resumed run
//!   produces byte-identical report files to an uninterrupted one.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use smt_sim::error::panic_message;
use smt_sim::{Error, SmtLevel};

use crate::manifest::{CorpusArch, CorpusEntry, CorpusManifest, SizeTier};
use crate::replay::{replay_trace, ReplayPolicy};

/// Journal-format version. v2 added the near-tie fields (`exact`,
/// `perf_loss`) to [`EntryOutcome`]; bumping rejects v1 journals at the
/// header check instead of silently mixing criteria.
pub const JOURNAL_VERSION: u32 = 2;

/// Near-tie tolerance for the correctness criterion: a prediction counts
/// as correct when the predicted level's oracle throughput is within this
/// relative fraction of the best level's. This is the paper's own success
/// criterion (Section VI): for workloads whose SMT levels perform within
/// noise of each other, *either* choice is acceptable — what the metric
/// is judged on is performance left on the table, not label identity. The
/// strict label-match rate is still reported as `exact` accuracy.
pub const NEAR_TIE_EPSILON: f64 = 0.02;

/// Column key used for "replay produced no prediction" in the confusion
/// matrix (trace too short, or the entry errored).
pub const NO_PREDICTION: &str = "none";

/// Knobs for one scoring run.
#[derive(Debug, Clone, Default)]
pub struct ScoreOptions {
    /// Restrict scoring to one tier (`None` = whole corpus).
    pub tier: Option<SizeTier>,
    /// Score at most this many *new* entries this invocation (testing and
    /// CI resume smoke; `None` = run to completion).
    pub limit: Option<usize>,
    /// Label recorded in the report (e.g. a git describe string); defaults
    /// to `"unlabeled"`.
    pub label: Option<String>,
}

/// First line of the journal: everything a resume must agree on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Journal-format version.
    pub version: u32,
    /// Checksum of the manifest being scored.
    pub manifest_checksum: u64,
    /// Tier restriction the run was started with.
    pub tier: Option<SizeTier>,
    /// Per-arch [`ReplayPolicy::fingerprint`] values.
    pub policy: BTreeMap<String, u64>,
}

/// One scored entry (a journal line, and a row of the final report).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntryOutcome {
    /// Manifest entry id.
    pub id: String,
    /// Architecture.
    pub arch: CorpusArch,
    /// Size tier.
    pub tier: SizeTier,
    /// Workload name.
    pub workload: String,
    /// Oracle-best level from the manifest.
    pub oracle_best: SmtLevel,
    /// Level the replay converged to (`None`: no post-warmup metric
    /// windows, or the entry errored).
    pub predicted: Option<SmtLevel>,
    /// `predicted == Some(oracle_best)` — strict label match.
    pub exact: bool,
    /// Exact, or the predicted level's oracle throughput is within
    /// [`NEAR_TIE_EPSILON`] of the best level's.
    pub correct: bool,
    /// Relative throughput given up by running at the predicted level
    /// instead of the oracle-best one (`0.0` for an exact match; `None`
    /// when there is no prediction or the oracle lacks a perf sample).
    pub perf_loss: Option<f64>,
    /// Windows replayed.
    pub windows: u64,
    /// Last smoothed metric value.
    pub final_metric: Option<f64>,
    /// Replay failure, if any (a failed entry still scores — as wrong).
    pub error: Option<String>,
}

/// Accuracy over some slice of the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rate {
    /// Entries in the slice.
    pub total: usize,
    /// Correctly predicted entries.
    pub correct: usize,
    /// `correct / total` (0 when empty).
    pub accuracy: f64,
}

impl Rate {
    fn from_counts(correct: usize, total: usize) -> Rate {
        Rate {
            total,
            correct,
            accuracy: if total == 0 {
                0.0
            } else {
                correct as f64 / total as f64
            },
        }
    }
}

/// Per-level retrieval scores, treating each SMT level as a class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelScore {
    /// The class.
    pub level: SmtLevel,
    /// Predicted this level and the oracle agrees.
    pub true_positives: usize,
    /// Predicted this level but the oracle disagrees.
    pub false_positives: usize,
    /// Oracle says this level but the prediction differs (or is absent).
    pub false_negatives: usize,
    /// `tp / (tp + fp)` (0 when never predicted).
    pub precision: f64,
    /// `tp / (tp + fn)` (0 when the class never occurs).
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

/// One row of the confusion matrix: an oracle class and how its entries
/// were predicted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfusionRow {
    /// The oracle-best level this row counts.
    pub oracle: SmtLevel,
    /// Counts per predicted class, keyed `"Smt1"`/`"Smt2"`/`"Smt4"`/
    /// [`NO_PREDICTION`], in fixed column order.
    pub predicted: Vec<(String, usize)>,
}

/// Aggregate statistics over a finished scoring run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreSummary {
    /// Entries scored.
    pub total: usize,
    /// Entries predicted correctly (exact label, or within
    /// [`NEAR_TIE_EPSILON`] of the best level's throughput).
    pub correct: usize,
    /// Overall accuracy — the paper's headline number.
    pub accuracy: f64,
    /// Entries whose predicted label matches the oracle exactly.
    pub exact: usize,
    /// Strict label-match accuracy (no near-tie tolerance).
    pub exact_accuracy: f64,
    /// Accuracy per architecture (the 93%/86% split), keyed by arch tag.
    pub per_arch: BTreeMap<String, Rate>,
    /// Accuracy per size tier, keyed by tier name.
    pub per_tier: BTreeMap<String, Rate>,
    /// Precision/recall/F1 per SMT level.
    pub per_level: Vec<LevelScore>,
    /// Confusion matrix, oracle rows × predicted columns.
    pub confusion: Vec<ConfusionRow>,
}

/// A finished scoring run: what `repro score` writes to `score.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreReport {
    /// Run label (git ref, date tag, whatever the caller chose).
    pub label: String,
    /// Manifest checksum the run scored against.
    pub manifest_checksum: u64,
    /// Tier restriction, if any.
    pub tier: Option<SizeTier>,
    /// Aggregate statistics.
    pub summary: ScoreSummary,
    /// Per-entry outcomes in manifest order.
    pub entries: Vec<EntryOutcome>,
}

impl ScoreReport {
    /// Serialize to pretty JSON (deterministic: `BTreeMap` keys, manifest
    /// entry order, no timestamps).
    pub fn to_json(&self) -> Result<String, Error> {
        serde_json::to_string_pretty(self).map_err(|e| Error::Serde(e.to_string()))
    }

    /// Parse from JSON.
    pub fn from_json(body: &str) -> Result<ScoreReport, Error> {
        serde_json::from_str(body).map_err(|e| Error::Serde(format!("corrupt score report: {e}")))
    }

    /// Load from a file.
    pub fn load(path: &Path) -> Result<ScoreReport, Error> {
        let body = std::fs::read_to_string(path)
            .map_err(|e| Error::Io(format!("reading {}: {e}", path.display())))?;
        ScoreReport::from_json(&body)
    }

    /// Accuracy for one arch, if any of its entries were scored.
    pub fn arch_accuracy(&self, arch: CorpusArch) -> Option<f64> {
        self.summary.per_arch.get(arch.tag()).map(|r| r.accuracy)
    }
}

/// What one `score_corpus` call did.
#[derive(Debug)]
pub struct ScoreRun {
    /// The finished report — `Some` only when every selected entry has an
    /// outcome (freshly scored or resumed from the journal).
    pub report: Option<ScoreReport>,
    /// Outcomes restored from the journal before this call did any work.
    pub resumed: usize,
    /// Entries scored by this call.
    pub scored: usize,
    /// Entries still unscored (nonzero only when `limit` stopped the run).
    pub remaining: usize,
}

fn journal_header(
    manifest: &CorpusManifest,
    tier: Option<SizeTier>,
) -> Result<JournalHeader, Error> {
    let mut policy = BTreeMap::new();
    for (tag, p) in &manifest.policy {
        policy.insert(
            tag.clone(),
            ReplayPolicy::from_arch_policy(*p).fingerprint(),
        );
    }
    Ok(JournalHeader {
        version: JOURNAL_VERSION,
        manifest_checksum: manifest.checksum,
        tier,
        policy,
    })
}

/// Read a journal back: header plus whatever outcome lines survived. A
/// torn final line (the process died mid-write) is tolerated and dropped;
/// a header mismatch is an error — scoring must not resume across a
/// different corpus or policy.
fn read_journal(path: &Path, expect: &JournalHeader) -> Result<Vec<EntryOutcome>, Error> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| Error::Io(format!("reading journal {}: {e}", path.display())))?;
    let mut lines = body.lines();
    let head_line = lines
        .next()
        .ok_or_else(|| Error::Serde("journal is empty".to_string()))?;
    let head: JournalHeader = serde_json::from_str(head_line)
        .map_err(|e| Error::Serde(format!("corrupt journal header: {e}")))?;
    if head != *expect {
        return Err(Error::Config(format!(
            "journal {} was written for a different run (manifest checksum \
             {:#x} vs {:#x}, tier {:?} vs {:?}, or changed policy) — delete it \
             or score without --resume",
            path.display(),
            head.manifest_checksum,
            expect.manifest_checksum,
            head.tier,
            expect.tier,
        )));
    }
    let mut outcomes = Vec::new();
    let mut rest = lines.peekable();
    while let Some(line) = rest.next() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<EntryOutcome>(line) {
            Ok(o) => outcomes.push(o),
            // Only the final line may be torn; corruption earlier in the
            // file means something other than a crash wrote it.
            Err(e) if rest.peek().is_none() => {
                let _ = e;
                break;
            }
            Err(e) => {
                return Err(Error::Serde(format!(
                    "corrupt journal line in {}: {e}",
                    path.display()
                )))
            }
        }
    }
    Ok(outcomes)
}

fn append_journal_lines(path: &Path, outcomes: &[EntryOutcome]) -> Result<(), Error> {
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| Error::Io(format!("opening journal {}: {e}", path.display())))?;
    for o in outcomes {
        let line = serde_json::to_string(o).map_err(|e| Error::Serde(e.to_string()))?;
        writeln!(f, "{line}").map_err(|e| Error::Io(format!("journal write: {e}")))?;
    }
    f.sync_all().ok();
    Ok(())
}

fn start_journal(path: &Path, header: &JournalHeader) -> Result<(), Error> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("creating {}: {e}", dir.display())))?;
    }
    let line = serde_json::to_string(header).map_err(|e| Error::Serde(e.to_string()))?;
    std::fs::write(path, format!("{line}\n"))
        .map_err(|e| Error::Io(format!("writing journal {}: {e}", path.display())))
}

/// Relative throughput lost by running `predicted` instead of the
/// oracle-best level, from the manifest's simulate-every-level perf
/// table. `None` when either level lacks a sample (a best-level sample
/// is guaranteed by manifest validation, but a sparse table could miss
/// the predicted one).
fn perf_loss(entry: &CorpusEntry, predicted: SmtLevel) -> Option<f64> {
    let best = entry.oracle.perf_at(entry.oracle.best)?;
    let got = entry.oracle.perf_at(predicted)?;
    if best <= 0.0 {
        return None;
    }
    Some(((best - got) / best).max(0.0))
}

/// Score one entry. Never panics out: replay failure (missing file, bad
/// checksum, torn trace) becomes an `error` outcome that counts against
/// accuracy — a corpus that cannot be replayed must not score well.
fn score_entry(
    manifest: &CorpusManifest,
    manifest_path: &Path,
    entry: &CorpusEntry,
) -> EntryOutcome {
    let base = EntryOutcome {
        id: entry.id.clone(),
        arch: entry.arch,
        tier: entry.tier,
        workload: entry.workload.clone(),
        oracle_best: entry.oracle.best,
        predicted: None,
        exact: false,
        correct: false,
        perf_loss: None,
        windows: 0,
        final_metric: None,
        error: None,
    };
    let policy = match manifest.arch_policy(entry.arch) {
        Ok(p) => ReplayPolicy::from_arch_policy(p),
        Err(e) => {
            return EntryOutcome {
                error: Some(e.to_string()),
                ..base
            }
        }
    };
    let path = manifest.trace_path(manifest_path, entry);
    let replayed =
        catch_unwind(AssertUnwindSafe(|| replay_trace(&path, &policy))).unwrap_or_else(|p| {
            Err(Error::InvalidMeasurement(format!(
                "replay panicked: {}",
                panic_message(p.as_ref())
            )))
        });
    match replayed {
        Ok(r) => {
            let exact = r.predicted == Some(entry.oracle.best);
            let loss = r.predicted.and_then(|p| perf_loss(entry, p));
            EntryOutcome {
                predicted: r.predicted,
                exact,
                correct: exact || loss.is_some_and(|l| l <= NEAR_TIE_EPSILON),
                perf_loss: loss,
                windows: r.windows,
                final_metric: r.final_metric,
                ..base
            }
        }
        Err(e) => EntryOutcome {
            error: Some(e.to_string()),
            ..base
        },
    }
}

/// Build the aggregate summary from a complete outcome set.
pub fn summarize(outcomes: &[EntryOutcome]) -> ScoreSummary {
    let total = outcomes.len();
    let correct = outcomes.iter().filter(|o| o.correct).count();
    let exact = outcomes.iter().filter(|o| o.exact).count();
    let mut per_arch: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut per_tier: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for o in outcomes {
        let a = per_arch.entry(o.arch.tag().to_string()).or_default();
        a.1 += 1;
        a.0 += o.correct as usize;
        let t = per_tier.entry(o.tier.name().to_string()).or_default();
        t.1 += 1;
        t.0 += o.correct as usize;
    }
    let per_level = SmtLevel::ALL
        .iter()
        .map(|&level| {
            let tp = outcomes
                .iter()
                .filter(|o| o.predicted == Some(level) && o.oracle_best == level)
                .count();
            let fp = outcomes
                .iter()
                .filter(|o| o.predicted == Some(level) && o.oracle_best != level)
                .count();
            let fneg = outcomes
                .iter()
                .filter(|o| o.oracle_best == level && o.predicted != Some(level))
                .count();
            let precision = if tp + fp == 0 {
                0.0
            } else {
                tp as f64 / (tp + fp) as f64
            };
            let recall = if tp + fneg == 0 {
                0.0
            } else {
                tp as f64 / (tp + fneg) as f64
            };
            let f1 = if precision + recall == 0.0 {
                0.0
            } else {
                2.0 * precision * recall / (precision + recall)
            };
            LevelScore {
                level,
                true_positives: tp,
                false_positives: fp,
                false_negatives: fneg,
                precision,
                recall,
                f1,
            }
        })
        .collect();
    let confusion = SmtLevel::ALL
        .iter()
        .map(|&oracle| {
            let mut predicted: Vec<(String, usize)> = SmtLevel::ALL
                .iter()
                .map(|&p| {
                    let n = outcomes
                        .iter()
                        .filter(|o| o.oracle_best == oracle && o.predicted == Some(p))
                        .count();
                    (p.to_string(), n)
                })
                .collect();
            predicted.push((
                NO_PREDICTION.to_string(),
                outcomes
                    .iter()
                    .filter(|o| o.oracle_best == oracle && o.predicted.is_none())
                    .count(),
            ));
            ConfusionRow { oracle, predicted }
        })
        .collect();
    ScoreSummary {
        total,
        correct,
        accuracy: if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        },
        exact,
        exact_accuracy: if total == 0 {
            0.0
        } else {
            exact as f64 / total as f64
        },
        per_arch: per_arch
            .into_iter()
            .map(|(k, (c, t))| (k, Rate::from_counts(c, t)))
            .collect(),
        per_tier: per_tier
            .into_iter()
            .map(|(k, (c, t))| (k, Rate::from_counts(c, t)))
            .collect(),
        per_level,
        confusion,
    }
}

/// Score the corpus, journaling to `journal_path`. If `resume` is set and
/// the journal exists, previously finished entries are restored from it;
/// otherwise the journal is started fresh (overwriting any stale one).
///
/// Returns a [`ScoreRun`]; its `report` is `Some` once every selected
/// entry has an outcome. The report is a pure function of (manifest,
/// policy, outcomes) — resuming and re-running produce identical bytes.
pub fn score_corpus(
    manifest: &CorpusManifest,
    manifest_path: &Path,
    journal_path: &Path,
    resume: bool,
    opts: &ScoreOptions,
) -> Result<ScoreRun, Error> {
    let header = journal_header(manifest, opts.tier)?;
    let selected = manifest.entries_for(opts.tier);
    let selected_ids: BTreeSet<&str> = selected.iter().map(|e| e.id.as_str()).collect();

    let mut done: BTreeMap<String, EntryOutcome> = BTreeMap::new();
    if resume && journal_path.exists() {
        for o in read_journal(journal_path, &header)? {
            if selected_ids.contains(o.id.as_str()) {
                done.insert(o.id.clone(), o);
            }
        }
    } else {
        start_journal(journal_path, &header)?;
    }
    let resumed = done.len();

    let mut todo: Vec<&CorpusEntry> = selected
        .iter()
        .copied()
        .filter(|e| !done.contains_key(&e.id))
        .collect();
    if let Some(limit) = opts.limit {
        todo.truncate(limit);
    }

    let fresh: Vec<EntryOutcome> = todo
        .par_iter()
        .map(|e| score_entry(manifest, manifest_path, e))
        .collect();
    // Journal in manifest order (the par_iter collect preserves input
    // order), one line per finished entry.
    append_journal_lines(journal_path, &fresh)?;
    let scored = fresh.len();
    for o in fresh {
        done.insert(o.id.clone(), o);
    }

    let remaining = selected.len() - done.len();
    let report = if remaining == 0 {
        let entries: Vec<EntryOutcome> = selected
            .iter()
            .map(|e| done.get(&e.id).cloned().expect("outcome for every entry"))
            .collect();
        Some(ScoreReport {
            label: opts
                .label
                .clone()
                .unwrap_or_else(|| "unlabeled".to_string()),
            manifest_checksum: manifest.checksum,
            tier: opts.tier,
            summary: summarize(&entries),
            entries,
        })
    } else {
        None
    };
    Ok(ScoreRun {
        report,
        resumed,
        scored,
        remaining,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(
        id: &str,
        arch: CorpusArch,
        oracle: SmtLevel,
        pred: Option<SmtLevel>,
    ) -> EntryOutcome {
        EntryOutcome {
            id: id.to_string(),
            arch,
            tier: SizeTier::S,
            workload: id.to_string(),
            oracle_best: oracle,
            predicted: pred,
            exact: pred == Some(oracle),
            correct: pred == Some(oracle),
            perf_loss: pred.map(|p| if p == oracle { 0.0 } else { 0.25 }),
            windows: 8,
            final_metric: Some(0.1),
            error: None,
        }
    }

    #[test]
    fn perf_loss_and_near_tie_tolerance() {
        use crate::manifest::OracleLabel;
        let entry = CorpusEntry {
            id: "p7/s/EP".to_string(),
            arch: CorpusArch::P7,
            tier: SizeTier::S,
            workload: "EP".to_string(),
            scale: 0.1,
            file: "traces/p7-s-ep.smtc".to_string(),
            trace_checksum: 42,
            trace_windows: 32,
            oracle: OracleLabel {
                best: SmtLevel::Smt4,
                perf: vec![
                    (SmtLevel::Smt1, 1.0),
                    (SmtLevel::Smt2, 1.99),
                    (SmtLevel::Smt4, 2.0),
                ],
            },
        };
        // Exact match loses nothing.
        assert_eq!(perf_loss(&entry, SmtLevel::Smt4), Some(0.0));
        // Smt2 runs at 1.99/2.0 — a 0.5% loss, inside the tolerance.
        let near = perf_loss(&entry, SmtLevel::Smt2).unwrap();
        assert!((near - 0.005).abs() < 1e-12);
        assert!(near <= NEAR_TIE_EPSILON);
        // Smt1 halves throughput — a genuine miss.
        let far = perf_loss(&entry, SmtLevel::Smt1).unwrap();
        assert!((far - 0.5).abs() < 1e-12);
        assert!(far > NEAR_TIE_EPSILON);
    }

    #[test]
    fn summary_counts_accuracy_and_confusion() {
        let outcomes = vec![
            outcome("a", CorpusArch::P7, SmtLevel::Smt4, Some(SmtLevel::Smt4)),
            outcome("b", CorpusArch::P7, SmtLevel::Smt1, Some(SmtLevel::Smt4)),
            outcome("c", CorpusArch::Nhm, SmtLevel::Smt2, Some(SmtLevel::Smt2)),
            outcome("d", CorpusArch::Nhm, SmtLevel::Smt2, None),
        ];
        let s = summarize(&outcomes);
        assert_eq!(s.total, 4);
        assert_eq!(s.correct, 2);
        assert!((s.accuracy - 0.5).abs() < 1e-12);
        assert_eq!(s.exact, 2);
        assert!((s.exact_accuracy - 0.5).abs() < 1e-12);
        assert_eq!(s.per_arch["p7"].correct, 1);
        assert_eq!(s.per_arch["nhm"].correct, 1);
        // Smt4: predicted twice, right once.
        let smt4 = s
            .per_level
            .iter()
            .find(|l| l.level == SmtLevel::Smt4)
            .unwrap();
        assert_eq!(smt4.true_positives, 1);
        assert_eq!(smt4.false_positives, 1);
        assert!((smt4.precision - 0.5).abs() < 1e-12);
        assert!((smt4.recall - 1.0).abs() < 1e-12);
        // Confusion row for Smt2 has one none-prediction.
        let row = s
            .confusion
            .iter()
            .find(|r| r.oracle == SmtLevel::Smt2)
            .unwrap();
        let none = row
            .predicted
            .iter()
            .find(|(k, _)| k == NO_PREDICTION)
            .unwrap();
        assert_eq!(none.1, 1);
    }

    #[test]
    fn report_json_round_trips() {
        let entries = vec![outcome(
            "a",
            CorpusArch::P7,
            SmtLevel::Smt4,
            Some(SmtLevel::Smt4),
        )];
        let r = ScoreReport {
            label: "test".to_string(),
            manifest_checksum: 7,
            tier: None,
            summary: summarize(&entries),
            entries,
        };
        let back = ScoreReport::from_json(&r.to_json().unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn stale_journal_header_is_rejected() {
        let dir = std::env::temp_dir().join("smt-corpus-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let written = JournalHeader {
            version: JOURNAL_VERSION,
            manifest_checksum: 1,
            tier: None,
            policy: BTreeMap::new(),
        };
        start_journal(&path, &written).unwrap();
        let mut expect = written.clone();
        expect.manifest_checksum = 2;
        let err = read_journal(&path, &expect).unwrap_err().to_string();
        assert!(err.contains("different run"), "{err}");
        // Matching header with a torn last line: the torn line drops.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        let good = outcome("a", CorpusArch::P7, SmtLevel::Smt4, Some(SmtLevel::Smt4));
        writeln!(f, "{}", serde_json::to_string(&good).unwrap()).unwrap();
        write!(f, "{{\"id\":\"tor").unwrap();
        drop(f);
        let got = read_journal(&path, &written).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], good);
        std::fs::remove_dir_all(&dir).ok();
    }
}
