//! Byte-identity guard for the committed JSON artifacts: each file parses
//! into its Rust type and serializes back to exactly the committed bytes.
//! A change to the JSON writer or reader that altered any committed
//! output (key order, number spelling, indentation, escaping) fails here.

use serde::{Deserialize, Serialize};
use smt_corpus::{CorpusManifest, ScoreReport, ScoreTrajectory};
use smt_experiments::ablation::Ablation;
use smt_experiments::figures::{Fig1, Fig16, Fig17, Fig2, Fig7, SuccessRates};
use smt_experiments::sched_demo::SchedDemo;
use smt_experiments::ScatterFigure;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Parse `rel` as `T`, re-serialize it pretty, and compare bytes.
fn round_trips<T: Serialize + Deserialize>(rel: &str) {
    let body = std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    let value: T = serde_json::from_str(&body).unwrap_or_else(|e| panic!("{rel}: {e}"));
    let again = serde_json::to_string_pretty(&value).unwrap();
    if again != body {
        let at = again
            .bytes()
            .zip(body.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(again.len().min(body.len()));
        panic!(
            "{rel} does not re-serialize byte for byte (first difference at byte {at}: \
             committed {:?}, rewritten {:?})",
            &body[at.saturating_sub(40)..(at + 40).min(body.len())],
            &again[at.saturating_sub(40)..(at + 40).min(again.len())],
        );
    }
}

#[test]
fn corpus_and_score_artifacts_reserialize_byte_for_byte() {
    round_trips::<CorpusManifest>("results/corpus/manifest.json");
    round_trips::<ScoreReport>("results/score/score-s.json");
    round_trips::<ScoreReport>("results/score/score.json");
    round_trips::<ScoreTrajectory>("results/score/trajectory.json");
}

#[test]
fn figure_artifacts_reserialize_byte_for_byte() {
    round_trips::<Fig1>("results/fig1.json");
    round_trips::<Fig2>("results/fig2.json");
    round_trips::<Fig7>("results/fig7.json");
    for fig in [6, 8, 9, 10, 11, 12, 13, 14, 15] {
        round_trips::<ScatterFigure>(&format!("results/fig{fig}.json"));
    }
    round_trips::<Fig16>("results/fig16.json");
    round_trips::<Fig17>("results/fig17.json");
    round_trips::<SuccessRates>("results/success.json");
    round_trips::<Ablation>("results/ablation.json");
    round_trips::<SchedDemo>("results/sched.json");
}
