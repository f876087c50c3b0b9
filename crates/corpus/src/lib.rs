//! `smt-corpus`: the canonical benchmark corpus and its mechanical
//! accuracy scorer.
//!
//! The paper's headline claim — the SMTsm metric picks the best SMT level
//! for 93% of POWER7 workloads and 86% of Nehalem workloads — is only as
//! reproducible as the benchmark set it was measured on. This crate makes
//! that set a *published artifact* instead of a side effect of whoever ran
//! the experiments last:
//!
//! - [`manifest`] — a versioned, FNV-1a-checksummed JSON inventory of
//!   every `.smtc` trace: workload × architecture × doubling size tier,
//!   each entry carrying its trace checksum and the simulate-every-level
//!   oracle label. The manifest is committed; the traces rebuild
//!   bit-for-bit from the seeded simulator.
//! - [`build`] — deterministic corpus generation
//!   ([`build_corpus`]) and drift detection against the committed
//!   manifest ([`check_against`]).
//! - [`replay`] — open-loop trace replay through the same
//!   [`DynamicSmtController`](smt_sched::DynamicSmtController) the daemon
//!   runs, producing a mechanical per-trace level prediction.
//! - [`score`] — the resumable, fault-isolated batch scorer
//!   ([`score_corpus`]): rayon fan-out, a JSONL journal that lets an
//!   interrupted run resume instead of restart, and per-level
//!   precision/recall/F1 against the oracle.
//! - [`report`] — deterministic Markdown rendering, the labeled-run
//!   accuracy trajectory, and the regression gate CI runs
//!   ([`check_regression`]).
//!
//! Surface commands: `smtselect corpus build|verify` manages the corpus,
//! `repro score [--resume|--check|--label]` produces and gates the
//! committed `results/score/` artifacts.

#![warn(missing_docs)]

pub mod build;
pub mod manifest;
pub mod replay;
pub mod report;
pub mod score;

pub use build::{
    build_corpus, check_against, machine_for_arch, suite_for_arch, BuildOptions, BuildOutcome,
    Drift,
};
pub use manifest::{
    verify_corpus, ArchPolicy, CorpusArch, CorpusEntry, CorpusManifest, OracleLabel, SizeTier,
    VerifyOutcome, VerifyReport, DEFAULT_MANIFEST, MANIFEST_VERSION,
};
pub use replay::{
    corpus_files, replay_dir, replay_trace, selector_for_machine, CorpusReport, ReplayPolicy,
    TraceReplay, TRACE_EXT,
};
pub use report::{check_regression, pct, render_markdown, ScoreTrajectory, TrajectoryPoint};
pub use score::{
    score_corpus, summarize, EntryOutcome, JournalHeader, ScoreOptions, ScoreReport, ScoreRun,
    ScoreSummary, NEAR_TIE_EPSILON,
};
