//! Deterministic corpus generation.
//!
//! `build_corpus` materializes the canonical benchmark corpus: for every
//! (architecture × size tier × catalog workload) cell it records a
//! `.smtc` counter trace at the machine's top SMT level through
//! [`SimBackend`] — the simulator is seeded, so the trace bytes are
//! stable across builds and hosts — and labels the cell with the
//! simulate-every-level oracle (whole-run throughput at each SMT level
//! the machine supports). The output manifest carries an FNV-1a checksum
//! per trace plus one over itself, so a rebuilt corpus can be diffed
//! against the committed manifest entry-by-entry ([`check_against`]):
//! any nondeterminism or behavioral drift in the simulator shows up as a
//! checksum mismatch, not a silently different accuracy number.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rayon::prelude::*;
use smt_collect::{fnv1a, CounterBackend, SimBackend, TraceMeta, TraceWriter};
use smt_sched::oracle_sweep;
use smt_sim::error::panic_message;
use smt_sim::{Error, MachineConfig, Simulation};
use smt_workloads::{catalog, SyntheticWorkload, WorkloadSpec};
use smtsm::{DEFAULT_THRESHOLD_MID, DEFAULT_THRESHOLD_TOP};

use crate::manifest::{
    ArchPolicy, CorpusArch, CorpusEntry, CorpusManifest, OracleLabel, SizeTier, MANIFEST_VERSION,
};

/// Knobs for one corpus build.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Catalog scale of the smallest tier (tiers double from here).
    pub base_scale: f64,
    /// Tiers to build (default: all three).
    pub tiers: Vec<SizeTier>,
    /// Architectures to build (default: both).
    pub arches: Vec<CorpusArch>,
    /// Counter windows to record per trace.
    pub windows: u64,
    /// Window length in cycles.
    pub window_cycles: u64,
    /// Cycles run before the first recorded window.
    pub warmup_cycles: u64,
    /// Give up on an oracle run that has not finished by this many cycles.
    pub max_run_cycles: u64,
    /// Per-arch scoring policy to stamp into the manifest.
    pub policy: BTreeMap<String, ArchPolicy>,
    /// Restrict the build to these catalog workloads (`None` = full
    /// suites). Tests and CI smoke builds use this to stay small.
    pub workload_filter: Option<Vec<String>>,
}

impl Default for BuildOptions {
    fn default() -> BuildOptions {
        let mut policy = BTreeMap::new();
        for arch in CorpusArch::ALL {
            policy.insert(
                arch.tag().to_string(),
                ArchPolicy {
                    threshold_top: DEFAULT_THRESHOLD_TOP,
                    threshold_mid: DEFAULT_THRESHOLD_MID,
                },
            );
        }
        // base_scale 4.0 keeps the shortest catalog workload (~98k cycles
        // per unit scale on p7) long enough to fill 32 windows after the
        // warmup even in the smallest tier.
        BuildOptions {
            base_scale: 4.0,
            tiers: SizeTier::ALL.to_vec(),
            arches: CorpusArch::ALL.to_vec(),
            windows: 32,
            window_cycles: 10_000,
            warmup_cycles: 20_000,
            max_run_cycles: 4_000_000_000,
            policy,
            workload_filter: None,
        }
    }
}

impl BuildOptions {
    /// Restrict the build to one tier (CI-sized smoke builds).
    pub fn tier(mut self, tier: SizeTier) -> BuildOptions {
        self.tiers = vec![tier];
        self
    }

    /// Override the scoring policy for one arch.
    pub fn arch_policy(mut self, arch: CorpusArch, policy: ArchPolicy) -> BuildOptions {
        self.policy.insert(arch.tag().to_string(), policy);
        self
    }

    fn validate(&self) -> Result<(), Error> {
        // NaN must fail too, so compare in the accepting direction.
        if self.base_scale <= 0.0 || self.base_scale.is_nan() {
            return Err(Error::Config(format!(
                "base_scale must be positive, got {}",
                self.base_scale
            )));
        }
        if self.windows == 0 || self.window_cycles == 0 {
            return Err(Error::Config(
                "windows and window_cycles must be positive".to_string(),
            ));
        }
        if self.tiers.is_empty() || self.arches.is_empty() {
            return Err(Error::Config(
                "at least one tier and one arch must be selected".to_string(),
            ));
        }
        Ok(())
    }
}

/// The machine configuration a corpus arch is simulated on.
pub fn machine_for_arch(arch: CorpusArch) -> MachineConfig {
    match arch {
        CorpusArch::P7 => MachineConfig::power7(1),
        CorpusArch::Nhm => MachineConfig::nehalem(),
    }
}

/// The workload catalog a corpus arch is evaluated on (the paper's
/// per-machine Table I suites).
pub fn suite_for_arch(arch: CorpusArch) -> Vec<WorkloadSpec> {
    match arch {
        CorpusArch::P7 => catalog::power7_suite(),
        CorpusArch::Nhm => catalog::nehalem_suite(),
    }
}

/// File-name slug for a workload name: lowercase alphanumerics, runs of
/// anything else collapsed to `_`.
fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut gap = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    out
}

/// One cell of the build matrix.
#[derive(Debug, Clone)]
struct BuildJob {
    arch: CorpusArch,
    tier: SizeTier,
    spec: WorkloadSpec,
    scale: f64,
    file: String,
}

/// Result of [`build_corpus`].
#[derive(Debug)]
pub struct BuildOutcome {
    /// The sealed manifest, already written to `manifest_path`.
    pub manifest: CorpusManifest,
    /// Where the manifest was written.
    pub manifest_path: PathBuf,
}

/// Build the corpus under `out_dir`: traces under `out_dir/traces/`, the
/// sealed manifest at `out_dir/manifest.json`. The build is atomic in
/// spirit — any failed cell fails the whole build with a combined error,
/// because a corpus with silently missing cells would publish a skewed
/// accuracy number.
pub fn build_corpus(out_dir: &Path, opts: &BuildOptions) -> Result<BuildOutcome, Error> {
    opts.validate()?;
    let trace_dir = out_dir.join("traces");
    std::fs::create_dir_all(&trace_dir)
        .map_err(|e| Error::Io(format!("creating {}: {e}", trace_dir.display())))?;

    let mut jobs = Vec::new();
    for &arch in &opts.arches {
        for &tier in &opts.tiers {
            for spec in suite_for_arch(arch) {
                if let Some(filter) = &opts.workload_filter {
                    if !filter.contains(&spec.name) {
                        continue;
                    }
                }
                let scale = opts.base_scale * tier.multiplier();
                let file = format!(
                    "traces/{}-{}-{}.smtc",
                    arch.tag(),
                    tier.name(),
                    slug(&spec.name)
                );
                jobs.push(BuildJob {
                    arch,
                    tier,
                    spec,
                    scale,
                    file,
                });
            }
        }
    }

    let outcomes: Vec<Result<CorpusEntry, (String, String)>> = jobs
        .par_iter()
        .map(|job| {
            let id = format!("{}/{}/{}", job.arch.tag(), job.tier.name(), job.spec.name);
            catch_unwind(AssertUnwindSafe(|| build_cell(job, out_dir, opts)))
                .unwrap_or_else(|p| {
                    Err(Error::InvalidMeasurement(format!(
                        "cell panicked: {}",
                        panic_message(p.as_ref())
                    )))
                })
                .map_err(|e| (id, e.to_string()))
        })
        .collect();

    let mut entries = Vec::new();
    let mut failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(e) => entries.push(e),
            Err(f) => failures.push(f),
        }
    }
    if !failures.is_empty() {
        let list: Vec<String> = failures
            .iter()
            .map(|(id, err)| format!("{id}: {err}"))
            .collect();
        return Err(Error::InvalidMeasurement(format!(
            "{} corpus cell(s) failed to build:\n  {}",
            failures.len(),
            list.join("\n  ")
        )));
    }
    entries.sort_by(|a, b| a.id.cmp(&b.id));

    let mut manifest = CorpusManifest {
        version: MANIFEST_VERSION,
        checksum: 0,
        base_scale: opts.base_scale,
        window_cycles: opts.window_cycles,
        windows: opts.windows,
        warmup_cycles: opts.warmup_cycles,
        policy: opts.policy.clone(),
        entries,
    };
    let manifest_path = out_dir.join("manifest.json");
    manifest.save(&manifest_path)?;
    Ok(BuildOutcome {
        manifest,
        manifest_path,
    })
}

/// Build one cell: record the trace, label it with the oracle.
fn build_cell(job: &BuildJob, out_dir: &Path, opts: &BuildOptions) -> Result<CorpusEntry, Error> {
    let machine = machine_for_arch(job.arch);
    let top = *machine
        .smt_levels()
        .last()
        .ok_or_else(|| Error::InvalidMachine("machine has no SMT levels".to_string()))?;
    let spec = job.spec.clone().scaled(job.scale);

    // Record the trace: top-level windows through the same SimBackend the
    // collect pipeline uses, so corpus traces and `smtselect record`
    // traces are the same bytes for the same workload.
    let sim = Simulation::new(machine.clone(), top, SyntheticWorkload::new(spec.clone()));
    let mut backend = SimBackend::new(job.spec.name.clone(), sim).warmup(opts.warmup_cycles);
    let path = out_dir.join(&job.file);
    let mut writer = TraceWriter::create(
        &path,
        TraceMeta {
            machine: job.arch.tag().to_string(),
            nports: machine.arch.num_ports(),
            window_cycles: opts.window_cycles,
        },
    )?;
    let mut recorded = 0u64;
    while recorded < opts.windows {
        match backend.next_window(opts.window_cycles)? {
            Some(w) => {
                writer.append(&w)?;
                recorded += 1;
            }
            None => break,
        }
    }
    let written = writer.finalize()?;
    if written == 0 {
        return Err(Error::InvalidMeasurement(format!(
            "workload {} at scale {} finished inside the warmup — no windows to record",
            job.spec.name, job.scale
        )));
    }

    // Oracle: run every supported level to completion, label with the
    // whole-run throughput argmax (ties break to the higher level, the
    // machine's run-at-top default).
    let sweep = oracle_sweep(
        &machine,
        || SyntheticWorkload::new(spec.clone()),
        opts.max_run_cycles,
    )?;
    if let Some(l) = sweep.levels.iter().find(|l| !l.result.completed) {
        return Err(Error::InvalidMeasurement(format!(
            "oracle run {} at {} did not finish within {} cycles",
            job.spec.name, l.smt, opts.max_run_cycles
        )));
    }
    let perf = sweep
        .levels
        .iter()
        .map(|l| (l.smt, l.result.perf()))
        .collect();

    let bytes = std::fs::read(&path)
        .map_err(|e| Error::Io(format!("re-reading {}: {e}", path.display())))?;
    Ok(CorpusEntry {
        id: format!("{}/{}/{}", job.arch.tag(), job.tier.name(), job.spec.name),
        arch: job.arch,
        tier: job.tier,
        workload: job.spec.name.clone(),
        scale: job.scale,
        file: job.file.clone(),
        trace_checksum: fnv1a(&bytes),
        trace_windows: written,
        oracle: OracleLabel {
            best: sweep.best,
            perf,
        },
    })
}

/// One drifted cell found by [`check_against`].
#[derive(Debug, Clone)]
pub struct Drift {
    /// Entry id.
    pub id: String,
    /// What differs between the fresh build and the committed manifest.
    pub what: String,
}

/// Compare a freshly built manifest against a committed one, entry by
/// entry over their common ids. Returns the drifted cells — a rebuilt
/// corpus must reproduce the committed trace bytes and oracle labels
/// exactly, or the simulator has stopped being deterministic (or its
/// behavior changed without re-publishing the corpus).
pub fn check_against(fresh: &CorpusManifest, committed: &CorpusManifest) -> Vec<Drift> {
    let committed_by_id: BTreeMap<&str, &CorpusEntry> = committed
        .entries
        .iter()
        .map(|e| (e.id.as_str(), e))
        .collect();
    let mut drifts = Vec::new();
    let mut common = 0usize;
    for e in &fresh.entries {
        let Some(c) = committed_by_id.get(e.id.as_str()) else {
            continue;
        };
        common += 1;
        if e.trace_checksum != c.trace_checksum {
            drifts.push(Drift {
                id: e.id.clone(),
                what: format!(
                    "trace checksum {:#x} != committed {:#x}",
                    e.trace_checksum, c.trace_checksum
                ),
            });
        }
        if e.trace_windows != c.trace_windows {
            drifts.push(Drift {
                id: e.id.clone(),
                what: format!(
                    "trace windows {} != committed {}",
                    e.trace_windows, c.trace_windows
                ),
            });
        }
        if e.oracle.best != c.oracle.best {
            drifts.push(Drift {
                id: e.id.clone(),
                what: format!(
                    "oracle best {} != committed {}",
                    e.oracle.best, c.oracle.best
                ),
            });
        }
        // Bit-exact: a throughput drift that leaves `best` alone still
        // moves near-tie scoring.
        let same_perf = e.oracle.perf.len() == c.oracle.perf.len()
            && e.oracle
                .perf
                .iter()
                .all(|&(level, p)| c.oracle.perf_at(level).map(f64::to_bits) == Some(p.to_bits()));
        if !same_perf {
            drifts.push(Drift {
                id: e.id.clone(),
                what: format!(
                    "oracle perf {:?} != committed {:?}",
                    e.oracle.perf, c.oracle.perf
                ),
            });
        }
    }
    if common == 0 {
        drifts.push(Drift {
            id: "<none>".to_string(),
            what: "no common entry ids between the fresh and committed manifests".to_string(),
        });
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::verify_corpus;

    fn tiny_opts() -> BuildOptions {
        BuildOptions {
            base_scale: 0.5,
            tiers: vec![SizeTier::S],
            arches: vec![CorpusArch::P7],
            windows: 4,
            window_cycles: 5_000,
            warmup_cycles: 5_000,
            workload_filter: Some(vec![
                "EP".to_string(),
                "Stream".to_string(),
                "Blackscholes".to_string(),
            ]),
            ..BuildOptions::default()
        }
    }

    fn tiny_suite_build(dir: &Path) -> BuildOutcome {
        build_corpus(dir, &tiny_opts()).expect("build")
    }

    #[test]
    fn build_is_deterministic_and_verifiable() {
        let dir1 = std::env::temp_dir().join("smt-corpus-build-a");
        let dir2 = std::env::temp_dir().join("smt-corpus-build-b");
        for d in [&dir1, &dir2] {
            std::fs::remove_dir_all(d).ok();
        }
        let a = tiny_suite_build(&dir1);
        let b = tiny_suite_build(&dir2);
        // Byte-stable: same checksums, same oracle labels, both verify.
        assert_eq!(a.manifest.entries.len(), b.manifest.entries.len());
        for (x, y) in a.manifest.entries.iter().zip(&b.manifest.entries) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.trace_checksum, y.trace_checksum, "{}", x.id);
            assert_eq!(x.oracle.best, y.oracle.best, "{}", x.id);
        }
        assert!(check_against(&a.manifest, &b.manifest).is_empty());
        let report = verify_corpus(&a.manifest, &a.manifest_path);
        assert!(report.ok(), "{}", report.render());
        // Reload round-trips through the integrity check.
        let back = CorpusManifest::load(&a.manifest_path).expect("reload");
        assert_eq!(back, a.manifest);
        for d in [&dir1, &dir2] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    #[test]
    fn perturbed_oracle_perf_is_drift() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(crate::manifest::DEFAULT_MANIFEST);
        let committed = CorpusManifest::load(&path).expect("committed manifest");
        assert!(check_against(&committed, &committed).is_empty());
        // One ULP on one level's throughput: `best` and the trace are
        // untouched, so only the perf compare can see it.
        let mut fresh = committed.clone();
        let p = &mut fresh.entries[0].oracle.perf[0].1;
        *p = f64::from_bits(p.to_bits() + 1);
        let drifts = check_against(&fresh, &committed);
        assert_eq!(drifts.len(), 1, "{drifts:?}");
        assert_eq!(drifts[0].id, committed.entries[0].id);
        assert!(drifts[0].what.starts_with("oracle perf "), "{drifts:?}");
    }

    #[test]
    fn slug_collapses_punctuation() {
        assert_eq!(slug("EP"), "ep");
        assert_eq!(slug("blackscholes (pthreads)"), "blackscholes_pthreads");
        assert_eq!(slug("SPECjbb_contention"), "specjbb_contention");
    }

    #[test]
    fn invalid_options_rejected() {
        let o = BuildOptions {
            base_scale: 0.0,
            ..BuildOptions::default()
        };
        assert!(build_corpus(&std::env::temp_dir().join("x"), &o).is_err());
        let mut o = BuildOptions::default();
        o.tiers.clear();
        assert!(build_corpus(&std::env::temp_dir().join("x"), &o).is_err());
    }
}
