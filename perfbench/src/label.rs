//! `label`: the oracle simulation behind `corpus build`.
//!
//! For each selected tier-s cell, one at a time on one thread, the pass
//! makes the public calls `build_corpus` makes for a cell — record the
//! top-level trace with `SimBackend` + `TraceWriter`, then run every SMT
//! level to completion — driving each level in 10k-cycle `run_cycles`
//! slices (the timed ops). It then replays each fresh trace with
//! `replay_trace` under the manifest's policy and checks the cell against
//! its `results/corpus/manifest.json` entry and its
//! `results/score/score-s.json` outcome.

use std::path::{Path, PathBuf};

use serde::Deserialize;
use smt_collect::{fnv1a, CounterBackend, SimBackend, TraceMeta, TraceReader, TraceWriter};
use smt_corpus::{
    machine_for_arch, replay_trace, selector_for_machine, suite_for_arch, BuildOptions,
    CorpusEntry, CorpusManifest, ReplayPolicy, TraceReplay, NEAR_TIE_EPSILON,
};
use smt_sched::DynamicSmtController;
use smt_sim::{PhaseProfile, Simulation, SmtLevel, Workload as _};
use smt_workloads::{SyntheticWorkload, WorkloadSpec};
use smtsm::{MetricSpec, OnlineSampler};

use crate::host::HostSpeed;
use crate::layers::{decode_timed, gen_ns_per_instr, mean, push_and_observe_ns, Layers};
use crate::spans::Spans;
use crate::stats::{ms, CpuClock};
use crate::{Pass, Workload};

/// Cycles per oracle slice (one timed op).
const SLICE_CYCLES: u64 = 10_000;

/// The three tier-s cells: compute-bound p7 (a known near-tie miss),
/// memory-bound p7, and the other architecture. Every seed runs the same
/// cells; README.md explains why no seed-drawn alternatives are used.
pub const CELLS: [&str; 3] = ["p7/s/Dedup", "p7/s/Stream", "nhm/s/canneal"];

/// Slices profiled per cell and level for the phase shares (traced run).
const PROFILE_SLICES: u64 = 8;

/// A cell's committed score outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRef {
    /// Level the committed scorer predicted.
    pub predicted: Option<SmtLevel>,
    /// Whether the committed scorer counted it correct.
    pub correct: bool,
}

/// One selected cell with its references.
#[derive(Debug, Clone)]
struct Cell {
    entry: CorpusEntry,
    spec: WorkloadSpec,
    policy: ReplayPolicy,
    score: ScoreRef,
    trace: PathBuf,
}

/// What the pass computed for one cell.
#[derive(Debug, Clone)]
pub struct Fresh {
    /// Checksum of the freshly recorded trace.
    pub trace_checksum: u64,
    /// Windows recorded.
    pub trace_windows: u64,
    /// Whole-run throughput per level, ascending.
    pub perf: Vec<(SmtLevel, f64)>,
    /// Level the replay converged to.
    pub predicted: Option<SmtLevel>,
}

impl Fresh {
    /// Oracle best: the throughput argmax, ties to the higher level (as
    /// `build_corpus` labels).
    fn best(&self) -> Option<SmtLevel> {
        self.perf
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(l, _)| *l)
    }

    /// Near-tie verdict of the replay's prediction against this oracle.
    pub fn near_tie_correct(&self) -> bool {
        let (Some(best), Some(pred)) = (self.best(), self.predicted) else {
            return false;
        };
        let at = |l: SmtLevel| self.perf.iter().find(|(x, _)| *x == l).map(|(_, p)| *p);
        match (at(best), at(pred)) {
            _ if pred == best => true,
            (Some(b), Some(p)) if b > 0.0 => ((b - p) / b).max(0.0) <= NEAR_TIE_EPSILON,
            _ => false,
        }
    }
}

/// Where a mismatch applies: the whole cell, or one level's oracle run.
#[derive(Debug, Clone, PartialEq)]
pub enum Scope {
    /// Every op of the cell fails.
    Cell,
    /// Only the ops of this level's oracle run fail.
    Level(SmtLevel),
}

/// Compare a cell's fresh results with its manifest entry and committed
/// score outcome; one message per mismatch, first difference first.
pub fn check_cell(entry: &CorpusEntry, score: &ScoreRef, fresh: &Fresh) -> Vec<(Scope, String)> {
    let mut out = Vec::new();
    let id = &entry.id;
    if fresh.trace_checksum != entry.trace_checksum {
        out.push((
            Scope::Cell,
            format!(
                "{id}: trace checksum {:#x} != manifest {:#x}",
                fresh.trace_checksum, entry.trace_checksum
            ),
        ));
    }
    if fresh.trace_windows != entry.trace_windows {
        out.push((
            Scope::Cell,
            format!(
                "{id}: trace windows {} != manifest {}",
                fresh.trace_windows, entry.trace_windows
            ),
        ));
    }
    let levels: Vec<SmtLevel> = fresh.perf.iter().map(|(l, _)| *l).collect();
    let committed: Vec<SmtLevel> = entry.oracle.perf.iter().map(|(l, _)| *l).collect();
    if levels != committed {
        out.push((
            Scope::Cell,
            format!("{id}: oracle levels {levels:?} != manifest {committed:?}"),
        ));
    }
    for &(level, perf) in &fresh.perf {
        if let Some(want) = entry.oracle.perf_at(level) {
            if perf.to_bits() != want.to_bits() {
                out.push((
                    Scope::Level(level),
                    format!("{id}: oracle perf at {level} {perf:?} != manifest {want:?}"),
                ));
            }
        }
    }
    if fresh.best() != Some(entry.oracle.best) {
        out.push((
            Scope::Cell,
            format!(
                "{id}: oracle best {:?} != manifest {}",
                fresh.best(),
                entry.oracle.best
            ),
        ));
    }
    if fresh.predicted != score.predicted {
        out.push((
            Scope::Cell,
            format!(
                "{id}: replay predicted {:?} != score-s.json {:?}",
                fresh.predicted, score.predicted
            ),
        ));
    }
    if fresh.near_tie_correct() != score.correct {
        out.push((
            Scope::Cell,
            format!(
                "{id}: near-tie verdict {} != score-s.json {}",
                fresh.near_tie_correct(),
                score.correct
            ),
        ));
    }
    out
}

/// Per-pass simulator totals.
#[derive(Debug, Default, Clone, Copy)]
struct SimTotals {
    cycles: u64,
    instructions: u64,
    skipped: u64,
    /// Cycles simulated per arch tag: `[p7, nhm]`.
    cycles_by_arch: [u64; 2],
}

impl SimTotals {
    fn add<W: smt_sim::Workload>(&mut self, sim: &Simulation<W>, arch: usize) {
        self.cycles += sim.now();
        self.cycles_by_arch[arch] += sim.now();
        self.instructions += sim.thread_counters().iter().map(|c| c.issued).sum::<u64>();
        self.skipped += sim.idle_cycles_skipped();
    }
}

/// The `label` workload.
pub struct Label {
    cells: Vec<Cell>,
    window_cycles: u64,
    windows: u64,
    warmup_cycles: u64,
    max_run_cycles: u64,
    /// Totals of the most recent pass.
    last: SimTotals,
    /// Fresh verdicts of the most recent pass (accuracy).
    verdicts: Vec<bool>,
}

impl Label {
    fn arch_index(cell: &Cell) -> usize {
        if cell.entry.arch.tag() == "nhm" {
            1
        } else {
            0
        }
    }

    /// Record, label and replay one cell; returns what the checks need.
    fn run_cell(
        &self,
        ci: usize,
        cell: &Cell,
        spans: &mut Spans,
        op_ms: &mut Vec<f64>,
        slices_at: &mut Vec<(SmtLevel, u64)>,
        totals: &mut SimTotals,
        host: &mut HostSpeed,
    ) -> Result<Fresh, String> {
        let machine = machine_for_arch(cell.entry.arch);
        let levels = machine.smt_levels();
        let top = *levels.last().ok_or("machine has no SMT levels")?;
        let arch = Self::arch_index(cell);

        // Record the top-level trace exactly as `build_corpus` does.
        let sim = spans.span("sim.new", ci as u64, || {
            Simulation::new(
                machine.clone(),
                top,
                SyntheticWorkload::new(cell.spec.clone()),
            )
        });
        let mut backend =
            SimBackend::new(cell.entry.workload.clone(), sim).warmup(self.warmup_cycles);
        let meta = TraceMeta {
            machine: cell.entry.arch.tag().to_string(),
            nports: machine.arch.num_ports(),
            window_cycles: self.window_cycles,
        };
        let mut writer = TraceWriter::create(&cell.trace, meta).map_err(|e| e.to_string())?;
        let mut recorded = 0u64;
        while recorded < self.windows {
            let w = spans.span("sim.record_window", recorded, || {
                backend.next_window(self.window_cycles)
            });
            match w.map_err(|e| e.to_string())? {
                Some(w) => {
                    spans
                        .span("collector.append", recorded, || writer.append(&w))
                        .map_err(|e| e.to_string())?;
                    recorded += 1;
                    host.between_ops();
                }
                None => break,
            }
        }
        let written = spans
            .span("collector.finalize", ci as u64, || writer.finalize())
            .map_err(|e| e.to_string())?;
        totals.add(backend.sim(), arch);

        // Oracle: every level to completion in 10k-cycle slices.
        let mut perf = Vec::with_capacity(levels.len());
        for level in levels {
            let mut sim = spans.span("sim.new", ci as u64, || {
                Simulation::new(
                    machine.clone(),
                    level,
                    SyntheticWorkload::new(cell.spec.clone()),
                )
            });
            let mut slices = 0u64;
            while !sim.finished() {
                if sim.now() >= self.max_run_cycles {
                    return Err(format!(
                        "{}: oracle run at {level} did not finish within {} cycles",
                        cell.entry.id, self.max_run_cycles
                    ));
                }
                let t = CpuClock::start();
                let n = spans.span("sim.run_cycles", slices, || sim.run_cycles(SLICE_CYCLES));
                op_ms.push(ms(t.elapsed()));
                host.after_op();
                slices += 1;
                if n == 0 {
                    break;
                }
            }
            slices_at.push((level, slices));
            totals.add(&sim, arch);
            let cycles = sim.now().max(1);
            perf.push((level, sim.workload().work_done() as f64 / cycles as f64));
        }

        let replay: TraceReplay = spans
            .span("corpus.replay_trace", ci as u64, || {
                replay_trace(&cell.trace, &cell.policy)
            })
            .map_err(|e| e.to_string())?;
        Ok(Fresh {
            trace_checksum: 0,
            trace_windows: written,
            perf,
            predicted: replay.predicted,
        })
    }
}

impl Workload for Label {
    const NAME: &'static str = "label";
    const NOMINAL_PASS_S: f64 = 30.0;
    const SETUP_REPS: usize = 51;

    fn setup(root: &Path, _seed: u64) -> Result<Label, String> {
        let manifest_path = root.join("results/corpus/manifest.json");
        let manifest = CorpusManifest::load(&manifest_path).map_err(|e| e.to_string())?;
        let score_path = root.join("results/score/score-s.json");
        let score = std::fs::read_to_string(&score_path)
            .map_err(|e| format!("reading {}: {e}", score_path.display()))?;
        let score = serde_json::parse_value(&score)
            .map_err(|e| format!("parsing {}: {e}", score_path.display()))?;
        let out = root.join("perfbench/out/label");
        std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
        let mut cells = Vec::new();
        for id in CELLS {
            let entry = manifest
                .entries
                .iter()
                .find(|e| e.id == id)
                .ok_or_else(|| format!("{id} is not in {}", manifest_path.display()))?
                .clone();
            let spec = suite_for_arch(entry.arch)
                .into_iter()
                .find(|s| s.name == entry.workload)
                .ok_or_else(|| format!("{id}: no catalog workload {}", entry.workload))?
                .scaled(entry.scale);
            let policy = ReplayPolicy::from_arch_policy(
                manifest
                    .arch_policy(entry.arch)
                    .map_err(|e| e.to_string())?,
            );
            let score = score_ref(&score, id)?;
            let trace = out.join(format!("{}.smtc", id.replace('/', "-")));
            cells.push(Cell {
                entry,
                spec,
                policy,
                score,
                trace,
            });
        }
        Ok(Label {
            cells,
            window_cycles: manifest.window_cycles,
            windows: manifest.windows,
            warmup_cycles: manifest.warmup_cycles,
            max_run_cycles: BuildOptions::default().max_run_cycles,
            last: SimTotals::default(),
            verdicts: Vec::new(),
        })
    }

    fn pass(&mut self, spans: &mut Spans, host: &mut HostSpeed) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut totals = SimTotals::default();
        let mut verdicts = Vec::new();
        let t0 = CpuClock::start();
        for (ci, cell) in self.cells.iter().enumerate() {
            let open = spans.enter("label.cell", ci as u64);
            let mut slices_at = Vec::new();
            let mut fresh = self.run_cell(
                ci,
                cell,
                spans,
                &mut pass.op_ms,
                &mut slices_at,
                &mut totals,
                host,
            )?;
            let found = spans.span("corpus.check", ci as u64, || {
                let bytes = std::fs::read(&cell.trace)
                    .map_err(|e| format!("re-reading {}: {e}", cell.trace.display()))?;
                fresh.trace_checksum = fnv1a(&bytes);
                Ok::<_, String>(check_cell(&cell.entry, &cell.score, &fresh))
            })?;
            spans.exit(open);
            verdicts.push(fresh.near_tie_correct());
            let cell_ok = !found.iter().any(|(s, _)| *s == Scope::Cell);
            for (level, n) in slices_at {
                let level_ok = !found.iter().any(|(s, _)| *s == Scope::Level(level));
                pass.tally.add(n, cell_ok && level_ok);
            }
            pass.mismatches
                .extend(found.into_iter().map(|(_, m)| m).take(1));
        }
        pass.time_s = (t0.elapsed() - host.spent()).as_secs_f64();
        pass.ops = pass.op_ms.len() as u64;
        self.last = totals;
        self.verdicts = verdicts;
        Ok(pass)
    }

    fn layers(&mut self, spans: &Spans, passes: usize, out: &mut Layers) -> Result<(), String> {
        let r = spans.report();
        let per = passes as f64;
        let t = self.last;
        let sim_s = r
            .iter()
            .filter(|(name, _)| name.starts_with("sim."))
            .map(|(_, s)| s.self_ns as f64 / 1e9)
            .sum::<f64>()
            / per;
        out.set("sim.busy_s", sim_s);
        out.set("sim.mips", t.instructions as f64 / sim_s / 1e6);
        out.set("sim.cycles", t.cycles as f64);
        out.set("sim.instructions", t.instructions as f64);
        out.set("sim.fast_forward_ratio", t.skipped as f64 / t.cycles as f64);
        for (span, metric, scale) in [
            ("sim.record_window", "sim.window_ms", 1e-3),
            ("collector.append", "collector.append_us", 1.0),
            ("corpus.check", "corpus.check_ms", 1e-3),
        ] {
            if let Some(s) = r.get(span) {
                out.set(metric, s.self_us_each() * scale);
            }
        }
        let right = self.verdicts.iter().filter(|v| **v).count();
        out.set(
            "corpus.accuracy",
            right as f64 / self.verdicts.len().max(1) as f64,
        );

        // Host time per simulated cycle, per arch: the `sim.*` spans
        // directly inside each cell's span, over the cycles they simulated.
        let mut arch_ns = [0f64; 2];
        let all = spans.spans();
        for s in all.iter().filter(|s| s.name.starts_with("sim.")) {
            if let Some(cell) = all
                .get(s.parent as usize)
                .filter(|p| p.name == "label.cell")
            {
                arch_ns[Self::arch_index(&self.cells[cell.id as usize])] +=
                    (s.end - s.start) as f64;
            }
        }
        for (arch, name) in [(0, "sim.ns_per_cycle.p7"), (1, "sim.ns_per_cycle.nhm")] {
            if t.cycles_by_arch[arch] > 0 {
                out.set(name, arch_ns[arch] / per / t.cycles_by_arch[arch] as f64);
            }
        }

        // Standalone: decode, metric and controller costs on the fresh
        // traces; phase shares from profiled slices; the generator's cost.
        let (mut windows, mut decode, mut push, mut observe, mut bytes) = (0, 0, 0, 0, 0);
        let mut prof = PhaseProfile::default();
        let mut gen = Vec::new();
        for cell in &self.cells {
            let reader = TraceReader::open(&cell.trace).map_err(|e| e.to_string())?;
            let (ws, ns) = decode_timed(reader)?;
            let machine = machine_for_arch(cell.entry.arch);
            let spec = MetricSpec::for_arch(&machine.arch);
            let selector =
                selector_for_machine(&machine, &cell.policy).map_err(|e| e.to_string())?;
            let (p, o) = push_and_observe_ns(
                OnlineSampler::new(spec, self.window_cycles, cell.policy.controller.alpha),
                DynamicSmtController::new(selector, spec, cell.policy.controller),
                &ws,
            );
            windows += ws.len();
            decode += ns;
            push += p;
            observe += o;
            bytes += std::fs::metadata(&cell.trace)
                .map_err(|e| e.to_string())?
                .len();
            for level in machine.smt_levels() {
                let mut sim = Simulation::new(
                    machine.clone(),
                    level,
                    SyntheticWorkload::new(cell.spec.clone()),
                );
                for _ in 0..PROFILE_SLICES {
                    sim.run_cycles_profiled(SLICE_CYCLES, &mut prof);
                }
            }
            gen.push(gen_ns_per_instr(
                &cell.spec,
                machine.sw_threads_at(SmtLevel::Smt4),
            ));
        }
        let us_per_window = |ns: u128| ns as f64 / 1e3 / windows.max(1) as f64;
        out.set("collector.decode_us", us_per_window(decode));
        out.set("collector.trace_bytes", bytes as f64);
        out.set("metric.push_us", us_per_window(push));
        out.set("sched.observe_us", us_per_window(observe));
        if let Some(s) = r.get("corpus.replay_trace") {
            out.set(
                "corpus.replay_us_per_window",
                s.self_ns as f64 / 1e3 / per / windows.max(1) as f64,
            );
        }
        let total = prof.total_ticks().max(1) as f64;
        for (phase, ticks) in prof.phases() {
            let name = match phase {
                "retire" => "sim.share.retire",
                "issue_scan" => "sim.share.issue_scan",
                "cache" => "sim.share.cache",
                "dispatch" => "sim.share.dispatch",
                "fetch" => "sim.share.fetch",
                _ => "sim.share.bookkeeping",
            };
            out.set(name, ticks as f64 / total);
        }
        out.set("workloads.gen_ns_per_instr", mean(&gen));
        Ok(())
    }
}

/// Look up a cell's committed outcome in `score-s.json`.
fn score_ref(score: &serde_json::Value, id: &str) -> Result<ScoreRef, String> {
    let entry = score
        .get("entries")
        .and_then(|e| e.as_array())
        .and_then(|es| {
            es.iter()
                .find(|e| e.get("id").and_then(|v| v.as_str()) == Some(id))
        })
        .ok_or_else(|| format!("{id} is not in results/score/score-s.json"))?;
    let predicted = match entry.get("predicted") {
        None | Some(serde_json::Value::Null) => None,
        Some(v) => Some(SmtLevel::from_value(v).map_err(|e| format!("{id}: {e}"))?),
    };
    let correct = match entry.get("correct") {
        Some(serde_json::Value::Bool(b)) => *b,
        _ => return Err(format!("{id}: score-s.json entry has no `correct`")),
    };
    Ok(ScoreRef { predicted, correct })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }

    fn entry(id: &str) -> CorpusEntry {
        let m = CorpusManifest::load(&root().join("results/corpus/manifest.json")).expect("load");
        m.entries.into_iter().find(|e| e.id == id).expect("entry")
    }

    /// What a correct pass computes for a cell: the committed values.
    fn fresh_from(e: &CorpusEntry, predicted: Option<SmtLevel>) -> Fresh {
        Fresh {
            trace_checksum: e.trace_checksum,
            trace_windows: e.trace_windows,
            perf: e.oracle.perf.clone(),
            predicted,
        }
    }

    #[test]
    fn committed_values_pass_the_check() {
        let score = std::fs::read_to_string(root().join("results/score/score-s.json")).unwrap();
        let score = serde_json::parse_value(&score).unwrap();
        for id in CELLS {
            let e = entry(id);
            let s = score_ref(&score, id).expect("score entry");
            let found = check_cell(&e, &s, &fresh_from(&e, s.predicted));
            assert!(found.is_empty(), "{found:?}");
        }
    }

    #[test]
    fn default_cells_score_two_of_three() {
        let score = std::fs::read_to_string(root().join("results/score/score-s.json")).unwrap();
        let score = serde_json::parse_value(&score).unwrap();
        let verdicts: Vec<bool> = CELLS
            .iter()
            .map(|id| {
                let s = score_ref(&score, id).unwrap();
                fresh_from(&entry(id), s.predicted).near_tie_correct()
            })
            .collect();
        assert_eq!(verdicts, [false, true, true]);
    }

    #[test]
    fn a_flipped_manifest_perf_value_is_detected() {
        let e = entry("p7/s/Stream");
        let s = ScoreRef {
            predicted: Some(SmtLevel::Smt2),
            correct: true,
        };
        let fresh = fresh_from(&e, s.predicted);
        let mut tampered = e.clone();
        let bits = tampered.oracle.perf[1].1.to_bits() ^ 1;
        tampered.oracle.perf[1].1 = f64::from_bits(bits);
        let found = check_cell(&tampered, &s, &fresh);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].0, Scope::Level(SmtLevel::Smt2));
        assert!(found[0].1.contains("oracle perf at"), "{}", found[0].1);
    }

    #[test]
    fn a_changed_trace_or_prediction_fails_the_cell() {
        let e = entry("p7/s/Dedup");
        let s = ScoreRef {
            predicted: Some(SmtLevel::Smt1),
            correct: false,
        };
        let mut fresh = fresh_from(&e, s.predicted);
        fresh.trace_checksum ^= 1;
        fresh.predicted = Some(SmtLevel::Smt2);
        let found = check_cell(&e, &s, &fresh);
        assert!(found.iter().all(|(scope, _)| *scope == Scope::Cell));
        assert!(found[0].1.contains("trace checksum"), "{found:?}");
        // Predicting the oracle's best flips the near-tie verdict too.
        assert_eq!(found.len(), 3, "{found:?}");
    }
}
