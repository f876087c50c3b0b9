//! `tune`: the closed-loop autotuner on the simulator.
//!
//! One pass runs the committed golden closed loop — EP →
//! SPECjbb_contention → EP on `power7(1)`, 4,000-cycle windows,
//! `SimActuator` + `AutotuneLoop`, thresholds 0.10/0.15 — once in each of
//! the six orders of its phases, recording every window into an in-memory
//! `.smtc` trace. Each window (measure, record, observe, and reconfigure
//! when the loop switches) is one timed op. The seed only reorders the
//! six loops, so every seed does the same work.
//!
//! The loop in the golden order must reproduce
//! `crates/autotune/tests/golden/phased.smtc` byte for byte and its
//! decision log `phased.decisions.json`. The other orders are checked by
//! record → replay purity alone: replaying the recorded trace through a
//! fresh loop must reproduce the live decision log.

use std::io::Cursor;
use std::path::Path;

use smt_autotune::{
    Actuator, AutotuneConfig, AutotuneLoop, AutotuneReport, Command, DecisionReason,
    DryRunActuator, SimActuator,
};
use smt_collect::{TraceMeta, TraceReader, TraceWriter};
use smt_sched::{ControllerConfig, DynamicSmtController};
use smt_sim::{MachineConfig, Simulation, SmtLevel};
use smt_workloads::{catalog, PhasedWorkload, WorkloadSpec};
use smtsm::{LevelSelector, MetricSpec, OnlineSampler, ThresholdPredictor};

use crate::host::HostSpeed;
use crate::layers::{decode_timed, gen_ns_per_instr, mean, push_and_observe_ns, Layers};
use crate::spans::Spans;
use crate::stats::{ms, CpuClock};
use crate::{mix, Pass, Workload, DEFAULT_SEED};

/// The golden run's parameters (crates/autotune/tests/golden_replay.rs).
const WINDOW_CYCLES: u64 = 4_000;
const T_TOP: f64 = 0.10;
const T_MID: f64 = 0.15;
const MAX_CYCLES: u64 = 600_000_000;

/// Phase orders: every permutation of the golden phases, golden first.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// The golden phases, in the committed order.
fn golden_phases() -> Vec<WorkloadSpec> {
    vec![
        catalog::ep().scaled(0.2),
        catalog::specjbb_contention().scaled(0.3),
        catalog::ep().scaled(0.12),
    ]
}

/// The phase orders one pass runs, in the order it runs them: all six
/// permutations (so every seed does the same work), golden first for the
/// default seed and shuffled by any other seed.
pub fn orders_for_seed(seed: u64) -> Vec<[usize; 3]> {
    let mut orders = ORDERS.to_vec();
    if seed != DEFAULT_SEED {
        for i in (1..orders.len()).rev() {
            let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
            orders.swap(i, j);
        }
    }
    orders
}

fn config() -> AutotuneConfig {
    AutotuneConfig {
        window_cycles: WINDOW_CYCLES,
        ..AutotuneConfig::default()
    }
}

fn selector() -> LevelSelector {
    LevelSelector::three_level(
        ThresholdPredictor::fixed(T_TOP),
        ThresholdPredictor::fixed(T_MID),
    )
}

fn new_loop() -> Result<AutotuneLoop, String> {
    AutotuneLoop::new(selector(), MetricSpec::power7(), config()).map_err(|e| e.to_string())
}

/// The decision log as the golden file spells it.
fn render(report: &AutotuneReport) -> Result<String, String> {
    serde_json::to_string_pretty(report)
        .map(|s| s + "\n")
        .map_err(|e| e.to_string())
}

/// First difference between two texts, by line, or `None` when equal.
pub fn first_line_diff(got: &str, want: &str) -> Option<String> {
    if got == want {
        return None;
    }
    let mut g = got.lines();
    let mut w = want.lines();
    for line in 1.. {
        match (g.next(), w.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (a, b) => {
                return Some(format!(
                    "line {line}: got {:?}, reference {:?}",
                    a.unwrap_or("<end>"),
                    b.unwrap_or("<end>")
                ))
            }
        }
    }
    unreachable!("the line loop returns on the first difference")
}

/// Offset of the first differing byte, or `None` when equal.
fn first_byte_diff(got: &[u8], want: &[u8]) -> Option<usize> {
    if got == want {
        return None;
    }
    Some(
        got.iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len())),
    )
}

/// Replay a recorded trace through a fresh loop and a dry-run actuator.
fn replay(bytes: &[u8]) -> Result<AutotuneReport, String> {
    let mut reader = TraceReader::new(Cursor::new(bytes)).map_err(|e| e.to_string())?;
    let mut ctl = new_loop()?;
    let mut dry = DryRunActuator::new();
    while let Some(w) = reader.next().map_err(|e| e.to_string())? {
        let from = w.smt;
        let d = ctl.observe(&w);
        if d.switched {
            dry.apply(&Command {
                window: ctl.windows_observed(),
                from,
                to: d.level,
                reason: d.reason.unwrap_or(DecisionReason::Metric),
            })
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(ctl.report())
}

/// The golden files, read at set-up.
struct Golden {
    trace: Vec<u8>,
    decisions: String,
}

/// One recorded closed loop.
struct Loop {
    bytes: Vec<u8>,
    report: AutotuneReport,
    /// Instructions issued in the measured windows.
    instructions: u64,
    cycles: u64,
    skipped: u64,
    drain_cycles: u64,
}

/// The `tune` workload.
pub struct Tune {
    orders: Vec<[usize; 3]>,
    golden: Golden,
    /// The most recent pass's loops (for the traced run's layers).
    last: Vec<Loop>,
}

impl Tune {
    /// Run one closed loop exactly as `SimActuator::run_recording` does,
    /// timing each window.
    fn run_loop(
        &self,
        li: usize,
        order: [usize; 3],
        spans: &mut Spans,
        op_ms: &mut Vec<f64>,
        host: &mut HostSpeed,
    ) -> Result<Loop, String> {
        let machine = MachineConfig::power7(1);
        let golden = golden_phases();
        let phases = order.iter().map(|&i| golden[i].clone()).collect();
        let workload = PhasedWorkload::new("golden-phased".to_string(), phases);
        let sim = spans.span("sim.new", li as u64, || {
            Simulation::new(machine.clone(), SmtLevel::Smt4, workload)
        });
        let mut act = SimActuator::new(sim);
        let mut ctl = new_loop()?;
        let meta = TraceMeta {
            machine: "p7".to_string(),
            nports: machine.arch.num_ports(),
            window_cycles: WINDOW_CYCLES,
        };
        let mut writer = TraceWriter::new(Cursor::new(Vec::with_capacity(1 << 18)), meta)
            .map_err(|e| e.to_string())?;
        let top = ctl.top_level();
        let mut instructions = 0u64;
        let mut wi = 0u64;
        while !act.sim().finished() && act.sim().now() < MAX_CYCLES {
            let t = CpuClock::start();
            let open = spans.enter("tune.window", wi);
            let parked = act.sim().smt() != top;
            let m = spans.span("sim.measure_window", wi, || {
                act.sim_mut().measure_window(WINDOW_CYCLES)
            });
            if parked && act.sim().finished() {
                spans.exit(open);
                break;
            }
            spans
                .span("collector.append", wi, || writer.append(&m))
                .map_err(|e| e.to_string())?;
            let from = m.smt;
            let d = spans.span("autotune.observe", wi, || ctl.observe(&m));
            if d.switched {
                let cmd = Command {
                    window: ctl.windows_observed(),
                    from,
                    to: d.level,
                    reason: d.reason.unwrap_or(DecisionReason::Metric),
                };
                spans
                    .span("sim.reconfigure", wi, || act.apply(&cmd))
                    .map_err(|e| e.to_string())?;
            }
            spans.exit(open);
            op_ms.push(ms(t.elapsed()));
            host.after_op();
            instructions += m.total_issued();
            wi += 1;
        }
        if !act.sim().finished() {
            return Err(format!(
                "closed loop did not finish within {MAX_CYCLES} cycles"
            ));
        }
        let (_, cursor) = writer.finalize_into_inner().map_err(|e| e.to_string())?;
        Ok(Loop {
            bytes: cursor.into_inner(),
            report: ctl.report(),
            instructions,
            cycles: act.sim().now(),
            skipped: act.sim().idle_cycles_skipped(),
            drain_cycles: act.drain_cycles(),
        })
    }

    /// Check a loop in the golden order against the golden files and any
    /// other order against its own replay; returns the first mismatch.
    fn check(&self, order: [usize; 3], l: &Loop) -> Result<Option<String>, String> {
        let live = render(&l.report)?;
        if order == ORDERS[0] {
            if let Some(at) = first_byte_diff(&l.bytes, &self.golden.trace) {
                return Ok(Some(format!(
                    "trace differs from phased.smtc at byte {at} ({} vs {} bytes)",
                    l.bytes.len(),
                    self.golden.trace.len()
                )));
            }
            Ok(check_decisions(&live, &self.golden.decisions))
        } else {
            let replayed = render(&replay(&l.bytes)?)?;
            Ok(first_line_diff(&live, &replayed)
                .map(|d| format!("order {order:?}: replay differs from live: {d}")))
        }
    }
}

/// Compare a rendered decision log with the reference log.
pub fn check_decisions(live: &str, reference: &str) -> Option<String> {
    first_line_diff(live, reference)
        .map(|d| format!("decision log differs from phased.decisions.json: {d}"))
}

impl Workload for Tune {
    const NAME: &'static str = "tune";
    const NOMINAL_PASS_S: f64 = 7.5;
    const SETUP_REPS: usize = 51;

    fn setup(root: &Path, seed: u64) -> Result<Tune, String> {
        let dir = root.join("crates/autotune/tests/golden");
        let read =
            |name: &str| std::fs::read(dir.join(name)).map_err(|e| format!("reading {name}: {e}"));
        let trace = read("phased.smtc")?;
        let decisions = String::from_utf8(read("phased.decisions.json")?)
            .map_err(|e| format!("phased.decisions.json: {e}"))?;
        Ok(Tune {
            orders: orders_for_seed(seed),
            golden: Golden { trace, decisions },
            last: Vec::new(),
        })
    }

    fn pass(&mut self, spans: &mut Spans, host: &mut HostSpeed) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut loops = Vec::with_capacity(self.orders.len());
        let t0 = CpuClock::start();
        for (li, &order) in self.orders.iter().enumerate() {
            let open = spans.enter("tune.loop", li as u64);
            let l = self.run_loop(li, order, spans, &mut pass.op_ms, host)?;
            let found = spans.span("tune.check", li as u64, || self.check(order, &l))?;
            spans.exit(open);
            pass.tally.add(l.report.windows, found.is_none());
            pass.mismatches.extend(found);
            loops.push(l);
        }
        pass.time_s = (t0.elapsed() - host.spent()).as_secs_f64();
        pass.ops = pass.op_ms.len() as u64;
        self.last = loops;
        Ok(pass)
    }

    fn layers(&mut self, spans: &Spans, passes: usize, out: &mut Layers) -> Result<(), String> {
        let r = spans.report();
        let per = passes as f64;
        let sim_s: f64 = r
            .iter()
            .filter(|(n, _)| n.starts_with("sim."))
            .map(|(_, s)| s.self_ns as f64 / 1e9)
            .sum::<f64>()
            / per;
        let loops = &self.last;
        let cycles: u64 = loops.iter().map(|l| l.cycles).sum();
        let instructions: u64 = loops.iter().map(|l| l.instructions).sum();
        out.set("sim.busy_s", sim_s);
        out.set("sim.mips", instructions as f64 / sim_s / 1e6);
        out.set("sim.cycles", cycles as f64);
        out.set("sim.instructions", instructions as f64);
        out.set("sim.ns_per_cycle.p7", sim_s * 1e9 / cycles as f64);
        out.set(
            "sim.fast_forward_ratio",
            loops.iter().map(|l| l.skipped).sum::<u64>() as f64 / cycles as f64,
        );
        out.set(
            "sim.drain_cycles",
            loops.iter().map(|l| l.drain_cycles).sum::<u64>() as f64,
        );
        for (span, metric, scale) in [
            ("sim.measure_window", "sim.window_ms", 1e-3),
            ("sim.reconfigure", "sim.reconfigure_ms", 1e-3),
            ("collector.append", "collector.append_us", 1.0),
            ("autotune.observe", "autotune.observe_us", 1.0),
        ] {
            if let Some(s) = r.get(span) {
                out.set(metric, s.self_us_each() * scale);
            }
        }
        let n = loops.len().max(1) as f64;
        out.set(
            "autotune.switches",
            loops.iter().map(|l| l.report.switches).sum::<u64>() as f64 / n,
        );
        out.set(
            "autotune.windows",
            loops.iter().map(|l| l.report.windows).sum::<u64>() as f64 / n,
        );
        out.set(
            "collector.trace_bytes",
            loops.iter().map(|l| l.bytes.len()).sum::<usize>() as f64,
        );

        // Standalone per-window costs on the first recorded loop.
        let first = loops.first().ok_or("no loop recorded")?;
        let reader = TraceReader::new(first.bytes.as_slice()).map_err(|e| e.to_string())?;
        let (windows, decode) = decode_timed(reader)?;
        let (push, observe) = push_and_observe_ns(
            OnlineSampler::new(MetricSpec::power7(), WINDOW_CYCLES, config().alpha),
            DynamicSmtController::new(
                selector(),
                MetricSpec::power7(),
                ControllerConfig {
                    window_cycles: WINDOW_CYCLES,
                    ..ControllerConfig::default()
                },
            ),
            &windows,
        );
        let per_window = |ns: u128| ns as f64 / 1e3 / windows.len().max(1) as f64;
        out.set("collector.decode_us", per_window(decode));
        out.set("metric.push_us", per_window(push));
        out.set("sched.observe_us", per_window(observe));
        let threads = MachineConfig::power7(1).sw_threads_at(SmtLevel::Smt4);
        let gen: Vec<f64> = golden_phases()
            .iter()
            .map(|s| gen_ns_per_instr(s, threads))
            .collect();
        out.set("workloads.gen_ns_per_instr", mean(&gen));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden(name: &str) -> String {
        let p = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../crates/autotune/tests/golden/"
        );
        std::fs::read_to_string(format!("{p}{name}")).expect("golden file")
    }

    #[test]
    fn the_golden_log_matches_itself() {
        let g = golden("phased.decisions.json");
        assert_eq!(check_decisions(&g, &g), None);
    }

    #[test]
    fn an_edited_decision_is_detected() {
        let g = golden("phased.decisions.json");
        let edited = g.replacen("\"to\": \"Smt1\"", "\"to\": \"Smt2\"", 1);
        assert_ne!(edited, g, "the golden log switches to Smt1 at least once");
        let found = check_decisions(&edited, &g).expect("mismatch");
        assert!(found.contains("Smt2") && found.contains("line "), "{found}");
        assert!(found.starts_with("decision log differs"), "{found}");
    }

    #[test]
    fn a_truncated_log_is_detected() {
        let g = golden("phased.decisions.json");
        let cut: String = g.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert!(check_decisions(&cut, &g)
            .expect("mismatch")
            .contains("<end>"));
    }

    #[test]
    fn every_seed_runs_all_six_orders() {
        assert_eq!(orders_for_seed(DEFAULT_SEED), ORDERS.to_vec());
        let mut firsts = std::collections::BTreeSet::new();
        for seed in 1..64 {
            let mut o = orders_for_seed(seed);
            firsts.insert(o[0]);
            o.sort();
            assert_eq!(
                o,
                ORDERS.to_vec(),
                "seed {seed} must reorder, not change, the loops"
            );
        }
        assert_eq!(firsts.len(), 6, "every order can come first");
    }

    #[test]
    fn first_byte_diff_finds_the_offset() {
        assert_eq!(first_byte_diff(b"abc", b"abc"), None);
        assert_eq!(first_byte_diff(b"abc", b"abd"), Some(2));
        assert_eq!(first_byte_diff(b"ab", b"abc"), Some(2));
    }
}
