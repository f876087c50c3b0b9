//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload label|tune|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root: the references each pass is checked
//! against (`results/corpus/manifest.json`, `results/score/score-s.json`,
//! `crates/autotune/tests/golden/`) are read from the working directory.
//! A human-readable report goes to stderr; the last line of stdout is one
//! JSON object `{correct, attempted, failed, metrics}`. With `--trace 0`
//! the metrics are the end-to-end set, with `--trace 1` the per-layer set
//! from a traced run (see README.md).

mod host;
mod label;
mod layers;
mod serve;
mod spans;
mod stats;
mod tune;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use host::HostSpeed;
use layers::{Layers, END_TO_END};
use spans::Spans;
use stats::{median, Samples, Tail, Tally};

/// Seed that selects each workload's canonical inputs.
pub const DEFAULT_SEED: u64 = 0;

/// SplitMix64 over `(seed, stream)`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one timed pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Time of the timed section, seconds, on the workload's clock: the
    /// thread's CPU clock for the single-threaded `label` and `tune`
    /// ([`stats::CpuClock`]), wall time for the multi-threaded `serve`.
    /// Op latencies in `op_ms` use the same clock. Neither is scaled yet:
    /// the runner divides both by the host slowdowns the pass's probe
    /// measured.
    pub time_s: f64,
    /// Ops completed, for `ops_per_s`.
    pub ops: u64,
    /// Latency of each timed op, ms (the workload's `op_*` population).
    pub op_ms: Vec<f64>,
    /// Ops attempted and failed (errors and reference mismatches).
    pub tally: Tally,
    /// First mismatch of each failed check, for the report.
    pub mismatches: Vec<String>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Workload name on the command line.
    const NAME: &'static str;
    /// Nominal time of one pass on the reference host; `--seconds`
    /// divided by this fixes how many passes a run makes.
    const NOMINAL_PASS_S: f64;
    /// Set-up repetitions per run (the median is reported).
    const SETUP_REPS: usize;

    /// Untimed preparation from the committed references.
    fn setup(root: &Path, seed: u64) -> Result<Self, String>;

    /// One fixed-work timed pass, checked against the references. It
    /// runs `host`'s probe between its ops (or around its timed section)
    /// and leaves the probe's time out of its own.
    fn pass(&mut self, spans: &mut Spans, host: &mut HostSpeed) -> Result<Pass, String>;

    /// Per-layer metrics for the traced passes just run; `passes` is how
    /// many there were, `spans` what they recorded.
    fn layers(&mut self, spans: &Spans, passes: usize, out: &mut Layers) -> Result<(), String>;

    /// Release what set-up acquired (stop the daemon).
    fn teardown(self) {}
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required (label, tune or serve)")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let result = match args.workload.as_str() {
        label::Label::NAME => run::<label::Label>(&root, &args),
        tune::Tune::NAME => run::<tune::Tune>(&root, &args),
        serve::Serve::NAME => run::<serve::Serve>(&root, &args),
        other => Err(format!("unknown workload {other} (label, tune or serve)")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set up `SETUP_REPS` times (keeping the last), run the passes, and
/// render the result line.
fn run<W: Workload>(root: &Path, args: &Args) -> Result<String, String> {
    let mut setup_s = Vec::with_capacity(W::SETUP_REPS);
    let mut bench = None;
    for _ in 0..W::SETUP_REPS {
        if let Some(previous) = bench.take() {
            W::teardown(previous);
        }
        let t = Instant::now();
        let b = W::setup(root, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.ok_or("SETUP_REPS must be at least 1")?;
    let passes = ((args.seconds as f64 / W::NOMINAL_PASS_S).round() as usize).max(1);
    let outcome = if args.trace {
        traced(&mut bench, args, passes)
    } else {
        untraced(&mut bench, args, passes, median(&setup_s))
    };
    W::teardown(bench);
    outcome
}

/// Run `n` passes with `spans` and summarize them.
fn passes<W: Workload>(bench: &mut W, n: usize, spans: &mut Spans) -> Result<Runs, String> {
    let mut runs = Runs::default();
    for i in 0..n {
        let wall = Instant::now();
        let mut host = HostSpeed::new();
        let p = bench.pass(spans, &mut host)?;
        let wall_s = wall.elapsed().as_secs_f64();
        let slowdown = host.slowdown();
        let op_ms = host.scale_ops(&p.op_ms);
        for m in &p.mismatches {
            eprintln!("[{}]   MISMATCH {m}", W::NAME);
        }
        let (time_s, ops, failed) = (p.time_s, p.ops, p.tally.failed);
        runs.add(p, slowdown, op_ms)?;
        let t = runs.tails[i];
        eprintln!(
            "[{}] pass {}/{n}: {time_s:.3} s ({wall_s:.3} s wall), host slowdown {slowdown:.4} over {} probes, {ops} ops, {failed} failed; scaled: {:.3} s, op p50 {:.4} ms, op p{} {:.4} ms",
            W::NAME,
            i + 1,
            host.chunks(),
            runs.time_s[i],
            runs.p50_ms[i],
            t.pct,
            t.value
        );
    }
    Ok(runs)
}

/// What each pass of one run produced. Timings are scaled to the
/// reference host by the probe's slowdowns (see `host`), summarized per
/// pass and reported as the median over passes, so a burst of host noise
/// that slows one pass does not move the run's figures.
#[derive(Debug, Default)]
struct Runs {
    time_s: Vec<f64>,
    ops_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    tails: Vec<Tail>,
    tally: Tally,
}

impl Runs {
    /// Add a pass, its slowdown, and its op latencies already scaled.
    fn add(&mut self, p: Pass, slowdown: f64, op_ms: Vec<f64>) -> Result<(), String> {
        let ops = Samples::new(op_ms);
        let tail = ops
            .tail()
            .ok_or_else(|| format!("{} op samples in a pass are too few for a tail", ops.len()))?;
        let time_s = p.time_s / slowdown;
        self.time_s.push(time_s);
        self.ops_per_s.push(p.ops as f64 / time_s);
        self.p50_ms.push(ops.p50().unwrap_or(0.0));
        self.tails.push(tail);
        self.tally.merge(p.tally);
        Ok(())
    }

    fn pass_s(&self) -> f64 {
        median(&self.time_s)
    }

    /// Every mismatch fails at least one op, so no failed op means every
    /// check passed.
    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }
}

fn untraced<W: Workload>(
    bench: &mut W,
    args: &Args,
    n: usize,
    setup_s: f64,
) -> Result<String, String> {
    let mut off = Spans::new(false);
    let runs = passes(bench, n, &mut off)?;
    let rss = stats::peak_rss_mb().ok_or("/proc/self/status has no VmHWM")?;
    let tail_ms: Vec<f64> = runs.tails.iter().map(|t| t.value).collect();
    let values = [
        setup_s,
        runs.pass_s(),
        rss,
        runs.tally.ok_rate(),
        median(&runs.ops_per_s),
        median(&runs.p50_ms),
        median(&tail_ms),
    ];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    let t = runs.tails[0];
    eprintln!(
        "[{}] seed {} | {n} passes | per pass: op_p50_ms over {} samples, op_tail_ms = p{} ({} beyond); medians over passes:",
        W::NAME,
        args.seed,
        t.n,
        t.pct,
        t.beyond
    );
    for (name, value, unit) in &metrics {
        eprintln!("[{}] {name:<12} {value:>14.6} {unit}", W::NAME);
    }
    Ok(result_line(runs.correct(), runs.tally, &metrics))
}

/// The traced run: untraced passes for the overhead baseline, then the
/// same number of traced passes whose spans give the per-layer metrics.
fn traced<W: Workload>(bench: &mut W, args: &Args, n: usize) -> Result<String, String> {
    let half = (n / 2).max(1);
    let mut off = Spans::new(false);
    let base = passes(bench, half, &mut off)?;
    let mut on = Spans::new(true);
    let traced = passes(bench, half, &mut on)?;
    let mut layers = Layers::new();
    bench.layers(&on, half, &mut layers)?;
    layers.set("trace.overhead", traced.pass_s() / base.pass_s());
    layers.set("trace.spans", on.spans().len() as f64 / half as f64);

    let file = Path::new("perfbench/out").join(format!("spans-{}-{}.jsonl", W::NAME, args.seed));
    on.write_jsonl(&file)
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    eprintln!(
        "[{}] {} spans written to {}",
        W::NAME,
        on.spans().len(),
        file.display()
    );
    eprintln!("[{}] self time by span (traced passes: {half}):", W::NAME);
    eprintln!(
        "  {:<28} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, s) in on.report() {
        eprintln!(
            "  {name:<28} {:>9} {:>12.3} {:>12.3}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6
        );
    }
    eprintln!(
        "[{}] tracing overhead: traced pass_s {:.4} / untraced pass_s {:.4} = {:.4}",
        W::NAME,
        traced.pass_s(),
        base.pass_s(),
        traced.pass_s() / base.pass_s()
    );
    let metrics = layers.rows();
    for (name, value, unit) in &metrics {
        eprintln!("[{}] {name:<30} {value:>16.6} {unit}", W::NAME);
    }
    let mut tally = base.tally;
    tally.merge(traced.tally);
    let correct = base.correct() && traced.correct();
    Ok(result_line(correct, tally, &metrics))
}

/// Render the final JSON result line.
fn result_line(correct: bool, tally: Tally, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// A finite f64 as JSON with every digit it carries (`{:?}` prints the
/// shortest string that round-trips). Non-finite values have no JSON
/// spelling and are reported as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let tally = Tally {
            attempted: 10,
            failed: 1,
        };
        let line = result_line(
            false,
            tally,
            &[("pass_s", 1.25, "s"), ("ok_rate", 0.9, "share")],
        );
        let v = serde_json::parse_value(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let pass = v
            .get("metrics")
            .and_then(|m| m.get("pass_s"))
            .expect("pass_s");
        assert_eq!(pass.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(pass.get("unit").and_then(|x| x.as_str()), Some("s"));
    }

    #[test]
    fn json_numbers_keep_all_digits() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0.0");
    }
}
