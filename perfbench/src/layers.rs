//! The metric registries: every end-to-end metric an untraced run reports
//! and every per-layer metric a traced run reports, with units. Each
//! workload's traced run reports the whole per-layer set; a layer the
//! workload does not exercise reads 0 (see README.md for which layer each
//! workload drives). Also the standalone timings several workloads share.

use std::collections::BTreeMap;
use std::io::Read;
use std::time::Instant;

use smt_collect::TraceReader;
use smt_sched::DynamicSmtController;
use smt_sim::{WindowMeasurement, Workload as _};
use smt_workloads::{SyntheticWorkload, WorkloadSpec};
use smtsm::OnlineSampler;

/// Items fetched per spec for `workloads.gen_ns_per_instr`.
const GEN_INSTRS: u64 = 400_000;

/// End-to-end metrics, in report order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "share"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics, in report order: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.busy_s", "s"),
    ("sim.mips", "Minstr/s"),
    ("sim.ns_per_cycle.p7", "ns"),
    ("sim.ns_per_cycle.nhm", "ns"),
    ("sim.share.retire", "share"),
    ("sim.share.issue_scan", "share"),
    ("sim.share.cache", "share"),
    ("sim.share.dispatch", "share"),
    ("sim.share.fetch", "share"),
    ("sim.share.bookkeeping", "share"),
    ("sim.fast_forward_ratio", "share"),
    ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    ("sim.window_ms", "ms"),
    ("sim.reconfigure_ms", "ms"),
    ("sim.drain_cycles", "count"),
    ("workloads.gen_ns_per_instr", "ns"),
    ("collector.append_us", "us"),
    ("collector.decode_us", "us"),
    ("collector.trace_bytes", "bytes"),
    ("metric.push_us", "us"),
    ("sched.observe_us", "us"),
    ("sched.place_solve_us", "us"),
    ("autotune.observe_us", "us"),
    ("autotune.switches", "count"),
    ("autotune.windows", "count"),
    ("corpus.replay_us_per_window", "us"),
    ("corpus.check_ms", "ms"),
    ("corpus.accuracy", "share"),
    ("service.server_p50_ms", "ms"),
    ("service.server_p99_ms", "ms"),
    ("service.wire_share", "share"),
    ("service.json_p50_ms", "ms"),
    ("service.json_tail_ms", "ms"),
    ("service.ndjson.encode_us", "us"),
    ("service.ndjson.decode_us", "us"),
    ("service.binary.encode_us", "us"),
    ("service.binary.decode_us", "us"),
    ("service.place_p50_ms", "ms"),
    ("service.recommend_p50_ms", "ms"),
    ("service.requests", "count"),
    ("service.errors", "count"),
    ("service.busy", "count"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// Per-layer values of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// An empty set (every metric reads 0 until set).
    pub fn new() -> Layers {
        Layers::default()
    }

    /// Set a registered metric.
    ///
    /// # Panics
    /// On a name missing from [`PER_LAYER`] — a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unregistered per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Every registered metric with its unit, in registry order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Decode every window of a trace, timing each `TraceReader::next`.
/// Returns the windows and the total decode time in ns.
pub fn decode_timed<R: Read>(
    mut reader: TraceReader<R>,
) -> Result<(Vec<WindowMeasurement>, u128), String> {
    let mut windows = Vec::new();
    let mut ns = 0u128;
    loop {
        let t = Instant::now();
        let w = reader.next().map_err(|e| e.to_string())?;
        ns += t.elapsed().as_nanos();
        match w {
            Some(w) => windows.push(w),
            None => return Ok((windows, ns)),
        }
    }
}

/// Feed `windows` to `sampler` and `ctl` one at a time, timing each
/// `OnlineSampler::push_window` and `DynamicSmtController::observe`.
/// Returns the two totals in ns.
pub fn push_and_observe_ns(
    mut sampler: OnlineSampler,
    mut ctl: DynamicSmtController,
    windows: &[WindowMeasurement],
) -> (u128, u128) {
    let (mut push, mut observe) = (0u128, 0u128);
    for w in windows {
        let t = Instant::now();
        std::hint::black_box(sampler.push_window(w));
        push += t.elapsed().as_nanos();
        let t = Instant::now();
        std::hint::black_box(ctl.observe(w));
        observe += t.elapsed().as_nanos();
    }
    (push, observe)
}

/// `Workload::fetch` cost: ns per fetched item, round-robin over
/// `threads` software threads of a fresh workload.
pub fn gen_ns_per_instr(spec: &WorkloadSpec, threads: usize) -> f64 {
    let mut w = SyntheticWorkload::new(spec.clone());
    w.set_thread_count(threads);
    let t = Instant::now();
    let mut fetched = 0u64;
    let mut now = 0u64;
    while fetched < GEN_INSTRS {
        for thread in 0..threads {
            std::hint::black_box(w.fetch(thread, now));
            fetched += 1;
        }
        now += 1;
    }
    t.elapsed().as_nanos() as f64 / fetched as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registries must list exactly the metrics `BENCHMARK.json`
    /// declares, in the same order and with the same units.
    #[test]
    fn registries_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let body = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v = serde_json::parse_value(&body).expect("BENCHMARK.json parses");
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = v
                .get(key)
                .and_then(|x| x.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|x| x.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = registry
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn unset_metrics_read_zero() {
        let mut l = Layers::new();
        l.set("sim.cycles", 5.0);
        let rows = l.rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert_eq!(
            rows.iter().find(|r| r.0 == "sim.cycles").map(|r| r.1),
            Some(5.0)
        );
        assert_eq!(
            rows.iter().find(|r| r.0 == "service.busy").map(|r| r.1),
            Some(0.0)
        );
    }
}
