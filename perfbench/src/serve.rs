//! `serve`: `smtd` under both codecs.
//!
//! Set-up spawns `smtd` in-process with its default config, reads the
//! committed `crates/autotune/tests/golden/phased.smtc` windows, and opens
//! one session per binary agent with four tagged threads. A pass runs two
//! closed-loop agents (each waits for every reply, as `Client` does) over
//! the binary codec, then two over NDJSON. Each agent sends `hello`, then
//! `ingest` batches of 4 windows with a `recommend` every 5th request;
//! binary agents also send a `place` on their tagged session after every
//! 25th request. After the timed section every answer is checked against
//! an offline `Session` fed the same windows.
//!
//! The whole workload runs on one CPU: set-up pins the main thread before
//! it spawns `smtd`, and every daemon and agent thread inherits the pin.
//! Left free on a 2-vCPU guest, each request wakes a thread on the other
//! vCPU, and how long that takes depends on the host's other tenants:
//! binary-ingest p99 moved between 0.3 and 3.8 ms from run to run. Pinned,
//! a pass measures the CPU cost of the request path, hand-offs included,
//! and repeats within a few percent.

use std::path::Path;
use std::time::{Duration, Instant};

use smt_collect::TraceReader;
use smt_sched::{
    AllocatorConfig, ControllerConfig, DynamicSmtController, PlacementReport, SearchStrategy,
};
use smt_service::{
    codec_for, spawn, Client, CodecKind, Request, Response, ServerConfig, ServerHandle, Session,
    SessionSpec,
};
use smt_sim::{MachineConfig, SmtLevel, WindowMeasurement};
use smtsm::{LevelSelector, MetricSpec, OnlineSampler, ThreadSignature, ThresholdPredictor};

use crate::host::HostSpeed;
use crate::layers::{decode_timed, push_and_observe_ns, Layers};
use crate::spans::Spans;
use crate::stats::{ms, Samples, Tally};
use crate::{mix, Pass, Workload};

/// Agents per codec phase.
const AGENTS: usize = 2;
/// Requests per binary agent per pass (after `hello`).
const BINARY_REQUESTS: usize = 1_500;
/// Requests per NDJSON agent per pass (after `hello`).
const NDJSON_REQUESTS: usize = 1_250;
/// Windows per `ingest`.
const BATCH: usize = 4;
/// Every `RECOMMEND_EVERY`-th request is a `recommend`.
const RECOMMEND_EVERY: usize = 5;
/// Binary agents send a `place` after every `PLACE_EVERY`-th request.
const PLACE_EVERY: usize = 25;
/// Threads tagged per binary agent's set-up session.
const TAGGED_THREADS: u32 = 4;
/// Windows per tagged thread.
const TAGGED_WINDOWS: usize = 8;
/// Client socket timeout.
const TIMEOUT: Duration = Duration::from_secs(20);
/// Host probe chunks run just before and just after each timed section.
const PROBE_CHUNKS: usize = 12;
/// Standalone repetitions for the codec and solver timings.
const STANDALONE_REPS: usize = 200;

/// The session every agent opens.
pub fn session_spec() -> SessionSpec {
    SessionSpec {
        window_cycles: 4_000,
        ..SessionSpec::power7()
    }
}

/// What kind of request a call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Session open.
    Hello,
    /// Window batch `batch` of the agent's stream.
    Ingest(usize),
    /// Current recommendation.
    Recommend,
    /// Placement over the tagged threads.
    Place,
}

/// One agent's window stream and request plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Codec the agent negotiates.
    pub codec: CodecKind,
    /// Requests after `hello`.
    pub requests: usize,
    /// Whether the agent also sends `place`.
    pub place: bool,
    /// The agent's window order, doubled so every batch is contiguous.
    stream: Vec<WindowMeasurement>,
}

impl Plan {
    /// A plan over `windows`, rotated by the seed. Of each pair of agents
    /// (`agent` 2k and 2k+1) one streams the windows reversed; the seed
    /// picks which, so every phase does the same mix of work.
    pub fn new(windows: &[WindowMeasurement], seed: u64, agent: u64, codec: CodecKind) -> Plan {
        let h = mix(seed, agent);
        let mut order: Vec<WindowMeasurement> = windows.to_vec();
        if (mix(seed, u64::MAX) ^ agent) & 1 == 1 {
            order.reverse();
        }
        order.rotate_left((h % windows.len().max(1) as u64) as usize);
        let mut stream = order.clone();
        stream.extend(order);
        let binary = codec == CodecKind::Binary;
        Plan {
            codec,
            requests: if binary {
                BINARY_REQUESTS
            } else {
                NDJSON_REQUESTS
            },
            place: binary,
            stream,
        }
    }

    /// The windows of ingest number `batch`.
    pub fn batch(&self, batch: usize) -> &[WindowMeasurement] {
        let n = self.stream.len() / 2;
        let start = (batch * BATCH) % n.max(1);
        &self.stream[start..start + BATCH.min(n)]
    }

    /// The verbs the agent sends, in order.
    pub fn verbs(&self) -> Vec<Verb> {
        let mut verbs = vec![Verb::Hello];
        let mut batch = 0;
        for i in 0..self.requests {
            if i % RECOMMEND_EVERY == RECOMMEND_EVERY - 1 {
                verbs.push(Verb::Recommend);
            } else {
                verbs.push(Verb::Ingest(batch));
                batch += 1;
            }
            if self.place && i % PLACE_EVERY == PLACE_EVERY - 1 {
                verbs.push(Verb::Place);
            }
        }
        verbs
    }
}

/// A server answer: the `hello` result as the client saw it, or any other
/// response.
#[derive(Debug)]
pub enum Answer {
    /// Session opened at `top`, speaking `codec`.
    Welcome {
        /// Top SMT level of the session's machine.
        top: SmtLevel,
        /// Codec granted.
        codec: CodecKind,
    },
    /// Any other response.
    Other(Response),
}

/// What one agent saw: per verb, its latency and the answer (or the
/// error).
#[derive(Debug)]
pub struct AgentLog {
    /// Calls in send order.
    pub calls: Vec<(Verb, f64, Result<Answer, String>)>,
    /// Verbs planned but never sent because the connection failed.
    pub unsent: u64,
    /// The agent's spans.
    pub spans: Spans,
}

/// Run one closed-loop agent against `endpoint`. `tagged` is the agent's
/// set-up session, used for `place`.
pub fn run_agent(
    endpoint: &str,
    plan: &Plan,
    mut tagged: Option<&mut Client>,
    mut spans: Spans,
) -> AgentLog {
    let verbs = plan.verbs();
    let mut calls = Vec::with_capacity(verbs.len());
    let mut client = match Client::connect(endpoint, TIMEOUT) {
        Ok(c) => c,
        Err(e) => {
            calls.push((Verb::Hello, 0.0, Err(e.to_string())));
            return AgentLog {
                calls,
                unsent: verbs.len() as u64 - 1,
                spans,
            };
        }
    };
    let mut unsent = 0;
    for (i, verb) in verbs.iter().enumerate() {
        let t = Instant::now();
        let id = i as u64;
        let res = match *verb {
            Verb::Hello => spans
                .span("service.hello", id, || {
                    client.hello_with(&session_spec(), plan.codec)
                })
                .map(|(_, top, codec)| Answer::Welcome { top, codec }),
            Verb::Ingest(b) => {
                let name = match plan.codec {
                    CodecKind::Binary => "service.ingest.binary",
                    CodecKind::Ndjson => "service.ingest.ndjson",
                };
                let request = Request::Ingest {
                    windows: plan.batch(b).to_vec(),
                };
                spans
                    .span(name, id, || client.call(&request))
                    .map(Answer::Other)
            }
            Verb::Recommend => spans
                .span("service.recommend", id, || client.call(&Request::Recommend))
                .map(Answer::Other),
            Verb::Place => match tagged.as_deref_mut() {
                Some(c) => {
                    let request = Request::Place {
                        threads: Vec::new(),
                    };
                    spans
                        .span("service.place", id, || c.call(&request))
                        .map(Answer::Other)
                }
                None => Err(smt_sim::Error::Io(
                    "no tagged session for place".to_string(),
                )),
            },
        };
        let elapsed = ms(t.elapsed());
        let failed_transport = res.is_err();
        calls.push((*verb, elapsed, res.map_err(|e| e.to_string())));
        if failed_transport {
            unsent = (verbs.len() - i - 1) as u64;
            break;
        }
    }
    AgentLog {
        calls,
        unsent,
        spans,
    }
}

/// Check an agent's answers against an offline `Session` fed the same
/// windows and, for `place`, the offline placement. Returns the tally and
/// the first mismatch.
pub fn verify(plan: &Plan, log: &AgentLog, place_ref: &PlacementReport) -> (Tally, Option<String>) {
    let mut tally = Tally::default();
    let mut first = None;
    let mut offline = match Session::new(0, &session_spec()) {
        Ok(s) => s,
        Err(e) => {
            tally.add(log.calls.len() as u64 + log.unsent, false);
            return (tally, Some(format!("offline session: {e}")));
        }
    };
    for (i, (verb, _, res)) in log.calls.iter().enumerate() {
        let verdict: Result<(), String> = match (verb, res) {
            (_, Err(e)) => Err(format!("transport error: {e}")),
            (_, Ok(Answer::Other(Response::Error { code, message }))) => {
                Err(format!("{code:?}: {message}"))
            }
            (Verb::Hello, Ok(Answer::Welcome { top, codec })) => {
                if *top == offline.top() && *codec == plan.codec {
                    Ok(())
                } else {
                    Err(format!("welcome top {top} codec {codec:?}"))
                }
            }
            (Verb::Ingest(b), Ok(Answer::Other(Response::Ingested(got)))) => {
                let want = offline.ingest(plan.batch(*b));
                (got == &want)
                    .then_some(())
                    .ok_or_else(|| format!("ingest {got:?} != offline {want:?}"))
            }
            (Verb::Recommend, Ok(Answer::Other(Response::Recommendation(got)))) => {
                let want = offline.recommend();
                (got == &want)
                    .then_some(())
                    .ok_or_else(|| format!("recommend {got:?} != offline {want:?}"))
            }
            (Verb::Place, Ok(Answer::Other(Response::Placement(got)))) => (got == place_ref)
                .then_some(())
                .ok_or_else(|| format!("place {got:?} != offline {place_ref:?}")),
            (verb, Ok(other)) => Err(format!("{verb:?} answered with {other:?}")),
        };
        tally.add(1, verdict.is_ok());
        if let (Err(e), None) = (verdict, &first) {
            first = Some(format!("{:?} {verb:?} request {i}: {e}", plan.codec));
        }
    }
    tally.add(log.unsent, false);
    if log.unsent > 0 && first.is_none() {
        first = Some(format!("{} requests never sent", log.unsent));
    }
    (tally, first)
}

/// Tagged windows of thread `t`.
fn tagged_windows(windows: &[WindowMeasurement], t: u32) -> &[WindowMeasurement] {
    let start = (t as usize * TAGGED_WINDOWS) % windows.len();
    &windows[start..(start + TAGGED_WINDOWS).min(windows.len())]
}

/// Open a binary session and tag [`TAGGED_THREADS`] threads on it.
fn open_tagged(endpoint: &str, windows: &[WindowMeasurement]) -> Result<Client, String> {
    let mut c = Client::connect(endpoint, TIMEOUT).map_err(|e| e.to_string())?;
    c.hello_with(&session_spec(), CodecKind::Binary)
        .map_err(|e| e.to_string())?;
    for t in 0..TAGGED_THREADS {
        c.ingest_tagged(t, tagged_windows(windows, t))
            .map_err(|e| e.to_string())?;
    }
    Ok(c)
}

/// The offline answer to `place` on a tagged session.
fn offline_place(windows: &[WindowMeasurement]) -> Result<PlacementReport, String> {
    let mut s = Session::new(0, &session_spec()).map_err(|e| e.to_string())?;
    for t in 0..TAGGED_THREADS {
        s.ingest_tagged(t, tagged_windows(windows, t));
    }
    s.place(&[]).map_err(|e| e.message().to_string())
}

/// The `serve` workload.
pub struct Serve {
    server: ServerHandle,
    endpoint: String,
    windows: Vec<WindowMeasurement>,
    trace_bytes: Vec<u8>,
    plans: Vec<Plan>,
    tagged: Vec<Client>,
    /// Latencies of the most recent pass, per verb class.
    last: Latencies,
}

/// Client-observed latencies of one pass, ms.
#[derive(Debug, Default)]
struct Latencies {
    all: Vec<f64>,
    ndjson_ingest: Vec<f64>,
    recommend: Vec<f64>,
    place: Vec<f64>,
}

impl Workload for Serve {
    const NAME: &'static str = "serve";
    const NOMINAL_PASS_S: f64 = 2.0;
    const SETUP_REPS: usize = 21;

    fn setup(root: &Path, seed: u64) -> Result<Serve, String> {
        let path = root.join("crates/autotune/tests/golden/phased.smtc");
        let trace_bytes =
            std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let windows = TraceReader::new(trace_bytes.as_slice())
            .and_then(|mut r| r.read_all())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if windows.len() < TAGGED_WINDOWS * TAGGED_THREADS as usize {
            return Err(format!("{} holds too few windows", path.display()));
        }
        crate::host::pin_to_one_cpu()?;
        let server = spawn(ServerConfig::default()).map_err(|e| e.to_string())?;
        let endpoint = format!("tcp://{}", server.local_addr());
        let mut plans = Vec::new();
        let mut tagged = Vec::new();
        for (i, codec) in [CodecKind::Binary, CodecKind::Ndjson]
            .into_iter()
            .enumerate()
        {
            for a in 0..AGENTS {
                plans.push(Plan::new(&windows, seed, (i * AGENTS + a) as u64, codec));
            }
        }
        for _ in 0..AGENTS {
            match open_tagged(&endpoint, &windows) {
                Ok(c) => tagged.push(c),
                Err(e) => {
                    server.trigger_shutdown();
                    server.join();
                    return Err(format!("opening tagged session: {e}"));
                }
            }
        }
        Ok(Serve {
            server,
            endpoint,
            windows,
            trace_bytes,
            plans,
            tagged,
            last: Latencies::default(),
        })
    }

    /// Timed on the wall clock, with host probes just before and after
    /// the timed section on the same (pinned) CPU.
    fn pass(&mut self, spans: &mut Spans, host: &mut HostSpeed) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut logs: Vec<(usize, AgentLog)> = Vec::new();
        host.probe(PROBE_CHUNKS);
        let t0 = Instant::now();
        for codec in [CodecKind::Binary, CodecKind::Ndjson] {
            let phase = spans.enter("serve.phase", codec as u64);
            let endpoint = self.endpoint.as_str();
            let plans = &self.plans;
            let mut tagged = self.tagged.iter_mut();
            let (enabled, epoch) = (spans.enabled(), spans.epoch());
            let phase_logs: Vec<(usize, AgentLog)> = std::thread::scope(|s| {
                let handles: Vec<_> = plans
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.codec == codec)
                    .map(|(i, plan)| {
                        let tag = if plan.place { tagged.next() } else { None };
                        let agent_spans = Spans::with_epoch(enabled, epoch);
                        s.spawn(move || (i, run_agent(endpoint, plan, tag, agent_spans)))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("agent thread panicked"))
                    .collect()
            });
            spans.exit(phase);
            logs.extend(phase_logs);
        }
        pass.time_s = t0.elapsed().as_secs_f64();
        host.probe(PROBE_CHUNKS);

        // Untimed: check every answer against the offline decision core.
        let place_ref = offline_place(&self.windows)?;
        let mut lat = Latencies::default();
        for (i, log) in logs {
            let plan = &self.plans[i];
            let (tally, first) = verify(plan, &log, &place_ref);
            pass.tally.merge(tally);
            pass.mismatches.extend(first);
            for (verb, ms, _) in &log.calls {
                lat.all.push(*ms);
                match (verb, plan.codec) {
                    (Verb::Ingest(_), CodecKind::Binary) => pass.op_ms.push(*ms),
                    (Verb::Ingest(_), CodecKind::Ndjson) => lat.ndjson_ingest.push(*ms),
                    (Verb::Recommend, _) => lat.recommend.push(*ms),
                    (Verb::Place, _) => lat.place.push(*ms),
                    (Verb::Hello, _) => {}
                }
            }
            spans.absorb(log.spans);
        }
        pass.ops = lat.all.len() as u64;
        self.last = lat;
        Ok(pass)
    }

    fn layers(&mut self, _spans: &Spans, _passes: usize, out: &mut Layers) -> Result<(), String> {
        let stats = self.server.metrics().report();
        let p50 = |v: &[f64]| Samples::new(v.to_vec()).p50().unwrap_or(0.0);
        let server_p50 = stats.p50_us as f64 / 1e3;
        out.set("service.server_p50_ms", server_p50);
        out.set("service.server_p99_ms", stats.p99_us as f64 / 1e3);
        out.set("service.wire_share", 1.0 - server_p50 / p50(&self.last.all));
        out.set("service.requests", stats.requests_total as f64);
        out.set("service.errors", stats.errors_total as f64);
        out.set("service.busy", stats.busy_rejections as f64);
        let json = Samples::new(self.last.ndjson_ingest.clone());
        out.set("service.json_p50_ms", json.p50().unwrap_or(0.0));
        out.set(
            "service.json_tail_ms",
            json.tail().map(|t| t.value).unwrap_or(0.0),
        );
        out.set("service.place_p50_ms", p50(&self.last.place));
        out.set("service.recommend_p50_ms", p50(&self.last.recommend));

        // Standalone: codecs on the pass's ingest frames.
        let plan = &self.plans[0];
        let requests: Vec<Request> = (0..STANDALONE_REPS)
            .map(|b| Request::Ingest {
                windows: plan.batch(b).to_vec(),
            })
            .collect();
        for (kind, enc_name, dec_name) in [
            (
                CodecKind::Ndjson,
                "service.ndjson.encode_us",
                "service.ndjson.decode_us",
            ),
            (
                CodecKind::Binary,
                "service.binary.encode_us",
                "service.binary.decode_us",
            ),
        ] {
            let codec = codec_for(kind);
            let mut frames = Vec::with_capacity(requests.len());
            let t = Instant::now();
            for r in &requests {
                let mut out = Vec::new();
                codec
                    .encode_request(r, &mut out)
                    .map_err(|e| e.to_string())?;
                frames.push(out);
            }
            out.set(
                enc_name,
                t.elapsed().as_secs_f64() * 1e6 / requests.len() as f64,
            );
            let t = Instant::now();
            for f in &frames {
                let frame = codec
                    .split_frame(f)
                    .map_err(|e| e.to_string())?
                    .ok_or("incomplete frame")?;
                std::hint::black_box(
                    codec
                        .decode_request(&f[frame.start..frame.end])
                        .map_err(|e| e.to_string())?,
                );
            }
            out.set(
                dec_name,
                t.elapsed().as_secs_f64() * 1e6 / frames.len() as f64,
            );
        }

        // Standalone: the allocator on the tagged thread set.
        let spec = MetricSpec::power7();
        let sigs: Vec<ThreadSignature> = (0..TAGGED_THREADS)
            .map(|t| ThreadSignature::from_windows(&spec, tagged_windows(&self.windows, t)))
            .collect();
        let t = Instant::now();
        for _ in 0..STANDALONE_REPS {
            std::hint::black_box(
                AllocatorConfig::for_machine(MachineConfig::power7(1))
                    .threads(sigs.clone())
                    .search(SearchStrategy::Auto)
                    .solve()
                    .map_err(|e| e.to_string())?,
            );
        }
        out.set(
            "sched.place_solve_us",
            t.elapsed().as_secs_f64() * 1e6 / STANDALONE_REPS as f64,
        );

        // Standalone: the session's decision core on the streamed windows,
        // and decoding the trace they come from.
        let streamed: Vec<WindowMeasurement> = (0..STANDALONE_REPS)
            .flat_map(|b| plan.batch(b).to_vec())
            .collect();
        let spec = session_spec();
        let metric = MetricSpec::power7();
        let (push, observe) = push_and_observe_ns(
            OnlineSampler::new(metric, spec.window_cycles, spec.alpha),
            DynamicSmtController::new(
                LevelSelector::three_level(
                    ThresholdPredictor::fixed(spec.threshold),
                    ThresholdPredictor::fixed(spec.mid),
                ),
                metric,
                ControllerConfig {
                    window_cycles: spec.window_cycles,
                    alpha: spec.alpha,
                    hysteresis: spec.hysteresis,
                    probe_interval: spec.probe_interval,
                    phase_detect: spec.phase_detect,
                },
            ),
            &streamed,
        );
        let per_window = |ns: u128| ns as f64 / 1e3 / streamed.len() as f64;
        out.set("metric.push_us", per_window(push));
        out.set("sched.observe_us", per_window(observe));
        let reader = TraceReader::new(self.trace_bytes.as_slice()).map_err(|e| e.to_string())?;
        let (decoded, decode) = decode_timed(reader)?;
        out.set(
            "collector.decode_us",
            decode as f64 / 1e3 / decoded.len().max(1) as f64,
        );
        Ok(())
    }

    fn teardown(self) {
        drop(self.tagged);
        self.server.trigger_shutdown();
        self.server.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows() -> Vec<WindowMeasurement> {
        let p = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../crates/autotune/tests/golden/phased.smtc"
        );
        TraceReader::open(p)
            .and_then(|mut r| r.read_all())
            .expect("golden trace")
    }

    fn small(mut plan: Plan, requests: usize) -> Plan {
        plan.requests = requests;
        plan
    }

    #[test]
    fn matching_answers_are_all_ok() {
        let w = windows();
        let server = spawn(ServerConfig::default()).expect("spawn");
        let ep = format!("tcp://{}", server.local_addr());
        let mut tagged = open_tagged(&ep, &w).expect("tagged");
        let plan = small(Plan::new(&w, 7, 0, CodecKind::Binary), 60);
        let log = run_agent(&ep, &plan, Some(&mut tagged), Spans::new(false));
        let (tally, first) = verify(&plan, &log, &offline_place(&w).unwrap());
        assert_eq!(first, None);
        assert_eq!(tally.attempted, plan.verbs().len() as u64);
        assert_eq!(tally.ok_rate(), 1.0);
        drop(tagged);
        server.trigger_shutdown();
        server.join();
    }

    #[test]
    fn ok_rate_counts_refused_requests() {
        let w = windows();
        let server = spawn(ServerConfig::default().max_sessions(1)).expect("spawn");
        let ep = format!("tcp://{}", server.local_addr());
        let mut admitted = Client::connect(&ep, TIMEOUT).expect("connect");
        admitted
            .hello_with(&session_spec(), CodecKind::Ndjson)
            .expect("hello");
        // A second connection is over `max_sessions` and is refused with
        // `busy`: every request the agent planned counts as failed.
        let plan = small(Plan::new(&w, 1, 1, CodecKind::Ndjson), 10);
        let log = run_agent(&ep, &plan, None, Spans::new(false));
        let (t, first) = verify(&plan, &log, &offline_place(&w).unwrap());
        assert_eq!(t.attempted, plan.verbs().len() as u64);
        assert_eq!(t.failed, t.attempted, "{first:?}");
        assert_eq!(t.ok_rate(), 0.0);
        drop(admitted);
        server.trigger_shutdown();
        server.join();
    }

    #[test]
    fn ok_rate_counts_error_answers() {
        let w = windows();
        let server = spawn(ServerConfig::default()).expect("spawn");
        let ep = format!("tcp://{}", server.local_addr());
        // `place` on a session without tagged threads is answered with an
        // error: those requests fail, the rest match the offline answers.
        let mut untagged = Client::connect(&ep, TIMEOUT).expect("connect");
        untagged
            .hello_with(&session_spec(), CodecKind::Binary)
            .expect("hello");
        let plan = small(Plan::new(&w, 1, 0, CodecKind::Binary), 50);
        let log = run_agent(&ep, &plan, Some(&mut untagged), Spans::new(false));
        let (t, first) = verify(&plan, &log, &offline_place(&w).unwrap());
        let places = plan.verbs().iter().filter(|v| **v == Verb::Place).count() as u64;
        assert_eq!(places, 2);
        assert_eq!(t.attempted, plan.verbs().len() as u64);
        assert_eq!(t.failed, places);
        assert!(first.expect("first mismatch").contains("Place request"));
        drop(untagged);
        server.trigger_shutdown();
        server.join();
    }

    #[test]
    fn plans_rotate_by_seed_and_interleave_verbs() {
        let w = windows();
        let a = Plan::new(&w, 1, 0, CodecKind::Binary);
        let b = Plan::new(&w, 2, 0, CodecKind::Binary);
        assert_eq!(a.batch(0).len(), BATCH);
        assert!(a.batch(0) != b.batch(0) || a.batch(1) != b.batch(1));
        let v = small(a, 25).verbs();
        assert_eq!(v[0], Verb::Hello);
        assert_eq!(v.iter().filter(|x| **x == Verb::Recommend).count(), 5);
        assert_eq!(v.iter().filter(|x| **x == Verb::Place).count(), 1);
        assert_eq!(v.len(), 1 + 25 + 1);
    }
}
