//! End-to-end daemon tests: an in-process `smtd` serving many concurrent
//! streaming clients over both codecs, with fault injection,
//! backpressure, both transports, and the committed serving baseline.

use std::time::{Duration, Instant};

use smt_sched::{ControllerConfig, DynamicSmtController};
use smt_service::protocol::{CodecKind, ErrorCode, Request, Response, SessionSpec};
use smt_service::{BenchOp, BenchOptions, Client, ServerConfig, ServerHandle};
use smt_sim::{MachineConfig, Simulation, SmtLevel};
use smt_workloads::{catalog, SyntheticWorkload, WorkloadSpec};
use smtsm::{LevelSelector, MetricSpec, ThresholdPredictor};

fn test_server(cfg: ServerConfig) -> ServerHandle {
    // Generous read timeout: test clients simulate their next windows
    // between requests, which can take a while on a loaded host, and an
    // idle-closed connection would fail the test for the wrong reason.
    smt_service::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_secs(120),
        write_timeout: Duration::from_secs(10),
        ..cfg
    })
    .expect("spawn server")
}

/// The offline controller configured exactly as [`SessionSpec::power7`]
/// configures a daemon session.
fn offline_controller(spec: &SessionSpec) -> DynamicSmtController {
    let selector = LevelSelector::three_level(
        ThresholdPredictor::fixed(spec.threshold),
        ThresholdPredictor::fixed(spec.mid),
    );
    DynamicSmtController::new(
        selector,
        MetricSpec::power7(),
        ControllerConfig {
            window_cycles: spec.window_cycles,
            alpha: spec.alpha,
            hysteresis: spec.hysteresis,
            probe_interval: spec.probe_interval,
            phase_detect: spec.phase_detect,
        },
    )
}

/// Eight distinct workloads: six catalog behaviors at two scales.
fn workload(i: usize) -> WorkloadSpec {
    let specs: [fn() -> WorkloadSpec; 6] = [
        catalog::ep,
        catalog::specjbb_contention,
        catalog::mg,
        catalog::stream,
        catalog::blackscholes,
        catalog::bt,
    ];
    specs[i % specs.len()]().scaled(if i < specs.len() { 0.25 } else { 0.4 })
}

/// Criterion (a): every concurrent session's final recommendation equals
/// the offline controller's answer for the same counter stream — under
/// *both* codecs at once. Even-numbered clients stay on NDJSON,
/// odd-numbered clients negotiate the binary framing, and all eight talk
/// to the same server simultaneously.
#[test]
fn eight_concurrent_sessions_match_the_offline_controller_on_both_codecs() {
    let handle = test_server(ServerConfig {
        max_sessions: 32,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr().to_string();

    let mut threads = Vec::new();
    for i in 0..8 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let codec = if i % 2 == 0 {
                CodecKind::Ndjson
            } else {
                CodecKind::Binary
            };
            // Short windows keep the client-side simulation cheap; the
            // daemon/offline equality holds at any window size because
            // both observers see the identical stream.
            let mut spec = SessionSpec::power7();
            spec.window_cycles = 15_000;
            let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
            let (_, top, granted) = client.hello_with(&spec, codec).expect("hello");
            assert_eq!(top, SmtLevel::Smt4);
            assert_eq!(granted, codec, "client {i}: codec negotiation");

            // Closed loop: the local simulation plays this client's
            // machine, reconfigured to whatever level the server answers;
            // an offline controller replica sees the identical stream.
            let mut sim = Simulation::new(
                MachineConfig::power7(1),
                top,
                SyntheticWorkload::new(workload(i)),
            );
            let mut offline = offline_controller(&spec);
            let mut offline_level = top;
            let mut batch = Vec::new();
            let mut streamed = 0usize;
            while !sim.finished() && streamed < 60 {
                batch.clear();
                for _ in 0..3 {
                    if sim.finished() {
                        break;
                    }
                    let m = sim.measure_window(spec.window_cycles);
                    offline_level = offline.observe(&m).level;
                    batch.push(m.clone());
                    streamed += 1;
                }
                if batch.is_empty() {
                    break;
                }
                let summary = client.ingest(&batch).expect("ingest");
                assert_eq!(
                    summary.level, offline_level,
                    "client {i} [{codec}]: daemon diverged from the offline controller"
                );
                if sim.smt() != summary.level && !sim.finished() {
                    sim.reconfigure(summary.level);
                }
            }

            let r = client.recommend().expect("recommend");
            assert_eq!(
                r.level, offline_level,
                "client {i} [{codec}]: final answers disagree"
            );
            (i, r.level)
        }));
    }

    let mut levels = Vec::new();
    for t in threads {
        levels.push(t.join().expect("client thread"));
    }
    // The mix of workloads must actually exercise different answers, or
    // the equality assertions above prove nothing.
    assert!(
        levels.iter().any(|&(_, l)| l < SmtLevel::Smt4),
        "no workload switched down: {levels:?}"
    );
    assert!(
        levels.iter().any(|&(_, l)| l == SmtLevel::Smt4),
        "no workload stayed up: {levels:?}"
    );

    let stats = handle.metrics().report();
    assert_eq!(stats.sessions_total, 8);
    assert!(stats.windows_ingested > 0);

    handle.trigger_shutdown();
    handle.join();
}

/// Criterion (b): one garbage client and one panicking binary-codec
/// client do not disturb the honest sessions streaming alongside them —
/// including honest sessions on the *other* codec, since sessions are
/// sharded and each connection's state is its own.
#[test]
fn garbage_and_panicking_clients_leave_other_sessions_intact() {
    let handle = test_server(ServerConfig {
        max_sessions: 16,
        enable_debug: true,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr().to_string();

    let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();

    // Two honest streaming clients, one per codec.
    for (i, codec) in [(0, CodecKind::Ndjson), (1, CodecKind::Binary)] {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let mut spec = SessionSpec::power7();
            spec.window_cycles = 15_000;
            let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
            let (_, _, granted) = client.hello_with(&spec, codec).expect("hello");
            assert_eq!(granted, codec);
            let mut sim = Simulation::new(
                MachineConfig::power7(1),
                SmtLevel::Smt4,
                SyntheticWorkload::new(workload(i)),
            );
            let mut sent = 0u64;
            for _ in 0..40 {
                if sim.finished() {
                    break;
                }
                let m = sim.measure_window(spec.window_cycles);
                let summary = client.ingest(std::slice::from_ref(&m)).expect("ingest");
                sent += 1;
                assert_eq!(
                    summary.total_windows, sent,
                    "client {i} [{codec}] lost windows"
                );
                if sim.smt() != summary.level && !sim.finished() {
                    sim.reconfigure(summary.level);
                }
            }
            client.recommend().expect("recommend");
        }));
    }

    // The garbage client: hammers the server with unparseable lines.
    {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
            for k in 0..25 {
                let junk = format!("{{{{garbage #{k} \\\\ not json");
                match client.send_raw_line(&junk).expect("answer to garbage") {
                    Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
                    other => panic!("garbage got {other:?}"),
                }
            }
        }));
    }

    // The panicking client: negotiates the binary codec, triggers handler
    // panics mid-session, then keeps using the same connection — proving
    // panic recovery works identically under the negotiated framing.
    {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let spec = SessionSpec::power7();
            let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
            let (_, _, granted) = client
                .hello_with(&spec, CodecKind::Binary)
                .expect("binary hello");
            assert_eq!(granted, CodecKind::Binary);
            for _ in 0..5 {
                match client
                    .call(&Request::Debug {
                        op: "panic".to_string(),
                    })
                    .expect("answer after panic")
                {
                    Response::Error { code, .. } => assert_eq!(code, ErrorCode::Internal),
                    other => panic!("panic injection got {other:?}"),
                }
            }
            // Same connection, same session: still serviceable.
            client.recommend().expect("recommend after panics");
        }));
    }

    for t in threads {
        t.join().expect("client thread");
    }

    let stats = handle.metrics().report();
    assert!(stats.errors_total >= 30, "errors: {}", stats.errors_total);
    assert!(stats.requests_total > stats.errors_total);

    handle.trigger_shutdown();
    handle.join();
}

/// Backpressure: past `max_sessions`, connections are shed at accept time
/// with a structured `busy` error instead of queueing unboundedly.
#[test]
fn overload_is_shed_with_a_busy_error() {
    let handle = test_server(ServerConfig {
        shards: 1,
        max_sessions: 1,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr().to_string();

    let mut first = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    first.hello(&SessionSpec::power7()).expect("hello");

    let mut shed = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    match shed.send_raw_line("anything") {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        // The server may close the shed connection before our line lands;
        // the busy line is still what arrives (or the write fails).
        Ok(other) => panic!("expected busy, got {other:?}"),
        Err(e) => panic!("expected a busy line before close, got {e}"),
    }

    assert!(handle.metrics().report().busy_rejections >= 1);

    // The admitted session is unaffected by the shed one.
    first.recommend().expect("recommend");

    handle.trigger_shutdown();
    handle.join();
}

/// The Unix-socket transport speaks the identical protocol — including
/// binary codec negotiation.
#[test]
fn unix_socket_serves_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("smtd-test-{}.sock", std::process::id()));
    let handle = test_server(ServerConfig {
        unix_path: Some(path.clone()),
        ..ServerConfig::default()
    });

    let mut client = Client::connect_unix(&path, Duration::from_secs(5)).expect("connect unix");
    let (_, top, granted) = client
        .hello_with(&SessionSpec::power7(), CodecKind::Binary)
        .expect("hello");
    assert_eq!(top, SmtLevel::Smt4);
    assert_eq!(granted, CodecKind::Binary);
    let mut sim = Simulation::new(
        MachineConfig::power7(1),
        top,
        SyntheticWorkload::new(catalog::ep().scaled(0.05)),
    );
    let m = sim.measure_window(10_000);
    let summary = client.ingest(&[m]).expect("ingest");
    assert_eq!(summary.total_windows, 1);
    client.recommend().expect("recommend");
    client.shutdown().expect("shutdown");
    handle.join();
    assert!(!path.exists(), "socket file cleaned up on join");
}

/// A client-issued `shutdown` verb winds the whole daemon down.
#[test]
fn shutdown_verb_stops_the_daemon() {
    let handle = test_server(ServerConfig::default());
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    client.shutdown().expect("shutdown verb");
    // The server flushes `Bye` to the client *before* raising the global
    // shutdown flag, so poll briefly rather than asserting immediately.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !handle.is_shutting_down() {
        assert!(
            Instant::now() < deadline,
            "daemon never began shutting down"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join();
}

/// Offline (`--json` path) and online (daemon) answers are byte-identical
/// for the same counter stream — under either codec, since the codec
/// frames the messages but never touches the decision core.
#[test]
fn offline_and_online_recommendations_are_byte_identical() {
    let spec = SessionSpec::power7();
    let mut sim = Simulation::new(
        MachineConfig::power7(1),
        SmtLevel::Smt4,
        SyntheticWorkload::new(catalog::specjbb_contention().scaled(0.2)),
    );
    let mut windows = Vec::new();
    for _ in 0..12 {
        if sim.finished() {
            break;
        }
        windows.push(sim.measure_window(spec.window_cycles));
    }

    // Offline: the daemon's session type driven in-process (exactly what
    // `smtselect analyze --json` does).
    let mut offline = smt_service::Session::new(0, &spec).expect("session");
    offline.ingest(&windows);
    let offline_json = serde_json::to_string(&offline.recommend()).unwrap();

    // Online: the same windows streamed over the wire, once per codec.
    for codec in [CodecKind::Ndjson, CodecKind::Binary] {
        let handle = test_server(ServerConfig::default());
        let addr = handle.local_addr().to_string();
        let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
        client.hello_with(&spec, codec).expect("hello");
        client.ingest(&windows).expect("ingest");
        let online_json = serde_json::to_string(&client.recommend().expect("recommend")).unwrap();

        assert_eq!(offline_json, online_json, "codec {codec}");

        handle.trigger_shutdown();
        handle.join();
    }
}

/// The load harness itself: a short bench against an in-process server
/// produces a well-formed summary under each codec, and the connection
/// ladder drives every (codec, tier) pair in order.
#[test]
fn bench_harness_round_trips_against_a_live_server() {
    let handle = test_server(ServerConfig {
        max_sessions: 16,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr().to_string();
    for codec in [CodecKind::Ndjson, CodecKind::Binary] {
        let opts = BenchOptions {
            connections: 3,
            requests: 6,
            windows_per_ingest: 2,
            codec,
            op: BenchOp::Stream,
        };
        let summary = smt_service::run_bench(&addr, &opts).expect("bench");
        // Per connection: 1 hello + 6 ingests + 1 mid-run recommend
        // (every 5th request) + 1 trailing recommend.
        assert_eq!(summary.op, BenchOp::Stream);
        assert_eq!(summary.codec, codec);
        assert_eq!(summary.connections, 3);
        assert_eq!(summary.requests_total, 3 * (1 + 6 + 1 + 1));
        assert_eq!(summary.windows_total, 3 * 6 * 2);
        assert!(summary.requests_per_sec > 0.0);
        assert!(
            summary.p50_ms > 0.0 && summary.p50_ms <= summary.p99_ms,
            "{codec}: p50 {} p99 {}",
            summary.p50_ms,
            summary.p99_ms
        );

        // Place op: session setup (hello + tagged profiles) is untimed,
        // so the request count is exactly the number of place calls.
        let place =
            smt_service::run_bench(&addr, &opts.clone().op(BenchOp::Place)).expect("place bench");
        assert_eq!(place.op, BenchOp::Place);
        assert_eq!(place.requests_total, 3 * 6);
        assert!(place.windows_total > 0, "tagged profile windows counted");
        assert!(place.p50_ms > 0.0 && place.p50_ms <= place.p99_ms);
    }

    // Ladder up to 2 connections: tiers 1 and 2 per codec, each sharing
    // the base run's total budget of requests × connections.
    let base = BenchOptions {
        connections: 3,
        requests: 6,
        windows_per_ingest: 2,
        codec: CodecKind::Ndjson,
        op: BenchOp::Stream,
    };
    let codecs = [CodecKind::Ndjson, CodecKind::Binary];
    let ladder = smt_service::run_tier_sweep(&addr, &base, 2, &codecs).expect("tier sweep");
    let shape: Vec<_> = ladder.iter().map(|t| (t.codec, t.connections)).collect();
    assert_eq!(
        shape,
        [
            (CodecKind::Ndjson, 1),
            (CodecKind::Ndjson, 2),
            (CodecKind::Binary, 1),
            (CodecKind::Binary, 2),
        ]
    );
    for tier in &ladder {
        let c = tier.connections;
        let per_conn = (6 * 3 / c).max(4);
        // hello + ingests + a recommend every 5th ingest + trailing recommend.
        let expected = c * (1 + per_conn + per_conn / 5 + 1);
        assert_eq!(tier.op, BenchOp::Stream);
        assert_eq!(tier.requests_total, expected as u64, "tier c={c}");
    }

    handle.trigger_shutdown();
    handle.join();
}
