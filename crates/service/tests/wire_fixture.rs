//! NDJSON byte-identity against a committed fixture: one line per
//! `Request` and `Response` variant, in the order [`messages`] builds
//! them. Encoding each message must reproduce its line byte for byte, and
//! decoding each line must give the message back, so any change to how
//! the JSON codec spells a message (key order, number and float spelling,
//! string escapes, enum tagging) fails here.

use smt_sched::{PlacementReport, Recommendation, StreamDecision};
use smt_service::protocol::{
    decode_line, encode_line, CodecKind, ErrorCode, IngestSummary, Request, Response, SessionSpec,
    StatsReport,
};
use smt_sim::{CoreCounters, SmtLevel, ThreadCounters, WindowMeasurement};
use smtsm::SmtsmFactors;

const FIXTURE: &str = include_str!("golden/messages.ndjson");

/// A hand-built window (not simulated, so the fixture does not move with
/// the simulator), with values that exercise every number spelling the
/// codec emits: zero, small, and `u64::MAX`.
fn window(smt: SmtLevel, seed: u64) -> WindowMeasurement {
    let thread = |t: u64| {
        let mut c = ThreadCounters::new(4);
        c.cpu_cycles = 50_000 + seed * 7 + t;
        c.sleep_cycles = t * 13;
        c.fetched = 91_234 + seed;
        c.dispatched = 88_001;
        c.issued = 87_999 - t;
        c.work_units = 1_000 + t;
        c.spin_instrs = seed;
        c.disp_held_cycles = 4_321;
        c.branches = 9_876;
        c.branch_mispredicts = 12;
        c.l1d_misses = 345;
        c.l1i_misses = 6;
        c.l2_misses = 78;
        c.l3_misses = 9;
        c.mem_refs = 30_000;
        c.remote_accesses = u64::MAX;
        c.class_issued = [1, 22, 333, 4_444, 55_555, 0];
        c.port_issued = vec![10, 0, 2_000_000, t];
        c
    };
    WindowMeasurement {
        wall_cycles: 50_000,
        smt,
        per_thread: (0..2).map(thread).collect(),
        cores: CoreCounters {
            cycles: 50_000,
            active_cycles: 49_999,
            disp_held_cycles: 4_321,
            dispatch_slots_used: 123_456,
            issue_slots_used: 120_000,
            lmq_rejections: 0,
        },
    }
}

/// Every request variant, then every response variant, one message each.
fn messages() -> (Vec<Request>, Vec<Response>) {
    let requests = vec![
        Request::Hello {
            proto: 3,
            spec: SessionSpec::power7(),
            codec: CodecKind::Binary,
        },
        Request::Ingest {
            windows: vec![window(SmtLevel::Smt4, 1), window(SmtLevel::Smt2, 2)],
        },
        Request::IngestTagged {
            thread: 7,
            windows: vec![window(SmtLevel::Smt1, 3)],
        },
        Request::Place {
            threads: vec![2, 0, 1],
        },
        Request::Recommend,
        Request::Stats,
        Request::Shutdown,
        Request::Debug {
            op: "panic".to_string(),
        },
    ];
    let responses = vec![
        Response::Welcome {
            session: 42,
            proto: 3,
            top: SmtLevel::Smt4,
            codec: CodecKind::Ndjson,
        },
        Response::Ingested(IngestSummary {
            accepted: 4,
            total_windows: 12,
            level: SmtLevel::Smt2,
            switches: vec![
                StreamDecision {
                    level: SmtLevel::Smt2,
                    metric: Some(0.31),
                    switched: true,
                    probe: false,
                },
                StreamDecision {
                    level: SmtLevel::Smt4,
                    metric: None,
                    switched: false,
                    probe: true,
                },
            ],
        }),
        Response::Recommendation(Recommendation {
            level: SmtLevel::Smt1,
            smtsm: 0.123_456_789_012_345_67,
            factors: SmtsmFactors {
                mix_deviation: 1.0,
                disp_held: 1e-7,
                scalability: -2.5,
            },
            confidence: 1e300,
            windows: 9,
        }),
        Response::Placement(PlacementReport {
            threads: vec![10, 11, 12],
            cores: vec![vec![10, 12], vec![11]],
            predicted: 3.25,
            per_core: vec![2.0, 1.25],
            windows: 24,
        }),
        Response::Stats(StatsReport {
            sessions_active: 1,
            sessions_total: 3,
            requests_total: 100,
            errors_total: 2,
            busy_rejections: 1,
            windows_ingested: 400,
            recommendations: vec![(1, 5), (2, 0), (4, 20)],
            p50_us: 128,
            p99_us: 4096,
            uptime_secs: 1.5,
        }),
        Response::Bye,
        Response::error(
            ErrorCode::BadRequest,
            "bad \"line\" \\ here\n\tµs \u{1} done",
        ),
    ];
    (requests, responses)
}

#[test]
fn every_variant_matches_its_committed_line() {
    let (requests, responses) = messages();
    let lines: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(
        lines.len(),
        requests.len() + responses.len(),
        "one fixture line per message"
    );
    let (request_lines, response_lines) = lines.split_at(requests.len());
    for (req, line) in requests.iter().zip(request_lines) {
        assert_eq!(encode_line(req).unwrap(), format!("{line}\n"), "{req:?}");
        assert_eq!(&decode_line::<Request>(line).unwrap(), req, "{line}");
    }
    for (resp, line) in responses.iter().zip(response_lines) {
        assert_eq!(encode_line(resp).unwrap(), format!("{line}\n"), "{resp:?}");
        assert_eq!(&decode_line::<Response>(line).unwrap(), resp, "{line}");
    }
}
