//! Wire-protocol tests: every verb round-trips through both codecs, the
//! hello exchange stays compatible with the v1 (pre-codec) line format,
//! and a live server answers malformed/truncated input with a structured
//! error while the connection's session stays usable.

use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use smt_service::codec::codec_for;
use smt_service::protocol::{
    decode_line, encode_line, CodecKind, ErrorCode, IngestSummary, Request, Response, SessionSpec,
    StatsReport, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use smt_service::{Client, CodecPolicy, ServerConfig};
use smt_sim::{MachineConfig, Simulation, SmtLevel, WindowMeasurement};
use smt_workloads::{catalog, SyntheticWorkload};

fn sample_window() -> WindowMeasurement {
    static WINDOW: OnceLock<WindowMeasurement> = OnceLock::new();
    WINDOW
        .get_or_init(|| {
            let mut sim = Simulation::new(
                MachineConfig::power7(1),
                SmtLevel::Smt4,
                SyntheticWorkload::new(catalog::ep().scaled(0.05)),
            );
            sim.measure_window(5_000)
        })
        .clone()
}

fn round_trip_request(req: &Request) {
    let line = encode_line(req).expect("encode");
    assert!(line.ends_with('\n'), "line framing");
    assert!(
        !line[..line.len() - 1].contains('\n'),
        "one line per message"
    );
    let back: Request = decode_line(&line).expect("decode");
    assert_eq!(&back, req);

    // And through each codec's full frame path, byte-identically: the
    // re-encoding of the decoded message reproduces the original frame.
    for kind in [CodecKind::Ndjson, CodecKind::Binary] {
        let codec = codec_for(kind);
        let mut bytes = Vec::new();
        codec.encode_request(req, &mut bytes).expect("encode frame");
        let frame = codec
            .split_frame(&bytes)
            .expect("split")
            .expect("complete frame");
        assert_eq!(frame.consumed, bytes.len(), "{kind}: frame consumes all");
        let back = codec
            .decode_request(&bytes[frame.start..frame.end])
            .expect("decode frame");
        assert_eq!(&back, req, "{kind}: request survived the frame");
        let mut again = Vec::new();
        codec.encode_request(&back, &mut again).expect("re-encode");
        assert_eq!(again, bytes, "{kind}: byte-identical re-encoding");
    }
}

fn round_trip_response(resp: &Response) {
    let line = encode_line(resp).expect("encode");
    let back: Response = decode_line(&line).expect("decode");
    assert_eq!(&back, resp);

    for kind in [CodecKind::Ndjson, CodecKind::Binary] {
        let codec = codec_for(kind);
        let mut bytes = Vec::new();
        codec
            .encode_response(resp, &mut bytes)
            .expect("encode frame");
        let frame = codec
            .split_frame(&bytes)
            .expect("split")
            .expect("complete frame");
        let back = codec
            .decode_response(&bytes[frame.start..frame.end])
            .expect("decode frame");
        assert_eq!(&back, resp, "{kind}: response survived the frame");
        let mut again = Vec::new();
        codec.encode_response(&back, &mut again).expect("re-encode");
        assert_eq!(again, bytes, "{kind}: byte-identical re-encoding");
    }
}

#[test]
fn every_request_verb_round_trips() {
    for codec in [CodecKind::Ndjson, CodecKind::Binary] {
        round_trip_request(&Request::Hello {
            proto: PROTOCOL_VERSION,
            spec: SessionSpec::power7(),
            codec,
        });
    }
    round_trip_request(&Request::Ingest {
        windows: vec![sample_window(), sample_window()],
    });
    round_trip_request(&Request::Ingest { windows: vec![] });
    round_trip_request(&Request::IngestTagged {
        thread: 7,
        windows: vec![sample_window()],
    });
    round_trip_request(&Request::IngestTagged {
        thread: 0,
        windows: vec![],
    });
    round_trip_request(&Request::Place {
        threads: vec![2, 0, 1],
    });
    round_trip_request(&Request::Place { threads: vec![] });
    round_trip_request(&Request::Recommend);
    round_trip_request(&Request::Stats);
    round_trip_request(&Request::Shutdown);
    round_trip_request(&Request::Debug {
        op: "panic".to_string(),
    });
}

#[test]
fn every_response_variant_round_trips() {
    for codec in [CodecKind::Ndjson, CodecKind::Binary] {
        round_trip_response(&Response::Welcome {
            session: 42,
            proto: PROTOCOL_VERSION,
            top: SmtLevel::Smt4,
            codec,
        });
    }
    round_trip_response(&Response::Ingested(IngestSummary {
        accepted: 4,
        total_windows: 12,
        level: SmtLevel::Smt2,
        switches: vec![smt_sched::StreamDecision {
            level: SmtLevel::Smt2,
            metric: Some(0.31),
            switched: true,
            probe: false,
        }],
    }));
    round_trip_response(&Response::Stats(StatsReport {
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
    }));
    round_trip_response(&Response::Placement(smt_sched::PlacementReport {
        threads: vec![10, 11, 12],
        cores: vec![vec![10, 12], vec![11]],
        predicted: 3.25,
        per_core: vec![2.0, 1.25],
        windows: 24,
    }));
    round_trip_response(&Response::Bye);
    for code in [
        ErrorCode::BadRequest,
        ErrorCode::NoSession,
        ErrorCode::SessionExists,
        ErrorCode::Busy,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
        ErrorCode::Unsupported,
        ErrorCode::UnsupportedCodec,
        ErrorCode::BadFrame,
        ErrorCode::UnknownThread,
        ErrorCode::PlacementUnsupported,
    ] {
        round_trip_response(&Response::error(code, "detail"));
    }
}

#[test]
fn recommendation_response_round_trips() {
    let mut session = smt_service::Session::new(1, &SessionSpec::power7()).unwrap();
    session.ingest(&[sample_window()]);
    round_trip_response(&Response::Recommendation(session.recommend()));
}

/// A pre-codec (protocol v1) `hello` line — no `codec` field anywhere —
/// must still open a session, defaulting to NDJSON.
#[test]
fn v1_hello_without_codec_field_still_opens_a_session() {
    let spec_json = serde_json::to_string(&SessionSpec::power7()).expect("spec json");
    let v1_line =
        format!("{{\"Hello\":{{\"proto\":{MIN_PROTOCOL_VERSION},\"spec\":{spec_json}}}}}");
    // The line itself parses with the codec defaulted...
    match decode_line::<Request>(&v1_line).expect("v1 hello parses") {
        Request::Hello { proto, codec, .. } => {
            assert_eq!(proto, MIN_PROTOCOL_VERSION);
            assert_eq!(codec, CodecKind::Ndjson, "missing codec defaults to ndjson");
        }
        other => panic!("expected hello, got {other:?}"),
    }
    // ...and a live server grants an NDJSON session for it.
    let addr = shared_server_addr();
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    match client
        .send_raw_line(&v1_line)
        .expect("server answers v1 hello")
    {
        Response::Welcome { codec, proto, .. } => {
            assert_eq!(codec, CodecKind::Ndjson);
            assert_eq!(proto, PROTOCOL_VERSION);
        }
        other => panic!("v1 hello got {other:?}"),
    }
    // The session the v1 hello opened works.
    client
        .ingest(&[sample_window()])
        .expect("ingest on v1 session");
    client.recommend().expect("recommend on v1 session");
}

/// A protocol-2 client (pre-place) must be untouched by the revision-3
/// additions: its hello opens a session and every v2 verb works, but the
/// session is refused the `place` verb with `placement_unsupported` —
/// never with a parse error or a closed connection.
#[test]
fn v2_hello_client_is_untouched_and_place_is_gated() {
    let addr = shared_server_addr();
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    let spec_json = serde_json::to_string(&SessionSpec::power7()).expect("spec json");
    let v2_line =
        format!("{{\"Hello\":{{\"proto\":2,\"spec\":{spec_json},\"codec\":\"Ndjson\"}}}}");
    match client.send_raw_line(&v2_line).expect("server answers") {
        Response::Welcome { proto, .. } => assert_eq!(proto, PROTOCOL_VERSION),
        other => panic!("v2 hello got {other:?}"),
    }
    // The v2 surface still works...
    client.ingest(&[sample_window()]).expect("v2 ingest");
    client.recommend().expect("v2 recommend");
    // ...the session even accepts tagged windows (they are inert until
    // `place`)...
    client
        .ingest_tagged(0, &[sample_window()])
        .expect("tagged ingest is harmless");
    // ...but `place` is refused at the negotiated revision.
    let err = client.place(&[]).expect_err("place gated under proto 2");
    let msg = format!("{err}");
    assert!(
        msg.contains("PlacementUnsupported"),
        "expected placement_unsupported, got: {msg}"
    );
    // And the refusal spared the session.
    client.recommend().expect("session survives refused place");
}

/// The daemon's `place` answer must be byte-identical (as JSON) to the
/// offline session fed the same tagged windows — over both codecs.
#[test]
fn daemon_place_matches_offline_place_byte_for_byte() {
    let spec = SessionSpec::power7();
    let profiles: Vec<(u32, Vec<WindowMeasurement>)> = (0..3)
        .map(|t| (t * 10, vec![sample_window(), sample_window()]))
        .collect();

    let mut offline = smt_service::Session::new(0, &spec).unwrap();
    for (t, ws) in &profiles {
        offline.ingest_tagged(*t, ws);
    }
    let offline_json =
        serde_json::to_string(&offline.place(&[]).expect("offline place")).expect("json");

    let addr = shared_server_addr();
    for kind in [CodecKind::Ndjson, CodecKind::Binary] {
        let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
        client.hello_with(&spec, kind).expect("hello");
        for (t, ws) in &profiles {
            client.ingest_tagged(*t, ws).expect("ingest_tagged");
        }
        let live = client.place(&[]).expect("live place");
        let live_json = serde_json::to_string(&live).expect("json");
        assert_eq!(live_json, offline_json, "{kind}: daemon != offline");
        // Selecting an explicit subset also answers identically both ways.
        let subset = client.place(&[20, 0]).expect("subset place");
        let offline_subset = offline.place(&[20, 0]).expect("offline subset");
        assert_eq!(
            serde_json::to_string(&subset).unwrap(),
            serde_json::to_string(&offline_subset).unwrap(),
            "{kind}: subset place differs"
        );
    }
}

/// `place` error surface over the wire: unknown thread ids and empty
/// sessions answer with their dedicated codes, and the session survives.
#[test]
fn place_errors_are_structured() {
    let addr = shared_server_addr();
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    client.hello(&SessionSpec::power7()).expect("hello");
    // No tagged threads yet.
    let err = client.place(&[]).expect_err("no tagged threads");
    assert!(format!("{err}").contains("PlacementUnsupported"), "{err}");
    // Tag one thread, ask for another.
    client
        .ingest_tagged(1, &[sample_window()])
        .expect("ingest_tagged");
    let err = client.place(&[2]).expect_err("unknown thread");
    assert!(format!("{err}").contains("UnknownThread"), "{err}");
    // The session survives and answers the valid ask.
    let report = client.place(&[1]).expect("valid place");
    assert_eq!(report.threads, vec![1]);
    assert_eq!(report.cores, vec![vec![1]]);
}

/// A line nested far past the JSON parser's depth cap (a megabyte of `[`)
/// gets a structured error instead of overflowing the server's stack,
/// and the server goes on serving new connections.
#[test]
fn deeply_nested_line_is_refused_and_the_server_keeps_serving() {
    let addr = shared_server_addr();
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    match client
        .send_raw_line(&"[".repeat(1 << 20))
        .expect("server answers the nested line")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected structured error, got {other:?}"),
    }
    let mut fresh = Client::connect(addr, Duration::from_secs(5)).expect("reconnect");
    fresh
        .hello(&SessionSpec::power7())
        .expect("hello after the nested line");
    fresh
        .ingest(&[sample_window()])
        .expect("ingest after the nested line");
}

/// One server shared by all proptest cases (each case opens its own
/// connection). Never shut down: the process exit reaps it.
fn shared_server_addr() -> &'static str {
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let handle = smt_service::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        })
        .expect("spawn shared server");
        let addr = handle.local_addr().to_string();
        std::mem::forget(handle);
        addr
    })
}

/// Corrupt a valid request line so it can no longer parse as a `Request`,
/// without ever producing an empty line or embedded newlines (both are
/// framing non-events, not protocol errors).
fn corrupt(valid: &str, mode: u8, at: usize, junk: u64) -> String {
    let body = valid.trim_end_matches('\n');
    let s = match mode % 4 {
        // Truncate: any strict prefix of a JSON object is invalid.
        0 => {
            let cut = 1 + at % (body.len() - 1);
            body[..cut].to_string()
        }
        // Prefix garbage: never valid JSON.
        1 => format!("@#!{body}"),
        // Unbalance the braces.
        2 => format!("{body}}}"),
        // Pure junk derived from the seed (non-empty, no whitespace).
        _ => format!("junk-{junk:x}-{{oops"),
    };
    s.replace(['\n', '\r'], " ")
}

/// A small pool of representative requests for the codec property tests.
fn request_pool() -> &'static Vec<Request> {
    static POOL: OnceLock<Vec<Request>> = OnceLock::new();
    POOL.get_or_init(|| {
        vec![
            Request::Hello {
                proto: PROTOCOL_VERSION,
                spec: SessionSpec::power7(),
                codec: CodecKind::Binary,
            },
            Request::Ingest {
                windows: vec![sample_window()],
            },
            Request::Ingest {
                windows: vec![sample_window(), sample_window(), sample_window()],
            },
            Request::Ingest { windows: vec![] },
            Request::Recommend,
            Request::Stats,
            Request::Shutdown,
            Request::Debug {
                op: "panic".to_string(),
            },
            Request::IngestTagged {
                thread: 3,
                windows: vec![sample_window()],
            },
            Request::Place {
                threads: vec![0, 3],
            },
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Garbage in, structured error out — and the session survives it.
    #[test]
    fn malformed_lines_get_structured_errors_and_spare_the_session(
        mode in 0u8..4,
        at in 0usize..4096,
        junk in 0u64..u64::MAX,
    ) {
        let addr = shared_server_addr();
        let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
        client.hello(&SessionSpec::power7()).expect("hello");
        let window = sample_window();
        client.ingest(std::slice::from_ref(&window)).expect("first ingest");

        let valid = encode_line(&Request::Ingest { windows: vec![window.clone()] }).unwrap();
        let bad = corrupt(&valid, mode, at, junk);
        match client.send_raw_line(&bad).expect("server must answer the bad line") {
            Response::Error { code, .. } => prop_assert_eq!(code, ErrorCode::BadRequest),
            other => prop_assert!(false, "expected structured error, got {:?}", other),
        }

        // The session is untouched: state built before the garbage is
        // still there and further ingests keep counting from it.
        let summary = client.ingest(std::slice::from_ref(&window)).expect("session survived");
        prop_assert_eq!(summary.total_windows, 2);
        client.recommend().expect("recommend after garbage");
    }

    /// Both codecs: encode → decode → re-encode reproduces the original
    /// bytes for every request in the pool.
    #[test]
    fn codec_round_trips_are_byte_identical(which in 0usize..10, kind in 0u8..2) {
        let req = &request_pool()[which % request_pool().len()];
        let codec = codec_for(if kind == 0 { CodecKind::Ndjson } else { CodecKind::Binary });
        let mut bytes = Vec::new();
        codec.encode_request(req, &mut bytes).expect("encode");
        let frame = codec.split_frame(&bytes).expect("split").expect("complete");
        let back = codec.decode_request(&bytes[frame.start..frame.end]).expect("decode");
        prop_assert_eq!(&back, req);
        let mut again = Vec::new();
        codec.encode_request(&back, &mut again).expect("re-encode");
        prop_assert_eq!(again, bytes);
    }

    /// BinaryCodec integrity: a frame with any single byte flipped never
    /// silently decodes back to the original message, and any strict
    /// prefix of a frame never yields a frame at all.
    #[test]
    fn binary_codec_rejects_flipped_and_truncated_frames(
        which in 0usize..10,
        flip_at in 0usize..4096,
        flip_bit in 0u8..8,
        cut in 1usize..4096,
    ) {
        let req = &request_pool()[which % request_pool().len()];
        let codec = codec_for(CodecKind::Binary);
        let mut bytes = Vec::new();
        codec.encode_request(req, &mut bytes).expect("encode");

        // Truncation: no strict prefix ever produces a frame.
        let cut = cut % bytes.len();
        prop_assert!(
            codec.split_frame(&bytes[..cut]).expect("prefix is not an error").is_none(),
            "a {}-byte prefix of a {}-byte frame produced a frame",
            cut,
            bytes.len()
        );

        // Bit flip: framing either errors out (bad length/checksum), keeps
        // waiting for bytes (inflated length), or — never — reproduces the
        // original message.
        let mut flipped = bytes.clone();
        let at = flip_at % flipped.len();
        flipped[at] ^= 1 << flip_bit;
        match codec.split_frame(&flipped) {
            Err(_) => {}       // bad length or checksum mismatch
            Ok(None) => {}     // length field inflated past the buffer
            Ok(Some(frame)) => {
                // A flip confined to the payload with a matching checksum
                // is impossible; decode may still fail structurally, but
                // must not yield the original message.
                if let Ok(back) = codec.decode_request(&flipped[frame.start..frame.end]) {
                    prop_assert!(&back != req, "flipped frame decoded to the original");
                }
            }
        }
    }
}

#[test]
fn verbs_out_of_order_get_structured_errors() {
    let addr = shared_server_addr();
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");

    // Session verbs before hello.
    match client.call(&Request::Recommend).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NoSession),
        other => panic!("expected NoSession, got {other:?}"),
    }
    match client.call(&Request::Ingest { windows: vec![] }).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NoSession),
        other => panic!("expected NoSession, got {other:?}"),
    }

    // Unsupported protocol revision.
    match client
        .call(&Request::Hello {
            proto: PROTOCOL_VERSION + 1,
            spec: SessionSpec::power7(),
            codec: CodecKind::Ndjson,
        })
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("expected Unsupported, got {other:?}"),
    }

    // Double hello.
    client.hello(&SessionSpec::power7()).expect("hello");
    match client
        .call(&Request::Hello {
            proto: PROTOCOL_VERSION,
            spec: SessionSpec::power7(),
            codec: CodecKind::Ndjson,
        })
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::SessionExists),
        other => panic!("expected SessionExists, got {other:?}"),
    }

    // Bad session parameters.
    let mut bad = SessionSpec::power7();
    bad.machine = "vax".to_string();
    let mut fresh = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    match fresh
        .call(&Request::Hello {
            proto: PROTOCOL_VERSION,
            spec: bad,
            codec: CodecKind::Ndjson,
        })
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }

    // Debug verbs are rejected unless the server opts in.
    match client
        .call(&Request::Debug {
            op: "panic".to_string(),
        })
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

/// A server restricted to NDJSON refuses a binary hello with the
/// structured `UnsupportedCodec` error, and the connection remains usable
/// for a compliant retry.
#[test]
fn codec_policy_refusal_is_structured_and_survivable() {
    let handle = smt_service::spawn(
        ServerConfig::at(&smt_service::Endpoint::tcp("127.0.0.1:0"))
            .codecs(CodecPolicy::NdjsonOnly),
    )
    .expect("spawn ndjson-only server");
    let addr = handle.local_addr().to_string();

    let mut client = Client::connect(&addr, Duration::from_secs(5)).expect("connect");
    let err = client
        .hello_with(&SessionSpec::power7(), CodecKind::Binary)
        .expect_err("binary must be refused");
    assert!(
        format!("{err}").contains("UnsupportedCodec"),
        "unexpected error: {err}"
    );
    // Same connection, compliant retry.
    let (_, _, granted) = client
        .hello_with(&SessionSpec::power7(), CodecKind::Ndjson)
        .expect("ndjson hello");
    assert_eq!(granted, CodecKind::Ndjson);
    client.ingest(&[sample_window()]).expect("ingest");

    handle.trigger_shutdown();
    handle.join();
}

/// Revision 4 changed the binary frame checksum and there is one binary
/// frame format, so a revision-3 `hello` asking for binary is refused with
/// `UnsupportedCodec` — and the same connection can still open an NDJSON
/// session.
#[test]
fn pre_v4_binary_hello_is_refused_and_ndjson_retry_works() {
    let addr = shared_server_addr();
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    match client
        .call(&Request::Hello {
            proto: 3,
            spec: SessionSpec::power7(),
            codec: CodecKind::Binary,
        })
        .expect("server answers")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedCodec),
        other => panic!("expected UnsupportedCodec, got {other:?}"),
    }
    assert_eq!(client.codec(), CodecKind::Ndjson);
    let (_, _, granted) = client
        .hello_with(&SessionSpec::power7(), CodecKind::Ndjson)
        .expect("ndjson hello on the same connection");
    assert_eq!(granted, CodecKind::Ndjson);
    client.ingest(&[sample_window()]).expect("ingest");
    client.recommend().expect("recommend");
}
