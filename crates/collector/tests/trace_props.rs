//! Property tests for the trace format: arbitrary windows must survive
//! record → replay bit-identically, and any corruption — a flipped byte,
//! a truncation at any offset — must surface as a structured error, never
//! a panic, a hang, or silently wrong data.

use std::io::Cursor;

use proptest::prelude::*;
use smt_collect::trace::{decode_window, encode_window};
use smt_collect::{TraceMeta, TraceReader, TraceWriter};
use smt_sim::{CoreCounters, SmtLevel, ThreadCounters, WindowMeasurement, NUM_CLASSES};

const HEADER_LEN: usize = 64;

fn arb_smt() -> impl Strategy<Value = SmtLevel> {
    prop_oneof![
        Just(SmtLevel::Smt1),
        Just(SmtLevel::Smt2),
        Just(SmtLevel::Smt4),
    ]
}

fn arb_thread() -> impl Strategy<Value = ThreadCounters> {
    (
        proptest::collection::vec(any::<u64>(), 16..17),
        proptest::collection::vec(any::<u64>(), NUM_CLASSES..NUM_CLASSES + 1),
        proptest::collection::vec(any::<u64>(), 0..9),
    )
        .prop_map(|(fields, class, ports)| {
            let mut t = ThreadCounters::new(ports.len());
            t.cpu_cycles = fields[0];
            t.sleep_cycles = fields[1];
            t.fetched = fields[2];
            t.dispatched = fields[3];
            t.issued = fields[4];
            t.work_units = fields[5];
            t.spin_instrs = fields[6];
            t.disp_held_cycles = fields[7];
            t.branches = fields[8];
            t.branch_mispredicts = fields[9];
            t.l1d_misses = fields[10];
            t.l1i_misses = fields[11];
            t.l2_misses = fields[12];
            t.l3_misses = fields[13];
            t.mem_refs = fields[14];
            t.remote_accesses = fields[15];
            t.class_issued.copy_from_slice(&class);
            t.port_issued = ports;
            t
        })
}

fn arb_window() -> impl Strategy<Value = WindowMeasurement> {
    (
        any::<u64>(),
        arb_smt(),
        proptest::collection::vec(arb_thread(), 0..5),
        proptest::collection::vec(any::<u64>(), 6..7),
    )
        .prop_map(|(wall_cycles, smt, per_thread, c)| WindowMeasurement {
            wall_cycles,
            smt,
            per_thread,
            cores: CoreCounters {
                cycles: c[0],
                active_cycles: c[1],
                disp_held_cycles: c[2],
                dispatch_slots_used: c[3],
                issue_slots_used: c[4],
                lmq_rejections: c[5],
            },
        })
}

fn meta() -> TraceMeta {
    TraceMeta {
        machine: "p7".to_string(),
        nports: 8,
        window_cycles: 50_000,
    }
}

fn record(windows: &[WindowMeasurement]) -> Vec<u8> {
    let mut w = TraceWriter::new(Cursor::new(Vec::new()), meta()).expect("writer");
    for m in windows {
        w.append(m).expect("append");
    }
    let (n, cursor) = w.finalize_into_inner().expect("finalize");
    assert_eq!(n, windows.len() as u64);
    cursor.into_inner()
}

proptest! {
    #[test]
    fn body_encoding_round_trips_bit_identically(w in arb_window()) {
        let mut body = Vec::new();
        encode_window(&w, &mut body);
        let decoded = decode_window(&body);
        prop_assert_eq!(decoded.as_ref(), Ok(&w));
    }

    #[test]
    fn full_trace_round_trips_bit_identically(
        windows in proptest::collection::vec(arb_window(), 1..6)
    ) {
        let bytes = record(&windows);
        let mut r = TraceReader::new(Cursor::new(bytes)).expect("header");
        prop_assert_eq!(r.declared_count(), Some(windows.len() as u64));
        let back = r.read_all().expect("replay");
        prop_assert_eq!(back, windows);
    }

    #[test]
    fn any_flipped_byte_in_a_record_is_detected(
        windows in proptest::collection::vec(arb_window(), 1..4),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut bytes = record(&windows);
        // Flip one bit somewhere in the record region (past the header).
        let span = bytes.len() - HEADER_LEN;
        prop_assert!(span > 0);
        let idx = HEADER_LEN + (pos % span as u64) as usize;
        bytes[idx] ^= 1 << bit;

        let mut r = TraceReader::new(Cursor::new(bytes)).expect("header untouched");
        let mut saw_error = false;
        for _ in 0..windows.len() + 1 {
            match r.next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    saw_error = true;
                    break;
                }
            }
        }
        prop_assert!(saw_error, "corruption at byte {idx} went undetected");
    }

    #[test]
    fn any_truncation_is_detected(
        windows in proptest::collection::vec(arb_window(), 1..4),
        pos in any::<u64>(),
    ) {
        let bytes = record(&windows);
        let cut = (pos % bytes.len() as u64) as usize;
        let truncated = bytes[..cut].to_vec();

        match TraceReader::new(Cursor::new(truncated)) {
            // Cut inside the header: rejected up front.
            Err(_) => {}
            Ok(mut r) => {
                let mut saw_error = false;
                for _ in 0..windows.len() + 1 {
                    match r.next() {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => {
                            saw_error = true;
                            break;
                        }
                    }
                }
                prop_assert!(saw_error, "truncation at byte {cut} went undetected");
            }
        }
    }
}
