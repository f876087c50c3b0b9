//! The `smtselect` binary itself: strict flags, usage-error exit codes with
//! a one-line message instead of a panic, and the documented command lines
//! CI runs producing the answers they gate on.

use std::path::Path;
use std::process::{Command, Output};

fn smtselect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smtselect"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn smtselect")
}

/// Exit 2 with one stderr line that names `needle` and is not a panic.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = smtselect(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

fn assert_success(args: &[&str]) -> String {
    let out = smtselect(args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn malformed_values_are_usage_errors_not_panics() {
    assert_usage_error(&["analyze", "EP", "--scale", "abc"], "--scale");
    assert_usage_error(&["analyze", "EP", "--scale"], "--scale");
}

#[test]
fn unknown_flags_are_rejected_per_command() {
    assert_usage_error(&["list", "--windos", "8"], "--windos");
    // `--windows` is a `place`/`collect` flag, not an `analyze` one.
    assert_usage_error(&["analyze", "EP", "--windows", "8"], "--windows");
    assert_usage_error(&["serve", "--json"], "--json");
    assert_usage_error(&["bench-serve", "--tolerance", "0.2"], "--tolerance");
}

#[test]
fn unknown_names_are_usage_errors() {
    assert_usage_error(&["frobnicate"], "frobnicate");
    assert_usage_error(&["analyze", "EP", "--machine", "vax"], "vax");
    assert_usage_error(&["analyze", "NOPE"], "NOPE");
}

#[test]
fn help_anywhere_prints_the_usage() {
    for args in [
        &["--help"][..],
        &["analyze", "--help"],
        &["place", "ep", "-h"],
    ] {
        let stdout = assert_success(args);
        assert!(stdout.contains("usage: smtselect"), "{args:?}: {stdout}");
        assert!(stdout.contains("bench-serve"), "{args:?}: {stdout}");
    }
}

#[test]
fn golden_replay_reproduces_the_committed_decision_log() {
    let golden = Path::new("crates/autotune/tests/golden");
    let trace = golden.join("phased.smtc");
    let stdout = assert_success(&[
        "autotune",
        "--replay",
        trace.to_str().expect("utf-8 path"),
        "--threshold",
        "0.10",
        "--mid",
        "0.15",
        "--json",
    ]);
    let committed = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join(golden.join("phased.decisions.json")),
    )
    .expect("read golden decision log");
    let committed: serde_json::Value = serde_json::from_str(&committed).expect("parse golden");
    let committed = serde_json::to_string(&committed).expect("render golden");
    assert_eq!(stdout.trim_end(), committed);
}

#[test]
fn offline_placement_answers_in_json() {
    let stdout = assert_success(&[
        "place",
        "ep",
        "lu",
        "mg",
        "--windows",
        "8",
        "--window-cycles",
        "20000",
        "--json",
    ]);
    let report: serde_json::Value = serde_json::from_str(stdout.trim_end()).expect("json line");
    let text = serde_json::to_string(&report).expect("render");
    assert!(text.contains("\"cores\""), "{text}");
}

#[test]
fn capability_probes_never_fail() {
    for args in [
        &["collect", "--probe", "--events", "generic", "--json"][..],
        &["autotune", "--probe-affinity", "--json"],
    ] {
        let stdout = assert_success(args);
        assert!(stdout.contains("\"usable\""), "{args:?}: {stdout}");
    }
}
