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

/// The level a text rendering names on its `recommend` line.
fn text_level(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("recommend"))
        .and_then(|l| l.trim_start_matches([' ', ':']).split_whitespace().next())
        .unwrap_or_else(|| panic!("no recommend line in {stdout}"))
        .to_string()
}

/// The level a `--json` rendering names, spelled as the text spells it.
fn json_level(stdout: &str) -> String {
    let rec: serde_json::Value = serde_json::from_str(stdout.trim_end()).expect("json line");
    rec.get("level")
        .and_then(serde_json::Value::as_str)
        .expect("level field")
        .to_uppercase()
}

#[test]
fn analyze_text_and_json_name_the_same_level() {
    // Both were judged apart before: a private 60k-cycle window for the
    // text, the session's 8-window stream for the JSON. These two are the
    // benchmarks on which the two answers differed.
    for bench in ["Dedup", "Equake"] {
        let text = assert_success(&["analyze", bench]);
        let json = assert_success(&["analyze", bench, "--json"]);
        assert_eq!(text_level(&text), json_level(&json), "{bench}: {text}");
    }
}

#[test]
fn analyze_without_a_measured_window_names_the_scale() {
    // Streamcluster finishes inside the warm-up at the default scale, so
    // there is no window to judge.
    assert_usage_error(&["analyze", "Streamcluster"], "--scale");
    assert_usage_error(&["analyze", "Streamcluster", "--json"], "--scale");
}

#[test]
fn tune_text_and_json_name_the_same_level() {
    let text = assert_success(&["tune", "Gafort"]);
    let json = assert_success(&["tune", "Gafort", "--json"]);
    assert_eq!(text_level(&text), json_level(&json), "{text}");
    // Gafort's one switch is decided by the window that completes the run,
    // so no switch was applied and none may be listed.
    let cycles = text
        .split(" cycles (")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .expect("run length in the summary line");
    assert!(!text.contains(&format!("{cycles}: ->")), "{text}");
}
