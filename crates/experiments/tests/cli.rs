//! The `repro`, `calibrate` and `inspect` binaries reject malformed command
//! lines with exit 2 and a one-line message, before doing any work.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("spawn binary")
}

fn assert_usage_error(exe: &str, args: &[&str], needle: &str) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

#[test]
fn repro_rejects_unknown_flags_and_artifacts() {
    assert_usage_error(REPRO, &["--limt", "3"], "--limt");
    assert_usage_error(REPRO, &["fig99"], "fig99");
    assert_usage_error(REPRO, &["fig6", "fig7"], "one artifact");
}

#[test]
fn repro_rejects_flags_its_artifact_does_not_read() {
    assert_usage_error(REPRO, &["perf"], "perf");
    assert_usage_error(REPRO, &["table1", "--quick"], "--quick");
    assert_usage_error(REPRO, &["table1", "--limit", "3"], "--limit");
    assert_usage_error(REPRO, &["score", "--scale", "0.3"], "--scale");
    assert_usage_error(REPRO, &["--scale", "0.05", "fig6"], "fig6");
}

#[test]
fn repro_rejects_malformed_values() {
    assert_usage_error(REPRO, &["fig6", "--scale", "banana"], "--scale");
    assert_usage_error(REPRO, &["score", "--limit"], "--limit");
    assert_usage_error(REPRO, &["score", "--tier", "xl"], "xl");
}

#[test]
fn repro_help_prints_the_usage() {
    for args in [&["--help"][..], &["score", "-h"]] {
        let out = run(REPRO, args);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: repro"), "{stdout}");
        assert!(stdout.contains("artifacts:"), "{stdout}");
    }
}

#[test]
fn calibration_tools_parse_positionals_strictly() {
    let calibrate = env!("CARGO_BIN_EXE_calibrate");
    assert_usage_error(calibrate, &["banana"], "scale");
    assert_usage_error(calibrate, &["0.1", "vax"], "vax");
    assert_usage_error(calibrate, &["--scale", "0.1"], "--scale");
    let inspect = env!("CARGO_BIN_EXE_inspect");
    assert_usage_error(inspect, &["NOPE"], "NOPE");
    assert_usage_error(inspect, &["EP", "fast"], "scale");
}
