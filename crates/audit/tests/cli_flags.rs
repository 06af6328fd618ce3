//! `pmcs-audit` answers a malformed command line like every pmcs binary
//! — usage on stderr, exit 2 — before running any analysis.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_pmcs-audit");

/// Every `BENCH_*.json` record at the repository root with its contents.
fn records() -> Vec<(PathBuf, Vec<u8>)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out: Vec<_> = fs::read_dir(root)
        .expect("read repository root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .map(|p| {
            let bytes = fs::read(&p).expect("read record");
            (p, bytes)
        })
        .collect();
    out.sort();
    out
}

fn run(args: &[&str]) -> Output {
    let before = records();
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("run pmcs-audit");
    assert!(records() == before, "{args:?} touched a perf record");
    out
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(needle), "{stderr}");
    assert!(stderr.contains("USAGE:"), "{stderr}");
    assert!(out.stdout.is_empty(), "did work before rejecting");
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    assert_usage_error(&run(&["analyze", "--no-such-flag"]), "--no-such-flag");
}

#[test]
fn malformed_values_exit_2_with_usage() {
    assert_usage_error(
        &run(&["analyze", "--tasks", "x"]),
        "invalid value \"x\" for --tasks",
    );
    assert_usage_error(
        &run(&["analyze", "--tasks", "0"]),
        "invalid value \"0\" for --tasks",
    );
}

#[test]
fn help_prints_usage() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("pmcs-audit"), "{stdout}");
    assert!(stdout.contains("USAGE:"), "{stdout}");
}
