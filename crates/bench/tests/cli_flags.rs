//! The record-writing bench bins answer a malformed command line the
//! same way — usage on stderr, exit 2 — before doing any work: a typo,
//! a bad value or `--help` must never start a sweep that overwrites a
//! shipped `BENCH_<bin>.json`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::SystemTime;

const BINS: [(&str, &str); 6] = [
    ("fig1", env!("CARGO_BIN_EXE_fig1")),
    ("fig2", env!("CARGO_BIN_EXE_fig2")),
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("multicore", env!("CARGO_BIN_EXE_multicore")),
    ("runtime_table", env!("CARGO_BIN_EXE_runtime_table")),
    ("campaign", env!("CARGO_BIN_EXE_campaign")),
];

fn record(bin: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{bin}.json"))
}

/// Modification time and contents of a record, `None` when absent.
fn snapshot(path: &Path) -> Option<(SystemTime, Vec<u8>)> {
    let modified = fs::metadata(path).and_then(|m| m.modified()).ok()?;
    Some((modified, fs::read(path).ok()?))
}

/// Runs every bin with `args` and checks it left its record alone.
fn run_each(args: &[&str], check: impl Fn(&str, &Output)) {
    for (bin, exe) in BINS {
        let before = snapshot(&record(bin));
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("run bench bin");
        check(bin, &out);
        assert!(snapshot(&record(bin)) == before, "{bin} touched its record");
    }
}

/// Exit 2, the offending argument and the usage on stderr, nothing on
/// stdout.
fn assert_usage_error(bin: &str, out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
    assert!(stderr.contains(needle), "{bin}: {stderr}");
    assert!(stderr.contains(&format!("usage: {bin}")), "{bin}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} did work before rejecting");
}

#[test]
fn unknown_flags_exit_2_with_usage_and_write_no_record() {
    run_each(&["--no-such-flag"], |bin, out| {
        assert_usage_error(bin, out, "--no-such-flag");
    });
}

#[test]
fn malformed_values_exit_2_with_usage_and_write_no_record() {
    run_each(&["--jobs", "x"], |bin, out| {
        assert_usage_error(bin, out, "invalid value \"x\" for --jobs");
    });
}

#[test]
fn help_prints_usage_and_writes_no_record() {
    run_each(&["--help"], |bin, out| {
        assert!(out.status.success(), "{bin} --help failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with(&format!("usage: {bin}")),
            "{bin}: {stdout}"
        );
    });
}
