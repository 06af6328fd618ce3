//! The record-writing bench bins refuse flags they do not know: a typo
//! or `--help` must never start a sweep that overwrites a shipped
//! `BENCH_<bin>.json`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

const BINS: [(&str, &str); 3] = [
    ("runtime_table", env!("CARGO_BIN_EXE_runtime_table")),
    ("fig1", env!("CARGO_BIN_EXE_fig1")),
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
];

fn record(bin: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{bin}.json"))
}

/// Modification time and contents of a record, `None` when absent.
fn snapshot(path: &Path) -> Option<(SystemTime, Vec<u8>)> {
    let modified = fs::metadata(path).and_then(|m| m.modified()).ok()?;
    Some((modified, fs::read(path).ok()?))
}

#[test]
fn unknown_flags_exit_2_with_usage_and_write_no_record() {
    for (bin, exe) in BINS {
        let before = snapshot(&record(bin));
        let out = Command::new(exe)
            .arg("--no-such-flag")
            .output()
            .expect("run bench bin");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(stderr.contains("--no-such-flag"), "{bin}: {stderr}");
        assert!(stderr.contains(&format!("usage: {bin}")), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} did work before rejecting");
        assert!(snapshot(&record(bin)) == before, "{bin} touched its record");
    }
}

#[test]
fn help_prints_usage_and_writes_no_record() {
    for (bin, exe) in BINS {
        let before = snapshot(&record(bin));
        let out = Command::new(exe)
            .arg("--help")
            .output()
            .expect("run bench bin");
        assert!(out.status.success(), "{bin} --help failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with(&format!("usage: {bin}")),
            "{bin}: {stdout}"
        );
        assert!(snapshot(&record(bin)) == before, "{bin} touched its record");
    }
}
