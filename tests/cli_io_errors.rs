//! File I/O errors from the `oasis` binary name the offending path.
//!
//! A missing input or an unwritable output must fail the command with a
//! nonzero exit and a stderr line that says which file, not a bare
//! "No such file or directory (os error 2)".

use std::path::PathBuf;
use std::process::{Command, Output};

/// A path under a directory that does not exist.
fn missing(name: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("oasis-cli-io-errors-{}-absent", std::process::id()))
        .join(name)
}

fn oasis(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oasis")).args(args).output().expect("oasis binary runs")
}

fn assert_fails_naming(out: &Output, path: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expected failure, got {:?}; stderr: {stderr}", out.status);
    assert!(
        stderr.lines().any(|line| line.contains(path)),
        "stderr does not name {path}: {stderr}"
    );
}

#[test]
fn missing_fault_schedule_is_named() {
    let path = missing("faults.txt");
    let path = path.to_str().expect("utf-8 temp path");
    let out = oasis(&["sim", "--homes", "2", "--cons", "1", "--vms", "3", "--faults", path]);
    assert_fails_naming(&out, path);
}

#[test]
fn unwritable_report_output_is_named() {
    let path = missing("x");
    let path = path.to_str().expect("utf-8 temp path");
    let out = oasis(&["report", "--homes", "2", "--cons", "1", "--vms", "3", "--out", path]);
    assert_fails_naming(&out, path);
}
