//! Bad inputs to the `oasis` binary name themselves.
//!
//! A missing input or an unwritable output must fail the command with a
//! nonzero exit and a stderr line that says which file, not a bare
//! "No such file or directory (os error 2)". A worker count that is not
//! a count ≥ 1 must fail the same way, naming the flag or variable and
//! its value, rather than be clamped or replaced by a default.

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

/// Runs `oasis` with `OASIS_JOBS` set to `jobs`.
fn oasis_with_jobs_env(jobs: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oasis"))
        .args(args)
        .env("OASIS_JOBS", jobs)
        .output()
        .expect("oasis binary runs")
}

/// A two-rack smoke day: the shape that runs on the worker pool.
const TWO_RACKS: &[&str] = &["sim", "--scale", "smoke", "--racks", "2"];

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

#[test]
fn zero_jobs_flag_is_named() {
    let out = oasis(&[TWO_RACKS, &["--jobs", "0"]].concat());
    assert_fails_naming(&out, "--jobs \"0\"");
}

#[test]
fn bad_jobs_env_is_named() {
    for value in ["0", "abc"] {
        let out = oasis_with_jobs_env(value, TWO_RACKS);
        assert_fails_naming(&out, &format!("OASIS_JOBS=\"{value}\""));
    }
}
