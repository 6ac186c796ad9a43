//! Self-check: the workspace must finish `oasis-lint` with zero
//! unsuppressed findings, and the report must be byte-identical whatever
//! the worker count and whether the incremental cache is cold or warm.
//! If the clean check fails, either fix the flagged code or add a
//! `// oasis-lint: allow(<rule>, "<reason>")` / `boundary(...)` pragma
//! with a real justification.

use std::path::Path;

use oasis_lint::engine::{analyze_workspace, lint_workspace, Options};

fn root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint_workspace(&root()).expect("workspace walk");
    assert!(
        report.checked_files > 100,
        "suspiciously few files checked ({}); walker broken?",
        report.checked_files
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.is_empty(),
        "oasis-lint found {} unsuppressed finding(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
}

/// A directory whose `Cargo.toml` declares its own `[workspace]` is a
/// separate Cargo workspace: the walker skips it, while member crates
/// (plain `[package]` manifests) are still linted.
#[test]
fn nested_workspaces_are_not_walked() {
    let tree = Path::new(env!("CARGO_TARGET_TMPDIR")).join("nested-workspace-walk");
    let _ = std::fs::remove_dir_all(&tree);
    let write = |rel: &str, text: &str| {
        let path = tree.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        std::fs::write(path, text).expect("write fixture");
    };
    let stamp = "pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    write("crates/member/Cargo.toml", "[package]\nname = \"member\"\n");
    write("crates/member/src/lib.rs", stamp);
    write("harness/Cargo.toml", "[package]\nname = \"harness\"\n\n[workspace]\n");
    write("harness/src/lib.rs", stamp);

    let report = lint_workspace(&tree).expect("temp tree walk");
    let files: Vec<&str> = report.findings.iter().map(|f| f.file.as_str()).collect();
    assert_eq!(report.checked_files, 1, "{files:?}");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "wall-clock" && f.file == "crates/member/src/lib.rs"),
        "the member crate must still be linted: {files:?}"
    );
    assert!(!files.iter().any(|f| f.starts_with("harness/")), "{files:?}");
}

#[test]
fn report_is_byte_identical_across_job_counts() {
    let root = root();
    let sequential =
        analyze_workspace(&root, &Options { jobs: Some(1), cache: None }).expect("sequential run");
    let parallel =
        analyze_workspace(&root, &Options { jobs: Some(8), cache: None }).expect("parallel run");
    assert_eq!(
        sequential.to_json(),
        parallel.to_json(),
        "finding order must not depend on worker scheduling"
    );
}

#[test]
fn report_is_byte_identical_across_cold_and_warm_cache() {
    let root = root();
    let cache = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-cache-determinism.v1");
    let _ = std::fs::remove_file(&cache);

    let opts = Options { jobs: Some(4), cache: Some(cache.clone()) };
    let cold = analyze_workspace(&root, &opts).expect("cold run");
    assert_eq!(cold.cache_hits, 0, "first run must not hit a cache that does not exist");
    assert!(cache.exists(), "cold run must persist the cache");

    let warm = analyze_workspace(&root, &opts).expect("warm run");
    assert_eq!(
        warm.cache_hits, warm.checked_files,
        "unchanged tree: every file must come from the cache"
    );
    assert_eq!(
        cold.to_json(),
        warm.to_json(),
        "cache reuse must not change the report by a single byte"
    );

    // A corrupt cache degrades to a cold run, never to wrong output.
    std::fs::write(&cache, "oasis-lint-cache v999\ngarbage\n").expect("clobber cache");
    let recovered = analyze_workspace(&root, &opts).expect("recovery run");
    assert_eq!(recovered.cache_hits, 0, "unreadable cache must be ignored, not trusted");
    assert_eq!(cold.to_json(), recovered.to_json());
}
