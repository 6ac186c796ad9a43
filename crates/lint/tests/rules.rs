//! Per-rule fixture tests: every rule fires on known-bad input and stays
//! silent on known-good input, and the pragma machinery behaves.

use oasis_lint::engine::lint_source;
use oasis_lint::Finding;

/// Lints fixture `src` as if it lived at the workspace-relative `path`
/// (rule scopes are path-based, so the virtual path picks the scope).
fn lint_at(path: &str, src: &str) -> Vec<Finding> {
    lint_source(path, src)
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

#[test]
fn wall_clock_fires_on_bad_and_not_on_good() {
    let bad = lint_at("crates/core/src/policy.rs", include_str!("fixtures/wall_clock/bad.rs"));
    assert_eq!(lines_of(&bad, "wall-clock"), vec![2, 5, 6], "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == "wall-clock"), "{bad:?}");

    let good = lint_at("crates/core/src/policy.rs", include_str!("fixtures/wall_clock/good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn wall_clock_respects_the_allowlist() {
    let src = include_str!("fixtures/wall_clock/bad.rs");
    assert!(lint_at("crates/bench/src/timing.rs", src).is_empty());
    // The profiler keeps optional wall timings alongside deterministic
    // sim-time metrics; its Instant reads are the telemetry wall-clock
    // region.
    assert!(lint_at("crates/telemetry/src/profile.rs", src).is_empty());
}

#[test]
fn hash_iteration_fires_in_decision_path_crates_only() {
    let src = include_str!("fixtures/hash_iteration/bad.rs");
    for krate in ["core", "cluster", "sim", "migration", "host"] {
        let path = format!("crates/{krate}/src/lib.rs");
        let findings = lint_at(&path, src);
        assert!(
            findings.iter().any(|f| f.rule == "hash-iteration"),
            "expected hash-iteration in {path}: {findings:?}"
        );
    }
    // A non-decision crate may hash freely.
    assert!(lint_at("crates/power/src/meter.rs", src).is_empty());

    let good =
        lint_at("crates/core/src/placement.rs", include_str!("fixtures/hash_iteration/good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn foreign_rng_fires_on_bad_and_not_on_good() {
    let bad = lint_at("crates/host/src/agent.rs", include_str!("fixtures/foreign_rng/bad.rs"));
    let rules = rules_of(&bad);
    assert!(rules.iter().all(|r| *r == "foreign-rng"), "{bad:?}");
    // `use rand::Rng`, `thread_rng()`, and `StdRng::from_entropy()` each fire.
    assert_eq!(lines_of(&bad, "foreign-rng"), vec![2, 5, 6], "{bad:?}");

    let good = lint_at("crates/host/src/agent.rs", include_str!("fixtures/foreign_rng/good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn foreign_rng_exempts_the_rng_home() {
    let src = include_str!("fixtures/foreign_rng/bad.rs");
    assert!(lint_at("crates/sim/src/rng.rs", src).is_empty());
}

#[test]
fn panic_hygiene_fires_on_bad_and_not_on_good() {
    let bad =
        lint_at("crates/host/src/hypervisor.rs", include_str!("fixtures/panic_hygiene/bad.rs"));
    assert_eq!(lines_of(&bad, "panic-hygiene"), vec![3, 4, 6, 10], "{bad:?}");

    // Typed errors pass, and unwraps under #[cfg(test)] are allowed.
    let good =
        lint_at("crates/host/src/hypervisor.rs", include_str!("fixtures/panic_hygiene/good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn panic_hygiene_is_scoped_to_the_hot_path() {
    let src = include_str!("fixtures/panic_hygiene/bad.rs");
    // The same code outside the fault/fetch hot path is not flagged.
    assert!(lint_at("crates/power/src/acpi.rs", src).is_empty());
    assert!(lint_at("crates/telemetry/src/metrics.rs", src).is_empty());
    // The net handshake is part of the hot path.
    assert!(!lint_at("crates/net/src/secure/handshake.rs", src).is_empty());
}

#[test]
fn unit_safety_fires_on_bad_and_not_on_good() {
    let bad = lint_at("crates/host/src/memserver.rs", include_str!("fixtures/unit_safety/bad.rs"));
    assert_eq!(lines_of(&bad, "unit-safety"), vec![3, 4, 5], "{bad:?}");

    let good =
        lint_at("crates/host/src/memserver.rs", include_str!("fixtures/unit_safety/good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn unit_safety_exempts_the_size_module() {
    let src = include_str!("fixtures/unit_safety/bad.rs");
    assert!(lint_at("crates/mem/src/size.rs", src).is_empty());
}

#[test]
fn print_hygiene_fires_in_library_crates_only() {
    let src = include_str!("fixtures/print_hygiene/bad.rs");
    let bad = lint_at("crates/migration/src/plan.rs", src);
    assert_eq!(lines_of(&bad, "print-hygiene"), vec![3, 4, 5], "{bad:?}");

    // cli and bench own stdout/stderr; test-context dirs are exempt too.
    assert!(lint_at("crates/cli/src/lib.rs", src).is_empty());
    assert!(lint_at("crates/bench/src/report.rs", src).is_empty());
    assert!(lint_at("crates/migration/tests/roundtrip.rs", src).is_empty());
    assert!(lint_at("examples/quickstart.rs", src).is_empty());

    let good =
        lint_at("crates/migration/src/plan.rs", include_str!("fixtures/print_hygiene/good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn unbalanced_span_fires_on_bad_and_not_on_good() {
    let bad = lint_at("crates/cluster/src/sim.rs", include_str!("fixtures/unbalanced_span/bad.rs"));
    // Two `_`-bound guards, a `return` before scope.end(), a `?` before
    // span.end().
    assert_eq!(lines_of(&bad, "unbalanced-span"), vec![4, 5, 8, 16], "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == "unbalanced-span"), "{bad:?}");

    let good =
        lint_at("crates/cluster/src/sim.rs", include_str!("fixtures/unbalanced_span/good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn worker_pool_module_is_fully_in_scope() {
    // The parallel fan-out path must not smuggle in nondeterminism: the
    // pool module sits inside the `sim` decision-path crate and outside
    // every allowlist, so wall-clock reads, foreign RNGs and hashed
    // containers are all flagged there. (Timing belongs to the bench
    // harness's crates/bench/src/timing.rs, the one allowed region.)
    let pool = "crates/sim/src/pool.rs";
    let wall = lint_at(pool, include_str!("fixtures/wall_clock/bad.rs"));
    assert!(wall.iter().any(|f| f.rule == "wall-clock"), "{wall:?}");
    let rng = lint_at(pool, include_str!("fixtures/foreign_rng/bad.rs"));
    assert!(rng.iter().any(|f| f.rule == "foreign-rng"), "{rng:?}");
    let hash = lint_at(pool, include_str!("fixtures/hash_iteration/bad.rs"));
    assert!(hash.iter().any(|f| f.rule == "hash-iteration"), "{hash:?}");
}

#[test]
fn pragma_suppresses_and_counts_as_used() {
    let findings =
        lint_at("crates/host/src/memserver.rs", include_str!("fixtures/pragmas/suppressed.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn stale_pragma_is_a_finding() {
    let findings = lint_at("crates/host/src/agent.rs", include_str!("fixtures/pragmas/unused.rs"));
    assert_eq!(rules_of(&findings), vec!["unused-pragma"], "{findings:?}");
}

#[test]
fn reasonless_pragma_is_malformed_and_does_not_suppress() {
    let findings =
        lint_at("crates/host/src/agent.rs", include_str!("fixtures/pragmas/malformed.rs"));
    let rules = rules_of(&findings);
    assert!(rules.contains(&"malformed-pragma"), "{findings:?}");
    assert!(rules.contains(&"panic-hygiene"), "unsuppressed finding expected: {findings:?}");
}

#[test]
fn unknown_rule_pragma_is_a_finding() {
    let findings =
        lint_at("crates/host/src/agent.rs", include_str!("fixtures/pragmas/unknown_rule.rs"));
    assert_eq!(rules_of(&findings), vec!["unknown-rule"], "{findings:?}");
}

#[test]
fn json_report_escapes_and_round_trips_shape() {
    let mut report =
        oasis_lint::engine::Report { checked_files: 2, ..oasis_lint::engine::Report::default() };
    report.findings.push(Finding {
        file: "crates/a/src/x.rs".to_string(),
        line: 7,
        rule: "wall-clock".to_string(),
        message: "uses \"Instant\"\n badly".to_string(),
    });
    let json = report.to_json();
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(json.contains("\\\"Instant\\\"\\n"), "{json}");
    assert!(json.contains("\"checked_files\": 2"), "{json}");
}

#[test]
fn env_read_fires_in_decision_path_crates_only() {
    let src = include_str!("fixtures/env_read/bad.rs");
    let bad = lint_at("crates/cluster/src/config.rs", src);
    assert_eq!(lines_of(&bad, "env-read"), vec![4, 11], "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == "env-read"), "{bad:?}");

    // Outside the decision path, ambient reads are allowed per-site (the
    // taint pass still tracks them transitively).
    assert!(lint_at("crates/telemetry/src/metrics.rs", src).is_empty());

    let good = lint_at("crates/cluster/src/config.rs", include_str!("fixtures/env_read/good.rs"));
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn float_energy_fires_on_accumulation_and_equality() {
    let src = include_str!("fixtures/float_energy/bad.rs");
    let bad = lint_at("crates/cluster/src/sim.rs", src);
    // Line 5: `total_joules += joules`; line 6: `day_energy == 0.0`;
    // line 7: reversed operands `1.5 == total_joules`.
    assert_eq!(lines_of(&bad, "float-energy"), vec![5, 6, 7], "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == "float-energy"), "{bad:?}");

    let good = lint_at("crates/cluster/src/sim.rs", include_str!("fixtures/float_energy/good.rs"));
    assert!(good.is_empty(), "integer-mj ledger must be clean: {good:?}");
}

#[test]
fn dropped_retry_fires_on_all_three_discard_shapes() {
    let src = include_str!("fixtures/dropped_retry/bad.rs");
    let bad = lint_at("crates/faults/src/recovery.rs", src);
    // Statement position, `let _ =` with a qualified path, and `.ok();`.
    assert_eq!(lines_of(&bad, "dropped-retry"), vec![4, 5, 6], "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == "dropped-retry"), "{bad:?}");

    let good =
        lint_at("crates/faults/src/recovery.rs", include_str!("fixtures/dropped_retry/good.rs"));
    assert!(good.is_empty(), "bound-and-matched outcome must be clean: {good:?}");
}

#[test]
fn cross_fn_span_fires_when_a_guard_escapes_into_a_callee() {
    let src = include_str!("fixtures/cross_fn_span/bad.rs");
    let bad = lint_at("crates/cluster/src/sim.rs", src);
    assert_eq!(lines_of(&bad, "cross-fn-span"), vec![7, 12], "{bad:?}");

    let good = lint_at("crates/cluster/src/sim.rs", include_str!("fixtures/cross_fn_span/good.rs"));
    assert!(good.is_empty(), "same-fn .end() must be clean: {good:?}");
}

#[test]
fn sarif_report_names_every_rule_and_locates_findings() {
    let report = oasis_lint::engine::analyze_sources(&[(
        "crates/core/src/policy.rs",
        include_str!("fixtures/wall_clock/bad.rs"),
    )]);
    let sarif = oasis_lint::sarif::to_sarif(&report);
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("sarif-2.1.0.json"), "{sarif}");
    // Every per-site rule plus the engine's pragma-health rules appear as
    // reportingDescriptors, findings or not.
    for rule in oasis_lint::rules::RULES {
        assert!(sarif.contains(&format!("\"id\": \"{}\"", rule.id)), "missing {}", rule.id);
    }
    assert!(sarif.contains("\"id\": \"unused-pragma\""));
    // The wall-clock findings carry physical locations.
    assert!(sarif.contains("\"ruleId\": \"wall-clock\""), "{sarif}");
    assert!(sarif.contains("\"uri\": \"crates/core/src/policy.rs\""), "{sarif}");
    assert!(sarif.contains("\"startLine\": 2"), "{sarif}");

    // Byte-stable across identical inputs.
    let again = oasis_lint::sarif::to_sarif(&report);
    assert_eq!(sarif, again);
}
