//! The rule registry and token-sequence matchers.
//!
//! Each rule carries a path scope (which files it applies to) and a set of
//! token patterns. Patterns match the lexed token stream, so they never
//! fire inside comments or string literals; the engine additionally skips
//! matches that start inside `#[cfg(test)]` / `#[test]` regions or
//! test-context directories.

use crate::lexer::{number_is, Tok, TokKind};

/// Crates whose decision paths must stay seed-reproducible: any
/// order-dependent container iteration here can reorder placement or
/// migration decisions between runs.
///
/// Via `sim` this also covers the worker pool (`crates/sim/src/pool.rs`)
/// that fans experiment runs across threads: worker code must stay free
/// of wall-clock reads and foreign RNGs so parallel output is
/// byte-identical to sequential — macro-benchmarks take their timings
/// through `crates/bench/src/timing.rs`, the allowed wall-clock region.
pub const DECISION_PATH_CRATES: [&str; 6] =
    ["core", "cluster", "sim", "migration", "host", "faults"];

/// Crates whose functions are determinism-taint *sinks*: any transitive
/// reach from a wall-clock / foreign-RNG / hash-iteration / env-read
/// source into these crates' `src/` trees is a finding unless a
/// boundary pragma on the path declares it contained. A tighter set
/// than [`DECISION_PATH_CRATES`]: `host` agents legitimately wrap
/// telemetry spans, so only the pure decision path is sink territory.
///
/// Via `cluster` this covers the datacenter shard driver
/// (`crates/cluster/src/shard.rs`) and via `core` the cross-rack epoch
/// planner (`crates/core/src/rebalance.rs`): the rebalance pass must
/// stay a pure function of the per-rack loads, and rack stepping must
/// stay wall-clock/env free (rack wall timings flow in through the
/// caller's injected clock), so a sharded day is byte-identical across
/// `OASIS_JOBS` worker counts and rack schedules.
pub const TAINT_SINK_CRATES: [&str; 5] = ["core", "cluster", "sim", "faults", "migration"];

/// Library crates exempt from print-hygiene (user-facing output is their
/// job, or — for `lint` itself — findings go to stdout by design).
pub const PRINT_EXEMPT_CRATES: [&str; 3] = ["cli", "bench", "lint"];

/// Functions whose `Result`/outcome must never be silently discarded:
/// retry exhaustion is a recovery decision the caller has to make.
pub const RETRY_FNS: [&str; 2] = ["with_retries", "wake_with_retries"];

/// Files allowed to read wall-clock time: the bench harness measures real
/// elapsed time, and the hierarchical profiler records host-side wall
/// durations that never feed back into simulation decisions (profile
/// exports default to sim-time/call-count metrics so artifacts stay
/// byte-deterministic).
pub const WALL_CLOCK_ALLOWED: [&str; 2] =
    ["crates/bench/src/timing.rs", "crates/telemetry/src/profile.rs"];

/// The only module that may generate randomness.
pub const RNG_HOME: &str = "crates/sim/src/rng.rs";

/// The only module that may spell out raw byte arithmetic; everything else
/// goes through the `ByteSize` / `PAGE_SIZE` newtypes it defines.
pub const SIZE_HOME: &str = "crates/mem/src/size.rs";

/// Static description of one rule.
pub struct Rule {
    /// Stable identifier used in findings and pragmas.
    pub id: &'static str,
    /// One-line summary for `--list-rules` and docs.
    pub summary: &'static str,
}

/// All rules the pass enforces, in report order.
pub const RULES: [Rule; 12] = [
    Rule {
        id: "wall-clock",
        summary: "no Instant/SystemTime outside bench timing and the telemetry profiler; \
                  simulation logic uses SimTime",
    },
    Rule {
        id: "hash-iteration",
        summary: "no HashMap/HashSet/RandomState in decision-path crates \
                  (core, cluster, sim, migration, host); iteration order breaks seeds",
    },
    Rule { id: "foreign-rng", summary: "only oasis_sim::rng::SimRng may generate randomness" },
    Rule {
        id: "panic-hygiene",
        summary: "no unwrap/expect/panic in non-test code of the fault/fetch hot path \
                  (crates/host, net handshake)",
    },
    Rule {
        id: "unit-safety",
        summary: "no raw * 4096 / << 12 / * 1024 * 1024 byte arithmetic outside \
                  crates/mem/src/size.rs; use the size newtypes",
    },
    Rule {
        id: "print-hygiene",
        summary: "no println!/eprintln!/dbg! in library crates; output goes through \
                  the telemetry bus (cli and bench exempt)",
    },
    Rule {
        id: "unbalanced-span",
        summary: "no profile guard bound to `_` (closed before measuring anything), \
                  and no return/? between a guard binding and its .end()",
    },
    Rule {
        id: "cross-fn-span",
        summary: "no profile guard passed to another function: scopes open and close \
                  in the same fn, or span nesting stops matching the call tree",
    },
    Rule {
        id: "env-read",
        summary: "no std::env::var/var_os/vars in decision-path crates; configuration \
                  flows through explicit parameters",
    },
    Rule {
        id: "float-energy",
        summary: "no float accumulation (+=/-=) or float equality on energy-named values \
                  in decision-path crates; account in integer millijoules",
    },
    Rule {
        id: "dropped-retry",
        summary: "no silently discarded with_retries/wake_with_retries outcome; retry \
                  exhaustion is a recovery decision the caller must handle",
    },
    Rule {
        id: "determinism-taint",
        summary: "no call path from a decision-path fn to a wall-clock/foreign-rng/\
                  hash-iteration/env-read source without a boundary pragma (workspace \
                  call-graph analysis)",
    },
];

/// Rule identifiers that only the engine emits (pragma health checks).
/// They cannot be suppressed and need no fixtures per rule.
pub const ENGINE_RULES: [&str; 3] = ["malformed-pragma", "unknown-rule", "unused-pragma"];

/// `true` if `id` names a suppressible rule.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// A raw (pre-suppression) finding.
#[derive(Clone, Debug)]
pub struct RawFinding {
    /// Rule identifier.
    pub rule: &'static str,
    /// 1-based line of the first matched token.
    pub line: u32,
    /// Explanation, naming the matched construct.
    pub message: String,
}

/// One element of a token pattern.
enum Pat {
    /// An identifier with this exact text.
    Id(&'static str),
    /// A punctuation token with this character.
    P(char),
    /// A number literal with this value.
    Num(u64),
}

fn matches_at(toks: &[Tok], at: usize, pat: &[Pat]) -> bool {
    if at + pat.len() > toks.len() {
        return false;
    }
    pat.iter().zip(&toks[at..]).all(|(p, t)| match p {
        Pat::Id(s) => t.kind == TokKind::Ident && t.text == *s,
        Pat::P(c) => t.kind == TokKind::Punct && t.text.starts_with(*c),
        Pat::Num(v) => t.kind == TokKind::Number && number_is(&t.text, *v),
    })
}

/// Path helpers. Paths are workspace-relative with forward slashes.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

fn in_crate_src(path: &str, name: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|r| r.strip_prefix(name))
        .map(|r| r.starts_with("/src/"))
        .unwrap_or(false)
}

fn wall_clock_scope(path: &str) -> bool {
    !WALL_CLOCK_ALLOWED.contains(&path)
}

fn decision_path_scope(path: &str) -> bool {
    crate_of(path).is_some_and(|c| DECISION_PATH_CRATES.contains(&c))
}

fn hash_iteration_scope(path: &str) -> bool {
    decision_path_scope(path)
}

fn foreign_rng_scope(path: &str) -> bool {
    path != RNG_HOME
}

fn panic_hygiene_scope(path: &str) -> bool {
    path.starts_with("crates/host/src/") || path == "crates/net/src/secure/handshake.rs"
}

fn unit_safety_scope(path: &str) -> bool {
    path != SIZE_HOME
}

fn print_hygiene_scope(path: &str) -> bool {
    if path.starts_with("src/") {
        return true;
    }
    match crate_of(path) {
        Some(c) => !PRINT_EXEMPT_CRATES.contains(&c) && in_crate_src(path, c),
        None => false,
    }
}

/// `true` for identifiers that plausibly name an energy quantity.
/// Deliberately narrow ("mj"/"watt" would drag in the integer millijoule
/// ledger and the power models, which are fine).
fn is_energy_ident(name: &str) -> bool {
    let l = name.to_ascii_lowercase();
    l.contains("joule") || l.contains("energy")
}

/// For a token at argument position, walks back to the enclosing open
/// paren and returns the callee identifier — `None` when the paren
/// belongs to a macro, a tuple, or a statement boundary intervenes.
fn call_of_arg(toks: &[Tok], arg: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut m = arg;
    while m > 0 {
        m -= 1;
        let t = &toks[m];
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            ")" => depth += 1,
            "(" => {
                if depth > 0 {
                    depth -= 1;
                    continue;
                }
                let callee = toks.get(m.checked_sub(1)?)?;
                let keyword = matches!(
                    callee.text.as_str(),
                    "if" | "while" | "for" | "match" | "return" | "in" | "let" | "fn" | "move"
                );
                if callee.kind == TokKind::Ident && !keyword {
                    return Some(callee.text.clone());
                }
                return None;
            }
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Runs every in-scope rule over the token stream. `test_mask[i]` marks
/// tokens inside test-only regions; matches starting there are skipped.
pub fn check_file(path: &str, toks: &[Tok], test_mask: &[bool]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        out.push(RawFinding { rule, line, message });
    };

    for (i, t) in toks.iter().enumerate() {
        if test_mask[i] {
            continue;
        }
        let line = t.line;

        if wall_clock_scope(path)
            && t.kind == TokKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
        {
            push(
                "wall-clock",
                line,
                format!(
                    "wall-clock time source `{}`: simulation logic must use SimTime/SimDuration \
                     (allowed only in bench timing and the telemetry profiler)",
                    t.text
                ),
            );
        }

        if hash_iteration_scope(path)
            && t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet" || t.text == "RandomState")
        {
            push(
                "hash-iteration",
                line,
                format!(
                    "`{}` in a decision-path crate: iteration order varies across runs and \
                     breaks seed reproducibility; use BTreeMap/BTreeSet",
                    t.text
                ),
            );
        }

        if foreign_rng_scope(path) {
            let foreign_ident = t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "thread_rng"
                        | "ThreadRng"
                        | "StdRng"
                        | "SmallRng"
                        | "OsRng"
                        | "getrandom"
                        | "from_entropy"
                );
            let rand_path = matches_at(toks, i, &[Pat::Id("rand"), Pat::P(':'), Pat::P(':')]);
            if foreign_ident || rand_path {
                push(
                    "foreign-rng",
                    line,
                    format!(
                        "foreign randomness source `{}`: all randomness must flow from the \
                         seeded oasis_sim::rng::SimRng",
                        if rand_path { "rand::" } else { t.text.as_str() }
                    ),
                );
            }
        }

        if panic_hygiene_scope(path) {
            let method = |name| [Pat::P('.'), Pat::Id(name), Pat::P('(')];
            let mac = |name| [Pat::Id(name), Pat::P('!')];
            let hit = if matches_at(toks, i, &method("unwrap")) {
                Some("unwrap()")
            } else if matches_at(toks, i, &method("expect")) {
                Some("expect()")
            } else if matches_at(toks, i, &mac("panic")) {
                Some("panic!")
            } else if matches_at(toks, i, &mac("unreachable")) {
                Some("unreachable!")
            } else if matches_at(toks, i, &mac("todo")) {
                Some("todo!")
            } else if matches_at(toks, i, &mac("unimplemented")) {
                Some("unimplemented!")
            } else {
                None
            };
            if let Some(what) = hit {
                push(
                    "panic-hygiene",
                    line,
                    format!(
                        "`{what}` on the fault/fetch hot path: return a typed error, move \
                         under #[cfg(test)], or justify with a pragma"
                    ),
                );
            }
        }

        if unit_safety_scope(path) {
            let patterns: [&[Pat]; 8] = [
                &[Pat::P('*'), Pat::Num(4096)],
                &[Pat::Num(4096), Pat::P('*')],
                &[Pat::P('<'), Pat::P('<'), Pat::Num(12)],
                &[Pat::P('>'), Pat::P('>'), Pat::Num(12)],
                &[Pat::P('*'), Pat::Num(1024), Pat::P('*'), Pat::Num(1024)],
                &[Pat::Num(1024), Pat::P('*'), Pat::Num(1024)],
                &[Pat::P('*'), Pat::Num(1_048_576)],
                &[Pat::Num(1_048_576), Pat::P('*')],
            ];
            if patterns.iter().any(|p| matches_at(toks, i, p)) {
                push(
                    "unit-safety",
                    line,
                    "raw byte arithmetic: use ByteSize / PAGE_SIZE / CHUNK_SIZE newtypes from \
                     oasis-mem instead of spelled-out page and MiB factors"
                        .to_string(),
                );
            }
        }

        // env-read: ambient configuration reads in the decision path make
        // runs depend on invisible state.
        if decision_path_scope(path)
            && matches_at(toks, i, &[Pat::Id("env"), Pat::P(':'), Pat::P(':')])
        {
            if let Some(f) = toks.get(i + 3).filter(|t| {
                t.kind == TokKind::Ident && matches!(t.text.as_str(), "var" | "var_os" | "vars")
            }) {
                push(
                    "env-read",
                    line,
                    format!(
                        "`env::{}` in a decision-path crate: runs must not depend on ambient \
                         environment; thread configuration through explicit parameters or \
                         justify with a boundary pragma",
                        f.text
                    ),
                );
            }
        }

        // float-energy: float accumulation/equality on energy-named values
        // is order-sensitive and drifts; the ledger is integer millijoules.
        if decision_path_scope(path) && t.kind == TokKind::Ident && is_energy_ident(&t.text) {
            // The lexer splits `0.5` into Number('.')Number, so a float
            // literal *starting* at j is Number followed by `.`, and one
            // *ending* at j is Number preceded by `.`.
            let float_starts = |j: usize| {
                toks.get(j).is_some_and(|t| t.kind == TokKind::Number)
                    && toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Punct && t.text == ".")
            };
            let float_ends = |j: usize| {
                toks.get(j).is_some_and(|t| t.kind == TokKind::Number)
                    && j >= 1
                    && toks[j - 1].kind == TokKind::Punct
                    && toks[j - 1].text == "."
            };
            if matches_at(toks, i + 1, &[Pat::P('+'), Pat::P('=')])
                || matches_at(toks, i + 1, &[Pat::P('-'), Pat::P('=')])
            {
                push(
                    "float-energy",
                    line,
                    format!(
                        "float accumulation into `{}`: float addition is order-sensitive and \
                         drifts across summation orders; accumulate energy in integer \
                         millijoules and convert at the reporting edge",
                        t.text
                    ),
                );
            } else if (matches_at(toks, i + 1, &[Pat::P('='), Pat::P('=')])
                || matches_at(toks, i + 1, &[Pat::P('!'), Pat::P('=')]))
                && float_starts(i + 3)
                || i >= 3
                    && toks[i - 1].kind == TokKind::Punct
                    && toks[i - 1].text == "="
                    && toks[i - 2].kind == TokKind::Punct
                    && matches!(toks[i - 2].text.as_str(), "=" | "!")
                    && float_ends(i - 3)
            {
                push(
                    "float-energy",
                    line,
                    format!(
                        "float equality on `{}`: compare energy in integer millijoules or \
                         use an explicit tolerance",
                        t.text
                    ),
                );
            }
        }

        // dropped-retry: a with_retries/wake_with_retries outcome nothing
        // consumes. Three shapes: statement position `f(...);`, trailing
        // `.ok();`, and `let _ = f(...);`.
        if decision_path_scope(path)
            && t.kind == TokKind::Ident
            && RETRY_FNS.contains(&t.text.as_str())
            && matches_at(toks, i + 1, &[Pat::P('(')])
        {
            // Walk back over path qualifiers (`recovery::`) to the start
            // of the call expression.
            let mut s = i;
            while s >= 3
                && matches_at(toks, s - 2, &[Pat::P(':'), Pat::P(':')])
                && toks[s - 3].kind == TokKind::Ident
            {
                s -= 3;
            }
            let stmt_position = s == 0
                || toks[s - 1].kind == TokKind::Punct
                    && matches!(toks[s - 1].text.as_str(), ";" | "{" | "}");
            let let_discard =
                s >= 3 && matches_at(toks, s - 3, &[Pat::Id("let"), Pat::Id("_"), Pat::P('=')]);
            // Matching close paren of the call.
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < toks.len() {
                if toks[j].kind == TokKind::Punct {
                    if toks[j].text == "(" {
                        depth += 1;
                    } else if toks[j].text == ")" {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                }
                j += 1;
            }
            let discarded_after = stmt_position
                && (matches_at(toks, j + 1, &[Pat::P(';')])
                    || matches_at(
                        toks,
                        j + 1,
                        &[Pat::P('.'), Pat::Id("ok"), Pat::P('('), Pat::P(')'), Pat::P(';')],
                    ));
            if let_discard || discarded_after {
                push(
                    "dropped-retry",
                    line,
                    format!(
                        "outcome of `{}` discarded: retry exhaustion is a recovery decision — \
                         handle the error (fall back, shed, or escalate) instead of dropping it",
                        t.text
                    ),
                );
            }
        }

        // unbalanced-span: `let _ = t.profile(..)`
        // drops the guard on the same statement, so the span measures
        // nothing; a named guard whose `.end()` sits past a `return` or
        // `?` silently falls back to Drop on the early path, losing the
        // explicit end the surrounding code relies on for determinism.
        if matches_at(toks, i, &[Pat::Id("let")]) {
            let is_guard_ctor =
                |j: usize| matches_at(toks, j, &[Pat::P('.'), Pat::Id("profile"), Pat::P('(')]);
            // Optional `mut`, then the bound name (`_` or an identifier).
            let mut b = i + 1;
            if matches_at(toks, b, &[Pat::Id("mut")]) {
                b += 1;
            }
            let named = toks.get(b).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone());
            if let Some(name) = named {
                if matches_at(toks, b + 1, &[Pat::P('=')]) {
                    // Does the initializer (up to `;`) construct a guard?
                    let mut j = b + 2;
                    let mut ctor = false;
                    while j < toks.len() && !(toks[j].kind == TokKind::Punct && toks[j].text == ";")
                    {
                        if is_guard_ctor(j) {
                            ctor = true;
                        }
                        j += 1;
                    }
                    if ctor && name == "_" {
                        push(
                            "unbalanced-span",
                            line,
                            "profile guard bound to `_` is dropped immediately and \
                             measures nothing; bind it to a name and call .end(), or let a \
                             named `_guard` live to end of scope"
                                .to_string(),
                        );
                    } else if ctor {
                        // Scan the enclosing block for `name.end()`; if an
                        // early exit sits in between, flag it.
                        let mut depth = 0i32;
                        let mut early: Option<u32> = None;
                        let mut k = j + 1;
                        while k < toks.len() && depth >= 0 {
                            let tk = &toks[k];
                            if tk.kind == TokKind::Ident
                                && tk.text == name
                                && matches_at(
                                    toks,
                                    k + 1,
                                    &[Pat::P('.'), Pat::Id("end"), Pat::P('(')],
                                )
                            {
                                if let Some(at) = early {
                                    push(
                                        "unbalanced-span",
                                        at,
                                        format!(
                                            "early exit between `let {name} = ...` and \
                                             `{name}.end()`: the guard ends by Drop on this \
                                             path; end it before exiting or restructure"
                                        ),
                                    );
                                }
                                break;
                            }
                            match tk.kind {
                                TokKind::Punct if tk.text == "{" => depth += 1,
                                TokKind::Punct if tk.text == "}" => depth -= 1,
                                TokKind::Punct if tk.text == "?" => {
                                    early = early.or(Some(tk.line));
                                }
                                TokKind::Ident if tk.text == "return" => {
                                    early = early.or(Some(tk.line));
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                    // cross-fn-span: a named guard passed as a bare call
                    // argument escapes into the callee, which then owns
                    // the .end() — span nesting stops matching the call
                    // tree. Open and close in the same fn; give the
                    // callee its own child scope instead.
                    if ctor && name != "_" {
                        let mut depth = 0i32;
                        let mut k = j + 1;
                        while k < toks.len() && depth >= 0 {
                            let tk = &toks[k];
                            if tk.kind == TokKind::Punct {
                                match tk.text.as_str() {
                                    "{" => depth += 1,
                                    "}" => depth -= 1,
                                    _ => {}
                                }
                            }
                            if tk.kind == TokKind::Ident
                                && tk.text == name
                                && !matches_at(toks, k + 1, &[Pat::P('.')])
                                && k > 0
                                && toks[k - 1].kind == TokKind::Punct
                                && matches!(toks[k - 1].text.as_str(), "(" | "," | "&")
                            {
                                if let Some(callee) = call_of_arg(toks, k) {
                                    push(
                                        "cross-fn-span",
                                        tk.line,
                                        format!(
                                            "profile guard `{name}` passed to `{callee}`: \
                                             scopes must open and close in the same function; \
                                             end `{name}` here and open a child scope inside \
                                             `{callee}`"
                                        ),
                                    );
                                    break;
                                }
                            }
                            k += 1;
                        }
                    }
                }
            }
        }

        if print_hygiene_scope(path)
            && t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "println" | "print" | "eprintln" | "eprint" | "dbg")
            && matches_at(toks, i + 1, &[Pat::P('!')])
        {
            push(
                "print-hygiene",
                line,
                format!(
                    "`{}!` in a library crate: route output through the telemetry bus \
                     (only cli and bench own stdout/stderr)",
                    t.text
                ),
            );
        }
    }
    out
}
