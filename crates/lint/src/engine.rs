//! The analysis driver: test-region detection, pragma suppression, the
//! parallel workspace walker, and the two-phase analysis pipeline.
//!
//! **Phase A** is per-file and pure — lex, match per-site rules, parse
//! function/call structure, apply pragmas — so it fans out across
//! `oasis_sim::pool::WorkerPool` workers and caches by content hash
//! ([`crate::cache`]). **Phase B** is global and cheap: it assembles the
//! workspace call graph ([`crate::graph`]), runs the determinism taint
//! analysis ([`crate::taint`]), and settles pragma health that needs
//! whole-workspace knowledge (boundary usage, `allow(determinism-taint)`
//! staleness). Findings are fully sorted at the end, so output is
//! byte-identical for any job count and any cache state.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use oasis_sim::pool::WorkerPool;

use crate::cache;
use crate::fix::Fix;
use crate::graph;
use crate::lexer::{lex, Lexed, PragmaParse, Tok, TokKind};
use crate::parse::{self, FileRecord, TaintKind};
use crate::rules::{self, is_known_rule};
use crate::taint;
use crate::Finding;

/// Directory names the walker never descends into.
const SKIP_DIRS: [&str; 2] = ["target", ".git"];

/// Workspace-relative prefix holding deliberate rule violations for the
/// lint's own tests; the walker must not lint them.
const FIXTURES_PREFIX: &str = "crates/lint/tests/fixtures";

/// A boundary pragma must sit within this many lines above its `fn`
/// (attributes and doc comments in between are fine).
const BOUNDARY_ATTACH_WINDOW: u32 = 16;

/// Driver options for a workspace analysis.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Worker count for the per-file phase; `None` falls back to
    /// `OASIS_JOBS` and then the machine's available parallelism.
    pub jobs: Option<usize>,
    /// Incremental cache file; `None` disables caching.
    pub cache: Option<PathBuf>,
}

/// Result of linting a file tree.
#[derive(Debug, Default)]
pub struct Report {
    /// All unsuppressed findings, sorted by (file, line, rule, message).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files examined.
    pub checked_files: usize,
    /// Files whose per-file analysis was reused from the cache. Kept out
    /// of every serialized output so warm and cold runs stay
    /// byte-identical.
    pub cache_hits: usize,
    /// Machine-applicable edits for `--fix`, sorted by (file, line).
    pub fixes: Vec<Fix>,
}

impl Report {
    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                crate::json_escape(&f.file),
                f.line,
                crate::json_escape(&f.rule),
                crate::json_escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str(&format!(
            "],\n  \"checked_files\": {},\n  \"clean\": {}\n}}\n",
            self.checked_files,
            self.findings.is_empty()
        ));
        s
    }
}

/// A `boundary(<rule>, "...")` pragma recorded for phase-B health checks.
#[derive(Clone, Debug)]
pub struct BoundaryRec {
    /// 1-based line of the pragma comment.
    pub line: u32,
    /// Rule (or taint-kind) id the boundary names.
    pub rule: String,
    /// Index of the attached function in the file's records.
    pub fn_idx: Option<usize>,
    /// Whether the boundary suppressed a per-site finding in phase A.
    pub used_local: bool,
    /// Raw comment text for `--fix` removal edits.
    pub raw: String,
}

/// An `allow(determinism-taint, "...")` pragma: its staleness can only
/// be judged after the workspace taint pass, so phase A defers it.
#[derive(Clone, Debug)]
pub struct DeferredAllow {
    /// 1-based line of the pragma comment.
    pub line: u32,
    /// Always `determinism-taint` today; kept for forward compatibility.
    pub rule: String,
    /// Raw comment text for `--fix` removal edits.
    pub raw: String,
}

/// The cacheable result of the per-file phase.
#[derive(Clone, Debug, Default)]
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub rel: String,
    /// FNV-1a hash of the file bytes (cache key).
    pub hash: u64,
    /// Per-site findings after suppression, sorted by (line, rule).
    pub findings: Vec<Finding>,
    /// Per-site fixes (stale allows, print hygiene).
    pub fixes: Vec<Fix>,
    /// Parsed non-test functions (graph/taint input).
    pub record: FileRecord,
    /// Boundary pragmas awaiting phase-B usage judgment.
    pub boundaries: Vec<BoundaryRec>,
    /// `allow(determinism-taint)` pragmas awaiting phase B.
    pub deferred_allows: Vec<DeferredAllow>,
}

/// `true` if every token of the file is test-context by virtue of its
/// path: integration tests, benches and examples never run in production.
fn path_is_test_context(path: &str) -> bool {
    let test_dir =
        |p: &str, d: &str| p.starts_with(&format!("{d}/")) || p.contains(&format!("/{d}/"));
    test_dir(path, "tests") || test_dir(path, "benches") || test_dir(path, "examples")
}

/// An inclusive line range of a `#[cfg(test)]` / `#[test]` region.
#[derive(Clone, Copy, Debug)]
pub struct TestRegion {
    /// First line of the region (the attribute's line).
    pub start: u32,
    /// Last line of the region.
    pub end: u32,
}

/// Computes a per-token test mask plus the line ranges of test regions.
///
/// A test region is a `#[cfg(test)]` or `#[test]` attribute together with
/// the item that follows it — up to the matching close brace of its body,
/// or the terminating semicolon for brace-less items.
fn test_regions(toks: &[Tok], all_test: bool) -> (Vec<bool>, Vec<TestRegion>) {
    let n = toks.len();
    if all_test {
        let end = toks.last().map(|t| t.line).unwrap_or(1);
        return (vec![true; n], vec![TestRegion { start: 1, end }]);
    }
    let mut mask = vec![false; n];
    let mut regions = Vec::new();

    let is_p = |t: &Tok, c: char| t.kind == TokKind::Punct && t.text.starts_with(c);
    let is_id = |t: &Tok, s: &str| t.kind == TokKind::Ident && t.text == s;

    // Returns the index one past the attribute's closing `]`, or None.
    let attr_end = |start: usize| -> Option<usize> {
        let mut depth = 0usize;
        for (off, t) in toks[start..].iter().enumerate() {
            if is_p(t, '[') {
                depth += 1;
            } else if is_p(t, ']') {
                depth -= 1;
                if depth == 0 {
                    return Some(start + off + 1);
                }
            }
        }
        None
    };

    let mut i = 0usize;
    while i < n {
        if !(is_p(&toks[i], '#') && i + 1 < n && is_p(&toks[i + 1], '[')) {
            i += 1;
            continue;
        }
        let Some(end) = attr_end(i + 1) else { break };
        let inner = &toks[i + 2..end - 1];
        // `#[test]` or `#[cfg(test)]` (exactly — `cfg(not(test))` stays).
        let is_test_attr = (inner.len() == 1 && is_id(&inner[0], "test"))
            || (inner.len() == 4
                && is_id(&inner[0], "cfg")
                && is_p(&inner[1], '(')
                && is_id(&inner[2], "test")
                && is_p(&inner[3], ')'));
        if !is_test_attr {
            i = end;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = end;
        while j + 1 < n && is_p(&toks[j], '#') && is_p(&toks[j + 1], '[') {
            match attr_end(j + 1) {
                Some(e) => j = e,
                None => break,
            }
        }
        // Find the item's extent: matching braces of its body, or `;`.
        let mut k = j;
        let mut close = n.saturating_sub(1);
        while k < n {
            if is_p(&toks[k], ';') {
                close = k;
                break;
            }
            if is_p(&toks[k], '{') {
                let mut depth = 0usize;
                while k < n {
                    if is_p(&toks[k], '{') {
                        depth += 1;
                    } else if is_p(&toks[k], '}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                close = k.min(n - 1);
                break;
            }
            k += 1;
            if k == n {
                close = n - 1;
            }
        }
        for m in mask.iter_mut().take(close + 1).skip(i) {
            *m = true;
        }
        regions.push(TestRegion { start: toks[i].line, end: toks[close].line });
        i = close + 1;
    }
    (mask, regions)
}

/// Computes a print-hygiene fix for the source line, if the offending
/// macro sits there in a statement-shaped position. Longest names first:
/// `eprintln!` contains `println!` as a substring.
fn print_fix(line_text: &str) -> Option<(String, String)> {
    if line_text.contains("dbg!") {
        return Some(("dbg!".to_string(), String::new()));
    }
    for name in ["eprintln", "println", "eprint", "print"] {
        let bare = format!("{name}!()");
        if line_text.contains(&bare) {
            // No arguments: the macro only emits a newline; `()` is the
            // same `()`-typed expression without the I/O.
            return Some((bare, "()".to_string()));
        }
        let mac = format!("{name}!");
        if line_text.contains(&mac) {
            return Some((mac, "let _ = format!".to_string()));
        }
    }
    None
}

/// Runs the per-file phase: lex, per-site rules, structure parsing, and
/// pragma application. Pure in `(rel, src)` — the cache contract.
pub fn analyze_file(rel: &str, src: &str) -> FileAnalysis {
    let Lexed { tokens, pragmas } = lex(src);
    let all_test = path_is_test_context(rel);
    let (mask, regions) = test_regions(&tokens, all_test);
    let in_test_region =
        |line: u32| all_test || regions.iter().any(|r| line >= r.start && line <= r.end);

    let mut analysis = FileAnalysis {
        rel: rel.to_string(),
        hash: cache::content_hash(src.as_bytes()),
        record: FileRecord { rel: rel.to_string(), fns: parse::parse_file(&tokens, &mask) },
        ..FileAnalysis::default()
    };
    let mut findings = Vec::new();

    let mut raw = rules::check_file(rel, &tokens, &mask);
    // Collapse duplicate matches of the same rule on the same line (the
    // unit-safety patterns overlap by construction).
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    raw.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);

    // Boundary pragmas attach to the next function declaration.
    for p in &pragmas {
        let PragmaParse::Boundary { rule, .. } = &p.parse else { continue };
        if in_test_region(p.line) {
            continue;
        }
        if !is_known_rule(rule) {
            findings.push(Finding {
                file: rel.to_string(),
                line: p.line,
                rule: "unknown-rule".to_string(),
                message: format!(
                    "boundary pragma names unknown rule `{rule}`; known rules: {}",
                    rules::RULES.map(|r| r.id).join(", ")
                ),
            });
            continue;
        }
        let attached = analysis
            .record
            .fns
            .iter()
            .position(|f| f.line >= p.line && f.line - p.line <= BOUNDARY_ATTACH_WINDOW);
        match attached {
            Some(idx) => {
                if let Some(kind) = TaintKind::from_rule(rule) {
                    analysis.record.fns[idx].boundary_kinds[kind.index()] = true;
                }
                analysis.boundaries.push(BoundaryRec {
                    line: p.line,
                    rule: rule.clone(),
                    fn_idx: Some(idx),
                    used_local: false,
                    raw: p.raw.clone(),
                });
            }
            None => findings.push(Finding {
                file: rel.to_string(),
                line: p.line,
                rule: "malformed-pragma".to_string(),
                message: format!(
                    "boundary pragma for `{rule}` must sit directly above the function it \
                     justifies (no fn within {BOUNDARY_ATTACH_WINDOW} lines)"
                ),
            }),
        }
    }

    // Suppression: a line-scoped `allow` on the finding's line or the
    // line above, or a function-scoped `boundary` whose fn contains it.
    let mut used = vec![false; pragmas.len()];
    for f in raw {
        let allow = pragmas.iter().enumerate().find(|(_, p)| {
            matches!(&p.parse, PragmaParse::Allow { rule, .. }
                if rule == f.rule && (p.line == f.line || p.line + 1 == f.line))
        });
        if let Some((pi, _)) = allow {
            used[pi] = true;
            continue;
        }
        let boundary = analysis.boundaries.iter_mut().find(|b| {
            b.rule == f.rule
                && b.fn_idx.is_some_and(|idx| {
                    let d = &analysis.record.fns[idx];
                    f.line >= d.line && f.line <= d.end_line
                })
        });
        if let Some(b) = boundary {
            b.used_local = true;
            continue;
        }
        findings.push(Finding {
            file: rel.to_string(),
            line: f.line,
            rule: f.rule.to_string(),
            message: f.message,
        });
    }

    // A used per-site allow also excuses the taint source on its line:
    // the author has justified that exact site, so it must not re-fire
    // transitively at every caller.
    let allowed_sites: Vec<(u32, TaintKind)> = pragmas
        .iter()
        .enumerate()
        .filter(|(pi, _)| used[*pi])
        .filter_map(|(_, p)| match &p.parse {
            PragmaParse::Allow { rule, .. } => TaintKind::from_rule(rule).map(|k| (p.line, k)),
            _ => None,
        })
        .collect();
    for d in &mut analysis.record.fns {
        for s in &mut d.sources {
            if allowed_sites.iter().any(|&(l, k)| k == s.kind && (l == s.line || l + 1 == s.line)) {
                s.allowed = true;
            }
        }
    }

    // Pragma health: malformed, unknown-rule and stale pragmas are
    // findings themselves, so suppressions can never rot silently.
    // (`allow(determinism-taint)` staleness needs the workspace taint
    // pass and is deferred; boundary staleness likewise.)
    for (pi, p) in pragmas.iter().enumerate() {
        if in_test_region(p.line) {
            continue;
        }
        match &p.parse {
            PragmaParse::Malformed(why) => findings.push(Finding {
                file: rel.to_string(),
                line: p.line,
                rule: "malformed-pragma".to_string(),
                message: format!("malformed oasis-lint pragma: {why}"),
            }),
            PragmaParse::Allow { rule, .. } if !is_known_rule(rule) => findings.push(Finding {
                file: rel.to_string(),
                line: p.line,
                rule: "unknown-rule".to_string(),
                message: format!(
                    "pragma names unknown rule `{rule}`; known rules: {}",
                    rules::RULES.map(|r| r.id).join(", ")
                ),
            }),
            PragmaParse::Allow { rule, .. } if rule == "determinism-taint" && !used[pi] => {
                analysis.deferred_allows.push(DeferredAllow {
                    line: p.line,
                    rule: rule.clone(),
                    raw: p.raw.clone(),
                });
            }
            PragmaParse::Allow { rule, .. } if !used[pi] => {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: p.line,
                    rule: "unused-pragma".to_string(),
                    message: format!(
                        "suppression for `{rule}` matched no finding on this or the next line; \
                         remove the stale pragma"
                    ),
                });
                analysis.fixes.push(Fix {
                    file: rel.to_string(),
                    line: p.line,
                    rule: "unused-pragma".to_string(),
                    find: p.raw.clone(),
                    replace: String::new(),
                });
            }
            PragmaParse::Allow { .. } | PragmaParse::Boundary { .. } => {}
        }
    }

    // Print-hygiene fixes are textual and safe: attach one per finding
    // whose line contains a recognizable macro.
    let lines: Vec<&str> = src.lines().collect();
    for f in &findings {
        if f.rule != "print-hygiene" {
            continue;
        }
        let Some(text) = lines.get(f.line as usize - 1) else { continue };
        if let Some((find, replace)) = print_fix(text) {
            analysis.fixes.push(Fix {
                file: rel.to_string(),
                line: f.line,
                rule: "print-hygiene".to_string(),
                find,
                replace,
            });
        }
    }

    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    analysis.fixes.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    analysis.findings = findings;
    analysis
}

/// Phase B: the global pass over all per-file analyses (which must be
/// sorted by `rel`). Returns workspace-level findings and fixes.
fn global_pass(files: &mut [FileAnalysis]) -> (Vec<Finding>, Vec<Fix>) {
    let records: Vec<FileRecord> = files.iter().map(|a| a.record.clone()).collect();
    let g = graph::build(&records);
    let t = taint::analyze(&records, &g);

    let mut findings = Vec::new();
    let mut fixes = Vec::new();

    // Taint findings, minus those excused by `allow(determinism-taint)`.
    let mut deferred_used: Vec<Vec<bool>> =
        files.iter().map(|a| vec![false; a.deferred_allows.len()]).collect();
    for f in taint::findings(&records, &g, &t) {
        let fi = files.binary_search_by(|a| a.rel.as_str().cmp(&f.file)).ok();
        let excused = fi.and_then(|fi| {
            files[fi]
                .deferred_allows
                .iter()
                .position(|p| p.line == f.line || p.line + 1 == f.line)
                .map(|pi| (fi, pi))
        });
        match excused {
            Some((fi, pi)) => deferred_used[fi][pi] = true,
            None => findings.push(f),
        }
    }
    for (fi, a) in files.iter().enumerate() {
        for (pi, p) in a.deferred_allows.iter().enumerate() {
            if deferred_used[fi][pi] {
                continue;
            }
            findings.push(Finding {
                file: a.rel.clone(),
                line: p.line,
                rule: "unused-pragma".to_string(),
                message: format!(
                    "suppression for `{}` matched no taint finding on this or the next line; \
                     remove the stale pragma",
                    p.rule
                ),
            });
            fixes.push(Fix {
                file: a.rel.clone(),
                line: p.line,
                rule: "unused-pragma".to_string(),
                find: p.raw.clone(),
                replace: String::new(),
            });
        }
    }

    // Boundary health: a boundary is earning its keep if it suppressed a
    // per-site finding in its function, or if taint of its kind would
    // reach the function (i.e. the boundary blocks something real).
    let node_of = |fi: usize, ki: usize| -> Option<usize> {
        g.fns.iter().position(|&(f, k)| (f, k) == (fi, ki))
    };
    for (fi, a) in files.iter().enumerate() {
        for b in &a.boundaries {
            let mut useful = b.used_local;
            if !useful {
                if let (Some(kind), Some(ki)) = (TaintKind::from_rule(&b.rule), b.fn_idx) {
                    if let Some(node) = node_of(fi, ki) {
                        useful = t.boundary_blocks(node, kind);
                    }
                }
            }
            if useful {
                continue;
            }
            let fn_name = b
                .fn_idx
                .and_then(|ki| a.record.fns.get(ki))
                .map(|d| d.name.clone())
                .unwrap_or_default();
            findings.push(Finding {
                file: a.rel.clone(),
                line: b.line,
                rule: "unused-pragma".to_string(),
                message: format!(
                    "boundary for `{}` on fn `{fn_name}` neither suppressed a finding nor \
                     blocked any reaching taint; remove the stale pragma",
                    b.rule
                ),
            });
            fixes.push(Fix {
                file: a.rel.clone(),
                line: b.line,
                rule: "unused-pragma".to_string(),
                find: b.raw.clone(),
                replace: String::new(),
            });
        }
    }

    (findings, fixes)
}

/// Assembles the final report from sorted per-file analyses.
fn finish(mut analyses: Vec<FileAnalysis>, cache_hits: usize) -> Report {
    let (global_findings, global_fixes) = global_pass(&mut analyses);
    let mut report = Report { checked_files: analyses.len(), cache_hits, ..Report::default() };
    for a in &mut analyses {
        report.findings.append(&mut a.findings);
        report.fixes.append(&mut a.fixes);
    }
    report.findings.extend(global_findings);
    report.fixes.extend(global_fixes);
    report.findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    report.fixes.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.find).cmp(&(&b.file, b.line, &b.rule, &b.find))
    });
    report
}

/// Analyzes a set of in-memory sources as one workspace (fixture and
/// test surface; order of the input list does not matter).
pub fn analyze_sources(files: &[(&str, &str)]) -> Report {
    let mut analyses: Vec<FileAnalysis> = files.iter().map(|(p, s)| analyze_file(p, s)).collect();
    analyses.sort_by(|a, b| a.rel.cmp(&b.rel));
    finish(analyses, 0)
}

/// Renders the deterministic call-graph dump for a set of in-memory
/// sources (golden-file surface for the graph builder).
pub fn graph_dump(files: &[(&str, &str)]) -> String {
    let mut analyses: Vec<FileAnalysis> = files.iter().map(|(p, s)| analyze_file(p, s)).collect();
    analyses.sort_by(|a, b| a.rel.cmp(&b.rel));
    let records: Vec<FileRecord> = analyses.iter().map(|a| a.record.clone()).collect();
    graph::dump(&records, &graph::build(&records))
}

/// Lints one source file given its workspace-relative path and contents.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    analyze_sources(&[(path, src)]).findings
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            let rel = rel_path(root, &path);
            // A nested `[workspace]` (e.g. a benchmark harness with its
            // own Cargo.lock) is a separate Cargo workspace, not ours.
            if rel.starts_with(FIXTURES_PREFIX) || declares_workspace(&path) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints every `.rs` file under `root` with default options (sequential
/// fallback via the pool's env sizing, no cache).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    analyze_workspace(root, &Options::default())
}

/// Lints every `.rs` file under `root` (skipping build output, VCS state,
/// the lint fixtures and nested Cargo workspaces). The per-file phase
/// runs on a worker pool and consults the content-hash cache; output is
/// byte-identical for any `jobs` value and any cache state.
pub fn analyze_workspace(root: &Path, opts: &Options) -> io::Result<Report> {
    let root = root.canonicalize()?;
    let mut files = Vec::new();
    collect_rs_files(&root, &root, &mut files)?;
    files.sort();

    let cached = opts.cache.as_deref().map(cache::load).unwrap_or_default();
    let pool = match opts.jobs {
        Some(j) => WorkerPool::new(j),
        None => WorkerPool::from_env(),
    };
    let inputs: Vec<(String, PathBuf)> =
        files.into_iter().map(|f| (rel_path(&root, &f), f)).collect();
    let results: Vec<Result<(FileAnalysis, bool), String>> = pool.map(inputs, |(rel, path)| {
        let src = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let hash = cache::content_hash(src.as_bytes());
        if let Some(hit) = cached.get(&rel) {
            if hit.hash == hash {
                return Ok((hit.clone(), true));
            }
        }
        Ok((analyze_file(&rel, &src), false))
    });

    let mut analyses = Vec::with_capacity(results.len());
    let mut cache_hits = 0usize;
    for r in results {
        let (a, hit) = r.map_err(io::Error::other)?;
        cache_hits += usize::from(hit);
        analyses.push(a);
    }
    if let Some(cp) = &opts.cache {
        cache::store(cp, &analyses);
    }
    Ok(finish(analyses, cache_hits))
}

/// Lints an explicit list of files, reporting paths relative to `root`.
pub fn lint_files(root: &Path, files: &[PathBuf]) -> io::Result<Report> {
    let mut analyses = Vec::with_capacity(files.len());
    for file in files {
        let src = fs::read_to_string(file)?;
        analyses.push(analyze_file(&rel_path(root, file), &src));
    }
    analyses.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(finish(analyses, 0))
}

/// Finds the workspace root by walking up from `start` until a
/// `Cargo.toml` declaring `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.canonicalize().ok()?;
    loop {
        if declares_workspace(&dir) {
            return Some(dir);
        }
        dir = dir.parent()?.to_path_buf();
    }
}

/// `true` when `dir/Cargo.toml` has a `[workspace]` table, i.e. `dir` is
/// the root of a Cargo workspace.
fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|text| text.lines().any(|l| l.trim() == "[workspace]"))
}
