//! Statistics, provenance and the result line.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string (`ms`, `1/s`, `count`, …).
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of ascending `sorted`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (which must be non-empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// A tail percentile together with how many samples lie beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The percentile (e.g. 95.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above the value.
    pub beyond: usize,
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile at or below `preferred` with at least ten
/// samples beyond it. Each workload prefers the rung its task count
/// normally supports, so the reported percentile stays the same from
/// run to run; a run that finishes far fewer tasks steps down a rung
/// rather than reporting a tail no sample supports. Below 20 samples
/// even the median lacks ten beyond; the median is reported then, with
/// its `beyond` count showing how thin it is. `values` must be non-empty.
pub fn tail(values: &[f64], preferred: f64) -> Tail {
    let s = sorted(values);
    let at = |pct: f64| {
        let value = quantile(&s, pct / 100.0);
        Tail { pct, value, beyond: s.iter().filter(|&&x| x > value).count() }
    };
    TAIL_LADDER
        .iter()
        .filter(|&&p| p <= preferred)
        .map(|&pct| at(pct))
        .find(|t| t.beyond >= 10)
        .unwrap_or_else(|| at(50.0))
}

/// The process's peak resident set (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kib * 1024.0 / 1e6)
}

/// Escapes `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The JSON result line: the last line of stdout.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Where and how a result was measured.
pub struct Provenance {
    fields: Vec<(&'static str, String)>,
}

impl Provenance {
    /// Collects the machine, toolchain and source identity. `root` is the
    /// repository checkout the benchmark was built from.
    pub fn collect(root: &Path, workers: usize, nproc: usize) -> Provenance {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown".to_string(), |m| m.trim().to_string());
        let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
        let memory = meminfo
            .lines()
            .find(|l| l.starts_with("MemTotal:"))
            .map_or("unknown".to_string(), |l| l["MemTotal:".len()..].trim().to_string());
        // Only ask git inside a git checkout: git would otherwise report
        // whatever repository encloses the directory.
        let commit = root
            .join(".git")
            .exists()
            .then(|| command_line(root, "git", &["rev-parse", "HEAD"]))
            .flatten()
            .unwrap_or_else(|| "none (not a git checkout)".to_string());
        let profile =
            if cfg!(debug_assertions) { "debug" } else { "release (lto=thin, codegen-units=1)" };
        Provenance {
            fields: vec![
                ("nproc", nproc.to_string()),
                ("workers", workers.to_string()),
                ("cpu", cpu),
                ("memory", memory),
                ("rustc", command_line(root, "rustc", &["-V"]).unwrap_or("unknown".to_string())),
                ("commit", commit),
                ("source_fnv64", format!("{:016x}", source_digest(root))),
                ("profile", profile.to_string()),
            ],
        }
    }

    /// Adds a field.
    pub fn with(mut self, key: &'static str, value: String) -> Provenance {
        self.fields.push((key, value));
        self
    }

    /// One JSON object holding every field.
    pub fn to_json(&self) -> String {
        let body: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// First stdout line of `program args` run in `dir`, if it succeeds.
fn command_line(dir: &Path, program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string()).filter(|l| !l.is_empty())
}

/// FNV-1a over the simulator's sources (every file under `crates/` and
/// `src/`, plus the root manifest and lock file, in path order), so a
/// result names the code it measured even outside a git checkout.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            feed(file.strip_prefix(root).unwrap_or(&file).to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    hash
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 95.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.beyond, 10);
        let thin = tail(&v[..15], 95.0);
        assert_eq!((thin.pct, thin.beyond), (50.0, 7));
    }

    #[test]
    fn result_line_has_the_required_keys() {
        let line = result_json(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
