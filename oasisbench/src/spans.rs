//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the calls the benchmark itself makes
//! into a layer's public functions; nothing inside the simulator is
//! instrumented. Every span lives on the benchmark's main thread (the
//! worker pool's threads are inside the measured call), so siblings
//! never overlap and a span's self time is its duration minus the sum
//! of its direct children's durations.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `cluster.run_day`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Task the span belongs to (probe spans use ids past the loop's).
    pub task: u64,
    /// Units of work the call did (host-intervals, faults, bytes…), for
    /// per-unit rates; 0 when the span has no natural unit.
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (`None` while tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Collects spans when enabled; every call is a no-op when disabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Switches recording on or off; open spans are unaffected.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &str, task: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            task,
            work: 0,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id`, recording `work` units done inside it.
    pub fn close(&mut self, id: SpanId, work: u64) {
        let Some(index) = id.0 else { return };
        let end = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.work = work;
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
    }

    /// Runs `f` inside a span of its own and returns its result.
    pub fn time<R>(&mut self, name: &str, task: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, task);
        let out = f();
        self.close(id, 0);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// `(Σ duration ns, Σ work)` over every span called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, work), s| (ns + s.ns(), work + s.work))
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.ns());
            }
        }
        own
    }

    /// Per-name `(name, calls, total ns, self ns)`, in first-seen order.
    pub fn summary(&self) -> Vec<(String, u64, u64, u64)> {
        let own = self.self_ns();
        let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.ns();
                    row.3 += self_ns;
                }
                None => rows.push((span.name.clone(), 1, span.ns(), self_ns)),
            }
        }
        rows
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut text = String::new();
        for (i, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{parent},\"task\":{},\"work\":{}}}",
                span.name, span.start_ns, span.end_ns, span.task, span.work
            )
            .expect("writing to a String cannot fail");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        let root = t.open("task", 0);
        let child = t.open("child", 0);
        let grandchild = t.open("grandchild", 0);
        t.close(grandchild, 0);
        t.close(child, 3);
        t.close(root, 0);
        let own = t.self_ns();
        let s = t.spans();
        assert_eq!(own[0], s[0].ns() - s[1].ns());
        assert_eq!(own[1], s[1].ns() - s[2].ns());
        assert_eq!(own[2], s[2].ns());
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(t.totals("child").1, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("task", 0);
        assert_eq!(t.time("leaf", 0, || 7), 7);
        t.close(id, 1);
        assert!(t.spans().is_empty());
    }
}
