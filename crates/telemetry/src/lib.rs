//! Structured event tracing, metrics and call-tree profiling for the
//! Oasis stack.
//!
//! Three pillars, one handle:
//!
//! * **Event bus** — typed, [`SimTime`]-stamped [`Event`]s flow through a
//!   level filter to any number of [`Subscriber`]s ([`JsonlSink`] for
//!   files, [`RingSink`] for tests). Events carry no wall-clock data, so
//!   a fixed-seed run produces a byte-identical stream every time.
//! * **Metrics registry** — labeled [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s behind lock-cheap handles, exportable as
//!   Prometheus text or JSON ([`Metrics`]).
//! * **Call-tree profiling** — scope guards ([`ProfileScope`]) that
//!   nest into one [`ProfileTree`] of call counts and simulated and
//!   wall-clock time: the stack's only in-simulator timer.
//!
//! The [`Telemetry`] handle is `Clone` (shared `Arc` core) and threads
//! through constructors; [`Telemetry::disabled`] is a near-free no-op for
//! code paths that don't care.
//!
//! ```
//! use oasis_telemetry::{Event, Level, RingSink, Telemetry};
//! use oasis_sim::SimTime;
//!
//! let tel = Telemetry::new(Level::Info);
//! let ring = RingSink::new(16);
//! tel.attach(Box::new(ring.clone()));
//!
//! tel.advance_to(SimTime::from_secs(60));
//! tel.emit(Event::HostSuspended { host: 3 });
//! assert_eq!(ring.snapshot()[0].event, Event::HostSuspended { host: 3 });
//! ```

#![warn(missing_docs)]

pub mod attribution;
pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod subscriber;

pub use attribution::{EnergyLedger, HostEnergy, QuiescenceLedger, VmEnergy};
pub use event::{
    DecisionClass, Event, EventRecord, FaultClass, Level, MigrationKind, RecoveryKind, CLUSTER_WIDE,
};
pub use metrics::{Counter, Gauge, Histogram, Metrics};
pub use profile::{FoldedMetric, ProfileNode, ProfileScope, ProfileTree, Profiler};
pub use subscriber::{BufferSink, JsonlSink, RingSink, Subscriber};

use oasis_sim::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The telemetry handle: event bus + metrics registry + logical clock.
///
/// Cloning is cheap and all clones share state.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

struct Inner {
    level: Level,
    seq: AtomicU64,
    decision_seq: AtomicU64,
    now_us: AtomicU64,
    subscribers: Mutex<Vec<Box<dyn Subscriber>>>,
    metrics: Metrics,
    profiler: Profiler,
}

impl Inner {
    fn with_level(level: Level) -> Self {
        let metrics = Metrics::new();
        metrics.describe("telemetry_events_total", "Events that passed the level filter, by kind.");
        Inner {
            level,
            seq: AtomicU64::new(0),
            decision_seq: AtomicU64::new(0),
            now_us: AtomicU64::new(0),
            subscribers: Mutex::new(Vec::new()),
            metrics,
            profiler: Profiler::new(level != Level::Off),
        }
    }
}

impl Default for Inner {
    fn default() -> Self {
        Inner::with_level(Level::Off)
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("level", &self.inner.level)
            .field("events", &self.inner.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl Telemetry {
    /// Creates an enabled bus filtering at `level`, with no subscribers.
    pub fn new(level: Level) -> Self {
        Telemetry { inner: Arc::new(Inner::with_level(level)) }
    }

    /// Creates a disabled bus: events vanish, profiler scopes and
    /// instruments are no-ops. This is the default wherever telemetry
    /// threads through.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// True unless the filter level is [`Level::Off`].
    pub fn is_enabled(&self) -> bool {
        self.inner.level != Level::Off
    }

    /// The configured filter level.
    pub fn level(&self) -> Level {
        self.inner.level
    }

    /// Registers a subscriber; it receives every event that passes the
    /// level filter from now on.
    pub fn attach(&self, sub: Box<dyn Subscriber>) {
        self.inner.subscribers.lock().unwrap().push(sub);
    }

    /// Advances the logical clock to `t` (monotonic: earlier values are
    /// ignored). Simulation drivers call this as simulated time advances
    /// so that components without a clock of their own can still emit
    /// correctly-stamped events via [`Telemetry::emit`].
    pub fn advance_to(&self, t: SimTime) {
        self.inner.now_us.fetch_max(t.as_micros(), Ordering::Relaxed);
    }

    /// Current logical clock reading.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.inner.now_us.load(Ordering::Relaxed))
    }

    /// Emits `event` stamped with the logical clock.
    pub fn emit(&self, event: Event) {
        // Fast path for filtered events: stamping with `now()` and then
        // advancing the clock to that same reading is a no-op, so a
        // level-filtered emit can return before touching the clock
        // atomics at all. This keeps disabled-telemetry simulation runs
        // free of per-event synchronization.
        if !self.inner.level.allows(event.level()) {
            return;
        }
        self.emit_at(self.now(), event);
    }

    /// Emits `event` stamped with an explicit time, which also advances
    /// the logical clock.
    pub fn emit_at(&self, time: SimTime, event: Event) {
        self.advance_to(time);
        if !self.inner.level.allows(event.level()) {
            return;
        }
        self.inner.metrics.counter("telemetry_events_total", &[("kind", event.kind())]).inc();
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let record = EventRecord { time, seq, event };
        for sub in self.inner.subscribers.lock().unwrap().iter_mut() {
            sub.record(&record);
        }
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Starts a hierarchical profiler scope named `name`; it nests under
    /// the scope that is live when it starts and closes on drop.
    pub fn profile(&self, name: &'static str) -> ProfileScope {
        ProfileScope::start(self, name)
    }

    /// The call-tree profiler attached to this bus (disabled when the
    /// bus is disabled).
    pub fn profiler(&self) -> &Profiler {
        &self.inner.profiler
    }

    /// Allocates the next planner/recovery decision id.
    ///
    /// Ids are allocated unconditionally (even on a disabled bus) so a
    /// run's decision numbering does not depend on whether tracing is
    /// attached — the byte-identical-per-seed guarantee extends to the
    /// audit trail.
    pub fn next_decision_id(&self) -> u64 {
        self.inner.decision_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Flushes every subscriber (e.g. buffered file sinks).
    pub fn flush(&self) {
        for sub in self.inner.subscribers.lock().unwrap().iter_mut() {
            sub.flush();
        }
    }

    /// Snapshot of event counts, for attaching to simulation reports.
    pub fn summary(&self) -> TelemetrySummary {
        let m = self.metrics();
        let events_by_kind: Vec<(String, u64)> = m
            .counters_with_name("telemetry_events_total")
            .into_iter()
            .map(|(labels, v)| {
                let kind = labels
                    .iter()
                    .find(|(k, _)| k == "kind")
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default();
                (kind, v)
            })
            .collect();
        let events_total = events_by_kind.iter().map(|(_, v)| v).sum();
        TelemetrySummary { events_total, events_by_kind }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        for sub in self.subscribers.get_mut().unwrap().iter_mut() {
            sub.flush();
        }
    }
}

/// Event counts captured at the end of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Events that passed the filter, all kinds.
    pub events_total: u64,
    /// Per-kind event counts, sorted by kind.
    pub events_by_kind: Vec<(String, u64)>,
}

impl std::fmt::Display for TelemetrySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "telemetry: {} events", self.events_total)?;
        for (kind, n) in &self.events_by_kind {
            writeln!(f, "  event {kind:<24} {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bus_drops_everything() {
        let tel = Telemetry::disabled();
        let ring = RingSink::new(8);
        tel.attach(Box::new(ring.clone()));
        tel.emit(Event::HostSuspended { host: 1 });
        assert!(ring.is_empty());
        assert_eq!(tel.summary().events_total, 0);
    }

    #[test]
    fn level_filter_applies_per_event() {
        let tel = Telemetry::new(Level::Info);
        let ring = RingSink::new(8);
        tel.attach(Box::new(ring.clone()));
        tel.emit(Event::HostSuspended { host: 1 }); // info: passes
        tel.emit(Event::PageFaultFetched { vm: 1, page: 2 }); // debug: dropped
        tel.emit(Event::WolRetry { host: 1, attempt: 1 }); // warn: passes
        assert_eq!(ring.len(), 2);
        let summary = tel.summary();
        assert_eq!(summary.events_total, 2);
        assert!(summary.events_by_kind.iter().any(|(k, n)| k == "wol_retry" && *n == 1));
    }

    #[test]
    fn sequence_numbers_and_clock_are_monotonic() {
        let tel = Telemetry::new(Level::Debug);
        let ring = RingSink::new(8);
        tel.attach(Box::new(ring.clone()));
        tel.emit_at(SimTime::from_secs(5), Event::HostSuspended { host: 1 });
        tel.emit(Event::HostResumed { host: 1 });
        tel.emit_at(SimTime::from_secs(2), Event::HostSuspended { host: 2 });
        let snap = ring.snapshot();
        assert_eq!(snap.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        // The logical clock never runs backwards.
        assert_eq!(snap[1].time, SimTime::from_secs(5));
        assert_eq!(tel.now(), SimTime::from_secs(5));
    }
}
