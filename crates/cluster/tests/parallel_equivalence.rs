//! Equivalence tests for the parallel experiment engine: for fixed
//! seeds, fanning runs across a worker pool must produce output
//! byte-identical to the sequential path — including under an injected
//! fault schedule, and including the telemetry streams when per-worker
//! [`BufferSink`]s are replayed in input order.
//!
//! Results are compared through their derived `Debug` rendering, which
//! prints floats with round-trip precision: two reports render the same
//! bytes iff every field is bit-identical.

use std::io::Write;
use std::sync::{Arc, Mutex};

use oasis_cluster::experiments::{figure8_at, run_week_on, table3_at, Scale};
use oasis_cluster::{ClusterConfig, ClusterSim};
use oasis_core::PolicyKind;
use oasis_faults::{FaultProfile, FaultSchedule};
use oasis_sim::{SimDuration, WorkerPool};
use oasis_telemetry::{BufferSink, JsonlSink, Level, Subscriber, Telemetry};
use oasis_trace::DayKind;

/// A `Write` handle over a shared buffer, so the test can read back what
/// the boxed sink wrote.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn small_config(seed: u64) -> ClusterConfig {
    ClusterConfig::builder()
        .home_hosts(6)
        .consolidation_hosts(2)
        .vms_per_host(10)
        .policy(PolicyKind::FullToPartial)
        .seed(seed)
        .build()
        .expect("valid configuration")
}

fn faulted_config(seed: u64) -> ClusterConfig {
    let schedule =
        FaultSchedule::random(FaultProfile::heavy(), 8, SimDuration::from_hours(24), seed ^ 0xFA17);
    ClusterConfig::builder()
        .home_hosts(6)
        .consolidation_hosts(2)
        .vms_per_host(10)
        .policy(PolicyKind::FullToPartial)
        .seed(seed)
        .faults(schedule)
        .build()
        .expect("valid configuration")
}

/// The figure 8 sweep is the same on 2, 4 and 8 workers as on one.
/// Catches a `WorkerPool::map` that returns results in completion order
/// rather than input order: the runs land in the wrong sweep cells.
#[test]
fn figure8_parallel_matches_sequential() {
    let seq = figure8_at(&WorkerPool::sequential(), Scale::SMOKE, DayKind::Weekday, 2);
    for jobs in [2, 4, 8] {
        let par = figure8_at(&WorkerPool::new(jobs), Scale::SMOKE, DayKind::Weekday, 2);
        assert_eq!(format!("{par:?}"), format!("{seq:?}"), "jobs={jobs}");
    }
}

/// The Table 3 sweep is the same on four workers as on one. Catches a
/// `WorkerPool::map` that returns results in completion order: the runs'
/// savings are averaged under the wrong memory-server power.
#[test]
fn table3_parallel_matches_sequential() {
    let seq = table3_at(&WorkerPool::sequential(), Scale::SMOKE, 2);
    let par = table3_at(&WorkerPool::new(4), Scale::SMOKE, 2);
    assert_eq!(format!("{par:?}"), format!("{seq:?}"));
}

/// A week is the same on four workers as on one. Catches a day whose
/// run seed is mixed with the index of the worker that runs it.
#[test]
fn run_week_parallel_matches_sequential() {
    for seed in [1u64, 42] {
        let cfg = small_config(seed);
        let seq = run_week_on(&WorkerPool::sequential(), &cfg);
        let par = run_week_on(&WorkerPool::new(4), &cfg);
        assert_eq!(format!("{par:?}"), format!("{seq:?}"), "seed={seed}");
    }
}

/// A week under a heavy random fault schedule is the same on four
/// workers as on one. Catches a `WorkerPool::map` that returns the days
/// in completion order.
#[test]
fn run_week_parallel_matches_sequential_under_faults() {
    let cfg = faulted_config(7);
    let seq = run_week_on(&WorkerPool::sequential(), &cfg);
    let par = run_week_on(&WorkerPool::new(4), &cfg);
    assert_eq!(format!("{par:?}"), format!("{seq:?}"));
    // The fault schedule actually fired: otherwise this test degenerates
    // into the fault-free case above.
    assert!(par.days.iter().any(|d| !d.faults.is_empty()));
}

/// Runs the seven days of a week like `run_week_on` does, but gives each
/// worker a private telemetry bus capturing into a [`BufferSink`]; the
/// buffers come back with the results (in input order) and replay into
/// one shared JSONL sink.
fn week_stream(pool: &WorkerPool, base: &ClusterConfig) -> Vec<u8> {
    let cfgs: Vec<ClusterConfig> = (0..7u64)
        .map(|dow| {
            let mut cfg = base.clone();
            cfg.day = if dow < 5 { DayKind::Weekday } else { DayKind::Weekend };
            cfg.seed = base.seed.wrapping_mul(7).wrapping_add(dow + 1);
            cfg
        })
        .collect();
    let runs = pool.map(cfgs, |cfg| {
        let tel = Telemetry::new(Level::Info);
        let buffer = BufferSink::new();
        tel.attach(Box::new(buffer.clone()));
        let mut sim = ClusterSim::new(cfg);
        sim.attach_telemetry(tel);
        let report = sim.run_day();
        (report, buffer)
    });
    let shared = SharedBuf::default();
    let mut sink = JsonlSink::new(shared.clone());
    for (_, buffer) in &runs {
        buffer.replay_into(&mut sink);
    }
    sink.flush();
    let bytes = shared.0.lock().unwrap().clone();
    bytes
}

/// Per-worker event buffers replayed in input order give the sequential
/// JSONL stream byte for byte. Catches event sequence numbers drawn from
/// one process-wide counter rather than per telemetry bus: the workers'
/// events interleave their numbers.
#[test]
fn per_worker_event_buffers_replay_to_the_sequential_stream() {
    let cfg = faulted_config(3);
    let seq = week_stream(&WorkerPool::sequential(), &cfg);
    let par = week_stream(&WorkerPool::new(4), &cfg);
    assert!(!seq.is_empty(), "the week emitted telemetry");
    assert_eq!(par, seq, "parallel telemetry stream diverged from sequential");
}
