//! Shard-equivalence suite: the datacenter tier must not change a byte.
//!
//! Two contracts are locked here:
//!
//! * **Collapse**: a sharded day with `racks = 1` is the monolithic
//!   [`ClusterSim`] day, byte for byte — same `Debug` report, same
//!   golden telemetry stream — across seeds, with and without a fault
//!   schedule. Rack 0's config is the template verbatim
//!   and a single rack gets no barriers and no epoch planner, so the
//!   sharded driver must execute exactly the monolithic statement
//!   sequence.
//! * **Schedule independence**: a multi-rack day is byte-identical
//!   across worker counts (`WorkerPool::sequential` vs parallel — the
//!   `OASIS_JOBS` axis). Epoch barriers plus the pure rebalance pass
//!   are the determinism argument (DESIGN.md §18); this suite is its
//!   enforcement.

use std::io::Write;
use std::sync::{Arc, Mutex};

use oasis_cluster::experiments::Scale;
use oasis_cluster::shard::{
    run_datacenter_day, run_datacenter_day_with, DatacenterConfig, PlannerScope,
};
use oasis_cluster::{ClusterConfig, ClusterSim};
use oasis_core::PolicyKind;
use oasis_faults::{Fault, FaultClass, FaultSchedule};
use oasis_sim::{SimDuration, SimTime, WorkerPool};
use oasis_telemetry::{JsonlSink, Level, Telemetry};
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

impl SharedBuf {
    fn take(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

/// A fault day: hosts `0..wake_failing` fail to wake all day, then a
/// memory-server crash and a degraded link.
fn fault_schedule(wake_failing: u32) -> FaultSchedule {
    let mut faults = Vec::new();
    for h in 0..wake_failing {
        faults.push(Fault {
            kind: FaultClass::WakeFailure,
            host: Some(h),
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(86_400),
            severity: 0.0,
        });
    }
    faults.push(Fault {
        kind: FaultClass::MemServerCrash,
        host: Some(0),
        start: SimTime::from_secs(21_600),
        duration: SimDuration::from_secs(10_800),
        severity: 0.0,
    });
    faults.push(Fault {
        kind: FaultClass::LinkDegraded,
        host: None,
        start: SimTime::from_secs(36_000),
        duration: SimDuration::from_secs(3_600),
        severity: 4.0,
    });
    FaultSchedule::new(faults)
}

/// Smoke-scale rack template.
fn template(seed: u64, faults: FaultSchedule) -> ClusterConfig {
    ClusterConfig::builder()
        .policy(PolicyKind::FullToPartial)
        .home_hosts(6)
        .consolidation_hosts(2)
        .vms_per_host(10)
        .seed(seed)
        .wol_loss_rate(0.3)
        .faults(faults)
        .build()
        .expect("valid configuration")
}

fn dc(racks: u32, seed: u64, faults: FaultSchedule) -> DatacenterConfig {
    DatacenterConfig { base: template(seed, faults), racks, planner: PlannerScope::Global }
}

/// Runs the monolithic day with a golden-telemetry sink; returns
/// `(stream, report)` — every observable byte.
fn monolithic_day(cfg: ClusterConfig) -> (String, String) {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new(Level::Debug);
    telemetry.attach(Box::new(JsonlSink::new(buf.clone())));
    let mut sim = ClusterSim::new(cfg);
    sim.attach_telemetry(telemetry);
    let report = sim.run_day();
    (buf.take(), format!("{report:?}"))
}

/// Runs the sharded day on `pool` with one golden-telemetry sink per
/// rack; returns the per-rack streams and per-rack reports.
fn sharded_day(pool: &WorkerPool, dc: &DatacenterConfig) -> (Vec<String>, Vec<String>) {
    let bufs: Vec<SharedBuf> = (0..dc.racks).map(|_| SharedBuf::default()).collect();
    let sinks = bufs.clone();
    let report = run_datacenter_day_with(pool, dc, &|| 0.0, &move |rack| {
        let telemetry = Telemetry::new(Level::Debug);
        telemetry.attach(Box::new(JsonlSink::new(sinks[rack as usize].clone())));
        telemetry
    });
    let streams = bufs.iter().map(SharedBuf::take).collect();
    let reports = report.rack_reports.iter().map(|r| format!("{r:?}")).collect();
    (streams, reports)
}

/// A one-rack sharded day is the monolithic day: same report, same
/// stream. Catches a `rack_config` that re-seeds rack 0 like the other
/// racks instead of passing the template through verbatim.
#[test]
fn single_rack_sharded_day_is_the_monolithic_day() {
    for seed in [1u64, 2, 3] {
        let (mono_stream, mono_report) = monolithic_day(template(seed, FaultSchedule::none()));
        let (streams, reports) =
            sharded_day(&WorkerPool::sequential(), &dc(1, seed, FaultSchedule::none()));
        assert!(!mono_stream.is_empty());
        assert_eq!(reports, vec![mono_report], "seed {seed}: report diverged");
        assert_eq!(streams, vec![mono_stream], "seed {seed}: stream diverged");
    }
}

/// The same collapse under a fault schedule. Catches a `rack_config`
/// that drops the template's fault schedule, which the fault-free day
/// above cannot see.
#[test]
fn single_rack_sharded_day_under_faults_is_the_monolithic_day() {
    for seed in [1u64, 2, 3] {
        let (mono_stream, mono_report) = monolithic_day(template(seed, fault_schedule(6)));
        let (streams, reports) =
            sharded_day(&WorkerPool::sequential(), &dc(1, seed, fault_schedule(6)));
        assert!(mono_stream.contains("\"kind\":\"fault_injected\""));
        assert_eq!(reports, vec![mono_report], "seed {seed}: faulted report diverged");
        assert_eq!(streams, vec![mono_stream], "seed {seed}: faulted stream diverged");
    }
}

/// Four racks give the same per-rack reports and streams on four
/// workers as on one, under both planners. Catches a rack whose run seed
/// is mixed with the index of the worker that builds it.
#[test]
fn multi_rack_day_is_bit_identical_across_worker_counts() {
    for planner in [PlannerScope::Global, PlannerScope::Local] {
        let cfg = dc(4, 1, FaultSchedule::none()).planner(planner);
        let (seq_streams, seq_reports) = sharded_day(&WorkerPool::sequential(), &cfg);
        let (par_streams, par_reports) = sharded_day(&WorkerPool::new(4), &cfg);
        assert!(seq_streams.iter().all(|s| !s.is_empty()));
        assert_eq!(seq_reports, par_reports, "planner {planner:?}: parallel reports diverged");
        assert_eq!(seq_streams, par_streams, "planner {planner:?}: parallel streams diverged");
    }
}

/// The fleet summary, rebalance ledger included, is the same on three
/// workers as on one. Catches a parallel path that steps each rack
/// through the whole day in one `pool.map` call, skipping the epoch
/// barriers and the capacity grants between them.
#[test]
fn datacenter_summary_is_deterministic_across_worker_counts() {
    // The smoke fleet's 32 GiB racks, with no wake failures: on the
    // 128 GiB template, or with homes that never wake, the global planner
    // issues no grant and the rebalance ledger compares zero with zero.
    let mut cfg = DatacenterConfig::at(
        Scale { racks: 12, ..Scale::SMOKE },
        PolicyKind::FullToPartial,
        DayKind::Weekday,
        3,
    );
    cfg.base.faults = fault_schedule(0);
    let summarize = |pool: &WorkerPool| {
        let mut report = run_datacenter_day(pool, &cfg, &|| 0.0);
        (
            report.racks,
            report.hosts,
            report.vms,
            format!("{:.9}", report.total_kwh),
            format!("{:.9}", report.energy_savings),
            report.rebalance_grants,
            report.rebalance_bytes,
            report.sla_violations(10.0),
        )
    };
    let seq = summarize(&WorkerPool::sequential());
    assert!(seq.5 > 0, "the epoch planner traded capacity");
    assert_eq!(summarize(&WorkerPool::new(3)), seq);
}
