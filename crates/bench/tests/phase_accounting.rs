//! Phase-accounting lock: `DayPhases` bracketing double-counts nothing.
//!
//! `run_day_timed` brackets each simulation phase with the caller's
//! monotonic clock. The buckets must partition the day — every bracket
//! disjoint, none counted twice — or a double-counted span would
//! silently inflate the committed `BENCH_sim.json` breakdown. This is
//! the test-suite analogue of the `day_paper_span_coverage` figure
//! `perf` reports: phase sum ≤ wall (no double counting, ±5% clock-read
//! slack) and phase sum ≥ half the wall (the brackets actually cover the
//! day, loop overhead aside).

use oasis_bench::timing::monotonic_secs;
use oasis_cluster::{ClusterConfig, ClusterSim, DayPhases};

fn day_phases() -> (DayPhases, f64) {
    let cfg = || ClusterConfig::builder().seed(1).build().expect("valid §5.1 configuration");
    // Warmup fills the process-wide trace cache, so the timed day below
    // measures the warm steady state `BENCH_sim.json` records.
    let _ = ClusterSim::new(cfg()).run_day();
    let mut phases = DayPhases::default();
    let t0 = monotonic_secs();
    let sim = ClusterSim::new_timed(cfg(), &monotonic_secs, &mut phases);
    let report = sim.run_day_timed(&monotonic_secs, &mut phases);
    let wall = monotonic_secs() - t0;
    assert!(report.total_kwh > 0.0, "paper day simulated no energy");
    (phases, wall)
}

#[test]
fn day_phase_brackets_partition_the_wall() {
    let (phases, wall) = day_phases();
    let sum = phases.total_secs();
    // No negative bucket: a clock handed in monotone non-decreasing
    // readings, so a negative bucket means brackets crossed.
    for (name, v) in [
        ("trace_sampling", phases.trace_sampling_secs),
        ("construct", phases.construct_secs),
        ("fault_service", phases.fault_service_secs),
        ("activation", phases.activation_secs),
        ("planner", phases.planner_secs),
        ("fetch", phases.fetch_secs),
        ("accounting", phases.accounting_secs),
    ] {
        assert!(v >= 0.0, "phase {name} went negative ({v}s)");
    }
    // Disjoint brackets can never sum past the enclosing wall; ±5%
    // absorbs the clock reads themselves on very fast machines.
    assert!(sum <= wall * 1.05, "phases double-count — sum {sum:.6}s > wall {wall:.6}s");
    // And they must actually cover the day: everything outside the
    // buckets is loop prologue and report assembly, a small residual at
    // paper scale.
    assert!(sum >= wall * 0.5, "phases cover too little — sum {sum:.6}s of wall {wall:.6}s");
}

#[test]
fn timed_and_untimed_days_are_byte_identical() {
    // The phase clock must never feed back into simulation: a timed run
    // (real clock) and an untimed run (constant clock) produce the same
    // report bytes.
    let cfg = || {
        ClusterConfig::builder()
            .home_hosts(6)
            .consolidation_hosts(2)
            .vms_per_host(10)
            .seed(3)
            .build()
            .expect("valid configuration")
    };
    let untimed = format!("{:?}", ClusterSim::new(cfg()).run_day());
    let mut phases = DayPhases::default();
    let timed = format!(
        "{:?}",
        ClusterSim::new_timed(cfg(), &monotonic_secs, &mut phases)
            .run_day_timed(&monotonic_secs, &mut phases)
    );
    assert_eq!(untimed, timed, "phase clock leaked into the simulation");
    assert!(phases.total_secs() > 0.0, "timed run recorded no phase wall");
}
