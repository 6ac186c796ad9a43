//! Golden-stream test: a fixed-seed simulated day emits a byte-identical
//! JSONL event stream on every run, and attaching telemetry does not
//! perturb the simulation itself.

use std::io::Write;
use std::sync::{Arc, Mutex};

use oasis_cluster::{ClusterConfig, ClusterSim};
use oasis_core::PolicyKind;
use oasis_telemetry::{JsonlSink, Level, Telemetry};

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

fn config() -> ClusterConfig {
    ClusterConfig::builder()
        .policy(PolicyKind::FullToPartial)
        .home_hosts(6)
        .consolidation_hosts(2)
        .vms_per_host(10)
        .seed(42)
        .wol_loss_rate(0.3)
        .build()
        .expect("valid configuration")
}

/// Runs one traced day; returns the JSONL stream and the summary line.
fn traced_day() -> (String, String) {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new(Level::Debug);
    telemetry.attach(Box::new(JsonlSink::new(buf.clone())));
    let mut sim = ClusterSim::new(config());
    sim.attach_telemetry(telemetry);
    let report = sim.run_day();
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    (stream, report.summary_line())
}

#[test]
fn fixed_seed_stream_is_byte_identical() {
    let (first, _) = traced_day();
    let (second, _) = traced_day();
    assert!(!first.is_empty());
    assert_eq!(first, second, "same seed must reproduce the stream byte-for-byte");
}

#[test]
fn stream_covers_the_lifecycle_vocabulary() {
    let (stream, _) = traced_day();
    let kinds: std::collections::BTreeSet<&str> = stream
        .lines()
        .map(|l| {
            let start = l.find("\"kind\":\"").expect("kind field") + 8;
            let rest = &l[start..];
            &rest[..rest.find('"').unwrap()]
        })
        .collect();
    assert!(kinds.len() >= 5, "expected >= 5 distinct event kinds, got {kinds:?}");
    for required in [
        "interval_started",
        "policy_decision",
        "migration_started",
        "migration_completed",
        "host_suspended",
    ] {
        assert!(kinds.contains(required), "missing {required} in {kinds:?}");
    }
    // 288 five-minute intervals, one marker each at debug level.
    let intervals = stream.lines().filter(|l| l.contains("\"kind\":\"interval_started\"")).count();
    assert_eq!(intervals, 288);
}

#[test]
fn telemetry_never_perturbs_the_simulation() {
    let untraced = ClusterSim::new(config()).run_day().summary_line();
    let (_, traced) = traced_day();
    assert_eq!(untraced, traced, "attaching telemetry must not consume RNG draws");
}

#[test]
fn report_summary_matches_the_stream() {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::new(Level::Info);
    telemetry.attach(Box::new(JsonlSink::new(buf.clone())));
    let mut sim = ClusterSim::new(config());
    sim.attach_telemetry(telemetry);
    let report = sim.run_day();
    let stream = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert_eq!(report.telemetry.events_total, stream.lines().count() as u64);
    let by_kind: u64 = report.telemetry.events_by_kind.iter().map(|(_, n)| n).sum();
    assert_eq!(by_kind, report.telemetry.events_total);
}

/// The profile tree records one `plan_consolidation` call per planning
/// round: 288 five-minute rounds, under `run_day;planner` and nowhere
/// else. Example perturbation it catches: opening the scope twice per
/// round (a second `telemetry.profile("plan_consolidation")` around the
/// planner call in `ClusterManager::plan_with`) nests a second node.
#[test]
fn profile_tree_counts_one_plan_per_round() {
    let telemetry = Telemetry::new(Level::Info);
    let mut sim = ClusterSim::new(config());
    sim.attach_telemetry(telemetry.clone());
    sim.run_day();
    let tree = telemetry.profiler().snapshot();
    let nodes: Vec<(usize, &str, u64)> =
        tree.flatten().iter().map(|(depth, n)| (*depth, n.name.as_str(), n.calls)).collect();
    assert!(nodes.contains(&(0, "run_day", 1)), "{nodes:?}");
    assert!(nodes.contains(&(1, "planner", 288)), "{nodes:?}");
    let plans: Vec<(usize, u64)> = nodes
        .iter()
        .filter(|(_, name, _)| *name == "plan_consolidation")
        .map(|&(depth, _, calls)| (depth, calls))
        .collect();
    assert_eq!(plans, [(2, 288)], "{nodes:?}");
}
