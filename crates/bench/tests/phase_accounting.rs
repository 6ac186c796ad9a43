//! Phase accounting on the profile tree: the span profiler is the only
//! in-simulator timer, and `perf`'s `day_paper_*_secs` keys are read
//! off its nodes. These tests lock what that reading relies on, on a
//! profiled §5.1 paper day: no node double-counts its children, the
//! tree covers the day, and attaching the profiler changes no result.

use oasis_bench::timing::wall;
use oasis_cluster::{ClusterConfig, ClusterSim, SimReport};
use oasis_telemetry::{Level, ProfileNode, ProfileTree, Telemetry, TelemetrySummary};

fn paper_cfg() -> ClusterConfig {
    ClusterConfig::builder().seed(1).build().expect("valid §5.1 configuration")
}

/// One profiled paper day the way `perf` runs it: a `construct` scope
/// around `ClusterSim::new`, then the bus attached for `run_day`.
/// Returns the report, the tree and the bracketed wall seconds.
fn profiled_day() -> (SimReport, ProfileTree, f64) {
    let telemetry = Telemetry::new(Level::Warn);
    let (report, secs) = wall(|| {
        let construct = telemetry.profile("construct");
        let mut sim = ClusterSim::new(paper_cfg());
        construct.end();
        sim.attach_telemetry(telemetry.clone());
        sim.run_day()
    });
    (report, telemetry.profiler().snapshot(), secs)
}

/// No node's children sum past the node itself, so no phase key counts
/// time twice. Example perturbation it catches: `ProfileScope::start`
/// taking its wall start from one instant shared by the whole bus
/// instead of the scope's own entry, so every close re-counts the time
/// since that instant and 288 `planner` closes outweigh one `run_day`.
#[test]
fn children_never_sum_past_their_parent() {
    let (_, tree, _) = profiled_day();
    fn check(node: &ProfileNode) {
        let children: u64 = node.children.iter().map(|c| c.total_wall_ns).sum();
        assert!(
            children <= node.total_wall_ns,
            "{}: children {children} ns > total {} ns",
            node.name,
            node.total_wall_ns
        );
        node.children.iter().for_each(check);
    }
    assert!(!tree.is_empty(), "profiled day recorded no scopes");
    tree.roots.iter().for_each(check);
}

/// `run_day` covers at least half the bracketed wall, and the tree's
/// top-level scopes never exceed it. Example perturbation it catches:
/// ending the `run_day` scope before the interval loop in
/// `ClusterSim::run_day`, which leaves the phases as unbracketed roots.
#[test]
fn run_day_covers_the_bracketed_wall() {
    let (_, tree, secs) = profiled_day();
    let wall_ns = secs * 1e9;
    let run_day = tree.roots.iter().find(|n| n.name == "run_day").expect("run_day scope");
    assert!(
        run_day.total_wall_ns as f64 >= 0.5 * wall_ns,
        "run_day covers {} ns of {wall_ns} ns",
        run_day.total_wall_ns
    );
    assert!(
        tree.total_wall_ns() as f64 <= wall_ns,
        "tree total {} ns > bracketed wall {wall_ns} ns",
        tree.total_wall_ns()
    );
}

/// The profiler never feeds back into the simulation: a profiled day's
/// report equals an unprofiled one byte for byte, once the bus's event
/// counts are set aside. Example perturbation it catches: a phase that
/// runs only on a disabled bus, such as `grow_working_sets` in
/// `ClusterSim::step_interval` gated on `!self.telemetry.is_enabled()`.
#[test]
fn profiling_leaves_the_report_unchanged() {
    let plain = ClusterSim::new(paper_cfg()).run_day();
    let (mut profiled, _, _) = profiled_day();
    assert_eq!(plain.telemetry, TelemetrySummary::default());
    profiled.telemetry = TelemetrySummary::default();
    assert_eq!(format!("{profiled:?}"), format!("{plain:?}"));
}
