//! Tier-1 guard on the §5.1 paper-day and datacenter fleet-day goldens.
//!
//! Both pins are copied verbatim from `oasisbench/src/golden.rs`
//! (`PAPER` and `FLEET`), and both digests are built in the format of
//! oasisbench's `paper_digest` and `fleet_digest`, so a plain
//! `cargo test` at the workspace root catches a drift in the day loop
//! (`ClusterSim::step_interval`) or the shard driver without building
//! the benchmark.

use oasis::cluster::experiments::Scale;
use oasis::cluster::shard::{
    run_datacenter_day, DatacenterConfig, DatacenterReport, PlannerScope, SLA_THRESHOLD_SECS,
};
use oasis::cluster::{ClusterConfig, ClusterSim, SimReport};
use oasis::core::PolicyKind;
use oasis::sim::WorkerPool;
use oasis::trace::DayKind;

/// `PAPER`'s seed-1 weekday cells at 4 consolidation hosts.
#[rustfmt::skip]
const PAPER_CONS4: &[(&str, &str)] = &[
    ("paper/OnlyPartial/4/1", "OnlyPartial    weekday  homes=30  cons=4   vms=900  savings=   3.9% baseline=81.1kWh actual=78.0kWh full=0 partial=4200 exch=0 mj=280686607740 decisions=4334"),
    ("paper/Default/4/1", "Default        weekday  homes=30  cons=4   vms=900  savings=  13.0% baseline=81.1kWh actual=70.6kWh full=1327 partial=6593 exch=0 mj=254094797680 decisions=9334"),
    ("paper/FulltoPartial/4/1", "FulltoPartial  weekday  homes=30  cons=4   vms=900  savings=  20.4% baseline=81.1kWh actual=64.6kWh full=3607 partial=9999 exch=3542 mj=232561732602 decisions=21039"),
    ("paper/NewHome/4/1", "NewHome        weekday  homes=30  cons=4   vms=900  savings=  25.2% baseline=81.1kWh actual=60.7kWh full=973 partial=3358 exch=3063 mj=218385367810 decisions=11126"),
];

/// `FLEET`'s 500-rack seed-1 day.
#[rustfmt::skip]
const FLEET_500: (&str, &str) = ("fleet/500/1", "racks=500 hosts=2500 vms=20000 baseline_kwh=5073.514652 total_kwh=4463.733484 mj=16069440542870 migrations=180888 grants=1140 rebalance_bytes=7344394076160 network_bytes=899913014863516 sla_violations=31");

/// oasisbench's `paper_digest`: the summary line plus the exact
/// integer-millijoule ledger total and decision count.
fn paper_digest(report: &SimReport) -> String {
    format!(
        "{} mj={} decisions={}",
        report.summary_line(),
        report.energy.total_mj(),
        report.decisions.total()
    )
}

/// oasisbench's `fleet_digest`.
fn fleet_digest(report: &mut DatacenterReport) -> String {
    let sla = report.sla_violations(SLA_THRESHOLD_SECS);
    let mj: u64 = report.rack_reports.iter().map(|r| r.energy.total_mj()).sum();
    let migrations: u64 = report
        .rack_reports
        .iter()
        .map(|r| r.migrations.full + r.migrations.partial + r.migrations.exchanges)
        .sum();
    format!(
        "racks={} hosts={} vms={} baseline_kwh={:.6} total_kwh={:.6} mj={mj} migrations={migrations} \
         grants={} rebalance_bytes={} network_bytes={} sla_violations={sla}",
        report.racks,
        report.hosts,
        report.vms,
        report.baseline_kwh,
        report.total_kwh,
        report.rebalance_grants,
        report.rebalance_bytes,
        report.network_bytes(),
    )
}

/// Every Figure 8 policy's seed-1 weekday paper day at 4 consolidation
/// hosts matches its pin. Example perturbation it catches: planning on
/// every other trace interval (doubling the `next_plan` step in
/// `ClusterSim::step_interval`) moves every non-trivial cell.
#[test]
fn paper_day_matches_its_seed_1_pins() {
    let scale = Scale::PAPER;
    for policy in PolicyKind::FIGURE8 {
        let key = format!("paper/{policy}/4/1");
        let (_, expect) = PAPER_CONS4
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("no pin for {key}"));
        let cfg = ClusterConfig::builder()
            .policy(policy)
            .day(DayKind::Weekday)
            .home_hosts(scale.home_hosts)
            .vms_per_host(scale.vms_per_host)
            .consolidation_hosts(4)
            .seed(1)
            .build()
            .expect("valid §5.1 configuration");
        let report = ClusterSim::new(cfg).run_day();
        assert_eq!(paper_digest(&report), *expect, "{key} drifted");
    }
}

/// The 500-rack FulltoPartial weekday fleet day under the global epoch
/// planner matches its pin. Example perturbation it catches: running
/// the epoch planner at the day's last barrier too (dropping the
/// `epoch_end < INTERVALS_PER_DAY` guard in `run_datacenter_day_with`)
/// issues grants no interval can use, and `grants=` moves.
#[test]
fn fleet_day_matches_its_500_rack_pin() {
    let (key, expect) = FLEET_500;
    let scale = Scale { racks: 500, ..Scale::DATACENTER };
    let dc = DatacenterConfig::at(scale, PolicyKind::FullToPartial, DayKind::Weekday, 1)
        .planner(PlannerScope::Global);
    let mut report = run_datacenter_day(&WorkerPool::new(2), &dc, &|| 0.0);
    assert_eq!(fleet_digest(&mut report), expect, "{key} drifted");
}
