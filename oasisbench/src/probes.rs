//! The layer probes a traced run makes after its timed loop, and the
//! per-layer metrics computed from the run's spans.
//!
//! Every traced run makes the same probe calls on inputs derived from
//! the run seed, so every per-layer metric exists for every workload.
//! Times are medians over all spans of a name, so where the workload's
//! own tasks call a layer their spans dominate; counts come from the
//! probes' fixed inputs and so repeat exactly for a seed.

use std::hint::black_box;

use oasis_cluster::experiments::Scale;
use oasis_core::manager::ManagerConfig;
use oasis_core::{
    plan_rebalance, ClusterManager, ClusterView, HostRole, HostView, PolicyKind, RackLoad, VmView,
};
use oasis_mem::compress::PageClass;
use oasis_mem::{compress, decompress, ByteSize};
use oasis_trace::{clear_trace_cache, shared_library};
use oasis_vm::{HostId, VmId, VmState};

use crate::report::{median, quantile, sorted, Metric};
use crate::workloads::{mix, Output, Runner, Task, SCENARIOS};

/// Probe task ids start here, past any loop's.
const PROBE_ID: u64 = 1 << 40;
/// Repetitions of each sub-millisecond probe call.
const REPS: u64 = 40;
/// Items in the worker-pool probe and racks in the rebalance probe (the
/// full datacenter's 5,000).
const FLEET_ITEMS: u32 = 5_000;
/// Sequential fleet-days behind `shard.fleet_day_seq_ms`, and clocked
/// ones behind the rack wall times.
const FLEET_DAYS: usize = 3;
/// Synthesized pages per class in the compressor probe.
const PAGES_PER_CLASS: u64 = 64;

/// Counts the probes observed; deterministic for a seed.
#[derive(Clone, Debug, Default)]
pub struct ProbeCounts {
    /// Full + partial migrations + exchanges of the probe's §5.1 day.
    pub cluster_migrations: u64,
    /// Planner decisions of the probe's §5.1 day.
    pub cluster_decisions: u64,
    /// Actions of one planning round per Figure 8 policy, summed.
    pub plan_actions: u64,
    /// Capacity grants of the probe's fleet-day.
    pub rebalance_grants: u64,
    /// Pages uploaded by the probe lab's two partial migrations.
    pub uploaded_pages: u64,
    /// Remote faults in the probe lab's consolidated idle period.
    pub host_faults: u64,
    /// MiB fetched in that period.
    pub host_fetched_mib: f64,
    /// Compressed ÷ original bytes over the probe pages.
    pub compress_ratio: f64,
    /// Faults injected over the six probe scenarios.
    pub faults_injected: u64,
    /// Recoveries over the six probe scenarios.
    pub recoveries: u64,
    /// Reboots over the six probe scenarios.
    pub reboots: u64,
    /// The probe lab cycle (for the accuracy table).
    pub lab: Option<Box<crate::workloads::LabOutcome>>,
}

/// Runs every layer probe once, with spans on.
pub fn run(runner: &mut Runner, seed: u64) -> ProbeCounts {
    let mut counts = ProbeCounts::default();
    let mut id = PROBE_ID;
    let mut next_id = || {
        id += 1;
        id
    };

    // cluster: one §5.1 FulltoPartial day on the paper's 4 hosts, after
    // an untraced one builds the seed's trace corpus (which the probe
    // scenarios and fleet-days share), so no probe span pays for it.
    let paper_day = Task::Paper { policy: PolicyKind::FullToPartial, cons: 4, seed };
    runner.tracer.set_enabled(false);
    runner.run(&paper_day, next_id());
    runner.tracer.set_enabled(true);
    if let (_, Output::Paper(r)) = runner.run(&paper_day, next_id()) {
        counts.cluster_migrations =
            r.migrations.full + r.migrations.partial + r.migrations.exchanges;
        counts.cluster_decisions = r.decisions.total();
    }

    // core: one planning round per Figure 8 policy on a §5.1-shaped view.
    let view = paper_view(seed);
    for policy in PolicyKind::FIGURE8 {
        let mut manager =
            ClusterManager::new(ManagerConfig { policy, ..ManagerConfig::default() }, seed);
        for rep in 0..REPS {
            let actions =
                runner.tracer.time("core.plan", next_id(), || manager.plan(black_box(&view)));
            if rep == 0 {
                counts.plan_actions += actions.len() as u64;
            }
        }
    }
    let loads = rack_loads(seed);
    for _ in 0..REPS {
        black_box(
            runner.tracer.time("core.rebalance", next_id(), || plan_rebalance(black_box(&loads))),
        );
    }

    // sim::pool: trivial items, so the cost is the fan-out itself.
    for _ in 0..REPS {
        let items: Vec<u64> = (0..u64::from(FLEET_ITEMS)).collect();
        let span = runner.tracer.open("pool.map", next_id());
        black_box(runner.pool.map(items, |x| black_box(x).wrapping_mul(3)));
        runner.tracer.close(span, u64::from(FLEET_ITEMS));
    }

    // mem: compress and decompress every page class.
    counts.compress_ratio = compressor(runner, seed, &mut next_id);

    // migration + host: one lab cycle.
    if let (_, Output::Lab(lab)) = runner.run(&Task::Lab { seed }, next_id()) {
        counts.uploaded_pages = lab.partial1.uploaded_pages + lab.partial2.uploaded_pages;
        counts.host_faults = lab.idle.faults;
        counts.host_fetched_mib = lab.idle.fetched.as_mib_f64();
        counts.lab = Some(lab);
    }

    // faults: each scenario once.
    for scenario in 0..SCENARIOS.len() {
        if let (_, Output::Scenario(r)) = runner.run(&Task::Scenario { scenario, seed }, next_id())
        {
            counts.faults_injected += r.faults_injected;
            counts.recoveries += r.recoveries;
            counts.reboots += r.reboots;
        }
    }

    // shard: the fleet-day on the run's pool, sequentially, and once
    // more with a real clock for the per-rack wall times; the checker
    // requires every digest to match the first.
    if let (_, Output::Fleet(r)) = runner.run(&Task::Fleet { seed, sequential: false }, next_id()) {
        counts.rebalance_grants = r.rebalance_grants;
    }
    for _ in 0..FLEET_DAYS {
        runner.run(&Task::Fleet { seed, sequential: true }, next_id());
    }
    for _ in 0..FLEET_DAYS {
        runner.clocked_fleet(seed, next_id());
    }

    // trace: cold corpus synthesis. Last, because it empties the cache.
    clear_trace_cache();
    for k in 0..5 {
        let corpus_seed = mix(seed ^ 0x7EACE).wrapping_add(k);
        black_box(
            runner.tracer.time("trace.synth", next_id(), || shared_library(22, 17, corpus_seed)),
        );
    }
    counts
}

/// Compresses and decompresses `PAGES_PER_CLASS` pages of every class
/// `REPS / 4` times; returns compressed ÷ original bytes. A page that
/// does not round-trip is a failed check.
fn compressor(runner: &mut Runner, seed: u64, next_id: &mut impl FnMut() -> u64) -> f64 {
    let pages: Vec<Vec<u8>> = PageClass::ALL
        .iter()
        .flat_map(|class| {
            (0..PAGES_PER_CLASS).map(move |i| class.synthesize(mix(seed).wrapping_add(i)))
        })
        .collect();
    let bytes: u64 = pages.iter().map(|p| p.len() as u64).sum();
    let mut packed_bytes = 0;
    for _ in 0..REPS / 4 {
        let span = runner.tracer.open("mem.compress", next_id());
        let packed: Vec<Vec<u8>> = pages.iter().map(|p| compress(black_box(p))).collect();
        runner.tracer.close(span, bytes);
        packed_bytes = packed.iter().map(|p| p.len() as u64).sum();
        let span = runner.tracer.open("mem.decompress", next_id());
        let unpacked: Vec<_> = packed.iter().map(|p| decompress(black_box(p))).collect();
        runner.tracer.close(span, bytes);
        let bad = unpacked.iter().zip(&pages).filter(|(u, p)| u.as_ref().ok() != Some(*p)).count();
        let problems =
            if bad == 0 { Vec::new() } else { vec![format!("{bad} pages do not round-trip")] };
        runner.checker.record(
            "mem/roundtrip",
            &format!("bytes={bytes} packed={packed_bytes}"),
            problems,
        );
    }
    packed_bytes as f64 / bytes as f64
}

/// A §5.1-shaped snapshot: 30 homes × 30 VMs with a seed-chosen third
/// active, and 4 sleeping consolidation hosts.
fn paper_view(seed: u64) -> ClusterView {
    let scale = Scale::PAPER;
    let capacity = ByteSize::gib(192);
    let mut hosts = Vec::new();
    let mut vms = Vec::new();
    for h in 0..scale.home_hosts {
        hosts.push(HostView {
            id: HostId(h),
            role: HostRole::Compute,
            powered: true,
            vacatable: true,
            capacity,
        });
        for i in 0..scale.vms_per_host {
            let id = h * scale.vms_per_host + i;
            let active = mix(seed ^ u64::from(id)).is_multiple_of(3);
            vms.push(VmView {
                id: VmId(id),
                home: HostId(h),
                location: HostId(h),
                state: if active { VmState::Active } else { VmState::Idle },
                allocation: ByteSize::gib(4),
                demand: ByteSize::gib(4),
                partial_demand: ByteSize::mib(165),
                partial: false,
            });
        }
    }
    for c in 0..4 {
        hosts.push(HostView {
            id: HostId(scale.home_hosts + c),
            role: HostRole::Consolidation,
            powered: false,
            vacatable: true,
            capacity,
        });
    }
    let mut view = ClusterView { hosts, vms, host_demand: Vec::new() };
    view.rebuild_host_demand();
    view
}

/// 5,000 datacenter-shaped rack loads (one consolidation host each at
/// its base capacity) with seed-drawn utilizations in [0.05, 1.0).
fn rack_loads(seed: u64) -> Vec<RackLoad> {
    let base = Scale::DATACENTER.host_memory();
    (0..FLEET_ITEMS)
        .map(|rack| {
            let permille = 50 + mix(seed.wrapping_add(u64::from(rack))) % 950;
            RackLoad {
                rack,
                cons_hosts: 1,
                cons_capacity: base,
                base_capacity: base,
                cons_demand: ByteSize::bytes(base.as_bytes() / 1000 * permille),
            }
        })
        .collect()
}

/// Every per-layer metric, from the run's spans and the probe counts.
pub fn layer_metrics(
    runner: &Runner,
    counts: &ProbeCounts,
    corpora: usize,
    trace_overhead: f64,
) -> Vec<Metric> {
    let t = &runner.tracer;
    let ms = |name: &str| median(&t.durations_ns(name)) / 1e6;
    let per_work = |name: &str| {
        let (ns, work) = t.totals(name);
        ns as f64 / work.max(1) as f64
    };
    let mib_per_s = |name: &str| {
        let (ns, bytes) = t.totals(name);
        (bytes as f64 / (1u64 << 20) as f64) / (ns.max(1) as f64 / 1e9)
    };
    let fleet_ms = ms("shard.fleet_day");
    let fleet_seq_ms = ms("shard.fleet_day_seq");
    let racks = sorted(&runner.rack_ms);
    let mut m = vec![
        Metric::new("trace.synth_ms", ms("trace.synth"), "ms"),
        Metric::new("trace.corpora", corpora as f64, "count"),
        Metric::new("cluster.construct_ms", ms("cluster.construct"), "ms"),
        Metric::new("cluster.day_ms", ms("cluster.run_day"), "ms"),
        Metric::new("cluster.ns_per_host_interval", per_work("cluster.run_day"), "ns"),
        Metric::new("cluster.migrations", counts.cluster_migrations as f64, "count"),
        Metric::new("cluster.decisions", counts.cluster_decisions as f64, "count"),
        Metric::new("core.plan_us", ms("core.plan") * 1e3, "us"),
        Metric::new("core.plan_actions", counts.plan_actions as f64, "count"),
        Metric::new("core.rebalance_us", ms("core.rebalance") * 1e3, "us"),
        Metric::new("core.rebalance_grants", counts.rebalance_grants as f64, "count"),
        Metric::new("shard.fleet_day_ms", fleet_ms, "ms"),
        Metric::new("shard.fleet_day_seq_ms", fleet_seq_ms, "ms"),
        Metric::new("shard.speedup", fleet_seq_ms / fleet_ms, "x"),
        Metric::new("shard.workers", runner.pool.jobs() as f64, "count"),
        Metric::new("shard.busy_ratio", median(&runner.fleet_busy), "ratio"),
        Metric::new("shard.rack_p50_ms", quantile(&racks, 0.50), "ms"),
        Metric::new("shard.rack_p99_ms", quantile(&racks, 0.99), "ms"),
        Metric::new(
            "pool.map_ns_per_item",
            median(&t.durations_ns("pool.map")) / f64::from(FLEET_ITEMS),
            "ns",
        ),
        Metric::new("migration.prime_ms", ms("migration.prime_os"), "ms"),
        Metric::new("migration.precopy_ms", ms("migration.precopy"), "ms"),
        Metric::new("migration.partial1_ms", ms("migration.partial1"), "ms"),
        Metric::new("migration.partial2_ms", ms("migration.partial2"), "ms"),
        Metric::new("migration.reintegrate_ms", ms("migration.reintegrate"), "ms"),
        Metric::new("migration.uploaded_pages", counts.uploaded_pages as f64, "count"),
        Metric::new("host.cons_idle_ms", ms("host.cons_idle"), "ms"),
        Metric::new("host.faults", counts.host_faults as f64, "count"),
        Metric::new("host.ns_per_fault", per_work("host.cons_idle"), "ns"),
        Metric::new("host.fetched_mib", counts.host_fetched_mib, "MiB"),
        Metric::new("mem.compress_mib_s", mib_per_s("mem.compress"), "MiB/s"),
        Metric::new("mem.decompress_mib_s", mib_per_s("mem.decompress"), "MiB/s"),
        Metric::new("mem.compress_ratio", counts.compress_ratio, "ratio"),
    ];
    for name in SCENARIOS {
        m.push(Metric::new(format!("scenario.{name}_ms"), ms(&format!("scenario.{name}")), "ms"));
    }
    m.push(Metric::new("faults.injected", counts.faults_injected as f64, "count"));
    m.push(Metric::new("faults.recoveries", counts.recoveries as f64, "count"));
    m.push(Metric::new("faults.reboots", counts.reboots as f64, "count"));
    m.push(Metric::new("bench.trace_overhead", trace_overhead, "ratio"));
    m
}
