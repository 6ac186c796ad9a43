//! Command-line front end for the Oasis simulator.
//!
//! The root workspace package builds this into the `oasis` binary:
//!
//! ```text
//! oasis sim    [--policy P] [--day weekday|weekend] [--homes N]
//!              [--cons N] [--vms N] [--seed S] [--interval-mins M]
//!              [--memserver-watts W] [--faults PATH]
//!              [--fault-profile light|heavy] [--trace-out PATH]
//!              [--metrics-out PATH] [--log-level off|warn|info|debug]
//!              [--scale paper|smoke|datacenter] [--racks N]
//!              [--planner global|local] [--jobs N]
//!              [--scenario NAME]
//! oasis week   [--policy P] [--homes N] [--cons N] [--vms N] [--seed S]
//!              [--jobs N]
//! oasis micro  [--seed S] [--fidelity per-page|batched]
//! oasis report [same sim flags] [--format text|json] [--top N]
//!              [--wall true] [--folded PATH] [--folded-metric wall|sim|calls]
//!              [--audit-out PATH] [--out PATH] [--scorecard true]
//!              [--scenario NAME]
//! oasis trace  generate [--users N] [--weeks N] [--seed S] [--out PATH]
//! oasis trace  stats <PATH>
//! ```
//!
//! Flags accept both `--flag value` and `--flag=value`. A file that
//! cannot be read or written fails the command with its path named.
//!
//! `--scale` picks a canned deployment shape (the paper's §5.1 rack, the
//! reduced smoke rack, or the 5,000-rack datacenter tier); `--racks`
//! overrides its rack count. Any run spanning more than one rack goes
//! through the sharded datacenter tier ([`oasis_cluster::shard`]):
//! `sim` prints the fleet summary and `report` renders the per-rack
//! digest, both byte-identical across `--jobs` worker counts.
//!
//! `--scenario` runs a named preset from the stress-scenario registry
//! ([`oasis_cluster::scenarios`]) instead of a hand-assembled shape:
//! `sim` prints the golden digest line, `report` renders the full
//! digest (text or fixed-field-order JSON). The preset fixes the fleet
//! shape, so `--scale`/`--racks`/`--homes`/`--cons`/`--vms` conflict
//! with it; `--seed` and `--jobs` compose.

pub mod args;
pub mod report;

use args::Args;
use oasis_cluster::experiments::{run_week_on, Scale};
use oasis_cluster::scenarios;
use oasis_cluster::shard::{planner_scorecard, run_datacenter_day, DatacenterConfig, PlannerScope};
use oasis_cluster::{ClusterConfig, ClusterSim, ScenarioSpec};
use oasis_core::PolicyKind;
use oasis_faults::{FaultProfile, FaultSchedule};
use oasis_migration::lab::{LabOptions, MicroLab};
use oasis_power::MemoryServerProfile;
use oasis_sim::{ModelFidelity, SimDuration, WorkerPool};
use oasis_telemetry::{FoldedMetric, JsonlSink, Level, Telemetry};
use oasis_trace::{ActivityModel, DayKind, TraceSet};
use oasis_vm::apps::DesktopWorkload;
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: oasis <sim|week|micro|trace> [flags]\n\
         \n\
         oasis sim    --policy FulltoPartial --day weekday --homes 30 \\\n\
         \x20             --cons 4 --vms 30 --seed 1 [--interval-mins 5] \\\n\
         \x20             [--memserver-watts 42.2] [--faults schedule.txt] \\\n\
         \x20             [--fault-profile light|heavy] [--trace-out events.jsonl] \\\n\
         \x20             [--metrics-out metrics.prom] [--log-level debug] \\\n\
         \x20             [--scale paper|smoke|datacenter] [--racks N] \\\n\
         \x20             [--planner global|local] [--jobs N] [--scenario NAME]\n\
         oasis week   --policy FulltoPartial --seed 1 [--jobs N]\n\
         oasis micro  --seed 1 [--fidelity per-page|batched]\n\
         oasis report --policy FulltoPartial --day weekday --seed 1 \\\n\
         \x20             [--format text|json] [--top 10] [--wall true] \\\n\
         \x20             [--folded profile.folded] [--folded-metric wall|sim|calls] \\\n\
         \x20             [--audit-out audit.jsonl] [--out report.txt] \\\n\
         \x20             [--scale datacenter] [--racks N] [--planner global|local] \\\n\
         \x20             [--jobs N] [--scorecard true] [--scenario NAME]\n\
         oasis trace  generate --users 22 --weeks 17 --seed 1 --out traces.txt\n\
         oasis trace  stats traces.txt"
    );
    std::process::exit(2);
}

fn fail(msg: impl core::fmt::Display) -> ! {
    eprintln!("oasis: {msg}");
    std::process::exit(1);
}

/// Reads `path` to a string, failing with the path named.
fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

/// Writes `text` to `path`, failing with the path named.
fn write_file(path: &str, text: impl AsRef<[u8]>) {
    std::fs::write(path, text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

fn parse_day(s: &str) -> DayKind {
    match s.to_ascii_lowercase().as_str() {
        "weekday" | "wd" => DayKind::Weekday,
        "weekend" | "we" => DayKind::Weekend,
        other => fail(format!("unknown day kind {other:?}")),
    }
}

/// The deployment shape preset named by `--scale`, if any.
fn scale_from(args: &Args) -> Option<Scale> {
    args.get("scale").map(|s| match s.to_ascii_lowercase().as_str() {
        "paper" => Scale::PAPER,
        "smoke" => Scale::SMOKE,
        "datacenter" | "dc" => Scale::DATACENTER,
        other => fail(format!("unknown scale {other:?} (paper|smoke|datacenter)")),
    })
}

/// Racks requested by `--racks`, defaulting to the `--scale` preset's
/// count (1 without a preset). More than one rack routes the command
/// through the sharded datacenter tier.
fn racks_from(args: &Args) -> u32 {
    let default = scale_from(args).map_or(1, |s| s.racks);
    match args.get_or("racks", default).unwrap_or_else(|e| fail(e)) {
        0 => fail("--racks wants a count ≥ 1"),
        racks => racks,
    }
}

/// The scenario preset named by `--scenario`, with the registry listed
/// on an unknown name.
fn scenario_from(args: &Args) -> Option<ScenarioSpec> {
    let name = args.get("scenario")?;
    Some(scenarios::find(name).unwrap_or_else(|| {
        fail(format!("unknown scenario {name:?} (registered: {})", scenarios::names().join(", ")))
    }))
}

/// Epoch-planner policy requested by `--planner` (global by default).
fn planner_from(args: &Args) -> PlannerScope {
    match args.get("planner") {
        Some(p) => PlannerScope::parse(p)
            .unwrap_or_else(|| fail(format!("unknown planner {p:?} (global|local)"))),
        None => PlannerScope::default(),
    }
}

fn cluster_config(args: &Args) -> ClusterConfig {
    let policy: PolicyKind = args
        .get("policy")
        .map(|p| p.parse().unwrap_or_else(|e| fail(e)))
        .unwrap_or(PolicyKind::FullToPartial);
    let day = parse_day(args.get("day").unwrap_or("weekday"));
    // `--scale` swaps the shape defaults; explicit --homes/--cons/--vms
    // still win. `--racks` folds into the preset first so the
    // per-rack memory and consolidation defaults track the effective
    // tier (multi-rack presets run sparse 32 GiB micro-racks).
    let scale = scale_from(args)
        .map(|s| Scale { racks: args.get_or("racks", s.racks).unwrap_or_else(|e| fail(e)), ..s });
    let (homes, cons, vms) = match scale {
        Some(s) => (s.home_hosts, s.default_cons(), s.vms_per_host),
        None => (30, 4, 30),
    };
    let mut builder = ClusterConfig::builder()
        .policy(policy)
        .day(day)
        .home_hosts(args.get_or("homes", homes).unwrap_or_else(|e| fail(e)))
        .consolidation_hosts(args.get_or("cons", cons).unwrap_or_else(|e| fail(e)))
        .vms_per_host(args.get_or("vms", vms).unwrap_or_else(|e| fail(e)))
        .seed(args.get_or("seed", 1).unwrap_or_else(|e| fail(e)))
        .interval(SimDuration::from_mins(
            args.get_or("interval-mins", 5).unwrap_or_else(|e| fail(e)),
        ));
    if let Some(s) = scale {
        builder = builder.host_memory(s.host_memory());
    }
    if let Some(watts) = args.get("memserver-watts") {
        let watts: f64 = watts.parse().unwrap_or_else(|_| fail("bad --memserver-watts"));
        builder = builder.memserver(MemoryServerProfile::with_budget_watts(watts));
    }
    if let Some(path) = args.get("trace") {
        let text = read_file(path);
        let set = TraceSet::from_text(&text).unwrap_or_else(|e| fail(e));
        builder = builder.trace(set);
    }
    if let Some(path) = args.get("faults") {
        let text = read_file(path);
        let schedule = FaultSchedule::from_text(&text).unwrap_or_else(|e| fail(e));
        builder = builder.faults(schedule);
    } else if let Some(profile) = args.get("fault-profile") {
        let profile = match profile.to_ascii_lowercase().as_str() {
            "light" => FaultProfile::light(),
            "heavy" => FaultProfile::heavy(),
            other => fail(format!("unknown fault profile {other:?} (light|heavy)")),
        };
        let cfg = builder.clone().build().unwrap_or_else(|e| fail(e));
        let schedule = FaultSchedule::random(
            profile,
            cfg.home_hosts + cfg.consolidation_hosts,
            SimDuration::from_hours(24),
            cfg.seed ^ 0xFA17,
        );
        builder = builder.faults(schedule);
    }
    builder.build().unwrap_or_else(|e| fail(e))
}

const BASE_FLAGS: &[&str] = &[
    "policy",
    "day",
    "homes",
    "cons",
    "vms",
    "seed",
    "interval-mins",
    "memserver-watts",
    "trace",
    "jobs",
];

/// The worker pool requested by `--jobs`, falling back to `OASIS_JOBS`
/// and then the machine's available parallelism.
fn pool_from(args: &Args) -> WorkerPool {
    match args.get("jobs") {
        Some(v) => {
            let jobs: usize = v.parse().unwrap_or_else(|_| fail("bad --jobs (want a count ≥ 1)"));
            WorkerPool::new(jobs)
        }
        None => WorkerPool::from_env(),
    }
}

const SIM_FLAGS: &[&str] = &[
    "policy",
    "day",
    "homes",
    "cons",
    "vms",
    "seed",
    "interval-mins",
    "memserver-watts",
    "trace",
    "faults",
    "fault-profile",
    "trace-out",
    "metrics-out",
    "log-level",
    "scale",
    "racks",
    "planner",
    "jobs",
    "scenario",
];

/// Builds the telemetry bus requested by `--trace-out`, `--metrics-out`
/// and `--log-level`. With none of them present, telemetry stays off and
/// the simulation runs exactly as before.
fn telemetry_from(args: &Args) -> Telemetry {
    let wants = args.get("trace-out").is_some()
        || args.get("metrics-out").is_some()
        || args.get("log-level").is_some();
    if !wants {
        return Telemetry::disabled();
    }
    let level = args
        .get("log-level")
        .map(|s| s.parse::<Level>().unwrap_or_else(|e| fail(e)))
        .unwrap_or(Level::Info);
    let telemetry = Telemetry::new(level);
    if let Some(path) = args.get("trace-out") {
        let sink =
            JsonlSink::create(Path::new(path)).unwrap_or_else(|e| fail(format!("{path}: {e}")));
        telemetry.attach(Box::new(sink));
    }
    telemetry
}

/// Writes the metrics registry to `path`: JSON when the path ends in
/// `.json`, Prometheus text exposition otherwise.
fn write_metrics(telemetry: &Telemetry, path: &str) {
    let text = if path.ends_with(".json") {
        telemetry.metrics().to_json()
    } else {
        telemetry.metrics().to_prometheus()
    };
    write_file(path, text);
}

/// Runs a sharded multi-rack day and prints the fleet summary:
/// totals, the epoch planner's rebalance ledger and SLA violations.
/// Deterministic for a fixed seed, byte-identical across `--jobs`
/// worker counts.
fn cmd_sim_datacenter(args: &Args, racks: u32) {
    for flag in ["trace-out", "metrics-out", "log-level"] {
        if args.get(flag).is_some() {
            fail(format!("--{flag} applies to the single-rack day (racks = 1)"));
        }
    }
    let dc = DatacenterConfig { base: cluster_config(args), racks, planner: planner_from(args) };
    let mut report = run_datacenter_day(&pool_from(args), &dc, &|| 0.0);
    println!(
        "datacenter {:<14} racks={} hosts={} vms={} planner={}",
        dc.base.policy, report.racks, report.hosts, report.vms, report.planner
    );
    println!(
        "savings={:>6.1}% baseline={:.1}kWh actual={:.1}kWh",
        report.energy_savings * 100.0,
        report.baseline_kwh,
        report.total_kwh
    );
    let sla = report.sla_violations(oasis_cluster::shard::SLA_THRESHOLD_SECS);
    println!(
        "rebalance: grants={} bytes={}   sla violations (>10s): {}",
        report.rebalance_grants, report.rebalance_bytes, sla
    );
}

/// Runs a named scenario from the registry and prints its digest line —
/// the same bytes the golden suite locks, so a CI leg can diff two
/// invocations directly.
fn cmd_sim_scenario(args: &Args, spec: &ScenarioSpec) {
    for flag in ["scale", "racks", "homes", "cons", "vms", "trace-out", "metrics-out", "log-level"]
    {
        if args.get(flag).is_some() {
            fail(format!("--{flag} conflicts with --scenario (the preset fixes the shape)"));
        }
    }
    let seed = args.get_or("seed", 1u64).unwrap_or_else(|e| fail(e));
    let report =
        scenarios::run_scenario_on(&pool_from(args), spec, seed).unwrap_or_else(|e| fail(e));
    println!("{}", report.digest());
    println!("guards: {}", spec.guards);
}

fn cmd_sim(args: Args) {
    if let Some(spec) = scenario_from(&args) {
        return cmd_sim_scenario(&args, &spec);
    }
    let racks = racks_from(&args);
    if racks > 1 {
        return cmd_sim_datacenter(&args, racks);
    }
    let cfg = cluster_config(&args);
    let telemetry = telemetry_from(&args);
    let mut sim = ClusterSim::new(cfg);
    sim.attach_telemetry(telemetry.clone());
    let mut report = sim.run_day();
    println!("{}", report.summary_line());
    println!(
        "zero-delay wake-ups: {:.0}%   p99 delay: {:.1}s   network: {:.1} GiB",
        report.zero_delay_fraction() * 100.0,
        report.transition_delays.quantile(0.99).unwrap_or(0.0),
        report.network_bytes().as_gib_f64(),
    );
    if !report.faults.is_empty() {
        println!("{}", report.faults.summary_line());
        let violations = report.integrity_violations();
        if !violations.is_empty() {
            fail(format!("placement integrity violated:\n{}", violations.join("\n")));
        }
    }
    if telemetry.is_enabled() {
        print!("{}", report.telemetry);
    }
    if let Some(path) = args.get("metrics-out") {
        write_metrics(&telemetry, path);
    }
}

const REPORT_FLAGS: &[&str] = &[
    "policy",
    "day",
    "homes",
    "cons",
    "vms",
    "seed",
    "interval-mins",
    "memserver-watts",
    "trace",
    "faults",
    "fault-profile",
    "format",
    "top",
    "wall",
    "folded",
    "folded-metric",
    "audit-out",
    "out",
    "scale",
    "racks",
    "planner",
    "jobs",
    "scorecard",
    "scenario",
];

/// Renders the datacenter digest (`oasis report` with racks > 1): fleet
/// totals plus one fixed-order line per rack. Byte-identical across
/// reruns and `--jobs` worker counts.
fn cmd_report_datacenter(args: &Args, racks: u32) {
    for flag in ["wall", "top", "folded", "folded-metric", "audit-out"] {
        if args.get(flag).is_some() {
            fail(format!("--{flag} applies to the single-rack report (racks = 1)"));
        }
    }
    let dc = DatacenterConfig { base: cluster_config(args), racks, planner: planner_from(args) };
    let mut report = run_datacenter_day(&pool_from(args), &dc, &|| 0.0);
    let text = match args.get("format").unwrap_or("text") {
        "text" => report::render_datacenter_text(&mut report),
        "json" => report::render_datacenter_json(&mut report),
        other => fail(format!("unknown report format {other:?} (text|json)")),
    };
    match args.get("out") {
        Some(path) => write_file(path, text),
        None => print!("{text}"),
    }
}

/// Prints the global-vs-local planner scorecard for the requested shape:
/// two fixed-order table lines, seeded and golden-testable.
fn cmd_report_scorecard(args: &Args, racks: u32) {
    let dc = DatacenterConfig { base: cluster_config(args), racks, planner: planner_from(args) };
    for row in planner_scorecard(&pool_from(args), &dc, &|| 0.0) {
        println!("{}", row.table_line());
    }
}

/// Renders a named scenario's digest (`oasis report --scenario`):
/// text by default, fixed-field-order JSON with `--format json`,
/// written to `--out` when given.
fn cmd_report_scenario(args: &Args, spec: &ScenarioSpec) {
    for flag in ["wall", "top", "folded", "folded-metric", "audit-out", "scale", "racks"] {
        if args.get(flag).is_some() {
            fail(format!("--{flag} conflicts with --scenario"));
        }
    }
    let seed = args.get_or("seed", 1u64).unwrap_or_else(|e| fail(e));
    let report =
        scenarios::run_scenario_on(&pool_from(args), spec, seed).unwrap_or_else(|e| fail(e));
    let text = match args.get("format").unwrap_or("text") {
        "text" => report::render_scenario_text(spec, &report),
        "json" => report::render_scenario_json(&report),
        other => fail(format!("unknown report format {other:?} (text|json)")),
    };
    match args.get("out") {
        Some(path) => write_file(path, text),
        None => print!("{text}"),
    }
}

fn cmd_report(args: Args) {
    if let Some(spec) = scenario_from(&args) {
        return cmd_report_scenario(&args, &spec);
    }
    let racks = racks_from(&args);
    if args.get_or("scorecard", false).unwrap_or_else(|e| fail(e)) {
        return cmd_report_scorecard(&args, racks);
    }
    if racks > 1 {
        return cmd_report_datacenter(&args, racks);
    }
    let cfg = cluster_config(&args);
    let include_wall = args.get_or("wall", false).unwrap_or_else(|e| fail(e));
    let top = args.get_or("top", 10usize).unwrap_or_else(|e| fail(e));
    let run = report::traced_run(cfg);
    if let Some(path) = args.get("folded") {
        let metric: FoldedMetric =
            args.get_or("folded-metric", FoldedMetric::SimMicros).unwrap_or_else(|e| fail(e));
        write_file(path, run.tree.folded(metric));
    }
    if let Some(path) = args.get("audit-out") {
        write_file(path, report::audit_jsonl(&run.records));
    }
    let text = match args.get("format").unwrap_or("text") {
        "text" => report::render_text(&run, top, include_wall),
        "json" => report::render_json(&run, top, include_wall),
        other => fail(format!("unknown report format {other:?} (text|json)")),
    };
    match args.get("out") {
        Some(path) => write_file(path, text),
        None => print!("{text}"),
    }
}

fn cmd_week(args: Args) {
    let cfg = cluster_config(&args);
    let week = run_week_on(&pool_from(&args), &cfg);
    for (i, day) in week.days.iter().enumerate() {
        println!("day {}: {}", i + 1, day.summary_line());
    }
    println!(
        "week: savings {:.1}%  baseline {:.1} kWh  managed {:.1} kWh",
        week.savings * 100.0,
        week.baseline_kwh,
        week.total_kwh
    );
}

fn cmd_micro(args: Args) {
    let seed = args.get_or("seed", 1u64).unwrap_or_else(|e| fail(e));
    let fidelity: ModelFidelity =
        args.get_or("fidelity", ModelFidelity::from_env()).unwrap_or_else(|e| fail(e));
    let mut lab = MicroLab::with_options(seed, LabOptions { fidelity, ..LabOptions::default() });
    lab.prime_os();
    lab.run_workload(&DesktopWorkload::workload1());
    lab.idle_wait(SimDuration::from_mins(5));
    println!("full migration baseline: {:.1}s", lab.full_migrate_baseline().duration.as_secs_f64());
    let first = lab.partial_migrate();
    println!(
        "partial #1: {:.1}s (upload {:.1}s)",
        first.outcome.total.as_secs_f64(),
        first.outcome.upload_time.as_secs_f64()
    );
    let idle = lab.consolidated_idle(SimDuration::from_mins(20));
    println!("consolidated 20 min: {} faults, {} fetched", idle.faults, idle.fetched);
    let reint = lab.reintegrate();
    println!(
        "reintegration: {:.1}s, {} dirty state",
        reint.total.as_secs_f64(),
        reint.network_bytes
    );
    lab.run_workload(&DesktopWorkload::workload2());
    lab.idle_wait(SimDuration::from_mins(5));
    let second = lab.partial_migrate();
    println!(
        "partial #2: {:.1}s (differential upload {:.1}s)",
        second.outcome.total.as_secs_f64(),
        second.outcome.upload_time.as_secs_f64()
    );
}

fn cmd_trace(mut argv: Vec<String>) {
    if argv.is_empty() {
        usage();
    }
    let sub = argv.remove(0);
    match sub.as_str() {
        "generate" => {
            let args =
                Args::parse(argv, &["users", "weeks", "seed", "out"]).unwrap_or_else(|e| fail(e));
            let users = args.get_or("users", 22usize).unwrap_or_else(|e| fail(e));
            let weeks = args.get_or("weeks", 17usize).unwrap_or_else(|e| fail(e));
            let seed = args.get_or("seed", 1u64).unwrap_or_else(|e| fail(e));
            let set = ActivityModel::new().generate_library(users, weeks, seed);
            let text = set.to_text();
            match args.get("out") {
                Some(path) => {
                    write_file(path, text);
                    println!("wrote {} user-days to {path}", set.len());
                }
                None => print!("{text}"),
            }
        }
        "stats" => {
            let args = Args::parse(argv, &[]).unwrap_or_else(|e| fail(e));
            let [path] = args.positional() else { usage() };
            let text = read_file(path);
            let set = TraceSet::from_text(&text).unwrap_or_else(|e| fail(e));
            for kind in [DayKind::Weekday, DayKind::Weekend] {
                let days = set.of_kind(kind);
                if days.is_empty() {
                    continue;
                }
                let mean: f64 =
                    days.iter().map(|d| d.active_fraction()).sum::<f64>() / days.len() as f64;
                println!("{kind:?}: {} user-days, mean activity {:.1}%", days.len(), mean * 100.0);
            }
        }
        _ => usage(),
    }
}

/// Entry point shared by every `oasis` binary front end.
pub fn run() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let command = argv.remove(0);
    match command.as_str() {
        "sim" => cmd_sim(Args::parse(argv, SIM_FLAGS).unwrap_or_else(|e| fail(e))),
        "week" => cmd_week(Args::parse(argv, BASE_FLAGS).unwrap_or_else(|e| fail(e))),
        "report" => cmd_report(Args::parse(argv, REPORT_FLAGS).unwrap_or_else(|e| fail(e))),
        "micro" => cmd_micro(Args::parse(argv, &["seed", "fidelity"]).unwrap_or_else(|e| fail(e))),
        "trace" => cmd_trace(argv),
        _ => usage(),
    }
}
