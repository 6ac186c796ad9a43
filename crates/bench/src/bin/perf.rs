//! Macro-benchmark: the simulator's wall-clock baseline.
//!
//! Times representative workloads and writes a machine-readable report
//! so the perf trajectory has a committed baseline and CI can catch
//! regressions:
//!
//! * **day** — one full simulated day (FulltoPartial, weekday, 4
//!   consolidation hosts), reported as wall seconds and simulated
//!   seconds per wall second;
//! * **paper day** — one §5.1-scale day (30 homes × 30 VMs) with the
//!   span profiler attached. Its per-phase wall breakdown is read off
//!   the profile tree: a `construct` scope that `perf` opens around
//!   `ClusterSim::new`, and the `run_day` phase scopes below it. This
//!   workload always runs at paper scale regardless of
//!   `OASIS_PERF_SCALE`: it is the throughput the paper reproduction
//!   actually cares about, and at ~tens of milliseconds warm it is
//!   cheap enough for every CI run. An unprofiled warmup day fills the
//!   process-wide trace-sampling cache first, so the timed day measures
//!   steady state;
//! * **sweep** — a figure8-style sweep (every figure-8 policy × the
//!   consolidation-host axis × `OASIS_RUNS` seeds), run once on one
//!   worker and once on `OASIS_JOBS` workers, each leg from a cold
//!   trace cache, reported as wall seconds, simulations per second, and
//!   parallel speedup;
//! * **datacenter day** — the sharded multi-rack tier (`day_dc_*`
//!   keys): a `Scale::DATACENTER`-shape day across `OASIS_DC_RACKS`
//!   racks (default 5,000 ≈ 25k hosts / 200k VMs) with the global epoch
//!   planner, run on the parallel pool and sequentially for the
//!   rack-parallel speedup, with per-rack wall percentiles.
//!
//! The report opens with its provenance: `nproc`, the CPU model and
//! `rustc -V`.
//!
//! Environment: `OASIS_PERF_SCALE=paper|smoke` picks the cluster scale
//! (default `smoke`, the committed-baseline configuration), `OASIS_RUNS`
//! the seeds per sweep point (default 5), `OASIS_JOBS` the parallel
//! worker count (default `min(4, nproc)`; a count above `nproc` is
//! refused), `OASIS_DC_RACKS` the datacenter rack count, and
//! `OASIS_PERF_OUT` the report path (default `BENCH_sim.json`).
//!
//! `perf --check <baseline.json>` re-runs the bench and exits non-zero
//! if a throughput drops below half the baseline's (a >2x regression)
//! or a paper-day phase breakdown does not re-sum to its wall, which is
//! what CI's bench-smoke job enforces.

use oasis_bench::timing::{monotonic_secs, wall};
use oasis_bench::{outln, runs, Reporter};
use oasis_cluster::experiments::{figure8_at, run_one_at, Scale, CONS_SWEEP};
use oasis_cluster::shard::{run_datacenter_day, DatacenterConfig, PlannerScope};
use oasis_cluster::{ClusterConfig, ClusterSim};
use oasis_core::PolicyKind;
use oasis_sim::pool::JOBS_ENV;
use oasis_sim::WorkerPool;
use oasis_telemetry::{Level, ProfileTree, Telemetry};
use oasis_trace::{clear_trace_cache, DayKind};

/// Simulated seconds in the day workload (288 five-minute intervals).
const DAY_SIM_SECS: f64 = 86_400.0;

/// Racks in the datacenter workload; `OASIS_DC_RACKS` overrides (CI's
/// bench-smoke leg runs 12 so the gate finishes in milliseconds).
const DC_RACKS_ENV: &str = "OASIS_DC_RACKS";

/// Absolute wall budget for the sharded datacenter day, scaled to the
/// rack count: a fixed construction allowance plus a per-rack slice.
/// The committed 5,000-rack baseline lands around 5.6 s sequentially on
/// a 2-vCPU Xeon VM, so the full tier keeps ~5× headroom while a
/// 12-rack CI leg still catches an order-of-magnitude regression.
fn dc_budget_secs(racks: u32) -> f64 {
    10.0 + 0.004 * f64::from(racks)
}

/// The paper day's phase keys (`day_paper_<key>_secs`) and the profile
/// tree path each one reads its total wall from.
const PAPER_PHASES: [(&str, &[&str]); 6] = [
    ("construct", &["construct"]),
    ("fault", &["run_day", "fault_service"]),
    ("activation", &["run_day", "activation"]),
    ("planner", &["run_day", "planner"]),
    ("fetch", &["run_day", "fetch"]),
    ("accounting", &["run_day", "accounting"]),
];

/// Total wall seconds of the tree node at `path`. A missing node is a
/// renamed or dropped scope, which would silently zero its phase key.
fn node_wall_secs(tree: &ProfileTree, path: &[&str]) -> f64 {
    let mut level = &tree.roots;
    let mut total_ns = 0;
    for name in path {
        let node = level.iter().find(|n| n.name == *name).unwrap_or_else(|| {
            panic!("the paper day's profile tree has no `{}` scope", path.join(";"))
        });
        total_ns = node.total_wall_ns;
        level = &node.children;
    }
    total_ns as f64 / 1e9
}

/// Wall-clock throughput measurements for one perf run.
struct PerfReport {
    scale_name: String,
    nproc: usize,
    cpu: String,
    rustc: String,
    jobs: usize,
    sweep_sims: usize,
    day_wall_secs: f64,
    day_sim_secs_per_sec: f64,
    day_paper_wall_secs: f64,
    day_paper_sim_secs_per_sec: f64,
    /// Profile-tree wall seconds per [`PAPER_PHASES`] entry.
    day_paper_phases: [f64; PAPER_PHASES.len()],
    /// Bracketed wall not captured by any phase node (loop overhead,
    /// report assembly); closes the books so phases + other ≈ total.
    day_paper_other_secs: f64,
    /// Fraction of the paper day's bracketed wall covered by the
    /// profile tree's top-level scopes.
    day_paper_span_coverage: f64,
    sweep_seq_wall_secs: f64,
    sweep_par_wall_secs: f64,
    sweep_seq_sims_per_sec: f64,
    sweep_par_sims_per_sec: f64,
    speedup: f64,
    /// The sharded datacenter day (`Scale::DATACENTER` shape,
    /// `OASIS_DC_RACKS` racks, global epoch planner).
    day_dc_racks: u32,
    day_dc_hosts: u32,
    day_dc_vms: u32,
    day_dc_jobs: usize,
    day_dc_wall_secs: f64,
    /// Aggregate simulated seconds per wall second: every rack advances
    /// one full day, so the numerator is `racks × 86_400`.
    day_dc_sim_secs_per_sec: f64,
    day_dc_seq_wall_secs: f64,
    day_dc_speedup: f64,
    /// Per-rack wall percentiles (construction + stepping + finish).
    day_dc_rack_p50_secs: f64,
    day_dc_rack_p99_secs: f64,
    day_dc_rebalance_grants: u64,
}

impl PerfReport {
    fn to_json(&self) -> String {
        let mut phases = String::new();
        for ((key, _), secs) in PAPER_PHASES.iter().zip(self.day_paper_phases) {
            phases.push_str(&format!("  \"day_paper_{key}_secs\": {secs:.4},\n"));
        }
        format!(
            "{{\n  \"bench\": \"perf\",\n  \"nproc\": {},\n  \"cpu\": \"{}\",\n  \
             \"rustc\": \"{}\",\n  \"scale\": \"{}\",\n  \"jobs\": {},\n  \
             \"sweep_sims\": {},\n  \"day_wall_secs\": {:.4},\n  \
             \"day_sim_secs_per_sec\": {:.1},\n  \"day_paper_wall_secs\": {:.4},\n  \
             \"day_paper_sim_secs_per_sec\": {:.1},\n{phases}  \
             \"day_paper_other_secs\": {:.4},\n  \"day_paper_span_coverage\": {:.4},\n  \
             \"sweep_seq_wall_secs\": {:.4},\n  \
             \"sweep_par_wall_secs\": {:.4},\n  \"sweep_seq_sims_per_sec\": {:.3},\n  \
             \"sweep_par_sims_per_sec\": {:.3},\n  \"speedup\": {:.2},\n  \
             \"day_dc_racks\": {},\n  \"day_dc_hosts\": {},\n  \"day_dc_vms\": {},\n  \
             \"day_dc_jobs\": {},\n  \"day_dc_wall_secs\": {:.4},\n  \
             \"day_dc_sim_secs_per_sec\": {:.1},\n  \"day_dc_seq_wall_secs\": {:.4},\n  \
             \"day_dc_speedup\": {:.2},\n  \"day_dc_rack_p50_secs\": {:.6},\n  \
             \"day_dc_rack_p99_secs\": {:.6},\n  \
             \"day_dc_rebalance_grants\": {},\n  \"day_dc_budget_secs\": {:.4}\n}}\n",
            self.nproc,
            json_escape(&self.cpu),
            json_escape(&self.rustc),
            self.scale_name,
            self.jobs,
            self.sweep_sims,
            self.day_wall_secs,
            self.day_sim_secs_per_sec,
            self.day_paper_wall_secs,
            self.day_paper_sim_secs_per_sec,
            self.day_paper_other_secs,
            self.day_paper_span_coverage,
            self.sweep_seq_wall_secs,
            self.sweep_par_wall_secs,
            self.sweep_seq_sims_per_sec,
            self.sweep_par_sims_per_sec,
            self.speedup,
            self.day_dc_racks,
            self.day_dc_hosts,
            self.day_dc_vms,
            self.day_dc_jobs,
            self.day_dc_wall_secs,
            self.day_dc_sim_secs_per_sec,
            self.day_dc_seq_wall_secs,
            self.day_dc_speedup,
            self.day_dc_rack_p50_secs,
            self.day_dc_rack_p99_secs,
            self.day_dc_rebalance_grants,
            dc_budget_secs(self.day_dc_racks),
        )
    }
}

/// Escapes `"` and `\\` for a JSON string body.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |m| m.trim().to_string())
}

/// The first line of `rustc -V`, or `unknown`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8_lossy(&out.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Parallel workers: `OASIS_JOBS` if set, else `min(4, nproc)`. A count
/// above `nproc` is refused, because oversubscribed workers measure the
/// scheduler rather than the simulator.
fn jobs_from_env(nproc: usize) -> Result<usize, String> {
    let Ok(v) = std::env::var(JOBS_ENV) else { return Ok(nproc.min(4)) };
    match v.parse::<usize>() {
        Ok(0) | Err(_) => Err(format!("invalid {JOBS_ENV} {v:?} (positive worker count)")),
        Ok(n) if n > nproc => {
            Err(format!("{JOBS_ENV}={n} exceeds nproc = {nproc}; refusing to oversubscribe"))
        }
        Ok(n) => Ok(n),
    }
}

/// Extracts a `"key": number` field from the flat report JSON.
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn scale_from_env() -> (Scale, String) {
    match std::env::var("OASIS_PERF_SCALE").as_deref() {
        Ok("paper") => (Scale::PAPER, "paper".to_string()),
        Ok("smoke") | Err(_) => (Scale::SMOKE, "smoke".to_string()),
        Ok(other) => {
            eprintln!("perf: unknown OASIS_PERF_SCALE {other:?} (paper|smoke)");
            std::process::exit(2);
        }
    }
}

fn run_perf(out: &Reporter) -> PerfReport {
    let (scale, scale_name) = scale_from_env();
    let runs = runs();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = jobs_from_env(nproc).unwrap_or_else(|err| {
        eprintln!("perf: {err}");
        std::process::exit(2);
    });
    let (cpu, rustc) = (cpu_model(), rustc_version());
    let sweep_sims = PolicyKind::FIGURE8.len() * CONS_SWEEP.len() * runs as usize;

    out.banner("perf", "macro-benchmark: day + figure8-style sweep");
    outln!(out, "(scale {scale_name}: {} homes × {} VMs;", scale.home_hosts, scale.vms_per_host);
    outln!(out, " {runs} runs per sweep point; {jobs} parallel workers)");
    outln!(out, "(nproc {nproc}; {cpu}; {rustc})");

    // Workload 1: one full simulated day.
    let (_, day_wall_secs) =
        wall(|| run_one_at(scale, PolicyKind::FullToPartial, DayKind::Weekday, 4, 1));
    let day_sim_secs_per_sec = DAY_SIM_SECS / day_wall_secs;
    outln!(out, "day:    {day_wall_secs:>8.3}s wall   {day_sim_secs_per_sec:>10.0} sim-secs/sec");
    out.sample("day", (day_wall_secs * 1e9) as u64, 1);

    // Workload 1b: the §5.1 rack, profiled per phase. Always run at
    // paper scale — this is the number the reproduction is judged on.
    // The unprofiled warmup day fills the process-wide trace-sampling
    // cache so the timed day measures the warm steady state. The
    // profiler's bus filters events at Warn and has no sinks, so the
    // cost measured is the simulator plus the profiler itself; the
    // profiler never feeds back into the simulation, so the profiled
    // run is byte-identical to a plain `run_day`.
    let paper_cfg = || ClusterConfig::builder().seed(1).build().expect("valid §5.1 configuration");
    ClusterSim::new(paper_cfg()).run_day();
    let telemetry = Telemetry::new(Level::Warn);
    let (_, day_paper_wall_secs) = wall(|| {
        let construct = telemetry.profile("construct");
        let mut sim = ClusterSim::new(paper_cfg());
        construct.end();
        sim.attach_telemetry(telemetry.clone());
        sim.run_day()
    });
    let tree = telemetry.profiler().snapshot();
    let day_paper_phases = PAPER_PHASES.map(|(_, path)| node_wall_secs(&tree, path));
    let phases_secs: f64 = day_paper_phases.iter().sum();
    let day_paper_other_secs = (day_paper_wall_secs - phases_secs).max(0.0);
    let day_paper_span_coverage = tree.total_wall_ns() as f64 / 1e9 / day_paper_wall_secs;
    let day_paper_sim_secs_per_sec = DAY_SIM_SECS / day_paper_wall_secs;
    outln!(
        out,
        "paper:  {day_paper_wall_secs:>8.3}s wall   {day_paper_sim_secs_per_sec:>10.0} sim-secs/sec  (30×30 rack, warm, profiled)"
    );
    let [construct, fault, activation, planner, fetch, accounting] = day_paper_phases;
    outln!(
        out,
        "        construct {construct:.4}s  fault {fault:.4}s  activation {activation:.4}s  planner {planner:.4}s"
    );
    outln!(
        out,
        "        fetch {fetch:.4}s  accounting {accounting:.4}s  other {day_paper_other_secs:.4}s  (phases+other {:.4}s)",
        phases_secs + day_paper_other_secs
    );
    for line in tree.render(true).lines() {
        outln!(out, "  {line}");
    }
    outln!(
        out,
        "        span self-times sum to {:.4}s — {:.1}% of the bracketed wall",
        tree.self_wall_ns_sum() as f64 / 1e9,
        day_paper_span_coverage * 100.0
    );
    out.sample("day_paper", (day_paper_wall_secs * 1e9) as u64, 1);

    // Workload 2: the sweep, sequential then parallel. The results must
    // agree exactly — the pool's order-preserving map is what makes the
    // parallel path trustworthy enough to benchmark. Both legs start
    // from a cold trace cache: a leg that inherits the other's
    // synthesized corpora would inflate the speedup.
    let seq = WorkerPool::sequential();
    let par = WorkerPool::new(jobs);
    clear_trace_cache();
    let (seq_points, sweep_seq_wall_secs) =
        wall(|| figure8_at(&seq, scale, DayKind::Weekday, runs));
    clear_trace_cache();
    let (par_points, sweep_par_wall_secs) =
        wall(|| figure8_at(&par, scale, DayKind::Weekday, runs));
    assert_eq!(seq_points, par_points, "parallel sweep diverged from sequential");

    let sweep_seq_sims_per_sec = sweep_sims as f64 / sweep_seq_wall_secs;
    let sweep_par_sims_per_sec = sweep_sims as f64 / sweep_par_wall_secs;
    let speedup = sweep_seq_wall_secs / sweep_par_wall_secs;
    outln!(
        out,
        "sweep:  {sweep_seq_wall_secs:>8.3}s seq    {sweep_seq_sims_per_sec:>10.2} sims/sec  ({sweep_sims} sims)"
    );
    outln!(
        out,
        "        {sweep_par_wall_secs:>8.3}s par    {sweep_par_sims_per_sec:>10.2} sims/sec  ({speedup:.2}x speedup)"
    );
    out.sample("sweep_seq", (sweep_seq_wall_secs * 1e9) as u64, 1);
    out.sample("sweep_par", (sweep_par_wall_secs * 1e9) as u64, 1);

    // Workload 3: the sharded datacenter day. Rack shape comes from
    // `Scale::DATACENTER`; `OASIS_DC_RACKS` scales the rack count down
    // for CI. Pinned to the global epoch planner — the configuration
    // the headline number is quoted for — and run once on the parallel
    // pool and once sequentially for the rack-parallel speedup. The
    // shard equivalence suite locks both runs byte-identical, so the
    // comparison is pure scheduling.
    let dc_racks = match std::env::var(DC_RACKS_ENV) {
        Ok(v) => match v.parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("perf: invalid {DC_RACKS_ENV} {v:?} (positive rack count)");
                std::process::exit(2);
            }
        },
        Err(_) => Scale::DATACENTER.racks,
    };
    let dc_scale = Scale { racks: dc_racks, ..Scale::DATACENTER };
    let dc = DatacenterConfig::at(dc_scale, PolicyKind::FullToPartial, DayKind::Weekday, 1)
        .planner(PlannerScope::Global);
    let (dc_report, day_dc_wall_secs) =
        wall(|| run_datacenter_day(&WorkerPool::new(jobs), &dc, &monotonic_secs));
    let (_, day_dc_seq_wall_secs) =
        wall(|| run_datacenter_day(&WorkerPool::sequential(), &dc, &monotonic_secs));
    let day_dc_sim_secs_per_sec = f64::from(dc_racks) * DAY_SIM_SECS / day_dc_wall_secs;
    let day_dc_speedup = day_dc_seq_wall_secs / day_dc_wall_secs;
    let mut rack_walls = dc_report.rack_wall_secs.clone();
    rack_walls.sort_by(f64::total_cmp);
    let day_dc_rack_p50_secs = rack_walls[rack_walls.len() / 2];
    let day_dc_rack_p99_secs = rack_walls[((rack_walls.len() - 1) as f64 * 0.99).round() as usize];
    outln!(
        out,
        "dc:     {day_dc_wall_secs:>8.3}s wall   {day_dc_sim_secs_per_sec:>10.0} sim-secs/sec  \
         ({} racks = {} hosts / {} VMs)",
        dc_report.racks,
        dc_report.hosts,
        dc_report.vms
    );
    outln!(
        out,
        "        {day_dc_seq_wall_secs:>8.3}s seq    ({day_dc_speedup:.2}x speedup on {jobs} \
         workers)  rack p50 {day_dc_rack_p50_secs:.4}s  p99 {day_dc_rack_p99_secs:.4}s  \
         grants {}",
        dc_report.rebalance_grants
    );
    out.sample("day_dc", (day_dc_wall_secs * 1e9) as u64, 1);

    PerfReport {
        scale_name,
        nproc,
        cpu,
        rustc,
        jobs,
        sweep_sims,
        day_wall_secs,
        day_sim_secs_per_sec,
        day_paper_wall_secs,
        day_paper_sim_secs_per_sec,
        day_paper_phases,
        day_paper_other_secs,
        day_paper_span_coverage,
        sweep_seq_wall_secs,
        sweep_par_wall_secs,
        sweep_seq_sims_per_sec,
        sweep_par_sims_per_sec,
        speedup,
        day_dc_racks: dc_report.racks,
        day_dc_hosts: dc_report.hosts,
        day_dc_vms: dc_report.vms,
        day_dc_jobs: jobs,
        day_dc_wall_secs,
        day_dc_sim_secs_per_sec,
        day_dc_seq_wall_secs,
        day_dc_speedup,
        day_dc_rack_p50_secs,
        day_dc_rack_p99_secs,
        day_dc_rebalance_grants: dc_report.rebalance_grants,
    }
}

/// Compares a fresh run against a committed baseline; a >2x throughput
/// drop on either workload fails the check.
fn check(report: &PerfReport, baseline_path: &str, out: &Reporter) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("perf: cannot read baseline {baseline_path}: {err}");
            return false;
        }
    };
    let mut ok = true;
    for (name, current, key) in [
        ("day", report.day_sim_secs_per_sec, "day_sim_secs_per_sec"),
        ("day(paper)", report.day_paper_sim_secs_per_sec, "day_paper_sim_secs_per_sec"),
        ("sweep(par)", report.sweep_par_sims_per_sec, "sweep_par_sims_per_sec"),
    ] {
        let Some(base) = json_f64(&text, key) else {
            eprintln!("perf: baseline {baseline_path} is missing {key}");
            ok = false;
            continue;
        };
        let ratio = base / current.max(1e-12);
        if ratio > 2.0 {
            eprintln!(
                "perf: REGRESSION on {name}: {current:.2} vs baseline {base:.2} ({ratio:.2}x slower)"
            );
            ok = false;
        } else {
            outln!(out, "check {name}: {current:.2} vs baseline {base:.2} — ok");
        }
    }

    // The paper-day phase breakdown must account for the bracketed
    // wall: the tree's phase nodes plus the `other` residual re-sum to
    // the total (±5%, with an absolute floor for very fast machines
    // where the 4-decimal rounding dominates). `other` is clamped at
    // zero, so phases that exceed the wall fail here. A baseline
    // missing any phase key fails too.
    let current_json = report.to_json();
    for (label, text) in [("baseline", text.as_str()), ("current", current_json.as_str())] {
        let mut missing = Vec::new();
        let mut read = |key: String| {
            json_f64(text, &key).unwrap_or_else(|| {
                missing.push(key);
                0.0
            })
        };
        let total = read("day_paper_wall_secs".to_string());
        let sum: f64 = PAPER_PHASES
            .iter()
            .map(|(key, _)| *key)
            .chain(["other"])
            .map(|key| read(format!("day_paper_{key}_secs")))
            .sum();
        if !missing.is_empty() {
            eprintln!("perf: {label} is missing {}", missing.join(", "));
            ok = false;
            continue;
        }
        let tolerance = (total * 0.05).max(0.002);
        if (sum - total).abs() > tolerance {
            eprintln!(
                "perf: phase accounting broken in {label}: phases+other {sum:.4}s \
                 vs day_paper_wall_secs {total:.4}s"
            );
            ok = false;
        } else {
            outln!(out, "check phases({label}): {sum:.4}s ≈ {total:.4}s — ok");
        }
    }

    // Datacenter-day gates. The absolute wall budget scales with the
    // rack count, so it applies at any `OASIS_DC_RACKS`; the throughput
    // comparison only makes sense against a baseline of the same rack
    // count (CI's 12-rack smoke leg skips it against the committed
    // 5,000-rack baseline).
    let dc_budget = dc_budget_secs(report.day_dc_racks);
    if report.day_dc_wall_secs > dc_budget {
        eprintln!(
            "perf: datacenter day over budget: {:.4}s > {dc_budget:.4}s ({} racks)",
            report.day_dc_wall_secs, report.day_dc_racks
        );
        ok = false;
    } else {
        outln!(
            out,
            "check day(dc) budget: {:.4}s ≤ {dc_budget:.4}s ({} racks) — ok",
            report.day_dc_wall_secs,
            report.day_dc_racks
        );
    }
    match json_f64(&text, "day_dc_racks") {
        Some(base_racks) if base_racks == f64::from(report.day_dc_racks) => {
            let base = json_f64(&text, "day_dc_sim_secs_per_sec").unwrap_or(0.0);
            let ratio = base / report.day_dc_sim_secs_per_sec.max(1e-12);
            if ratio > 2.0 {
                eprintln!(
                    "perf: REGRESSION on day(dc): {:.2} vs baseline {base:.2} ({ratio:.2}x slower)",
                    report.day_dc_sim_secs_per_sec
                );
                ok = false;
            } else {
                outln!(
                    out,
                    "check day(dc): {:.2} vs baseline {base:.2} — ok",
                    report.day_dc_sim_secs_per_sec
                );
            }
        }
        Some(_) => outln!(out, "check day(dc): baseline rack count differs — skipped"),
        None => outln!(out, "check day(dc): baseline has no day_dc keys — skipped"),
    }
    // Rack-parallel speedup is only measurable with real cores behind
    // the pool: gate it when the run had ≥8 workers, so single-core CI
    // boxes and reduced-jobs runs don't fail on scheduling noise.
    if report.day_dc_jobs >= 8 {
        if report.day_dc_speedup < 4.0 {
            eprintln!(
                "perf: datacenter rack parallelism under 4x on {} workers: {:.2}x",
                report.day_dc_jobs, report.day_dc_speedup
            );
            ok = false;
        } else {
            outln!(
                out,
                "check day(dc) speedup: {:.2}x on {} workers — ok",
                report.day_dc_speedup,
                report.day_dc_jobs
            );
        }
    } else {
        outln!(
            out,
            "check day(dc) speedup: {:.2}x on {} workers (<8, not gated)",
            report.day_dc_speedup,
            report.day_dc_jobs
        );
    }
    ok
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let baseline = match argv.as_slice() {
        [] => None,
        [flag, path] if flag == "--check" => Some(path.clone()),
        _ => {
            eprintln!("usage: perf [--check BASELINE.json]");
            std::process::exit(2);
        }
    };

    let out = Reporter::new("perf");
    let report = run_perf(&out);

    let out_path = std::env::var("OASIS_PERF_OUT").unwrap_or_else(|_| "BENCH_sim.json".to_string());
    if let Err(err) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("perf: cannot write {out_path}: {err}");
        std::process::exit(1);
    }
    outln!(out, "wrote {out_path}");

    if let Some(path) = baseline {
        if !check(&report, &path, &out) {
            std::process::exit(1);
        }
        outln!(out, "no >2x regression vs {path}");
    }
}
