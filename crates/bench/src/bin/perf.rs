//! Macro-benchmark: the simulator's wall-clock baseline.
//!
//! Times two representative workloads and writes a machine-readable
//! report so the perf trajectory has a committed baseline and CI can
//! catch regressions:
//!
//! * **day** — one full simulated day (FulltoPartial, weekday, 4
//!   consolidation hosts), reported as wall seconds and simulated
//!   seconds per wall second;
//! * **paper day** — one §5.1-scale day (30 homes × 30 VMs) with a
//!   per-phase wall breakdown from [`DayPhases`]. This workload always
//!   runs at paper scale regardless of `OASIS_PERF_SCALE`: it is the
//!   throughput the paper reproduction actually cares about, and at
//!   ~tens of milliseconds warm it is cheap enough for every CI run.
//!   An untimed warmup day fills the process-wide trace-sampling cache
//!   first, so the timed day measures steady state;
//! * **sweep** — a figure8-style sweep (every figure-8 policy × the
//!   consolidation-host axis × `OASIS_RUNS` seeds), run once on one
//!   worker and once on `OASIS_JOBS` workers (default 4), reported as
//!   wall seconds, simulations per second, and parallel speedup;
//! * **datacenter day** — the sharded multi-rack tier (`day_dc_*`
//!   keys): a `Scale::DATACENTER`-shape day across `OASIS_DC_RACKS`
//!   racks (default 5,000 ≈ 25k hosts / 200k VMs) with the global epoch
//!   planner, run on the parallel pool and sequentially for the
//!   rack-parallel speedup, with per-rack wall percentiles.
//!
//! Environment: `OASIS_PERF_SCALE=paper|smoke` picks the cluster scale
//! (default `smoke`, the committed-baseline configuration), `OASIS_RUNS`
//! the seeds per sweep point (default 5), `OASIS_JOBS` the parallel
//! worker count (default 4), `OASIS_DC_RACKS` the datacenter rack count,
//! and `OASIS_PERF_OUT` the report path (default `BENCH_sim.json`).
//!
//! `perf --check <baseline.json>` re-runs the bench and exits non-zero
//! if either throughput drops below half the baseline's (a >2x
//! regression), which is what CI's bench-smoke job enforces.

use oasis_bench::timing::{monotonic_secs, wall};
use oasis_bench::{outln, runs, Reporter};
use oasis_cluster::experiments::{figure8_at, run_one_at, Scale, CONS_SWEEP};
use oasis_cluster::shard::{run_datacenter_day, DatacenterConfig, PlannerScope};
use oasis_cluster::{ClusterConfig, ClusterSim, DayPhases};
use oasis_core::PolicyKind;
use oasis_sim::pool::JOBS_ENV;
use oasis_sim::WorkerPool;
use oasis_telemetry::{Level, Telemetry};
use oasis_trace::DayKind;

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

/// Wall-clock throughput measurements for one perf run.
struct PerfReport {
    scale_name: String,
    jobs: usize,
    sweep_sims: usize,
    day_wall_secs: f64,
    day_sim_secs_per_sec: f64,
    day_paper_wall_secs: f64,
    day_paper_sim_secs_per_sec: f64,
    day_paper_phases: DayPhases,
    /// Bracketed wall not captured by any phase bucket (loop overhead,
    /// report assembly); closes the books so phases + other ≈ total.
    day_paper_other_secs: f64,
    /// Fraction of a profiled paper day's bracketed wall covered by the
    /// span profiler's `run_day` tree.
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
        format!(
            "{{\n  \"bench\": \"perf\",\n  \"scale\": \"{}\",\n  \"jobs\": {},\n  \
             \"sweep_sims\": {},\n  \"day_wall_secs\": {:.4},\n  \
             \"day_sim_secs_per_sec\": {:.1},\n  \"day_paper_wall_secs\": {:.4},\n  \
             \"day_paper_sim_secs_per_sec\": {:.1},\n  \"day_paper_trace_secs\": {:.4},\n  \
             \"day_paper_construct_secs\": {:.4},\n  \"day_paper_fault_secs\": {:.4},\n  \
             \"day_paper_activation_secs\": {:.4},\n  \"day_paper_planner_secs\": {:.4},\n  \
             \"day_paper_fetch_secs\": {:.4},\n  \"day_paper_accounting_secs\": {:.4},\n  \
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
            self.scale_name,
            self.jobs,
            self.sweep_sims,
            self.day_wall_secs,
            self.day_sim_secs_per_sec,
            self.day_paper_wall_secs,
            self.day_paper_sim_secs_per_sec,
            self.day_paper_phases.trace_sampling_secs,
            self.day_paper_phases.construct_secs,
            self.day_paper_phases.fault_service_secs,
            self.day_paper_phases.activation_secs,
            self.day_paper_phases.planner_secs,
            self.day_paper_phases.fetch_secs,
            self.day_paper_phases.accounting_secs,
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
    let jobs = std::env::var(JOBS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);
    let sweep_sims = PolicyKind::FIGURE8.len() * CONS_SWEEP.len() * runs as usize;

    out.banner("perf", "macro-benchmark: day + figure8-style sweep");
    outln!(out, "(scale {scale_name}: {} homes × {} VMs;", scale.home_hosts, scale.vms_per_host);
    outln!(out, " {runs} runs per sweep point; {jobs} parallel workers)");

    // Workload 1: one full simulated day.
    let (_, day_wall_secs) =
        wall(|| run_one_at(scale, PolicyKind::FullToPartial, DayKind::Weekday, 4, 1));
    let day_sim_secs_per_sec = DAY_SIM_SECS / day_wall_secs;
    outln!(out, "day:    {day_wall_secs:>8.3}s wall   {day_sim_secs_per_sec:>10.0} sim-secs/sec");
    out.sample("day", (day_wall_secs * 1e9) as u64, 1);

    // Workload 1b: the §5.1 rack, profiled per phase. Always run at
    // paper scale — this is the number the reproduction is judged on.
    // The untimed warmup day fills the process-wide trace-sampling
    // cache so the timed day measures the warm steady state; the phase
    // clock never feeds back into the simulation, so the profiled run
    // is byte-identical to a plain `run_day`.
    let paper_cfg = || ClusterConfig::builder().seed(1).build().expect("valid §5.1 configuration");
    ClusterSim::new(paper_cfg()).run_day();
    let mut day_paper_phases = DayPhases::default();
    let (_, day_paper_wall_secs) = wall(|| {
        ClusterSim::new_timed(paper_cfg(), &monotonic_secs, &mut day_paper_phases)
            .run_day_timed(&monotonic_secs, &mut day_paper_phases)
    });
    let day_paper_sim_secs_per_sec = DAY_SIM_SECS / day_paper_wall_secs;
    outln!(
        out,
        "paper:  {day_paper_wall_secs:>8.3}s wall   {day_paper_sim_secs_per_sec:>10.0} sim-secs/sec  (30×30 rack, warm)"
    );
    outln!(
        out,
        "        trace {:.4}s  construct {:.4}s  fault {:.4}s  activation {:.4}s",
        day_paper_phases.trace_sampling_secs,
        day_paper_phases.construct_secs,
        day_paper_phases.fault_service_secs,
        day_paper_phases.activation_secs
    );
    let day_paper_other_secs = (day_paper_wall_secs - day_paper_phases.total_secs()).max(0.0);
    outln!(
        out,
        "        planner {:.4}s  fetch {:.4}s  accounting {:.4}s  other {:.4}s  (phases+other {:.4}s)",
        day_paper_phases.planner_secs,
        day_paper_phases.fetch_secs,
        day_paper_phases.accounting_secs,
        day_paper_other_secs,
        day_paper_phases.total_secs() + day_paper_other_secs
    );
    out.sample("day_paper", (day_paper_wall_secs * 1e9) as u64, 1);

    // Workload 1c: the same paper day with the hierarchical span
    // profiler attached (events filtered at Warn, no sinks — the cost
    // measured is the profiler itself). The tree's wall self-times must
    // account for the bracketed wall of the run they cover.
    let telemetry = Telemetry::new(Level::Warn);
    let mut profiled = ClusterSim::new(paper_cfg());
    profiled.attach_telemetry(telemetry.clone());
    let (_, profiled_wall_secs) = wall(move || profiled.run_day());
    let tree = telemetry.profiler().snapshot();
    let day_paper_span_coverage = if profiled_wall_secs > 0.0 {
        tree.total_wall_ns() as f64 / 1e9 / profiled_wall_secs
    } else {
        0.0
    };
    outln!(out, "profiled paper day ({profiled_wall_secs:.3}s bracketed wall):");
    for line in tree.render(true).lines() {
        outln!(out, "  {line}");
    }
    outln!(
        out,
        "        span self-times sum to {:.4}s — {:.1}% of the bracketed wall",
        tree.self_wall_ns_sum() as f64 / 1e9,
        day_paper_span_coverage * 100.0
    );

    // Workload 2: the sweep, sequential then parallel. The results must
    // agree exactly — the pool's order-preserving map is what makes the
    // parallel path trustworthy enough to benchmark.
    let seq = WorkerPool::sequential();
    let par = WorkerPool::new(jobs);
    let (seq_points, sweep_seq_wall_secs) =
        wall(|| figure8_at(&seq, scale, DayKind::Weekday, runs));
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
    // wall: named phases plus the `other` residual re-sum to the total
    // (±5%, with an absolute floor for very fast machines where the
    // 4-decimal rounding dominates).
    let current_json = report.to_json();
    for (label, text) in [("baseline", text.as_str()), ("current", current_json.as_str())] {
        let total = json_f64(text, "day_paper_wall_secs").unwrap_or(0.0);
        let sum: f64 = [
            "trace_secs",
            "construct_secs",
            "fault_secs",
            "activation_secs",
            "planner_secs",
            "fetch_secs",
            "accounting_secs",
            "other_secs",
        ]
        .iter()
        .map(|k| json_f64(text, &format!("day_paper_{k}")).unwrap_or(f64::NAN))
        .sum();
        if !sum.is_finite() {
            // Older baselines lack the residual key; the throughput
            // checks above still apply.
            outln!(out, "check phases({label}): missing keys — skipped");
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
