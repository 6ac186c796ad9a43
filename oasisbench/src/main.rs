//! End-to-end and per-layer benchmark of the Oasis simulator.
//!
//! ```text
//! cargo run --release --manifest-path oasisbench/Cargo.toml -- \
//!     --workload adversarial_day --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One process runs one workload as a closed loop on a single thread
//! (the simulator's own worker pool holds at most `min(nproc, 2)`
//! threads), checks every task's output, and prints every metric by
//! name with its unit. The last stdout line is the JSON result. With
//! `--trace 1` every task of the loop runs twice, traced and untraced,
//! the layer probes follow, and the per-layer metrics replace the
//! end-to-end ones. A fixed CPU loop timed before and after the run
//! shows how far the host's speed drifted meanwhile. `--self-test` shows that a perturbed pinned digest
//! is counted as a failure; `--print-golden` prints the pinned tables.
//! See `README.md` next to this file for the workloads and metrics.

mod checks;
mod golden;
mod probes;
mod report;
mod spans;
mod workloads;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use oasis_core::PolicyKind;
use oasis_trace::{clear_trace_cache, trace_cache_len};

use checks::{Checker, Golden};
use report::{median, peak_rss_mb, result_json, tail, Metric, Provenance};
use workloads::{mix, Output, Runner, Task, Workload};

/// Times the warmup is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// splitmix64 rounds in one timing of the reference loop (~18 ms on a
/// 2-vCPU Xeon VM).
const REF_ROUNDS: u64 = 4_000_000;
/// Timings of the reference loop on each side of the run; the median
/// is kept.
const REF_REPS: usize = 5;
/// Reference-loop drift above which a run's times are flagged: the
/// bound `BENCHMARK.json` sets on every end-to-end metric.
const DRIFT_FLAG: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: Option<usize>,
}

enum Mode {
    Measure(Args),
    SelfTest,
    PrintGolden,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: oasisbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--workers <n>]\n       \
         oasisbench --self-test | --print-golden",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    match argv {
        [flag] if flag == "--self-test" => return Ok(Mode::SelfTest),
        [flag] if flag == "--print-golden" => return Ok(Mode::PrintGolden),
        _ => {}
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut workers) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| bad("expected an unsigned integer"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds ≤ 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--workers" => {
                workers = Some(value.parse::<usize>().map_err(|_| bad("expected an integer"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Measure(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workers,
    }))
}

/// Worker threads for the run: `min(nproc, 2)` unless given, and never
/// more than `nproc` (oversubscription would measure the scheduler).
fn worker_count(requested: Option<usize>, nproc: usize) -> Result<usize, String> {
    match requested {
        None => Ok(nproc.min(2)),
        Some(0) => Err("--workers must be at least 1".to_string()),
        Some(n) if n > nproc => {
            Err(format!("--workers {n} exceeds nproc = {nproc}; refusing to oversubscribe"))
        }
        Some(n) => Ok(n),
    }
}

/// The checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// What one closed loop measured.
struct LoopRun {
    /// Host seconds of each task.
    samples: Vec<f64>,
    /// Wall seconds of the whole loop.
    wall: f64,
}

impl LoopRun {
    /// Tasks completed per second of the loop.
    fn rate(&self) -> f64 {
        self.samples.len() as f64 / self.wall
    }
}

/// Runs `tasks` in a closed loop for `seconds` (at least one task): each
/// task starts after the previous one returned.
fn closed_loop(runner: &mut Runner, tasks: &[Task], seconds: f64, next_id: &mut u64) -> LoopRun {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let task = &tasks[samples.len() % tasks.len()];
        samples.push(runner.run(task, *next_id).0);
        *next_id += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    LoopRun { samples, wall: start.elapsed().as_secs_f64() }
}

/// The traced run's closed loop: every task runs twice in a row, once
/// traced and once not, the order alternating from pair to pair, so
/// host drift and warm caches fall on both sides alike. Returns the
/// tracing overhead as traced ÷ untraced rate: the median over pairs of
/// untraced ÷ traced task time.
fn paired_loop(runner: &mut Runner, tasks: &[Task], seconds: f64, next_id: &mut u64) -> f64 {
    let start = Instant::now();
    let mut ratios = Vec::new();
    loop {
        let task = &tasks[ratios.len() % tasks.len()];
        let traced_first = ratios.len() % 2 == 0;
        let mut secs = [0.0; 2];
        for traced in [traced_first, !traced_first] {
            runner.tracer.set_enabled(traced);
            secs[usize::from(traced)] = runner.run(task, *next_id).0;
            *next_id += 1;
        }
        ratios.push(secs[0] / secs[1]);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    median(&ratios)
}

/// Host milliseconds of a fixed CPU-bound loop, the median of
/// [`REF_REPS`] timings. Timed before and after a run, it shows whether
/// the host's speed moved while the run measured.
fn reference_ms() -> f64 {
    let times: Vec<f64> = (0..REF_REPS)
        .map(|_| {
            let start = Instant::now();
            let mut z = 0u64;
            for i in 0..black_box(REF_ROUNDS) {
                z = mix(z ^ i);
            }
            black_box(z);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("oasisbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Measure(args) => match measure(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("oasisbench: {e}");
                ExitCode::from(2)
            }
        },
        Mode::SelfTest => {
            if self_test() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Mode::PrintGolden => {
            print_golden();
            ExitCode::SUCCESS
        }
    }
}

/// One measured run. Failed checks do not make it an error: they are
/// counted in the result line, whose `correct` is then false.
fn measure(args: &Args) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; pass --release".to_string());
    }
    // The simulator reads OASIS_* variables (engine, page model, jobs);
    // the benchmark measures its defaults only.
    let overrides: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("OASIS_")).collect();
    if !overrides.is_empty() {
        return Err(format!("unset {} to measure the simulator's defaults", overrides.join(", ")));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = worker_count(args.workers, nproc)?;
    let w = args.workload;
    let tasks = w.tasks(args.seed);
    let warmups = w.warmups(args.seed);
    let mut runner = Runner::new(workers, Checker::new(Golden::pinned()));
    let mut next_id = 0u64;
    let ref_before = reference_ms();

    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        clear_trace_cache();
        let start = Instant::now();
        for task in &warmups {
            runner.run(task, next_id);
            next_id += 1;
        }
        setup.push(start.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup);
    let corpora = trace_cache_len();

    println!(
        "oasisbench: workload={} seed={} seconds={} trace={} workers={workers} nproc={nproc} tasks/cycle={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tasks.len()
    );
    let (metrics, ref_after, lab) = if args.trace {
        let overhead = paired_loop(&mut runner, &tasks, args.seconds, &mut next_id);
        let ref_after = reference_ms();
        runner.tracer.set_enabled(true);
        let counts = probes::run(&mut runner, args.seed);
        print_self_times(&runner);
        let path = repo_root().join(".bench_out").join(format!(
            "spans-{}-seed{}.jsonl",
            w.name(),
            args.seed
        ));
        runner
            .tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans: {} written to {}", runner.tracer.spans().len(), path.display());
        let mut metrics = probes::layer_metrics(&runner, &counts, corpora, overhead);
        metrics.push(Metric::new("bench.ref_loop_ms", median(&[ref_before, ref_after]), "ms"));
        (metrics, ref_after, counts.lab)
    } else {
        let run = closed_loop(&mut runner, &tasks, args.seconds, &mut next_id);
        let ref_after = reference_ms();
        let tail = tail(&run.samples, w.tail_pct());
        println!(
            "tasks: {} in {:.3} s; task_tail_ms is p{} with {} tasks beyond it",
            run.samples.len(),
            run.wall,
            tail.pct,
            tail.beyond
        );
        let metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("tasks_per_s", run.rate(), "1/s"),
            Metric::new("task_p50_ms", median(&run.samples) * 1e3, "ms"),
            Metric::new("task_tail_ms", tail.value * 1e3, "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        ];
        (metrics, ref_after, None)
    };

    runner.tracer.set_enabled(false);
    let mut figure8 = Vec::new();
    for task in w.canonical() {
        if let (Task::Paper { policy, cons, .. }, (_, Output::Paper(r))) =
            (task, runner.run(&task, next_id))
        {
            figure8.push((policy, cons, r.energy_savings));
        }
        next_id += 1;
    }
    if args.trace {
        print_accuracy(w, lab.as_deref(), &figure8);
    }
    let drift = ref_after / ref_before - 1.0;
    println!(
        "drift: reference loop {ref_before:.3} ms before the run, {ref_after:.3} ms after ({:+.1}%){}",
        drift * 100.0,
        if drift.abs() > DRIFT_FLAG {
            "; the host's speed moved by more than the bound, so this run's times are suspect"
        } else {
            ""
        }
    );
    let c = &runner.checker;
    let failed_ratio = c.failed as f64 / c.attempted.max(1) as f64;
    for m in &metrics {
        println!("metric {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("metric {:<32} {failed_ratio:>16.6} ratio", "failed_ratio");
    for msg in &c.messages {
        println!("FAILED {msg}");
    }
    let provenance = Provenance::collect(&repo_root(), workers, nproc)
        .with("ref_ms_before", format!("{ref_before:.3}"))
        .with("ref_ms_after", format!("{ref_after:.3}"));
    println!("provenance {}", provenance.to_json());
    println!("{}", result_json(c.failed == 0, c.attempted, c.failed, &metrics));
    Ok(())
}

/// Simulated results beside the paper's reference values (EXPERIMENTS.md).
/// `lab` is the probe's lab cycle; `figure8` holds `(policy, cons,
/// savings)` of the seed-1 §5.1 cells the canonical panel ran.
fn print_accuracy(
    w: Workload,
    lab: Option<&workloads::LabOutcome>,
    figure8: &[(PolicyKind, u32, f64)],
) {
    let row = |what: &str, simulated: f64, paper: f64, unit: &str| {
        let err = (simulated - paper) / paper * 100.0;
        println!("accuracy {what:<34} simulated {simulated:>8.1} {unit:<3} paper {paper:>6.1} {unit:<3} error {err:+6.1}%");
    };
    match w {
        Workload::LabCycle => {
            let Some(lab) = lab else { return };
            println!("accuracy: §4.4 lab cycle (simulated time, seed-derived lab) vs the paper's Figure 5 and §4.4.3");
            row("full (pre-copy) migration", lab.precopy.duration.as_secs_f64(), 41.0, "s");
            row("partial migration #1", lab.partial1.outcome.total.as_secs_f64(), 15.7, "s");
            row("memory upload #1", lab.partial1.outcome.upload_time.as_secs_f64(), 10.2, "s");
            row("partial migration #2", lab.partial2.outcome.total.as_secs_f64(), 7.2, "s");
            row("memory upload #2 (differential)", lab.partial2.outcome.upload_time.as_secs_f64(), 2.2, "s");
            row("reintegration", lab.reintegration.total.as_secs_f64(), 3.7, "s");
            row("VM descriptor", lab.descriptor.as_mib_f64(), 16.0, "MiB");
            row("on-demand fetches", lab.idle.fetched.as_mib_f64(), 56.9, "MiB");
            row("reintegrated dirty state", lab.reintegration.network_bytes.as_mib_f64(), 175.3, "MiB");
        }
        Workload::AdversarialDay => {
            println!(
                "accuracy: the paper reports nothing for the adversarial scenarios; their outputs have no reference, so the model is unvalidated there"
            );
            println!("accuracy: Figure 8 weekday savings at 4 consolidation hosts (simulated, the pinned seed-1 §5.1 cells) vs the paper");
            // The paper draws NewHome on top of FulltoPartial.
            let paper = [6.0, 8.0, 28.0, 28.0];
            for (policy, paper) in PolicyKind::FIGURE8.into_iter().zip(paper) {
                if let Some(&(_, _, savings)) =
                    figure8.iter().find(|(p, cons, _)| *p == policy && *cons == 4)
                {
                    row(&format!("{policy} savings"), savings * 100.0, paper, "%");
                }
            }
        }
        Workload::DatacenterDay => println!(
            "accuracy: the paper reports nothing for datacenter_day; its outputs have no reference, so the model is unvalidated there"
        ),
    }
}

/// Per span name: calls, total and self time.
fn print_self_times(runner: &Runner) {
    println!("{:<28} {:>8} {:>12} {:>12}", "span", "calls", "total_ms", "self_ms");
    for (name, calls, total, own) in runner.tracer.summary() {
        println!("{name:<28} {calls:>8} {:>12.3} {:>12.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
}

/// Runs one canonical task per pinned table against the pinned digest
/// and against a perturbed copy; passes when the first counts no failure
/// and the second exactly one.
fn self_test() -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tasks = [
        Workload::AdversarialDay.canonical()[0],
        Task::Paper { policy: PolicyKind::FullToPartial, cons: 4, seed: 1 },
        Workload::LabCycle.canonical()[0],
        Workload::DatacenterDay.canonical()[0],
    ];
    let mut ok = true;
    for task in tasks {
        let key = task.key();
        let mut pinned = Runner::new(nproc.min(2), Checker::new(Golden::pinned()));
        pinned.run(&task, 0);
        let mut perturbed =
            Runner::new(nproc.min(2), Checker::new(Golden::pinned().perturbed(&key)));
        perturbed.run(&task, 0);
        let pass = pinned.checker.failed == 0 && perturbed.checker.failed == 1;
        println!(
            "self-test {key:<28} pinned digest: {} failed of {}; perturbed digest: {} failed of {} — {}",
            pinned.checker.failed,
            pinned.checker.attempted,
            perturbed.checker.failed,
            perturbed.checker.attempted,
            if pass { "ok" } else { "WRONG" }
        );
        ok &= pass;
    }
    ok
}

/// Prints the paper, lab and fleet tables of `golden.rs`.
fn print_golden() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut runner = Runner::new(nproc.min(2), Checker::new(Golden::default()));
    for (table, tasks) in [
        ("PAPER", workloads::paper_grid().collect::<Vec<_>>()),
        ("LAB", Workload::LabCycle.canonical()),
        ("FLEET", Workload::DatacenterDay.canonical()),
    ] {
        println!("pub const {table}: &[(&str, &str)] = &[");
        for task in tasks {
            let digest = match runner.run(&task, 0).1 {
                Output::Paper(r) => checks::paper_digest(&r),
                Output::Lab(lab) => checks::lab_digest(&lab),
                Output::Fleet(mut r) => checks::fleet_digest(&mut r),
                Output::Scenario(r) => r.digest(),
            };
            println!("    ({:?}, {digest:?}),", task.key());
        }
        println!("];");
    }
}
