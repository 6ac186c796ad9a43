//! The workloads, their tasks, and the runner that executes, times and
//! checks one task.

use std::time::Instant;

use oasis_cluster::experiments::{Scale, CONS_SWEEP};
use oasis_cluster::scenarios::{self, run_scenario_on};
use oasis_cluster::{
    run_datacenter_day, ClusterConfig, ClusterSim, DatacenterConfig, DatacenterReport,
    PlannerScope, ScenarioReport, ScenarioSpec, SimReport,
};
use oasis_core::PolicyKind;
use oasis_mem::ByteSize;
use oasis_migration::lab::{ConsolidatedIdleReport, MicroLab, PartialReport, VmLocation};
use oasis_migration::reintegration::ReintegrationOutcome;
use oasis_migration::PrecopyOutcome;
use oasis_net::TrafficClass;
use oasis_sim::pool::WorkerPool;
use oasis_sim::SimDuration;
use oasis_trace::{DayKind, INTERVALS_PER_DAY};
use oasis_vm::apps::DesktopWorkload;

use crate::checks::{self, Checker};
use crate::spans::Tracer;

/// Racks in the `datacenter_day` fleet: a tenth of `Scale::DATACENTER`'s
/// 5,000, with the same rack shape. A full 200k-VM fleet-day takes ~4 s
/// on two workers, too long for a run to hold the ten-plus tasks beyond
/// a tail percentile; 500 racks (20k VMs) take 0.17–0.35 s.
pub const DC_RACKS: u32 = 500;

/// The registered scenarios `adversarial_day` cycles through.
pub const SCENARIOS: [&str; 6] = [
    "mixed_fleet",
    "green_refresh",
    "flash_crowd",
    "regional_outage",
    "patch_window",
    "follow_the_sun",
];

/// Distinct seeds the scenario cycle uses, each with its own trace
/// corpus: enough that a run's mix of cheap and costly seeds
/// barely moves from one run seed to the next, and no more than the
/// trace cache's 16 entries, so the corpora built in set-up stay cached.
const CORPUS_SEEDS: u64 = 12;

/// Lab seeds per cycle: more than a run completes, so every lab task
/// gets a seed of its own. Lab cost varies ~2× between seeds, and a
/// run's median must not hinge on a handful of them.
const LAB_SEEDS: u64 = 1024;

/// splitmix64, for the seed-derived task orders and probe inputs.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `seed`: a run stopped mid-cycle has
/// still sampled the whole grid evenly.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = mix(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Rack-sharded fleet-days on the worker pool.
    DatacenterDay,
    /// The §4.4 two-host lab cycle.
    LabCycle,
    /// The registered adversarial scenarios.
    AdversarialDay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::DatacenterDay, Workload::LabCycle, Workload::AdversarialDay];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DatacenterDay => "datacenter_day",
            Workload::LabCycle => "lab_cycle",
            Workload::AdversarialDay => "adversarial_day",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tail percentile the workload's task count supports in a run
    /// (see [`crate::report::tail`]).
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::AdversarialDay => 95.0,
            Workload::LabCycle => 90.0,
            Workload::DatacenterDay => 75.0,
        }
    }

    /// The task cycle the closed loop repeats, derived from `seed`.
    pub fn tasks(self, seed: u64) -> Vec<Task> {
        let mut tasks: Vec<Task> = match self {
            Workload::DatacenterDay => vec![Task::Fleet { seed, sequential: false }],
            Workload::LabCycle => (0..LAB_SEEDS)
                .map(|k| Task::Lab { seed: seed.wrapping_mul(LAB_SEEDS).wrapping_add(k) })
                .collect(),
            Workload::AdversarialDay => (0..CORPUS_SEEDS)
                .flat_map(|k| {
                    let seed = seed.wrapping_add(k);
                    (0..SCENARIOS.len()).map(move |scenario| Task::Scenario { scenario, seed })
                })
                .collect(),
        };
        shuffle(&mut tasks, mix(seed));
        tasks
    }

    /// Untimed set-up work: one task per trace corpus the cycle uses,
    /// which builds it, or one task where the cycle uses none.
    pub fn warmups(self, seed: u64) -> Vec<Task> {
        let tasks = self.tasks(seed);
        if self == Workload::LabCycle {
            return tasks[..1].to_vec();
        }
        let mut out: Vec<Task> = Vec::new();
        for task in tasks {
            if !out.iter().any(|t| t.seed() == task.seed()) {
                out.push(task);
            }
        }
        out
    }

    /// The canonical tasks whose digests are pinned in `golden.rs`; every
    /// run checks its workload's panel once after the timed loop.
    /// `adversarial_day`, which runs the same cluster and core layers as
    /// a §5.1 rack-day, also checks the seed-1 Figure 8 grid.
    pub fn canonical(self) -> Vec<Task> {
        match self {
            Workload::DatacenterDay => vec![Task::Fleet { seed: 1, sequential: false }],
            Workload::LabCycle => vec![Task::Lab { seed: 1 }],
            Workload::AdversarialDay => (1..=3)
                .flat_map(|seed| {
                    (0..SCENARIOS.len()).map(move |scenario| Task::Scenario { scenario, seed })
                })
                .chain(paper_grid())
                .collect(),
        }
    }
}

/// The §5.1 Figure 8 grid at seed 1: `PolicyKind::FIGURE8` × `CONS_SWEEP`.
pub fn paper_grid() -> impl Iterator<Item = Task> {
    CONS_SWEEP.into_iter().flat_map(|cons| {
        PolicyKind::FIGURE8.into_iter().map(move |policy| Task::Paper { policy, cons, seed: 1 })
    })
}

/// One unit of work a workload repeats.
#[derive(Clone, Copy, Debug)]
pub enum Task {
    /// One §5.1 rack-day (30 homes × 30 VMs, weekday).
    Paper {
        /// Consolidation policy.
        policy: PolicyKind,
        /// Consolidation hosts.
        cons: u32,
        /// Run seed.
        seed: u64,
    },
    /// One fleet-day of [`DC_RACKS`] racks, FulltoPartial, global epoch
    /// planner.
    Fleet {
        /// Run seed.
        seed: u64,
        /// On `WorkerPool::sequential()` instead of the run's pool.
        sequential: bool,
    },
    /// One §4.4 lab cycle.
    Lab {
        /// Lab seed.
        seed: u64,
    },
    /// One registered scenario.
    Scenario {
        /// Index into [`SCENARIOS`].
        scenario: usize,
        /// Scenario seed.
        seed: u64,
    },
}

impl Task {
    /// The checker's key for this task's output.
    pub fn key(&self) -> String {
        match *self {
            Task::Paper { policy, cons, seed } => checks::paper_key(policy, cons, seed),
            Task::Fleet { seed, .. } => checks::fleet_key(DC_RACKS, seed),
            Task::Lab { seed } => checks::lab_key(seed),
            Task::Scenario { scenario, seed } => checks::scenario_key(SCENARIOS[scenario], seed),
        }
    }

    fn seed(&self) -> u64 {
        match *self {
            Task::Paper { seed, .. }
            | Task::Fleet { seed, .. }
            | Task::Lab { seed }
            | Task::Scenario { seed, .. } => seed,
        }
    }
}

/// Everything one lab cycle reports.
#[derive(Clone, Debug)]
pub struct LabOutcome {
    /// The pre-copy baseline (Figure 5's full migration).
    pub precopy: PrecopyOutcome,
    /// First partial migration.
    pub partial1: PartialReport,
    /// 20 consolidated minutes.
    pub idle: ConsolidatedIdleReport,
    /// Reintegration.
    pub reintegration: ReintegrationOutcome,
    /// Second (differential) partial migration.
    pub partial2: PartialReport,
    /// Descriptor bytes of the first partial migration.
    pub descriptor: ByteSize,
    /// VM was on the consolidation host after the first partial.
    pub consolidated_after_partial: bool,
    /// VM was home after reintegration.
    pub home_after_reintegration: bool,
}

/// A task's output, for the probes and the accuracy table.
pub enum Output {
    /// §5.1 rack-day report.
    Paper(Box<SimReport>),
    /// Fleet-day report.
    Fleet(Box<DatacenterReport>),
    /// Lab cycle outcome.
    Lab(Box<LabOutcome>),
    /// Scenario digest report.
    Scenario(Box<ScenarioReport>),
}

/// Runs tasks on one worker pool, recording spans and checking outputs.
pub struct Runner {
    /// The run's worker pool (`min(nproc, 2)` workers unless overridden).
    pub pool: WorkerPool,
    /// Span recorder (off outside the traced half of a traced run).
    pub tracer: Tracer,
    /// Output checker.
    pub checker: Checker,
    /// Σ rack wall / (workers × fleet-day wall), per clocked fleet-day.
    pub fleet_busy: Vec<f64>,
    /// Per-rack wall times (ms) of every clocked fleet-day.
    pub rack_ms: Vec<f64>,
    scenarios: Vec<ScenarioSpec>,
}

impl Runner {
    /// A runner on `workers` threads checking against `checker`.
    pub fn new(workers: usize, checker: Checker) -> Runner {
        let scenarios = SCENARIOS
            .iter()
            .map(|name| {
                scenarios::find(name).unwrap_or_else(|| panic!("scenario {name} is registered"))
            })
            .collect();
        Runner {
            pool: WorkerPool::new(workers),
            tracer: Tracer::new(false),
            checker,
            fleet_busy: Vec::new(),
            rack_ms: Vec::new(),
            scenarios,
        }
    }

    /// Runs, times and checks one task; returns the host seconds spent
    /// in the simulator's calls and the task's output.
    pub fn run(&mut self, task: &Task, id: u64) -> (f64, Output) {
        let root = self.tracer.open(task_span(task), id);
        let key = task.key();
        let out = match *task {
            Task::Paper { policy, cons, seed } => self.paper(policy, cons, seed, id, &key),
            Task::Fleet { seed, sequential } => self.fleet(seed, sequential, false, id, &key),
            Task::Lab { seed } => self.lab(seed, id, &key),
            Task::Scenario { scenario, seed } => self.scenario(scenario, seed, id, &key),
        };
        self.tracer.close(root, 0);
        out
    }

    fn paper(
        &mut self,
        policy: PolicyKind,
        cons: u32,
        seed: u64,
        id: u64,
        key: &str,
    ) -> (f64, Output) {
        let scale = Scale::PAPER;
        let cfg = ClusterConfig::builder()
            .policy(policy)
            .day(DayKind::Weekday)
            .home_hosts(scale.home_hosts)
            .vms_per_host(scale.vms_per_host)
            .consolidation_hosts(cons)
            .seed(seed)
            .build()
            .expect("valid §5.1 configuration");
        let host_intervals = u64::from(scale.home_hosts + cons) * INTERVALS_PER_DAY as u64;
        let start = Instant::now();
        let span = self.tracer.open("cluster.construct", id);
        let sim = ClusterSim::new(cfg);
        self.tracer.close(span, 0);
        let span = self.tracer.open("cluster.run_day", id);
        let report = sim.run_day();
        self.tracer.close(span, host_intervals);
        let secs = start.elapsed().as_secs_f64();

        self.checker.record(key, &checks::paper_digest(&report), checks::sim_problems(&report));
        (secs, Output::Paper(Box::new(report)))
    }

    /// The parallel fleet-day for `seed` with a real clock, so the report
    /// carries each rack's wall time: the source of `shard.busy_ratio`
    /// and the rack percentiles. With a clock the simulator also times
    /// its own phases, so this day is slower than a task's; its span has
    /// a name of its own and stays out of `shard.fleet_day_ms`.
    pub fn clocked_fleet(&mut self, seed: u64, id: u64) -> Output {
        let key = Task::Fleet { seed, sequential: false }.key();
        self.fleet(seed, false, true, id, &key).1
    }

    fn fleet(
        &mut self,
        seed: u64,
        sequential: bool,
        clocked: bool,
        id: u64,
        key: &str,
    ) -> (f64, Output) {
        let scale = Scale { racks: DC_RACKS, ..Scale::DATACENTER };
        let dc = DatacenterConfig::at(scale, PolicyKind::FullToPartial, DayKind::Weekday, seed)
            .planner(PlannerScope::Global);
        let epoch = Instant::now();
        // Every other fleet-day gets the constant clock the shard driver
        // runs with by default.
        let real_clock = move || epoch.elapsed().as_secs_f64();
        let zero_clock = || 0.0;
        let clock: &(dyn Fn() -> f64 + Sync) = if clocked { &real_clock } else { &zero_clock };
        let sequential_pool;
        let pool = if sequential {
            sequential_pool = WorkerPool::sequential();
            &sequential_pool
        } else {
            &self.pool
        };

        let start = Instant::now();
        let name = match (sequential, clocked) {
            (_, true) => "shard.fleet_day_clocked",
            (true, false) => "shard.fleet_day_seq",
            (false, false) => "shard.fleet_day",
        };
        let span = self.tracer.open(name, id);
        let mut report = run_datacenter_day(pool, &dc, clock);
        self.tracer.close(span, u64::from(report.hosts) * INTERVALS_PER_DAY as u64);
        let secs = start.elapsed().as_secs_f64();

        if clocked {
            let busy: f64 = report.rack_wall_secs.iter().sum();
            self.fleet_busy.push(busy / (self.pool.jobs() as f64 * secs));
            self.rack_ms.extend(report.rack_wall_secs.iter().map(|s| s * 1e3));
        }
        let vms = scale.total_vms();
        let problems = checks::fleet_problems(&report, DC_RACKS, vms);
        let digest = checks::fleet_digest(&mut report);
        self.checker.record(key, &digest, problems);
        (secs, Output::Fleet(Box::new(report)))
    }

    fn lab(&mut self, seed: u64, id: u64, key: &str) -> (f64, Output) {
        let workload1 = DesktopWorkload::workload1();
        let workload2 = DesktopWorkload::workload2();
        let tr = &mut self.tracer;
        let start = Instant::now();
        let mut lab = MicroLab::new(seed);
        tr.time("migration.prime_os", id, || lab.prime_os());
        tr.time("migration.run_workload", id, || lab.run_workload(&workload1));
        tr.time("migration.idle_wait", id, || lab.idle_wait(SimDuration::from_mins(5)));
        let precopy = tr.time("migration.precopy", id, || lab.full_migrate_baseline());
        let partial1 = tr.time("migration.partial1", id, || lab.partial_migrate());
        let consolidated_after_partial = lab.location() == VmLocation::Consolidated;
        let span = tr.open("host.cons_idle", id);
        let idle = lab.consolidated_idle(SimDuration::from_mins(20));
        tr.close(span, idle.faults);
        let reintegration = tr.time("migration.reintegrate", id, || lab.reintegrate());
        let home_after_reintegration = lab.location() == VmLocation::Home;
        let descriptor = lab.traffic.total(TrafficClass::PartialDescriptor);
        tr.time("migration.run_workload", id, || lab.run_workload(&workload2));
        tr.time("migration.idle_wait", id, || lab.idle_wait(SimDuration::from_mins(5)));
        let partial2 = tr.time("migration.partial2", id, || lab.partial_migrate());
        let secs = start.elapsed().as_secs_f64();

        let outcome = LabOutcome {
            precopy,
            partial1,
            idle,
            reintegration,
            partial2,
            descriptor,
            consolidated_after_partial,
            home_after_reintegration,
        };
        let digest = checks::lab_digest(&outcome);
        self.checker.record(key, &digest, checks::lab_problems(&outcome));
        (secs, Output::Lab(Box::new(outcome)))
    }

    fn scenario(&mut self, scenario: usize, seed: u64, id: u64, key: &str) -> (f64, Output) {
        let spec = &self.scenarios[scenario];
        let start = Instant::now();
        let span = self.tracer.open(&format!("scenario.{}", spec.name), id);
        let result = run_scenario_on(&self.pool, spec, seed);
        self.tracer.close(span, 0);
        let secs = start.elapsed().as_secs_f64();
        let report = result
            .unwrap_or_else(|e| panic!("registered scenario {} does not build: {e:?}", spec.name));
        let problems = checks::scenario_problems(&report, spec);
        self.checker.record(key, &report.digest(), problems);
        (secs, Output::Scenario(Box::new(report)))
    }
}

/// Root span name of a task.
fn task_span(task: &Task) -> &'static str {
    match task {
        Task::Paper { .. } => "task.paper_day",
        Task::Fleet { .. } => "task.fleet_day",
        Task::Lab { .. } => "task.lab_cycle",
        Task::Scenario { .. } => "task.scenario",
    }
}
