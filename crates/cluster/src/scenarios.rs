//! Named stress-scenario registry and its golden-digest report.
//!
//! Each [`ScenarioSpec`] here is a declarative preset composing the
//! stress machinery grown across the roadmap — heterogeneous host
//! generations, mixed VM classes, flash-crowd spikes, regional
//! memory-server outages, patch-window cold restarts, and
//! timezone-staggered multi-rack days — into one named, seeded run:
//! `oasis sim --scenario <name>`. The registry exists to be *locked*:
//! `tests/scenario_golden.rs` pins each scenario's [`ScenarioReport`]
//! digest byte-for-byte per seed and across worker counts, so any change
//! to planner, energy accounting, fault recovery, or the shard tier
//! that shifts observable behaviour fails a named scenario instead of
//! slipping through.
//!
//! The digest is intentionally compact — headline energy, SLA
//! violations, migration bytes, fault/recovery/reboot counters, and the
//! per-generation energy split in integer millijoules — small enough to
//! hardcode as golden bytes, rich enough that a regression in any layer
//! moves at least one field.

use crate::config::{ActivitySpike, ConfigError, HostGeneration, ScenarioSpec};
use crate::results::SimReport;
use crate::shard::{run_datacenter_day, DatacenterConfig, PlannerScope};
use crate::sim::ClusterSim;
use oasis_core::PolicyKind;
use oasis_faults::{Fault, FaultSchedule, RebootSchedule};
use oasis_power::HostEnergyProfile;
use oasis_sim::pool::WorkerPool;
use oasis_sim::{SimDuration, SimTime};
use oasis_telemetry::FaultClass;
use oasis_vm::workload::WorkloadClass;

/// SLA threshold used by the scenario digest: an idle→active transition
/// slower than this is a violation. Matches the datacenter scorecard.
pub const SLA_THRESHOLD_SECS: f64 = 10.0;

// ---------------------------------------------------------------------------
// Host generations
// ---------------------------------------------------------------------------

/// The Table 1 reference machine (2.27 GHz Xeon era).
fn gen_table1() -> HostGeneration {
    HostGeneration::new("table1", HostEnergyProfile::table1())
}

/// A newer low-power generation: lower idle floor, faster transitions —
/// the fleet half a refresh cycle ahead of Table 1.
fn gen_lowpower() -> HostGeneration {
    HostGeneration::new(
        "lowpower",
        HostEnergyProfile {
            idle_watts: 64.8,
            per_active_vm_watts: 1.15,
            sleep_watts: 7.6,
            suspend_watts: 88.4,
            suspend_time: SimDuration::from_millis(2_400),
            resume_watts: 94.1,
            resume_time: SimDuration::from_millis(1_700),
        },
    )
}

/// A legacy generation past its refresh date: high idle draw, slow and
/// expensive S3 transitions. Consolidation pays most here.
fn gen_legacy() -> HostGeneration {
    HostGeneration::new(
        "legacy",
        HostEnergyProfile {
            idle_watts: 143.5,
            per_active_vm_watts: 2.45,
            sleep_watts: 19.2,
            suspend_watts: 171.6,
            suspend_time: SimDuration::from_millis(4_300),
            resume_watts: 186.9,
            resume_time: SimDuration::from_millis(3_600),
        },
    )
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Three host generations round-robin across the rack, all-desktop
/// load: the pure heterogeneity scenario.
pub fn mixed_fleet() -> ScenarioSpec {
    let mut s = ScenarioSpec::smoke(
        "mixed_fleet",
        "per-generation energy attribution stays exact when three power profiles share one rack",
    );
    s.generations = vec![gen_table1(), gen_lowpower(), gen_legacy()];
    s
}

/// A mid-refresh fleet (Table 1 + low-power) carrying a mixed VM
/// population: desktops alongside web front-ends and databases.
pub fn green_refresh() -> ScenarioSpec {
    let mut s = ScenarioSpec::smoke(
        "green_refresh",
        "mixed VM classes on a two-generation fleet keep planner decisions and energy split stable",
    );
    s.generations = vec![gen_table1(), gen_lowpower()];
    s.workload_mix = vec![
        (WorkloadClass::Desktop, 0.7),
        (WorkloadClass::WebServer, 0.2),
        (WorkloadClass::Database, 0.1),
    ];
    s
}

/// Flash crowd: 85 % of users go active together mid-morning for 90
/// minutes, forcing a mass wake out of the consolidated state.
pub fn flash_crowd() -> ScenarioSpec {
    let mut s = ScenarioSpec::smoke(
        "flash_crowd",
        "synchronized activity spike triggers mass wakes without losing VMs or energy exactness",
    );
    s.spike = Some(ActivitySpike {
        start_interval: 126, // 10:30
        duration_intervals: 18,
        participation: 0.85,
    });
    s
}

/// Regional outage: the memory servers of the first third of the home
/// hosts crash for two hours mid-morning while the same region's hosts
/// ignore wake requests — mass failover and re-homing.
pub fn regional_outage() -> ScenarioSpec {
    let mut s = ScenarioSpec::smoke(
        "regional_outage",
        "memory-server crashes plus wake failures across a host region recover every VM",
    );
    let start = SimTime::from_secs(36_000); // 10:00
    let duration = SimDuration::from_hours(2);
    let region = s.home_hosts / 3;
    let mut faults = Vec::new();
    for host in 0..region {
        faults.push(Fault {
            kind: FaultClass::MemServerCrash,
            host: Some(host),
            start,
            duration,
            severity: 0.0,
        });
        faults.push(Fault {
            kind: FaultClass::WakeFailure,
            host: Some(host),
            start,
            duration,
            severity: 0.0,
        });
    }
    s.faults = FaultSchedule::new(faults);
    s
}

/// Patch window: every host in the rack cold-restarts once, staggered
/// ten minutes apart starting at 02:00, each down four minutes.
pub fn patch_window() -> ScenarioSpec {
    let mut s = ScenarioSpec::smoke(
        "patch_window",
        "staggered cold restarts charge suspend/resume energy and surface downtime as SLA delay",
    );
    let hosts = s.home_hosts + s.consolidation_hosts;
    s.reboots = RebootSchedule::patch_window(
        hosts,
        SimTime::from_secs(7_200), // 02:00
        SimDuration::from_secs(600),
        SimDuration::from_secs(240),
    );
    s
}

/// Timezone-staggered diurnal load across three racks through the shard
/// driver and the global epoch planner.
pub fn follow_the_sun() -> ScenarioSpec {
    let mut s = ScenarioSpec::smoke(
        "follow_the_sun",
        "rack-sharded day with timezone-staggered traces stays byte-identical across worker counts",
    );
    s.racks = 3;
    s.policy = PolicyKind::FullToPartial;
    s
}

/// Every registered scenario, in registry order (the order the docs,
/// the CLI listing, and the golden suite all use).
pub fn all() -> Vec<ScenarioSpec> {
    vec![
        mixed_fleet(),
        green_refresh(),
        flash_crowd(),
        regional_outage(),
        patch_window(),
        follow_the_sun(),
    ]
}

/// Looks a scenario up by registry name.
pub fn find(name: &str) -> Option<ScenarioSpec> {
    all().into_iter().find(|s| s.name == name)
}

/// Registry names, for CLI listings and error messages.
pub fn names() -> Vec<&'static str> {
    all().iter().map(|s| s.name).collect()
}

// ---------------------------------------------------------------------------
// The digest
// ---------------------------------------------------------------------------

/// One generation's slice of the fleet's energy, in exact integer
/// millijoules summed from the per-host ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenerationEnergy {
    /// Generation name (`"uniform"` for a homogeneous fleet).
    pub name: String,
    /// Hosts of this generation across all racks.
    pub hosts: u32,
    /// Total energy charged to those hosts, integer millijoules.
    pub total_mj: u64,
}

/// The compact scenario digest the golden suite locks byte-for-byte.
///
/// Float fields are rendered at fixed precision by [`Self::digest`] /
/// [`Self::to_json`]; the integer fields (SLA violations, bytes,
/// fault/reboot counters, per-generation millijoules) are exact, so the
/// rendered bytes are reproducible wherever the run itself is.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// Registry name.
    pub name: String,
    /// Run seed.
    pub seed: u64,
    /// Racks simulated.
    pub racks: u32,
    /// Total hosts across all racks.
    pub hosts: u32,
    /// Total VMs across all racks.
    pub vms: u32,
    /// Unmanaged baseline energy (kWh).
    pub baseline_kwh: f64,
    /// Managed energy (kWh).
    pub total_kwh: f64,
    /// `1 − total/baseline`.
    pub energy_savings: f64,
    /// Idle→active transitions slower than [`SLA_THRESHOLD_SECS`].
    pub sla_violations: u64,
    /// Total bytes that crossed any network.
    pub migration_bytes: u64,
    /// Faults injected.
    pub faults_injected: u64,
    /// Successful fault recoveries.
    pub recoveries: u64,
    /// Scheduled cold restarts executed.
    pub reboots: u64,
    /// Exact per-generation energy split, in registry generation order.
    /// Sums to the fleet's ledger total by construction.
    pub generations: Vec<GenerationEnergy>,
}

impl ScenarioReport {
    /// The one-line text digest the golden suite and `oasis report
    /// --scenario` print. Fixed precision throughout — these bytes are
    /// the regression contract.
    pub fn digest(&self) -> String {
        let mut line = format!(
            "scenario={name} seed={seed} racks={racks} hosts={hosts} vms={vms} \
             baseline_kwh={base:.6} total_kwh={total:.6} savings={sav:.2}% \
             sla_violations={sla} migration_bytes={bytes} faults={faults} \
             recoveries={rec} reboots={reb}",
            name = self.name,
            seed = self.seed,
            racks = self.racks,
            hosts = self.hosts,
            vms = self.vms,
            base = self.baseline_kwh,
            total = self.total_kwh,
            sav = self.energy_savings * 100.0,
            sla = self.sla_violations,
            bytes = self.migration_bytes,
            faults = self.faults_injected,
            rec = self.recoveries,
            reb = self.reboots,
        );
        for g in &self.generations {
            line.push_str(&format!(" gen[{}]={}mj/{}hosts", g.name, g.total_mj, g.hosts));
        }
        line
    }

    /// Fixed-field-order JSON rendering of the digest.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"scenario\":\"{name}\",\"seed\":{seed},\"racks\":{racks},\
             \"hosts\":{hosts},\"vms\":{vms},\"baseline_kwh\":{base:.6},\
             \"total_kwh\":{total:.6},\"energy_savings\":{sav:.6},\
             \"sla_violations\":{sla},\"migration_bytes\":{bytes},\
             \"faults_injected\":{faults},\"recoveries\":{rec},\
             \"reboots\":{reb},\"generations\":[",
            name = self.name,
            seed = self.seed,
            racks = self.racks,
            hosts = self.hosts,
            vms = self.vms,
            base = self.baseline_kwh,
            total = self.total_kwh,
            sav = self.energy_savings,
            sla = self.sla_violations,
            bytes = self.migration_bytes,
            faults = self.faults_injected,
            rec = self.recoveries,
            reb = self.reboots,
        );
        for (i, g) in self.generations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"hosts\":{},\"total_mj\":{}}}",
                g.name, g.hosts, g.total_mj
            ));
        }
        s.push_str("]}");
        s
    }

    /// Sum of the per-generation split — equals the fleet ledger total.
    pub fn generation_total_mj(&self) -> u64 {
        self.generations.iter().map(|g| g.total_mj).sum()
    }
}

// ---------------------------------------------------------------------------
// Running a scenario
// ---------------------------------------------------------------------------

/// Folds one rack's per-host ledger into the per-generation split.
/// Integer millijoule sums in fixed host order — exact on any worker
/// count.
fn accumulate_generations(
    spec: &ScenarioSpec,
    seed: u64,
    report: &SimReport,
    split: &mut [GenerationEnergy],
    host_counts: &mut [u32],
) -> Result<(), ConfigError> {
    let cfg = spec.cluster_config(seed)?;
    let hosts = cfg.home_hosts + cfg.consolidation_hosts;
    for host in 0..hosts {
        host_counts[cfg.generation_of(host)] += 1;
    }
    for h in &report.energy.hosts {
        let g = cfg.generation_of(h.host);
        split[g].total_mj += h.total_mj();
    }
    Ok(())
}

/// Runs `spec` for one seed and reduces the outcome to its digest.
///
/// Single-rack specs run the monolithic day; multi-rack specs go
/// through [`run_datacenter_day`] on `pool` under the global epoch
/// planner.
/// Either way the digest is assembled from report fields that do not
/// depend on the worker count.
pub fn run_scenario_on(
    pool: &WorkerPool,
    spec: &ScenarioSpec,
    seed: u64,
) -> Result<ScenarioReport, ConfigError> {
    let gen_count = spec.generations.len().max(1);
    let mut split: Vec<GenerationEnergy> = (0..gen_count)
        .map(|g| GenerationEnergy {
            name: if spec.generations.is_empty() {
                "uniform".to_string()
            } else {
                spec.generations[g].name.clone()
            },
            hosts: 0,
            total_mj: 0,
        })
        .collect();
    let mut host_counts = vec![0u32; gen_count];

    let report = if spec.racks <= 1 {
        let mut report = ClusterSim::new(spec.cluster_config(seed)?).run_day();
        accumulate_generations(spec, seed, &report, &mut split, &mut host_counts)?;
        ScenarioReport {
            name: spec.name.to_string(),
            seed,
            racks: 1,
            hosts: spec.home_hosts + spec.consolidation_hosts,
            vms: spec.home_hosts * spec.vms_per_host,
            baseline_kwh: report.baseline_kwh,
            total_kwh: report.total_kwh,
            energy_savings: report.energy_savings,
            sla_violations: report.sla_violations(SLA_THRESHOLD_SECS),
            migration_bytes: report.network_bytes().as_bytes(),
            faults_injected: report.faults.injected,
            recoveries: report.faults.recoveries,
            reboots: report.migrations.reboots,
            generations: Vec::new(),
        }
    } else {
        let dc = DatacenterConfig {
            base: spec.cluster_config(seed)?,
            racks: spec.racks,
            planner: PlannerScope::Global,
        };
        let mut dcr = run_datacenter_day(pool, &dc, &|| 0.0);
        // Every rack shares the spec's shape, so the generation map is
        // identical per rack; accumulate each rack's ledger in order.
        for rack in &dcr.rack_reports {
            accumulate_generations(spec, seed, rack, &mut split, &mut host_counts)?;
        }
        ScenarioReport {
            name: spec.name.to_string(),
            seed,
            racks: spec.racks,
            hosts: dcr.hosts,
            vms: dcr.vms,
            baseline_kwh: dcr.baseline_kwh,
            total_kwh: dcr.total_kwh,
            energy_savings: dcr.energy_savings,
            sla_violations: dcr.sla_violations(SLA_THRESHOLD_SECS),
            migration_bytes: dcr.network_bytes(),
            faults_injected: dcr.rack_reports.iter().map(|r| r.faults.injected).sum(),
            recoveries: dcr.rack_reports.iter().map(|r| r.faults.recoveries).sum(),
            reboots: dcr.rack_reports.iter().map(|r| r.migrations.reboots).sum(),
            generations: Vec::new(),
        }
    };

    let mut report = report;
    for (g, count) in split.iter_mut().zip(host_counts) {
        g.hosts = count;
    }
    report.generations = split;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_meets_the_floor_and_names_are_unique() {
        let scenarios = all();
        assert!(scenarios.len() >= 6, "registry must hold at least 6 scenarios");
        let hetero = scenarios.iter().filter(|s| s.is_heterogeneous()).count();
        assert!(hetero >= 2, "at least 2 heterogeneous-fleet scenarios");
        let adversarial = scenarios
            .iter()
            .filter(|s| {
                s.spike.is_some() || !s.reboots.is_empty() || !s.faults.is_empty() || s.racks > 1
            })
            .count();
        assert!(adversarial >= 3, "at least 3 adversarial-day scenarios");
        let mut names: Vec<_> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario name");
        for s in &scenarios {
            assert!(!s.guards.is_empty(), "{} must state what it guards", s.name);
            s.cluster_config(1).expect("every scenario instantiates");
        }
    }

    #[test]
    fn find_round_trips_every_name() {
        for name in names() {
            assert_eq!(find(name).unwrap().name, name);
        }
        assert!(find("no_such_scenario").is_none());
    }

    #[test]
    fn digest_and_json_render_fixed_fields() {
        let r = ScenarioReport {
            name: "mixed_fleet".into(),
            seed: 1,
            racks: 1,
            hosts: 8,
            vms: 60,
            baseline_kwh: 15.0,
            total_kwh: 12.5,
            energy_savings: 1.0 - 12.5 / 15.0,
            sla_violations: 3,
            migration_bytes: 1234,
            faults_injected: 2,
            recoveries: 2,
            reboots: 8,
            generations: vec![
                GenerationEnergy { name: "table1".into(), hosts: 3, total_mj: 700 },
                GenerationEnergy { name: "lowpower".into(), hosts: 3, total_mj: 300 },
            ],
        };
        let d = r.digest();
        assert!(d.starts_with("scenario=mixed_fleet seed=1 racks=1 hosts=8 vms=60 "));
        assert!(d.contains("baseline_kwh=15.000000"));
        assert!(d.contains("savings=16.67%"));
        assert!(d.contains("gen[table1]=700mj/3hosts"));
        assert_eq!(r.generation_total_mj(), 1000);
        let j = r.to_json();
        assert!(j.starts_with("{\"scenario\":\"mixed_fleet\",\"seed\":1,"));
        assert!(j.contains("\"generations\":[{\"name\":\"table1\",\"hosts\":3,\"total_mj\":700}"));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn patch_window_covers_every_host_exactly_once() {
        let s = patch_window();
        assert_eq!(s.reboots.len() as u32, s.home_hosts + s.consolidation_hosts);
    }
}
