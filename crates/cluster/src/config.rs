//! Cluster configuration (§5.1 defaults).

use oasis_core::{PlacementStrategy, PolicyKind};
use oasis_faults::{FaultSchedule, RebootSchedule};
use oasis_mem::ByteSize;
use oasis_power::{HostEnergyProfile, MemoryServerProfile};
use oasis_sim::SimDuration;
use oasis_trace::{DayKind, TraceSet};
use oasis_vm::workload::WorkloadClass;

/// Validation errors from the builder.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A host count of zero.
    NoHosts,
    /// No VMs configured.
    NoVms,
    /// Home hosts cannot physically hold their VMs.
    HomeOvercommitted {
        /// Bytes demanded by a home host's VMs.
        demand: ByteSize,
        /// Effective capacity of a home host.
        capacity: ByteSize,
    },
    /// Planning interval of zero.
    ZeroInterval,
    /// A scheduled reboot names a host outside the cluster.
    RebootOutOfRange {
        /// The offending host index.
        host: u32,
        /// Number of hosts in the cluster.
        hosts: u32,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::NoHosts => write!(f, "at least one home and one consolidation host"),
            ConfigError::NoVms => write!(f, "vms_per_host must be positive"),
            ConfigError::HomeOvercommitted { demand, capacity } => {
                write!(f, "home hosts hold {demand} of VMs but only {capacity} capacity")
            }
            ConfigError::ZeroInterval => write!(f, "planning interval must be positive"),
            ConfigError::RebootOutOfRange { host, hosts } => {
                write!(f, "reboot schedule names host {host} but the cluster has {hosts}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// One host generation in a heterogeneous fleet: a named Table 1-style
/// power profile. Hosts are assigned generations round-robin by host
/// index (homes first, then consolidation hosts), so any prefix of the
/// fleet mixes every generation and the mapping is a pure function of
/// the index — no RNG stream is consumed.
#[derive(Clone, Debug, PartialEq)]
pub struct HostGeneration {
    /// Display name ("gen1-2011", "lowpower", …).
    pub name: String,
    /// The generation's energy parameters.
    pub profile: HostEnergyProfile,
}

impl HostGeneration {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, profile: HostEnergyProfile) -> Self {
        HostGeneration { name: name.into(), profile }
    }
}

/// A synchronized activity spike (flash crowd): every `participation`-th
/// user's sampled day is forced active over the window, via
/// [`oasis_trace::UserDay::spike`]. Applied after trace sampling and
/// rotation, before the day starts, so the day loop sees the spike as
/// ordinary session edges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActivitySpike {
    /// First interval of the spike window (wraps at midnight).
    pub start_interval: u32,
    /// Length of the window in intervals.
    pub duration_intervals: u32,
    /// Fraction of users caught in the crowd, in `[0, 1]`. Membership
    /// is decided by a deterministic hash of `(seed, vm index)`.
    pub participation: f64,
}

/// Full configuration of a simulated cluster day.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Number of home (compute) hosts (§5.1: 30).
    pub home_hosts: u32,
    /// Number of consolidation hosts (§5.1: varied 2–12, default 4).
    pub consolidation_hosts: u32,
    /// VMs assigned to each home host (§5.1: 30).
    pub vms_per_host: u32,
    /// Memory allocation per VM (§5.1: 4 GiB).
    pub vm_allocation: ByteSize,
    /// Physical DRAM per host.
    pub host_memory: ByteSize,
    /// Memory over-commit factor (assumption 1: 1.5 with ballooning and
    /// deduplication).
    pub overcommit: f64,
    /// Consolidation policy.
    pub policy: PolicyKind,
    /// Day kind simulated.
    pub day: DayKind,
    /// Manager planning interval.
    pub interval: SimDuration,
    /// Host energy profile (Table 1).
    pub host_profile: HostEnergyProfile,
    /// Memory-server profile (Table 1 prototype or a Table 3 budget).
    pub memserver: MemoryServerProfile,
    /// Full migration latency for a 4 GiB VM over the rack 10 GigE
    /// (§5.1, after Deshpande et al.: 10 s).
    pub full_migration_time: SimDuration,
    /// Partial migration latency including memory upload (§4.4.2: 7.2 s).
    pub partial_migration_time: SimDuration,
    /// Reintegration / partial-resume latency (§4.4.2: 3.7 s).
    pub reintegration_time: SimDuration,
    /// Cooldown after a host is woken to take VMs back before the planner
    /// may vacate it again. Zero (the default, and the paper's behaviour)
    /// re-vacates eagerly; the `ablation_cooldown` bench shows the
    /// trade-off between migration churn and savings.
    pub vacate_cooldown: SimDuration,
    /// Fault injection: probability that a Wake-on-LAN packet is lost and
    /// must be retransmitted after a timeout (§4.1 wakes hosts by WoL).
    pub wol_loss_rate: f64,
    /// Deterministic fault-injection schedule. The default
    /// ([`FaultSchedule::none`]) injects nothing and leaves the run
    /// byte-identical to one without the fault subsystem.
    pub faults: FaultSchedule,
    /// User-activity trace library to sample user-days from. `None` (the
    /// default) synthesizes a library equivalent to the §5.1 corpus; pass
    /// a [`TraceSet`] to drive the simulation from recorded traces.
    pub trace: Option<TraceSet>,
    /// Rotates every sampled user-day this many intervals later in the
    /// day (wrapping at midnight). The datacenter tier staggers racks by
    /// timezone with this knob so quiescence windows actually differ
    /// across racks. Zero (the default) leaves traces untouched.
    pub trace_rotation: u32,
    /// Seed for the synthetic trace library, when it differs from the
    /// run seed. Rack shards set this to the base seed so every rack
    /// samples from one shared (memoized) corpus while keeping distinct
    /// per-rack run seeds. `None` (the default) derives the library from
    /// [`ClusterConfig::seed`] as before.
    pub trace_seed: Option<u64>,
    /// Destination-selection strategy (§3.1 uses random placement).
    pub placement: PlacementStrategy,
    /// Workload-class mix of the VM population, as `(class, weight)`
    /// pairs. The §5 evaluation is all-desktop; §5.6 argues server
    /// workloads behave at least as well — the `server_farm` bench tests
    /// that claim with a web/database/cluster-node mix.
    pub workload_mix: Vec<(WorkloadClass, f64)>,
    /// Host generations of a heterogeneous fleet, assigned round-robin
    /// by host index. Empty (the default) means a homogeneous fleet
    /// drawn entirely from [`ClusterConfig::host_profile`]; a
    /// single-entry vector with the same profile is byte-identical to
    /// that (the homogeneous-collapse differential test pins it).
    /// When non-empty, `host_profile` holds the *reference* generation
    /// (by convention the first) that planner cost weights are taken
    /// from.
    pub generations: Vec<HostGeneration>,
    /// Optional flash-crowd activity spike applied to the sampled
    /// user-days. `None` (the default) leaves traces untouched.
    pub spike: Option<ActivitySpike>,
    /// Scheduled cold restarts (patch windows). The default
    /// ([`RebootSchedule::none`]) schedules nothing and leaves the run
    /// byte-identical to one without the reboot plumbing.
    pub reboots: RebootSchedule,
    /// RNG seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// Starts a builder pre-loaded with the §5.1 defaults.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }

    /// Total VMs in the cluster.
    pub fn total_vms(&self) -> u32 {
        self.home_hosts * self.vms_per_host
    }

    /// Effective per-host memory capacity after over-commit.
    pub fn effective_capacity(&self) -> ByteSize {
        self.host_memory.mul_f64(self.overcommit)
    }

    /// Generation index of `host` (round-robin by host index; 0 for a
    /// homogeneous fleet).
    pub fn generation_of(&self, host: u32) -> usize {
        if self.generations.is_empty() {
            0
        } else {
            host as usize % self.generations.len()
        }
    }

    /// Energy profile of `host`: its generation's profile, or the
    /// uniform [`ClusterConfig::host_profile`] for a homogeneous fleet.
    pub fn host_profile_of(&self, host: u32) -> &HostEnergyProfile {
        if self.generations.is_empty() {
            &self.host_profile
        } else {
            &self.generations[host as usize % self.generations.len()].profile
        }
    }
}

/// Builder for [`ClusterConfig`].
#[derive(Clone, Debug)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl Default for ClusterConfigBuilder {
    fn default() -> Self {
        ClusterConfigBuilder {
            config: ClusterConfig {
                home_hosts: 30,
                consolidation_hosts: 4,
                vms_per_host: 30,
                vm_allocation: ByteSize::gib(4),
                host_memory: ByteSize::gib(128),
                overcommit: 1.5,
                policy: PolicyKind::FullToPartial,
                day: DayKind::Weekday,
                interval: SimDuration::from_mins(5),
                host_profile: HostEnergyProfile::table1(),
                memserver: MemoryServerProfile::prototype(),
                full_migration_time: SimDuration::from_secs(10),
                partial_migration_time: SimDuration::from_millis(7_200),
                reintegration_time: SimDuration::from_millis(3_700),
                vacate_cooldown: SimDuration::ZERO,
                wol_loss_rate: 0.0,
                faults: FaultSchedule::none(),
                trace: None,
                trace_rotation: 0,
                trace_seed: None,
                placement: PlacementStrategy::Random,
                workload_mix: vec![(WorkloadClass::Desktop, 1.0)],
                generations: Vec::new(),
                spike: None,
                reboots: RebootSchedule::none(),
                seed: 1,
            },
        }
    }
}

impl ClusterConfigBuilder {
    /// Sets the number of home hosts.
    pub fn home_hosts(mut self, n: u32) -> Self {
        self.config.home_hosts = n;
        self
    }

    /// Sets the number of consolidation hosts.
    pub fn consolidation_hosts(mut self, n: u32) -> Self {
        self.config.consolidation_hosts = n;
        self
    }

    /// Sets the VMs per home host.
    pub fn vms_per_host(mut self, n: u32) -> Self {
        self.config.vms_per_host = n;
        self
    }

    /// Sets the consolidation policy.
    pub fn policy(mut self, p: PolicyKind) -> Self {
        self.config.policy = p;
        self
    }

    /// Sets the simulated day kind.
    pub fn day(mut self, d: DayKind) -> Self {
        self.config.day = d;
        self
    }

    /// Sets the planning interval.
    pub fn interval(mut self, i: SimDuration) -> Self {
        self.config.interval = i;
        self
    }

    /// Sets the memory-server profile (Table 3 sweeps power budgets).
    pub fn memserver(mut self, m: MemoryServerProfile) -> Self {
        self.config.memserver = m;
        self
    }

    /// Sets per-host physical memory.
    pub fn host_memory(mut self, m: ByteSize) -> Self {
        self.config.host_memory = m;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.config.seed = s;
        self
    }

    /// Sets the post-return vacate cooldown (zero disables damping).
    pub fn vacate_cooldown(mut self, d: SimDuration) -> Self {
        self.config.vacate_cooldown = d;
        self
    }

    /// Sets the Wake-on-LAN loss probability (fault injection).
    pub fn wol_loss_rate(mut self, p: f64) -> Self {
        self.config.wol_loss_rate = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the fault-injection schedule.
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.config.faults = schedule;
        self
    }

    /// Supplies a recorded trace library instead of the synthetic model.
    pub fn trace(mut self, set: TraceSet) -> Self {
        self.config.trace = Some(set);
        self
    }

    /// Rotates sampled user-days `k` intervals later (timezone stagger).
    pub fn trace_rotation(mut self, k: u32) -> Self {
        self.config.trace_rotation = k;
        self
    }

    /// Pins the synthetic trace-library seed independently of the run
    /// seed (rack shards share one corpus this way).
    pub fn trace_seed(mut self, s: u64) -> Self {
        self.config.trace_seed = Some(s);
        self
    }

    /// Sets the destination-selection strategy.
    pub fn placement(mut self, s: PlacementStrategy) -> Self {
        self.config.placement = s;
        self
    }

    /// Sets the VM workload mix (weights need not sum to one).
    pub fn workload_mix(mut self, mix: Vec<(WorkloadClass, f64)>) -> Self {
        self.config.workload_mix = mix;
        self
    }

    /// Sets the heterogeneous host generations (round-robin by host
    /// index). When non-empty, the first generation's profile also
    /// becomes [`ClusterConfig::host_profile`] — the reference the
    /// planner's cost weights are taken from.
    pub fn generations(mut self, gens: Vec<HostGeneration>) -> Self {
        if let Some(first) = gens.first() {
            self.config.host_profile = first.profile.clone();
        }
        self.config.generations = gens;
        self
    }

    /// Sets the flash-crowd activity spike.
    pub fn spike(mut self, s: ActivitySpike) -> Self {
        self.config.spike =
            Some(ActivitySpike { participation: s.participation.clamp(0.0, 1.0), ..s });
        self
    }

    /// Sets the scheduled-reboot (patch-window) schedule.
    pub fn reboots(mut self, schedule: RebootSchedule) -> Self {
        self.config.reboots = schedule;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ClusterConfig, ConfigError> {
        let c = self.config;
        if c.home_hosts == 0 || c.consolidation_hosts == 0 {
            return Err(ConfigError::NoHosts);
        }
        if c.vms_per_host == 0 {
            return Err(ConfigError::NoVms);
        }
        if c.interval.is_zero() {
            return Err(ConfigError::ZeroInterval);
        }
        if c.workload_mix.is_empty() || c.workload_mix.iter().all(|&(_, w)| w <= 0.0) {
            return Err(ConfigError::NoVms);
        }
        let demand = c.vm_allocation * u64::from(c.vms_per_host);
        let capacity = c.effective_capacity();
        if demand > capacity {
            return Err(ConfigError::HomeOvercommitted { demand, capacity });
        }
        let hosts = c.home_hosts + c.consolidation_hosts;
        if let Some(r) = c.reboots.reboots().iter().find(|r| r.host >= hosts) {
            return Err(ConfigError::RebootOutOfRange { host: r.host, hosts });
        }
        Ok(c)
    }
}

/// A named, declarative scenario preset: everything about a stress
/// scenario except the seed. The registry in [`crate::scenarios`] owns
/// the named instances; [`ScenarioSpec::cluster_config`] instantiates
/// a runnable [`ClusterConfig`] for one seed. Multi-rack specs
/// (`racks > 1`) are lifted to the shard driver by the scenario
/// runner.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Registry name (`oasis sim --scenario <name>`).
    pub name: &'static str,
    /// One line stating what regression this scenario guards.
    pub guards: &'static str,
    /// Home hosts per rack.
    pub home_hosts: u32,
    /// Consolidation hosts per rack.
    pub consolidation_hosts: u32,
    /// VMs per home host.
    pub vms_per_host: u32,
    /// Racks simulated (1 = single-rack; more go through the shard
    /// driver with timezone-staggered traces).
    pub racks: u32,
    /// Consolidation policy.
    pub policy: PolicyKind,
    /// Day kind.
    pub day: DayKind,
    /// Physical DRAM per host.
    pub host_memory: ByteSize,
    /// Host generations (empty = homogeneous Table 1 fleet).
    pub generations: Vec<HostGeneration>,
    /// VM workload mix.
    pub workload_mix: Vec<(WorkloadClass, f64)>,
    /// Optional flash-crowd spike.
    pub spike: Option<ActivitySpike>,
    /// Scheduled cold restarts.
    pub reboots: RebootSchedule,
    /// Fault-injection schedule.
    pub faults: FaultSchedule,
}

impl ScenarioSpec {
    /// A smoke-scale baseline (6 home + 2 consolidation hosts, 10 VMs
    /// per host, FulltoPartial, weekday, no stressors) for scenario
    /// constructors to specialize.
    pub fn smoke(name: &'static str, guards: &'static str) -> Self {
        ScenarioSpec {
            name,
            guards,
            home_hosts: 6,
            consolidation_hosts: 2,
            vms_per_host: 10,
            racks: 1,
            policy: PolicyKind::FullToPartial,
            day: DayKind::Weekday,
            host_memory: ByteSize::gib(128),
            generations: Vec::new(),
            workload_mix: vec![(WorkloadClass::Desktop, 1.0)],
            spike: None,
            reboots: RebootSchedule::none(),
            faults: FaultSchedule::none(),
        }
    }

    /// True when the fleet mixes host generations.
    pub fn is_heterogeneous(&self) -> bool {
        self.generations.len() > 1
    }

    /// Instantiates the per-rack [`ClusterConfig`] for one seed.
    pub fn cluster_config(&self, seed: u64) -> Result<ClusterConfig, ConfigError> {
        let mut b = ClusterConfig::builder()
            .home_hosts(self.home_hosts)
            .consolidation_hosts(self.consolidation_hosts)
            .vms_per_host(self.vms_per_host)
            .policy(self.policy)
            .day(self.day)
            .host_memory(self.host_memory)
            .workload_mix(self.workload_mix.clone())
            .generations(self.generations.clone())
            .reboots(self.reboots.clone())
            .faults(self.faults.clone())
            .seed(seed);
        if let Some(s) = self.spike {
            b = b.spike(s);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_section_5_1() {
        let c = ClusterConfig::builder().build().unwrap();
        assert_eq!(c.home_hosts, 30);
        assert_eq!(c.consolidation_hosts, 4);
        assert_eq!(c.total_vms(), 900);
        assert_eq!(c.vm_allocation, ByteSize::gib(4));
        assert_eq!(c.full_migration_time, SimDuration::from_secs(10));
        assert_eq!(c.partial_migration_time.as_micros(), 7_200_000);
        assert_eq!(c.reintegration_time.as_micros(), 3_700_000);
        assert_eq!(c.effective_capacity(), ByteSize::gib(192));
    }

    #[test]
    fn builder_setters() {
        let c = ClusterConfig::builder()
            .home_hosts(10)
            .consolidation_hosts(3)
            .vms_per_host(45)
            .policy(PolicyKind::Default)
            .day(DayKind::Weekend)
            .seed(99)
            .host_memory(ByteSize::gib(256))
            .build()
            .unwrap();
        assert_eq!(c.total_vms(), 450);
        assert_eq!(c.policy, PolicyKind::Default);
        assert_eq!(c.day, DayKind::Weekend);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(ClusterConfig::builder().home_hosts(0).build(), Err(ConfigError::NoHosts));
        assert_eq!(ClusterConfig::builder().vms_per_host(0).build(), Err(ConfigError::NoVms));
        assert_eq!(
            ClusterConfig::builder().interval(SimDuration::ZERO).build(),
            Err(ConfigError::ZeroInterval)
        );
        // 90 VMs × 4 GiB = 360 GiB > 192 GiB effective.
        assert!(matches!(
            ClusterConfig::builder().vms_per_host(90).build(),
            Err(ConfigError::HomeOvercommitted { .. })
        ));
        // But with 256 GiB hosts (384 effective) it fits — the Figure 12
        // sensitivity sweep uses denser hosts.
        assert!(ClusterConfig::builder()
            .vms_per_host(90)
            .host_memory(ByteSize::gib(256))
            .build()
            .is_ok());
    }
}
