//! The interval-driven cluster simulator.
//!
//! §5.1's methodology: sample one user-day per VM, divide the day into
//! 5-minute intervals, and mark a VM active in any interval with keyboard
//! or mouse input. The simulator walks the 288 intervals of the day; at
//! each boundary it feeds the cluster manager a snapshot, executes the
//! returned plan with the measured §4.4/§5.1 latencies, reacts to VM state
//! changes (including the §3.2 activation policies), and integrates
//! energy.
//!
//! ## Energy accounting
//!
//! Energy is accumulated per interval from a per-host awake/asleep
//! timeline: awake seconds at the powered draw for the host's active-VM
//! count, plus measured suspend (138.2 W × 3.1 s) and resume
//! (149.2 W × 2.3 s) transition energies, with the remainder asleep at
//! 12.9 W. A sleeping *home* host additionally powers its memory server
//! (§5.1: consolidation hosts' memory servers are never powered). The
//! §5.3 baseline — home hosts left powered all day running their VMs —
//! integrates alongside.

use oasis_core::manager::ManagerConfig;
use oasis_core::{
    ActivationDecision, ClusterManager, ClusterView, HostRole, HostView, PlannedAction, VmView,
};
use oasis_faults::{Fault, FaultCounts, Reboot, RetryPolicy};
use oasis_mem::{ByteSize, IdleWssDistribution};
use oasis_migration::recovery::with_retries;
use oasis_migration::MigrationType;
use oasis_net::{TrafficAccountant, TrafficClass};
use oasis_power::PowerState;
use oasis_sim::stats::{Cdf, TimeSeries};
use oasis_sim::{SimDuration, SimRng, SimTime};
use oasis_telemetry::{
    DecisionClass, EnergyLedger, Event, HostEnergy, MigrationKind, QuiescenceLedger, RecoveryKind,
    Telemetry, VmEnergy, CLUSTER_WIDE,
};
use oasis_trace::{sample_user_days, UserDay, INTERVALS_PER_DAY};
use oasis_vm::workload::WorkloadClass;
use oasis_vm::{HostId, VmId, VmState};

use crate::config::ClusterConfig;
use crate::results::{DecisionCounts, MigrationCounts, SimReport, VmPlacement};

/// Interval length in seconds (5-minute trace intervals).
const INTERVAL_SECS: f64 = 300.0;

/// Samples an idle working set for a VM of the given class.
///
/// Desktops use the Jettison distribution the paper samples from (§5.1);
/// server classes derive theirs from the Figure 1 unique-touch curves
/// (mean = one idle hour of touches, ±45 %).
fn sample_class_wss(
    class: WorkloadClass,
    jettison: &IdleWssDistribution,
    allocation: ByteSize,
    rng: &mut SimRng,
) -> ByteSize {
    match class {
        WorkloadClass::Desktop => jettison.sample(rng, allocation),
        other => {
            let mean = other
                .idle_model()
                .unique_touched(SimDuration::from_hours(1), allocation)
                .as_mib_f64();
            let mib = rng.truncated_normal(mean, 0.45 * mean, 4.0, allocation.as_mib_f64());
            ByteSize::from_mib_f64(mib)
        }
    }
}

/// Upload-volume scale of a class relative to the desktop calibration.
fn upload_scale(class: WorkloadClass) -> f64 {
    match class {
        WorkloadClass::Desktop => 1.0,
        // Server VMs touch far less memory (Figure 1): their images and
        // dirty deltas shrink roughly with the working set.
        WorkloadClass::WebServer => 0.25,
        WorkloadClass::Database => 0.20,
        WorkloadClass::ClusterNode => 0.12,
    }
}

/// Aggregate compression ratio of desktop memory under the codec (used to
/// size demand-fetch and upload volumes at the statistical level).
const COMPRESS_RATIO: f64 = 0.54;

/// First (non-differential) memory upload volume per VM, compressed
/// (§4.4.2: 10.2 s at 128 MiB/s ≈ 1.3 GiB).
const FIRST_UPLOAD: ByteSize = ByteSize::mib(1_306);

/// Differential upload volume per re-consolidation (§4.4.2: 2.2 s ≈
/// 282 MiB).
const DIFF_UPLOAD: ByteSize = ByteSize::mib(282);

/// Dirty-state growth of a consolidated idle VM (§4.4.3: 175.3 MiB over
/// 20 minutes).
const DIRTY_MIB_PER_MIN: f64 = 175.3 / 20.0;

/// Cap on reintegration dirty volume per VM.
const DIRTY_CAP: ByteSize = ByteSize::mib(512);

/// Working sets keep growing for this long after consolidation before the
/// saturating part of the Figure 1 curve flattens them out.
const WSS_GROWTH_WINDOW: SimDuration = SimDuration::from_mins(60);

#[derive(Clone, Debug)]
struct SimHost {
    id: HostId,
    role: HostRole,
    powered: bool,
    /// Per-interval timeline accumulator.
    awake_secs: f64,
    last_on_offset: f64,
    suspends: u32,
    resumes: u32,
}

impl SimHost {
    fn begin_interval(&mut self) {
        self.awake_secs = 0.0;
        self.last_on_offset = 0.0;
        self.suspends = 0;
        self.resumes = 0;
    }

    fn set_power(&mut self, offset_secs: f64, on: bool) {
        if self.powered == on {
            return;
        }
        if on {
            self.last_on_offset = offset_secs;
            self.resumes += 1;
        } else {
            self.awake_secs += (offset_secs - self.last_on_offset).max(0.0);
            self.suspends += 1;
        }
        self.powered = on;
    }

    /// A wake-work-sleep episode that starts and ends inside the interval
    /// (the FulltoPartial temporary home wake).
    fn temporary_episode(&mut self, secs: f64) {
        debug_assert!(!self.powered, "episodes only on sleeping hosts");
        self.awake_secs += secs;
        self.resumes += 1;
        self.suspends += 1;
    }

    fn end_interval(&mut self) -> f64 {
        if self.powered {
            self.awake_secs += (INTERVAL_SECS - self.last_on_offset).max(0.0);
        }
        self.awake_secs.min(INTERVAL_SECS)
    }
}

#[derive(Clone, Debug)]
struct SimVm {
    id: VmId,
    home: HostId,
    location: HostId,
    class: WorkloadClass,
    state: VmState,
    partial: bool,
    demand: ByteSize,
    allocation: ByteSize,
    /// Expected working set if consolidated (planner estimate).
    wss_estimate: ByteSize,
    /// Growth ceiling for the current consolidation epoch.
    wss_cap: ByteSize,
    /// When the current consolidation epoch began.
    consolidated_since: Option<SimTime>,
    /// Whether a full memory image was ever uploaded (differential
    /// uploads afterwards, §4.3).
    uploaded_once: bool,
}

/// Incrementally maintained per-host residency index.
///
/// The planning tick and energy accounting used to rescan the full VM
/// vector once per host per query (`O(hosts × VMs)` per interval); these
/// indices are updated at every placement/state mutation instead, turning
/// the per-interval cost into `O(changes)`. The resident list is kept in
/// ascending VM-index order so every consumer observes exactly the order
/// the old full scans produced — byte-identical results are part of the
/// contract, not an accident.
#[derive(Clone, Debug, Default)]
struct Residency {
    /// Indices into `ClusterSim::vms` of the VMs resident on this host,
    /// ascending.
    vms: Vec<usize>,
    /// Sum of the residents' memory demand.
    demand: ByteSize,
    /// Number of residents whose state is active.
    active: usize,
    /// Indices of the active residents, ascending — the subsequence of
    /// `vms` the attribution split visits, kept so that split never
    /// walks a host's (possibly hundreds of) idle residents to find the
    /// handful of active ones.
    active_vms: Vec<usize>,
}

impl Residency {
    /// Adds `vi` to the sorted active-resident list.
    fn active_insert(&mut self, vi: usize) {
        self.active += 1;
        if let Err(pos) = self.active_vms.binary_search(&vi) {
            self.active_vms.insert(pos, vi);
        } else {
            debug_assert!(false, "vm {vi} already in active index");
        }
    }

    /// Removes `vi` from the sorted active-resident list.
    fn active_remove(&mut self, vi: usize) {
        self.active -= 1;
        match self.active_vms.binary_search(&vi) {
            Ok(pos) => {
                self.active_vms.remove(pos);
            }
            Err(_) => debug_assert!(false, "vm {vi} missing from active index"),
        }
    }
}

/// Borrow of the simulator's maintained residency aggregates, handed to
/// the planner so a round never rebuilds its host index from the VM
/// vector. The recount tests in `verify_indices` lock the borrowed data
/// to the [`oasis_core::ResidencyIndex`] contract.
struct ResidencyHandoff<'a> {
    residency: &'a [Residency],
    exchange_ready: &'a [usize],
}

impl oasis_core::ResidencyIndex for ResidencyHandoff<'_> {
    fn residents(&self, pos: usize) -> &[usize] {
        &self.residency[pos].vms
    }

    fn demand(&self, pos: usize) -> ByteSize {
        self.residency[pos].demand
    }

    fn full_idle_consolidated(&self) -> Option<&[usize]> {
        Some(self.exchange_ready)
    }
}

/// The trace-driven cluster simulator.
pub struct ClusterSim {
    pub(crate) cfg: ClusterConfig,
    rng: SimRng,
    manager: ClusterManager,
    hosts: Vec<SimHost>,
    vms: Vec<SimVm>,
    /// Incrementally maintained planning snapshot. Mirrors `hosts`/`vms`
    /// exactly (same order, same values) and is updated at the same
    /// mutation funnels as the residency indices, so handing the manager
    /// `&self.view` is byte-identical to rebuilding a [`ClusterView`]
    /// from scratch — without the `O(hosts + VMs)` rebuild per
    /// activation that used to dominate paper-scale runs.
    view: ClusterView,
    /// Per-host residency index, parallel to `hosts`.
    residency: Vec<Residency>,
    /// Per-host count of partial VMs homed there but located elsewhere
    /// (their memory server must stay powered while the host sleeps).
    home_partials: Vec<u32>,
    users: Vec<UserDay>,
    wss_dist: IdleWssDistribution,
    traffic: TrafficAccountant,
    delays: Cdf,
    ratio: Cdf,
    series_active: TimeSeries,
    series_powered: TimeSeries,
    total_joules: f64,
    baseline_joules: f64,
    counts: MigrationCounts,
    /// Reintegration queue length per home host within the interval.
    reintegration_queue: std::collections::BTreeMap<HostId, u32>,
    /// Concurrent promote-in-place resumes per consolidation host within
    /// the interval (resume storms share the destination NIC).
    promote_queue: std::collections::BTreeMap<HostId, u32>,
    /// Per-host instant until which the vacate cooldown applies.
    cooldown_until: std::collections::BTreeMap<HostId, SimTime>,
    /// RNG for recovery backoff jitter. Seeded independently of the main
    /// stream (never forked from it) so that fault recovery draws cannot
    /// perturb trace sampling or placement — a zero-fault schedule leaves
    /// the run byte-identical.
    recovery_rng: SimRng,
    /// Homes whose memory server is currently crashed.
    ms_down: std::collections::BTreeSet<HostId>,
    /// Network latency multiplier for the current interval (1.0 = clean).
    link_factor: f64,
    fault_counts: FaultCounts,
    recovery_times: Cdf,
    energy_series: TimeSeries,
    /// Per-host integer-millijoule energy components, parallel to
    /// `hosts`. Accumulated alongside the `f64` total so the report can
    /// decompose energy without perturbing the existing accounting.
    host_energy: Vec<HostEnergy>,
    /// Per-VM millijoule share of the hosts' active components, parallel
    /// to `vms` (demand-weighted split per interval).
    vm_energy_mj: Vec<u64>,
    /// Per-host "mutated this interval" flags for the quiescence ledger,
    /// parallel to `hosts`; cleared at every interval boundary.
    dirty_hosts: Vec<bool>,
    /// Per-VM mutation flags, parallel to `vms`.
    dirty_vms: Vec<bool>,
    /// Count of set flags in `dirty_vms`, so the per-interval quiescence
    /// tally never rescans the flag vector.
    dirty_vm_count: usize,
    quiescence: QuiescenceLedger,
    decisions: DecisionCounts,
    pub(crate) telemetry: Telemetry,
    /// Indices of partial VMs, ascending — exactly the set (and visit
    /// order) a full scan of `vms` filtered on `partial` would produce,
    /// maintained at the [`Self::set_vm_partial`] funnel so the fetch
    /// phase walks `O(partials)` instead of `O(VMs)`.
    partials: Vec<usize>,
    /// Reusable per-host scratch for the planner's serialized-work
    /// offsets, kept across intervals to avoid a fresh allocation per
    /// round. Always cleared on entry to `plan_and_execute`.
    busy_scratch: Vec<f64>,
    /// Per-home indices of VMs consolidated away from that home,
    /// ascending — exactly the set (and visit order) the old full scan
    /// of `vms` filtered on `home == h && location != h` produced.
    /// Maintained at the `move_vm_to` funnel (homes never change).
    away_from_home: Vec<Vec<usize>>,
    /// Consolidation-host ids in id order; roles are fixed at
    /// construction, so the capacity-exhaustion sweep reuses this
    /// instead of re-filtering (and re-allocating) every interval.
    cons_hosts: Vec<HostId>,
    /// Effective capacity the capacity-exhaustion sweep holds the
    /// consolidation hosts to. Starts at `cfg.effective_capacity()` and
    /// only the datacenter epoch planner ever moves it (via
    /// [`Self::set_cons_capacity`]) when a rack borrows or donates
    /// headroom; a standalone rack never sees it change.
    cons_capacity: ByteSize,
    /// Indices of full (non-partial) idle VMs currently located on
    /// consolidation hosts, ascending — the candidate superset of the
    /// planner's exchange pass. Maintained at the location/partial/state
    /// funnels; handing the planner this list (instead of the VM vector
    /// it used to filter) turns the every-round exchange sweep into a
    /// walk of only the VMs that can match.
    exchange_ready: Vec<usize>,
    /// Per-class working-set growth per interval, precomputed once from
    /// the exact expression the growth loop evaluated per VM per
    /// interval (`from_mib_f64(growth_per_min × INTERVAL_SECS / 60)`),
    /// indexed by [`WorkloadClass::ALL`] position.
    growth_quantum: [ByteSize; 4],
}

/// Flash-crowd membership: a splitmix64-style hash of `(seed, vm)`
/// mapped onto `[0, 1)` and compared against the participation
/// fraction. A pure function of its arguments — no RNG stream is
/// consumed, so runs with and without a spike share every draw.
fn spike_member(seed: u64, vm: usize, participation: f64) -> bool {
    if participation >= 1.0 {
        return true;
    }
    if participation <= 0.0 {
        return false;
    }
    let mut z = seed ^ (vm as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 11) as f64 / (1u64 << 53) as f64) < participation
}

/// Position of `class` in [`WorkloadClass::ALL`].
fn class_idx(class: WorkloadClass) -> usize {
    match class {
        WorkloadClass::Desktop => 0,
        WorkloadClass::WebServer => 1,
        WorkloadClass::Database => 2,
        WorkloadClass::ClusterNode => 3,
    }
}

impl ClusterSim {
    /// Builds the simulated rack and samples one user-day per VM.
    pub fn new(cfg: ClusterConfig) -> Self {
        let mut rng = SimRng::new(cfg.seed ^ 0xC1u64.wrapping_mul(0x9E37_79B9));
        // Sample `total_vms` user-days of the requested kind, either from
        // the supplied trace library or from a synthesized corpus
        // comparable to §5.1's. The synthetic corpus is a pure function
        // of its seed, so it comes from the process-wide memoizing cache:
        // sweeps re-running the same seed stop re-deriving it.
        let library = match &cfg.trace {
            Some(set) => std::sync::Arc::new(set.clone()),
            None => oasis_trace::shared_library(
                22,
                17,
                cfg.trace_seed.unwrap_or(cfg.seed) ^ 0x712A_CE5E,
            ),
        };
        let mut users = sample_user_days(&library, cfg.day, cfg.total_vms() as usize, &mut rng);
        if users.is_empty() {
            // A trace without days of this kind still yields a valid (all
            // idle) simulation rather than a panic.
            users = vec![oasis_trace::UserDay::all_idle(cfg.day); cfg.total_vms() as usize];
        }
        if cfg.trace_rotation != 0 {
            // Timezone stagger: shift every sampled day later in the day
            // (wrapping) so racks in different zones quiesce at different
            // simulated hours.
            for day in &mut users {
                day.rotate(cfg.trace_rotation as usize);
            }
        }
        if let Some(spike) = cfg.spike {
            // Flash crowd: force the caught users active over the spike
            // window, after rotation so the window is in absolute
            // datacenter time. Membership comes from a pure hash of
            // (seed, vm index) — the RNG stream is not consumed, so a
            // `spike: None` run stays byte-identical to one without the
            // spike plumbing.
            for (v, day) in users.iter_mut().enumerate() {
                if spike_member(cfg.seed, v, spike.participation) {
                    day.spike(spike.start_interval as usize, spike.duration_intervals as usize);
                }
            }
        }

        let mut hosts = Vec::new();
        for h in 0..cfg.home_hosts {
            hosts.push(SimHost {
                id: HostId(h),
                role: HostRole::Compute,
                powered: true,
                awake_secs: 0.0,
                last_on_offset: 0.0,
                suspends: 0,
                resumes: 0,
            });
        }
        for c in 0..cfg.consolidation_hosts {
            hosts.push(SimHost {
                id: HostId(cfg.home_hosts + c),
                role: HostRole::Consolidation,
                powered: false,
                awake_secs: 0.0,
                last_on_offset: 0.0,
                suspends: 0,
                resumes: 0,
            });
        }

        let wss_dist = IdleWssDistribution::jettison();
        let total_weight: f64 = cfg.workload_mix.iter().map(|&(_, w)| w.max(0.0)).sum();
        let mut vms = Vec::new();
        for v in 0..cfg.total_vms() {
            let home = HostId(v / cfg.vms_per_host);
            // Draw the VM's workload class from the configured mix.
            let mut pick = rng.next_f64() * total_weight;
            let mut class = cfg.workload_mix[0].0;
            for &(c, w) in &cfg.workload_mix {
                if w <= 0.0 {
                    continue;
                }
                class = c;
                pick -= w;
                if pick <= 0.0 {
                    break;
                }
            }
            let estimate = sample_class_wss(class, &wss_dist, cfg.vm_allocation, &mut rng);
            vms.push(SimVm {
                id: VmId(v),
                home,
                location: home,
                class,
                state: VmState::Idle,
                partial: false,
                demand: cfg.vm_allocation,
                allocation: cfg.vm_allocation,
                wss_estimate: estimate,
                wss_cap: estimate,
                consolidated_since: None,
                uploaded_once: false,
            });
        }

        let manager = ClusterManager::new(
            ManagerConfig {
                policy: cfg.policy,
                interval: cfg.interval,
                planner: oasis_core::placement::PlannerConfig {
                    strategy: cfg.placement,
                    // The paper's objective is host-count minimization
                    // (§3.1); weighting both sides with the same idle draw
                    // makes the net check equivalent to "strictly fewer
                    // powered hosts". Heterogeneous fleets keep the
                    // reference generation's weight here (the planner
                    // still minimizes host count); the energy accounting
                    // below charges each host its own generation profile.
                    home_sleep_saving_watts: cfg.host_profile.idle_watts,
                    consolidation_power_watts: cfg.host_profile.idle_watts,
                    promotion_headroom: oasis_mem::ByteSize::gib(8),
                },
            },
            cfg.seed,
        );

        let mut residency = vec![Residency::default(); hosts.len()];
        for (vi, vm) in vms.iter().enumerate() {
            let r = &mut residency[vm.location.0 as usize];
            r.vms.push(vi);
            r.demand += vm.demand;
        }
        let home_partials = vec![0; hosts.len()];

        // Seed the incrementally maintained planning view; from here on
        // the mutation funnels keep it exact.
        let capacity = cfg.effective_capacity();
        let mut view = ClusterView {
            hosts: hosts
                .iter()
                .map(|h| HostView {
                    id: h.id,
                    role: h.role,
                    powered: h.powered,
                    vacatable: true,
                    capacity,
                })
                .collect(),
            vms: vms
                .iter()
                .map(|v| VmView {
                    id: v.id,
                    home: v.home,
                    location: v.location,
                    state: v.state,
                    allocation: v.allocation,
                    demand: v.demand,
                    partial_demand: if v.partial { v.demand } else { v.wss_estimate },
                    partial: v.partial,
                })
                .collect(),
            host_demand: Vec::new(),
        };
        view.rebuild_host_demand();

        let recovery_rng = SimRng::new(cfg.seed ^ 0xFA17_5EED);
        let host_energy = hosts
            .iter()
            .map(|h| HostEnergy { host: h.id.0, ..HostEnergy::default() })
            .collect::<Vec<_>>();
        let vm_energy_mj = vec![0u64; vms.len()];
        let dirty_hosts = vec![false; hosts.len()];
        let dirty_vms = vec![false; vms.len()];
        let away_from_home = vec![Vec::new(); hosts.len()];
        let cons_hosts: Vec<HostId> =
            hosts.iter().filter(|h| h.role == HostRole::Consolidation).map(|h| h.id).collect();
        let growth_quantum = WorkloadClass::ALL.map(|c| {
            ByteSize::from_mib_f64(
                c.idle_model().growth_per_min.as_mib_f64() * INTERVAL_SECS / 60.0,
            )
        });
        ClusterSim {
            cfg,
            rng,
            manager,
            hosts,
            vms,
            view,
            residency,
            home_partials,
            users,
            wss_dist,
            traffic: TrafficAccountant::new(),
            delays: Cdf::new(),
            ratio: Cdf::new(),
            series_active: TimeSeries::new(),
            series_powered: TimeSeries::new(),
            total_joules: 0.0,
            baseline_joules: 0.0,
            counts: MigrationCounts::default(),
            reintegration_queue: std::collections::BTreeMap::new(),
            promote_queue: std::collections::BTreeMap::new(),
            cooldown_until: std::collections::BTreeMap::new(),
            recovery_rng,
            ms_down: std::collections::BTreeSet::new(),
            link_factor: 1.0,
            fault_counts: FaultCounts::default(),
            recovery_times: Cdf::new(),
            energy_series: TimeSeries::new(),
            host_energy,
            vm_energy_mj,
            dirty_hosts,
            dirty_vms,
            dirty_vm_count: 0,
            quiescence: QuiescenceLedger::default(),
            decisions: DecisionCounts::default(),
            telemetry: Telemetry::disabled(),
            partials: Vec::new(),
            busy_scratch: Vec::new(),
            away_from_home,
            cons_hosts,
            cons_capacity: capacity,
            exchange_ready: Vec::new(),
            growth_quantum,
        }
    }

    /// Routes the simulator's (and its manager's) events, profiler
    /// scopes and counters through `telemetry`. Telemetry never touches
    /// the RNG, so attaching it leaves simulation results bit-identical.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.manager.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    fn host_index(&self, id: HostId) -> usize {
        id.0 as usize
    }

    /// Switches a host's power state, mirroring real transitions onto the
    /// event bus (redundant calls stay silent, like `set_power`).
    fn set_host_power(&mut self, idx: usize, offset_secs: f64, on: bool) {
        if self.hosts[idx].powered == on {
            return;
        }
        self.hosts[idx].set_power(offset_secs, on);
        self.dirty_hosts[idx] = true;
        self.view.hosts[idx].powered = on;
        let host = self.hosts[idx].id.0;
        self.telemetry.emit(if on {
            Event::HostResumed { host }
        } else {
            Event::HostSuspended { host }
        });
    }

    /// Stretches a latency by the interval's link factor. Gated on the
    /// clean case: a ×1.0 multiply is not guaranteed bit-exact through
    /// the `f64` round-trip, and a fault-free run must stay byte-identical.
    fn stretch_secs(&self, secs: f64) -> f64 {
        if self.link_factor == 1.0 {
            secs
        } else {
            secs * self.link_factor
        }
    }

    /// [`Self::stretch_secs`] for durations.
    fn stretch(&self, d: SimDuration) -> SimDuration {
        if self.link_factor == 1.0 {
            d
        } else {
            d.mul_f64(self.link_factor)
        }
    }

    /// Attempts to power on a host, honouring the fault schedule.
    ///
    /// Returns `Ok(extra_secs)` with the injected wake latency (0.0 on a
    /// clean wake or an already-powered host), or `Err(waited_secs)` when
    /// the host sits in a wake-failure window that outlasted the
    /// retry/backoff recovery — the host stays asleep and the caller must
    /// degrade gracefully.
    ///
    /// `decision` is the audit-trail id of the decision this wake serves;
    /// it is threaded into any recovery events the wake produces.
    fn try_wake(
        &mut self,
        idx: usize,
        offset_secs: f64,
        now: SimTime,
        decision: u64,
    ) -> Result<f64, f64> {
        if self.hosts[idx].powered {
            return Ok(0.0);
        }
        let host = self.hosts[idx].id.0;
        if let Some(fault) = self.cfg.faults.wake_failure(host, now).copied() {
            return match self.wake_recovery(host, fault, now, decision) {
                Ok(waited) => {
                    // A retry landed after the window cleared: the host
                    // comes up late.
                    self.set_host_power(idx, offset_secs + waited, true);
                    Ok(waited)
                }
                Err(waited) => Err(waited),
            };
        }
        let extra = self.cfg.faults.wake_delay_secs(host, now);
        if extra > 0.0 {
            self.fault_counts.wake_delays += 1;
        }
        self.set_host_power(idx, offset_secs + extra, true);
        Ok(extra)
    }

    /// Runs the bounded-backoff recovery loop against an active
    /// wake-failure window. An attempt succeeds once the cumulative
    /// backoff carries it past the window's end; a sequence that exhausts
    /// its budget inside the window is abandoned. Returns the seconds
    /// spent waiting either way.
    fn wake_recovery(
        &mut self,
        host: u32,
        fault: Fault,
        now: SimTime,
        decision: u64,
    ) -> Result<f64, f64> {
        self.fault_counts.wake_failures += 1;
        let policy = RetryPolicy::recovery();
        let telemetry = self.telemetry.clone();
        let window_end = fault.end();
        let outcome = with_retries(&policy, &mut self.recovery_rng, |attempt, waited| {
            if now + waited >= window_end {
                return true;
            }
            telemetry.emit(Event::WakeFailed { host, attempt });
            false
        });
        self.fault_counts.wake_retries += u64::from(outcome.attempts.saturating_sub(1));
        let waited = outcome.waited.as_secs_f64();
        if outcome.completed {
            self.fault_counts.recoveries += 1;
            self.recovery_times.record(waited);
            self.telemetry.emit(Event::RecoveryApplied {
                action: RecoveryKind::RetryWake,
                target: host,
                decision,
            });
            Ok(waited)
        } else {
            self.fault_counts.wake_exhausted += 1;
            self.telemetry.emit(Event::WakeAbandoned { host, attempts: outcome.attempts });
            Err(waited)
        }
    }

    /// Promotes a partial VM to a full VM in place on its current host —
    /// the graceful degradation when its home cannot be woken. Costs a
    /// demand-fetch of the missing pages; the VM stops depending on its
    /// home's memory server.
    fn fallback_promote(&mut self, vi: usize) {
        if !self.vms[vi].partial {
            return;
        }
        let remaining = self.vms[vi].allocation - self.vms[vi].demand;
        self.traffic.record(TrafficClass::DemandFetch, remaining.mul_f64(COMPRESS_RATIO));
        self.set_vm_partial(vi, false);
        self.set_vm_demand(vi, self.vms[vi].allocation);
        self.vms[vi].consolidated_since = None;
        let target = self.vms[vi].id.0;
        self.counts.promotions += 1;
        self.fault_counts.fallback_promotions += 1;
        self.fault_counts.recoveries += 1;
        self.decisions.fallback_promote += 1;
        let decision = self.telemetry.next_decision_id();
        self.telemetry.emit(Event::DecisionMade {
            decision,
            class: DecisionClass::FallbackPromote,
            vm: target,
            target: self.vms[vi].location.0,
            candidates: 1,
        });
        self.telemetry.emit(Event::RecoveryApplied {
            action: RecoveryKind::FallbackPromote,
            target,
            decision,
        });
    }

    /// Moves a VM off an exhausted host by full migration when waking its
    /// home failed. Prefers an already powered host with headroom, then a
    /// wakeable sleeping one; picks the lowest id for determinism.
    /// Returns `false` when no host qualifies — the source rides out the
    /// fault window over-committed.
    fn relocate_to_fallback(&mut self, vi: usize, now: SimTime) -> bool {
        let src = self.vms[vi].location;
        let need = self.vms[vi].allocation;
        // One deterministic pass over the residency index: the first
        // powered host with headroom wins outright; the first wakeable
        // sleeper is remembered as the fallback. Identical selection to
        // the old two-pass scan (lowest-id powered, then lowest-id
        // wakeable) at half the host walks, with O(1) demand lookups.
        let mut sleeper = None;
        let mut dest = None;
        let mut examined = 0u32;
        for h in &self.hosts {
            examined += 1;
            // Per-host capacity from the maintained view: epoch grants
            // can widen a consolidation host beyond the config default.
            let capacity = self.view.hosts[h.id.0 as usize].capacity;
            if h.id == src || self.demand_on(h.id) + need > capacity {
                continue;
            }
            if h.powered {
                dest = Some(h.id);
                break;
            }
            if sleeper.is_none() && self.cfg.faults.wake_failure(h.id.0, now).is_none() {
                sleeper = Some(h.id);
            }
        }
        let Some(dest) = dest.or(sleeper) else { return false };
        self.decisions.shed += 1;
        let decision = self.telemetry.next_decision_id();
        self.telemetry.emit(Event::DecisionMade {
            decision,
            class: DecisionClass::Shed,
            vm: self.vms[vi].id.0,
            target: dest.0,
            candidates: examined,
        });
        let di = self.host_index(dest);
        if self.try_wake(di, 0.0, now, decision).is_err() {
            return false;
        }
        let moved = self.vms[vi].allocation.mul_f64(1.15);
        self.traffic.record(TrafficClass::FullMigration, moved);
        self.telemetry.emit(Event::MigrationCompleted {
            vm: self.vms[vi].id.0,
            from: src.0,
            to: dest.0,
            kind: MigrationKind::Full,
            moved_bytes: moved.as_bytes(),
            downtime_us: self.stretch(self.cfg.full_migration_time).as_micros(),
            decision,
        });
        self.move_vm_to(vi, dest);
        self.set_vm_partial(vi, false);
        self.set_vm_demand(vi, self.vms[vi].allocation);
        self.vms[vi].consolidated_since = None;
        let target = self.vms[vi].id.0;
        self.counts.full += 1;
        self.fault_counts.fallback_promotions += 1;
        self.fault_counts.recoveries += 1;
        self.telemetry.emit(Event::RecoveryApplied {
            action: RecoveryKind::FallbackPromote,
            target,
            decision,
        });
        true
    }

    /// Re-homes every partial VM whose memory server just crashed: the
    /// missing pages are demand-fetched in bulk (the image survives on the
    /// server's drive) and the replica becomes a full VM, so nothing
    /// depends on the dead daemon. Maintains the invariant that no
    /// partial VM is ever homed at a host whose memory server is down.
    fn recover_orphans(&mut self, home: HostId) {
        let orphans: Vec<usize> = self
            .vms
            .iter()
            .enumerate()
            .filter(|(_, v)| v.home == home && v.partial && v.location != home)
            .map(|(i, _)| i)
            .collect();
        for vi in orphans {
            let remaining = self.vms[vi].allocation - self.vms[vi].demand;
            self.traffic.record(TrafficClass::DemandFetch, remaining.mul_f64(COMPRESS_RATIO));
            self.set_vm_partial(vi, false);
            self.set_vm_demand(vi, self.vms[vi].allocation);
            self.vms[vi].consolidated_since = None;
            let target = self.vms[vi].id.0;
            self.fault_counts.rehomed_vms += 1;
            self.fault_counts.recoveries += 1;
            self.decisions.fallback_promote += 1;
            let decision = self.telemetry.next_decision_id();
            self.telemetry.emit(Event::DecisionMade {
                decision,
                class: DecisionClass::FallbackPromote,
                vm: target,
                target: self.vms[vi].location.0,
                candidates: 1,
            });
            self.telemetry.emit(Event::RecoveryApplied {
                action: RecoveryKind::Rehome,
                target,
                decision,
            });
        }
    }

    /// Handles a migration caught by an active stall window: retries with
    /// backoff until an attempt lands past the window, else cancels the
    /// migration (the planner re-plans next round). Returns the seconds
    /// the transfer was held up, or `None` when it was aborted.
    fn stall_recovery(
        &mut self,
        vm: u32,
        from: u32,
        to: u32,
        fault: Fault,
        now: SimTime,
        decision: u64,
    ) -> Option<f64> {
        self.fault_counts.migration_stalls += 1;
        self.telemetry.emit(Event::MigrationStalled { vm, from, to, decision });
        // The retry-vs-abort choice is a decision of its own; the
        // recovery events reference it, while the migration lifecycle
        // events keep the planner's id.
        self.decisions.stall += 1;
        let recovery = self.telemetry.next_decision_id();
        self.telemetry.emit(Event::DecisionMade {
            decision: recovery,
            class: DecisionClass::Stall,
            vm,
            target: to,
            candidates: 0,
        });
        let policy = RetryPolicy::recovery();
        let window_end = fault.end();
        let outcome =
            with_retries(&policy, &mut self.recovery_rng, |_, waited| now + waited >= window_end);
        self.fault_counts.migration_retries += u64::from(outcome.attempts.saturating_sub(1));
        self.fault_counts.recoveries += 1;
        if outcome.completed {
            let waited = outcome.waited.as_secs_f64();
            self.recovery_times.record(waited);
            self.telemetry.emit(Event::RecoveryApplied {
                action: RecoveryKind::RetryMigration,
                target: vm,
                decision: recovery,
            });
            Some(waited)
        } else {
            self.fault_counts.migrations_aborted += 1;
            self.telemetry.emit(Event::MigrationAborted {
                vm,
                from,
                to,
                attempts: outcome.attempts,
                decision,
            });
            self.telemetry.emit(Event::RecoveryApplied {
                action: RecoveryKind::AbortMigration,
                target: vm,
                decision: recovery,
            });
            None
        }
    }

    /// Applies the fault schedule at an interval boundary: announces the
    /// interval's fault onsets, edge-detects memory-server crash windows
    /// (recovering orphaned partial replicas at crash onset), and samples
    /// the link-degradation factor the whole interval runs under.
    fn apply_faults(&mut self, now: SimTime) {
        if self.cfg.faults.is_empty() {
            return;
        }
        let interval_end = now + SimDuration::from_secs_f64(INTERVAL_SECS);
        let onsets: Vec<Fault> =
            self.cfg.faults.onsets_between(now, interval_end).copied().collect();
        for fault in onsets {
            self.fault_counts.injected += 1;
            self.telemetry.emit(Event::FaultInjected {
                fault: fault.kind,
                host: fault.host.unwrap_or(CLUSTER_WIDE),
            });
        }
        for h in 0..self.cfg.home_hosts {
            let home = HostId(h);
            let down = self.cfg.faults.memserver_down(h, now).is_some();
            let was_down = self.ms_down.contains(&home);
            if down && !was_down {
                self.ms_down.insert(home);
                self.fault_counts.memserver_crashes += 1;
                self.telemetry.emit(Event::MemServerCrashed { host: h });
                self.recover_orphans(home);
            } else if !down && was_down {
                self.ms_down.remove(&home);
                self.telemetry.emit(Event::MemServerRestarted { host: h });
            }
        }
        self.link_factor = self.cfg.faults.link_factor(now);
        if self.link_factor != 1.0 {
            self.fault_counts.link_degradations += 1;
        }
    }

    /// Applies the patch-window reboot schedule at an interval boundary.
    ///
    /// Every host whose scheduled cold restart starts in this interval
    /// goes down at its in-interval offset and comes back `downtime`
    /// later (clamped to the interval end, so the outage's energy and
    /// availability cost are charged in the interval the onset lands
    /// in). A powered host is charged the suspend/resume transition
    /// pair and loses the downtime from its awake seconds; a sleeping
    /// host boots, restarts and goes straight back to sleep (one
    /// wake-work-sleep episode). Active residents of a powered host see
    /// the downtime as transition delay, so patch windows show up in
    /// the SLA CDF. Memory-server state survives the restart (§4.2's
    /// servers are independent daemons), so partial replicas need no
    /// recovery. Reboots are applied in the schedule's canonical
    /// `(start, host)` order.
    fn apply_reboots(&mut self, now: SimTime) {
        if self.cfg.reboots.is_empty() {
            return;
        }
        let interval_end = now + SimDuration::from_secs_f64(INTERVAL_SECS);
        let due: Vec<Reboot> =
            self.cfg.reboots.onsets_between(now, interval_end).copied().collect();
        for r in due {
            let idx = r.host as usize;
            if idx >= self.hosts.len() {
                continue;
            }
            let offset = (r.start.as_secs_f64() - now.as_secs_f64()).clamp(0.0, INTERVAL_SECS);
            let downtime = r.downtime.as_secs_f64().min(INTERVAL_SECS - offset).max(0.0);
            self.counts.reboots += 1;
            if self.hosts[idx].powered {
                for _ in 0..self.residency[idx].active_vms.len() {
                    self.delays.record(downtime);
                }
                self.set_host_power(idx, offset, false);
                self.set_host_power(idx, offset + downtime, true);
            } else {
                // Asleep: boot, patch, and go straight back to sleep.
                self.hosts[idx].temporary_episode(downtime);
                self.dirty_hosts[idx] = true;
                self.telemetry.emit(Event::HostResumed { host: r.host });
                self.telemetry.emit(Event::HostSuspended { host: r.host });
            }
        }
    }

    /// Moves a VM to `dest`, carrying its demand/active contributions
    /// between the residency indices. Every location change funnels
    /// through here (and the sibling setters below) so the indices can
    /// never drift from the VM vector.
    fn move_vm_to(&mut self, vi: usize, dest: HostId) {
        let src = self.vms[vi].location;
        if src == dest {
            return;
        }
        self.mark_vm_dirty(vi);
        self.dirty_hosts[src.0 as usize] = true;
        self.dirty_hosts[dest.0 as usize] = true;
        let (demand, active, partial, home) = {
            let v = &self.vms[vi];
            (v.demand, v.state.is_active(), v.partial, v.home)
        };
        // A full idle VM crossing the compute/consolidation boundary
        // enters or leaves the exchange pass's candidate set.
        if !partial && !active {
            let src_cons = self.hosts[src.0 as usize].role == HostRole::Consolidation;
            let dest_cons = self.hosts[dest.0 as usize].role == HostRole::Consolidation;
            if dest_cons && !src_cons {
                self.exchange_ready_insert(vi);
            } else if src_cons && !dest_cons {
                self.exchange_ready_remove(vi);
            }
        }
        let r = &mut self.residency[src.0 as usize];
        match r.vms.binary_search(&vi) {
            Ok(pos) => {
                r.vms.remove(pos);
            }
            Err(_) => debug_assert!(false, "vm {vi} missing from source index"),
        }
        r.demand -= demand;
        if active {
            r.active_remove(vi);
        }
        let r = &mut self.residency[dest.0 as usize];
        match r.vms.binary_search(&vi) {
            Ok(_) => debug_assert!(false, "vm {vi} already in destination index"),
            Err(pos) => r.vms.insert(pos, vi),
        }
        r.demand += demand;
        if active {
            r.active_insert(vi);
        }
        self.view.host_demand[src.0 as usize] = self.residency[src.0 as usize].demand;
        self.view.host_demand[dest.0 as usize] = self.residency[dest.0 as usize].demand;
        if partial {
            // A partial replica's home serves it only while it lives
            // elsewhere; track entering/leaving the home host.
            if src == home {
                self.home_partials[home.0 as usize] += 1;
            } else if dest == home {
                self.home_partials[home.0 as usize] -= 1;
            }
        }
        // Keep the away-from-home index in step: a VM leaving its home
        // joins its home's away list; one arriving home leaves it.
        if src == home {
            let away = &mut self.away_from_home[home.0 as usize];
            match away.binary_search(&vi) {
                Ok(_) => debug_assert!(false, "vm {vi} already in away index"),
                Err(pos) => away.insert(pos, vi),
            }
        } else if dest == home {
            let away = &mut self.away_from_home[home.0 as usize];
            match away.binary_search(&vi) {
                Ok(pos) => {
                    away.remove(pos);
                }
                Err(_) => debug_assert!(false, "vm {vi} missing from away index"),
            }
        }
        self.vms[vi].location = dest;
        self.view.vms[vi].location = dest;
    }

    /// Sets a VM's demand, keeping its host's cached demand sum current.
    fn set_vm_demand(&mut self, vi: usize, demand: ByteSize) {
        let host = self.vms[vi].location.0 as usize;
        if self.vms[vi].demand != demand {
            self.mark_vm_dirty(vi);
        }
        let r = &mut self.residency[host];
        r.demand = (r.demand + demand) - self.vms[vi].demand;
        self.view.host_demand[host] = r.demand;
        self.vms[vi].demand = demand;
        let vv = &mut self.view.vms[vi];
        vv.demand = demand;
        if vv.partial {
            vv.partial_demand = demand;
        }
    }

    /// Sets a VM's partial flag, keeping the served-partials count of its
    /// home current.
    fn set_vm_partial(&mut self, vi: usize, partial: bool) {
        let v = &self.vms[vi];
        if v.partial == partial {
            return;
        }
        self.mark_vm_dirty(vi);
        // An idle VM on a consolidation host swaps between "full idle"
        // (exchange candidate) and partial as the flag flips.
        if !self.vms[vi].state.is_active()
            && self.hosts[self.vms[vi].location.0 as usize].role == HostRole::Consolidation
        {
            if partial {
                self.exchange_ready_remove(vi);
            } else {
                self.exchange_ready_insert(vi);
            }
        }
        let v = &self.vms[vi];
        if v.location != v.home {
            let home = v.home.0 as usize;
            let slot = &mut self.home_partials[home];
            if partial {
                *slot += 1;
            } else {
                *slot -= 1;
            }
        }
        match self.partials.binary_search(&vi) {
            Ok(pos) if !partial => {
                self.partials.remove(pos);
            }
            Err(pos) if partial => self.partials.insert(pos, vi),
            _ => debug_assert!(false, "partial index out of step with vm {vi}"),
        }
        self.vms[vi].partial = partial;
        let vv = &mut self.view.vms[vi];
        vv.partial = partial;
        vv.partial_demand = if partial { self.vms[vi].demand } else { self.vms[vi].wss_estimate };
    }

    /// Sets a VM's activity state, keeping its host's active count current.
    fn set_vm_state(&mut self, vi: usize, state: VmState) {
        let old = self.vms[vi].state;
        if old != state {
            self.mark_vm_dirty(vi);
        }
        if old.is_active() != state.is_active() {
            let host = self.vms[vi].location.0 as usize;
            // A full VM on a consolidation host joins the exchange
            // candidate set when it idles and leaves it on activation.
            if !self.vms[vi].partial && self.hosts[host].role == HostRole::Consolidation {
                if state.is_active() {
                    self.exchange_ready_remove(vi);
                } else {
                    self.exchange_ready_insert(vi);
                }
            }
            let r = &mut self.residency[host];
            if state.is_active() {
                r.active_insert(vi);
            } else {
                r.active_remove(vi);
            }
        }
        self.vms[vi].state = state;
        self.view.vms[vi].state = state;
    }

    /// Adds `vi` to the sorted exchange-candidate list.
    fn exchange_ready_insert(&mut self, vi: usize) {
        if let Err(pos) = self.exchange_ready.binary_search(&vi) {
            self.exchange_ready.insert(pos, vi);
        } else {
            debug_assert!(false, "vm {vi} already an exchange candidate");
        }
    }

    /// Removes `vi` from the sorted exchange-candidate list.
    fn exchange_ready_remove(&mut self, vi: usize) {
        match self.exchange_ready.binary_search(&vi) {
            Ok(pos) => {
                self.exchange_ready.remove(pos);
            }
            Err(_) => debug_assert!(false, "vm {vi} missing from exchange candidates"),
        }
    }

    /// Sets a VM's dirty flag, keeping the set-flag count current.
    fn mark_vm_dirty(&mut self, vi: usize) {
        if !self.dirty_vms[vi] {
            self.dirty_vms[vi] = true;
            self.dirty_vm_count += 1;
        }
    }

    /// The VMs resident on `host`, in ascending VM-index order — an O(1)
    /// index lookup, not a scan of the VM vector.
    fn vms_on(&self, host: HostId) -> impl Iterator<Item = usize> + '_ {
        self.residency[host.0 as usize].vms.iter().copied()
    }

    /// Total memory demand resident on `host` (cached sum).
    fn demand_on(&self, host: HostId) -> ByteSize {
        self.residency[host.0 as usize].demand
    }

    /// Number of active VMs resident on `host` (cached count).
    fn active_on(&self, host: HostId) -> usize {
        self.residency[host.0 as usize].active
    }

    /// Compares every incrementally maintained index against a
    /// from-scratch recount of the VM vector. Test-only: the production
    /// path never rescans — that is the point of the indices.
    #[cfg(test)]
    fn verify_indices(&self) -> Result<(), String> {
        for (h, r) in self.residency.iter().enumerate() {
            let host = self.hosts[h].id;
            let vms: Vec<usize> = self
                .vms
                .iter()
                .enumerate()
                .filter(|(_, v)| v.location == host)
                .map(|(i, _)| i)
                .collect();
            if r.vms != vms {
                return Err(format!("host {h}: residents {:?} != recount {vms:?}", r.vms));
            }
            let demand: ByteSize = vms.iter().map(|&i| self.vms[i].demand).sum();
            if r.demand != demand {
                return Err(format!("host {h}: cached demand {} != recount {demand}", r.demand));
            }
            let active: Vec<usize> =
                vms.iter().copied().filter(|&i| self.vms[i].state.is_active()).collect();
            if r.active != active.len() || r.active_vms != active {
                return Err(format!(
                    "host {h}: cached active {}/{:?} != recount {active:?}",
                    r.active, r.active_vms
                ));
            }
            let partials = self
                .vms
                .iter()
                .filter(|v| v.home == host && v.partial && v.location != host)
                .count() as u32;
            if self.home_partials[h] != partials {
                return Err(format!(
                    "host {h}: served partials {} != recount {partials}",
                    self.home_partials[h]
                ));
            }
        }
        let ready: Vec<usize> = self
            .vms
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                !v.partial
                    && !v.state.is_active()
                    && self.hosts[v.location.0 as usize].role == HostRole::Consolidation
            })
            .map(|(vi, _)| vi)
            .collect();
        if self.exchange_ready != ready {
            return Err(format!("exchange_ready {:?} != recount {ready:?}", self.exchange_ready));
        }
        for (h, away) in self.away_from_home.iter().enumerate() {
            let host = self.hosts[h].id;
            let want: Vec<usize> = self
                .vms
                .iter()
                .enumerate()
                .filter(|(_, v)| v.home == host && v.location != host)
                .map(|(i, _)| i)
                .collect();
            if *away != want {
                return Err(format!("host {h}: away index {away:?} != recount {want:?}"));
            }
        }
        let partial_set: Vec<usize> =
            self.vms.iter().enumerate().filter(|(_, v)| v.partial).map(|(i, _)| i).collect();
        if self.partials != partial_set {
            return Err(format!("partial index {:?} != recount {partial_set:?}", self.partials));
        }
        Ok(())
    }

    /// Compares the incrementally maintained planning view against a
    /// from-scratch [`Self::snapshot`], including the `host_demand`
    /// aggregate. Test-only, like the index recount above.
    #[cfg(test)]
    fn verify_view(&mut self, now: SimTime) -> Result<(), String> {
        self.refresh_vacatable(now);
        let want = self.snapshot(now);
        let got = format!("{:?}", self.view);
        let expect = format!("{want:?}");
        if got != expect {
            return Err(format!("maintained view drifted:\n got {got}\nwant {expect}"));
        }
        Ok(())
    }

    /// Brings the maintained view's time-dependent `vacatable` flags up
    /// to `now`. Everything else in the view is kept exact by the
    /// mutation funnels; this is the only field that changes with the
    /// clock alone.
    fn refresh_vacatable(&mut self, now: SimTime) {
        if self.cooldown_until.is_empty() {
            // `vacatable` starts true and only cooldown entries ever
            // clear it; with no entries there is nothing stale.
            return;
        }
        for h in &mut self.view.hosts {
            h.vacatable = self.cooldown_until.get(&h.id).is_none_or(|&until| now >= until);
        }
    }

    /// The per-host effective capacity the capacity-exhaustion sweep
    /// currently holds consolidation hosts to.
    pub(crate) fn cons_capacity(&self) -> ByteSize {
        self.cons_capacity
    }

    /// Total VM demand currently resident on consolidation hosts — the
    /// read-only load figure the datacenter epoch planner merges across
    /// racks.
    pub(crate) fn cons_demand(&self) -> ByteSize {
        self.cons_hosts.iter().map(|&h| self.demand_on(h)).sum()
    }

    /// Number of consolidation hosts (fixed at construction).
    pub(crate) fn cons_host_count(&self) -> u32 {
        self.cons_hosts.len() as u32
    }

    /// Applies an epoch planner grant: moves the consolidation hosts'
    /// effective capacity to `per_host` and mirrors it into the
    /// maintained planning view, so the next planning round and fetch
    /// pass see the widened (or narrowed) capacity. Only the datacenter
    /// shard tier calls this, between epoch barriers; a run that never
    /// calls it is byte-identical to one built without the knob.
    pub(crate) fn set_cons_capacity(&mut self, per_host: ByteSize) {
        if per_host == self.cons_capacity {
            return;
        }
        self.cons_capacity = per_host;
        for &h in &self.cons_hosts {
            self.view.hosts[h.0 as usize].capacity = per_host;
        }
    }

    /// Rebuilds a snapshot from scratch. Test-only since the maintained
    /// [`Self::view`] replaced it on the hot paths; the test suite
    /// compares the two to prove they can never drift.
    #[cfg(test)]
    fn snapshot(&self, now: SimTime) -> ClusterView {
        let home_capacity = self.cfg.effective_capacity();
        let mut view = ClusterView {
            hosts: self
                .hosts
                .iter()
                .map(|h| HostView {
                    id: h.id,
                    role: h.role,
                    powered: h.powered,
                    vacatable: self.cooldown_until.get(&h.id).is_none_or(|&until| now >= until),
                    capacity: match h.role {
                        HostRole::Consolidation => self.cons_capacity,
                        _ => home_capacity,
                    },
                })
                .collect(),
            vms: self
                .vms
                .iter()
                .map(|v| VmView {
                    id: v.id,
                    home: v.home,
                    location: v.location,
                    state: v.state,
                    allocation: v.allocation,
                    demand: v.demand,
                    partial_demand: if v.partial { v.demand } else { v.wss_estimate },
                    partial: v.partial,
                })
                .collect(),
            host_demand: Vec::new(),
        };
        view.rebuild_host_demand();
        view
    }

    /// Brings every VM homed at `home` back to it; wakes the host.
    ///
    /// Returns `Ok((work, wake_extra))` — the seconds of reintegration
    /// work serialized on the host and any injected wake latency — or
    /// `Err(waited)` when the home sits in a wake-failure window that
    /// outlasted recovery (no VM moves; the caller degrades).
    ///
    /// `decision` is the audit-trail id this return executes; every
    /// resulting migration event carries it.
    fn return_home(
        &mut self,
        home: HostId,
        now: SimTime,
        decision: u64,
    ) -> Result<(f64, f64), f64> {
        let hi = self.host_index(home);
        let wake_extra = self.try_wake(hi, 0.0, now, decision)?;
        if !self.cfg.vacate_cooldown.is_zero() {
            self.cooldown_until.insert(home, now + self.cfg.vacate_cooldown);
        }
        let mut work = 0.0;
        // The maintained away index lists exactly the VMs the old full
        // scan (`home == h && location != h`) found, in the same
        // ascending order; cloned because the loop moves VMs home and
        // mutates the index as it goes.
        let member_ids: Vec<usize> = self.away_from_home[home.0 as usize].clone();
        for i in member_ids {
            let (partial, since) = (self.vms[i].partial, self.vms[i].consolidated_since);
            let from = self.vms[i].location;
            let (kind, moved, downtime) = if partial {
                let minutes =
                    since.map(|s| now.saturating_since(s).as_secs_f64() / 60.0).unwrap_or(0.0);
                let dirty =
                    ByteSize::from_mib_f64(DIRTY_MIB_PER_MIN * minutes.max(1.0)).min(DIRTY_CAP);
                self.traffic.record(TrafficClass::Reintegration, dirty);
                work += self.stretch_secs(self.cfg.reintegration_time.as_secs_f64());
                (MigrationKind::Return, dirty, self.stretch(self.cfg.reintegration_time))
            } else {
                // A full VM homed here but consolidated elsewhere returns
                // by full migration.
                let moved = self.vms[i].allocation.mul_f64(1.15);
                self.traffic.record(TrafficClass::FullMigration, moved);
                work += self.stretch_secs(self.cfg.full_migration_time.as_secs_f64());
                (MigrationKind::Full, moved, self.stretch(self.cfg.full_migration_time))
            };
            self.telemetry.emit(Event::MigrationCompleted {
                vm: self.vms[i].id.0,
                from: from.0,
                to: home.0,
                kind,
                moved_bytes: moved.as_bytes(),
                downtime_us: downtime.as_micros(),
                decision,
            });
            self.move_vm_to(i, home);
            self.set_vm_partial(i, false);
            self.set_vm_demand(i, self.vms[i].allocation);
            self.vms[i].consolidated_since = None;
        }
        self.counts.returns_home += 1;
        Ok((work, wake_extra))
    }

    /// Applies trace-driven VM state changes at interval `i`.
    fn apply_trace(&mut self, interval: usize, now: SimTime) {
        self.reintegration_queue.clear();
        self.promote_queue.clear();
        for vi in 0..self.vms.len() {
            let desired =
                if self.users[vi].is_active(interval) { VmState::Active } else { VmState::Idle };
            if desired == self.vms[vi].state {
                continue;
            }
            self.apply_transition(vi, desired, now);
        }
    }

    /// Applies one VM's session edge: the per-VM body of
    /// [`Self::apply_trace`], called only when `desired` differs from
    /// the VM's current state.
    fn apply_transition(&mut self, vi: usize, desired: VmState, now: SimTime) {
        if desired == VmState::Idle {
            self.set_vm_state(vi, VmState::Idle);
            return;
        }
        // Idle → active transition.
        self.set_vm_state(vi, VmState::Active);
        if !self.vms[vi].partial {
            // Full VM (at home or consolidated in full): zero delay.
            self.delays.record(0.0);
            return;
        }
        self.refresh_vacatable(now);
        let vm_id = self.vms[vi].id;
        match self.manager.handle_activation(&self.view, vm_id) {
            Some(ActivationDecision::PromoteInPlace { .. }) => {
                self.decisions.promote_in_place += 1;
                let remaining = self.vms[vi].allocation - self.vms[vi].demand;
                self.traffic.record(TrafficClass::DemandFetch, remaining.mul_f64(COMPRESS_RATIO));
                self.set_vm_partial(vi, false);
                self.set_vm_demand(vi, self.vms[vi].allocation);
                // The paper says the consolidation host "becomes the
                // VM's new home"; we keep the *home binding* on the
                // original compute host because only that host has a
                // memory server to serve a future partial replica —
                // the consolidation host's memory server is never
                // powered (§5.1). Ownership of control transfers; the
                // home association does not. See DESIGN.md.
                self.vms[vi].consolidated_since = None;
                self.counts.promotions += 1;
                // The user waits for the partial-VM resume; during a
                // resume storm, concurrent promotions on the same
                // host share its NIC, so each queue position adds the
                // transfer share of the resume latency.
                let location = self.vms[vi].location;
                let slot = self.promote_queue.entry(location).or_insert(0);
                let queued = *slot;
                *slot += 1;
                let base = self.stretch_secs(self.cfg.reintegration_time.as_secs_f64());
                self.delays.record(base + f64::from(queued) * base * 0.4);
            }
            Some(ActivationDecision::MoveTo { destination, .. }) => {
                self.decisions.relocate += 1;
                let decision = self.manager.last_decision_id();
                let di = self.host_index(destination);
                match self.try_wake(di, 0.0, now, decision) {
                    Ok(extra) => {
                        self.traffic.record(
                            TrafficClass::FullMigration,
                            self.vms[vi].allocation.mul_f64(1.15),
                        );
                        self.move_vm_to(vi, destination);
                        self.set_vm_partial(vi, false);
                        self.set_vm_demand(vi, self.vms[vi].allocation);
                        self.vms[vi].consolidated_since = None;
                        self.counts.relocations += 1;
                        let full = self.stretch_secs(self.cfg.full_migration_time.as_secs_f64());
                        self.delays.record(full + extra);
                    }
                    Err(waited) => {
                        // Destination unwakeable: promote in place so
                        // the user still gets a running full VM.
                        self.fallback_promote(vi);
                        let base = self.stretch_secs(self.cfg.reintegration_time.as_secs_f64());
                        self.delays.record(waited + base);
                    }
                }
            }
            Some(ActivationDecision::ReturnHome { home, .. }) => {
                self.decisions.return_home += 1;
                let decision = self.manager.last_decision_id();
                let was_asleep = !self.hosts[self.host_index(home)].powered;
                let slot = self.reintegration_queue.entry(home).or_insert(0);
                let queued = *slot;
                *slot += 1;
                // The manager wakes the host with Wake-on-LAN (§4.1);
                // lost packets are retransmitted after a one-second
                // timeout. These draws come from the main stream and
                // must stay ahead of any fault handling so a fault-free
                // schedule leaves the sequence untouched.
                let wol_wait = if was_asleep {
                    let wait = oasis_net::wake_with_retries(
                        &self.telemetry,
                        home.0,
                        self.cfg.wol_loss_rate,
                        10.0,
                        &mut self.rng,
                    );
                    self.counts.wol_retries += wait as u64;
                    wait
                } else {
                    0.0
                };
                let reint = self.stretch_secs(self.cfg.reintegration_time.as_secs_f64());
                match self.return_home(home, now, decision) {
                    Ok((_, wake_extra)) => {
                        let wake = if was_asleep {
                            // The resume latency is the woken host's own
                            // generation's (uniform fleets read the same
                            // profile either way).
                            wol_wait
                                + wake_extra
                                + self.cfg.host_profile_of(home.0).resume_time.as_secs_f64()
                        } else {
                            0.0
                        };
                        self.delays.record(wake + (f64::from(queued) + 1.0) * reint);
                    }
                    Err(waited) => {
                        // The home cannot be woken: promote the
                        // activating VM in place instead.
                        self.fallback_promote(vi);
                        self.delays.record(wol_wait + waited + reint);
                    }
                }
            }
            None => {
                // Raced: the VM is no longer partial.
                self.delays.record(0.0);
            }
        }
    }

    /// Runs one manager planning round and executes the plan.
    fn plan_and_execute(&mut self, now: SimTime) {
        self.refresh_vacatable(now);
        let handoff =
            ResidencyHandoff { residency: &self.residency, exchange_ready: &self.exchange_ready };
        let actions = self.manager.plan_with(&self.view, Some(&handoff));
        // Ids allocated by the manager, aligned index-for-index with the
        // actions; they tie every migration event below back to its
        // `decision_made` audit record.
        let decision_ids: Vec<u64> = self.manager.last_plan_decision_ids().to_vec();
        let interval = (now.as_micros() / (INTERVAL_SECS as u64 * 1_000_000)) as u32;
        self.telemetry.emit(Event::PolicyDecision { interval, actions: actions.len() as u32 });
        // Per-source serialized-work seconds this round, indexed by host
        // position (the `hosts[id]` layout every other index relies on).
        let mut busy = std::mem::take(&mut self.busy_scratch);
        busy.clear();
        busy.resize(self.hosts.len(), 0.0);

        for (ai, action) in actions.into_iter().enumerate() {
            let decision = decision_ids.get(ai).copied().unwrap_or(0);
            match action {
                PlannedAction::Migrate { source, order } => {
                    self.decisions.consolidate += 1;
                    let vi = order.vm.0 as usize;
                    // Skip stale orders (state changed since the snapshot).
                    if self.vms[vi].location != source {
                        continue;
                    }
                    let kind = match order.kind {
                        // A fresh partial migration uploads its image to
                        // the home's memory server; with that server down
                        // it degrades to a full migration so the replica
                        // never depends on a crashed daemon.
                        MigrationType::Partial
                            if !self.vms[vi].partial
                                && self.ms_down.contains(&self.vms[vi].home) =>
                        {
                            self.fault_counts.degraded_to_full += 1;
                            MigrationType::Full
                        }
                        k => k,
                    };
                    let mig_kind = match kind {
                        MigrationType::Full => MigrationKind::Full,
                        MigrationType::Partial => MigrationKind::Partial,
                    };
                    self.telemetry.emit(Event::MigrationStarted {
                        vm: order.vm.0,
                        from: source.0,
                        to: order.destination.0,
                        kind: mig_kind,
                        decision,
                    });
                    // An active stall window holds the transfer: recovery
                    // retries with backoff, and cancels the migration if
                    // the window outlasts the budget (the planner simply
                    // re-plans next round).
                    if let Some(fault) = self.cfg.faults.migration_stalled(now).copied() {
                        match self.stall_recovery(
                            order.vm.0,
                            source.0,
                            order.destination.0,
                            fault,
                            now,
                            decision,
                        ) {
                            Some(held) => {
                                busy[source.0 as usize] += held;
                            }
                            None => continue,
                        }
                    }
                    let di = self.host_index(order.destination);
                    let offset = busy[source.0 as usize];
                    match self.try_wake(di, offset, now, decision) {
                        Ok(_) => {}
                        Err(_) => {
                            // Destination unwakeable: abandon the order.
                            self.fault_counts.migrations_aborted += 1;
                            self.telemetry.emit(Event::MigrationAborted {
                                vm: order.vm.0,
                                from: source.0,
                                to: order.destination.0,
                                attempts: 0,
                                decision,
                            });
                            continue;
                        }
                    }
                    let (moved, downtime) = match kind {
                        MigrationType::Partial if self.vms[vi].partial => {
                            // Drain relocation: the partial replica moves
                            // between consolidation hosts; its memory
                            // server (at its home) is untouched, only the
                            // resident state is pushed across the rack.
                            self.traffic.record(
                                TrafficClass::PartialDescriptor,
                                oasis_migration::partial::DESCRIPTOR_BYTES,
                            );
                            self.traffic.record(TrafficClass::Reintegration, self.vms[vi].demand);
                            let moved =
                                oasis_migration::partial::DESCRIPTOR_BYTES + self.vms[vi].demand;
                            self.move_vm_to(vi, order.destination);
                            busy[source.0 as usize] +=
                                self.stretch_secs(self.cfg.reintegration_time.as_secs_f64());
                            self.counts.partial += 1;
                            (moved, self.stretch(self.cfg.reintegration_time))
                        }
                        MigrationType::Partial => {
                            let class = self.vms[vi].class;
                            let wss = sample_class_wss(
                                class,
                                &self.wss_dist,
                                self.vms[vi].allocation,
                                &mut self.rng,
                            );
                            let upload = if self.vms[vi].uploaded_once {
                                DIFF_UPLOAD.mul_f64(upload_scale(class))
                            } else {
                                FIRST_UPLOAD.mul_f64(upload_scale(class))
                            };
                            self.traffic.record(TrafficClass::MemServerUpload, upload);
                            self.traffic.record(
                                TrafficClass::PartialDescriptor,
                                oasis_migration::partial::DESCRIPTOR_BYTES,
                            );
                            let growth_cap = ByteSize::from_mib_f64(
                                class.idle_model().growth_per_min.as_mib_f64()
                                    * WSS_GROWTH_WINDOW.as_secs_f64()
                                    / 60.0,
                            );
                            self.move_vm_to(vi, order.destination);
                            self.set_vm_partial(vi, true);
                            self.set_vm_demand(vi, wss);
                            let vm = &mut self.vms[vi];
                            vm.wss_cap = wss + growth_cap;
                            vm.consolidated_since = Some(now);
                            vm.uploaded_once = true;
                            busy[source.0 as usize] +=
                                self.stretch_secs(self.cfg.partial_migration_time.as_secs_f64());
                            self.counts.partial += 1;
                            (
                                upload + oasis_migration::partial::DESCRIPTOR_BYTES,
                                self.stretch(self.cfg.partial_migration_time),
                            )
                        }
                        MigrationType::Full => {
                            let moved = self.vms[vi].allocation.mul_f64(1.15);
                            self.traffic.record(TrafficClass::FullMigration, moved);
                            self.set_vm_partial(vi, false);
                            self.move_vm_to(vi, order.destination);
                            self.set_vm_demand(vi, self.vms[vi].allocation);
                            self.vms[vi].consolidated_since = Some(now);
                            busy[source.0 as usize] +=
                                self.stretch_secs(self.cfg.full_migration_time.as_secs_f64());
                            self.counts.full += 1;
                            (moved, self.stretch(self.cfg.full_migration_time))
                        }
                    };
                    self.telemetry.emit(Event::MigrationCompleted {
                        vm: order.vm.0,
                        from: source.0,
                        to: order.destination.0,
                        kind: mig_kind,
                        moved_bytes: moved.as_bytes(),
                        downtime_us: downtime.as_micros(),
                        decision,
                    });
                }
                PlannedAction::Exchange { vm, home, consolidation } => {
                    self.decisions.exchange += 1;
                    let vi = vm.0 as usize;
                    if self.vms[vi].location != consolidation || self.vms[vi].partial {
                        continue;
                    }
                    let hi = self.host_index(home);
                    // An exchange needs the home awake briefly and its
                    // memory server up for the re-upload; with either
                    // faulted the order is abandoned and the VM stays full
                    // on the consolidation host until the next plan.
                    if self.ms_down.contains(&home)
                        || (!self.hosts[hi].powered
                            && self.cfg.faults.wake_failure(home.0, now).is_some())
                    {
                        self.fault_counts.migrations_aborted += 1;
                        self.telemetry.emit(Event::MigrationAborted {
                            vm: vm.0,
                            from: consolidation.0,
                            to: home.0,
                            attempts: 0,
                            decision,
                        });
                        continue;
                    }
                    self.telemetry.emit(Event::MigrationStarted {
                        vm: vm.0,
                        from: consolidation.0,
                        to: home.0,
                        kind: MigrationKind::Exchange,
                        decision,
                    });
                    // Wake the home temporarily: full migration back, then
                    // partial re-consolidation to the same host (§3.2).
                    let episode = self.stretch_secs(
                        self.cfg.full_migration_time.as_secs_f64()
                            + self.cfg.partial_migration_time.as_secs_f64(),
                    );
                    if self.hosts[hi].powered {
                        // Home happens to be awake: the exchange is plain
                        // work on a powered host.
                    } else {
                        let extra = self.cfg.faults.wake_delay_secs(home.0, now);
                        if extra > 0.0 {
                            self.fault_counts.wake_delays += 1;
                        }
                        self.hosts[hi].temporary_episode(episode + extra);
                        self.dirty_hosts[hi] = true;
                        self.telemetry.emit(Event::HostResumed { host: home.0 });
                        self.telemetry.emit(Event::HostSuspended { host: home.0 });
                    }
                    let full_bytes = self.vms[vi].allocation.mul_f64(1.15);
                    self.traffic.record(TrafficClass::FullMigration, full_bytes);
                    let class = self.vms[vi].class;
                    let upload = if self.vms[vi].uploaded_once {
                        DIFF_UPLOAD.mul_f64(upload_scale(class))
                    } else {
                        FIRST_UPLOAD.mul_f64(upload_scale(class))
                    };
                    self.traffic.record(TrafficClass::MemServerUpload, upload);
                    self.traffic.record(
                        TrafficClass::PartialDescriptor,
                        oasis_migration::partial::DESCRIPTOR_BYTES,
                    );
                    let wss = sample_class_wss(
                        class,
                        &self.wss_dist,
                        self.vms[vi].allocation,
                        &mut self.rng,
                    );
                    let growth_cap = ByteSize::from_mib_f64(
                        class.idle_model().growth_per_min.as_mib_f64()
                            * WSS_GROWTH_WINDOW.as_secs_f64()
                            / 60.0,
                    );
                    self.set_vm_partial(vi, true);
                    self.set_vm_demand(vi, wss);
                    let sim_vm = &mut self.vms[vi];
                    sim_vm.wss_cap = wss + growth_cap;
                    sim_vm.consolidated_since = Some(now);
                    sim_vm.uploaded_once = true;
                    self.counts.exchanges += 1;
                    self.telemetry.emit(Event::MigrationCompleted {
                        vm: vm.0,
                        from: consolidation.0,
                        to: consolidation.0,
                        kind: MigrationKind::Exchange,
                        moved_bytes: (full_bytes
                            + upload
                            + oasis_migration::partial::DESCRIPTOR_BYTES)
                            .as_bytes(),
                        downtime_us: SimDuration::from_secs_f64(episode).as_micros(),
                        decision,
                    });
                }
            }
        }

        // Sources drained of all VMs sleep after their serialized work.
        for (h, &serialized) in busy.iter().enumerate() {
            if self.hosts[h].powered && self.residency[h].vms.is_empty() {
                let offset = serialized.min(INTERVAL_SECS);
                self.set_host_power(h, offset, false);
            }
        }
        self.busy_scratch = busy;
    }

    /// Grows consolidated working sets and handles capacity exhaustion.
    fn grow_working_sets(&mut self, now: SimTime) {
        let mut fetched = ByteSize::ZERO;
        // The maintained partial index lists exactly the VMs a full scan
        // filtered on `partial` would visit, in the same ascending
        // order. The growth loop only adjusts demands — never partial
        // membership — so indexed iteration is stable (and skips the
        // defensive clone this loop used to take every interval).
        for pi in 0..self.partials.len() {
            let vi = self.partials[pi];
            debug_assert!(self.vms[vi].partial);
            let vm = &self.vms[vi];
            let growth_per_interval = self.growth_quantum[class_idx(vm.class)];
            let headroom = vm.wss_cap.saturating_sub(vm.demand);
            let growth = growth_per_interval.min(headroom);
            if !growth.is_zero() {
                self.set_vm_demand(vi, self.vms[vi].demand + growth);
                fetched += growth.mul_f64(COMPRESS_RATIO);
            }
        }
        if !fetched.is_zero() {
            self.traffic.record(TrafficClass::DemandFetch, fetched);
        }

        // Capacity exhaustion (§3.2): the host wakes the requesting VM's
        // home and returns all of that home's VMs.
        let capacity = self.cons_capacity;
        for ci in 0..self.cons_hosts.len() {
            let host = self.cons_hosts[ci];
            if self.demand_on(host) <= capacity {
                continue;
            }
            // Rank eviction candidates once from the residency index,
            // largest (demand, id) last so `pop` yields the requester.
            // Demands of surviving candidates cannot change inside the
            // loop (return_home and relocate only move VMs away), so one
            // ranking replaces the per-iteration rescan of `vms_on`;
            // departed or promoted VMs are skipped at pop time.
            let mut candidates: Vec<usize> =
                self.vms_on(host).filter(|&i| self.vms[i].partial).collect();
            candidates.sort_by_key(|&i| (self.vms[i].demand, self.vms[i].id));
            let mut guard = 0;
            while self.demand_on(host) > capacity && guard < 1_000 {
                guard += 1;
                // The largest partial VM still resident is the requester.
                let victim = loop {
                    match candidates.pop() {
                        Some(i) if self.vms[i].location == host && self.vms[i].partial => {
                            break Some(i)
                        }
                        Some(_) => continue,
                        None => break None,
                    }
                };
                match victim {
                    Some(vi) => {
                        let home = self.vms[vi].home;
                        self.telemetry.emit(Event::CapacityExhausted { host: host.0 });
                        // Evicting the requester's home-group is a shed
                        // decision the simulator takes on its own.
                        self.decisions.shed += 1;
                        let decision = self.telemetry.next_decision_id();
                        self.telemetry.emit(Event::DecisionMade {
                            decision,
                            class: DecisionClass::Shed,
                            vm: self.vms[vi].id.0,
                            target: home.0,
                            candidates: 1,
                        });
                        if self.return_home(home, now, decision).is_ok() {
                            continue;
                        }
                        // The home cannot be woken: shed the requester to
                        // a fallback host instead. If none qualifies, the
                        // host rides out the window over-committed.
                        if !self.relocate_to_fallback(vi, now) {
                            break;
                        }
                    }
                    None => break,
                }
            }
        }
    }

    /// Puts hosts drained outside planning (ReturnHome) to sleep.
    fn sleep_empty_hosts(&mut self) {
        for h in 0..self.hosts.len() {
            if self.hosts[h].powered && self.residency[h].vms.is_empty() {
                self.set_host_power(h, INTERVAL_SECS * 0.5, false);
            }
        }
    }

    /// Records the per-interval series and distribution samples.
    fn record(&mut self, now: SimTime) {
        // Summing the index-maintained per-host counts equals a recount
        // of the VM vector (locked by `verify_indices`), without the
        // O(VMs) scan per interval.
        let active: usize = self.residency.iter().map(|r| r.active).sum();
        self.series_active.record(now, active as f64);
        let powered = self.hosts.iter().filter(|h| h.powered).count();
        self.series_powered.record(now, powered as f64);
        for h in &self.hosts {
            if h.role == HostRole::Consolidation && h.powered {
                let n = self.residency[h.id.0 as usize].vms.len();
                if n > 0 {
                    self.ratio.record(n as f64);
                }
            }
        }
    }

    /// Integrates this interval's energy and the §5.3 baseline, and
    /// accumulates the integer-millijoule attribution ledger plus the
    /// per-interval quiescence counts alongside. Closes every host's
    /// power timeline for the interval (`end_interval`).
    // oasis-lint: boundary(float-energy, "fixed per-host fold order makes the f64 sums reproducible; the attribution ledger keeps the integer-mj truth")
    fn account_energy(&mut self, interval: usize) {
        fn mj(joules: f64) -> u64 {
            (joules * 1_000.0).round().max(0.0) as u64
        }
        let ms_watts = self.cfg.memserver.active_watts;
        for h in 0..self.hosts.len() {
            let p = self.cfg.host_profile_of(self.hosts[h].id.0);
            let id = self.hosts[h].id;
            let role = self.hosts[h].role;
            let active = self.active_on(id);
            let awake = self.hosts[h].end_interval();
            let suspends = f64::from(self.hosts[h].suspends);
            let resumes = f64::from(self.hosts[h].resumes);
            let transit =
                suspends * p.suspend_time.as_secs_f64() + resumes * p.resume_time.as_secs_f64();
            let asleep = (INTERVAL_SECS - awake - transit).max(0.0);
            // Sleeping consolidation hosts are spare capacity, not part
            // of the active deployment: their S3 draw is not charged
            // (otherwise Figure 8 would fall linearly with the host count
            // instead of leveling off, as adding unused spares would
            // "cost" energy).
            let sleep_draw = if role == HostRole::Compute { p.sleep_watts } else { 0.0 };
            let mut joules = awake * p.watts(PowerState::Powered, active)
                + suspends * p.suspend_time.as_secs_f64() * p.suspend_watts
                + resumes * p.resume_time.as_secs_f64() * p.resume_watts
                + asleep * sleep_draw;
            // A sleeping home host keeps its memory server powered while
            // it has partial replicas to serve (§5.1); a host vacated
            // purely by full migrations has nothing to serve. The count
            // is index-maintained — no scan of the VM vector.
            let serves_partials = role == HostRole::Compute && self.home_partials[h] > 0;
            if serves_partials {
                joules += asleep * ms_watts;
            }
            self.total_joules += joules;

            // Attribution ledger: the same interval decomposed into
            // active (draw above the zero-VM floor), idle (powered floor
            // + S3 draw), transition and memory-server components, each
            // rounded to integer millijoules per interval.
            let idle_floor = p.watts(PowerState::Powered, 0);
            let active_mj = mj(awake * (p.watts(PowerState::Powered, active) - idle_floor));
            let acc = &mut self.host_energy[h];
            acc.active_mj += active_mj;
            acc.idle_mj += mj(awake * idle_floor + asleep * sleep_draw);
            acc.transition_mj += mj(suspends * p.suspend_time.as_secs_f64() * p.suspend_watts
                + resumes * p.resume_time.as_secs_f64() * p.resume_watts);
            if serves_partials {
                acc.memserver_mj += mj(asleep * ms_watts);
            }
            self.attribute_active_mj(h, active_mj);
            // Quiescence: nothing touched the host's placement or power
            // state this interval and it never transitioned.
            if !self.dirty_hosts[h] && self.hosts[h].suspends == 0 && self.hosts[h].resumes == 0 {
                self.quiescence.host_quiescent += 1;
            }
        }
        self.quiescence.intervals += 1;
        self.quiescence.host_intervals += self.hosts.len() as u64;
        self.quiescence.vm_intervals += self.vms.len() as u64;
        self.quiescence.vm_quiescent += (self.vms.len() - self.dirty_vm_count) as u64;
        // Baseline: home hosts powered all day, VMs in place. Each home
        // is charged its own generation's profile (a homogeneous fleet
        // reads identical values, so the f64 fold is unchanged).
        for home in 0..self.cfg.home_hosts {
            let p = self.cfg.host_profile_of(home);
            let lo = (home * self.cfg.vms_per_host) as usize;
            let hi = lo + self.cfg.vms_per_host as usize;
            let active = self.users[lo..hi].iter().filter(|u| u.is_active(interval)).count();
            self.baseline_joules += INTERVAL_SECS * p.watts(PowerState::Powered, active);
        }
    }

    /// Splits a host's active millijoules over its active residents —
    /// demand-weighted, with the rounding remainder assigned to the
    /// lowest-indexed one so the shares always sum bit-exactly to the
    /// host's active millijoules — accumulating into the per-VM ledger.
    fn attribute_active_mj(&mut self, h: usize, active_mj: u64) {
        if active_mj == 0 {
            return;
        }
        // The active-resident index is exactly the ascending subsequence
        // of residents the old filtered walk visited, so the share order
        // (and the identity of `first`) is unchanged.
        let mut weight_sum: u128 = 0;
        let count = self.residency[h].active_vms.len() as u64;
        for idx in 0..self.residency[h].active_vms.len() {
            let vi = self.residency[h].active_vms[idx];
            debug_assert!(self.vms[vi].state.is_active());
            weight_sum += u128::from(self.vms[vi].demand.as_bytes());
        }
        let Some(&first) = self.residency[h].active_vms.first() else { return };
        let mut assigned = 0u64;
        for idx in 0..self.residency[h].active_vms.len() {
            let vi = self.residency[h].active_vms[idx];
            let w = u128::from(self.vms[vi].demand.as_bytes());
            // Zero total demand degrades to an equal split.
            let share = match (u128::from(active_mj) * w).checked_div(weight_sum) {
                Some(s) => s as u64,
                None => active_mj / count,
            };
            self.vm_energy_mj[vi] += share;
            assigned += share;
        }
        self.vm_energy_mj[first] += active_mj - assigned;
    }

    /// Advances the simulator through interval `interval` (one 5-minute
    /// trace step): fault onsets, trace-driven state changes, planning on
    /// the manager's own cadence, working-set growth, host sleep, series
    /// recording and energy integration.
    pub(crate) fn step_interval(&mut self, interval: usize, next_plan: &mut SimTime) {
        let now = SimTime::from_secs(interval as u64 * INTERVAL_SECS as u64);
        self.telemetry.advance_to(now);
        let active = self.users.iter().filter(|u| u.is_active(interval)).count();
        self.telemetry
            .emit(Event::IntervalStarted { interval: interval as u32, active: active as u32 });
        for h in &mut self.hosts {
            h.begin_interval();
        }
        self.dirty_hosts.iter_mut().for_each(|d| *d = false);
        self.dirty_vms.iter_mut().for_each(|d| *d = false);
        self.dirty_vm_count = 0;
        let scope = self.telemetry.profile("fault_service");
        self.apply_faults(now);
        self.apply_reboots(now);
        scope.end();
        let scope = self.telemetry.profile("activation");
        self.apply_trace(interval, now);
        scope.end();
        // The manager plans on its own configurable interval (§3.1),
        // not on every trace step.
        let scope = self.telemetry.profile("planner");
        if now >= *next_plan {
            self.plan_and_execute(now);
            *next_plan = now + self.cfg.interval;
        }
        scope.end();
        let scope = self.telemetry.profile("fetch");
        self.grow_working_sets(now);
        scope.end();
        let scope = self.telemetry.profile("accounting");
        self.sleep_empty_hosts();
        self.record(now);
        self.account_energy(interval);
        self.energy_series.record(now, self.total_joules / oasis_power::meter::JOULES_PER_KWH);
        scope.end();
    }

    /// Runs one full simulated day and returns the report.
    pub fn run_day(mut self) -> SimReport {
        let day_scope = self.telemetry.profile("run_day");
        let mut next_plan = SimTime::ZERO;
        for interval in 0..INTERVALS_PER_DAY {
            self.step_interval(interval, &mut next_plan);
        }
        day_scope.end();
        self.finish_report()
    }

    /// Assembles the [`SimReport`] after the day loop — shared by
    /// [`Self::run_day`] and the shard tier, so the report
    /// layout cannot drift between them.
    pub(crate) fn finish_report(self) -> SimReport {
        let baseline_kwh = self.baseline_joules / oasis_power::meter::JOULES_PER_KWH;
        let total_kwh = self.total_joules / oasis_power::meter::JOULES_PER_KWH;
        self.telemetry.flush();
        let placements = self
            .vms
            .iter()
            .map(|v| VmPlacement {
                vm: v.id.0,
                home: v.home.0,
                location: v.location.0,
                partial: v.partial,
            })
            .collect();
        SimReport {
            policy: self.cfg.policy,
            day: self.cfg.day,
            home_hosts: self.cfg.home_hosts,
            consolidation_hosts: self.cfg.consolidation_hosts,
            vms: self.cfg.total_vms(),
            baseline_kwh,
            total_kwh,
            energy_savings: oasis_power::meter::savings_fraction(
                self.baseline_joules,
                self.total_joules,
            ),
            active_vms_series: self.series_active,
            powered_hosts_series: self.series_powered,
            transition_delays: self.delays,
            consolidation_ratio: self.ratio,
            traffic: self.traffic,
            migrations: self.counts,
            faults: self.fault_counts,
            recovery_times: self.recovery_times,
            energy_series: self.energy_series,
            placements,
            energy: EnergyLedger {
                hosts: self.host_energy,
                vms: self
                    .vms
                    .iter()
                    .enumerate()
                    .map(|(i, v)| VmEnergy { vm: v.id.0, share_mj: self.vm_energy_mj[i] })
                    .collect(),
            },
            quiescence: self.quiescence,
            decisions: self.decisions,
            telemetry: self.telemetry.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    fn host() -> SimHost {
        SimHost {
            id: HostId(0),
            role: HostRole::Compute,
            powered: true,
            awake_secs: 0.0,
            last_on_offset: 0.0,
            suspends: 0,
            resumes: 0,
        }
    }

    #[test]
    fn timeline_full_interval_powered() {
        let mut h = host();
        h.begin_interval();
        assert_eq!(h.end_interval(), INTERVAL_SECS);
        assert_eq!(h.suspends, 0);
        assert_eq!(h.resumes, 0);
    }

    #[test]
    fn timeline_sleep_mid_interval() {
        let mut h = host();
        h.begin_interval();
        h.set_power(120.0, false);
        assert_eq!(h.end_interval(), 120.0);
        assert_eq!(h.suspends, 1);
        // The next interval is fully asleep.
        h.begin_interval();
        assert_eq!(h.end_interval(), 0.0);
    }

    #[test]
    fn timeline_wake_mid_interval() {
        let mut h = host();
        h.powered = false;
        h.begin_interval();
        h.set_power(200.0, true);
        assert_eq!(h.end_interval(), 100.0);
        assert_eq!(h.resumes, 1);
    }

    #[test]
    fn timeline_bounce_within_interval() {
        let mut h = host();
        h.powered = false;
        h.begin_interval();
        h.set_power(50.0, true);
        h.set_power(80.0, false);
        h.set_power(200.0, true);
        let awake = h.end_interval();
        assert!((awake - (30.0 + 100.0)).abs() < 1e-9, "awake {awake}");
        assert_eq!(h.resumes, 2);
        assert_eq!(h.suspends, 1);
    }

    #[test]
    fn timeline_redundant_set_power_is_noop() {
        let mut h = host();
        h.begin_interval();
        h.set_power(10.0, true);
        assert_eq!(h.suspends + h.resumes, 0);
        assert_eq!(h.end_interval(), INTERVAL_SECS);
    }

    #[test]
    fn temporary_episode_counts_transitions() {
        let mut h = host();
        h.powered = false;
        h.begin_interval();
        h.temporary_episode(17.2);
        assert_eq!(h.end_interval(), 17.2);
        assert_eq!(h.suspends, 1);
        assert_eq!(h.resumes, 1);
        assert!(!h.powered, "the host is asleep again afterwards");
    }

    #[test]
    fn awake_capped_at_interval_length() {
        let mut h = host();
        h.powered = false;
        h.begin_interval();
        h.temporary_episode(500.0);
        assert_eq!(h.end_interval(), INTERVAL_SECS);
    }

    fn tiny_sim() -> ClusterSim {
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .build()
            .expect("valid configuration");
        ClusterSim::new(cfg)
    }

    /// Moves a VM onto `host` as a partial replica through the index
    /// helpers (direct field writes would desync the residency index).
    fn consolidate(sim: &mut ClusterSim, vi: usize, host: HostId, demand: ByteSize) {
        sim.move_vm_to(vi, host);
        sim.set_vm_partial(vi, true);
        sim.set_vm_demand(vi, demand);
        sim.vms[vi].consolidated_since = Some(SimTime::ZERO);
    }

    #[test]
    fn snapshot_reflects_initial_state() {
        let sim = tiny_sim();
        let view = sim.snapshot(SimTime::ZERO);
        assert_eq!(view.hosts.len(), 3);
        assert_eq!(view.vms.len(), 6);
        assert_eq!(view.powered_hosts(), 2, "consolidation host sleeps");
        for vm in &view.vms {
            assert_eq!(vm.home, vm.location);
            assert!(!vm.partial);
            assert_eq!(vm.demand, vm.allocation);
        }
    }

    #[test]
    fn return_home_brings_every_vm_back() {
        let mut sim = tiny_sim();
        // Manually consolidate home 0's VMs onto the consolidation host.
        let cons = HostId(2);
        for vi in 0..3 {
            consolidate(&mut sim, vi, cons, ByteSize::mib(165));
        }
        sim.hosts[0].set_power(0.0, false);
        sim.hosts[2].set_power(0.0, true);

        let (work, wake_extra) = sim
            .return_home(HostId(0), SimTime::from_secs(600), 0)
            .expect("no wake faults scheduled");
        assert!(work > 0.0);
        assert_eq!(wake_extra, 0.0);
        assert!(sim.hosts[0].powered, "home woke");
        for vi in 0..3 {
            assert_eq!(sim.vms[vi].location, HostId(0));
            assert!(!sim.vms[vi].partial);
            assert_eq!(sim.vms[vi].demand, sim.vms[vi].allocation);
        }
        assert_eq!(sim.counts.returns_home, 1);
        assert!(sim.traffic.total(TrafficClass::Reintegration).as_bytes() > 0);
    }

    #[test]
    fn try_wake_honours_wake_failure_windows() {
        let schedule = oasis_faults::FaultSchedule::new(vec![Fault {
            kind: oasis_faults::FaultClass::WakeFailure,
            host: Some(0),
            start: SimTime::ZERO,
            duration: SimDuration::from_hours(2),
            severity: 1.0,
        }]);
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .faults(schedule)
            .build()
            .expect("valid configuration");
        let mut sim = ClusterSim::new(cfg);
        sim.hosts[0].set_power(0.0, false);
        // Inside the window the recovery budget (< 40 s) cannot outlast
        // the two-hour fault: the wake is abandoned, the host sleeps on.
        assert!(sim.try_wake(0, 0.0, SimTime::from_secs(600), 0).is_err());
        assert!(!sim.hosts[0].powered);
        assert_eq!(sim.fault_counts.wake_failures, 1);
        assert_eq!(sim.fault_counts.wake_exhausted, 1);
        assert!(sim.fault_counts.wake_retries > 0);
        // Past the window the wake is clean.
        assert_eq!(sim.try_wake(0, 0.0, SimTime::from_secs(3 * 3600), 0), Ok(0.0));
        assert!(sim.hosts[0].powered);
    }

    #[test]
    fn wake_delay_surfaces_as_extra_resume_latency() {
        let schedule = oasis_faults::FaultSchedule::new(vec![Fault {
            kind: oasis_faults::FaultClass::WakeDelay,
            host: Some(0),
            start: SimTime::ZERO,
            duration: SimDuration::from_hours(2),
            severity: 45.0,
        }]);
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .faults(schedule)
            .build()
            .expect("valid configuration");
        let mut sim = ClusterSim::new(cfg);
        sim.hosts[0].set_power(0.0, false);
        assert_eq!(sim.try_wake(0, 0.0, SimTime::from_secs(600), 0), Ok(45.0));
        assert!(sim.hosts[0].powered, "a delayed wake still succeeds");
        assert_eq!(sim.fault_counts.wake_delays, 1);
        assert_eq!(sim.fault_counts.wake_failures, 0);
    }

    #[test]
    fn return_home_fails_closed_under_wake_failure() {
        let schedule = oasis_faults::FaultSchedule::new(vec![Fault {
            kind: oasis_faults::FaultClass::WakeFailure,
            host: Some(0),
            start: SimTime::ZERO,
            duration: SimDuration::from_hours(24),
            severity: 1.0,
        }]);
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .faults(schedule)
            .build()
            .expect("valid configuration");
        let mut sim = ClusterSim::new(cfg);
        let cons = HostId(2);
        for vi in 0..3 {
            consolidate(&mut sim, vi, cons, ByteSize::mib(165));
        }
        sim.hosts[0].set_power(0.0, false);
        sim.hosts[2].set_power(0.0, true);
        assert!(sim.return_home(HostId(0), SimTime::from_secs(600), 0).is_err());
        assert!(!sim.hosts[0].powered, "home still asleep");
        for vi in 0..3 {
            assert_eq!(sim.vms[vi].location, cons, "no VM moved");
            assert!(sim.vms[vi].partial);
        }
        assert_eq!(sim.counts.returns_home, 0);
    }

    #[test]
    fn memserver_crash_rehomes_orphaned_partials() {
        let schedule = oasis_faults::FaultSchedule::new(vec![Fault {
            kind: oasis_faults::FaultClass::MemServerCrash,
            host: Some(0),
            start: SimTime::from_secs(600),
            duration: SimDuration::from_hours(1),
            severity: 1.0,
        }]);
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .faults(schedule)
            .build()
            .expect("valid configuration");
        let mut sim = ClusterSim::new(cfg);
        let cons = HostId(2);
        for vi in 0..3 {
            consolidate(&mut sim, vi, cons, ByteSize::mib(165));
        }
        sim.apply_faults(SimTime::from_secs(600));
        assert!(sim.ms_down.contains(&HostId(0)));
        assert_eq!(sim.fault_counts.memserver_crashes, 1);
        assert_eq!(sim.fault_counts.rehomed_vms, 3);
        for vi in 0..3 {
            assert!(!sim.vms[vi].partial, "orphan promoted to full");
            assert_eq!(sim.vms[vi].demand, sim.vms[vi].allocation);
        }
        // The crash window ends: the next boundary announces the restart.
        sim.apply_faults(SimTime::from_secs(600 + 3700));
        assert!(!sim.ms_down.contains(&HostId(0)));
    }

    #[test]
    fn link_degradation_stretches_latencies_for_the_interval() {
        let schedule = oasis_faults::FaultSchedule::new(vec![Fault {
            kind: oasis_faults::FaultClass::LinkDegraded,
            host: None,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(900),
            severity: 4.0,
        }]);
        let cfg = ClusterConfig::builder()
            .home_hosts(2)
            .consolidation_hosts(1)
            .vms_per_host(3)
            .seed(5)
            .faults(schedule)
            .build()
            .expect("valid configuration");
        let mut sim = ClusterSim::new(cfg);
        sim.apply_faults(SimTime::ZERO);
        assert_eq!(sim.link_factor, 4.0);
        assert_eq!(sim.stretch_secs(10.0), 40.0);
        assert_eq!(sim.stretch(SimDuration::from_secs(10)), SimDuration::from_secs(40));
        sim.apply_faults(SimTime::from_secs(900));
        assert_eq!(sim.link_factor, 1.0);
        assert_eq!(sim.fault_counts.link_degradations, 1);
    }

    #[test]
    fn demand_accounting() {
        let sim = tiny_sim();
        assert_eq!(sim.demand_on(HostId(0)), ByteSize::gib(12));
        assert_eq!(sim.demand_on(HostId(2)), ByteSize::ZERO);
        assert_eq!(sim.active_on(HostId(0)), 0, "VMs start idle");
    }

    #[test]
    fn indices_start_consistent() {
        tiny_sim().verify_indices().expect("fresh indices match recount");
    }

    /// Property: after any sequence of random mutations through the
    /// index helpers — placements, promotions, demand changes, state
    /// flips, crash re-homing, returns — every incremental index equals
    /// a from-scratch recount.
    #[test]
    fn indices_equal_recount_after_random_mutations() {
        for seed in 0..8u64 {
            let cfg = ClusterConfig::builder()
                .home_hosts(4)
                .consolidation_hosts(2)
                .vms_per_host(5)
                .seed(seed + 11)
                .build()
                .expect("valid configuration");
            let mut sim = ClusterSim::new(cfg);
            let mut rng = SimRng::new(0xD1CE ^ seed);
            let hosts = sim.hosts.len();
            let vms = sim.vms.len();
            for op in 0..400 {
                let vi = rng.index(vms);
                match rng.below(8) {
                    0 | 1 => {
                        let dest = HostId(rng.index(hosts) as u32);
                        sim.move_vm_to(vi, dest);
                    }
                    2 => {
                        let mib = rng.range_f64(16.0, sim.vms[vi].allocation.as_mib_f64());
                        sim.set_vm_demand(vi, ByteSize::from_mib_f64(mib));
                    }
                    3 => sim.set_vm_partial(vi, !sim.vms[vi].partial),
                    4 => {
                        let state = if sim.vms[vi].state.is_active() {
                            VmState::Idle
                        } else {
                            VmState::Active
                        };
                        sim.set_vm_state(vi, state);
                    }
                    5 => sim.fallback_promote(vi),
                    6 => {
                        let home = HostId(rng.index(sim.cfg.home_hosts as usize) as u32);
                        sim.recover_orphans(home);
                    }
                    _ => {
                        let home = HostId(rng.index(sim.cfg.home_hosts as usize) as u32);
                        let _ = sim.return_home(home, SimTime::from_secs(600), 0);
                    }
                }
                sim.verify_indices().unwrap_or_else(|e| {
                    panic!("seed {seed}, op {op}: index drifted from recount: {e}")
                });
            }
        }
    }

    /// Property: the indices stay consistent across every interval of a
    /// full simulated day under a heavy fault schedule (wake failures,
    /// memory-server crashes, stalls, link degradation all exercise the
    /// recovery mutation paths).
    #[test]
    fn indices_equal_recount_through_a_faulted_day() {
        for seed in [1u64, 2, 3] {
            let schedule = oasis_faults::FaultSchedule::random(
                oasis_faults::FaultProfile::heavy(),
                8,
                SimDuration::from_hours(24),
                seed ^ 0xFA17,
            );
            let cfg = ClusterConfig::builder()
                .home_hosts(6)
                .consolidation_hosts(2)
                .vms_per_host(10)
                .seed(seed)
                .wol_loss_rate(0.2)
                .faults(schedule)
                .build()
                .expect("valid configuration");
            let mut sim = ClusterSim::new(cfg);
            let mut next_plan = SimTime::ZERO;
            for interval in 0..INTERVALS_PER_DAY {
                sim.step_interval(interval, &mut next_plan);
                sim.verify_indices().unwrap_or_else(|e| {
                    panic!("seed {seed}, interval {interval}: index drifted: {e}")
                });
                let now = SimTime::from_secs((interval as u64 + 1) * INTERVAL_SECS as u64);
                sim.verify_view(now).unwrap_or_else(|e| {
                    panic!("seed {seed}, interval {interval}: view drifted: {e}")
                });
            }
        }
    }
}
