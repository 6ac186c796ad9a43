//! The greedy vacate planner (§3.1 "where to migrate").
//!
//! "First, we sort the compute hosts by their total VM memory demand …
//! in ascending order and form a queue of hosts to vacate. We find a plan
//! that vacates the maximum number of compute hosts from the queue. The
//! destination for each migrating VM is selected at random from the
//! consolidation hosts list," subject to memory capacity.
//!
//! Consolidation hosts sleep by default; the planner prefers already
//! powered destinations and wakes a sleeping one only when the powered
//! set is full. A final net-energy check ("the cluster manager
//! consolidates VMs only when it determines that doing so can save
//! energy", §3.1) discards vacate plans whose savings would not cover the
//! consolidation hosts they power on.

use oasis_mem::ByteSize;
use oasis_migration::{MigrationOrder, MigrationType};
use oasis_sim::SimRng;
use oasis_vm::{HostId, VmId, VmState};

use crate::policy::{ActivationDecision, PlannedAction, PolicyKind};
use crate::view::{ClusterView, HostRole, ResidencyIndex, VmView};

/// How the planner picks a destination among viable consolidation hosts.
///
/// §3.1 uses random selection and explicitly leaves "more sophisticated
/// placement algorithms that optimize specific goals, such as reducing
/// memory fragmentation" out of scope; the alternatives here let the
/// `ablation_placement` bench quantify what that choice costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// The paper's policy: uniformly random among hosts with capacity.
    #[default]
    Random,
    /// Tightest fit: the viable host with the least free capacity.
    BestFit,
    /// Loosest fit: the viable host with the most free capacity.
    WorstFit,
    /// Lowest host id first (deterministic packing).
    FirstFit,
}

/// Energy parameters of the net-saving check.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Watts saved by putting one home host to sleep (idle power minus
    /// sleeping host + memory server: 102.2 − 55.1 with the prototype).
    pub home_sleep_saving_watts: f64,
    /// Watts cost of powering one consolidation host (its idle draw).
    pub consolidation_power_watts: f64,
    /// Capacity the planner leaves unplanned on each consolidation host
    /// so partial VMs that activate can promote in place instead of
    /// waking their home (§3.2's Default path is expensive; headroom
    /// keeps it rare).
    pub promotion_headroom: ByteSize,
    /// Destination-selection strategy (the paper uses [`PlacementStrategy::Random`]).
    pub strategy: PlacementStrategy,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            home_sleep_saving_watts: 102.2 - (12.9 + 42.2),
            consolidation_power_watts: 102.2,
            promotion_headroom: ByteSize::gib(8),
            strategy: PlacementStrategy::default(),
        }
    }
}

/// One-pass per-host aggregates over a snapshot.
///
/// The planner used to answer every `demand_on`/`vms_on`/`host` query
/// with a fresh scan of the VM vector — `O(hosts × VMs)` per round, and
/// worse inside sort comparators. This index is built once per round in
/// a single pass; the per-host demand sums accumulate in the same VM
/// order the scans used (integer adds, so the totals are bit-equal) and
/// the resident lists preserve VM-vector order exactly.
enum HostIndex<'a> {
    /// Borrowed from a caller-maintained [`ResidencyIndex`]; nothing is
    /// rebuilt or allocated per round.
    External(&'a dyn ResidencyIndex),
    /// Built from a pass over the VM vector — the path for arbitrary
    /// hand-assembled views.
    Built {
        /// Total resident demand per host position.
        demand: Vec<ByteSize>,
        /// Indices into `view.vms` of residents, per host position, in
        /// VM-vector order.
        residents: Vec<Vec<usize>>,
    },
}

/// Position of `id` in `view.hosts`: O(1) for the `hosts[id]` layout the
/// simulator builds, falling back to a scan for arbitrary views. Ids are
/// unique in a well-formed view, so both paths name the same host.
fn host_pos(view: &ClusterView, id: HostId) -> Option<usize> {
    let p = id.0 as usize;
    if view.hosts.get(p).is_some_and(|h| h.id == id) {
        return Some(p);
    }
    view.hosts.iter().position(|h| h.id == id)
}

impl<'a> HostIndex<'a> {
    fn new(view: &ClusterView, external: Option<&'a dyn ResidencyIndex>) -> Self {
        if let Some(ext) = external {
            return HostIndex::External(ext);
        }
        let mut demand = vec![ByteSize::ZERO; view.hosts.len()];
        let mut residents = vec![Vec::new(); view.hosts.len()];
        for (vi, vm) in view.vms.iter().enumerate() {
            if let Some(p) = host_pos(view, vm.location) {
                demand[p] += vm.demand;
                residents[p].push(vi);
            }
        }
        HostIndex::Built { demand, residents }
    }

    fn demand_on(&self, view: &ClusterView, host: HostId) -> ByteSize {
        match host_pos(view, host) {
            Some(p) => match self {
                HostIndex::External(ext) => ext.demand(p),
                HostIndex::Built { demand, .. } => demand[p],
            },
            None => ByteSize::ZERO,
        }
    }

    fn has_residents(&self, view: &ClusterView, host: HostId) -> bool {
        !self.resident_indices(view, host).is_empty()
    }

    /// Indices into `view.vms` of `host`'s residents, in VM-vector order.
    fn resident_indices(&self, view: &ClusterView, host: HostId) -> &[usize] {
        match host_pos(view, host) {
            Some(p) => match self {
                HostIndex::External(ext) => ext.residents(p),
                HostIndex::Built { residents, .. } => &residents[p],
            },
            None => &[],
        }
    }

    fn role_of(&self, view: &ClusterView, host: HostId) -> Option<HostRole> {
        host_pos(view, host).map(|p| view.hosts[p].role)
    }
}

/// One consolidation host's planned capacity state.
#[derive(Clone, Copy, Debug)]
struct LedgerEntry {
    id: HostId,
    /// Free bytes after planned placements.
    free: ByteSize,
    /// Powered state (including planned wakes).
    powered: bool,
}

/// Tracks planned capacity changes during one planning round.
///
/// Stored as a vector sorted by ascending [`HostId`] — the same order a
/// `BTreeMap<HostId, _>` would iterate in — so candidate lists, and
/// therefore every `rng.choose` index, are unchanged from the map-based
/// implementation this replaced. The planner touches the ledger once or
/// twice per VM, and a handful of hosts fit in a cache line where the
/// map chased pointers.
struct CapacityLedger {
    entries: Vec<LedgerEntry>,
    /// Hosts this plan wakes.
    woken: Vec<HostId>,
}

impl CapacityLedger {
    fn new(view: &ClusterView, index: &HostIndex, headroom: ByteSize) -> Self {
        let mut entries: Vec<LedgerEntry> = view
            .consolidation_hosts()
            .map(|h| {
                let unreserved = h.capacity.saturating_sub(index.demand_on(view, h.id));
                LedgerEntry {
                    id: h.id,
                    free: unreserved.saturating_sub(headroom),
                    powered: h.powered,
                }
            })
            .collect();
        entries.sort_by_key(|e| e.id);
        CapacityLedger { entries, woken: Vec::new() }
    }

    fn entry_pos(&self, host: HostId) -> usize {
        self.entries.binary_search_by_key(&host, |e| e.id).expect("known consolidation host")
    }

    fn free_of(&self, host: HostId) -> ByteSize {
        self.entries[self.entry_pos(host)].free
    }

    /// Powered consolidation hosts that can fit `need`, in ascending id
    /// order, collected into the caller's scratch buffer.
    fn powered_candidates_into(&self, need: ByteSize, out: &mut Vec<HostId>) {
        out.clear();
        out.extend(self.entries.iter().filter(|e| e.powered && e.free >= need).map(|e| e.id));
    }

    /// Picks among `candidates` according to the strategy.
    fn choose(
        &self,
        candidates: &[HostId],
        strategy: PlacementStrategy,
        rng: &mut SimRng,
    ) -> Option<HostId> {
        match strategy {
            PlacementStrategy::Random => rng.choose(candidates).copied(),
            PlacementStrategy::FirstFit => candidates.iter().min().copied(),
            PlacementStrategy::BestFit => {
                candidates.iter().min_by_key(|&&id| (self.free_of(id), id)).copied()
            }
            PlacementStrategy::WorstFit => {
                candidates.iter().max_by_key(|&&id| (self.free_of(id), id)).copied()
            }
        }
    }

    /// Wakes the sleeping host with the most free space that fits `need`.
    ///
    /// Ties break toward the highest id, matching `max_by_key` over the
    /// old map's ascending iteration (the last maximal element wins).
    fn wake_for(&mut self, need: ByteSize) -> Option<HostId> {
        let best = self
            .entries
            .iter()
            .filter(|e| !e.powered && e.free >= need)
            .max_by_key(|e| e.free)
            .map(|e| e.id)?;
        let pos = self.entry_pos(best);
        self.entries[pos].powered = true;
        self.woken.push(best);
        Some(best)
    }

    fn reserve(&mut self, host: HostId, need: ByteSize) {
        let pos = self.entry_pos(host);
        let free = &mut self.entries[pos].free;
        *free = free.saturating_sub(need);
    }

    fn release(&mut self, host: HostId, amount: ByteSize) {
        let pos = self.entry_pos(host);
        self.entries[pos].free += amount;
    }
}

/// Aggregate inputs and outcomes of one planning round, recorded for
/// the decision audit trail.
///
/// Collected with pure counting — no extra RNG draws, no reordering —
/// so a run with stats enabled plans byte-identically to one without.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Candidate-set size the chooser examined for each *returned*
    /// action, aligned index-for-index with the action vector.
    pub action_candidates: Vec<u32>,
    /// FulltoPartial exchanges planned.
    pub exchanges: u32,
    /// Home hosts the vacate pass emptied.
    pub vacated: u32,
    /// Consolidation hosts the plan wakes.
    pub woken: u32,
    /// Net-energy verdict for the vacate pass.
    pub approved: bool,
    /// Consolidation hosts the drain pass emptied.
    pub drained: u32,
    /// Total candidate-set sizes examined, including placements later
    /// discarded with their host's failed vacate/drain attempt.
    pub candidates_examined: u32,
    /// Aggregate resident VM demand across the view, whole MiB.
    pub demand_mib: u64,
}

/// Plans one consolidation interval; returns the actions to execute.
pub fn plan_consolidation(
    view: &ClusterView,
    policy: PolicyKind,
    config: &PlannerConfig,
    rng: &mut SimRng,
) -> Vec<PlannedAction> {
    plan_consolidation_traced(
        &oasis_telemetry::Telemetry::disabled(),
        view,
        policy,
        config,
        rng,
        None,
    )
    .0
}

/// [`plan_consolidation`] under a `plan_consolidation` profiler scope
/// on `telemetry`, planning against the caller's residency index when
/// one is given, and returning the round's [`PlanStats`] for the audit
/// trail. The `planned_actions_total` counter is the manager's job (it
/// caches the handle across rounds).
pub fn plan_consolidation_traced(
    telemetry: &oasis_telemetry::Telemetry,
    view: &ClusterView,
    policy: PolicyKind,
    config: &PlannerConfig,
    rng: &mut SimRng,
    external: Option<&dyn ResidencyIndex>,
) -> (Vec<PlannedAction>, PlanStats) {
    // With a maintained `host_demand` aggregate the cluster-wide demand
    // is the sum of the per-host integer sums — bit-equal to the VM
    // scan (integer adds commute) at O(hosts) instead of O(VMs).
    let total_demand = if view.host_demand.len() == view.hosts.len() {
        view.host_demand.iter().copied().sum::<ByteSize>()
    } else {
        view.vms.iter().map(|v| v.demand).sum::<ByteSize>()
    };
    let mut stats = PlanStats { demand_mib: total_demand.as_mib(), ..PlanStats::default() };
    if policy == PolicyKind::AlwaysOn {
        return (Vec::new(), stats);
    }

    let scope = telemetry.profile("plan_consolidation");
    let index = HostIndex::new(view, external);
    let mut ledger = CapacityLedger::new(view, &index, config.promotion_headroom);
    let mut actions = Vec::new();
    // Candidate scratch, reused across every per-VM query in the round.
    let mut candidates: Vec<HostId> = Vec::new();

    // Exchange pass (§3.2 FulltoPartial): a full VM gone idle on a
    // consolidation host is swapped for a partial replica of itself,
    // freeing `allocation − working set` on the spot.
    if policy.exchanges_full_for_partial() {
        let pass = telemetry.profile("exchange_pass");
        // A maintained candidate list (ascending, a superset of what the
        // full sweep would select — each entry is re-checked below)
        // replaces the every-round O(VMs) scan with a walk of only the
        // VMs that can match; the selected set, and everything derived
        // from it, is identical either way.
        let mut sweep = |vm: &VmView| {
            let on_consolidation =
                index.role_of(view, vm.location) == Some(HostRole::Consolidation);
            let has_remote_home = vm.home != vm.location;
            if on_consolidation && !vm.partial && vm.state == VmState::Idle && has_remote_home {
                actions.push(PlannedAction::Exchange {
                    vm: vm.id,
                    home: vm.home,
                    consolidation: vm.location,
                });
                stats.action_candidates.push(1);
                stats.exchanges += 1;
                stats.candidates_examined += 1;
                ledger.release(vm.location, vm.allocation.saturating_sub(vm.partial_demand));
                ledger.reserve(vm.location, ByteSize::ZERO);
            }
        };
        match external.and_then(|e| e.full_idle_consolidated()) {
            Some(list) => {
                for &vi in list {
                    sweep(&view.vms[vi]);
                }
            }
            None => {
                for vm in &view.vms {
                    sweep(vm);
                }
            }
        }
        pass.end();
    }

    // Vacate pass: queue of powered compute hosts by ascending demand.
    let pass = telemetry.profile("vacate_pass");
    let mut queue: Vec<HostId> = view
        .compute_hosts()
        .filter(|h| h.powered && h.vacatable && index.has_residents(view, h.id))
        .map(|h| h.id)
        .collect();
    queue.sort_by_key(|&h| (index.demand_on(view, h), h));

    let mut vacated = 0usize;
    let mut vacate_actions = Vec::new();
    let mut vacate_candidates = Vec::new();
    // Tentative placements for the host being scanned, hoisted so one
    // buffer serves every scan of the round.
    let mut tentative: Vec<(PlannedAction, HostId, ByteSize, u32)> = Vec::new();
    for host in queue {
        let _host_scan = telemetry.profile("vacate_host_scan");
        let vms = index.resident_indices(view, host);
        if policy == PolicyKind::OnlyPartial && vms.iter().any(|&vi| view.vms[vi].state.is_active())
        {
            continue; // Cannot vacate a host with active VMs.
        }
        tentative.clear();
        let mut ok = true;
        for &vi in vms {
            let vm = &view.vms[vi];
            let (kind, need) = match (policy, vm.state) {
                (PolicyKind::FullOnly, _) | (_, VmState::Active) => {
                    (MigrationType::Full, vm.allocation)
                }
                (_, VmState::Idle) => (MigrationType::Partial, vm.partial_demand),
            };
            ledger.powered_candidates_into(need, &mut candidates);
            let mut examined = candidates.len() as u32;
            stats.candidates_examined += examined;
            let destination = match ledger.choose(&candidates, config.strategy, rng) {
                Some(d) => d,
                // Waking an additional consolidation host is justified by
                // idle working sets, not by active VMs: a consolidated
                // active VM will shortly bounce (exchange or return), so
                // the cluster only provisions powered consolidation
                // capacity "to host all idle (and a few active) VMs"
                // (§5.3) — actives ride along in whatever powered
                // capacity exists.
                None if kind == MigrationType::Partial || !policy.uses_partial() => {
                    match ledger.wake_for(need) {
                        Some(d) => {
                            examined += 1;
                            stats.candidates_examined += 1;
                            d
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                None => {
                    ok = false;
                    break;
                }
            };
            ledger.reserve(destination, need);
            tentative.push((
                PlannedAction::Migrate {
                    source: host,
                    order: MigrationOrder { vm: vm.id, kind, destination },
                },
                destination,
                need,
                examined,
            ));
        }
        if ok {
            vacated += 1;
            for (a, _, _, examined) in tentative.drain(..) {
                vacate_actions.push(a);
                vacate_candidates.push(examined);
            }
        } else {
            for (_, dest, need, _) in tentative.drain(..) {
                ledger.release(dest, need);
            }
        }
    }
    pass.end();

    // Net-energy check: do the vacated homes pay for the newly woken
    // consolidation hosts?
    let saving = vacated as f64 * config.home_sleep_saving_watts;
    let cost = ledger.woken.len() as f64 * config.consolidation_power_watts;
    let vacates_approved = saving > cost;
    stats.approved = vacates_approved;
    stats.woken = ledger.woken.len() as u32;
    stats.vacated = vacated as u32;
    if vacates_approved {
        actions.extend(vacate_actions);
        stats.action_candidates.extend(vacate_candidates);
    }

    // Drain pass: consolidation hosts left underused (e.g. after the
    // daytime peak) are emptied into their powered peers so they can
    // sleep — this is what packs all 900 VMs into three hosts at night
    // (§5.2). Draining never wakes a host, so it is a pure win for the
    // powered-host count.
    let pass = telemetry.profile("drain_pass");
    let mut drain_queue: Vec<HostId> = view
        .consolidation_hosts()
        .filter(|h| h.powered && index.has_residents(view, h.id))
        .map(|h| h.id)
        .collect();
    drain_queue.sort_by_key(|&h| (index.demand_on(view, h), h));
    let mut drained: Vec<HostId> = Vec::new();
    for host in drain_queue {
        let _host_scan = telemetry.profile("drain_host_scan");
        let vms = index.resident_indices(view, host);
        tentative.clear();
        let mut ok = true;
        for &vi in vms {
            let vm = &view.vms[vi];
            let (kind, need) = if vm.partial {
                (MigrationType::Partial, vm.demand)
            } else {
                (MigrationType::Full, vm.allocation)
            };
            // When the vacate plan was suppressed, its tentatively woken
            // hosts are not actually powering on: exclude them.
            ledger.powered_candidates_into(need, &mut candidates);
            candidates.retain(|&d| {
                d != host
                    && !drained.contains(&d)
                    && (vacates_approved || !ledger.woken.contains(&d))
            });
            stats.candidates_examined += candidates.len() as u32;
            match ledger.choose(&candidates, config.strategy, rng) {
                Some(destination) => {
                    ledger.reserve(destination, need);
                    tentative.push((
                        PlannedAction::Migrate {
                            source: host,
                            order: MigrationOrder { vm: vm.id, kind, destination },
                        },
                        destination,
                        need,
                        candidates.len() as u32,
                    ));
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            drained.push(host);
            for (a, _, _, examined) in tentative.drain(..) {
                actions.push(a);
                stats.action_candidates.push(examined);
            }
        } else {
            for (_, dest, need, _) in tentative.drain(..) {
                ledger.release(dest, need);
            }
        }
    }
    stats.drained = drained.len() as u32;
    pass.end();
    scope.end();
    debug_assert_eq!(stats.action_candidates.len(), actions.len());
    (actions, stats)
}

/// Handles a partial VM that became active (§3.2 state-change policies).
pub fn on_partial_activated(
    view: &ClusterView,
    vm_id: VmId,
    policy: PolicyKind,
    rng: &mut SimRng,
) -> Option<ActivationDecision> {
    on_partial_activated_with_stats(view, vm_id, policy, rng).0
}

/// [`on_partial_activated`] plus the number of placement candidates the
/// policy examined, for the decision audit trail.
pub fn on_partial_activated_with_stats(
    view: &ClusterView,
    vm_id: VmId,
    policy: PolicyKind,
    rng: &mut SimRng,
) -> (Option<ActivationDecision>, u32) {
    let Some(vm) = view.vm(vm_id) else {
        return (None, 0);
    };
    if !vm.partial {
        return (None, 0);
    }
    let need = vm.allocation.saturating_sub(vm.demand);
    if view.free_on(vm.location) >= need && policy != PolicyKind::OnlyPartial {
        // Default (and refinements): promote in place; the consolidation
        // host becomes the VM's new home.
        return (Some(ActivationDecision::PromoteInPlace { vm: vm_id }), 1);
    }
    if policy.relocates_on_saturation() {
        // NewHome: any other powered host with room for the full VM.
        let candidates: Vec<HostId> = view
            .hosts
            .iter()
            .filter(|h| h.powered && h.id != vm.location)
            .filter(|h| view.free_on(h.id) >= vm.allocation)
            .map(|h| h.id)
            .collect();
        if let Some(&destination) = rng.choose(&candidates) {
            return (
                Some(ActivationDecision::MoveTo { vm: vm_id, destination }),
                candidates.len() as u32,
            );
        }
    }
    // Default strategy: wake the home, return all of its VMs.
    let vms: Vec<VmId> = view.vms_homed_at(vm.home).map(|v| v.id).collect();
    (Some(ActivationDecision::ReturnHome { home: vm.home, vms }), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::testutil::small_cluster;
    use oasis_vm::VmState;

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    /// Planner config without promotion headroom, for tests that size
    /// capacities exactly.
    fn exact_config() -> PlannerConfig {
        PlannerConfig { promotion_headroom: ByteSize::ZERO, ..PlannerConfig::default() }
    }

    #[test]
    fn always_on_plans_nothing() {
        let view = small_cluster(4, 2, 10);
        let plan =
            plan_consolidation(&view, PolicyKind::AlwaysOn, &PlannerConfig::default(), &mut rng());
        assert!(plan.is_empty());
    }

    #[test]
    fn all_idle_cluster_vacates_every_home() {
        let view = small_cluster(6, 2, 10);
        let plan =
            plan_consolidation(&view, PolicyKind::Default, &PlannerConfig::default(), &mut rng());
        let migrations = plan.iter().filter(|a| matches!(a, PlannedAction::Migrate { .. })).count();
        assert_eq!(migrations, 60, "all 60 idle VMs consolidate");
        // All partial: 60 × 165 MiB ≈ 9.7 GiB fits one consolidation host.
        for a in &plan {
            if let PlannedAction::Migrate { order, .. } = a {
                assert_eq!(order.kind, MigrationType::Partial);
            }
        }
    }

    #[test]
    fn active_vms_migrate_full_under_default() {
        let mut view = small_cluster(2, 2, 4);
        view.hosts[2].powered = true; // A consolidation host is already up.
        view.vms[0].state = VmState::Active;
        let plan =
            plan_consolidation(&view, PolicyKind::Default, &PlannerConfig::default(), &mut rng());
        let fulls = plan
            .iter()
            .filter(|a| {
                matches!(a, PlannedAction::Migrate { order, .. } if order.kind == MigrationType::Full)
            })
            .count();
        assert_eq!(fulls, 1);
        assert_eq!(plan.len(), 8);
    }

    #[test]
    fn only_partial_skips_hosts_with_active_vms() {
        let mut view = small_cluster(2, 2, 4);
        view.hosts[2].powered = true; // A consolidation host is already up.
        view.vms[0].state = VmState::Active; // Host 0 has an active VM.
        let plan = plan_consolidation(
            &view,
            PolicyKind::OnlyPartial,
            &PlannerConfig::default(),
            &mut rng(),
        );
        // Only host 1's four VMs move.
        assert_eq!(plan.len(), 4);
        for a in &plan {
            match a {
                PlannedAction::Migrate { source, order } => {
                    assert_eq!(*source, HostId(1));
                    assert_eq!(order.kind, MigrationType::Partial);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn full_only_uses_full_migrations_and_hits_capacity() {
        // 4 homes × 10 VMs × 4 GiB = 160 GiB of full VMs; one 192 GiB
        // consolidation host fits 48.
        let view = small_cluster(4, 1, 10);
        let plan = plan_consolidation(&view, PolicyKind::FullOnly, &exact_config(), &mut rng());
        for a in &plan {
            if let PlannedAction::Migrate { order, .. } = a {
                assert_eq!(order.kind, MigrationType::Full);
            }
        }
        // Whole-host vacates only: 4 hosts of 40 GiB each → all 4 fit
        // (160 ≤ 192), so 40 migrations.
        assert_eq!(plan.len(), 40);
    }

    #[test]
    fn full_only_cannot_vacate_beyond_capacity() {
        // 6 homes × 10 VMs = 240 GiB of full VMs > 192 GiB capacity:
        // only 4 hosts (160 GiB) can be vacated.
        let view = small_cluster(6, 1, 10);
        let plan = plan_consolidation(&view, PolicyKind::FullOnly, &exact_config(), &mut rng());
        assert_eq!(plan.len(), 40, "4 of 6 hosts vacated");
    }

    #[test]
    fn net_energy_check_blocks_wasteful_plans() {
        // One home host of idle VMs: vacating saves 47.1 W but waking a
        // consolidation host costs 102.2 W → plan suppressed.
        let view = small_cluster(1, 2, 10);
        let plan =
            plan_consolidation(&view, PolicyKind::Default, &PlannerConfig::default(), &mut rng());
        assert!(plan.is_empty(), "single-host vacate must not wake a host");
    }

    #[test]
    fn powered_consolidation_host_is_free_to_use() {
        // Same single home host, but a consolidation host already powered:
        // no wake needed, so the plan proceeds.
        let mut view = small_cluster(1, 2, 10);
        view.hosts[1].powered = true;
        let plan =
            plan_consolidation(&view, PolicyKind::Default, &PlannerConfig::default(), &mut rng());
        assert_eq!(plan.len(), 10);
    }

    #[test]
    fn exchange_pass_swaps_idle_full_vms() {
        let mut view = small_cluster(2, 1, 2);
        // VM 0 sits as a *full idle* VM on the consolidation host (id 2).
        view.hosts[2].powered = true;
        view.vms[0].location = HostId(2);
        view.vms[0].partial = false;
        view.vms[0].state = VmState::Idle;
        let plan = plan_consolidation(
            &view,
            PolicyKind::FullToPartial,
            &PlannerConfig::default(),
            &mut rng(),
        );
        assert!(plan.iter().any(|a| matches!(
            a,
            PlannedAction::Exchange { vm, home, consolidation }
                if *vm == view.vms[0].id && *home == HostId(0) && *consolidation == HostId(2)
        )));
        // Default policy never exchanges.
        let plan =
            plan_consolidation(&view, PolicyKind::Default, &PlannerConfig::default(), &mut rng());
        assert!(!plan.iter().any(|a| matches!(a, PlannedAction::Exchange { .. })));
    }

    #[test]
    fn exchange_skips_vms_homed_on_the_consolidation_host() {
        let mut view = small_cluster(1, 1, 1);
        view.hosts[1].powered = true;
        // The VM was promoted in place earlier: home == location == cons.
        view.vms[0].home = HostId(1);
        view.vms[0].location = HostId(1);
        view.vms[0].state = VmState::Idle;
        let plan = plan_consolidation(
            &view,
            PolicyKind::FullToPartial,
            &PlannerConfig::default(),
            &mut rng(),
        );
        assert!(!plan.iter().any(|a| matches!(a, PlannedAction::Exchange { .. })));
    }

    #[test]
    fn activation_promotes_in_place_with_capacity() {
        let mut view = small_cluster(1, 1, 1);
        view.hosts[1].powered = true;
        view.vms[0].location = HostId(1);
        view.vms[0].partial = true;
        view.vms[0].state = VmState::Active;
        view.vms[0].demand = ByteSize::mib(165);
        let d = on_partial_activated(&view, view.vms[0].id, PolicyKind::Default, &mut rng());
        assert_eq!(d, Some(ActivationDecision::PromoteInPlace { vm: view.vms[0].id }));
    }

    #[test]
    fn activation_returns_home_when_saturated() {
        let mut view = small_cluster(1, 1, 2);
        view.hosts[1].powered = true;
        // Shrink the consolidation host so the promotion cannot fit.
        view.hosts[1].capacity = ByteSize::gib(1);
        for vm in &mut view.vms {
            vm.location = HostId(1);
            vm.partial = true;
            vm.demand = ByteSize::mib(165);
        }
        view.vms[0].state = VmState::Active;
        let d = on_partial_activated(&view, view.vms[0].id, PolicyKind::Default, &mut rng());
        match d {
            Some(ActivationDecision::ReturnHome { home, vms }) => {
                assert_eq!(home, HostId(0));
                assert_eq!(vms.len(), 2, "all VMs homed there return");
            }
            other => panic!("expected ReturnHome, got {other:?}"),
        }
    }

    #[test]
    fn newhome_relocates_when_saturated() {
        let mut view = small_cluster(2, 1, 2);
        view.hosts[2].powered = true;
        view.hosts[2].capacity = ByteSize::gib(1);
        for vm in &mut view.vms {
            vm.location = HostId(2);
            vm.partial = true;
            vm.demand = ByteSize::mib(165);
        }
        view.vms[0].state = VmState::Active;
        // Home hosts 0 and 1 are powered with 192 GiB free.
        let d = on_partial_activated(&view, view.vms[0].id, PolicyKind::NewHome, &mut rng());
        match d {
            Some(ActivationDecision::MoveTo { destination, .. }) => {
                assert!(destination == HostId(0) || destination == HostId(1));
            }
            other => panic!("expected MoveTo, got {other:?}"),
        }
    }

    #[test]
    fn only_partial_never_promotes() {
        let mut view = small_cluster(1, 1, 1);
        view.hosts[1].powered = true;
        view.vms[0].location = HostId(1);
        view.vms[0].partial = true;
        view.vms[0].demand = ByteSize::mib(165);
        let d = on_partial_activated(&view, view.vms[0].id, PolicyKind::OnlyPartial, &mut rng());
        assert!(matches!(d, Some(ActivationDecision::ReturnHome { .. })));
    }

    #[test]
    fn activation_of_full_vm_is_none() {
        let view = small_cluster(1, 1, 1);
        let d = on_partial_activated(&view, view.vms[0].id, PolicyKind::Default, &mut rng());
        assert_eq!(d, None);
        assert_eq!(
            on_partial_activated(&view, oasis_vm::VmId(9_999), PolicyKind::Default, &mut rng()),
            None
        );
    }

    #[test]
    fn placement_strategies_pick_as_specified() {
        // Three powered consolidation hosts with distinct free space.
        let mut view = small_cluster(1, 3, 1);
        for c in 1..=3 {
            view.hosts[c].powered = true;
        }
        view.hosts[1].capacity = ByteSize::gib(50);
        view.hosts[2].capacity = ByteSize::gib(150);
        view.hosts[3].capacity = ByteSize::gib(100);
        let need = ByteSize::gib(4);
        let index = HostIndex::new(&view, None);
        let ledger = CapacityLedger::new(&view, &index, ByteSize::ZERO);
        let mut candidates = Vec::new();
        ledger.powered_candidates_into(need, &mut candidates);
        assert_eq!(candidates.len(), 3);
        let mut rng = SimRng::new(1);
        assert_eq!(
            ledger.choose(&candidates, PlacementStrategy::BestFit, &mut rng),
            Some(HostId(1)),
            "least free space"
        );
        assert_eq!(
            ledger.choose(&candidates, PlacementStrategy::WorstFit, &mut rng),
            Some(HostId(2)),
            "most free space"
        );
        assert_eq!(
            ledger.choose(&candidates, PlacementStrategy::FirstFit, &mut rng),
            Some(HostId(1)),
            "lowest id"
        );
        let picked =
            ledger.choose(&candidates, PlacementStrategy::Random, &mut rng).expect("non-empty");
        assert!(candidates.contains(&picked));
        assert_eq!(ledger.choose(&[], PlacementStrategy::Random, &mut rng), None);
    }

    #[test]
    fn bestfit_packs_tighter_than_worstfit() {
        // Two powered consolidation hosts; vacate one home of idle VMs:
        // BestFit lands everything on a single host, WorstFit alternates.
        let mut view = small_cluster(1, 2, 10);
        view.hosts[1].powered = true;
        view.hosts[2].powered = true;
        for strategy in [PlacementStrategy::BestFit, PlacementStrategy::WorstFit] {
            let cfg = PlannerConfig { strategy, ..exact_config() };
            let plan = plan_consolidation(&view, PolicyKind::Default, &cfg, &mut rng());
            let dests: std::collections::BTreeSet<HostId> = plan
                .iter()
                .filter_map(|a| match a {
                    PlannedAction::Migrate { order, .. } => Some(order.destination),
                    _ => None,
                })
                .collect();
            match strategy {
                PlacementStrategy::BestFit => {
                    assert_eq!(dests.len(), 1, "BestFit concentrates")
                }
                _ => assert_eq!(dests.len(), 2, "WorstFit spreads"),
            }
        }
    }

    #[test]
    fn vacate_prefers_low_demand_hosts() {
        // Capacity for only one host's worth of full VMs: the lighter
        // host must win the queue.
        let mut view = small_cluster(2, 1, 2);
        for vm in &mut view.vms {
            vm.state = VmState::Active; // Force full migrations.
        }
        // Host 1 has only one VM (remove one).
        view.vms.retain(|v| v.id != oasis_vm::VmId(1_001));
        view.hosts[2].capacity = ByteSize::gib(6); // Fits one 4 GiB VM.
        view.hosts[2].powered = true;
        let plan = plan_consolidation(&view, PolicyKind::Default, &exact_config(), &mut rng());
        assert_eq!(plan.len(), 1);
        match &plan[0] {
            PlannedAction::Migrate { source, .. } => assert_eq!(*source, HostId(1)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
