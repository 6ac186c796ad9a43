//! Energy attribution and quiescence ledgers.
//!
//! The simulator's `energy_series` answers *how much* the managed
//! cluster drew; these ledgers answer *where it went* and *how often
//! nothing happened*:
//!
//! * [`EnergyLedger`] decomposes the cumulative total into per-host
//!   active / idle / transition / memory-server components and per-VM
//!   demand-weighted shares of the active component. Everything is kept
//!   in integer **millijoules**, so per-host components sum bit-exactly
//!   to host totals and host totals sum bit-exactly to the grand total —
//!   no float re-association can break the books.
//! * [`QuiescenceLedger`] counts host-intervals and VM-intervals in
//!   which nothing changed (no power transition, no migration, no
//!   demand/state mutation): how much of a run was steady state.
//!
//! Both types are plain data — accumulated by `oasis-cluster`, attached
//! to its `SimReport`, rendered by `oasis report` — and deterministic:
//! fixed-seed runs produce identical ledgers, sequential or pooled.

use std::fmt::Write as _;

/// Energy drawn by one host over the run, split by component
/// (millijoules).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostEnergy {
    /// Host id.
    pub host: u32,
    /// Utilization-driven draw: awake watts above the idle floor.
    pub active_mj: u64,
    /// Idle floor while awake plus sleep-state draw.
    pub idle_mj: u64,
    /// Suspend/resume transition energy.
    pub transition_mj: u64,
    /// Memory-server draw while asleep but serving partial VMs.
    pub memserver_mj: u64,
}

impl HostEnergy {
    /// Sum of the four components (exact integer addition).
    pub fn total_mj(&self) -> u64 {
        self.active_mj + self.idle_mj + self.transition_mj + self.memserver_mj
    }
}

/// One VM's demand-weighted share of its hosts' active energy
/// (millijoules).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmEnergy {
    /// VM id.
    pub vm: u32,
    /// Share of the active component, attributed interval by interval.
    pub share_mj: u64,
}

/// Per-host and per-VM decomposition of the run's energy total.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnergyLedger {
    /// Per-host component breakdown, in host-id order.
    pub hosts: Vec<HostEnergy>,
    /// Per-VM shares of the active component, in VM-id order.
    pub vms: Vec<VmEnergy>,
}

impl EnergyLedger {
    /// Grand total across hosts (exact integer addition).
    pub fn total_mj(&self) -> u64 {
        self.hosts.iter().map(HostEnergy::total_mj).sum()
    }

    /// Sum of one component across hosts, by accessor.
    pub fn component_mj(&self, f: impl Fn(&HostEnergy) -> u64) -> u64 {
        self.hosts.iter().map(f).sum()
    }

    /// Total of the per-VM shares; never exceeds the active component.
    pub fn vm_total_mj(&self) -> u64 {
        self.vms.iter().map(|v| v.share_mj).sum()
    }

    /// True when no energy was booked.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// One line per host plus a totals line, byte-stable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>14} {:>14} {:>14} {:>14}",
            "host", "active_mj", "idle_mj", "transition_mj", "memserver_mj", "total_mj"
        );
        for h in &self.hosts {
            let _ = writeln!(
                out,
                "{:>6} {:>14} {:>14} {:>14} {:>14} {:>14}",
                h.host,
                h.active_mj,
                h.idle_mj,
                h.transition_mj,
                h.memserver_mj,
                h.total_mj()
            );
        }
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>14} {:>14} {:>14} {:>14}",
            "total",
            self.component_mj(|h| h.active_mj),
            self.component_mj(|h| h.idle_mj),
            self.component_mj(|h| h.transition_mj),
            self.component_mj(|h| h.memserver_mj),
            self.total_mj()
        );
        out
    }
}

/// Counts of intervals in which a host or VM changed nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuiescenceLedger {
    /// Simulated intervals observed.
    pub intervals: u64,
    /// Host-interval observations (`intervals × hosts`).
    pub host_intervals: u64,
    /// Host-intervals with no power transition and no resident mutation.
    pub host_quiescent: u64,
    /// VM-interval observations (`intervals × vms`).
    pub vm_intervals: u64,
    /// VM-intervals with no demand, state, placement or replica change.
    pub vm_quiescent: u64,
}

impl QuiescenceLedger {
    /// Fraction of host-intervals that were quiescent (0 when none
    /// observed).
    pub fn host_fraction(&self) -> f64 {
        if self.host_intervals == 0 {
            return 0.0;
        }
        self.host_quiescent as f64 / self.host_intervals as f64
    }

    /// Fraction of VM-intervals that were quiescent (0 when none
    /// observed).
    pub fn vm_fraction(&self) -> f64 {
        if self.vm_intervals == 0 {
            return 0.0;
        }
        self.vm_quiescent as f64 / self.vm_intervals as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> EnergyLedger {
        EnergyLedger {
            hosts: vec![
                HostEnergy {
                    host: 0,
                    active_mj: 10,
                    idle_mj: 100,
                    transition_mj: 5,
                    memserver_mj: 0,
                },
                HostEnergy {
                    host: 1,
                    active_mj: 20,
                    idle_mj: 200,
                    transition_mj: 0,
                    memserver_mj: 7,
                },
            ],
            vms: vec![VmEnergy { vm: 0, share_mj: 12 }, VmEnergy { vm: 1, share_mj: 18 }],
        }
    }

    #[test]
    fn totals_are_exact_integer_sums() {
        let l = ledger();
        assert_eq!(l.hosts[0].total_mj(), 115);
        assert_eq!(l.hosts[1].total_mj(), 227);
        assert_eq!(l.total_mj(), 342);
        assert_eq!(
            l.component_mj(|h| h.active_mj)
                + l.component_mj(|h| h.idle_mj)
                + l.component_mj(|h| h.transition_mj)
                + l.component_mj(|h| h.memserver_mj),
            l.total_mj(),
            "components re-sum to the same total in any order"
        );
        assert_eq!(l.vm_total_mj(), 30);
        assert!(l.vm_total_mj() <= l.component_mj(|h| h.active_mj));
    }

    #[test]
    fn render_carries_every_component() {
        let text = ledger().render();
        assert!(text.contains("active_mj"));
        assert!(text.lines().count() == 4, "header + 2 hosts + totals");
        assert!(text.lines().last().unwrap().contains("342"));
    }

    #[test]
    fn quiescence_fractions_guard_empty_ledgers() {
        assert_eq!(QuiescenceLedger::default().host_fraction(), 0.0);
        let q = QuiescenceLedger {
            intervals: 288,
            host_intervals: 288 * 34,
            host_quiescent: 288 * 17,
            vm_intervals: 288 * 900,
            vm_quiescent: 288 * 600,
        };
        assert!((q.host_fraction() - 0.5).abs() < 1e-12);
        assert!((q.vm_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }
}
