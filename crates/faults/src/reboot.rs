//! Scheduled cold restarts: patch-window mass reboots.
//!
//! A [`RebootSchedule`] is the maintenance-side twin of
//! [`FaultSchedule`](crate::FaultSchedule): a fully materialized,
//! sorted list of [`Reboot`] windows built before the simulation
//! starts and queried with pure lookups against the sim clock. Unlike
//! faults, reboots are *planned* — every host goes down exactly when
//! the schedule says, stays down for its configured `downtime`, and
//! comes back without a recovery path. The simulator charges the
//! suspend/resume transition energy and the lost awake seconds, and
//! records the wake latency seen by any resident active VM, so a
//! patch window shows up in the energy ledger and the SLA CDF the
//! same way an organic power transition does.

use oasis_sim::{SimDuration, SimTime};

/// One scheduled cold restart of one host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reboot {
    /// Host to restart (simulator host index, homes first).
    pub host: u32,
    /// When the host goes down.
    pub start: SimTime,
    /// How long it stays down. The simulator clamps the outage to the
    /// interval the onset lands in, so schedules should keep this
    /// under one interval (300 s) for faithful accounting.
    pub downtime: SimDuration,
}

impl Reboot {
    /// When the host is back up.
    pub fn end(&self) -> SimTime {
        self.start + self.downtime
    }
}

/// A sorted, queryable collection of reboot windows.
///
/// Sorted by `(start, host)` so construction order never leaks into
/// iteration order — the simulator applies same-interval reboots in
/// this canonical order on every engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RebootSchedule {
    reboots: Vec<Reboot>,
}

impl RebootSchedule {
    /// The empty schedule: no reboots, ever. A run under this schedule
    /// is byte-identical to a run without reboot plumbing at all.
    pub fn none() -> Self {
        RebootSchedule::default()
    }

    /// Builds a schedule from explicit windows (sorted internally).
    pub fn new(mut reboots: Vec<Reboot>) -> Self {
        reboots.sort_by_key(|r| (r.start, r.host));
        RebootSchedule { reboots }
    }

    /// A patch window: hosts `0..hosts` restart one after another,
    /// `stride` apart, starting at `window_start`, each down for
    /// `downtime`. The canonical staggered-maintenance shape.
    pub fn patch_window(
        hosts: u32,
        window_start: SimTime,
        stride: SimDuration,
        downtime: SimDuration,
    ) -> Self {
        let reboots = (0..hosts)
            .map(|h| Reboot { host: h, start: window_start + stride.mul_f64(h as f64), downtime })
            .collect();
        RebootSchedule::new(reboots)
    }

    /// All windows, in canonical order.
    pub fn reboots(&self) -> &[Reboot] {
        &self.reboots
    }

    /// Number of scheduled reboots.
    pub fn len(&self) -> usize {
        self.reboots.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.reboots.is_empty()
    }

    /// Reboots whose onset falls in `[from, to)`, in canonical order —
    /// the per-interval query the day loop drives the outage from.
    pub fn onsets_between(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &Reboot> {
        self.reboots.iter().filter(move |r| from <= r.start && r.start < to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_by_start_then_host() {
        let s = RebootSchedule::new(vec![
            Reboot {
                host: 5,
                start: SimTime::from_secs(600),
                downtime: SimDuration::from_secs(60),
            },
            Reboot {
                host: 1,
                start: SimTime::from_secs(600),
                downtime: SimDuration::from_secs(60),
            },
            Reboot { host: 9, start: SimTime::ZERO, downtime: SimDuration::from_secs(60) },
        ]);
        let order: Vec<u32> = s.reboots().iter().map(|r| r.host).collect();
        assert_eq!(order, vec![9, 1, 5]);
    }

    #[test]
    fn onsets_between_is_half_open() {
        let s = RebootSchedule::new(vec![
            Reboot {
                host: 0,
                start: SimTime::from_secs(300),
                downtime: SimDuration::from_secs(60),
            },
            Reboot {
                host: 1,
                start: SimTime::from_secs(600),
                downtime: SimDuration::from_secs(60),
            },
        ]);
        let hits: Vec<u32> = s
            .onsets_between(SimTime::from_secs(300), SimTime::from_secs(600))
            .map(|r| r.host)
            .collect();
        assert_eq!(hits, vec![0]);
        assert_eq!(s.onsets_between(SimTime::ZERO, SimTime::from_secs(300)).count(), 0);
    }

    #[test]
    fn patch_window_staggers_every_host() {
        let s = RebootSchedule::patch_window(
            4,
            SimTime::from_secs(3_600),
            SimDuration::from_secs(300),
            SimDuration::from_secs(120),
        );
        assert_eq!(s.len(), 4);
        for (i, r) in s.reboots().iter().enumerate() {
            assert_eq!(r.host, i as u32);
            assert_eq!(r.start, SimTime::from_secs(3_600 + 300 * i as u64));
            assert_eq!(r.end(), SimTime::from_secs(3_600 + 300 * i as u64 + 120));
        }
    }

    #[test]
    fn empty_schedule_answers_negatively() {
        let s = RebootSchedule::none();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.onsets_between(SimTime::ZERO, SimTime::MAX).count(), 0);
    }
}
