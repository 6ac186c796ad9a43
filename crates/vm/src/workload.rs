//! Idle memory-access models per VM class.
//!
//! §2 measures three idle VMs over one hour: a desktop touched 188.2 MiB,
//! a RUBiS web server 37.6 MiB and a RUBiS database 30.6 MiB of their
//! 4 GiB allocations (Figure 1), and page *requests* from a consolidated
//! partial VM reach its home's memory server with mean inter-arrivals of
//! 3.9 minutes for one database VM versus 5.8 seconds for ten co-located
//! VMs (Figure 2).
//!
//! The model has two coupled parts:
//!
//! * a **unique-touch curve** `U(t) = W∞·(1 − e^(−t/τ)) + r·t` — the
//!   cumulative unique memory touched after `t` idle time: a working set
//!   that saturates plus a slow linear growth (logs, caches);
//! * a **request process** — remote page requests arrive as a Poisson
//!   process per class; each request fetches the unique pages accrued
//!   since the previous request (a batch), so request *counts* match
//!   Figure 2 while request *volumes* integrate to Figure 1.

use oasis_mem::{addr::pages_for, ByteSize};
use oasis_sim::{SimDuration, SimRng, SimTime};

/// Workload class of a VM.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum WorkloadClass {
    /// Remote desktop: GNOME, office apps, browser (§2's desktop VM).
    Desktop,
    /// RUBiS web front-end.
    WebServer,
    /// RUBiS database back-end.
    Database,
    /// A distributed-system member (Hadoop / Elasticsearch / ZooKeeper
    /// node) that must stay network-present and exchange periodic
    /// heartbeats even when idle (§1).
    ClusterNode,
}

impl WorkloadClass {
    /// All classes.
    pub const ALL: [WorkloadClass; 4] = [
        WorkloadClass::Desktop,
        WorkloadClass::WebServer,
        WorkloadClass::Database,
        WorkloadClass::ClusterNode,
    ];

    /// The calibrated idle access model for this class.
    pub fn idle_model(self) -> IdleAccessModel {
        match self {
            WorkloadClass::Desktop => IdleAccessModel {
                class: self,
                wss_infinity: ByteSize::from_mib_f64(145.0),
                tau: SimDuration::from_mins(15),
                growth_per_min: ByteSize::from_mib_f64(0.77),
                request_interarrival: SimDuration::from_secs(12),
            },
            WorkloadClass::WebServer => IdleAccessModel {
                class: self,
                wss_infinity: ByteSize::from_mib_f64(30.0),
                tau: SimDuration::from_mins(10),
                growth_per_min: ByteSize::from_mib_f64(0.13),
                request_interarrival: SimDuration::from_secs(33),
            },
            WorkloadClass::Database => IdleAccessModel {
                class: self,
                wss_infinity: ByteSize::from_mib_f64(25.0),
                tau: SimDuration::from_mins(12),
                growth_per_min: ByteSize::from_mib_f64(0.095),
                request_interarrival: SimDuration::from_secs(234),
            },
            // Heartbeat traffic touches a tiny, hot set of pages: the
            // working set converges fast and barely grows.
            WorkloadClass::ClusterNode => IdleAccessModel {
                class: self,
                wss_infinity: ByteSize::from_mib_f64(18.0),
                tau: SimDuration::from_mins(8),
                growth_per_min: ByteSize::from_mib_f64(0.02),
                request_interarrival: SimDuration::from_secs(45),
            },
        }
    }
}

impl core::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            WorkloadClass::Desktop => "desktop",
            WorkloadClass::WebServer => "web",
            WorkloadClass::Database => "database",
            WorkloadClass::ClusterNode => "cluster-node",
        };
        f.write_str(s)
    }
}

/// Calibrated idle access model of one workload class.
#[derive(Clone, Copy, Debug)]
pub struct IdleAccessModel {
    /// The class this model describes.
    pub class: WorkloadClass,
    /// Saturating working-set size `W∞`.
    pub wss_infinity: ByteSize,
    /// Working-set fill time constant `τ`.
    pub tau: SimDuration,
    /// Linear unique-touch growth rate `r` (per minute).
    pub growth_per_min: ByteSize,
    /// Mean inter-arrival of remote page requests.
    pub request_interarrival: SimDuration,
}

impl IdleAccessModel {
    /// Cumulative unique bytes touched after `idle_for` of idleness,
    /// capped at `allocation`.
    pub fn unique_touched(&self, idle_for: SimDuration, allocation: ByteSize) -> ByteSize {
        let t = idle_for.as_secs_f64();
        let tau = self.tau.as_secs_f64();
        let saturating = self.wss_infinity.as_mib_f64() * (1.0 - (-t / tau).exp());
        let linear = self.growth_per_min.as_mib_f64() * (t / 60.0);
        ByteSize::from_mib_f64(saturating + linear).min(allocation)
    }

    /// Draws the next request arrival after `now`.
    pub fn next_request(&self, now: SimTime, rng: &mut SimRng) -> SimTime {
        let gap = rng.exponential(self.request_interarrival.as_secs_f64());
        now + SimDuration::from_secs_f64(gap.max(0.001))
    }

    /// Pages fetched by a request at `t_now`, given the previous request
    /// was at `t_prev` (both measured from the start of the idle period).
    ///
    /// Every request fetches at least one page.
    pub fn request_batch_pages(
        &self,
        t_prev: SimDuration,
        t_now: SimDuration,
        allocation: ByteSize,
    ) -> u64 {
        let before = self.unique_touched(t_prev, allocation);
        let after = self.unique_touched(t_now, allocation);
        pages_for(after.saturating_sub(before)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: SimDuration = SimDuration::from_hours(1);
    const ALLOC: ByteSize = ByteSize::gib(4);

    #[test]
    fn figure1_unique_touch_targets() {
        // Paper: desktop 188.2 MiB, web 37.6 MiB, database 30.6 MiB after
        // one idle hour.
        let desktop = WorkloadClass::Desktop.idle_model().unique_touched(HOUR, ALLOC);
        let web = WorkloadClass::WebServer.idle_model().unique_touched(HOUR, ALLOC);
        let db = WorkloadClass::Database.idle_model().unique_touched(HOUR, ALLOC);
        assert!((desktop.as_mib_f64() - 188.2).abs() < 5.0, "desktop {desktop}");
        assert!((web.as_mib_f64() - 37.6).abs() < 2.0, "web {web}");
        assert!((db.as_mib_f64() - 30.6).abs() < 2.0, "db {db}");
    }

    #[test]
    fn unique_touch_is_monotonic_and_capped() {
        let m = WorkloadClass::Desktop.idle_model();
        let mut prev = ByteSize::ZERO;
        for mins in (0..=600).step_by(10) {
            let u = m.unique_touched(SimDuration::from_mins(mins), ALLOC);
            assert!(u >= prev);
            assert!(u <= ALLOC);
            prev = u;
        }
        // A tiny allocation caps immediately.
        let small = ByteSize::mib(16);
        assert_eq!(m.unique_touched(HOUR, small), small);
    }

    #[test]
    fn all_vms_touch_under_5_percent_in_an_hour() {
        // §2: "less than 5 % of their nominal memory allocation".
        for class in WorkloadClass::ALL {
            let u = class.idle_model().unique_touched(HOUR, ALLOC);
            assert!(u.as_bytes() < ALLOC.as_bytes() / 20, "{class}: {u} ≥ 5 % of {ALLOC}");
        }
    }

    #[test]
    fn figure2_single_database_interarrival() {
        let m = WorkloadClass::Database.idle_model();
        let mut rng = SimRng::new(1);
        let mut now = SimTime::ZERO;
        let n = 20_000;
        for _ in 0..n {
            now = m.next_request(now, &mut rng);
        }
        let mean = now.as_secs_f64() / n as f64;
        // Paper: 3.9 minutes = 234 s.
        assert!((mean - 234.0).abs() < 5.0, "mean inter-arrival {mean}");
    }

    #[test]
    fn figure2_ten_vm_superposition() {
        // 5 web + 5 database VMs: aggregate mean inter-arrival ≈ 5.8 s.
        let web = WorkloadClass::WebServer.idle_model();
        let db = WorkloadClass::Database.idle_model();
        let agg_rate = 5.0 / web.request_interarrival.as_secs_f64()
            + 5.0 / db.request_interarrival.as_secs_f64();
        let mean = 1.0 / agg_rate;
        assert!((mean - 5.8).abs() < 0.15, "aggregate inter-arrival {mean}");
    }

    #[test]
    fn request_batches_integrate_to_unique_curve() {
        let m = WorkloadClass::WebServer.idle_model();
        let mut rng = SimRng::new(2);
        let mut t_prev = SimDuration::ZERO;
        let mut now = SimTime::ZERO;
        let mut pages = 0u64;
        while now.as_secs_f64() < 3_600.0 {
            let next = m.next_request(now, &mut rng);
            if next.as_secs_f64() > 3_600.0 {
                break;
            }
            let t_now = next - SimTime::ZERO;
            pages += m.request_batch_pages(t_prev, t_now, ALLOC);
            t_prev = t_now;
            now = next;
        }
        let mib = pages as f64 * 4_096.0 / (1024.0 * 1024.0);
        let target = m.unique_touched(HOUR, ALLOC).as_mib_f64();
        // Batches cover the curve up to the last request plus the ≥1-page
        // floor per request.
        assert!((mib - target).abs() < target * 0.25, "batched {mib} vs {target}");
    }

    #[test]
    fn batch_is_at_least_one_page() {
        let m = WorkloadClass::Database.idle_model();
        let t = SimDuration::from_hours(100);
        // Far into saturation with a microscopic gap: still one page.
        assert_eq!(m.request_batch_pages(t, t + SimDuration::from_micros(1), ALLOC), 1);
    }

    #[test]
    fn cluster_nodes_have_the_smallest_footprint() {
        // §1 motivates: cluster members are idle but must stay present.
        let node = WorkloadClass::ClusterNode.idle_model();
        let db = WorkloadClass::Database.idle_model();
        assert!(node.unique_touched(HOUR, ALLOC) < db.unique_touched(HOUR, ALLOC));
        assert!(node.unique_touched(HOUR, ALLOC) > ByteSize::mib(10));
    }

    #[test]
    fn desktop_is_most_demanding() {
        // §5.6 argues desktop idle VMs are more demanding than server VMs.
        let d = WorkloadClass::Desktop.idle_model();
        let w = WorkloadClass::WebServer.idle_model();
        let db = WorkloadClass::Database.idle_model();
        assert!(d.unique_touched(HOUR, ALLOC) > w.unique_touched(HOUR, ALLOC));
        assert!(w.unique_touched(HOUR, ALLOC) > db.unique_touched(HOUR, ALLOC));
        assert!(d.request_interarrival < w.request_interarrival);
        assert!(w.request_interarrival < db.request_interarrival);
    }
}
