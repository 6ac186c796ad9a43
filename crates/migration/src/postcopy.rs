//! Post-copy live migration (§2), modeled for comparison.
//!
//! "Post-copy live migration starts by suspending the VM at the source and
//! transferring its execution context to the destination host, where the
//! VM resumes execution. Memory is actively pushed from the source while
//! the VM executes on the destination. When the VM accesses pages that
//! have not yet arrived … pages are faulted in from the source."
//!
//! Unlike partial migration, post-copy pushes the *entire* memory image,
//! so the destination must reserve the full allocation — the property that
//! limits consolidation density (§2).

use oasis_mem::{ByteSize, PAGE_SIZE};
use oasis_net::LinkSpec;
use oasis_sim::SimDuration;

/// Result of one modeled post-copy migration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PostcopyOutcome {
    /// Total bytes sent (context + full memory push + fault duplicates).
    pub bytes_sent: ByteSize,
    /// Time until every page has arrived at the destination.
    pub duration: SimDuration,
    /// VM downtime (context transfer only).
    pub downtime: SimDuration,
    /// Remote faults serviced while the push was in flight.
    pub remote_faults: u64,
}

/// Models a post-copy migration.
///
/// * `memory` — VM memory to push;
/// * `access_rate` — rate at which the running VM touches not-yet-arrived
///   pages (pages per second), generating demand-fetches that race the
///   background push;
/// * `link` — the migration path.
pub fn migrate(memory: ByteSize, access_rate: f64, link: LinkSpec) -> PostcopyOutcome {
    // Execution context: vCPU state, device state; small and fixed.
    let context = ByteSize::mib(8);
    let downtime = link.transfer_time(context);

    // The push saturates the link; every page arrives after memory/rate.
    let push_time = memory.as_bytes() as f64 / link.bandwidth;

    // Faults hit pages that have not arrived yet. With a linear push, the
    // probability a touched page is still missing decays linearly, so the
    // expected fault count is access_rate × push_time / 2.
    let remote_faults = (access_rate * push_time / 2.0).round() as u64;
    let fault_bytes = ByteSize::bytes(remote_faults * PAGE_SIZE);

    PostcopyOutcome {
        bytes_sent: context + memory + fault_bytes,
        duration: downtime + SimDuration::from_secs_f64(push_time),
        downtime,
        remote_faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downtime_is_tiny() {
        let out = migrate(ByteSize::gib(4), 100.0, LinkSpec::gige());
        assert!(out.downtime.as_secs_f64() < 0.2);
        assert!(out.duration.as_secs_f64() > 30.0);
    }

    #[test]
    fn sends_at_least_full_memory() {
        let out = migrate(ByteSize::gib(4), 0.0, LinkSpec::ten_gige());
        assert!(out.bytes_sent >= ByteSize::gib(4));
        assert_eq!(out.remote_faults, 0);
    }

    #[test]
    fn faster_access_means_more_remote_faults() {
        let slow = migrate(ByteSize::gib(4), 10.0, LinkSpec::gige());
        let fast = migrate(ByteSize::gib(4), 1_000.0, LinkSpec::gige());
        assert!(fast.remote_faults > slow.remote_faults);
        assert!(fast.bytes_sent > slow.bytes_sent);
    }

    #[test]
    fn sends_less_total_than_precopy_for_hot_vms() {
        // Post-copy's selling point: no iterative resending.
        let hot_rate_bytes = 60.0 * 1024.0 * 1024.0;
        let pre = crate::precopy::migrate(
            ByteSize::gib(4),
            hot_rate_bytes,
            LinkSpec::gige(),
            &crate::precopy::PrecopyConfig::default(),
        );
        let post = migrate(ByteSize::gib(4), hot_rate_bytes / PAGE_SIZE as f64, LinkSpec::gige());
        assert!(post.bytes_sent < pre.bytes_sent);
    }
}
