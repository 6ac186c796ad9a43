//! Iterative pre-copy live migration (§2).
//!
//! "Pre-copy live migration iteratively copies pages from source to
//! destination while the VM runs at the source. The first iteration copies
//! all pages … In subsequent iterations only pages dirtied by the VM's
//! execution during the previous iteration are copied. Once the set of
//! dirty pages is small or the limit of iterations exceeded, the VM is
//! suspended and all pages and execution context transferred."
//!
//! The model is the classic fixed-point: each round transfers the dirty
//! set of the previous round at the link rate while the VM keeps dirtying
//! at `dirty_rate`. It converges when the dirty rate is below the link
//! rate and stops at the configured threshold or round limit.

use oasis_mem::{ByteSize, PAGE_SIZE};
use oasis_net::LinkSpec;
use oasis_sim::SimDuration;

/// Tuning knobs of the pre-copy algorithm.
#[derive(Clone, Copy, Debug)]
pub struct PrecopyConfig {
    /// Stop-and-copy once the dirty set is at most this large.
    pub stop_threshold: ByteSize,
    /// Maximum copy rounds before forcing stop-and-copy.
    pub max_rounds: u32,
    /// Fixed control overhead for connection setup and handshakes.
    pub setup_overhead: SimDuration,
}

impl Default for PrecopyConfig {
    fn default() -> Self {
        PrecopyConfig {
            stop_threshold: ByteSize::mib(32),
            max_rounds: 30,
            setup_overhead: SimDuration::from_millis(800),
        }
    }
}

/// Result of one modeled pre-copy migration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrecopyOutcome {
    /// Total bytes sent over the network (all rounds + stop-and-copy).
    pub bytes_sent: ByteSize,
    /// Wall-clock migration time.
    pub duration: SimDuration,
    /// VM downtime during the final stop-and-copy.
    pub downtime: SimDuration,
    /// Copy rounds performed (excluding the stop-and-copy).
    pub rounds: u32,
    /// `true` if the round limit forced the stop (non-convergence).
    pub forced_stop: bool,
}

/// Models a pre-copy migration.
///
/// * `memory` — the VM's resident memory to move (its full allocation for
///   the evaluation's VMs);
/// * `dirty_rate` — sustained dirtying rate of the running VM, in bytes
///   per second;
/// * `link` — the migration path.
///
/// # Examples
///
/// ```
/// use oasis_migration::precopy::{migrate, PrecopyConfig};
/// use oasis_mem::ByteSize;
/// use oasis_net::LinkSpec;
///
/// // An idle 4 GiB VM over 10 GigE converges in seconds.
/// let out = migrate(
///     ByteSize::gib(4),
///     1.0e6,
///     LinkSpec::ten_gige(),
///     &PrecopyConfig::default(),
/// );
/// assert!(out.duration.as_secs_f64() < 6.0);
/// assert!(!out.forced_stop);
/// ```
pub fn migrate(
    memory: ByteSize,
    dirty_rate: f64,
    link: LinkSpec,
    config: &PrecopyConfig,
) -> PrecopyOutcome {
    let rate = link.bandwidth;
    let mut to_send = memory.as_bytes() as f64;
    let mut total = 0.0;
    let mut time = config.setup_overhead.as_secs_f64();
    let mut rounds = 0;
    let mut forced_stop = false;

    loop {
        if rounds >= config.max_rounds {
            forced_stop = true;
            break;
        }
        // Send the current dirty set while the VM keeps running.
        let round_time = to_send / rate;
        total += to_send;
        time += round_time;
        rounds += 1;
        // Pages dirtied during the round (capped at the VM's memory).
        let dirtied = (dirty_rate * round_time).min(memory.as_bytes() as f64);
        if dirtied <= config.stop_threshold.as_bytes() as f64 {
            to_send = dirtied;
            break;
        }
        // Non-convergence: the dirty set stopped shrinking.
        if dirtied >= to_send && rounds > 1 {
            to_send = dirtied;
            forced_stop = true;
            break;
        }
        to_send = dirtied;
    }

    // Stop-and-copy: VM suspended, residual dirty set + context moved.
    let downtime = to_send / rate + 0.05;
    total += to_send;
    time += downtime;

    PrecopyOutcome {
        bytes_sent: ByteSize::bytes(total.round() as u64),
        duration: SimDuration::from_secs_f64(time),
        downtime: SimDuration::from_secs_f64(downtime),
        rounds,
        forced_stop,
    }
}

/// Convenience: dirty rate in bytes/s from pages/s.
pub fn pages_per_sec(pages: f64) -> f64 {
    pages * PAGE_SIZE as f64
}

/// Like [`migrate`], but records span timing and outcome metrics on the
/// given telemetry bus (`migration_bytes_total`, `migration_duration_us`
/// and `migration_downtime_us`, all labeled `kind="precopy"`).
pub fn migrate_traced(
    telemetry: &oasis_telemetry::Telemetry,
    memory: ByteSize,
    dirty_rate: f64,
    link: LinkSpec,
    config: &PrecopyConfig,
) -> PrecopyOutcome {
    let span = telemetry.span("precopy_migrate");
    let out = migrate(memory, dirty_rate, link, config);
    span.end();
    let m = telemetry.metrics();
    m.counter("migration_bytes_total", &[("kind", "precopy")]).add(out.bytes_sent.as_bytes());
    m.histogram("migration_duration_us", &[("kind", "precopy")]).record(out.duration.as_micros());
    m.histogram("migration_downtime_us", &[("kind", "precopy")]).record(out.downtime.as_micros());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB4: ByteSize = ByteSize::gib(4);

    #[test]
    fn figure5_full_migration_over_gige_takes_about_41s() {
        // §4.4.2: fully migrating the primed desktop VM took 41 s on GigE.
        // The VM keeps dirtying ~15 MiB/s while migrating.
        let out =
            migrate(GIB4, 15.0 * 1024.0 * 1024.0, LinkSpec::gige(), &PrecopyConfig::default());
        let secs = out.duration.as_secs_f64();
        assert!((38.0..44.0).contains(&secs), "duration {secs}");
        assert!(out.bytes_sent > GIB4, "iterations resend dirty pages");
        assert!(!out.forced_stop);
        assert!(out.rounds >= 2);
    }

    #[test]
    fn ten_gige_is_much_faster() {
        let out =
            migrate(GIB4, 15.0 * 1024.0 * 1024.0, LinkSpec::ten_gige(), &PrecopyConfig::default());
        assert!(out.duration.as_secs_f64() < 6.0);
    }

    #[test]
    fn idle_vm_converges_in_one_round() {
        let out = migrate(GIB4, 0.0, LinkSpec::gige(), &PrecopyConfig::default());
        assert_eq!(out.rounds, 1);
        assert_eq!(out.bytes_sent, GIB4);
        assert!(out.downtime.as_secs_f64() < 0.1);
    }

    #[test]
    fn hot_vm_forces_stop() {
        // Dirtying faster than the link: never converges.
        let out =
            migrate(GIB4, 200.0 * 1024.0 * 1024.0, LinkSpec::gige(), &PrecopyConfig::default());
        assert!(out.forced_stop);
        assert!(out.downtime.as_secs_f64() > 1.0, "big stop-and-copy");
    }

    #[test]
    fn round_limit_respected() {
        let config = PrecopyConfig { max_rounds: 3, ..PrecopyConfig::default() };
        let out = migrate(GIB4, 60.0 * 1024.0 * 1024.0, LinkSpec::gige(), &config);
        assert!(out.rounds <= 3);
    }

    #[test]
    fn downtime_below_total_duration() {
        let out =
            migrate(GIB4, 10.0 * 1024.0 * 1024.0, LinkSpec::gige(), &PrecopyConfig::default());
        assert!(out.downtime < out.duration);
    }

    #[test]
    fn pages_per_sec_conversion() {
        assert_eq!(pages_per_sec(1.0), 4_096.0);
    }
}
