//! Cross-crate integration: the full §4.4 micro-benchmark flow driven
//! through the facade crate, validating the paper's Figures 5–6 and the
//! §4.4.3 traffic volumes end to end.

use oasis::migration::lab::{LabOptions, MicroLab, VmLocation};
use oasis::net::TrafficClass;
use oasis::sim::SimDuration;
use oasis::vm::apps::{catalog, DesktopWorkload};

/// Runs the complete two-iteration consolidation cycle.
fn run_cycle(seed: u64) -> MicroLab {
    let mut lab = MicroLab::new(seed);
    lab.prime_os();
    lab.run_workload(&DesktopWorkload::workload1());
    lab.idle_wait(SimDuration::from_mins(5));
    lab.partial_migrate();
    lab.consolidated_idle(SimDuration::from_mins(20));
    lab.reintegrate();
    lab.run_workload(&DesktopWorkload::workload2());
    lab.idle_wait(SimDuration::from_mins(5));
    lab.partial_migrate();
    lab
}

#[test]
fn consolidation_cycle_ends_consolidated() {
    let lab = run_cycle(1);
    assert_eq!(lab.location(), VmLocation::Consolidated);
    // The memory server must be serving after the final migration.
    let ms = lab.home.memserver.as_ref().expect("home has a memory server");
    assert!(ms.is_serving());
}

#[test]
fn figure5_shape_partial_beats_full_and_differential_beats_first() {
    let mut lab = MicroLab::new(2);
    lab.prime_os();
    lab.run_workload(&DesktopWorkload::workload1());
    lab.idle_wait(SimDuration::from_mins(5));
    let full = lab.full_migrate_baseline().duration;
    let first = lab.partial_migrate();
    lab.consolidated_idle(SimDuration::from_mins(20));
    lab.reintegrate();
    lab.run_workload(&DesktopWorkload::workload2());
    lab.idle_wait(SimDuration::from_mins(5));
    let second = lab.partial_migrate();

    assert!(first.outcome.total < full / 2, "partial must be >2x faster");
    assert!(second.outcome.total < first.outcome.total, "differential wins");
    assert!(second.outcome.upload_time < first.outcome.upload_time / 3);
}

#[test]
fn section443_traffic_hierarchy() {
    let lab = run_cycle(3);
    let descr = lab.traffic.total(TrafficClass::PartialDescriptor);
    let fetch = lab.traffic.total(TrafficClass::DemandFetch);
    let reint = lab.traffic.total(TrafficClass::Reintegration);
    let sas = lab.traffic.total(TrafficClass::MemServerUpload);
    // Paper ordering: descriptor (32 MiB for 2 migrations) < fetch (~57)
    // < reintegration (~175) ≪ SAS upload (~1.3 GiB + differential).
    assert!(descr < fetch, "descriptor {descr} < fetch {fetch}");
    assert!(fetch < reint, "fetch {fetch} < reintegration {reint}");
    assert!(reint < sas, "reintegration {reint} < SAS {sas}");
    // Everything partial-related crossed the wire or drive.
    assert!(lab.traffic.partial_total() > lab.traffic.total(TrafficClass::FullMigration));
}

#[test]
fn figure6_partial_vm_startup_penalty_grows_with_footprint() {
    let mut lab = MicroLab::new(4);
    lab.prime_os();
    lab.run_workload(&DesktopWorkload::workload1());
    lab.idle_wait(SimDuration::from_mins(5));
    lab.partial_migrate();
    let terminal = lab.app_startup_latency(&catalog::TERMINAL);
    let libre = lab.app_startup_latency(&catalog::LIBREOFFICE_DOC);
    assert!(libre > terminal * 10, "footprint dominates the penalty");
}

#[test]
fn optimizations_only_help() {
    // Every ablation combination must be at least as slow as the default.
    let base = {
        let mut lab = MicroLab::new(5);
        lab.prime_os();
        lab.run_workload(&DesktopWorkload::workload1());
        lab.idle_wait(SimDuration::from_mins(5));
        lab.partial_migrate().outcome.total
    };
    for options in [
        LabOptions { compression: false, ..LabOptions::default() },
        LabOptions { differential_upload: false, ..LabOptions::default() },
        LabOptions { compression: false, differential_upload: false, ..LabOptions::default() },
    ] {
        let mut lab = MicroLab::with_options(5, options);
        lab.prime_os();
        lab.run_workload(&DesktopWorkload::workload1());
        lab.idle_wait(SimDuration::from_mins(5));
        let t = lab.partial_migrate().outcome.total;
        assert!(t >= base, "{options:?} was faster than the default");
    }
}

/// The twelve simulated times and byte counts of one lab cycle, in the
/// order and format `oasisbench` digests it (`lab_digest` in
/// `oasisbench/src/checks.rs`), plus the retry count and retry time of
/// the consolidated window.
fn lab_cycle_digest(seed: u64, serve_error_rate: f64) -> (String, u64, SimDuration) {
    let mut lab =
        MicroLab::with_options(seed, LabOptions { serve_error_rate, ..LabOptions::default() });
    lab.prime_os();
    lab.run_workload(&DesktopWorkload::workload1());
    lab.idle_wait(SimDuration::from_mins(5));
    let precopy = lab.full_migrate_baseline();
    let partial1 = lab.partial_migrate();
    let idle = lab.consolidated_idle(SimDuration::from_mins(20));
    let reintegration = lab.reintegrate();
    let descriptor = lab.traffic.total(TrafficClass::PartialDescriptor);
    lab.run_workload(&DesktopWorkload::workload2());
    lab.idle_wait(SimDuration::from_mins(5));
    let partial2 = lab.partial_migrate();
    let digest = format!(
        "precopy={:.6}s partial1={:.6}s upload1={:.6}s uploaded1={} descriptor={}B faults={} \
         fetched={}B reintegration={:.6}s reintegrated={}B partial2={:.6}s upload2={:.6}s uploaded2={}",
        precopy.duration.as_secs_f64(),
        partial1.outcome.total.as_secs_f64(),
        partial1.outcome.upload_time.as_secs_f64(),
        partial1.uploaded_pages,
        descriptor.as_bytes(),
        idle.faults,
        idle.fetched.as_bytes(),
        reintegration.total.as_secs_f64(),
        reintegration.network_bytes.as_bytes(),
        partial2.outcome.total.as_secs_f64(),
        partial2.outcome.upload_time.as_secs_f64(),
        partial2.uploaded_pages,
    );
    (digest, idle.retries, idle.retry_time)
}

/// Pins the seed-1 lab cycle byte for byte.
///
/// The lossless leg is the benchmark's `lab/1` pin, copied verbatim from
/// `oasisbench/src/golden.rs` (a separate Cargo workspace, so the file
/// cannot be `include!`d). The lossy leg also pins the memtap's retries.
/// A reordered per-page RNG draw fails it: drawing the
/// `CONS_FETCH_FRACTION` coin after the page index in `consolidated_idle`
/// moves every field from `faults` on.
#[test]
fn lab_cycle_golden() {
    let (lossless, retries, retry_time) = lab_cycle_digest(1, 0.0);
    assert_eq!(
        lossless,
        "precopy=42.986874s partial1=15.569978s upload1=10.367145s uploaded1=601200 descriptor=16777216B faults=25009 fetched=56849276B reintegration=3.480286s reintegrated=162332672B partial2=7.115631s upload2=1.912798s uploaded2=112548"
    );
    assert_eq!((retries, retry_time), (0, SimDuration::ZERO));

    let (lossy, retries, retry_time) = lab_cycle_digest(1, 0.10);
    assert_eq!(
        lossy,
        "precopy=42.986874s partial1=15.569978s upload1=10.367145s uploaded1=601200 descriptor=16777216B faults=24874 fetched=56970227B reintegration=3.483455s reintegrated=162705408B partial2=7.121659s upload2=1.918826s uploaded2=112587"
    );
    assert_eq!((retries, retry_time), (2787, SimDuration::from_micros(139_350_000)));
}
