//! The scenario library's golden regression suite.
//!
//! Every registered scenario's [`ScenarioReport`] digest is pinned
//! byte-for-byte per seed, and (for the sharded scenario) the same bytes
//! must come out of any worker count. A planner, accounting,
//! fault-recovery, or shard-driver change that shifts observable
//! behaviour fails here by name — with the `guards` line saying what was
//! being protected.
//!
//! Regenerating after an *intentional* behaviour change: run the
//! ignored `print_golden_digests` test with `--nocapture` and paste the
//! printed table over `GOLDEN` in `golden/scenario_digests.rs`.
//!
//! The suite also carries the property battery (satellite: integrity,
//! ledger re-sum, generation-split exactness) and the homogeneous
//! collapse differential test.

use oasis_cluster::scenarios::{self, run_scenario_on, SLA_THRESHOLD_SECS};
use oasis_cluster::sim::ClusterSim;
use oasis_sim::pool::WorkerPool;

const SEEDS: [u64; 3] = [1, 2, 3];

include!("golden/scenario_digests.rs");

fn golden_for(name: &str, seed: u64) -> &'static str {
    GOLDEN
        .iter()
        .find(|(n, s, _)| *n == name && *s == seed)
        .unwrap_or_else(|| panic!("no golden digest for {name} seed {seed}"))
        .2
}

/// Locks one scenario's digest for every seed against the pinned bytes.
fn lock_scenario(name: &str) {
    let spec = scenarios::find(name).expect("scenario registered");
    let pool = WorkerPool::new(2);
    for seed in SEEDS {
        let report = run_scenario_on(&pool, &spec, seed).expect("scenario runs");
        assert_eq!(
            report.digest(),
            golden_for(name, seed),
            "{name} seed {seed} drifted\n  guards: {}",
            spec.guards
        );
    }
}

#[test]
fn mixed_fleet_digest_is_golden() {
    lock_scenario("mixed_fleet");
}

#[test]
fn green_refresh_digest_is_golden() {
    lock_scenario("green_refresh");
}

#[test]
fn flash_crowd_digest_is_golden() {
    lock_scenario("flash_crowd");
}

#[test]
fn regional_outage_digest_is_golden() {
    lock_scenario("regional_outage");
}

#[test]
fn patch_window_digest_is_golden() {
    lock_scenario("patch_window");
}

#[test]
fn follow_the_sun_digest_is_golden() {
    lock_scenario("follow_the_sun");
}

/// Worker counts must not leak into the sharded scenario's bytes: the
/// same digest comes out of a serial pool and a parallel one.
#[test]
fn follow_the_sun_is_jobs_invariant() {
    let spec = scenarios::find("follow_the_sun").unwrap();
    for seed in SEEDS {
        let expect = golden_for("follow_the_sun", seed);
        for jobs in [1, 2, 4] {
            let pool = WorkerPool::new(jobs);
            let report = run_scenario_on(&pool, &spec, seed).unwrap();
            assert_eq!(report.digest(), expect, "jobs={jobs} changed the bytes at seed {seed}");
        }
    }
}

/// Satellite: a scenario with a single host generation and a single VM
/// class must reproduce the plain homogeneous `run_day` report
/// byte-for-byte — the scenario plumbing collapses away.
#[test]
fn homogeneous_scenario_collapses_to_plain_run_day() {
    let spec = oasis_cluster::ScenarioSpec::smoke("collapse_probe", "scenario plumbing is free");
    for seed in SEEDS {
        let scenario_report = ClusterSim::new(spec.cluster_config(seed).unwrap()).run_day();
        let plain = ClusterSim::new(
            oasis_cluster::ClusterConfig::builder()
                .home_hosts(spec.home_hosts)
                .consolidation_hosts(spec.consolidation_hosts)
                .vms_per_host(spec.vms_per_host)
                .policy(spec.policy)
                .day(spec.day)
                .host_memory(spec.host_memory)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .run_day();
        assert_eq!(
            format!("{scenario_report:?}"),
            format!("{plain:?}"),
            "seed {seed}: scenario config is not a no-op over the plain day"
        );
    }
}

/// Satellite property battery, every scenario × seeds 1–3:
/// 1. the final placements pass every structural integrity check;
/// 2. the integer-millijoule ledger re-sums to the float meter within
///    1e-6 kWh;
/// 3. the per-generation split sums exactly to the fleet ledger total
///    and covers every host.
#[test]
fn scenario_properties_hold_for_every_seed() {
    let pool = WorkerPool::new(2);
    for spec in scenarios::all() {
        for seed in SEEDS {
            let digest = run_scenario_on(&pool, &spec, seed).unwrap();
            // Exactness of the split: integer sums, no remainder lost.
            let ledger_total: u64 = digest.generation_total_mj();
            assert_eq!(
                digest.generations.iter().map(|g| g.hosts).sum::<u32>(),
                digest.hosts,
                "{}: generation split must cover every host",
                spec.name
            );

            // Per-rack checks need the full reports.
            let mut fleet_mj = 0u64;
            let racks = spec.racks.max(1);
            for rack in 0..racks {
                let mut cfg = spec.cluster_config(seed).unwrap();
                if racks > 1 {
                    cfg = oasis_cluster::rack_config(&cfg, rack);
                }
                let mut report = ClusterSim::new(cfg).run_day();
                assert_eq!(
                    report.integrity_violations(),
                    Vec::<String>::new(),
                    "{} seed {seed} rack {rack}: integrity violated",
                    spec.name
                );
                let ledger_kwh =
                    report.energy.total_mj() as f64 / 1_000.0 / oasis_power::meter::JOULES_PER_KWH;
                assert!(
                    (ledger_kwh - report.total_kwh).abs() < 1e-6,
                    "{} seed {seed} rack {rack}: ledger {ledger_kwh} vs meter {}",
                    spec.name,
                    report.total_kwh
                );
                fleet_mj += report.energy.total_mj();
                let _ = report.sla_violations(SLA_THRESHOLD_SECS);
            }
            assert_eq!(
                ledger_total, fleet_mj,
                "{} seed {seed}: generation split does not re-sum to the fleet ledger",
                spec.name
            );
        }
    }
}

/// Regenerates the `GOLDEN` table. `cargo test -p oasis-cluster --test
/// scenario_golden -- --ignored --nocapture print_golden_digests`.
#[test]
#[ignore]
fn print_golden_digests() {
    let pool = WorkerPool::new(2);
    for spec in scenarios::all() {
        for seed in SEEDS {
            let report = run_scenario_on(&pool, &spec, seed).unwrap();
            println!("    (\"{}\", {}, \"{}\"),", spec.name, seed, report.digest());
        }
    }
}
