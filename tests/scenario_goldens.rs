//! Tier-1 guard on the scenario goldens: every registered scenario at
//! seed 1 must reproduce its pinned digest byte for byte.
//!
//! The pins live in one table, `crates/cluster/tests/golden/
//! scenario_digests.rs`, shared through `include!` with the per-crate
//! suite (which also sweeps seeds 2–3 and worker counts), so a plain
//! `cargo test` at the workspace root catches a digest drift without
//! `--workspace`. Example perturbation it catches: charging the S3
//! sleep draw to idle consolidation hosts too (the `sleep_draw` role
//! check in `ClusterSim::account_energy`) moves `total_kwh` in the
//! pinned digests.

use oasis::cluster::scenarios::{self, run_scenario_on};
use oasis::sim::WorkerPool;

include!("../crates/cluster/tests/golden/scenario_digests.rs");

#[test]
fn every_scenario_matches_its_seed_1_pin() {
    let pool = WorkerPool::new(2);
    let specs = scenarios::all();
    assert_eq!(specs.len(), 6, "a scenario was added or removed; pin it at seed 1");
    for spec in specs {
        let (_, _, expect) = GOLDEN
            .iter()
            .find(|(name, seed, _)| *name == spec.name && *seed == 1)
            .unwrap_or_else(|| panic!("no seed-1 pin for {}", spec.name));
        let report = run_scenario_on(&pool, &spec, 1).expect("scenario runs");
        assert_eq!(report.digest(), *expect, "{} drifted\n  guards: {}", spec.name, spec.guards);
    }
}
