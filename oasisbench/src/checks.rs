//! Output checks: pinned digests for the canonical seeds and invariants
//! for every seed.
//!
//! Every task's output is reduced to a digest string and a list of
//! problems. A task fails when it has a problem, when its digest differs
//! from the pinned one (canonical seeds), or when the same task run
//! again in this process gives a different digest.

use std::collections::BTreeMap;

use oasis_cluster::shard::SLA_THRESHOLD_SECS;
use oasis_cluster::ScenarioSpec;
use oasis_cluster::{DatacenterReport, ScenarioReport, SimReport};
use oasis_power::meter::JOULES_PER_KWH;

use crate::golden;
use crate::workloads::LabOutcome;

/// Ledger-vs-meter tolerance per rack, in kWh.
const LEDGER_TOLERANCE_KWH: f64 = 1e-6;

/// Pinned digests by task key.
#[derive(Clone, Debug, Default)]
pub struct Golden {
    digests: BTreeMap<String, String>,
}

impl Golden {
    /// The digests pinned in [`golden`].
    pub fn pinned() -> Golden {
        let mut digests = BTreeMap::new();
        for (key, digest) in golden::PAPER {
            digests.insert(key.to_string(), digest.to_string());
        }
        for (name, seed, digest) in golden::SCENARIOS {
            digests.insert(scenario_key(name, *seed), digest.to_string());
        }
        for (key, digest) in golden::LAB.iter().chain(golden::FLEET) {
            digests.insert(key.to_string(), digest.to_string());
        }
        Golden { digests }
    }

    /// The pinned digest for `key`, if the key is canonical.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.digests.get(key).map(String::as_str)
    }

    /// A copy with the digest for `key` altered in its last character,
    /// for the self-test. Panics if `key` is not pinned.
    pub fn perturbed(&self, key: &str) -> Golden {
        let mut copy = self.clone();
        let digest = copy.digests.get_mut(key).unwrap_or_else(|| panic!("{key} is not pinned"));
        let last = digest.pop().expect("pinned digests are non-empty");
        digest.push(if last == '0' { '1' } else { '0' });
        copy
    }
}

/// Key of one paper-sweep grid cell.
pub fn paper_key(policy: impl std::fmt::Display, cons: u32, seed: u64) -> String {
    format!("paper/{policy}/{cons}/{seed}")
}

/// Key of one scenario run.
pub fn scenario_key(name: &str, seed: u64) -> String {
    format!("scenario/{name}/{seed}")
}

/// Key of one lab cycle.
pub fn lab_key(seed: u64) -> String {
    format!("lab/{seed}")
}

/// Key of one fleet-day.
pub fn fleet_key(racks: u32, seed: u64) -> String {
    format!("fleet/{racks}/{seed}")
}

/// Counts checked tasks and failures.
pub struct Checker {
    golden: Golden,
    first: BTreeMap<String, String>,
    /// Tasks checked.
    pub attempted: u64,
    /// Tasks that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checker {
    /// A checker comparing canonical tasks against `golden`.
    pub fn new(golden: Golden) -> Checker {
        Checker { golden, first: BTreeMap::new(), attempted: 0, failed: 0, messages: Vec::new() }
    }

    /// Records one task's outcome; returns whether it passed.
    pub fn record(&mut self, key: &str, digest: &str, mut problems: Vec<String>) -> bool {
        self.attempted += 1;
        if let Some(expect) = self.golden.get(key) {
            if expect != digest {
                problems.push(format!(
                    "digest differs from the pinned one:\n  got    {digest}\n  pinned {expect}"
                ));
            }
        }
        match self.first.get(key) {
            Some(prev) if prev != digest => {
                problems.push(format!("digest differs from this task's earlier run:\n  got     {digest}\n  earlier {prev}"))
            }
            Some(_) => {}
            None => {
                self.first.insert(key.to_string(), digest.to_string());
            }
        }
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        if self.messages.len() < 10 {
            self.messages.push(format!("{key}: {}", problems.join("; ")));
        }
        false
    }
}

/// Digest of one §5.1 rack-day: the report's summary line plus the
/// exact integer-millijoule ledger total and decision count.
pub fn paper_digest(report: &SimReport) -> String {
    format!(
        "{} mj={} decisions={}",
        report.summary_line(),
        report.energy.total_mj(),
        report.decisions.total()
    )
}

/// Placement integrity and ledger ≡ meter for one rack-day.
pub fn sim_problems(report: &SimReport) -> Vec<String> {
    let mut problems = report.integrity_violations();
    let ledger_kwh = report.energy.total_mj() as f64 / 1_000.0 / JOULES_PER_KWH;
    // Written so a NaN on either side also fails.
    let within = (ledger_kwh - report.total_kwh).abs() < LEDGER_TOLERANCE_KWH;
    if !within {
        problems.push(format!("ledger {ledger_kwh} kWh vs meter {} kWh", report.total_kwh));
    }
    problems
}

/// Digest of one fleet-day; takes `&mut` because SLA counting sorts the
/// per-rack delay CDFs.
pub fn fleet_digest(report: &mut DatacenterReport) -> String {
    let sla = report.sla_violations(SLA_THRESHOLD_SECS);
    let mj: u64 = report.rack_reports.iter().map(|r| r.energy.total_mj()).sum();
    let migrations: u64 = report
        .rack_reports
        .iter()
        .map(|r| r.migrations.full + r.migrations.partial + r.migrations.exchanges)
        .sum();
    format!(
        "racks={} hosts={} vms={} baseline_kwh={:.6} total_kwh={:.6} mj={mj} migrations={migrations} \
         grants={} rebalance_bytes={} network_bytes={} sla_violations={sla}",
        report.racks,
        report.hosts,
        report.vms,
        report.baseline_kwh,
        report.total_kwh,
        report.rebalance_grants,
        report.rebalance_bytes,
        report.network_bytes(),
    )
}

/// Every rack's integrity and ledger, plus the fleet's shape.
pub fn fleet_problems(report: &DatacenterReport, racks: u32, vms: u32) -> Vec<String> {
    let mut problems = Vec::new();
    if report.racks != racks || report.rack_reports.len() != racks as usize {
        problems.push(format!("{} racks reported, {racks} configured", report.rack_reports.len()));
    }
    if report.vms != vms {
        problems.push(format!("{} VMs reported, {vms} configured", report.vms));
    }
    for (rack, r) in report.rack_reports.iter().enumerate() {
        problems.extend(sim_problems(r).into_iter().take(3).map(|p| format!("rack {rack}: {p}")));
        if problems.len() > 10 {
            break;
        }
    }
    problems
}

/// Digest of one lab cycle: every simulated time and byte count the
/// Figure 5 and §4.4.3 tables are built from.
pub fn lab_digest(lab: &LabOutcome) -> String {
    format!(
        "precopy={:.6}s partial1={:.6}s upload1={:.6}s uploaded1={} descriptor={}B faults={} \
         fetched={}B reintegration={:.6}s reintegrated={}B partial2={:.6}s upload2={:.6}s uploaded2={}",
        lab.precopy.duration.as_secs_f64(),
        lab.partial1.outcome.total.as_secs_f64(),
        lab.partial1.outcome.upload_time.as_secs_f64(),
        lab.partial1.uploaded_pages,
        lab.descriptor.as_bytes(),
        lab.idle.faults,
        lab.idle.fetched.as_bytes(),
        lab.reintegration.total.as_secs_f64(),
        lab.reintegration.network_bytes.as_bytes(),
        lab.partial2.outcome.total.as_secs_f64(),
        lab.partial2.outcome.upload_time.as_secs_f64(),
        lab.partial2.uploaded_pages,
    )
}

/// The orderings §4.4 reports for every cycle: the VM lands on the
/// consolidation host and comes back, a partial migration beats the
/// full one, the differential upload beats the first, reintegration is
/// the cheapest step, and the idle VM faults pages in.
pub fn lab_problems(lab: &LabOutcome) -> Vec<String> {
    let secs = |d: oasis_sim::SimDuration| d.as_secs_f64();
    let mut problems = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            problems.push(what.to_string());
        }
    };
    expect(
        lab.consolidated_after_partial,
        "VM not on the consolidation host after partial migration",
    );
    expect(lab.home_after_reintegration, "VM not home after reintegration");
    expect(
        secs(lab.partial1.outcome.total) < secs(lab.precopy.duration),
        "partial migration not faster than full migration",
    );
    expect(
        secs(lab.partial2.outcome.upload_time) < secs(lab.partial1.outcome.upload_time),
        "differential upload not faster than the first upload",
    );
    expect(lab.partial2.differential, "second partial migration not differential");
    expect(
        secs(lab.reintegration.total) < secs(lab.partial1.outcome.total),
        "reintegration not faster than partial migration",
    );
    expect(lab.partial1.uploaded_pages > 0, "first partial migration uploaded nothing");
    expect(
        lab.idle.faults > 0 && lab.idle.fetched.as_bytes() > 0,
        "consolidated VM fetched nothing",
    );
    problems
}

/// Shape, generation split and ledger ≡ meter for one scenario.
pub fn scenario_problems(report: &ScenarioReport, spec: &ScenarioSpec) -> Vec<String> {
    let mut problems = Vec::new();
    let racks = spec.racks.max(1);
    let vms = spec.home_hosts * spec.vms_per_host * racks;
    if report.vms != vms {
        problems.push(format!("{} VMs reported, {vms} configured", report.vms));
    }
    let split_hosts: u32 = report.generations.iter().map(|g| g.hosts).sum();
    if split_hosts != report.hosts {
        problems.push(format!("generation split covers {split_hosts} of {} hosts", report.hosts));
    }
    let ledger_kwh = report.generation_total_mj() as f64 / 1_000.0 / JOULES_PER_KWH;
    let within = (ledger_kwh - report.total_kwh).abs() < LEDGER_TOLERANCE_KWH * f64::from(racks);
    if !within {
        problems.push(format!("ledger {ledger_kwh} kWh vs meter {} kWh", report.total_kwh));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_task_is_pinned() {
        use crate::workloads::Workload;
        let g = Golden::pinned();
        let mut keys = Vec::new();
        for w in Workload::ALL {
            for task in w.canonical() {
                let key = task.key();
                assert!(g.get(&key).is_some(), "{} checks {key}, which is not pinned", w.name());
                keys.push(key);
            }
        }
        // The §5.1 report line is checked by a registered workload.
        assert!(keys.contains(&paper_key("FulltoPartial", 4, 1)));
        // Every pinned digest is checked by some workload's panel.
        assert_eq!(keys.len(), g.digests.len());
    }

    #[test]
    fn perturbed_digest_is_counted_as_a_failure() {
        use crate::workloads::{Runner, Workload};
        let task = Workload::AdversarialDay.canonical()[0];
        let mut honest = Runner::new(1, Checker::new(Golden::pinned()));
        honest.run(&task, 0);
        assert_eq!((honest.checker.attempted, honest.checker.failed), (1, 0));

        let perturbed = Golden::pinned().perturbed(&task.key());
        let mut broken = Runner::new(1, Checker::new(perturbed));
        broken.run(&task, 0);
        assert_eq!((broken.checker.attempted, broken.checker.failed), (1, 1));
    }

    #[test]
    fn a_changed_rerun_is_counted_as_a_failure() {
        let mut c = Checker::new(Golden::default());
        assert!(c.record("k", "a", Vec::new()));
        assert!(!c.record("k", "b", Vec::new()));
        assert!(!c.record("k", "a", vec!["broken".into()]));
        assert_eq!((c.attempted, c.failed), (3, 2));
    }
}
