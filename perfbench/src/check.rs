//! Output checks, run off the clock. None of them compares seeded output
//! digests, so they stay valid when the server picks its own seeds.

use crate::drive::Release;
use crate::spec::GRANT;
use pcor::core::Verifier;
use pcor::data::Dataset;
use pcor::dp::PopulationSizeUtility;
use pcor::outlier::DetectorKind;
use pcor::service::{BudgetLedger, DurableLedger, LedgerEntry, WalConfig};
use pcor::telemetry::AuditLog;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Per-operation admission slack of the budget accountant: a reservation
/// fits when it exceeds the remaining budget by at most this much.
const ADMISSION_SLACK: f64 = 1e-12;

/// Every released context must be a matching context of its record
/// (Def. 3.2(a)): it covers the record and the detector flags the record
/// as an outlier within the context's population.
pub fn contexts_match(
    dataset: &Dataset,
    detector: DetectorKind,
    releases: &[&Release],
) -> Vec<String> {
    let built = detector.build();
    let utility = PopulationSizeUtility;
    let mut verifiers: HashMap<usize, Verifier<'_>> = HashMap::new();
    let mut problems = Vec::new();
    for release in releases {
        let verifier = verifiers
            .entry(release.record)
            .or_insert_with(|| Verifier::new(dataset, built.as_ref(), &utility, release.record));
        match verifier.is_matching(&release.context) {
            Ok(true) => {}
            Ok(false) => problems.push(format!(
                "record {}: released context {:?} is not matching",
                release.record, release.context
            )),
            Err(e) => problems.push(format!("record {}: verification failed: {e}", release.record)),
        }
    }
    problems
}

/// Ledger checks after drain: no reservation outstanding, each account's
/// spend equal to the ε of its released items, and the audit-log fold
/// equal to the snapshot.
pub fn ledger_consistent(
    snapshot: &[LedgerEntry],
    audit: &AuditLog,
    releases: &[&Release],
    dataset: &str,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut expected: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for release in releases {
        let entry = expected.entry(release.analyst.clone()).or_default();
        entry.0 += release.epsilon;
        entry.1 += 1;
    }
    let folded = audit.fold();
    for account in snapshot {
        let key = (account.analyst.clone(), account.dataset.clone());
        if account.reserved.abs() > ADMISSION_SLACK {
            problems.push(format!("{key:?}: {} ε still reserved after drain", account.reserved));
        }
        let (spend, count) = if account.dataset == dataset {
            expected.remove(&account.analyst).unwrap_or_default()
        } else {
            (0.0, 0)
        };
        let slack = ADMISSION_SLACK * (count as f64 + 1.0);
        if (account.spent - spend).abs() > slack {
            problems.push(format!(
                "{key:?}: spent {} but released items sum to {spend}",
                account.spent
            ));
        }
        match folded.get(&key) {
            Some(fold) => {
                if (fold.committed - account.spent).abs() > slack
                    || (fold.outstanding() - account.reserved).abs() > slack
                {
                    problems.push(format!("{key:?}: audit fold {fold:?} differs from {account:?}"));
                }
            }
            None => problems.push(format!("{key:?}: account missing from the audit log")),
        }
    }
    for (analyst, (spend, _)) in expected {
        problems.push(format!("{analyst}: released {spend} ε but has no ledger account"));
    }
    if folded.len() != snapshot.len() {
        problems.push(format!(
            "audit log folds {} accounts, snapshot holds {}",
            folded.len(),
            snapshot.len()
        ));
    }
    problems
}

/// Reopening the WAL with `DurableLedger::open` must replay to the live
/// snapshot.
pub fn wal_replays(dir: &Path, live: &[LedgerEntry]) -> Vec<String> {
    let reopened = match DurableLedger::open(WalConfig::at(dir), BudgetLedger::new(GRANT)) {
        Ok(durable) => durable.ledger().snapshot(),
        Err(e) => return vec![format!("reopening the WAL failed: {e}")],
    };
    if reopened.len() != live.len() {
        return vec![format!(
            "WAL replay has {} accounts, live ledger {}",
            reopened.len(),
            live.len()
        )];
    }
    reopened
        .iter()
        .zip(live)
        .filter(|(a, b)| {
            a.analyst != b.analyst
                || a.dataset != b.dataset
                || (a.spent - b.spent).abs() > ADMISSION_SLACK * 1e3
                || a.reserved.abs() > ADMISSION_SLACK
        })
        .map(|(a, b)| format!("WAL replay {a:?} differs from live {b:?}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcor::data::Context;

    fn release(analyst: &str, epsilon: f64) -> Release {
        Release {
            analyst: analyst.into(),
            record: 0,
            epsilon,
            context: Context::empty(4),
            utility: 1.0,
            fm_calls: 1,
        }
    }

    #[test]
    fn ledger_check_accepts_a_consistent_ledger_and_flags_a_gap() {
        let ledger = BudgetLedger::new(10.0);
        let telemetry = pcor::telemetry::Telemetry::new();
        ledger.attach_telemetry(telemetry.clone());
        for _ in 0..3 {
            let r = ledger.reserve("a", "d", 0.2).unwrap();
            ledger.commit(r);
        }
        let refunded = ledger.reserve("b", "d", 0.2).unwrap();
        ledger.refund(refunded);
        let good = [release("a", 0.2), release("a", 0.2), release("a", 0.2)];
        let refs: Vec<&Release> = good.iter().collect();
        assert!(ledger_consistent(&ledger.snapshot(), telemetry.audit(), &refs, "d").is_empty());
        let short: Vec<&Release> = good.iter().take(2).collect();
        assert!(!ledger_consistent(&ledger.snapshot(), telemetry.audit(), &short, "d").is_empty());
        let held = ledger.reserve("a", "d", 0.2).unwrap();
        assert!(!ledger_consistent(&ledger.snapshot(), telemetry.audit(), &refs, "d").is_empty());
        drop(held);
    }
}
