//! Crash-schedule explorer acceptance test.
//!
//! Runs the canonical DML+checkpoint workload, crashing (`kill -9`:
//! directory snapshot at the instant of an instrumented I/O site) at every
//! chosen site, recovering via `Database::open`, and comparing
//! query-for-query against the reference model of a statement prefix
//! (`hermit_fault::model`). See `hermit_fault::explorer`.
//!
//! Site budget: `HERMIT_CRASH_SITES=all` explores the full matrix (479
//! sites, seconds in release); `HERMIT_CRASH_SITES=<n>` explores an
//! evenly-strided sample of `n`. Unset defaults to 64 so the tier-1 debug
//! run stays fast while still landing inside the transactional tail of the
//! workload; CI's `chaos-smoke` job runs every site in release.

use hermit_fault::explore;
use hermit_storage::Site;
use std::path::PathBuf;

fn budget() -> Option<usize> {
    match std::env::var("HERMIT_CRASH_SITES") {
        Ok(v) if v.eq_ignore_ascii_case("all") => None,
        Ok(v) => Some(v.parse().expect("HERMIT_CRASH_SITES must be a number or 'all'")),
        Err(_) => Some(64),
    }
}

fn root(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hermit-explorer-{}-{}", name, std::process::id()))
}

#[test]
fn every_explored_crash_site_recovers_to_a_statement_prefix() {
    let report = explore(&root("matrix"), budget());
    eprintln!(
        "crash explorer: {} sites total, {} explored, site classes: {:?}",
        report.total_sites,
        report.explored.len(),
        report.site_names
    );
    assert!(
        report.total_sites >= 30,
        "canonical workload must pass ≥ 30 crash sites, found {}",
        report.total_sites
    );
    assert!(
        report.site_names.len() >= 5,
        "expected several distinct site classes, found {:?}",
        report.site_names
    );
    // The transactional tail of the canonical workload must register its
    // commit and abort WAL appends as crash sites — losing these classes
    // means the atomicity contract is no longer under test.
    for class in [Site::WalTxnCommit, Site::WalTxnAbort] {
        assert!(
            report.site_names.contains_key(&class),
            "site class `{class}` missing from the schedule: {:?}",
            report.site_names
        );
    }
    assert!(!report.explored.is_empty());
    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("site {} ({}): {}", f.site, f.name, f.detail);
        }
        panic!("{} crash sites failed the recovery check", report.failures.len());
    }
}
