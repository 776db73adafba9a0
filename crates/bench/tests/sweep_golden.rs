//! Golden-file regression test for the canonical-JSON sweep report format.
//!
//! The checked-in fixture (`tests/golden/sweep_report.json`) is a real
//! mini sweep (2 arrivals × 2 fault levels × 2 thread replicas, 8
//! requests per cell) written by `experiments sweep --spec`. The test
//! pins the serialization contract: parsing the fixture and re-rendering
//! it canonically must reproduce the file **byte for byte**. Any change
//! to key ordering, float formatting, field names, or the hash scheme
//! shows up here as a diff against a reviewable artifact.

use loam_bench::canon;
use loam_bench::exps::sweep::SweepReport;

const GOLDEN: &str = include_str!("golden/sweep_report.json");

#[test]
fn golden_report_roundtrips_byte_identically() {
    let report: SweepReport = serde_json::from_str(GOLDEN).expect("golden fixture parses");
    assert_eq!(
        canon::canonical_file(&report),
        GOLDEN,
        "serialize(parse(golden)) must be the identity on bytes"
    );
    // And the round-trip is a fixpoint, not a one-off coincidence.
    let again: SweepReport =
        serde_json::from_str(&canon::canonical_file(&report)).expect("canonical output reparses");
    assert_eq!(canon::canonical_file(&again), GOLDEN);
}

#[test]
fn golden_hashes_are_self_consistent() {
    let report: SweepReport = serde_json::from_str(GOLDEN).expect("golden fixture parses");
    assert_eq!(report.bench, "sweep");
    assert_eq!(
        report.spec_hash,
        canon::hash_of(&report.spec),
        "spec_hash must be the canonical hash of the embedded spec echo"
    );
    assert_eq!(report.runbook.cells, report.cells.len() as u64);
    assert_eq!(report.runbook.seeds.len(), report.cells.len());
    for cell in &report.cells {
        assert_eq!(cell.config_hash, canon::hash_of(&cell.config));
        assert_eq!(cell.metrics_hash, canon::hash_of(&cell.metrics));
        assert_eq!(cell.metrics.decision_hash.len(), 16);
    }
    // The runbook id commits to the spec and the exact seed sequence.
    let expect = canon::hex16(canon::fnv1a64(
        canon::canonical_of(&(report.spec_hash.clone(), report.runbook.seeds.clone())).as_bytes(),
    ));
    assert_eq!(report.runbook.id, expect);
}

#[test]
fn golden_fixture_is_canonical_on_disk() {
    // Defense in depth: the raw file itself must already be in canonical
    // form (sorted keys, no whitespace, single trailing newline) — i.e.
    // nobody hand-edited or pretty-printed it.
    assert!(GOLDEN.ends_with('\n'));
    let body = &GOLDEN[..GOLDEN.len() - 1];
    assert!(!body.contains('\n'), "canonical JSON is a single line");
    let value: serde::Value = serde_json::from_str(body).expect("fixture is valid JSON");
    assert_eq!(canon::canonical(&value), body);
}
