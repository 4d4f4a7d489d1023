//! Regression gate over malformed on-disk inputs.
//!
//! Every fixture under `tests/fixtures/` is a trace or snapshot that used
//! to (or plausibly could) slip through a bare serde load. Each one must
//! be rejected by the full load path — parse, built-in structural
//! validation, then the guard quarantine — with a typed error, never a
//! panic or a silent acceptance. The two advisory fixtures must pass a
//! lenient gate and fail a strict one.

use std::path::PathBuf;

use tacc_guard::validate::{validate_snapshot, validate_trace};
use tacc_runtime::RuntimeSnapshot;
use tacc_workload::Trace;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The CLI's trace load path: parse, then quarantine-gate.
fn load_trace(name: &str, strict: bool) -> Result<Trace, String> {
    let trace = Trace::from_json(&fixture(name)).map_err(|e| e.to_string())?;
    validate_trace(&trace).gate(strict).map_err(|e| e.to_string())?;
    Ok(trace)
}

/// The CLI's snapshot load path: parse, then quarantine-gate.
fn load_snapshot(name: &str, strict: bool) -> Result<RuntimeSnapshot, String> {
    let snapshot = RuntimeSnapshot::from_json(&fixture(name)).map_err(|e| e.to_string())?;
    validate_snapshot(&snapshot).gate(strict).map_err(|e| e.to_string())?;
    Ok(snapshot)
}

#[test]
fn the_valid_control_fixture_loads_cleanly() {
    let trace = load_trace("trace-valid.json", true).expect("control fixture is clean");
    assert_eq!(trace.events.len(), 5);
}

#[test]
fn every_malformed_trace_fixture_is_rejected() {
    let malformed = [
        "trace-backwards-time.json",
        "trace-negative-drift.json",
        "trace-device-oob.json",
        "trace-server-oob.json",
        "trace-bad-version.json",
        "trace-zero-devices.json",
        "trace-zero-servers.json",
        "trace-negative-load.json",
        "trace-truncated.json",
        "trace-not-json.json",
        "trace-wrong-shape.json",
        "trace-unknown-event.json",
        "trace-huge-time.json",
    ];
    for name in malformed {
        let err = load_trace(name, false)
            .map(|_| ())
            .expect_err(&format!("{name} must be rejected even leniently"));
        assert!(!err.is_empty(), "{name}: empty diagnosis");
    }
}

#[test]
fn advisory_trace_fixtures_pass_leniently_and_fail_strictly() {
    for name in ["trace-empty.json", "trace-overcommitted.json"] {
        load_trace(name, false).unwrap_or_else(|e| panic!("{name} lenient: {e}"));
        let err = load_trace(name, true)
            .map(|_| ())
            .expect_err(&format!("{name} must fail a strict gate"));
        assert!(err.contains("quarantined"), "{name}: {err}");
    }
}

#[test]
fn every_malformed_snapshot_fixture_is_rejected() {
    let malformed = [
        "snapshot-bad-version.json",
        "snapshot-negative-latency.json",
        "snapshot-wanted-mismatch.json",
        "snapshot-truncated.json",
        "snapshot-maintainer-mismatch.json",
    ];
    for name in malformed {
        let err = load_snapshot(name, false)
            .map(|_| ())
            .expect_err(&format!("{name} must be rejected even leniently"));
        assert!(!err.is_empty(), "{name}: empty diagnosis");
    }
}

#[test]
fn guard_rejections_are_typed_not_stringly() {
    // The snapshot fixtures that parse fine but fail quarantine must carry
    // the specific typed finding, not a generic failure.
    use tacc_guard::ValidationIssue;
    let snapshot =
        RuntimeSnapshot::from_json(&fixture("snapshot-negative-latency.json")).expect("parses");
    let report = validate_snapshot(&snapshot);
    assert!(
        report.issues.iter().any(|i| matches!(i, ValidationIssue::NegativeLatency { .. })),
        "{}",
        report.summary()
    );
    let snapshot =
        RuntimeSnapshot::from_json(&fixture("snapshot-wanted-mismatch.json")).expect("parses");
    let report = validate_snapshot(&snapshot);
    assert!(
        report.issues.iter().any(|i| matches!(
            i,
            ValidationIssue::LengthMismatch { what: "wanted", found: 3, expected: 4 }
        )),
        "{}",
        report.summary()
    );
    // Delay-maintenance state: one failed flag and one tree short.
    let snapshot =
        RuntimeSnapshot::from_json(&fixture("snapshot-maintainer-mismatch.json")).expect("parses");
    let report = validate_snapshot(&snapshot);
    for what in ["maintainer failed", "maintainer trees"] {
        assert!(
            report.issues.iter().any(|i| matches!(
                i,
                ValidationIssue::LengthMismatch { what: w, found, expected }
                    if *w == what && found + 1 == *expected
            )),
            "{what}: {}",
            report.summary()
        );
    }
    assert_eq!(report.hard_count(), 2, "{}", report.summary());
}
