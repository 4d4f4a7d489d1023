//! Adversarial regression tests for the runtime: hand-written traces
//! that fail the last alive server, snapshot/restore under in-flight
//! degradation, snapshots written before the derived delay state left
//! the format, and the typed-error contract on every malformed-input
//! path (no panics, ever).

use std::path::PathBuf;

use tacc_runtime::{DeviceState, Runtime, RuntimeConfig, RuntimeError, RuntimeSnapshot};
use tacc_workload::{TimedEvent, Trace, TraceEvent, TraceScenario};

fn scenario() -> TraceScenario {
    TraceScenario { num_iot: 18, num_servers: 3, ..TraceScenario::default() }
}

fn trace_with(events: Vec<TimedEvent>) -> Trace {
    Trace { version: Trace::FORMAT_VERSION, scenario: scenario(), events }
}

fn at(time_ms: f64, event: TraceEvent) -> TimedEvent {
    TimedEvent { time_ms, event }
}

/// The hand-written schedule the polite generator refuses to emit:
/// every server — including the last one — goes down, holds, heals.
fn total_outage_trace() -> Trace {
    trace_with(vec![
        at(1.0, TraceEvent::ServerFail { server: 0 }),
        at(2.0, TraceEvent::ServerFail { server: 1 }),
        at(3.0, TraceEvent::ServerFail { server: 2 }),
        // Churn against a dead cluster.
        at(4.0, TraceEvent::DeviceLeave { device: 5 }),
        at(5.0, TraceEvent::DeviceJoin { device: 5 }),
        // Heal.
        at(6.0, TraceEvent::ServerRecover { server: 1 }),
        at(7.0, TraceEvent::ServerRecover { server: 0 }),
        at(8.0, TraceEvent::ServerRecover { server: 2 }),
    ])
}

#[test]
fn failing_the_last_alive_server_sheds_everyone_and_recovers() {
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    let n = rt.cluster().instance().num_devices();

    // Through the outage: never a panic, never an overload, reporting
    // keeps working at every boundary.
    let mut evictions_before_partition = 0;
    for index in 0..3 {
        // Failing servers 0 and 1 is a capacity crunch (sheds are
        // evictions); failing the *last* server is a partition and must
        // not count as one.
        if index == 2 {
            evictions_before_partition = rt.metrics().core.evictions;
        }
        rt.step(index, &trace.events[index]).unwrap();
        assert!(rt.max_overload() <= 1e-9, "no transient overload at event {index}");
        rt.check_invariants(true).unwrap();
        let report = serde_json::to_string(&rt.report_json(false)).unwrap();
        assert!(report.contains("\"unreachable_devices\""), "reporting survives the outage");
    }
    assert_eq!(rt.cluster().active_count(), 0, "no server means no service");
    assert_eq!(rt.unreachable_count(), n, "the whole fleet is unreachable, not shed");
    assert_eq!(
        rt.metrics().core.evictions,
        evictions_before_partition,
        "a partition is not an eviction"
    );

    // Churn against the dead cluster is absorbed.
    rt.step(3, &trace.events[3]).unwrap();
    assert_eq!(rt.device_state(5), DeviceState::Departed);
    rt.step(4, &trace.events[4]).unwrap();
    assert_eq!(rt.device_state(5), DeviceState::Unreachable);
    rt.check_invariants(true).unwrap();

    // Healing re-admits the entire fleet.
    for index in 5..trace.events.len() {
        rt.step(index, &trace.events[index]).unwrap();
    }
    assert_eq!(rt.cluster().active_count(), n, "full re-admission after the outage");
    assert_eq!(rt.unreachable_count(), 0);
    assert!(rt.metrics().core.readmissions >= n as u64);
    rt.check_invariants(true).unwrap();
}

#[test]
fn high_priority_devices_return_first_after_an_outage() {
    let mut priorities = vec![1.0; 18];
    priorities[7] = 10.0;
    let config = RuntimeConfig { priorities, ..RuntimeConfig::default() };
    let trace = trace_with(vec![
        at(1.0, TraceEvent::ServerFail { server: 0 }),
        at(2.0, TraceEvent::ServerFail { server: 1 }),
        at(3.0, TraceEvent::ServerFail { server: 2 }),
        // Heal only one server: capacity for some, not all. The
        // high-priority device must be among the first back.
        at(4.0, TraceEvent::ServerRecover { server: 0 }),
    ]);
    let mut rt = Runtime::from_trace(&trace, config).unwrap();
    rt.run(&trace).unwrap();
    if rt.cluster().active_count() > 0 {
        assert!(
            rt.cluster().is_active(7),
            "priority 10 device re-admitted before priority 1 peers"
        );
    }
    rt.check_invariants(true).unwrap();
}

#[test]
fn snapshot_restore_preserves_in_flight_degradation_byte_identically() {
    // Fail two servers (sheds for capacity), then all (unreachable), and
    // snapshot mid-degradation: both sets must restore byte-identically.
    let trace = total_outage_trace();
    let config = RuntimeConfig::default();
    let mut rt = Runtime::from_trace(&trace, config).unwrap();
    for index in 0..4 {
        rt.step(index, &trace.events[index]).unwrap();
    }
    assert!(rt.unreachable_count() > 0, "the snapshot captures live degradation");

    let snapshot = rt.snapshot();
    let json = snapshot.to_json();
    let parsed = RuntimeSnapshot::from_json(&json).unwrap();
    assert_eq!(parsed, snapshot, "snapshot survives its own JSON bit-for-bit");
    assert_eq!(parsed.to_json(), json, "and re-serializes byte-identically");

    let restored = Runtime::restore(parsed, &trace).unwrap();
    let n = rt.cluster().instance().num_devices();
    for d in 0..n {
        assert_eq!(restored.device_state(d), rt.device_state(d), "device {d} state restored");
        assert_eq!(restored.is_unreachable(d), rt.is_unreachable(d));
        assert_eq!(restored.is_wanted(d), rt.is_wanted(d));
    }
    restored.check_invariants(true).unwrap();

    // Finishing from the restore point matches the uninterrupted run.
    let mut whole = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    whole.run(&trace).unwrap();
    let mut resumed = restored;
    resumed.run(&trace).unwrap();
    assert_eq!(whole.snapshot(), resumed.snapshot());
    assert_eq!(whole.maintainer(), resumed.maintainer(), "derived delay state too");
    assert_eq!(
        serde_json::to_string(&whole.report_json(false)).unwrap(),
        serde_json::to_string(&resumed.report_json(false)).unwrap()
    );
}

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn a_snapshot_carrying_derived_delay_state_restores_exactly() {
    // Written by a build that still journaled the effective link costs,
    // every tree's distances and the delay matrix, after drifts and two
    // server failures (20 × 4, cut at event 10). Those fields are now
    // ignored and re-derived; the resumed run must end exactly where an
    // uninterrupted one does.
    let trace = Trace::from_json(&fixture("trace-20x4.json")).unwrap();
    let text = fixture("snapshot-fat-v2-20x4.json");
    for key in ["\"costs\"", "\"matrix\"", "\"dist\""] {
        assert!(text.contains(key), "the fixture carries {key}");
    }
    let snapshot = RuntimeSnapshot::from_json(&text).unwrap();
    assert_eq!(snapshot.version, RuntimeSnapshot::FORMAT_VERSION);
    assert_eq!(snapshot.cursor, 10);
    assert!(snapshot.maintainer.failed.iter().any(|&f| f), "mid-failure");

    let mut resumed = Runtime::restore(snapshot.clone(), &trace).unwrap();
    resumed.check_invariants(true).unwrap();
    let config = snapshot.config.clone();
    let mut prefix = Runtime::from_trace(&trace, config.clone()).unwrap();
    for index in 0..10 {
        prefix.step(index, &trace.events[index]).unwrap();
    }
    assert_eq!(prefix.snapshot(), snapshot, "the fixture is this build's state at event 10");
    assert_eq!(prefix.maintainer(), resumed.maintainer());

    resumed.run(&trace).unwrap();
    let mut whole = Runtime::from_trace(&trace, config).unwrap();
    whole.run(&trace).unwrap();
    assert_eq!(whole.snapshot(), resumed.snapshot());
    assert_eq!(whole.maintainer(), resumed.maintainer());
    assert_eq!(
        serde_json::to_string(&whole.report_json(false)).unwrap(),
        serde_json::to_string(&resumed.report_json(false)).unwrap()
    );
}

#[test]
fn snapshots_store_no_derived_delay_state() {
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    for index in 0..2 {
        rt.step(index, &trace.events[index]).unwrap();
    }
    let json = rt.snapshot().to_json();
    for key in ["\"costs\"", "\"matrix\"", "\"dist\""] {
        assert!(!json.contains(key), "snapshot JSON carries derived {key}");
    }
    assert!(json.contains("\"parent_link\""));
}

// --- Typed-error contract: malformed inputs never panic. -----------------

/// A snapshot of the outage trace after its first event (server 0 down),
/// with `edit` applied to it; returns the restore error's reason.
fn restore_edited(edit: impl FnOnce(&mut RuntimeSnapshot)) -> String {
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    rt.step(0, &trace.events[0]).unwrap();
    let mut snapshot = rt.snapshot();
    edit(&mut snapshot);
    match Runtime::restore(snapshot, &trace) {
        Err(RuntimeError::InvalidSnapshot { reason }) => reason,
        Err(other) => panic!("expected InvalidSnapshot, got {other:?}"),
        Ok(_) => panic!("a malformed maintainer restored"),
    }
}

#[test]
fn short_maintainer_vectors_are_typed_errors() {
    let reason = restore_edited(|s| {
        s.maintainer.failed.pop();
    });
    assert!(reason.contains("failed has 2 entries, expected 3"), "got: {reason}");
    let reason = restore_edited(|s| s.maintainer.trees.truncate(1));
    assert!(reason.contains("trees has 1 entries, expected 3"), "got: {reason}");
    let reason = restore_edited(|s| s.maintainer.base_costs.truncate(4));
    assert!(reason.contains("base_costs has 4 entries"), "got: {reason}");
}

#[test]
fn cyclic_parent_links_are_a_typed_error() {
    let reason = restore_edited(|s| {
        // Point both ends of a link away from the source at each other.
        let graph = s.topology.graph();
        let tree = &mut s.maintainer.trees[1];
        let (link, a, b) = (0..graph.link_count())
            .map(|i| graph.link_id(i))
            .map(|id| (id, graph.link(id).a(), graph.link(id).b()))
            .find(|&(_, a, b)| a != tree.source && b != tree.source)
            .expect("a link off the source");
        tree.parent_link[a.index()] = Some(link);
        tree.parent_link[b.index()] = Some(link);
    });
    assert!(reason.contains("tree 1") && reason.contains("cycle"), "got: {reason}");
}

#[test]
fn non_incident_parent_links_are_a_typed_error() {
    let reason = restore_edited(|s| {
        let graph = s.topology.graph();
        let tree = &mut s.maintainer.trees[2];
        let node = (0..tree.parent_link.len())
            .find(|&v| tree.parent_link[v].is_some())
            .expect("a reached node");
        let stranger = (0..graph.link_count())
            .map(|i| graph.link_id(i))
            .find(|&id| graph.link(id).a().index() != node && graph.link(id).b().index() != node)
            .expect("a link elsewhere");
        tree.parent_link[node] = Some(stranger);
    });
    assert!(reason.contains("tree 2") && reason.contains("does not lead"), "got: {reason}");
}

#[test]
fn malformed_snapshot_json_is_a_typed_error() {
    let err = RuntimeSnapshot::from_json("{\"version\": ").unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidSnapshot { .. }), "got {err:?}");
    assert!(err.to_string().contains("malformed JSON"));
}

#[test]
fn old_snapshot_version_is_diagnosed_by_version_not_shape() {
    let err = RuntimeSnapshot::from_json("{\"version\": 1}").unwrap_err();
    let RuntimeError::InvalidSnapshot { reason } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("version 1"), "got: {reason}");
    assert!(!reason.contains("missing field"), "version check fires before shape: {reason}");
}

#[test]
fn malformed_trace_json_is_a_typed_error() {
    let err = Trace::from_json("not json at all").unwrap_err();
    assert!(err.to_string().contains("trace JSON"));
    // A structurally complete trace with an unknown format version is
    // rejected by the version check, not a panic.
    let mut future = total_outage_trace();
    future.version = 99;
    let err = Trace::from_json(&future.to_json()).unwrap_err();
    assert!(err.to_string().contains("version 99"), "got: {err}");
}

#[test]
fn snapshot_against_the_wrong_trace_is_a_typed_error() {
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    rt.run(&trace).unwrap();
    let snapshot = rt.snapshot();

    let other = Trace {
        version: Trace::FORMAT_VERSION,
        scenario: TraceScenario { seed: 77, ..scenario() },
        events: Vec::new(),
    };
    let err = Runtime::restore(snapshot, &other).unwrap_err();
    let RuntimeError::InvalidSnapshot { reason } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("scenario does not match"), "got: {reason}");
}

#[test]
fn snapshot_cursor_past_the_trace_is_a_typed_error() {
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    rt.run(&trace).unwrap();
    let snapshot = rt.snapshot();

    let mut truncated = trace.clone();
    truncated.events.truncate(2);
    let err = Runtime::restore(snapshot, &truncated).unwrap_err();
    let RuntimeError::InvalidSnapshot { reason } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("cursor"), "got: {reason}");
}

#[test]
fn invariant_violations_are_typed_not_panics() {
    // Hand-corrupt a snapshot's unreachable set so the restored runtime
    // fails conservation — check_invariants must return the typed error.
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    for index in 0..3 {
        rt.step(index, &trace.events[index]).unwrap();
    }
    let mut snapshot = rt.snapshot();
    snapshot.unreachable[0] = false; // device 0 is in fact unreachable
    let corrupted = Runtime::restore(snapshot, &trace).unwrap();
    let err = corrupted.check_invariants(false).unwrap_err();
    let RuntimeError::Invariant { reason, .. } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("unreachable flag"), "got: {reason}");
}
