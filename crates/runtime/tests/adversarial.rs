//! Adversarial regression tests for the runtime: hand-written traces
//! that fail the last alive server, snapshot/restore under in-flight
//! degradation, a committed snapshot taken mid-failure, and the
//! typed-error contract on every malformed-input path (no panics, ever).

use std::path::PathBuf;

use serde_json::Value;
use tacc_runtime::{DeviceState, Runtime, RuntimeConfig, RuntimeError, RuntimeSnapshot};
use tacc_topology::Topology;
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
    assert_eq!(whole.topology(), resumed.topology(), "and the rebuilt topology");
    assert_eq!(unreachable_set(&whole), unreachable_set(&resumed));
    assert_eq!(
        serde_json::to_string(&whole.report_json(false)).unwrap(),
        serde_json::to_string(&resumed.report_json(false)).unwrap()
    );
}

fn unreachable_set(rt: &Runtime) -> Vec<bool> {
    (0..rt.cluster().instance().num_devices()).map(|d| rt.is_unreachable(d)).collect()
}

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn a_committed_snapshot_taken_mid_failure_restores_exactly() {
    // Event 10 of the 20 × 4 trace, after drifts and two server
    // failures: the stored latencies and parent links must rebuild the
    // topology and the delay state, and the resumed run must end exactly
    // where an uninterrupted one does.
    let trace = Trace::from_json(&fixture("trace-20x4.json")).unwrap();
    let snapshot = RuntimeSnapshot::from_json(&fixture("snapshot-v3-20x4.json")).unwrap();
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
    assert_eq!(prefix.topology(), resumed.topology());
    assert_eq!(unreachable_set(&prefix), unreachable_set(&resumed));

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
    for key in [
        "costs",
        "matrix",
        "dist",
        "topology",
        "base_costs",
        "disabled",
        "model",
        "source",
        "unreachable",
    ] {
        assert!(!json.contains(&format!("\"{key}\"")), "snapshot JSON carries derived {key}");
    }
    let keys = |value: &Value| match value {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("expected an object, got {other:?}"),
    };
    let value: Value = serde_json::from_str(&json).unwrap();
    assert_eq!(
        keys(&value),
        [
            "version",
            "scenario",
            "config",
            "link_latency_ms",
            "maintainer",
            "assignment",
            "wanted",
            "migrations",
            "cursor",
            "metrics"
        ]
    );
    assert_eq!(keys(value.get("maintainer").unwrap()), ["trees", "failed", "baseline"]);
}

// --- Typed-error contract: malformed inputs never panic. -----------------

/// A snapshot of the outage trace after its first event (server 0 down),
/// with `edit` applied to it (given the runtime's topology); returns the
/// restore error's reason.
fn restore_edited(edit: impl FnOnce(&mut RuntimeSnapshot, &Topology)) -> String {
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    rt.step(0, &trace.events[0]).unwrap();
    let mut snapshot = rt.snapshot();
    edit(&mut snapshot, rt.topology());
    match Runtime::restore(snapshot, &trace) {
        Err(RuntimeError::InvalidSnapshot { reason }) => reason,
        Err(other) => panic!("expected InvalidSnapshot, got {other:?}"),
        Ok(_) => panic!("a malformed snapshot restored"),
    }
}

#[test]
fn short_maintainer_vectors_are_typed_errors() {
    let reason = restore_edited(|s, _| {
        s.maintainer.failed.pop();
    });
    assert!(reason.contains("failed has 2 entries, expected 3"), "got: {reason}");
    let reason = restore_edited(|s, _| s.maintainer.trees.truncate(1));
    assert!(reason.contains("trees has 1 entries, expected 3"), "got: {reason}");
    let reason = restore_edited(|s, _| s.link_latency_ms.truncate(4));
    assert!(reason.contains("has 4 link latencies for"), "got: {reason}");
}

#[test]
fn cyclic_parent_links_are_a_typed_error() {
    let reason = restore_edited(|s, topology| {
        // Point both ends of a link away from the source at each other.
        let (graph, source) = (topology.graph(), topology.server_nodes()[1]);
        let tree = &mut s.maintainer.trees[1];
        let (link, a, b) = (0..graph.link_count())
            .map(|i| graph.link_id(i))
            .map(|id| (id, graph.link(id).a(), graph.link(id).b()))
            .find(|&(_, a, b)| a != source && b != source)
            .expect("a link off the source");
        tree[a.index()] = Some(link);
        tree[b.index()] = Some(link);
    });
    assert!(reason.contains("tree 1") && reason.contains("cycle"), "got: {reason}");
}

#[test]
fn non_incident_parent_links_are_a_typed_error() {
    let reason = restore_edited(|s, topology| {
        let graph = topology.graph();
        let tree = &mut s.maintainer.trees[2];
        let node = (0..tree.len()).find(|&v| tree[v].is_some()).expect("a reached node");
        let stranger = (0..graph.link_count())
            .map(|i| graph.link_id(i))
            .find(|&id| graph.link(id).a().index() != node && graph.link(id).b().index() != node)
            .expect("a link elsewhere");
        tree[node] = Some(stranger);
    });
    assert!(reason.contains("tree 2") && reason.contains("does not lead"), "got: {reason}");
}

#[test]
fn non_finite_or_negative_link_latencies_are_typed_errors() {
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        let reason = restore_edited(|s, _| s.link_latency_ms[3] = bad);
        assert!(reason.contains("latency"), "{bad}: {reason}");
    }
}

#[test]
fn restored_priorities_must_be_finite_and_positive() {
    for bad in [0.0, -1.0] {
        let reason = restore_edited(|s, _| {
            s.config.priorities = vec![1.0; 18];
            s.config.priorities[4] = bad;
        });
        assert!(reason.contains("priorities must be finite and positive"), "{bad}: {reason}");
    }
}

#[test]
fn malformed_snapshot_json_is_a_typed_error() {
    let err = RuntimeSnapshot::from_json("{\"version\": ").unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidSnapshot { .. }), "got {err:?}");
    assert!(err.to_string().contains("malformed JSON"));
}

#[test]
fn old_snapshot_version_is_diagnosed_by_version_not_shape() {
    let err = RuntimeSnapshot::from_json("{\"version\": 2}").unwrap_err();
    let RuntimeError::InvalidSnapshot { reason } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("version 2") && reason.contains("reads 3"), "got: {reason}");
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
    // Hand-corrupt a snapshot's wanted set so the restored runtime
    // fails conservation (an assigned device that departed) —
    // check_invariants must return the typed error.
    let trace = total_outage_trace();
    let mut rt = Runtime::from_trace(&trace, RuntimeConfig::default()).unwrap();
    rt.step(0, &trace.events[0]).unwrap();
    let mut snapshot = rt.snapshot();
    let device = (0..18).find(|&d| rt.cluster().is_active(d)).expect("an assigned device");
    snapshot.wanted[device] = false;
    let corrupted = Runtime::restore(snapshot, &trace).unwrap();
    let err = corrupted.check_invariants(false).unwrap_err();
    let RuntimeError::Invariant { reason, .. } = &err else { panic!("got {err:?}") };
    assert!(reason.contains("assigned but departed"), "got: {reason}");
}
