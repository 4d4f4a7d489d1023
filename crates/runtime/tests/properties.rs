//! Property-based tests of the online runtime.
//!
//! Invariants:
//! - Incremental delay maintenance is bit-for-bit equal to a full
//!   recompute after *any* generated event sequence, on every topology
//!   family.
//! - Interrupting a replay with snapshot → JSON → restore at any cut
//!   point changes nothing: the resumed run ends byte-identical to an
//!   uninterrupted one.
//! - Traces survive a JSON round trip unchanged.

use proptest::prelude::*;

use tacc_runtime::{Runtime, RuntimeConfig, RuntimeSnapshot};
use tacc_workload::{TopologyFamily, Trace, TraceGenerator, TraceScenario};

/// Strategy producing a small trace on a random topology family, plus a
/// cut fraction for interruption tests.
fn trace_and_cut() -> impl Strategy<Value = (Trace, f64)> {
    (
        0usize..TopologyFamily::ALL.len(),
        10usize..=25,
        3usize..=6,
        0u64..1000,
        20usize..=60,
        0.0f64..1.0,
    )
        .prop_map(|(family, num_iot, num_servers, seed, num_events, cut)| {
            let scenario = TraceScenario {
                family: TopologyFamily::ALL[family],
                num_iot,
                num_servers,
                load_factor: 0.7,
                seed,
            };
            let trace = TraceGenerator::new(scenario)
                .num_events(num_events)
                .generate(seed)
                .expect("generated traces are valid");
            (trace, cut)
        })
}

fn deterministic_report(runtime: &Runtime) -> String {
    serde_json::to_string(&runtime.report_json(false)).expect("report serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every event sequence, the incrementally maintained matrix
    /// equals a from-scratch recompute on the degraded topology.
    #[test]
    fn incremental_equals_full_recompute((trace, _) in trace_and_cut()) {
        let mut a = Runtime::from_trace(&trace, RuntimeConfig::default()).expect("runtime");
        a.run(&trace).expect("replay");
        prop_assert!(
            a.maintainer().matches_full_recompute(a.topology()),
            "incremental matrix diverged from full recompute"
        );
    }

    /// Snapshot → JSON → restore at any cut point, then finishing the
    /// trace, is indistinguishable from never having been interrupted.
    #[test]
    fn snapshot_restore_is_transparent((trace, cut) in trace_and_cut()) {
        let config = RuntimeConfig { refresh_every: Some(16), ..RuntimeConfig::default() };

        let mut whole = Runtime::from_trace(&trace, config.clone()).expect("runtime");
        whole.run(&trace).expect("replay");

        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut_at = ((trace.events.len() as f64) * cut) as usize;
        let mut first = Runtime::from_trace(&trace, config).expect("runtime");
        for index in 0..cut_at {
            first.step(index, &trace.events[index]).expect("replay");
        }
        let json = first.snapshot().to_json();
        let snapshot = RuntimeSnapshot::from_json(&json).expect("snapshot parses back");
        let mut resumed = Runtime::restore(snapshot, &trace).expect("restore");
        resumed.run(&trace).expect("resume replay");

        prop_assert_eq!(deterministic_report(&whole), deterministic_report(&resumed));
        prop_assert_eq!(whole.snapshot(), resumed.snapshot());
        // The snapshot holds no derived state; compare that too.
        prop_assert_eq!(whole.maintainer(), resumed.maintainer());
        prop_assert_eq!(whole.topology(), resumed.topology());
        let n = whole.cluster().instance().num_devices();
        for d in 0..n {
            prop_assert_eq!(whole.is_unreachable(d), resumed.is_unreachable(d), "device {}", d);
        }
    }

    /// Traces are stable under JSON round trips.
    #[test]
    fn trace_json_round_trip((trace, _) in trace_and_cut()) {
        let back = Trace::from_json(&trace.to_json()).expect("round trip parses");
        prop_assert_eq!(trace, back);
    }
}
