//! The runtime's transition counters are bookkeeping along the code
//! paths that move devices; this test recomputes them from the ground
//! truth instead — the device-state sequence observed at every event
//! boundary (the same boundaries the crash journal's `Event` records
//! delimit) — and demands exact agreement after every event.
//!
//! Recount rules, per event, from the per-device state diff:
//!
//! - migration: `Assigned(a) → Assigned(b)` with `a ≠ b`
//! - eviction: `Assigned → Shed`, plus a joining device that ends `Shed`
//!   (the last-resort self-shed leaves no `Assigned →` edge to see)
//! - readmission: `Shed|Unreachable → Assigned`, minus a joining device
//!   placed by the join itself (that is a placement, not a readmission)
//! - unreachable transition: `anything-else → Unreachable`
//!
//! The config pins `migration_budget: 1` because the recount reads *net*
//! per-event diffs: a budget ≥ 2 lets one rebalance pass move the same
//! device twice (a second move becomes profitable after another move
//! frees capacity), which a net diff collapses into one hop.

use tacc_chaos::{ChaosGenerator, ChaosProfile};
use tacc_runtime::{DeviceState, Runtime, RuntimeConfig};
use tacc_workload::{TraceEvent, TraceScenario};

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Recount {
    migrations: u64,
    evictions: u64,
    readmissions: u64,
    unreachable_transitions: u64,
}

fn states(runtime: &Runtime, n: usize) -> Vec<DeviceState> {
    (0..n).map(|d| runtime.device_state(d)).collect()
}

/// Replays `trace` one event at a time, recounting every transition from
/// state diffs and asserting the runtime's counters match after each
/// event. Returns the final tally.
fn replay_and_recount(trace: &tacc_workload::Trace, config: RuntimeConfig, label: &str) -> Recount {
    let mut runtime = Runtime::from_trace(trace, config).unwrap();
    let n = runtime.cluster().instance().num_devices();
    let mut prev = states(&runtime, n);
    let mut want = Recount::default();

    for (index, timed) in trace.events.iter().enumerate() {
        runtime.step(index, timed).unwrap();
        let next = states(&runtime, n);

        for d in 0..n {
            match (prev[d], next[d]) {
                (DeviceState::Assigned(a), DeviceState::Assigned(b)) if a != b => {
                    want.migrations += 1;
                }
                (DeviceState::Assigned(_), DeviceState::Shed) => want.evictions += 1,
                (DeviceState::Shed | DeviceState::Unreachable, DeviceState::Assigned(_)) => {
                    want.readmissions += 1;
                }
                _ => {}
            }
            if !matches!(prev[d], DeviceState::Unreachable)
                && matches!(next[d], DeviceState::Unreachable)
            {
                want.unreachable_transitions += 1;
            }
        }

        // A join is the one event whose target device transitions without
        // the generic edges above meaning what they usually mean.
        if let TraceEvent::DeviceJoin { device } = timed.event {
            if !matches!(prev[device], DeviceState::Assigned(_)) {
                match next[device] {
                    DeviceState::Shed => want.evictions += 1,
                    DeviceState::Assigned(_)
                        if matches!(prev[device], DeviceState::Shed | DeviceState::Unreachable) =>
                    {
                        want.readmissions -= 1;
                    }
                    _ => {}
                }
            }
        }

        let core = &runtime.metrics().core;
        let got = Recount {
            migrations: core.migrations,
            evictions: core.evictions,
            readmissions: core.readmissions,
            unreachable_transitions: core.unreachable_transitions,
        };
        assert_eq!(got, want, "{label}: counters diverged after event {index} ({:?})", timed.event);
        prev = next;
    }

    let core = &runtime.metrics().core;
    assert_eq!(
        core.shed_devices.len() as u64,
        core.evictions,
        "{label}: every eviction logs exactly one shed device"
    );
    want
}

#[test]
fn counters_match_the_event_boundary_state_diffs_on_every_chaos_profile() {
    let scenario = TraceScenario { num_iot: 16, num_servers: 4, ..TraceScenario::default() };
    let config = RuntimeConfig { migration_budget: 1, ..RuntimeConfig::default() };
    let mut total = Recount::default();
    for profile in ChaosProfile::ALL {
        let trace = ChaosGenerator::new(scenario.clone(), profile)
            .num_events(60)
            .generate(17)
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
        let tally = replay_and_recount(&trace, config.clone(), profile.name());
        total.migrations += tally.migrations;
        total.evictions += tally.evictions;
        total.readmissions += tally.readmissions;
        total.unreachable_transitions += tally.unreachable_transitions;
    }
    // The sweep must actually exercise every counter, or the equalities
    // above prove nothing.
    assert!(total.migrations > 0, "no chaos profile caused a migration");
    assert!(total.evictions > 0, "no chaos profile caused an eviction");
    assert!(total.readmissions > 0, "no chaos profile caused a readmission");
    assert!(total.unreachable_transitions > 0, "no chaos profile stranded a device");
}

#[test]
fn counters_match_under_priority_driven_victim_shedding() {
    // Distinct priorities enable the degraded placement path: a joining
    // or evacuating high-priority device sheds strictly-lower-priority
    // victims. Those evictions are `Assigned → Shed` edges like any
    // other, and the recount must still balance exactly.
    let scenario = TraceScenario {
        num_iot: 14,
        num_servers: 3,
        load_factor: 0.9,
        seed: 2,
        ..TraceScenario::default()
    };
    let priorities: Vec<f64> = (0..14).map(|d| 1.0 + (d % 7) as f64).collect();
    let config = RuntimeConfig { migration_budget: 1, priorities, ..RuntimeConfig::default() };
    for seed in [1u64, 29] {
        let trace = ChaosGenerator::new(scenario.clone(), ChaosProfile::Mixed)
            .num_events(80)
            .generate(seed)
            .unwrap();
        replay_and_recount(&trace, config.clone(), &format!("priorities/seed {seed}"));
    }
}
