//! The crash-recovery acceptance gate: a hard kill at *every* event
//! boundary, on every topology family, must recover byte-identically —
//! with the runtime's invariants verified after every event and zero
//! transient overload throughout.

use tacc_chaos::{
    corrupt_and_recover_everywhere, kill_at_every_boundary, recover, run_with_crashes,
    ChaosGenerator, ChaosProfile, CrashPlan, RecoveryPolicy,
};
use tacc_runtime::RuntimeConfig;
use tacc_workload::{TopologyFamily, TraceScenario};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tacc-crash-test-{name}-{}.jsonl", std::process::id()))
}

#[test]
fn kill_at_every_boundary_passes_on_all_topology_families() {
    for family in TopologyFamily::ALL {
        let scenario =
            TraceScenario { family, num_iot: 12, num_servers: 3, load_factor: 0.7, seed: 5 };
        let trace = ChaosGenerator::new(scenario, ChaosProfile::Mixed)
            .num_events(24)
            .generate(13)
            .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        let path = temp_path(family.name());
        let boundaries = kill_at_every_boundary(&trace, &RuntimeConfig::default(), 4, &path)
            .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        assert_eq!(boundaries, 24, "{}: every boundary proven", family.name());
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn every_chaos_profile_survives_crash_injection() {
    let scenario = TraceScenario { num_iot: 16, num_servers: 4, ..TraceScenario::default() };
    for profile in ChaosProfile::ALL {
        let trace = ChaosGenerator::new(scenario.clone(), profile)
            .num_events(50)
            .generate(21)
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
        let path = temp_path(profile.name());
        let plan = CrashPlan { crash_every: 9, snapshot_every: 6, ..CrashPlan::default() };
        let report = run_with_crashes(&trace, &plan, &path)
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
        assert!(report.byte_identical, "{}: recovery diverged", profile.name());
        assert!(report.crashes > 0, "{}: the plan schedules crashes", profile.name());
        assert!(
            report.max_overload <= 1e-9,
            "{}: overload {}",
            profile.name(),
            report.max_overload
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn partition_schedule_strands_and_recovers_the_whole_fleet() {
    let scenario = TraceScenario { num_iot: 16, num_servers: 4, ..TraceScenario::default() };
    let trace =
        ChaosGenerator::new(scenario, ChaosProfile::Partition).num_events(60).generate(3).unwrap();
    let path = temp_path("partition-e2e");
    let report = run_with_crashes(&trace, &CrashPlan::default(), &path).unwrap();
    assert!(report.byte_identical);
    assert!(
        report.unreachable_transitions > 0,
        "a full partition must strand devices as unreachable"
    );
    assert!(report.readmissions > 0, "healing must re-admit the fleet");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corruption_at_every_record_offset_is_detected_and_survived() {
    // The journal-integrity twin of the kill gate: one flipped byte at
    // every record offset must be detected (CRC or parse failure), be
    // reported by lenient recovery, and still complete byte-identically.
    for profile in [ChaosProfile::Mixed, ChaosProfile::Partition] {
        let scenario = TraceScenario { num_iot: 14, num_servers: 4, ..TraceScenario::default() };
        let trace = ChaosGenerator::new(scenario, profile)
            .num_events(20)
            .generate(17)
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
        let path = temp_path(&format!("corrupt-{}", profile.name()));
        let proven = corrupt_and_recover_everywhere(&trace, &RuntimeConfig::default(), 5, &path)
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
        // 20 events + 4 snapshots; the two header lines are exempt.
        assert_eq!(proven, 24, "{}: every record offset proven", profile.name());
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_recovered_journal_can_recover_again() {
    // Recovery is idempotent: after a crash-riddled run completes, the
    // journal still recovers to a runtime whose remaining work is empty.
    let scenario = TraceScenario { num_iot: 12, num_servers: 3, ..TraceScenario::default() };
    let trace = ChaosGenerator::new(scenario, ChaosProfile::CorrelatedFailures)
        .num_events(30)
        .generate(8)
        .unwrap();
    let path = temp_path("re-recover");
    let plan = CrashPlan { crash_every: 7, snapshot_every: 5, ..CrashPlan::default() };
    let report = run_with_crashes(&trace, &plan, &path).unwrap();
    assert!(report.byte_identical);
    let recovery = recover(&path, RecoveryPolicy::Strict).unwrap();
    assert_eq!(recovery.trace.events, trace.events, "all events are durable");
    assert!(recovery.from_snapshot);
    assert_eq!(recovery.runtime.cursor(), 30, "the last snapshot lands on the final event");
    std::fs::remove_file(&path).ok();
}
