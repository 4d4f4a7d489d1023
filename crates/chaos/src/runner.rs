//! The crash harness: journaled replays, hard kills at event
//! boundaries, recovery, and proof that the result is byte-identical to
//! an uninterrupted run.
//!
//! Four entry points, each writing the session journal
//! ([`Journal::create_session`], then one `Event` record per event plus
//! a `Snapshot` on the cadence, under one fsync per event) and each
//! recovering through [`recover`]:
//!
//! - [`run_with_crashes`] replays a trace with a simulated hard kill at
//!   every `crash_every`-th event boundary (the `tacc chaos
//!   --crash-every k` path), recovering from the journal each time, and
//!   reports survival statistics.
//! - [`kill_at_every_boundary`] is the exhaustive version: one kill at
//!   *each* boundary of the trace, each followed by recovery and
//!   completion — the acceptance gate for the crash-recovery contract.
//! - [`corrupt_and_recover_everywhere`] attacks the journal instead of
//!   the process: one flipped byte at every record offset, each proven
//!   detected and survivable — the acceptance gate for the CRC-framed
//!   journal format.
//! - [`truncate_and_recover`] cuts the journal at an arbitrary byte and
//!   proves the reopen path heals it.
//!
//! Every recovery requires the journal to be a prefix of the trace, then
//! steps the rest of the trace with the runtime's invariants checked
//! after every event (deep checks on the
//! [`tacc_runtime::check::DEEP_CHECK_EVERY`] cadence) regardless of the
//! `TACC_CHECK` environment switch, and compares the final deterministic
//! report *and* snapshot against an uninterrupted reference run. The
//! maximum transient overload must stay zero throughout.

use std::path::Path;

use serde_json::{json, Value};
use tacc_runtime::{InvariantChecker, Runtime, RuntimeConfig, RuntimeSnapshot};
use tacc_workload::Trace;

use crate::journal::{recover, Journal, JournalRecord, Recovery, RecoveryPolicy};
use crate::ChaosError;

/// How a journaled, crash-injected replay is driven.
#[derive(Debug, Clone)]
pub struct CrashPlan {
    /// The replay configuration (must match across crash and reference
    /// runs for the byte-identical comparison to be meaningful).
    pub config: RuntimeConfig,
    /// Kill the process image at every `crash_every`-th event boundary
    /// (`0` = never crash; the journal is still written).
    pub crash_every: u64,
    /// Journal a full snapshot every `snapshot_every` events (`0` = only
    /// the implicit fresh start; recovery then replays from the top).
    pub snapshot_every: u64,
}

impl Default for CrashPlan {
    /// Default config, a crash every 7 events, a snapshot every 5.
    fn default() -> Self {
        CrashPlan { config: RuntimeConfig::default(), crash_every: 7, snapshot_every: 5 }
    }
}

/// What a crash-injected replay survived.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Events in the trace (all were eventually processed).
    pub events: u64,
    /// Hard kills injected and recovered from.
    pub crashes: u64,
    /// Recoveries that restored from a journaled snapshot (the rest
    /// rebuilt from the trace top).
    pub snapshot_recoveries: u64,
    /// Events re-processed after recoveries (the replay tax of the
    /// snapshot cadence).
    pub replayed_events: u64,
    /// Worst transient overload observed at any event boundary, in
    /// demand units. The no-overload invariant requires `0.0`.
    pub max_overload: f64,
    /// Devices shed for capacity over the run.
    pub evictions: u64,
    /// Devices re-admitted over the run.
    pub readmissions: u64,
    /// Wanted devices that entered the unreachable state.
    pub unreachable_transitions: u64,
    /// Whether the final report and snapshot are byte-identical to the
    /// uninterrupted reference run.
    pub byte_identical: bool,
    /// Total delay of the final configuration, in milliseconds.
    pub final_delay_ms: f64,
    /// Actively served devices at the end of the run.
    pub final_active: usize,
}

impl ChaosReport {
    /// Deterministic JSON rendering (insertion-ordered keys).
    pub fn to_json(&self) -> Value {
        json!({
            "events": self.events,
            "crashes": self.crashes,
            "snapshot_recoveries": self.snapshot_recoveries,
            "replayed_events": self.replayed_events,
            "max_overload": self.max_overload,
            "evictions": self.evictions,
            "readmissions": self.readmissions,
            "unreachable_transitions": self.unreachable_transitions,
            "byte_identical": self.byte_identical,
            "final_delay_ms": self.final_delay_ms,
            "final_active": self.final_active
        })
    }
}

/// First-line defense shared by every harness entry point: the trace's
/// own structural validation, then the guard layer's quarantine pass
/// (which catches what serde lets through — NaN drift latencies,
/// out-of-range indices, backwards timestamps).
fn quarantine(trace: &Trace) -> Result<(), ChaosError> {
    trace.validate().map_err(ChaosError::Workload)?;
    tacc_guard::validate::validate_trace(trace)
        .gate(false)
        .map_err(|e| ChaosError::Quarantine { reason: e.to_string() })
}

/// A finished run's deterministic outcome: the report string and the
/// final snapshot.
type Outcome = (String, RuntimeSnapshot);

fn outcome(runtime: &Runtime) -> Outcome {
    let report =
        serde_json::to_string(&runtime.report_json(false)).expect("reports are serializable");
    (report, runtime.snapshot())
}

/// Steps `runtime` through the trace up to event `end`, checking its
/// invariants after every event, and returns the worst transient
/// overload seen.
fn step_checked(runtime: &mut Runtime, trace: &Trace, end: usize) -> Result<f64, ChaosError> {
    let checker = InvariantChecker::default();
    let mut max_overload = 0.0f64;
    while (runtime.cursor() as usize) < end {
        let index = runtime.cursor() as usize;
        runtime.step(index, &trace.events[index])?;
        max_overload = max_overload.max(runtime.max_overload());
        checker.check(runtime)?;
    }
    Ok(max_overload)
}

/// The uninterrupted reference outcome, plus the worst overload seen
/// along the way.
fn reference_run(trace: &Trace, config: &RuntimeConfig) -> Result<(Outcome, f64), ChaosError> {
    let mut runtime = Runtime::from_trace(trace, config.clone())?;
    let max_overload = step_checked(&mut runtime, trace, trace.events.len())?;
    Ok((outcome(&runtime), max_overload))
}

/// Journals the first `events` events of `trace` to a fresh journal at
/// `path`; returning drops the runtime and the journal handle, which is
/// the simulated hard kill.
fn journaled_run(
    trace: &Trace,
    config: &RuntimeConfig,
    snapshot_every: u64,
    path: &Path,
    events: usize,
) -> Result<(), ChaosError> {
    let mut journal = Journal::create_session(path, &trace.scenario, config)?;
    let mut runtime = Runtime::from_trace(trace, config.clone())?;
    for (index, timed) in trace.events[..events].iter().enumerate() {
        runtime.step(index, timed)?;
        journal.append_event(index, timed, &runtime, snapshot_every)?;
    }
    Ok(())
}

/// Recovers from the journal under `policy` and requires it to be a
/// prefix of `trace`.
fn recover_prefix(
    path: &Path,
    trace: &Trace,
    policy: RecoveryPolicy,
) -> Result<Recovery, ChaosError> {
    let recovery = recover(path, policy)?;
    recovery.require_prefix_of(trace)?;
    Ok(recovery)
}

/// Replays `trace` under `plan`, journaling to `journal_path`, simulating
/// a hard kill (drop the runtime and the journal handle mid-flight) at
/// every `crash_every`-th event boundary, and recovering from the journal
/// each time.
///
/// # Errors
///
/// Propagates journal I/O, recovery and runtime failures, and returns
/// [`ChaosError::Mismatch`] if any invariant is violated en route —
/// recovery divergence itself is *reported* (`byte_identical: false`)
/// rather than raised, so experiments can tabulate it.
pub fn run_with_crashes(
    trace: &Trace,
    plan: &CrashPlan,
    journal_path: &Path,
) -> Result<ChaosReport, ChaosError> {
    quarantine(trace)?;
    let (reference, reference_overload) = reference_run(trace, &plan.config)?;

    let checker = InvariantChecker::default();
    let total = trace.events.len() as u64;
    let mut journal = Journal::create_session(journal_path, &trace.scenario, &plan.config)?;
    let mut runtime = Runtime::from_trace(trace, plan.config.clone())?;
    let mut crashes = 0u64;
    let mut snapshot_recoveries = 0u64;
    let mut replayed_events = 0u64;
    let mut max_overload = reference_overload;
    // Absolute crash schedule: kill once at each multiple of
    // `crash_every`. Recovery resumes at the journal's end, so the run
    // always progresses past the last kill point.
    let mut next_crash = if plan.crash_every > 0 { plan.crash_every } else { u64::MAX };

    while runtime.cursor() < total {
        let index = runtime.cursor() as usize;
        runtime.step(index, &trace.events[index])?;
        journal.append_event(index, &trace.events[index], &runtime, plan.snapshot_every)?;
        max_overload = max_overload.max(runtime.max_overload());
        checker.check(&runtime)?;

        if runtime.cursor() >= next_crash && runtime.cursor() < total {
            // Simulated hard kill: both the runtime and the journal
            // handle vanish; only what was fsync'd survives.
            drop(runtime);
            drop(journal);
            let recovery = recover_prefix(journal_path, trace, RecoveryPolicy::Strict)?;
            if recovery.from_snapshot {
                snapshot_recoveries += 1;
            }
            let journaled = recovery.trace.events.len();
            runtime = recovery.runtime;
            replayed_events += journaled as u64 - runtime.cursor();
            max_overload = max_overload.max(step_checked(&mut runtime, trace, journaled)?);
            journal = Journal::open_append(journal_path)?;
            journal.append(&JournalRecord::Recovered { cursor: journaled as u64 })?;
            crashes += 1;
            next_crash += plan.crash_every;
        }
    }

    let byte_identical = outcome(&runtime) == reference;
    if max_overload > 1e-9 {
        return Err(ChaosError::Mismatch {
            reason: format!("transient overload of {max_overload} demand units"),
        });
    }
    let core = &runtime.metrics().core;
    Ok(ChaosReport {
        events: total,
        crashes,
        snapshot_recoveries,
        replayed_events,
        max_overload,
        evictions: core.evictions,
        readmissions: core.readmissions,
        unreachable_transitions: core.unreachable_transitions,
        byte_identical,
        final_delay_ms: runtime.cluster().total_delay(),
        final_active: runtime.cluster().active_count(),
    })
}

/// The exhaustive crash-recovery gate: for every boundary `c` in
/// `1..=events`, replay with a single hard kill after `c` events, recover
/// from the journal, finish the trace, and require the result to be
/// byte-identical to the uninterrupted run. Returns the number of
/// boundaries proven.
///
/// # Errors
///
/// Returns [`ChaosError::Mismatch`] naming the first boundary whose
/// journal did not hold exactly `c` events, whose recovered run diverged,
/// or that saw a transient overload, and propagates journal and runtime
/// failures.
pub fn kill_at_every_boundary(
    trace: &Trace,
    config: &RuntimeConfig,
    snapshot_every: u64,
    journal_path: &Path,
) -> Result<u64, ChaosError> {
    quarantine(trace)?;
    let (reference, _) = reference_run(trace, config)?;
    let total = trace.events.len();

    for crash_at in 1..=total {
        // Phase 1: run to the boundary, journaling, then "kill".
        journaled_run(trace, config, snapshot_every, journal_path, crash_at)?;

        // Phase 2: recover and finish.
        let recovery = recover_prefix(journal_path, trace, RecoveryPolicy::Strict)?;
        let journaled = recovery.trace.events.len();
        if journaled != crash_at {
            return Err(ChaosError::Mismatch {
                reason: format!("boundary {crash_at}: the journal holds {journaled} events"),
            });
        }
        let mut runtime = recovery.runtime;
        let overload = step_checked(&mut runtime, trace, total)?;
        if overload > 1e-9 {
            return Err(ChaosError::Mismatch {
                reason: format!(
                    "boundary {crash_at}: transient overload of {overload} demand units"
                ),
            });
        }
        if outcome(&runtime) != reference {
            return Err(ChaosError::Mismatch {
                reason: format!("boundary {crash_at}: recovered run diverged from reference"),
            });
        }
    }
    Ok(total as u64)
}

/// The exhaustive corruption gate: run the trace once fully journaled,
/// then for every journal record after the two header lines, flip one
/// byte of that line (deterministically: XOR `0x20` at offset
/// `line_no * 7 % len`) and prove that the damage is *detected* (strict
/// recovery rejects it; the final line counts as a torn tail instead),
/// that lenient recovery *reports* it, and that finishing the trace from
/// the lenient recovery is byte-identical to the uninterrupted reference
/// run. Returns the number of record offsets proven.
///
/// # Errors
///
/// Returns [`ChaosError::Mismatch`] naming the first line whose
/// corruption went undetected or whose recovered run diverged, and
/// propagates journal and runtime failures.
pub fn corrupt_and_recover_everywhere(
    trace: &Trace,
    config: &RuntimeConfig,
    snapshot_every: u64,
    journal_path: &Path,
) -> Result<u64, ChaosError> {
    quarantine(trace)?;
    let (reference, _) = reference_run(trace, config)?;

    // One complete journaled run; its bytes are the corruption corpus.
    journaled_run(trace, config, snapshot_every, journal_path, trace.events.len())?;
    let pristine =
        std::fs::read_to_string(journal_path).map_err(|e| ChaosError::io(journal_path, &e))?;
    let lines: Vec<&str> = pristine.lines().collect();

    let mut proven = 0u64;
    // The two header lines are exempt: damage there is fatal by design.
    for target in 2..lines.len() {
        // Rewrite the journal with one byte of line `target` flipped.
        let mut damaged = String::with_capacity(pristine.len());
        for (i, line) in lines.iter().enumerate() {
            if i == target {
                let mut bytes = line.as_bytes().to_vec();
                let offset = ((i + 1) * 7) % bytes.len();
                bytes[offset] ^= 0x20;
                damaged.push_str(&String::from_utf8_lossy(&bytes));
            } else {
                damaged.push_str(line);
            }
            damaged.push('\n');
        }
        std::fs::write(journal_path, &damaged).map_err(|e| ChaosError::io(journal_path, &e))?;

        let line_no = target + 1;
        // Detection: strict recovery must reject mid-file damage (the
        // final line is reported as a torn tail instead).
        let strict = recover(journal_path, RecoveryPolicy::Strict);
        let is_tail = target + 1 == lines.len();
        match (&strict, is_tail) {
            (Err(ChaosError::Journal { .. }), false) | (Ok(_), true) => {}
            (other, _) => {
                return Err(ChaosError::Mismatch {
                    reason: format!(
                        "line {line_no}: corruption not detected as expected (strict: {})",
                        match other {
                            Ok(_) => "accepted".to_owned(),
                            Err(e) => format!("{e}"),
                        }
                    ),
                });
            }
        }

        // Reporting + completion: lenient recovery must name the damage
        // and still finish the trace byte-identically.
        let recovery = recover_prefix(journal_path, trace, RecoveryPolicy::Lenient)?;
        let reported = recovery.torn_tail || recovery.corrupt_records == vec![line_no];
        if !reported {
            return Err(ChaosError::Mismatch {
                reason: format!(
                    "line {line_no}: lenient recovery did not report the damage \
                     (torn_tail={}, corrupt={:?})",
                    recovery.torn_tail, recovery.corrupt_records
                ),
            });
        }
        let mut runtime = recovery.runtime;
        step_checked(&mut runtime, trace, trace.events.len())?;
        if outcome(&runtime) != reference {
            return Err(ChaosError::Mismatch {
                reason: format!("line {line_no}: recovery from corruption diverged from reference"),
            });
        }
        proven += 1;
    }

    // Restore the pristine journal so the caller can inspect it.
    std::fs::write(journal_path, &pristine).map_err(|e| ChaosError::io(journal_path, &e))?;
    Ok(proven)
}

/// The ENOSPC/short-write gate: run the trace once fully journaled, cut
/// the journal file at an arbitrary byte offset — mid-record, mid-frame,
/// wherever `at_byte` lands — and prove the reopen path heals it: a
/// torn tail is truncated to the last intact record boundary by
/// [`Journal::open_append`], strict recovery accepts the healed journal,
/// and finishing the trace from it is byte-identical to the
/// uninterrupted reference. Returns the number of intact journal lines
/// that survived the cut. The pristine journal is restored afterwards.
///
/// # Errors
///
/// Returns [`ChaosError::Journal`] when `at_byte` cuts into the two
/// header lines (nothing can be trusted without them — recovery *must*
/// fail, so there is nothing to prove), [`ChaosError::Mismatch`] when the
/// healed run diverges from the reference, and propagates journal and
/// runtime failures.
pub fn truncate_and_recover(
    trace: &Trace,
    config: &RuntimeConfig,
    snapshot_every: u64,
    journal_path: &Path,
    at_byte: u64,
) -> Result<u64, ChaosError> {
    quarantine(trace)?;
    let (reference, _) = reference_run(trace, config)?;

    // One complete journaled run; its bytes are the damage corpus.
    journaled_run(trace, config, snapshot_every, journal_path, trace.events.len())?;
    let pristine = std::fs::read(journal_path).map_err(|e| ChaosError::io(journal_path, &e))?;

    // The cut: everything past `at_byte` is gone, exactly what ENOSPC or
    // a short write leaves behind.
    let cut = usize::try_from(at_byte).unwrap_or(usize::MAX).min(pristine.len());
    std::fs::write(journal_path, &pristine[..cut]).map_err(|e| ChaosError::io(journal_path, &e))?;

    let healed = (|| {
        // Healing: reopening truncates the torn tail to an intact record
        // boundary, after which strict recovery accepts the journal — or,
        // for a cut into the header, refuses it typed...
        drop(Journal::open_append(journal_path)?);
        let surviving = crate::journal::journal_line_count(journal_path)?;
        let recovery = recover_prefix(journal_path, trace, RecoveryPolicy::Strict)?;
        if recovery.torn_tail || !recovery.corrupt_records.is_empty() {
            return Err(ChaosError::Mismatch {
                reason: format!(
                    "cut at byte {at_byte}: reopen left damage behind \
                     (torn_tail={}, corrupt={:?})",
                    recovery.torn_tail, recovery.corrupt_records
                ),
            });
        }

        // ...and finishing the trace reproduces the reference exactly.
        let mut runtime = recovery.runtime;
        step_checked(&mut runtime, trace, trace.events.len())?;
        if outcome(&runtime) != reference {
            return Err(ChaosError::Mismatch {
                reason: format!("cut at byte {at_byte}: healed run diverged from reference"),
            });
        }
        Ok(surviving)
    })();

    // Restore the pristine journal so the caller can inspect it.
    std::fs::write(journal_path, &pristine).map_err(|e| ChaosError::io(journal_path, &e))?;
    healed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosGenerator, ChaosProfile};
    use tacc_workload::TraceScenario;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tacc-runner-test-{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn crash_injected_replay_is_byte_identical() {
        let scenario = TraceScenario { num_iot: 16, num_servers: 4, ..TraceScenario::default() };
        let trace =
            ChaosGenerator::new(scenario, ChaosProfile::Mixed).num_events(40).generate(11).unwrap();
        let path = temp_path("mixed");
        let report = run_with_crashes(&trace, &CrashPlan::default(), &path).unwrap();
        assert!(report.byte_identical, "recovery must reproduce the reference run");
        assert!(report.crashes > 0, "the plan schedules crashes");
        assert!(report.max_overload <= 1e-9);
        assert_eq!(report.events, 40);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_crash_plan_still_journals_and_matches() {
        let scenario = TraceScenario { num_iot: 12, num_servers: 3, ..TraceScenario::default() };
        let trace = ChaosGenerator::new(scenario, ChaosProfile::Flapping)
            .num_events(25)
            .generate(4)
            .unwrap();
        let path = temp_path("nocrash");
        let plan = CrashPlan { crash_every: 0, ..CrashPlan::default() };
        let report = run_with_crashes(&trace, &plan, &path).unwrap();
        assert_eq!(report.crashes, 0);
        assert!(report.byte_identical);
        // The journal is complete and recoverable even without crashes.
        let recovery = recover(&path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(recovery.trace.events, trace.events, "every event is journaled");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_gate_proves_every_record_offset() {
        let scenario = TraceScenario { num_iot: 10, num_servers: 3, ..TraceScenario::default() };
        let trace =
            ChaosGenerator::new(scenario, ChaosProfile::Mixed).num_events(12).generate(21).unwrap();
        let path = temp_path("corrupt-gate");
        let proven =
            corrupt_and_recover_everywhere(&trace, &RuntimeConfig::default(), 4, &path).unwrap();
        // 12 events + 3 snapshots (after events 4, 8, 12); the two
        // header lines are exempt.
        assert_eq!(proven, 15);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_gate_heals_any_cut_past_the_header() {
        let scenario = TraceScenario { num_iot: 10, num_servers: 3, ..TraceScenario::default() };
        let trace =
            ChaosGenerator::new(scenario, ChaosProfile::Mixed).num_events(12).generate(21).unwrap();
        let path = temp_path("truncate-gate");
        let config = RuntimeConfig::default();

        // Build the corpus once to learn its size, then cut at a spread
        // of offsets: record boundaries, mid-record, mid-frame, past EOF.
        truncate_and_recover(&trace, &config, 4, &path, u64::MAX).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let newlines: Vec<u64> =
            (0..pristine.len()).filter(|&i| pristine[i] == b'\n').map(|i| i as u64 + 1).collect();
        let (begin_end, header_end) = (newlines[0], newlines[1]);
        let len = pristine.len() as u64;
        for at_byte in [header_end, header_end + 3, len / 2, len - 1, len, len + 100] {
            let surviving = truncate_and_recover(&trace, &config, 4, &path, at_byte).unwrap();
            assert!(surviving >= 2, "cut at {at_byte}: the header always survives");
        }

        // Cutting into the header itself is typed, not provable.
        for at_byte in [0, begin_end - 1, begin_end, header_end - 1] {
            let err = truncate_and_recover(&trace, &config, 4, &path, at_byte).unwrap_err();
            assert!(matches!(err, ChaosError::Journal { .. }), "cut at {at_byte}: got {err:?}");
        }
        assert_eq!(std::fs::read(&path).unwrap(), pristine, "the pristine journal is restored");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_runner_quarantines_malformed_traces() {
        let scenario = TraceScenario { num_iot: 10, num_servers: 3, ..TraceScenario::default() };
        let mut trace =
            ChaosGenerator::new(scenario, ChaosProfile::Mixed).num_events(8).generate(5).unwrap();
        // Smuggle in a NaN load factor: `Trace::validate` only checks the
        // event stream, so only the guard quarantine sees it — and a NaN
        // factor would otherwise poison every derived server capacity.
        trace.scenario.load_factor = f64::NAN;
        let path = temp_path("quarantine");
        let err = run_with_crashes(&trace, &CrashPlan::default(), &path).unwrap_err();
        assert!(matches!(err, ChaosError::Quarantine { .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_json_is_ordered_and_complete() {
        let report = ChaosReport {
            events: 10,
            crashes: 2,
            snapshot_recoveries: 1,
            replayed_events: 3,
            max_overload: 0.0,
            evictions: 4,
            readmissions: 4,
            unreachable_transitions: 5,
            byte_identical: true,
            final_delay_ms: 123.5,
            final_active: 9,
        };
        let text = serde_json::to_string(&report.to_json()).unwrap();
        assert!(text.starts_with("{\"events\":10,\"crashes\":2"));
        assert!(text.contains("\"byte_identical\":true"));
    }
}
