//! Replication determinism: the standby's journal copy is byte-identical
//! to the primary's, and a promoted standby lands on the *same bytes* a
//! snapshot of the primary shows — across every topology family, any
//! shipping chunk size, and under duplicate re-ships.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use tacc_chaos::{Journal, JournalRecord};
use tacc_ha::{JournalTail, StandbyCore};
use tacc_proto::Response;
use tacc_runtime::RuntimeConfig;
use tacc_serve::{ServeConfig, ServeError, Session};
use tacc_workload::{TopologyFamily, Trace, TraceGenerator, TraceScenario};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacc-ha-repl-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn scripted_trace(family: TopologyFamily, seed: u64) -> Trace {
    let scenario = TraceScenario { family, num_iot: 16, num_servers: 3, load_factor: 0.6, seed };
    TraceGenerator::new(scenario).num_events(48).generate(seed ^ 0x5a).unwrap()
}

fn shell(trace: &Trace) -> Trace {
    Trace { events: Vec::new(), ..trace.clone() }
}

/// Drives a primary session and a standby core in-process: pushes the
/// trace in `chunk`-sized sequenced bursts, ships every newly journaled
/// line after each burst, promotes the standby at the end, and returns
/// `(primary snapshot, promoted snapshot, primary journal bytes,
/// standby journal bytes)`.
fn replicate_once(
    trace: &Trace,
    chunk: usize,
    dir: &Path,
    tag: &str,
) -> (String, String, Vec<u8>, Vec<u8>) {
    let primary_journal = dir.join(format!("primary-{tag}.jsonl"));
    let standby_journal = dir.join(format!("standby-{tag}.jsonl"));
    let primary_cfg =
        ServeConfig { journal: Some(primary_journal.clone()), ..ServeConfig::default() };
    let standby_cfg =
        ServeConfig { journal: Some(standby_journal.clone()), ..ServeConfig::default() };

    let mut primary = Session::start(shell(trace), RuntimeConfig::default(), &primary_cfg).unwrap();
    let mut tail = JournalTail::new(&primary_journal);
    let mut standby = StandbyCore::new(&standby_cfg).unwrap();

    let mut shipped = 0u64;
    for (seq, burst) in (((7u64 << 32) | 1)..).zip(trace.events.chunks(chunk.max(1))) {
        let response = primary.push(burst.to_vec(), seq).unwrap();
        assert!(matches!(response, Response::Accepted { .. }), "got {response:?}");
        let lines = tail.poll().unwrap();
        if !lines.is_empty() {
            shipped = standby.apply(shipped, &lines).unwrap();
        }
    }
    primary.flush().unwrap();
    let primary_snapshot = primary.snapshot_json().unwrap();
    let lines = tail.poll().unwrap();
    if !lines.is_empty() {
        shipped = standby.apply(shipped, &lines).unwrap();
    }
    // Compare the copies *before* promotion: promoting appends a
    // `Recovered` record to the standby's journal, as any recovery does.
    let primary_bytes = std::fs::read(&primary_journal).unwrap();
    let standby_bytes = std::fs::read(&standby_journal).unwrap();
    assert_eq!(standby.lines(), shipped);

    let mut promoted = standby.promote().unwrap();
    let promoted_snapshot = promoted.snapshot_json().unwrap();
    (primary_snapshot, promoted_snapshot, primary_bytes, standby_bytes)
}

#[test]
fn a_promoted_standby_is_byte_identical_across_every_family() {
    let dir = temp_dir("families");
    for (i, family) in TopologyFamily::ALL.into_iter().enumerate() {
        let trace = scripted_trace(family, 23 + i as u64);
        let (primary, promoted, _, _) = replicate_once(&trace, 12, &dir, &format!("fam{i}"));
        assert_eq!(promoted, primary, "family {family:?}: promoted snapshot diverged");

        // Same journal prefix ⇒ same bytes, run to run.
        let (primary2, promoted2, _, _) =
            replicate_once(&trace, 12, &dir, &format!("fam{i}-again"));
        assert_eq!(primary2, primary, "family {family:?}: primary snapshot not deterministic");
        assert_eq!(promoted2, promoted, "family {family:?}: replication not deterministic");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_reships_are_idempotent_and_gaps_are_typed() {
    let dir = temp_dir("idem");
    let trace = scripted_trace(TopologyFamily::RandomGeometric, 404);
    let journal = dir.join("primary.jsonl");
    let cfg = ServeConfig { journal: Some(journal.clone()), ..ServeConfig::default() };
    let standby_cfg =
        ServeConfig { journal: Some(dir.join("standby.jsonl")), ..ServeConfig::default() };

    let mut primary = Session::start(shell(&trace), RuntimeConfig::default(), &cfg).unwrap();
    primary.push(trace.events.clone(), 99).unwrap();
    primary.flush().unwrap();
    let mut tail = JournalTail::new(&journal);
    let lines = tail.poll().unwrap();
    assert!(lines.len() >= 3, "Begin + SessionScenario + events expected");

    let mut standby = StandbyCore::new(&standby_cfg).unwrap();
    let acked = standby.apply(0, &lines).unwrap();
    assert_eq!(acked, lines.len() as u64);

    // Re-shipping the identical batch (a retry after a lost ack) must
    // acknowledge without growing anything.
    assert_eq!(standby.apply(0, &lines).unwrap(), acked, "full re-ship must be a no-op");
    // A partial overlap applies only the unseen suffix — here: nothing.
    assert_eq!(standby.apply(acked - 1, &lines[lines.len() - 1..]).unwrap(), acked);
    // A gap is refused loudly, never papered over.
    let err = standby.apply(acked + 5, &lines).unwrap_err();
    assert!(err.to_string().contains("gap"), "gap must be a typed error, got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// CRC-valid journal lines for `records`, framed by a real journal
/// writer on a scratch file.
fn framed_lines(path: &Path, records: &[JournalRecord]) -> Vec<String> {
    let mut journal = Journal::create_raw(path).unwrap();
    journal.append_batch(records).unwrap();
    drop(journal);
    std::fs::read_to_string(path).unwrap().lines().map(str::to_owned).collect()
}

/// Ships `batch` twice (a refusal, then its re-ship) and asserts each
/// is refused typed with the cursor and the standby file untouched.
fn assert_refused(standby: &mut StandbyCore, file: &Path, base: u64, batch: &[String]) {
    let (lines, bytes) = (standby.lines(), std::fs::read(file).unwrap());
    for attempt in 0..2 {
        let err = standby.apply(base, batch).unwrap_err();
        assert!(matches!(err, ServeError::State { .. }), "attempt {attempt}: got {err:?}");
        assert_eq!(standby.lines(), lines, "attempt {attempt}: the cursor moved");
        let now = std::fs::read(file).unwrap();
        let count = |b: &[u8]| b.iter().filter(|&&c| c == b'\n').count();
        assert!(
            now == bytes,
            "attempt {attempt}: the file went from {} to {} lines",
            count(&bytes),
            count(&now)
        );
    }
}

#[test]
fn out_of_order_batches_are_refused_before_they_are_written() {
    let dir = temp_dir("order");
    let trace = scripted_trace(TopologyFamily::RandomGeometric, 77);
    let journal = dir.join("primary.jsonl");
    let standby_journal = dir.join("standby.jsonl");
    let cfg = ServeConfig { journal: Some(journal.clone()), ..ServeConfig::default() };
    let standby_cfg =
        ServeConfig { journal: Some(standby_journal.clone()), ..ServeConfig::default() };

    let mut primary = Session::start(shell(&trace), RuntimeConfig::default(), &cfg).unwrap();
    primary.push(trace.events.clone(), 5).unwrap();
    primary.flush().unwrap();
    let primary_snapshot = primary.snapshot_json().unwrap();
    let lines = JournalTail::new(&journal).poll().unwrap();
    let event = |index: usize| JournalRecord::Event {
        index: index as u64,
        timed: trace.events[index].clone(),
    };

    // An Event before the SessionScenario.
    let mut standby = StandbyCore::new(&standby_cfg).unwrap();
    let mut early = vec![lines[0].clone()];
    early.extend(framed_lines(&dir.join("early.jsonl"), &[event(0)]));
    early.push(lines[1].clone());
    assert_refused(&mut standby, &standby_journal, 0, &early);

    // A skipped Event index behind a valid one: the whole batch goes.
    assert_eq!(standby.apply(0, &lines[..2]).unwrap(), 2);
    let skipped = framed_lines(&dir.join("skipped.jsonl"), &[event(0), event(2)]);
    assert_refused(&mut standby, &standby_journal, 2, &skipped);

    // The correct batch still applies and promotes byte-identically.
    assert_eq!(standby.apply(2, &lines[2..]).unwrap(), lines.len() as u64);
    assert_eq!(std::fs::read(&standby_journal).unwrap(), std::fs::read(&journal).unwrap());
    let mut promoted = standby.promote().unwrap();
    assert_eq!(promoted.snapshot_json().unwrap(), primary_snapshot);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any (family, seed, chunking) ⇒ the promoted standby's snapshot
    /// equals the primary's and both journals hold identical bytes.
    #[test]
    fn replication_is_deterministic(
        family_idx in 0usize..6,
        seed in 0u64..1_000,
        chunk in 1usize..25,
    ) {
        let dir = temp_dir(&format!("prop-{family_idx}-{seed}-{chunk}"));
        let trace = scripted_trace(TopologyFamily::ALL[family_idx], seed);
        let (primary, promoted, pj, sj) = replicate_once(&trace, chunk, &dir, "prop");
        prop_assert_eq!(&promoted, &primary, "promoted snapshot diverged from the primary");
        prop_assert_eq!(pj, sj, "journal copies diverged");
        std::fs::remove_dir_all(&dir).ok();
    }
}
