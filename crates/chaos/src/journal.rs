//! Crash-recovery journaling: one dialect, one reader.
//!
//! A [`Journal`] is an append-only JSONL file, fsync'd after every
//! append. Every writer — `tacc run-trace --journal`, the crash harness
//! and the `tacc serve` daemon — writes the same *session journal*:
//!
//! - a `Begin` record pins the journal format version, the
//!   [`Trace::fingerprint`] of the scenario-only trace and the
//!   [`RuntimeConfig`];
//! - a `SessionScenario` record pins the scenario itself, so the journal
//!   alone rebuilds the trace ([`Journal::create_session`] writes both);
//! - one `Event` record per event, numbered by its position in the
//!   timeline (the daemon writes them before applying, the replay
//!   writers after);
//! - a `Snapshot` record (the full [`RuntimeSnapshot`]) lands on a
//!   configurable cadence and is the restore point;
//! - a `SeqAck` record holds the acknowledgement returned for an
//!   idempotent `Push` sequence number, in the *same* fsync as the
//!   burst's `Event` records, so a recovered (or promoted-standby)
//!   daemon answers a re-sent acked burst instead of applying it twice;
//! - a `Recovered` record marks each recovery.
//!
//! Every line is a CRC-32 frame — `{"crc32":N,"record":{...}}` with
//! the checksum taken over the serialized record — so *any* single
//! corrupted byte is detected, not just bytes that break JSON syntax.
//!
//! [`recover`] is the one reader: it returns the journaled trace, the
//! runtime at the last usable restore point (nothing stepped), the last
//! `SeqAck` and the damage report, and every caller steps the journaled
//! suffix itself. [`RecordOrder`] is the record-order rulebook both the
//! reader and a replication standby enforce.
//!
//! This build writes and reads exactly one format,
//! [`JOURNAL_VERSION`]: a plain (unframed) line is corrupt, and a
//! `Begin` pinning any other version is a typed [`ChaosError::Journal`].
//!
//! [`Journal::open_append`] — the recovery/standby reopen path — first
//! **truncates the torn tail**: any unterminated trailing bytes, plus a
//! final newline-terminated line whose CRC frame fails to verify (what
//! an ENOSPC or short write leaves behind). Without this, the next
//! append would concatenate onto the torn fragment and turn a tolerated
//! tail into hard mid-file corruption.
//!
//! Recovery damage tolerance is a [`RecoveryPolicy`]: **Strict**
//! tolerates exactly a torn *final* line — what an fsync'd append leaves
//! behind when the process dies mid-write — and **Lenient** also skips
//! and reports corrupt mid-file records. A damaged header line is a
//! hard error under both; [`recover`] lists the reader's rules.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use serde_json::Value;
use tacc_runtime::{Runtime, RuntimeConfig, RuntimeSnapshot};
use tacc_workload::{TimedEvent, Trace, TraceScenario};

use crate::crc::crc32;
use crate::ChaosError;

/// The journal format this build writes and the only one it reads.
pub const JOURNAL_VERSION: u32 = 4;

/// One line of the journal.
///
/// `Snapshot` dwarfs the other variants by design — records are written
/// and read one line at a time, never held in bulk, so boxing would buy
/// nothing and cost a serialization-shape change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum JournalRecord {
    /// First record of every journal: format version, trace fingerprint
    /// and the runtime configuration.
    Begin {
        /// Journal format version; see [`JOURNAL_VERSION`].
        journal_version: u32,
        /// [`Trace::fingerprint`] of the scenario-only trace (no events).
        trace_fingerprint: u64,
        /// The configuration the runtime runs under.
        config: RuntimeConfig,
    },
    /// A step high-water mark. [`recover`] ignores it, and neither the
    /// daemon, `run-trace` nor the crash harness writes it; the variant
    /// stays so journals that carry it still parse.
    Step {
        /// Index of the processed event.
        index: u64,
    },
    /// A restore point: the complete runtime state after `snapshot.cursor`
    /// events.
    Snapshot {
        /// The captured state.
        snapshot: RuntimeSnapshot,
    },
    /// A recovery re-attached to this journal with `cursor` events in
    /// its timeline. The reader truncates the timeline to `cursor`,
    /// drops any restore point beyond it, and accepts the next `Event`
    /// at index `cursor` again — also after a lenient gap.
    Recovered {
        /// Events in the recovered timeline.
        cursor: u64,
    },
    /// The scenario the journal's events act on. Written once, right
    /// after `Begin`, so [`recover`] rebuilds the trace from the journal
    /// alone.
    SessionScenario {
        /// The generator scenario.
        scenario: TraceScenario,
    },
    /// One event of the timeline. `index` is its position, so the full
    /// event list is reconstructible in order.
    Event {
        /// Position of this event in the session timeline.
        index: u64,
        /// The event itself.
        timed: TimedEvent,
    },
    /// The acknowledgement returned for an idempotent `Push`
    /// sequence number, durable in the same fsync as the burst's `Event`
    /// records. Recovery restores its seq-dedup state from the last one,
    /// so an acked burst re-sent across a crash or failover is answered
    /// from here instead of journaled twice.
    SeqAck {
        /// The client-chosen sequence number that was acknowledged.
        seq: u64,
        /// `Accepted::queued` of the recorded acknowledgement.
        queued: u64,
        /// `Accepted::pending` of the recorded acknowledgement.
        pending: u64,
    },
}

/// An open, append-only journal. Every [`Journal::append`] flushes and
/// fsyncs before returning, so a record that was appended survives any
/// subsequent kill.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Creates (truncating) a journal and writes the `Begin` record.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn create(
        path: &Path,
        trace: &Trace,
        config: &RuntimeConfig,
    ) -> Result<Journal, ChaosError> {
        failpoint(path, "journal.create")?;
        let file = File::create(path).map_err(|e| ChaosError::io(path, &e))?;
        let mut journal = Journal { file, path: path.to_path_buf() };
        journal.append(&JournalRecord::Begin {
            journal_version: JOURNAL_VERSION,
            trace_fingerprint: trace.fingerprint(),
            config: config.clone(),
        })?;
        Ok(journal)
    }

    /// Creates (truncating) a session journal and writes its header:
    /// `Begin` pinning the fingerprint of the scenario-only trace, then
    /// `SessionScenario`.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn create_session(
        path: &Path,
        scenario: &TraceScenario,
        config: &RuntimeConfig,
    ) -> Result<Journal, ChaosError> {
        let shell = Trace {
            version: Trace::FORMAT_VERSION,
            scenario: scenario.clone(),
            events: Vec::new(),
        };
        let mut journal = Journal::create(path, &shell, config)?;
        journal.append(&JournalRecord::SessionScenario { scenario: shell.scenario })?;
        Ok(journal)
    }

    /// Creates (truncating) an *empty* journal with no `Begin` record —
    /// the standby's receiving end, whose first shipped line IS the
    /// primary's `Begin`.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn create_raw(path: &Path) -> Result<Journal, ChaosError> {
        failpoint(path, "journal.create")?;
        let file = File::create(path).map_err(|e| ChaosError::io(path, &e))?;
        Ok(Journal { file, path: path.to_path_buf() })
    }

    /// Re-opens an existing journal for appending (the recovery and
    /// standby-resync path), first truncating any torn tail — see the
    /// module docs. Without the truncation, appending after a mid-write
    /// kill or ENOSPC would concatenate onto the torn fragment and turn
    /// a tolerated tail into hard mid-file corruption.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn open_append(path: &Path) -> Result<Journal, ChaosError> {
        failpoint(path, "journal.open")?;
        truncate_torn_tail(path)?;
        let file =
            OpenOptions::new().append(true).open(path).map_err(|e| ChaosError::io(path, &e))?;
        Ok(Journal { file, path: path.to_path_buf() })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as a single CRC-framed JSON line and fsyncs it
    /// to disk. The checksum covers the serialized record exactly as
    /// written, so any later single-byte damage — including damage that
    /// leaves the line syntactically valid — is detected on recovery.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), ChaosError> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Journals event `index` of a replay after it was applied to
    /// `runtime`: the `Event` record, plus a `Snapshot` when the cursor
    /// lands on the `snapshot_every` cadence (`0` = never), under one
    /// fsync.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn append_event(
        &mut self,
        index: usize,
        timed: &TimedEvent,
        runtime: &Runtime,
        snapshot_every: u64,
    ) -> Result<(), ChaosError> {
        let mut records = vec![JournalRecord::Event { index: index as u64, timed: timed.clone() }];
        if snapshot_every > 0 && runtime.cursor() % snapshot_every == 0 {
            records.push(JournalRecord::Snapshot { snapshot: runtime.snapshot() });
        }
        self.append_batch(&records)
    }

    /// Appends a batch of records — each its own CRC-framed line — under
    /// a *single* fsync. The batch becomes durable atomically-enough for
    /// the recovery model: a kill during the write leaves at most a torn
    /// tail, which recovery already tolerates; a kill after the fsync
    /// preserves every record. One fsync per burst (instead of per
    /// event) is what makes write-ahead journaling affordable at wire
    /// ingest rates.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn append_batch(&mut self, records: &[JournalRecord]) -> Result<(), ChaosError> {
        use std::fmt::Write as _;
        if records.is_empty() {
            return Ok(());
        }
        let mut lines = String::new();
        for record in records {
            let body = serde_json::to_string(record).expect("journal records are serializable");
            let checksum = crc32(body.as_bytes());
            writeln!(lines, "{{\"crc32\":{checksum},\"record\":{body}}}")
                .expect("writing to a String is infallible");
        }
        tacc_obs::counter_add("journal.records", records.len() as u64);
        self.write_and_sync(lines.as_bytes())
    }

    /// Appends pre-framed journal lines (newline-stripped, exactly as
    /// shipped by a replication stream) under a single fsync. The caller
    /// is responsible for having CRC-verified each line.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Io`] on filesystem failures.
    pub fn append_raw_lines(&mut self, lines: &[String]) -> Result<(), ChaosError> {
        if lines.is_empty() {
            return Ok(());
        }
        let mut buffer = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            buffer.push_str(line);
            buffer.push('\n');
        }
        tacc_obs::counter_add("journal.records", lines.len() as u64);
        self.write_and_sync(buffer.as_bytes())
    }

    /// The shared durable-write tail: one `write_all`, one `sync_data`,
    /// both behind failpoints. A `short`-kind `journal.write` failpoint
    /// writes a torn partial prefix first — exactly the damage ENOSPC
    /// leaves — so harnesses can prove the reopen truncation heals it.
    fn write_and_sync(&mut self, bytes: &[u8]) -> Result<(), ChaosError> {
        if let Err(failure) = tacc_failpoints::check("journal.write") {
            if failure.is_short_write() {
                let torn = &bytes[..bytes.len() / 2];
                let _ = self.file.write_all(torn);
                let _ = self.file.sync_data();
            }
            return Err(ChaosError::io(&self.path, &failure.to_io_error()));
        }
        self.file.write_all(bytes).map_err(|e| ChaosError::io(&self.path, &e))?;
        if let Err(failure) = tacc_failpoints::check("journal.fsync") {
            return Err(ChaosError::io(&self.path, &failure.to_io_error()));
        }
        if tacc_obs::enabled() {
            let started = std::time::Instant::now();
            let synced = self.file.sync_data();
            tacc_obs::observe_time("journal.fsync", started.elapsed());
            synced.map_err(|e| ChaosError::io(&self.path, &e))
        } else {
            self.file.sync_data().map_err(|e| ChaosError::io(&self.path, &e))
        }
    }
}

/// Probes a named failpoint, rendering a fired fault as the same typed
/// [`ChaosError::Io`] a real filesystem failure would produce.
fn failpoint(path: &Path, name: &'static str) -> Result<(), ChaosError> {
    tacc_failpoints::check(name).map_err(|f| ChaosError::io(path, &f.to_io_error()))
}

/// Truncates the torn tail of a journal file in place: unterminated
/// trailing bytes (a mid-write kill), then a final newline-terminated
/// line that fails [`parse_journal_line`] (a torn CRC frame from ENOSPC
/// or a short write). Bounded to the final line — damage any earlier is
/// real corruption and stays visible to [`scan_journal`].
fn truncate_torn_tail(path: &Path) -> Result<(), ChaosError> {
    let bytes = std::fs::read(path).map_err(|e| ChaosError::io(path, &e))?;
    let mut keep = bytes.len();

    // Drop unterminated trailing bytes (no final newline).
    if keep > 0 && bytes[keep - 1] != b'\n' {
        keep = bytes[..keep].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    }
    // Drop a final complete line whose frame fails to verify, unless it
    // is the only line (a damaged Begin is fatal, not truncatable — the
    // scan must report it).
    if keep > 0 {
        let start = bytes[..keep - 1].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        if start > 0 {
            let intact = std::str::from_utf8(&bytes[start..keep - 1])
                .map_err(|e| e.to_string())
                .and_then(|line| parse_journal_line(line).map(|_| ()));
            if intact.is_err() {
                keep = start;
            }
        }
    }

    if keep < bytes.len() {
        tacc_obs::counter_add("journal.torn_tail_truncated", 1);
        let file =
            OpenOptions::new().write(true).open(path).map_err(|e| ChaosError::io(path, &e))?;
        file.set_len(keep as u64).map_err(|e| ChaosError::io(path, &e))?;
        file.sync_data().map_err(|e| ChaosError::io(path, &e))?;
    }
    Ok(())
}

/// Counts the intact journal lines currently in `path` (zero when the
/// file does not exist) — how a standby re-learns its durable length
/// after dropping a failed journal handle.
///
/// # Errors
///
/// Returns [`ChaosError::Io`] on any read failure other than the file
/// not existing.
pub fn journal_line_count(path: &Path) -> Result<u64, ChaosError> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(text.lines().filter(|l| !l.trim().is_empty()).count() as u64),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(ChaosError::io(path, &e)),
    }
}

/// How [`recover`] treats corrupt mid-file records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Any corrupt record before the final line is a hard error. This is
    /// the default and the right choice when the journal is the system
    /// of record.
    #[default]
    Strict,
    /// Corrupt mid-file records are skipped and reported in
    /// [`Recovery::corrupt_records`]; recovery proceeds from what
    /// survives. The right choice when finishing the replay matters more
    /// than explaining the damage.
    Lenient,
}

/// What [`recover`] reconstructed from a journal.
#[derive(Debug)]
pub struct Recovery {
    /// The journaled scenario and timeline of events.
    pub trace: Trace,
    /// The runtime at the restore point: the last usable snapshot, or
    /// fresh under `Begin`'s config when there is none. Nothing is
    /// stepped — the caller steps `trace.events[runtime.cursor()..]`.
    pub runtime: Runtime,
    /// Whether a snapshot record provided the restore point.
    pub from_snapshot: bool,
    /// The last `SeqAck` record, as `(seq, queued, pending)`.
    pub seq_ack: Option<(u64, u64, u64)>,
    /// Whether the journal ended in a torn (unparseable) final line —
    /// expected after a mid-write kill, and tolerated under both
    /// policies.
    pub torn_tail: bool,
    /// 1-based line numbers of corrupt mid-file records that were
    /// skipped. Always empty under [`RecoveryPolicy::Strict`].
    pub corrupt_records: Vec<usize>,
}

impl Recovery {
    /// Requires the journaled trace to be a prefix of `trace`: the same
    /// scenario, and events equal to `trace`'s first events. Callers
    /// that replay a trace they hold check this before stepping it.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Journal`] when the journal is not such a prefix.
    pub fn require_prefix_of(&self, trace: &Trace) -> Result<(), ChaosError> {
        if self.trace.scenario != trace.scenario || !trace.events.starts_with(&self.trace.events) {
            return Err(ChaosError::Journal {
                reason: format!(
                    "the journal's {} events are not a prefix of trace {:#018x}",
                    self.trace.events.len(),
                    trace.fingerprint()
                ),
            });
        }
        Ok(())
    }
}

/// Parses and CRC-verifies one journal line. This is how a replication
/// standby validates each shipped line before making it durable.
///
/// # Errors
///
/// A human-readable reason when the line is not an intact CRC frame.
pub fn parse_journal_line(line: &str) -> Result<JournalRecord, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("unparseable line: {e}"))?;
    // Verify the checksum over the re-serialized record. Serialization
    // is byte-deterministic (insertion-ordered keys, shortest-roundtrip
    // floats), so an intact record reproduces the exact bytes the
    // checksum was computed over.
    let Some(stored) = value.get("crc32") else {
        return Err("line is not a CRC frame".to_owned());
    };
    let Value::UInt(stored) = stored else {
        return Err("frame has a non-integer crc32".to_owned());
    };
    let stored = u32::try_from(*stored).map_err(|_| "frame crc32 out of range".to_owned())?;
    let Some(record) = value.get("record") else {
        return Err("frame is missing its record".to_owned());
    };
    let body = serde_json::to_string(record).expect("parsed values re-serialize");
    let computed = crc32(body.as_bytes());
    if computed != stored {
        return Err(format!("CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"));
    }
    serde_json::from_value::<JournalRecord>(record).map_err(|e| format!("bad record: {e}"))
}

/// A journal read line by line: every intact record in file order, and
/// the damage found. [`recover`] gives the records their meaning.
#[derive(Debug)]
pub struct JournalScan {
    /// Every intact record, in file order.
    pub records: Vec<JournalRecord>,
    /// Whether the journal ended in a torn (unparseable) final line.
    pub torn_tail: bool,
    /// 1-based line numbers of corrupt mid-file records that were
    /// skipped. Always empty under [`RecoveryPolicy::Strict`].
    pub corrupt_records: Vec<usize>,
}

/// Reads and CRC-verifies every line of a journal under `policy`: a
/// damaged final line is a torn tail, and a damaged first line is an
/// error under both policies.
///
/// # Errors
///
/// Returns [`ChaosError::Io`] if the journal cannot be read, and
/// [`ChaosError::Journal`] if it is empty, its first line is damaged,
/// or — under [`RecoveryPolicy::Strict`] — a line before the final one
/// is damaged.
pub fn scan_journal(path: &Path, policy: RecoveryPolicy) -> Result<JournalScan, ChaosError> {
    let text = std::fs::read_to_string(path).map_err(|e| ChaosError::io(path, &e))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err(ChaosError::Journal { reason: "journal is empty".to_owned() });
    }

    let mut records: Vec<JournalRecord> = Vec::with_capacity(lines.len());
    let mut torn_tail = false;
    let mut corrupt_records: Vec<usize> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        match parse_journal_line(line) {
            Ok(record) => records.push(record),
            Err(_) if i + 1 == lines.len() && lines.len() > 1 => torn_tail = true,
            Err(reason) => match policy {
                RecoveryPolicy::Lenient if i > 0 => {
                    tacc_obs::counter_add("journal.corrupt_skipped", 1);
                    corrupt_records.push(i + 1);
                }
                _ => {
                    return Err(ChaosError::Journal {
                        reason: format!("corrupt record at line {}: {reason}", i + 1),
                    });
                }
            },
        }
    }
    Ok(JournalScan { records, torn_tail, corrupt_records })
}

/// The record-order rulebook of a session journal, enforced by
/// [`recover`] and by a replication standby before it writes a shipped
/// batch: one `Begin`, then one `SessionScenario`, then any mix of the
/// other records, where each `Event` index equals the number of events
/// before it and `Recovered { cursor }` rewinds that number to `cursor`,
/// which must not exceed it. It counts events without holding them.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecordOrder {
    begun: bool,
    scenario: bool,
    events: u64,
}

impl RecordOrder {
    /// Events in the timeline so far — the cursor a recovery replays to.
    pub fn events(self) -> u64 {
        self.events
    }

    /// Admits one record after those already admitted, or says why it
    /// is out of order.
    fn admit(&mut self, record: &JournalRecord) -> Result<(), String> {
        match record {
            JournalRecord::Begin { .. } if !self.begun => self.begun = true,
            JournalRecord::SessionScenario { .. } if self.begun && !self.scenario => {
                self.scenario = true;
            }
            JournalRecord::Begin { .. } | JournalRecord::SessionScenario { .. } => {
                return Err("the journal header is one Begin then one SessionScenario".to_owned());
            }
            _ if !self.begun => {
                return Err("journal does not start with a Begin record".to_owned());
            }
            _ if !self.scenario => {
                return Err("journal has no SessionScenario record after Begin".to_owned());
            }
            JournalRecord::Event { index, .. } => {
                if *index != self.events {
                    return Err(format!("event {index} arrived at position {}", self.events));
                }
                self.events += 1;
            }
            JournalRecord::Recovered { cursor } => {
                if *cursor > self.events {
                    return Err(format!(
                        "Recovered cursor {cursor} is past the {} events journaled",
                        self.events
                    ));
                }
                self.events = *cursor;
            }
            JournalRecord::Step { .. }
            | JournalRecord::Snapshot { .. }
            | JournalRecord::SeqAck { .. } => {}
        }
        Ok(())
    }

    /// The order after `lines`, each CRC-verified and admitted in turn.
    ///
    /// # Errors
    ///
    /// The first line that is damaged or out of order, and why.
    pub fn after<'l>(mut self, lines: impl IntoIterator<Item = &'l str>) -> Result<Self, String> {
        for line in lines {
            self.admit(&parse_journal_line(line)?)?;
        }
        Ok(self)
    }
}

/// Reads a session journal and restores the runtime it describes — the
/// one function that turns journal records into a [`Runtime`]. The
/// records are read in file order under [`RecordOrder`]:
///
/// - **Header.** `Begin` then `SessionScenario`; `Begin` must pin
///   [`JOURNAL_VERSION`] and the fingerprint of the scenario-only trace.
/// - **Events.** An `Event` whose index equals the timeline length
///   extends the timeline. Any other index is an error under
///   [`RecoveryPolicy::Strict`]; under [`RecoveryPolicy::Lenient`] it
///   ends the timeline until the next `Recovered` record.
/// - **`Recovered { cursor }`** truncates the timeline to `cursor` and
///   drops a restore point beyond it.
/// - **Restore point.** The last `Snapshot` whose cursor does not
///   exceed the timeline length at the point it is read.
/// - **Other records.** The last `SeqAck` wins; `Step` is ignored.
///
/// Nothing is stepped: the caller replays `trace.events` from the
/// restored cursor.
///
/// # Errors
///
/// Returns [`ChaosError::Io`] if the journal cannot be read,
/// [`ChaosError::Journal`] if it is damaged beyond what `policy`
/// tolerates, breaks the record order, or pins an unknown version or a
/// fingerprint that does not match its scenario, and propagates runtime
/// restore failures.
pub fn recover(path: &Path, policy: RecoveryPolicy) -> Result<Recovery, ChaosError> {
    let scan = scan_journal(path, policy)?;
    let mut order = RecordOrder::default();
    let mut begin: Option<(u64, RuntimeConfig)> = None;
    let mut scenario: Option<TraceScenario> = None;
    let mut events: Vec<TimedEvent> = Vec::new();
    let mut open = true;
    let mut restore: Option<RuntimeSnapshot> = None;
    let mut seq_ack = None;
    for record in scan.records {
        let is_event = matches!(record, JournalRecord::Event { .. });
        if is_event && !open {
            continue;
        }
        if let Err(reason) = order.admit(&record) {
            if is_event && policy == RecoveryPolicy::Lenient && scenario.is_some() {
                open = false;
                continue;
            }
            return Err(ChaosError::Journal { reason });
        }
        match record {
            JournalRecord::Begin { journal_version, trace_fingerprint, config } => {
                if journal_version != JOURNAL_VERSION {
                    return Err(ChaosError::Journal {
                        reason: format!(
                            "journal version {journal_version} \
                             (this build reads only {JOURNAL_VERSION})"
                        ),
                    });
                }
                begin = Some((trace_fingerprint, config));
            }
            JournalRecord::SessionScenario { scenario: pinned } => scenario = Some(pinned),
            JournalRecord::Event { timed, .. } => events.push(timed),
            JournalRecord::Snapshot { snapshot } => {
                if snapshot.cursor <= events.len() as u64 {
                    restore = Some(snapshot);
                }
            }
            JournalRecord::Recovered { cursor } => {
                events.truncate(cursor as usize);
                open = true;
                if restore.as_ref().is_some_and(|s| s.cursor > cursor) {
                    restore = None;
                }
            }
            JournalRecord::SeqAck { seq, queued, pending } => {
                seq_ack = Some((seq, queued, pending));
            }
            JournalRecord::Step { .. } => {}
        }
    }
    let (Some((fingerprint, config)), Some(scenario)) = (begin, scenario) else {
        return Err(ChaosError::Journal {
            reason: "journal has no SessionScenario record".to_owned(),
        });
    };

    let shell = Trace { version: Trace::FORMAT_VERSION, scenario, events: Vec::new() };
    if shell.fingerprint() != fingerprint {
        return Err(ChaosError::Journal {
            reason: format!(
                "journal was recorded against scenario {fingerprint:#018x}, not {:#018x}",
                shell.fingerprint()
            ),
        });
    }
    let trace = Trace { events, ..shell };
    let from_snapshot = restore.is_some();
    let runtime = match restore {
        Some(snapshot) => Runtime::restore(snapshot, &trace)?,
        None => Runtime::from_trace(&trace, config)?,
    };
    Ok(Recovery {
        trace,
        runtime,
        from_snapshot,
        seq_ack,
        torn_tail: scan.torn_tail,
        corrupt_records: scan.corrupt_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_workload::{TraceGenerator, TraceScenario};

    fn trace() -> Trace {
        TraceGenerator::new(TraceScenario {
            num_iot: 15,
            num_servers: 3,
            ..TraceScenario::default()
        })
        .num_events(20)
        .generate(3)
        .unwrap()
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tacc-journal-test-{name}-{}.jsonl", std::process::id()))
    }

    /// The header [`Journal::create_session`] writes for `trace`.
    fn header(trace: &Trace) -> Vec<JournalRecord> {
        let shell = Trace { events: Vec::new(), ..trace.clone() };
        vec![
            JournalRecord::Begin {
                journal_version: JOURNAL_VERSION,
                trace_fingerprint: shell.fingerprint(),
                config: RuntimeConfig::default(),
            },
            JournalRecord::SessionScenario { scenario: trace.scenario.clone() },
        ]
    }

    fn event(trace: &Trace, index: usize) -> JournalRecord {
        JournalRecord::Event { index: index as u64, timed: trace.events[index].clone() }
    }

    /// The runtime's state after the first `cursor` events of `trace`.
    fn snapshot_at(trace: &Trace, cursor: usize) -> JournalRecord {
        let mut runtime = Runtime::from_trace(trace, RuntimeConfig::default()).unwrap();
        for index in 0..cursor {
            runtime.step(index, &trace.events[index]).unwrap();
        }
        JournalRecord::Snapshot { snapshot: runtime.snapshot() }
    }

    /// Writes `records` as a fresh journal at `path`.
    fn write(path: &Path, records: &[JournalRecord]) {
        Journal::create_raw(path).unwrap().append_batch(records).unwrap();
    }

    /// A CRC frame around a raw record body, as an older writer framed it.
    fn framed(body: &str) -> String {
        format!("{{\"crc32\":{},\"record\":{body}}}", crc32(body.as_bytes()))
    }

    fn read_lines(path: &Path) -> Vec<String> {
        std::fs::read_to_string(path).unwrap().lines().map(str::to_owned).collect()
    }

    fn write_lines(path: &Path, lines: &[String]) {
        std::fs::write(path, lines.join("\n") + "\n").unwrap();
    }

    fn why(err: ChaosError) -> String {
        let ChaosError::Journal { reason } = err else { panic!("got {err:?}") };
        reason
    }

    const POLICIES: [RecoveryPolicy; 2] = [RecoveryPolicy::Strict, RecoveryPolicy::Lenient];

    #[test]
    fn journal_round_trips_and_recovers_fresh() {
        let trace = trace();
        let path = temp_path("fresh");
        let mut journal =
            Journal::create_session(&path, &trace.scenario, &RuntimeConfig::default()).unwrap();
        journal.append_batch(&[event(&trace, 0), event(&trace, 1)]).unwrap();
        drop(journal);

        let recovery = recover(&path, RecoveryPolicy::Strict).unwrap();
        assert!(!recovery.from_snapshot, "no snapshot record yet");
        assert_eq!(recovery.trace.scenario, trace.scenario);
        assert_eq!(recovery.trace.events, trace.events[..2]);
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.runtime.cursor(), 0, "nothing is stepped");
        recovery.require_prefix_of(&trace).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_final_line_is_tolerated_but_earlier_corruption_is_not() {
        let trace = trace();
        let path = temp_path("torn");
        let mut records = header(&trace);
        records.extend([event(&trace, 0), event(&trace, 1)]);
        write(&path, &records);

        // Tear the tail the way a mid-write kill would.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"Event\":{\"ind");
        std::fs::write(&path, &text).unwrap();
        let recovery = recover(&path, RecoveryPolicy::Strict).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.trace.events.len(), 2);

        // Corruption *before* the final line is a hard error.
        let mut lines = read_lines(&path);
        lines[2] = "garbage".to_owned();
        std::fs::write(&path, lines.join("\n")).unwrap();
        let err = recover(&path, RecoveryPolicy::Strict).unwrap_err();
        assert!(matches!(err, ChaosError::Journal { .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lenient_recovery_skips_and_reports_corrupt_records() {
        let trace = trace();
        let path = temp_path("lenient");
        let mut records = header(&trace);
        records.extend((0..4).map(|i| event(&trace, i)));
        write(&path, &records);

        // Corrupt a mid-file record (line 4 = event 1).
        let mut lines = read_lines(&path);
        lines[3] = "garbage".to_owned();
        write_lines(&path, &lines);

        let err = recover(&path, RecoveryPolicy::Strict).unwrap_err();
        assert!(matches!(err, ChaosError::Journal { .. }), "strict must reject: {err:?}");

        let recovery = recover(&path, RecoveryPolicy::Lenient).unwrap();
        assert_eq!(recovery.corrupt_records, vec![4]);
        assert_eq!(recovery.trace.events, trace.events[..1], "the timeline ends at the gap");
        assert!(!recovery.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_corrupt_begin_record_is_fatal_even_leniently() {
        // Header rule: a damaged header line — `Begin` or
        // `SessionScenario` — is a typed error under both policies.
        let trace = trace();
        let path = temp_path("bad-begin");
        let mut records = header(&trace);
        records.push(event(&trace, 0));
        write(&path, &records);
        let pristine = read_lines(&path);

        for line in 0..2 {
            let mut lines = pristine.clone();
            lines[line] = lines[line].replace("crc32", "crc99");
            write_lines(&path, &lines);
            for policy in POLICIES {
                // Strict names the damaged line; lenient skips line 2
                // and then finds the header incomplete.
                let reason = why(recover(&path, policy).unwrap_err());
                let named = reason.contains(&format!("line {}", line + 1));
                assert!(named || reason.contains("SessionScenario"), "{policy:?}: {reason}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_missing_scenario_header_is_fatal_under_both_policies() {
        let trace = trace();
        let path = temp_path("no-scenario");
        let begin = header(&trace).remove(0);
        for records in [vec![begin.clone()], vec![begin, event(&trace, 0)]] {
            write(&path, &records);
            for policy in POLICIES {
                let reason = why(recover(&path, policy).unwrap_err());
                assert!(reason.contains("SessionScenario"), "{policy:?}: {reason}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn plain_line_and_old_version_journals_are_rejected_typed() {
        let trace = trace();
        let path = temp_path("old-format");
        // A plain-line journal: record lines with no CRC frame.
        let plain: Vec<String> =
            header(&trace).iter().map(|r| serde_json::to_string(r).unwrap()).collect();
        write_lines(&path, &plain);
        let reason = why(recover(&path, RecoveryPolicy::Strict).unwrap_err());
        assert!(reason.contains("not a CRC frame"), "got: {reason}");

        // A CRC-framed journal whose Begin pins an older format version.
        let mut records = header(&trace);
        let JournalRecord::Begin { journal_version, .. } = &mut records[0] else { unreachable!() };
        *journal_version = 3;
        write(&path, &records);
        let reason = why(recover(&path, RecoveryPolicy::Strict).unwrap_err());
        assert!(reason.contains("journal version 3"), "got: {reason}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc_catches_damage_that_keeps_the_json_valid() {
        let trace = trace();
        let path = temp_path("valid-json-damage");
        let mut records = header(&trace);
        records.push(JournalRecord::SeqAck { seq: 3, queued: 1, pending: 0 });
        records.push(JournalRecord::SeqAck { seq: 4, queued: 1, pending: 0 });
        write(&path, &records);

        // Flip the sequence number inside the framed record: still
        // perfectly valid JSON, but the stored CRC no longer matches. A
        // reader without checksums would have accepted this silently.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"seq\":3"), "fixture drifted");
        std::fs::write(&path, text.replace("\"seq\":3", "\"seq\":8")).unwrap();

        let reason = why(recover(&path, RecoveryPolicy::Strict).unwrap_err());
        assert!(reason.contains("CRC mismatch"), "got: {reason}");

        let recovery = recover(&path, RecoveryPolicy::Lenient).unwrap();
        assert_eq!(recovery.corrupt_records, vec![3]);
        assert_eq!(recovery.seq_ack, Some((4, 1, 0)), "the intact ack survives");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_rejects_the_wrong_trace() {
        let trace = trace();
        let path = temp_path("wrong-trace");
        let mut records = header(&trace);
        records.extend((0..5).map(|i| event(&trace, i)));
        write(&path, &records);

        // Same scenario, other events: the journal is no prefix of it.
        let other =
            TraceGenerator::new(trace.scenario.clone()).num_events(20).generate(99).unwrap();
        let recovery = recover(&path, RecoveryPolicy::Strict).unwrap();
        recovery.require_prefix_of(&trace).unwrap();
        let reason = why(recovery.require_prefix_of(&other).unwrap_err());
        assert!(reason.contains("not a prefix"), "got: {reason}");

        // A Begin fingerprint that does not match the pinned scenario.
        let JournalRecord::Begin { trace_fingerprint, .. } = &mut records[0] else {
            unreachable!()
        };
        *trace_fingerprint ^= 1;
        write(&path, &records);
        let reason = why(recover(&path, RecoveryPolicy::Lenient).unwrap_err());
        assert!(reason.contains("recorded against scenario"), "got: {reason}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn event_indices_extend_the_timeline_or_end_it() {
        let trace = trace();
        let path = temp_path("event-order");
        let mut records = header(&trace);
        // Event 3 arrives at position 2; event 2 after it is behind the
        // gap, and so is everything until a `Recovered` record.
        records.extend([0, 1, 3, 2].map(|i| event(&trace, i)));
        write(&path, &records);

        let reason = why(recover(&path, RecoveryPolicy::Strict).unwrap_err());
        assert!(reason.contains("event 3 arrived at position 2"), "got: {reason}");
        let recovery = recover(&path, RecoveryPolicy::Lenient).unwrap();
        assert_eq!(recovery.trace.events, trace.events[..2]);
        assert!(recovery.corrupt_records.is_empty(), "the lines themselves are intact");

        // `Recovered` re-opens the timeline at its cursor.
        records.push(JournalRecord::Recovered { cursor: 2 });
        records.extend([2, 3].map(|i| event(&trace, i)));
        write(&path, &records);
        let recovery = recover(&path, RecoveryPolicy::Lenient).unwrap();
        assert_eq!(recovery.trace.events, trace.events[..4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovered_truncates_the_timeline_and_drops_later_restore_points() {
        let trace = trace();
        let path = temp_path("recovered-rule");
        let mut records = header(&trace);
        records.extend((0..4).map(|i| event(&trace, i)));
        records.push(snapshot_at(&trace, 4));
        records.extend((4..6).map(|i| event(&trace, i)));
        records.push(JournalRecord::Recovered { cursor: 3 });
        write(&path, &records);

        let recovery = recover(&path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(recovery.trace.events, trace.events[..3]);
        assert!(!recovery.from_snapshot, "the snapshot at 4 is past the cursor");
        assert_eq!(recovery.runtime.cursor(), 0);

        // Events continue from the cursor, and later snapshots count.
        records.push(event(&trace, 3));
        records.push(snapshot_at(&trace, 4));
        write(&path, &records);
        let recovery = recover(&path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(recovery.trace.events, trace.events[..4]);
        assert_eq!(recovery.runtime.cursor(), 4);

        // A cursor past the end is typed under both policies.
        records.push(JournalRecord::Recovered { cursor: 9 });
        write(&path, &records);
        for policy in POLICIES {
            let reason = why(recover(&path, policy).unwrap_err());
            assert!(reason.contains("Recovered cursor 9"), "{policy:?}: {reason}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_restore_point_is_the_last_snapshot_within_the_timeline() {
        let trace = trace();
        let path = temp_path("restore-point");
        let mut records = header(&trace);
        records.extend((0..2).map(|i| event(&trace, i)));
        records.push(snapshot_at(&trace, 2));
        // Read while the timeline holds 2 events: not a restore point,
        // even though the timeline reaches 3 events later.
        records.push(snapshot_at(&trace, 3));
        records.extend((2..4).map(|i| event(&trace, i)));
        write(&path, &records);

        let recovery = recover(&path, RecoveryPolicy::Strict).unwrap();
        assert!(recovery.from_snapshot);
        assert_eq!(recovery.runtime.cursor(), 2);
        assert_eq!(recovery.trace.events.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_last_seq_ack_wins_and_step_is_ignored() {
        let trace = trace();
        let path = temp_path("other-records");
        let mut records = header(&trace);
        records.push(JournalRecord::SeqAck { seq: 1, queued: 1, pending: 1 });
        records.push(event(&trace, 0));
        records.push(JournalRecord::SeqAck { seq: 2, queued: 1, pending: 0 });
        records.push(event(&trace, 1));
        write(&path, &records);
        // A `Step` line as older writers framed it, with an index no
        // timeline has reached.
        let mut lines = read_lines(&path);
        lines.insert(3, framed("{\"Step\":{\"index\":99}}"));
        write_lines(&path, &lines);

        let recovery = recover(&path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(recovery.seq_ack, Some((2, 1, 0)));
        assert_eq!(recovery.trace.events, trace.events[..2]);
        assert_eq!(recovery.runtime.cursor(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_batch_append_lands_every_record() {
        let trace = trace();
        let config = RuntimeConfig::default();
        let path = temp_path("batch");
        let mut journal = Journal::create(&path, &trace, &config).unwrap();
        let batch: Vec<JournalRecord> = (0..4).map(|i| event(&trace, i)).collect();
        journal.append_batch(&batch).unwrap();
        journal.append_batch(&[]).unwrap();
        drop(journal);

        let scan = scan_journal(&path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(scan.records.len(), 5, "Begin + 4 events");
        assert_eq!(scan.records[1..], batch[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_scan_reconstructs_a_wire_fed_session_without_the_trace() {
        let trace = trace();
        let path = temp_path("scan-session");
        let mut journal =
            Journal::create_session(&path, &trace.scenario, &RuntimeConfig::default()).unwrap();
        let batch: Vec<JournalRecord> = (0..trace.events.len()).map(|i| event(&trace, i)).collect();
        journal.append_batch(&batch).unwrap();
        drop(journal);

        // The journal alone rebuilds the full trace.
        let recovery = recover(&path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(recovery.trace.fingerprint(), trace.fingerprint(), "byte-identical trace");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_truncates_an_unterminated_tail_before_appending() {
        let trace = trace();
        let path = temp_path("reopen-unterminated");
        let mut records = header(&trace);
        records.push(event(&trace, 0));
        write(&path, &records);
        let pristine = std::fs::read_to_string(&path).unwrap();

        // A mid-write kill: unterminated fragment at the tail. Appending
        // without truncation would concatenate onto it and corrupt the
        // next record too.
        std::fs::write(&path, format!("{pristine}{{\"crc32\":12,\"record\":{{\"Ev")).unwrap();
        let mut journal = Journal::open_append(&path).unwrap();
        journal.append(&event(&trace, 1)).unwrap();
        drop(journal);

        let recovery = recover(&path, RecoveryPolicy::Strict).unwrap();
        assert!(!recovery.torn_tail, "the torn fragment is gone, not tolerated");
        assert_eq!(recovery.trace.events, trace.events[..2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_truncates_a_torn_crc_frame_on_the_final_line() {
        let trace = trace();
        let path = temp_path("reopen-torn-frame");
        let mut records = header(&trace);
        records.push(JournalRecord::SeqAck { seq: 1, queued: 1, pending: 0 });
        write(&path, &records);

        // ENOSPC-style damage: the final line is newline-terminated but
        // its frame no longer verifies (valid JSON, wrong checksum).
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"seq\":1", "\"seq\":7")).unwrap();
        let mut journal = Journal::open_append(&path).unwrap();
        journal.append(&JournalRecord::SeqAck { seq: 1, queued: 1, pending: 0 }).unwrap();
        drop(journal);

        let scan = scan_journal(&path, RecoveryPolicy::Strict).unwrap();
        assert_eq!(scan.records.len(), 3, "header + re-appended ack");
        assert!(scan.corrupt_records.is_empty());

        // But a damaged *Begin* is never truncated away: the scan must
        // see and report it.
        let first = read_lines(&path)[0].replace("crc32", "crc99");
        std::fs::write(&path, format!("{first}\n")).unwrap();
        Journal::open_append(&path).unwrap();
        let err = scan_journal(&path, RecoveryPolicy::Lenient).unwrap_err();
        assert!(matches!(err, ChaosError::Journal { .. }), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn raw_appends_ship_verbatim_lines_and_count_back() {
        let trace = trace();
        let primary = temp_path("raw-primary");
        let standby = temp_path("raw-standby");
        let mut journal =
            Journal::create_session(&primary, &trace.scenario, &RuntimeConfig::default()).unwrap();
        journal.append(&JournalRecord::SeqAck { seq: 31, queued: 4, pending: 2 }).unwrap();
        drop(journal);

        // Ship the primary's lines verbatim; the standby file becomes
        // byte-identical.
        let lines = read_lines(&primary);
        for line in &lines {
            parse_journal_line(line).expect("shipped lines verify");
        }
        let mut replica = Journal::create_raw(&standby).unwrap();
        replica.append_raw_lines(&lines).unwrap();
        replica.append_raw_lines(&[]).unwrap();
        drop(replica);
        assert_eq!(
            std::fs::read(&primary).unwrap(),
            std::fs::read(&standby).unwrap(),
            "replica file is byte-identical"
        );
        assert_eq!(journal_line_count(&standby).unwrap(), 3);
        assert_eq!(journal_line_count(&temp_path("raw-nonexistent")).unwrap(), 0);

        // The reader sees the SeqAck intact.
        let recovery = recover(&standby, RecoveryPolicy::Strict).unwrap();
        assert_eq!(recovery.seq_ack, Some((31, 4, 2)));
        std::fs::remove_file(&primary).ok();
        std::fs::remove_file(&standby).ok();
    }

    #[test]
    fn recovery_rejects_a_missing_begin_record() {
        let trace = trace();
        let path = temp_path("no-begin");
        for records in [vec![event(&trace, 0)], header(&trace)[1..].to_vec()] {
            write(&path, &records);
            for policy in POLICIES {
                let reason = why(recover(&path, policy).unwrap_err());
                assert!(reason.contains("Begin"), "{policy:?}: {reason}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
