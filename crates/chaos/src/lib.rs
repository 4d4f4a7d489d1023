//! # tacc-chaos — adversarial robustness harness for the runtime
//!
//! `tacc-runtime` promises a lot: deterministic replay, byte-identical
//! snapshot/restore, graceful degradation, no overload — ever. This
//! crate exists to *break* those promises, and to prove it cannot:
//!
//! 1. **Adversarial schedules** ([`ChaosGenerator`]): seeded, replayable
//!    fault schedules the polite [`tacc_workload::TraceGenerator`]
//!    refuses to emit — correlated multi-server failures, flapping,
//!    capacity crunches, burst churn, and full network partitions that
//!    take down the *last* alive server. Emitted as ordinary format-v1
//!    traces, so nothing downstream needs a special case.
//! 2. **Crash-recovery journaling** ([`Journal`], [`recover`]): the one
//!    session journal that `tacc run-trace`, the crash harness and the
//!    `tacc serve` daemon all write — an append-only, fsync'd JSONL file
//!    of the scenario, every event and periodic full snapshots, each
//!    record wrapped in a CRC-32 frame (one format, [`JOURNAL_VERSION`];
//!    plain lines and other versions are typed errors) — and the one
//!    reader that restores a runtime from it. [`RecoveryPolicy::Strict`]
//!    tolerates exactly the torn final line a mid-write kill leaves;
//!    [`RecoveryPolicy::Lenient`] additionally skips and reports corrupt
//!    mid-file records.
//! 3. **The crash harness** ([`run_with_crashes`],
//!    [`kill_at_every_boundary`], [`corrupt_and_recover_everywhere`]):
//!    simulated hard kills at event boundaries and single-byte
//!    corruption at every journal record, recovery from the journal,
//!    and a byte-identical comparison against an uninterrupted
//!    reference run — with the runtime's invariants
//!    ([`tacc_runtime::check`]) verified after every event and zero
//!    transient overload required throughout.
//!
//! ## Example
//!
//! ```
//! use tacc_chaos::{kill_at_every_boundary, ChaosGenerator, ChaosProfile};
//! use tacc_runtime::RuntimeConfig;
//! use tacc_workload::TraceScenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = TraceScenario { num_iot: 12, num_servers: 3, ..TraceScenario::default() };
//! let trace = ChaosGenerator::new(scenario, ChaosProfile::Partition)
//!     .num_events(12)
//!     .generate(7)?;
//! let journal = std::env::temp_dir().join("tacc-chaos-doc-example.jsonl");
//! let boundaries =
//!     kill_at_every_boundary(&trace, &RuntimeConfig::default(), 4, &journal)?;
//! assert_eq!(boundaries, 12);
//! # std::fs::remove_file(&journal).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]
#![allow(clippy::cast_precision_loss)]
#![allow(clippy::must_use_candidate)]
#![allow(clippy::missing_panics_doc)]
// "IoT" et al. trip the doc-markdown heuristic throughout the workspace.
#![allow(clippy::doc_markdown)]
// Event counts are bounded by `Vec` lengths; narrowing is safe.
#![allow(clippy::cast_possible_truncation)]

pub mod crc;
mod error;
pub mod journal;
mod runner;
mod schedule;

pub use crc::crc32;
pub use error::ChaosError;
pub use journal::{
    journal_line_count, parse_journal_line, recover, scan_journal, Journal, JournalRecord,
    JournalScan, RecordOrder, Recovery, RecoveryPolicy, JOURNAL_VERSION,
};
pub use runner::{
    corrupt_and_recover_everywhere, kill_at_every_boundary, run_with_crashes, truncate_and_recover,
    ChaosReport, CrashPlan,
};
pub use schedule::{ChaosGenerator, ChaosProfile};
