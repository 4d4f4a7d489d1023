//! The standby's receiving end: idempotent journal apply and promotion.

use std::path::PathBuf;

use tacc_chaos::{Journal, RecordOrder};
use tacc_serve::{ServeConfig, ServeError, Session};

use crate::failpoint;

/// The standby's replication state: a verbatim, CRC-verified copy of
/// the primary's journal (fsync'd batch by batch) and its line cursor.
///
/// The journal copy is the only state — [`StandbyCore::promote`]
/// rebuilds the serving [`Session`] from it through the same
/// [`Session::recover`] path a `--recover` restart uses, so a promoted
/// standby is byte-identical to a recovered primary. Nothing is
/// replayed before promotion; shipped records are only checked against
/// [`RecordOrder`], the rulebook recovery reads them by.
#[derive(Debug)]
pub struct StandbyCore {
    cfg: ServeConfig,
    path: PathBuf,
    /// `None` after an apply error — the next apply re-opens (healing
    /// any torn tail) and resynchronizes from the durable file.
    journal: Option<Journal>,
    /// Durable journal lines held (the replication cursor).
    lines: u64,
    /// The record order of the held lines.
    order: RecordOrder,
}

impl StandbyCore {
    /// A fresh standby writing its journal copy to `cfg.journal`
    /// (truncating anything stale there — a standby's history *is* the
    /// primary's, shipped from line zero).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] when `cfg.journal` is unset,
    /// [`ServeError::Io`]/[`ServeError::State`] on filesystem failures.
    pub fn new(cfg: &ServeConfig) -> Result<StandbyCore, ServeError> {
        let Some(path) = cfg.journal.clone() else {
            return Err(ServeError::state("a standby needs --journal for its replica copy"));
        };
        let journal = Journal::create_raw(&path).map_err(|e| ServeError::state(e.to_string()))?;
        Ok(StandbyCore {
            cfg: cfg.clone(),
            path,
            journal: Some(journal),
            lines: 0,
            order: RecordOrder::default(),
        })
    }

    /// Durable journal lines held — the cursor acknowledged back to the
    /// primary.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Re-opens the journal copy after an apply error: heals any torn
    /// tail the failure left, then recounts the durable lines and their
    /// record order from the file so memory and disk agree again.
    fn resync(&mut self) -> Result<(), ServeError> {
        let journal =
            Journal::open_append(&self.path).map_err(|e| ServeError::state(e.to_string()))?;
        let text = std::fs::read_to_string(&self.path)
            .map_err(|e| ServeError::io("re-reading the standby journal", &e))?;
        let held: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        self.order =
            RecordOrder::default().after(held.iter().copied()).map_err(ServeError::state)?;
        self.lines = held.len() as u64;
        self.journal = Some(journal);
        Ok(())
    }

    /// Applies a shipped batch: `base` is the number of lines the
    /// primary believes this standby already held, `lines` the journal
    /// lines from there on. Idempotent under re-ship — lines already
    /// held are skipped and the current cursor acknowledged — while a
    /// gap (`base` beyond the held count) is a typed error, never a
    /// silent hole. Before anything is written, every fresh line must
    /// CRC-verify and the batch must continue the held record order
    /// under [`RecordOrder`] (`Begin` then `SessionScenario` first,
    /// contiguous `Event` indices); the batch is then fsync'd once.
    ///
    /// Returns the new durable line count (the `ReplicaAck` cursor).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on gaps, damaged or out-of-order lines, or
    /// filesystem failures; [`ServeError::Io`] when the `repl.apply`
    /// failpoint fires. A refused batch leaves the held copy untouched,
    /// so a re-ship is refused the same way. After a gap or filesystem
    /// error the journal handle is dropped and the next apply
    /// resynchronizes from the durable file.
    pub fn apply(&mut self, base: u64, lines: &[String]) -> Result<u64, ServeError> {
        failpoint("repl.apply")?;
        if self.journal.is_none() {
            self.resync()?;
        }
        if base > self.lines {
            self.journal = None;
            return Err(ServeError::state(format!(
                "replication gap: standby holds {} lines but the primary shipped from {base}",
                self.lines
            )));
        }
        let already = (self.lines - base) as usize;
        if already >= lines.len() {
            return Ok(self.lines);
        }
        let fresh = &lines[already..];
        let order = self.order.after(fresh.iter().map(String::as_str)).map_err(|e| {
            ServeError::state(format!("refusing to replicate a journal batch: {e}"))
        })?;
        let journal = self.journal.as_mut().expect("resynced above");
        if let Err(e) = journal.append_raw_lines(fresh) {
            self.journal = None;
            return Err(ServeError::state(e.to_string()));
        }
        self.order = order;
        self.lines += fresh.len() as u64;
        tacc_obs::counter_add("ha.replicated", fresh.len() as u64);
        Ok(self.lines)
    }

    /// Promotes this standby: rebuilds a serving [`Session`] from the
    /// journal copy through [`Session::recover`] — the same path a
    /// `--recover` restart takes, so the promoted state (and the push
    /// seq-dedup record) is byte-identical to a recovered primary — and
    /// cross-checks the recovered cursor against the `Event` records
    /// held.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the `repl.promote` failpoint fires; plus
    /// everything [`Session::recover`] can return. The core stays a
    /// standby on error and keeps accepting replication.
    pub fn promote(&mut self) -> Result<Session, ServeError> {
        failpoint("repl.promote")?;
        // Recovery re-opens the file itself; drop our append handle.
        self.journal = None;
        let session = Session::recover(&self.cfg)?;
        if session.cursor() != self.order.events() {
            return Err(ServeError::state(format!(
                "promotion recovered cursor {} but the standby holds {} events",
                session.cursor(),
                self.order.events()
            )));
        }
        tacc_obs::counter_add("ha.failovers", 1);
        Ok(session)
    }
}
