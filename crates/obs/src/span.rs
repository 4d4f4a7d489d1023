//! Scoped span timers and the per-phase profile tree.
//!
//! [`SpanGuard::enter`] (via the [`crate::span!`] macro) pushes a
//! `&'static str` phase name onto a thread-local stack and starts a
//! clock; dropping the guard pops the stack and folds the elapsed time
//! into the calling thread's obs scope ([`crate::Scope`]), whose profile
//! table is keyed by the full phase *path* (stack names joined with
//! `/`). Nested spans therefore build a tree —
//! `runtime.step/runtime.apply/runtime.repair` — and a parent's total
//! includes its children (the renderer derives self-time).
//!
//! Spans opened on worker threads (the `tacc-par` pool) start from that
//! thread's empty stack and appear as their own roots in the caller's
//! profile; cross-thread nesting is deliberately not modelled — the
//! aggregate per-phase totals are what the profile is for.
//!
//! When [`crate::enabled`] is false, `enter` returns an inert guard
//! without reading the clock or touching the span stack: the whole cost
//! is one switch load and one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

use crate::registry::format_ns;

/// Maximum span nesting depth folded into the profile; deeper spans
/// still time correctly but fold into their ancestor at this depth.
const MAX_DEPTH: usize = 16;

thread_local! {
    /// The open span names on this thread, innermost last.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Aggregated timings of one phase path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Times the span was entered.
    pub calls: u64,
    /// Total wall-clock nanoseconds across calls (children included).
    pub total_ns: u64,
    /// Longest single call, in nanoseconds.
    pub max_ns: u64,
}

impl PhaseStats {
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }
}

/// One scope's profile table: path (joined with '/') → stats. BTreeMap
/// keeps lexicographic order, which conveniently groups children right
/// after their parent.
#[derive(Debug, Default)]
pub(crate) struct Profile {
    phases: Mutex<BTreeMap<String, PhaseStats>>,
}

impl Profile {
    fn record(&self, path: String, ns: u64) {
        self.phases.lock().expect("profile lock").entry(path).or_default().record(ns);
    }

    pub(crate) fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot { phases: self.phases.lock().expect("profile lock").clone() }
    }

    pub(crate) fn clear(&self) {
        self.phases.lock().expect("profile lock").clear();
    }

    /// Adds `other`'s phase timings into this table.
    pub(crate) fn absorb(&self, other: &Profile) {
        let other = other.phases.lock().expect("profile lock").clone();
        let mut phases = self.phases.lock().expect("profile lock");
        for (path, theirs) in other {
            let mine = phases.entry(path).or_default();
            mine.calls += theirs.calls;
            mine.total_ns = mine.total_ns.saturating_add(theirs.total_ns);
            mine.max_ns = mine.max_ns.max(theirs.max_ns);
        }
    }
}

/// An open span; dropping it records the elapsed time. Construct
/// through [`crate::span!`] or [`SpanGuard::enter`].
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when obs is disabled — drop does nothing.
    start: Option<Instant>,
}

impl SpanGuard {
    /// Opens a span named `name` nested under this thread's currently
    /// open spans. Inert (no clock read, no span-stack access) when obs
    /// is disabled.
    #[inline(always)]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { start: None };
        }
        STACK.with(|stack| stack.borrow_mut().push(name));
        SpanGuard { start: Some(Instant::now()) }
    }
}

impl Drop for SpanGuard {
    #[inline(always)]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            close(start);
        }
    }
}

/// Ends the innermost open span on this thread, started at `start`.
fn close(start: Instant) {
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let path = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = stack[..stack.len().min(MAX_DEPTH)].join("/");
        stack.pop();
        path
    });
    crate::with_sinks(|sinks| sinks.profile.record(path, ns));
}

/// A point-in-time copy of the aggregated profile tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSnapshot {
    phases: BTreeMap<String, PhaseStats>,
}

impl ProfileSnapshot {
    /// The phases, as (`path`, stats) in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PhaseStats)> {
        self.phases.iter().map(|(path, stats)| (path.as_str(), stats))
    }

    /// Number of distinct phase paths recorded.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether no phase was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Total nanoseconds recorded under an exact phase path
    /// (`"a/b"`), if it was ever entered.
    pub fn phase_total_ns(&self, path: &str) -> Option<u64> {
        self.phases.get(path).map(|s| s.total_ns)
    }

    /// Sum of the *root* phases' totals — the profile's account of all
    /// instrumented wall-clock time (children are already inside their
    /// parents, so only depth-0 paths count).
    pub fn root_total_ns(&self) -> u64 {
        self.phases.iter().filter(|(path, _)| !path.contains('/')).map(|(_, s)| s.total_ns).sum()
    }

    /// Renders the profile as an indented tree: one line per phase with
    /// total time, share of its parent, calls, and self-time (total
    /// minus direct children).
    pub fn to_text(&self) -> String {
        if self.phases.is_empty() {
            return "(no spans recorded — is TACC_OBS on?)\n".to_owned();
        }
        let mut out = String::new();
        for (path, stats) in &self.phases {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().expect("split is never empty");
            let children_ns: u64 = self
                .phases
                .iter()
                .filter(|(p, _)| {
                    p.strip_prefix(path.as_str())
                        .and_then(|rest| rest.strip_prefix('/'))
                        .is_some_and(|rest| !rest.contains('/'))
                })
                .map(|(_, s)| s.total_ns)
                .sum();
            let self_ns = stats.total_ns.saturating_sub(children_ns);
            let parent_ns = if depth == 0 {
                self.root_total_ns()
            } else {
                let parent = &path[..path.rfind('/').expect("depth > 0")];
                self.phases.get(parent).map_or(stats.total_ns, |s| s.total_ns)
            };
            let share = if parent_ns == 0 {
                100.0
            } else {
                100.0 * stats.total_ns as f64 / parent_ns as f64
            };
            out.push_str(&format!(
                "{:indent$}{name:<width$} {:>9} {share:>5.1}%  calls {:<8} self {}\n",
                "",
                format_ns(stats.total_ns),
                stats.calls,
                format_ns(self_ns),
                indent = depth * 2,
                width = 28usize.saturating_sub(depth * 2),
            ));
        }
        out
    }

    /// JSON export of the flat phase table (wall-clock data — never part
    /// of the deterministic stream).
    pub fn to_json(&self) -> Value {
        let phases: Vec<(String, Value)> = self
            .phases
            .iter()
            .map(|(path, stats)| {
                (
                    path.clone(),
                    Value::Object(vec![
                        ("calls".to_owned(), Value::UInt(stats.calls)),
                        ("total_ns".to_owned(), Value::UInt(stats.total_ns)),
                        ("max_ns".to_owned(), Value::UInt(stats.max_ns)),
                    ]),
                )
            })
            .collect();
        Value::Object(phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_stats_accumulate() {
        let mut stats = PhaseStats::default();
        stats.record(10);
        stats.record(30);
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.total_ns, 40);
        assert_eq!(stats.max_ns, 30);
    }

    #[test]
    fn snapshot_tree_math_is_consistent() {
        let mut phases = BTreeMap::new();
        phases.insert("run".to_owned(), PhaseStats { calls: 1, total_ns: 100, max_ns: 100 });
        phases.insert("run/a".to_owned(), PhaseStats { calls: 2, total_ns: 60, max_ns: 40 });
        phases.insert("run/a/a1".to_owned(), PhaseStats { calls: 2, total_ns: 50, max_ns: 30 });
        phases.insert("run/b".to_owned(), PhaseStats { calls: 1, total_ns: 30, max_ns: 30 });
        let snap = ProfileSnapshot { phases };
        assert_eq!(snap.root_total_ns(), 100);
        assert_eq!(snap.phase_total_ns("run/a"), Some(60));
        assert_eq!(snap.phase_total_ns("missing"), None);
        let text = snap.to_text();
        // Indented tree: a1 sits two levels deep; "run" self-time is
        // 100 − (60 + 30) = 10ns.
        assert!(text.contains("a1"), "{text}");
        assert!(text.contains("self 10ns"), "{text}");
        let json = serde_json::to_string(&snap.to_json()).unwrap();
        assert!(json.contains("\"run/a/a1\""), "{json}");
    }

    #[test]
    fn empty_profile_renders_a_hint() {
        let snap = ProfileSnapshot::default();
        assert!(snap.is_empty());
        assert!(snap.to_text().contains("TACC_OBS"));
    }
}
