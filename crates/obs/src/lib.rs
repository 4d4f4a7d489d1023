//! Zero-cost-when-off observability for the TACC workspace.
//!
//! Three pieces, all dependency-free and all inert unless switched on:
//!
//! - a [`Registry`] of named **counters**, **gauges** and fixed-bucket
//!   **histograms**, with [`RegistrySnapshot`] /
//!   [`RegistrySnapshot::diff`] and deterministic text + JSON export;
//! - **span-style scoped timers** ([`span!`]) that aggregate into a
//!   per-phase profile tree ([`ProfileSnapshot`]) rendered by
//!   `tacc obs-report`;
//! - a stable-schema **JSONL event stream** ([`StreamWriter`]) behind
//!   `run-trace --obs-out` / `solve --obs-out`, byte-identical across
//!   replays of the same seed.
//!
//! # Scopes
//!
//! The switch, the registry and the profile table belong to the calling
//! thread's obs [`Scope`], created fresh the first time the thread
//! touches obs. Every free function here — [`enabled`],
//! [`set_enabled`], [`counter_add`], [`registry_snapshot`], [`reset`],
//! [`span!`] and the rest — acts on that scope only; two sessions on two
//! threads never see each other's metrics. `tacc-par` runs each parallel
//! job in a [`Scope::fork`] of the caller's scope and folds the forks
//! back in job order ([`Scope::absorb`]), so parallel work leaves the
//! caller's registry exactly as a serial run would. There is no
//! process-wide mutable state.
//!
//! # The `TACC_OBS` switch
//!
//! Everything is gated on [`enabled`]. A new scope reads its switch from
//! the `TACC_OBS` environment variable (`1`/`true`/`on`/`yes`,
//! case-insensitive). With the switch off — the default — every entry
//! point is a thread-local load and a branch: [`span!`] constructs a
//! guard with no clock read and no span-stack touch, counter and
//! histogram calls return before formatting anything, and no lock is
//! ever taken. The `delay_matrix` and solver-portfolio benches bound the
//! off-path tax at ≤1% (see `DESIGN.md` § Observability).
//!
//! Harnesses that *want* instrumentation regardless of the environment
//! (the `tacc obs-report` command, tests) call [`set_enabled`] on the
//! thread that runs the workload, before the first metric touch.
//!
//! # Determinism contract
//!
//! Counters and gauges record *deterministic* quantities (event counts,
//! objective values); **value histograms** ([`observe`]) likewise. Only
//! **time histograms** ([`observe_time`]) and span timings hold
//! wall-clock measurements. Exports honour the split: the JSONL stream
//! and `RegistrySnapshot::to_json(false)` carry the deterministic
//! metrics only, so two replays of the same seed produce byte-identical
//! streams; `obs-report` and `to_json(true)` add the timing sections.
//!
//! # Example
//!
//! ```
//! tacc_obs::set_enabled(true);
//! {
//!     let _span = tacc_obs::span!("demo.phase");
//!     tacc_obs::counter_add("demo.widgets", 3);
//!     tacc_obs::observe("demo.batch_size", 128);
//! }
//! let registry = tacc_obs::registry_snapshot();
//! assert_eq!(registry.counter("demo.widgets"), Some(3));
//! assert!(tacc_obs::profile_snapshot().phase_total_ns("demo.phase").is_some());
//!
//! // Another thread has its own scope: nothing recorded above shows.
//! let elsewhere = std::thread::spawn(tacc_obs::registry_snapshot).join().unwrap();
//! assert!(elsewhere.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod registry;
pub mod report;
pub mod span;
pub mod stream;

use std::cell::{Cell, RefCell};
use std::sync::Arc;

pub use registry::{FixedHistogram, MetricValue, Registry, RegistrySnapshot};
pub use report::render;
pub use span::{ProfileSnapshot, SpanGuard};
pub use stream::{StreamWriter, STREAM_VERSION};

/// Environment variable switching instrumentation on (`1`, `true`, `on`,
/// `yes`; case-insensitive).
pub const OBS_ENV: &str = "TACC_OBS";

const UNRESOLVED: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

thread_local! {
    /// This thread's switch: `UNRESOLVED` until first touch.
    static SWITCH: Cell<u8> = const { Cell::new(UNRESOLVED) };
    /// This thread's registry and profile table; `None` until first use.
    static SINKS: RefCell<Option<Arc<Sinks>>> = const { RefCell::new(None) };
}

/// Where a scope's metrics and spans go.
#[derive(Debug, Default)]
struct Sinks {
    registry: Registry,
    profile: span::Profile,
}

/// A handle on one thread's obs scope, to hand to another thread. The
/// receiving thread takes the switch as it stood when the handle was
/// made, and shares the registry and profile table with the giver.
#[derive(Debug, Clone)]
pub struct Scope {
    on: bool,
    sinks: Arc<Sinks>,
}

impl Scope {
    /// The calling thread's scope, created on first touch.
    pub fn current() -> Scope {
        Scope { on: enabled(), sinks: with_sinks(Arc::clone) }
    }

    /// Makes this the calling thread's scope, replacing any scope the
    /// thread had. A worker thread calls this before its first probe so
    /// that its switch, metrics and spans are those of the thread that
    /// handed the scope over.
    pub fn adopt(self) {
        set_enabled(self.on);
        SINKS.with(|slot| *slot.borrow_mut() = Some(self.sinks));
    }

    /// A new, empty scope with this scope's switch, for one job of a
    /// parallel fan-out. Folding each job's fork back with
    /// [`Scope::absorb`] in job order leaves this scope exactly as a
    /// serial run of the jobs would, gauges included.
    pub fn fork(&self) -> Scope {
        Scope { on: self.on, sinks: Arc::default() }
    }

    /// Folds everything recorded in `child` into this scope, as if it had
    /// been recorded here: counters, histograms and span timings add up,
    /// gauges take `child`'s reading.
    pub fn absorb(&self, child: &Scope) {
        self.sinks.registry.absorb(&child.sinks.registry);
        self.sinks.profile.absorb(&child.sinks.profile);
    }
}

/// Whether instrumentation is live in the calling thread's scope. The
/// first call on a thread reads [`OBS_ENV`]; after that this is one
/// thread-local byte load and a branch — the entire cost of every
/// disabled [`span!`] / counter call. The probes are always inlined so
/// that unoptimized builds pay no call overhead on top.
#[inline(always)]
pub fn enabled() -> bool {
    match SWITCH.with(|switch| switch.get()) {
        OFF => false,
        ON => true,
        _ => resolve_from_env(),
    }
}

#[cold]
fn resolve_from_env() -> bool {
    let on = std::env::var(OBS_ENV)
        .is_ok_and(|v| matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes"));
    set_enabled(on);
    on
}

/// Switches instrumentation on or off in the calling thread's scope,
/// overriding [`OBS_ENV`]. Used by `tacc obs-report` (which always wants
/// the profile), `--obs-out`, and tests.
pub fn set_enabled(on: bool) {
    SWITCH.with(|switch| switch.set(if on { ON } else { OFF }));
}

/// Runs `f` on the calling thread's registry and profile table,
/// creating them on first use.
fn with_sinks<R>(f: impl FnOnce(&Arc<Sinks>) -> R) -> R {
    SINKS.with(|slot| f(slot.borrow_mut().get_or_insert_with(Arc::default)))
}

/// Adds `n` to the named counter. No-op when disabled.
#[inline(always)]
pub fn counter_add(name: &'static str, n: u64) {
    if enabled() {
        with_sinks(|sinks| sinks.registry.counter_add(name, n));
    }
}

/// Sets the named gauge to `value`. No-op when disabled.
#[inline(always)]
pub fn gauge_set(name: &'static str, value: f64) {
    if enabled() {
        with_sinks(|sinks| sinks.registry.gauge_set(name, value));
    }
}

/// Records a deterministic quantity into the named value histogram.
/// No-op when disabled.
#[inline(always)]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        with_sinks(|sinks| sinks.registry.observe(name, value));
    }
}

/// Records a wall-clock duration into the named time histogram (in
/// nanoseconds). Time histograms are measurements, not state: they are
/// excluded from deterministic exports. No-op when disabled.
#[inline(always)]
pub fn observe_time(name: &'static str, elapsed: std::time::Duration) {
    if enabled() {
        with_sinks(|sinks| sinks.registry.observe_time(name, elapsed));
    }
}

/// A point-in-time copy of the calling thread's registry.
pub fn registry_snapshot() -> RegistrySnapshot {
    with_sinks(|sinks| sinks.registry.snapshot())
}

/// A point-in-time copy of the calling thread's profile tree.
pub fn profile_snapshot() -> ProfileSnapshot {
    with_sinks(|sinks| sinks.profile.snapshot())
}

/// Clears the calling thread's registry and profile tree. For harnesses
/// that run several instrumented workloads one after another on one
/// thread (`tacc obs-report`, tests) and want each report to start from
/// zero.
pub fn reset() {
    with_sinks(|sinks| {
        sinks.registry.clear();
        sinks.profile.clear();
    });
}

/// Opens a scoped timer that aggregates into the profile tree under the
/// given `&'static str` name, nested inside any enclosing span on the
/// same thread. Bind the guard (`let _span = ...`) — dropping it ends
/// the span. Compiled down to a load-and-branch when obs is off.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_inert() {
        set_enabled(false);
        counter_add("off.counter", 5);
        observe("off.hist", 1);
        observe_time("off.time", std::time::Duration::from_micros(1));
        {
            let _span = span!("off.span");
        }
        assert_eq!(registry_snapshot().counter("off.counter"), None);
        assert!(profile_snapshot().is_empty());
    }

    #[test]
    fn enabled_round_trip_through_the_globals() {
        set_enabled(true);
        counter_add("on.counter", 2);
        counter_add("on.counter", 3);
        gauge_set("on.gauge", 1.5);
        observe("on.values", 7);
        {
            let _outer = span!("on.outer");
            let _inner = span!("on.inner");
        }
        let registry = registry_snapshot();
        assert_eq!(registry.counter("on.counter"), Some(5));
        let profile = profile_snapshot();
        assert!(profile.phase_total_ns("on.outer").is_some());
        assert!(profile.phase_total_ns("on.outer/on.inner").is_some());
        reset();
        assert!(registry_snapshot().is_empty());
        assert!(profile_snapshot().is_empty());
    }

    #[test]
    fn adopted_scopes_are_shared_and_other_threads_stay_apart() {
        set_enabled(true);
        let mine = Scope::current();
        let adopter = std::thread::spawn(move || {
            mine.adopt();
            assert!(enabled(), "the switch comes with the scope");
            counter_add("shared.counter", 2);
            let _span = span!("shared.span");
        });
        adopter.join().unwrap();
        let stranger = std::thread::spawn(|| {
            set_enabled(true);
            counter_add("stranger.counter", 1);
            registry_snapshot()
        });
        let theirs = stranger.join().unwrap();
        let registry = registry_snapshot();
        assert_eq!(registry.counter("shared.counter"), Some(2));
        assert_eq!(registry.counter("stranger.counter"), None);
        assert!(profile_snapshot().phase_total_ns("shared.span").is_some());
        assert_eq!(theirs.counter("shared.counter"), None);
        assert_eq!(theirs.counter("stranger.counter"), Some(1));
    }

    #[test]
    fn disabled_span_overhead_is_negligible() {
        set_enabled(false);
        // 10M disabled spans must be load-and-branch cheap. The bound is
        // deliberately loose (50ns/op ≈ 100× the expected cost) so slow
        // shared CI machines never flake, while a regression that starts
        // reading the clock or taking the lock (~1µs/op under
        // contention) still fails loudly.
        const ITERS: u64 = 10_000_000;
        let start = std::time::Instant::now();
        for _ in 0..ITERS {
            let _span = span!("overhead.probe");
            counter_add("overhead.counter", 1);
        }
        let per_op = start.elapsed().as_nanos() as f64 / ITERS as f64;
        assert!(per_op < 50.0, "disabled obs costs {per_op:.1}ns per span+counter");
        assert_eq!(registry_snapshot().counter("overhead.counter"), None);
    }
}
