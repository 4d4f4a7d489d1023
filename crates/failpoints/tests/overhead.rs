//! The unarmed contract, measured: with no failpoint spec armed, every
//! [`tacc_failpoints::check`] is a single relaxed atomic load and an
//! early return. This test times a tight probe loop and bounds the
//! per-probe cost in nanoseconds, mirroring the obs off-state gate.
//!
//! Lives in its own integration binary because failpoint arming is still
//! process-global (observability is thread-scoped and needs no such
//! care): the in-crate unit test exercises arming, this binary never
//! arms.

use std::hint::black_box;
use std::time::Instant;

#[test]
fn unarmed_probes_stay_near_free() {
    tacc_failpoints::disarm();
    assert!(!tacc_failpoints::armed());

    const ITERATIONS: u64 = 2_000_000;
    const PROBES_PER_ITERATION: u64 = 4;
    // Warm the instruction cache and the branch predictor.
    for _ in 0..10_000u64 {
        black_box(tacc_failpoints::check(black_box("journal.write"))).unwrap();
        black_box(tacc_failpoints::check(black_box("journal.fsync"))).unwrap();
        black_box(tacc_failpoints::check(black_box("socket.read"))).unwrap();
        black_box(tacc_failpoints::check(black_box("socket.write"))).unwrap();
    }

    let started = Instant::now();
    for _ in 0..ITERATIONS {
        black_box(tacc_failpoints::check(black_box("journal.write"))).unwrap();
        black_box(tacc_failpoints::check(black_box("journal.fsync"))).unwrap();
        black_box(tacc_failpoints::check(black_box("socket.read"))).unwrap();
        black_box(tacc_failpoints::check(black_box("socket.write"))).unwrap();
    }
    let elapsed = started.elapsed();
    let ns_per_probe =
        elapsed.as_nanos() as f64 / (ITERATIONS as f64 * PROBES_PER_ITERATION as f64);

    // An unarmed probe is ~1 ns on current hardware; the bounds leave an
    // order of magnitude of headroom for slow CI machines (and more for
    // unoptimized builds, where function calls are not inlined).
    let bound_ns = if cfg!(debug_assertions) { 400.0 } else { 25.0 };
    assert!(
        ns_per_probe < bound_ns,
        "unarmed probes cost {ns_per_probe:.1} ns each (bound {bound_ns} ns): \
         the off path is no longer near-free"
    );

    // And nothing was tallied while unarmed.
    assert!(tacc_failpoints::counts().is_empty());
}
