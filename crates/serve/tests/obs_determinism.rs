//! Same-seed sessions emit *byte-identical* obs streams: plain, zoned,
//! overloaded, and two zoned sessions running at once on two threads.
//! Each test records into its own thread's obs scope, so the tests of
//! this binary run side by side under the default parallel harness
//! without seeing each other's counters.

use std::path::{Path, PathBuf};

use tacc_proto::Response;
use tacc_runtime::{ReassignPolicy, RuntimeConfig};
use tacc_serve::{ServeConfig, Session};
use tacc_workload::{SurgeGenerator, Trace, TraceGenerator, TraceScenario};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacc-serve-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn two_same_seed_sessions_emit_byte_identical_obs_streams() {
    let scenario =
        TraceScenario { num_iot: 25, num_servers: 4, load_factor: 0.6, ..TraceScenario::default() };
    let trace = TraceGenerator::new(scenario).num_events(400).generate(77).unwrap();
    let shell = Trace { events: Vec::new(), ..trace.clone() };
    let config =
        RuntimeConfig { policy: ReassignPolicy::Greedy, seed: 7, ..RuntimeConfig::default() };

    let dir = temp_dir("obs");
    let mut streams = Vec::new();
    for run in 0..2 {
        let out = dir.join(format!("run{run}.jsonl"));
        let cfg = ServeConfig { obs_out: Some(out.clone()), ..ServeConfig::default() };
        // A clean registry per run: same starting counters, same stream.
        tacc_obs::reset();
        tacc_obs::set_enabled(true);
        let mut session = Session::start(shell.clone(), config.clone(), &cfg).unwrap();
        for burst in trace.events.chunks(50) {
            session.push(burst.to_vec(), 0).unwrap();
        }
        session.flush().unwrap();
        session.solve(300).unwrap();
        session.close().unwrap();
        streams.push(std::fs::read(&out).unwrap());
        assert!(!streams[run].is_empty(), "the stream actually recorded the session");
    }
    assert_eq!(streams[0], streams[1], "same seed, same bytes");
    std::fs::remove_dir_all(&dir).ok();
}

/// Overload is *observable and deterministic*: a scripted session that
/// sheds, browns out, and recovers emits a byte-identical stream on
/// every same-seed run — overload records, brownout-stamped solve
/// records, `surge.*` counters and all.
#[test]
fn an_overloaded_session_is_deterministically_observable() {
    let scenario =
        TraceScenario { num_iot: 25, num_servers: 4, load_factor: 0.6, ..TraceScenario::default() };
    let trace = SurgeGenerator::new(scenario.clone())
        .horizon_ms(8_000.0)
        .tick_ms(250.0)
        .flash_crowds(2)
        .generate(21)
        .unwrap();
    let shell = Trace { events: Vec::new(), ..trace.clone() };
    let config =
        RuntimeConfig { policy: ReassignPolicy::Greedy, seed: 7, ..RuntimeConfig::default() };

    let dir = temp_dir("surge-obs");
    let mut streams = Vec::new();
    for run in 0..2 {
        let out = dir.join(format!("run{run}.jsonl"));
        // A parking config with a tight cap: the scripted burst schedule
        // below sheds, retries after a drain, and recovers — the same
        // way every run, because nothing here reads a clock.
        let cfg = ServeConfig {
            batch_size: 1000,
            max_pending: 30,
            obs_out: Some(out.clone()),
            ..ServeConfig::default()
        };
        tacc_obs::reset();
        tacc_obs::set_enabled(true);
        let mut session = Session::start(shell.clone(), config.clone(), &cfg).unwrap();
        let mut shed = 0usize;
        for burst in trace.events.chunks(20) {
            match session.push(burst.to_vec(), 0).unwrap() {
                Response::Accepted { .. } => {}
                Response::Overloaded { .. } => {
                    // The scripted retry: drain, then re-send the burst.
                    shed += 1;
                    session.flush().unwrap();
                    let retried = session.push(burst.to_vec(), 0).unwrap();
                    assert!(matches!(retried, Response::Accepted { .. }), "got {retried:?}");
                }
                other => panic!("push answered {other:?}"),
            }
        }
        assert!(shed > 0, "the schedule actually overloads");
        // A brownout solve (the ladder is above L2 right after a string
        // of sheds) and, after calm pushes, a recovered one.
        session.flush().unwrap();
        session.solve(300).unwrap();
        session.close().unwrap();

        let stream = std::fs::read_to_string(&out).unwrap();
        assert!(stream.contains("\"overload\""), "overload decisions are recorded");
        assert!(stream.contains("\"brownout\""), "solve records carry the brownout label");
        assert!(stream.contains("surge.degrades"), "ladder transitions are counted");
        assert!(stream.contains("serve.backpressure.rejects"), "sheds are counted");
        streams.push(stream.into_bytes());
    }
    assert_eq!(streams[0], streams[1], "same seed, same bytes — overload included");
    std::fs::remove_dir_all(&dir).ok();
}

fn zoned_fixtures() -> (Trace, Trace, RuntimeConfig) {
    let scenario =
        TraceScenario { num_iot: 30, num_servers: 6, load_factor: 0.6, ..TraceScenario::default() };
    let trace = TraceGenerator::new(scenario).num_events(300).generate(91).unwrap();
    let shell = Trace { events: Vec::new(), ..trace.clone() };
    let config =
        RuntimeConfig { policy: ReassignPolicy::Greedy, seed: 13, ..RuntimeConfig::default() };
    (trace, shell, config)
}

/// One zoned session (`zones: 3`) on the calling thread's obs scope,
/// from a clean registry: pushes the trace, solves, closes, and returns
/// the stream it wrote to `out`.
fn zoned_session_stream(
    trace: &Trace,
    shell: &Trace,
    config: &RuntimeConfig,
    out: &Path,
) -> Vec<u8> {
    let cfg = ServeConfig { zones: 3, obs_out: Some(out.to_path_buf()), ..ServeConfig::default() };
    tacc_obs::reset();
    tacc_obs::set_enabled(true);
    let mut session = Session::start(shell.clone(), config.clone(), &cfg).unwrap();
    for burst in trace.events.chunks(40) {
        session.push(burst.to_vec(), 0).unwrap();
    }
    session.flush().unwrap();
    let response = session.solve(400).unwrap();
    match response {
        Response::Solution { feasible, objective, solver, assignment, .. } => {
            assert!(feasible, "zoned solve must respect capacities");
            assert!(objective.is_finite() && objective > 0.0);
            assert_eq!(solver, "zoned:q-learning");
            assert!(!assignment.is_empty(), "active devices got servers");
            for &(_, server) in &assignment {
                assert!(server < 6, "assigned server {server} out of range");
            }
        }
        other => panic!("expected a solution, got {other:?}"),
    }
    session.close().unwrap();
    std::fs::read(out).unwrap()
}

/// The zone-decomposed Solve path: answers stay feasible and target
/// alive servers, and two same-seed zoned sessions are byte-identical —
/// including the `zones` stream records.
#[test]
fn zoned_solve_answers_are_feasible_and_deterministic() {
    let (trace, shell, config) = zoned_fixtures();
    let dir = temp_dir("zoned");
    let streams: Vec<Vec<u8>> = (0..2)
        .map(|run| {
            zoned_session_stream(&trace, &shell, &config, &dir.join(format!("run{run}.jsonl")))
        })
        .collect();
    assert_eq!(streams[0], streams[1], "same seed, same bytes (zones on)");
    let text = String::from_utf8(streams[0].clone()).unwrap();
    assert!(text.contains("\"kind\":\"zones\""), "stream carries the zones record:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Two same-seed zoned sessions running *at once*, each on its own
/// thread, write the same bytes as one session running alone: neither
/// session's `registry` record picks up the other's counters, and the
/// zone workers of each record into their own session's scope.
#[test]
fn concurrent_same_seed_zoned_sessions_emit_byte_identical_streams() {
    let (trace, shell, config) = zoned_fixtures();
    let dir = temp_dir("zoned-concurrent");
    let alone = zoned_session_stream(&trace, &shell, &config, &dir.join("alone.jsonl"));
    let start = std::sync::Barrier::new(2);
    let concurrent: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let runs: Vec<_> = (0..2)
            .map(|run| {
                let (trace, shell, config, dir, start) = (&trace, &shell, &config, &dir, &start);
                scope.spawn(move || {
                    start.wait();
                    zoned_session_stream(trace, shell, config, &dir.join(format!("run{run}.jsonl")))
                })
            })
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    assert_eq!(concurrent[0], concurrent[1], "two sessions at once, same bytes");
    assert_eq!(concurrent[0], alone, "running beside another session changes nothing");
    let text = String::from_utf8(alone).unwrap();
    let registry = text.lines().last().unwrap();
    assert!(registry.contains("\"kind\":\"registry\""), "{registry}");
    assert!(registry.contains("\"rl.episodes\""), "the solve is counted: {registry}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_zone_config_stays_on_the_flat_path() {
    let (trace, shell, config) = zoned_fixtures();
    let mut flat = Session::start(shell.clone(), config.clone(), &ServeConfig::default()).unwrap();
    let mut one =
        Session::start(shell, config, &ServeConfig { zones: 1, ..ServeConfig::default() }).unwrap();
    for burst in trace.events.chunks(40) {
        flat.push(burst.to_vec(), 0).unwrap();
        one.push(burst.to_vec(), 0).unwrap();
    }
    let a = flat.solve(200).unwrap();
    let b = one.solve(200).unwrap();
    match (a, b) {
        (
            Response::Solution { objective: oa, solver: sa, assignment: aa, .. },
            Response::Solution { objective: ob, solver: sb, assignment: ab, .. },
        ) => {
            assert_eq!(oa.to_bits(), ob.to_bits(), "zones<=1 is the identical flat path");
            assert_eq!(sa, sb);
            assert_eq!(aa, ab);
        }
        other => panic!("expected two solutions, got {other:?}"),
    }
}
