//! Wire-level benchmark of the `tacc serve` daemon.
//!
//! ```text
//! wirebench --tacc PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the release daemon on a Unix socket with its journal on, drives
//! it through the public proto API for `--seconds` seconds of rounds,
//! checks every answer it can against an in-process replay, and prints a
//! report followed by one JSON result line. `--trace 1` also replays the
//! first round in-process with a span around every layer call and prints
//! the per-layer metrics instead of the end-to-end ones. See `README.md`
//! for the workloads and the metric → layer → workload map.

mod meta;
mod replay;
mod stats;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{mean, median, Outcome, Summary, Tally};
use workload::{Bench, Inputs, Kind, Rec, Round, Spec};

/// Rounds per run at least, so `setup_s` is a median of several.
const MIN_ROUNDS: usize = 3;

/// End-to-end metrics, in `BENCHMARK.json` order: those every workload
/// has whose spread between runs stays well inside their bound (see
/// `README.md`); the rest are printed in the report only.
const END_TO_END: [&str; 4] =
    ["setup_s", "ingest_events_per_s", "query_p95_ms", "final_total_delay_ms"];

/// Per-layer metrics every workload has, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 20] = [
    "proto.decode_us",
    "proto.encode_us",
    "proto.request_bytes",
    "proto.response_bytes",
    "serve.push_self_us",
    "serve.flush_events",
    "serve.conn_wait_ms",
    "journal.append_us",
    "journal.fsyncs",
    "journal.bytes_per_event",
    "journal.snapshot_bytes",
    "journal.snapshot_us",
    "runtime.step_join_us",
    "runtime.step_leave_us",
    "runtime.step_drift_us",
    "runtime.delay_updates",
    "runtime.repair_settled",
    "runtime.migrations",
    "runtime.snapshot_us",
    "topology.delay_matrix_ms",
];

#[derive(Debug)]
struct Args {
    tacc: PathBuf,
    out: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let value = argv.next().ok_or_else(|| format!("--{name} needs a value"))?;
        map.insert(name.to_owned(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|_| format!("--{k} expects a number"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    Ok(Args {
        tacc: PathBuf::from(get("tacc")?),
        out: PathBuf::from(get("out")?),
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|_| "--seed expects an integer".to_owned())?,
        seconds: num("seconds")?,
        trace,
    })
}

/// One metric as measured.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name: name.to_owned(), value, unit, samples, note: String::new() }
}

/// Latencies of answered requests of one kind, over all rounds.
fn latencies(rounds: &[Round], kind: Kind) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.recs)
        .filter(|r| r.op.kind() == kind && matches!(r.outcome, Outcome::Ok | Outcome::OverLimit))
        .map(|r| r.latency_ms)
        .collect()
}

/// `<kind>_p50_ms` and `<kind>_p<tail>_ms`, the tail annotated with the
/// ten-samples-beyond rule.
fn latency_metrics(out: &mut Vec<Metric>, rounds: &[Round], kind: Kind, tails: &[f64]) {
    let samples = latencies(rounds, kind);
    if samples.is_empty() {
        return;
    }
    let name = kind.name();
    out.push(metric(
        &format!("{name}_p50_ms"),
        Summary::of(&samples, 50.0).p50,
        "ms",
        samples.len(),
    ));
    for &tail_p in tails {
        tail_metric(out, &samples, name, tail_p);
    }
}

fn tail_metric(out: &mut Vec<Metric>, samples: &[f64], name: &str, tail_p: f64) {
    let s = Summary::of(samples, tail_p);
    let mut tail = metric(&format!("{name}_p{tail_p}_ms"), s.tail, "ms", s.n);
    tail.note = if s.tail_ok() {
        format!("{} samples beyond", s.beyond)
    } else {
        let valid = stats::highest_valid_percentile(s.n, &[50.0, 75.0, 90.0, 95.0, 99.0, 99.9]);
        format!(
            "only {} samples beyond p{tail_p}; highest percentile with 10 beyond: {}",
            s.beyond,
            valid.map_or("none".to_owned(), |p| format!("p{p}"))
        )
    };
    out.push(tail);
}

fn tallies(rounds: &[Round]) -> BTreeMap<(u8, Kind), Tally> {
    let mut t: BTreeMap<(u8, Kind), Tally> = BTreeMap::new();
    for r in rounds.iter().flat_map(|r| &r.recs) {
        t.entry((r.conn, r.op.kind())).or_default().record(r.outcome);
    }
    t
}

fn end_to_end(spec: &Spec, rounds: &[Round], total: &Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    out.push(metric("setup_s", median(&setups), "s", setups.len()));
    let acked: u64 = rounds.iter().map(Round::events_acked).sum();
    let body: f64 = rounds.iter().map(|r| r.body_s).sum();
    out.push(metric("ingest_events_per_s", acked as f64 / body, "1/s", rounds.len()));
    // p95: the highest percentile with ten samples beyond it on every
    // workload (solve-rl sends the fewest pushes); p99 is reported too.
    latency_metrics(&mut out, rounds, Kind::Push, &[95.0, 99.0]);
    latency_metrics(&mut out, rounds, Kind::Query, &[95.0, 99.0]);
    out.push(metric("final_total_delay_ms", rounds[0].end.total_delay_ms, "ms", 1));

    // Metrics of single workloads: reported, not in BENCHMARK.json,
    // which lists only metrics every workload has.
    latency_metrics(&mut out, rounds, Kind::Solve, &[90.0]);
    let objectives: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.recs)
        .filter_map(|r| r.solution.as_ref().map(|s| s.objective))
        .collect();
    if !objectives.is_empty() {
        out.push(metric("solve_objective_ms", mean(&objectives), "ms", objectives.len()));
    }
    let failovers: Vec<f64> = rounds.iter().filter_map(|r| r.failover_s).collect();
    if !failovers.is_empty() {
        out.push(metric("failover_s", median(&failovers), "s", failovers.len()));
    }
    if spec.open_loop.is_some() {
        let good = rounds
            .iter()
            .flat_map(|r| &r.recs)
            .filter(|r| r.conn == 1 && r.outcome == Outcome::Ok)
            .count();
        let ops = rounds.iter().flat_map(|r| &r.recs).filter(|r| r.conn == 1).count();
        let mut m = metric("op_goodput_per_s", good as f64 / body, "1/s", ops);
        m.note = format!("operator answers within {} ms", workload::OP_LIMIT_MS);
        out.push(m);
        let from_due: Vec<f64> =
            rounds.iter().flat_map(|r| &r.recs).filter_map(|r| r.from_due_ms).collect();
        out.push(metric(
            "push_from_due_p50_ms",
            Summary::of(&from_due, 50.0).p50,
            "ms",
            from_due.len(),
        ));
        tail_metric(&mut out, &from_due, "push_from_due", 95.0);
        let lateness: Vec<f64> =
            rounds.iter().flat_map(|r| r.lateness_ms.iter().copied()).collect();
        let s = Summary::of(&lateness, 99.0);
        let mut m = metric("loadgen.lateness_p99_ms", s.tail, "ms", s.n);
        m.note = format!("bound {} ms", workload::LATENESS_BOUND_MS);
        out.push(m);
    }
    out.push(metric("error_ratio", total.error_ratio(), "ratio", total.attempted as usize));
    let per_event: Vec<f64> =
        rounds.iter().map(|r| r.journal_bytes as f64 / r.events_acked().max(1) as f64).collect();
    out.push(metric("journal_bytes_per_event", median(&per_event), "B", rounds.len()));
    out
}

/// Checks that need no replay: per-round end state, determinism across
/// rounds, failures the workload never expects.
fn round_checks(spec: &Spec, rounds: &[Round], t: &BTreeMap<(u8, Kind), Tally>) -> Vec<String> {
    let mut failures = Vec::new();
    for (k, r) in rounds.iter().enumerate() {
        if r.end.cursor != r.events_acked() {
            failures.push(format!(
                "round {k}: Stats cursor {} but {} events acknowledged",
                r.end.cursor,
                r.events_acked()
            ));
        }
        if !r.end.feasible || r.end.pending != 0 {
            failures.push(format!(
                "round {k}: end state feasible={} pending={}",
                r.end.feasible, r.end.pending
            ));
        }
        if k > 0 && r.end != rounds[0].end {
            failures.push(format!("round {k}: end state differs from round 0"));
        }
        if spec.open_loop.is_none() && k > 0 {
            let sols = |r: &Round| -> Vec<f64> {
                r.recs.iter().filter_map(|x| x.solution.as_ref().map(|s| s.objective)).collect()
            };
            if sols(r) != sols(&rounds[0]) {
                failures.push(format!("round {k}: Solve answers differ from round 0"));
            }
        }
        for rec in &r.recs {
            if let Some(sol) = &rec.solution {
                if !sol.feasible {
                    failures.push(format!("round {k}: an infeasible Solution"));
                }
            }
        }
    }
    if spec.ha && rounds.iter().any(|r| r.failover_s.is_none()) {
        failures.push("a round did not fail over".into());
    }
    for ((conn, kind), tally) in t {
        // The gateway and closed loops never expect errors; the starved
        // operator of ops-2conn may time out or miss its limit.
        let unexpected = if *conn == 0 { tally.failed() } else { tally.error };
        if unexpected > 0 && (spec.open_loop.is_none() || *conn == 0) {
            failures.push(format!(
                "{} unexpected {} failures on connection {conn}",
                unexpected,
                kind.name()
            ));
        }
    }
    if spec.open_loop.is_some() {
        let lateness: Vec<f64> =
            rounds.iter().flat_map(|r| r.lateness_ms.iter().copied()).collect();
        let p99 = Summary::of(&lateness, 99.0).tail;
        if p99 > workload::LATENESS_BOUND_MS {
            failures.push(format!(
                "the open-loop gateway ran {p99:.3} ms late at p99 (bound {} ms): invalid run",
                workload::LATENESS_BOUND_MS
            ));
        }
    }
    failures
}

/// The traced run's per-layer metrics and reconciliation table.
fn traced_report(
    rounds: &[Round],
    replayed: &replay::Replayed,
    report: &mut Vec<String>,
) -> Vec<Metric> {
    let round0 = &rounds[0];
    let mut layer_metrics: Vec<Metric> = Vec::new();
    let splits = &replayed.splits;
    let spans = replayed.spans.as_ref().expect("traced replay keeps its spans");
    let per_req = |name: &str| -> f64 {
        spans.total_in_requests(name) as f64 / splits.len().max(1) as f64 / 1e3
    };
    layer_metrics.push(metric("proto.decode_us", per_req("proto.decode"), "us", splits.len()));
    layer_metrics.push(metric("proto.encode_us", per_req("proto.encode"), "us", splits.len()));
    let bytes = |f: fn(&Rec) -> usize| -> Vec<f64> {
        rounds.iter().flat_map(|r| &r.recs).map(|r| f(r) as f64).filter(|&b| b > 0.0).collect()
    };
    let req_bytes = bytes(|r| r.request_bytes);
    let resp_bytes = bytes(|r| r.response_bytes);
    layer_metrics.push(metric("proto.request_bytes", mean(&req_bytes), "B", req_bytes.len()));
    layer_metrics.push(metric("proto.response_bytes", mean(&resp_bytes), "B", resp_bytes.len()));
    let push_self: Vec<f64> = splits
        .iter()
        .filter(|s| s.kind == Kind::Push)
        .map(|s| s.layers.get("serve").copied().unwrap_or(0) as f64 / 1e3)
        .collect();
    layer_metrics.push(metric("serve.push_self_us", median(&push_self), "us", push_self.len()));
    // Solves are left out: the program's own rl spans, live during the
    // replay, slow the in-process solve more than the wire adds.
    let residual: Vec<f64> = splits
        .iter()
        .filter(|s| s.kind != Kind::Solve)
        .map(|s| round0.recs[s.rec].latency_ms - s.inproc_ns as f64 / 1e6)
        .collect();
    layer_metrics.push(metric("serve.conn_wait_ms", mean(&residual), "ms", residual.len()));
    for (name, value, unit) in &replayed.layer_metrics {
        layer_metrics.push(metric(name, *value, unit, 1));
    }
    let t = tallies(rounds);
    let pushes: u64 = t.iter().filter(|(k, _)| k.1 == Kind::Push).map(|(_, v)| v.attempted).sum();
    let shed: u64 = t.iter().filter(|(k, _)| k.1 == Kind::Push).map(|(_, v)| v.overloaded).sum();
    layer_metrics.push(metric(
        "serve.overloaded_ratio",
        shed as f64 / pushes.max(1) as f64,
        "ratio",
        pushes as usize,
    ));

    // Reconciliation: per request type, layer self-times + residual =
    // wire latency of the same request in the traced wire round.
    report.push("reconciliation (traced wire round 0 vs in-process replay of it; us)".into());
    for kind in Kind::ALL {
        let mine: Vec<&replay::ReqSplit> = splits.iter().filter(|s| s.kind == kind).collect();
        if mine.is_empty() {
            continue;
        }
        let wire: Vec<f64> = mine.iter().map(|s| round0.recs[s.rec].latency_ms * 1e3).collect();
        let inproc: Vec<f64> = mine.iter().map(|s| s.inproc_ns as f64 / 1e3).collect();
        let resid: Vec<f64> = wire.iter().zip(&inproc).map(|(w, i)| w - i).collect();
        let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in &mine {
            for (l, ns) in &s.layers {
                layers.entry(l.as_str()).or_default().push(*ns as f64 / 1e3);
            }
        }
        report.push(format!("  {} n={}", kind.name(), mine.len()));
        let mut sum_means = 0.0;
        for (l, v) in &layers {
            // Layers absent from some requests count as zero there.
            let m = v.iter().sum::<f64>() / mine.len() as f64;
            sum_means += m;
            report.push(format!(
                "    {l:<10} self mean {m:>12.1}  median {:>12.1} (over the {} requests it ran in)",
                median(v),
                v.len()
            ));
        }
        let resid_mean = mean(&resid);
        report.push(format!(
            "    {:<10} mean {:>12.1}  median {:>12.1}",
            "residual",
            resid_mean,
            median(&resid)
        ));
        report.push(format!(
            "    {:<10} mean {:>12.1}  median {:>12.1}   layers+residual {:>12.1} (accounts: {})",
            "wire",
            mean(&wire),
            median(&wire),
            sum_means + resid_mean,
            (sum_means + resid_mean - mean(&wire)).abs() <= 1e-6 * mean(&wire).abs().max(1.0)
        ));
        let splits: Vec<_> = mine.iter().filter_map(|s| round0.recs[s.rec].split).collect();
        let client = |f: fn(&wire::ClientSplit) -> u64| {
            median(&splits.iter().map(|c| f(c) as f64 / 1e3).collect::<Vec<_>>())
        };
        if !splits.is_empty() {
            report.push(format!(
                "    client side: encode {:.1}  write {:.1}  wait {:.1}  decode {:.1} (medians)",
                client(|c| c.encode_ns),
                client(|c| c.write_ns),
                client(|c| c.wait_ns),
                client(|c| c.decode_ns)
            ));
        }
        let traced: Vec<f64> = wire_service(rounds, kind, true);
        let untraced: Vec<f64> = wire_service(rounds, kind, false);
        if !traced.is_empty() && !untraced.is_empty() {
            report.push(format!(
                "    tracing overhead (traced - untraced wire median): {:.1} us (traced n={}, untraced n={})",
                (median(&traced) - median(&untraced)) * 1e3,
                traced.len(),
                untraced.len()
            ));
        }
    }
    layer_metrics
}

/// Send-to-answer times of answered `kind` requests in traced or
/// untraced wire rounds (ms).
fn wire_service(rounds: &[Round], kind: Kind, traced: bool) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.recs)
        .filter(|r| {
            r.op.kind() == kind && r.split.is_some() == traced && r.outcome != Outcome::Timeout
        })
        .map(|r| r.latency_ms)
        .collect()
}

fn json_metrics(metrics: &[Metric], names: &[&str]) -> Result<String, String> {
    let mut parts = Vec::new();
    for name in names {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is {}", m.value));
        }
        parts.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = workload::spec(&args.workload).ok_or_else(|| {
        format!("unknown workload `{}` (ingest-ha, solve-rl, ops-2conn)", args.workload)
    })?;
    let inputs = Inputs::generate(&spec, args.seed)?;
    let dir = args.out.join(format!("run-{}-{}-{}", spec.name, args.seed, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let bench = Bench { tacc: args.tacc.clone(), dir: dir.clone() };
    let meta = meta::Meta::collect(&dir);

    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        // In a traced run, rounds alternate between traced and untraced
        // client-side timing so the tracing overhead can be measured.
        let traced = args.trace && rounds.len().is_multiple_of(2);
        match bench.round(rounds.len(), &spec, &inputs, traced) {
            Ok(round) => rounds.push(round),
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
        }
    }
    let measured_s = started.elapsed().as_secs_f64();

    let t = tallies(&rounds);
    let mut total = Tally::default();
    for v in t.values() {
        total.merge(v);
    }
    let metrics = end_to_end(&spec, &rounds, &total);
    let mut failures = round_checks(&spec, &rounds, &t);
    let replayed =
        replay::replay(&spec, &inputs, &rounds[0].recs, &rounds[0].end, args.trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let replayed = replayed?;
    failures.extend(replayed.failures.iter().cloned());

    let mut report = Vec::new();
    report.push(format!(
        "wirebench workload={} seed={} seconds={} trace={} rounds={} measured_s={measured_s:.3}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rounds.len()
    ));
    report.push(format!(
        "inputs: {} devices x {} servers, {} events in {} pushes",
        spec.devices,
        spec.servers,
        inputs.events.len(),
        inputs.bursts.len()
    ));
    report.push(meta.line());
    for (k, r) in rounds.iter().enumerate() {
        let p50 = |kind: Kind| {
            let v: Vec<f64> =
                r.recs.iter().filter(|x| x.op.kind() == kind).map(|x| x.latency_ms).collect();
            if v.is_empty() {
                f64::NAN
            } else {
                median(&v)
            }
        };
        report.push(format!(
            "round {k}: setup_s={:.4} body_s={:.3} push_p50_ms={:.3} query_p50_ms={:.3} solve_p50_ms={:.1}",
            r.setup_s,
            r.body_s,
            p50(Kind::Push),
            p50(Kind::Query),
            p50(Kind::Solve)
        ));
    }
    for m in &metrics {
        report.push(format!("metric {} {} {} n={} {}", m.name, m.value, m.unit, m.samples, m.note));
    }
    for ((conn, kind), v) in &t {
        report.push(format!(
            "requests conn={conn} {}: attempted={} ok={} error={} overloaded={} timeout={} over_limit={}",
            kind.name(),
            v.attempted,
            v.ok,
            v.error,
            v.overloaded,
            v.timeout,
            v.over_limit
        ));
    }
    report.push(format!(
        "checks: {} solves verified against the in-process replay, {} ambiguous; {} failures",
        replayed.solves_verified,
        replayed.solves_unverified,
        failures.len()
    ));
    for f in &failures {
        report.push(format!("CHECK FAILED: {f}"));
    }
    let layer_metrics = if args.trace {
        let lm = traced_report(&rounds, &replayed, &mut report);
        for m in &lm {
            report.push(format!("layer {} {} {}", m.name, m.value, m.unit));
        }
        if let Some(tr) = &replayed.spans {
            let path = args.out.join(format!("{}-seed{}-spans.jsonl", spec.name, args.seed));
            std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        lm
    } else {
        Vec::new()
    };

    let correct = failures.is_empty();
    let result_metrics = if args.trace {
        json_metrics(&layer_metrics, &PER_LAYER)?
    } else {
        json_metrics(&metrics, &END_TO_END)?
    };
    let file =
        args.out.join(format!("{}-seed{}-trace{}.txt", spec.name, args.seed, u8::from(args.trace)));
    std::fs::write(&file, report.join("\n") + "\n")
        .map_err(|e| format!("{}: {e}", file.display()))?;
    for line in &report {
        println!("# {line}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {result_metrics}}}",
        total.attempted,
        total.failed()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::from(2)
        }
    }
}
