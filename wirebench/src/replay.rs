//! In-process replays of a measured round.
//!
//! The check replay drives a [`Session`] through the round's exact
//! request sequence, in the order the daemon served it, and compares
//! every `Solution` and the end state with what the daemon answered.
//!
//! The traced replay does the same while recording a span around every
//! call into a layer's public functions: the `tacc_proto` codec and
//! frame functions for both directions of each exchange, the
//! `Session` call, the write-ahead journal appends (`Journal::append_batch`,
//! with `Runtime::snapshot` on the snapshot cadence), and on `ingest-ha`
//! the replication path (`JournalTail::poll`, `StandbyCore::apply`, and
//! `StandbyCore::promote` at the end). Time spent inside the `Session`
//! call is split further by the program's own profile spans
//! (`runtime.step`, `guard.supervise`, `zone.*`), read from the
//! `tacc_obs` profile before and after the call. The traced session
//! runs without a journal of its own: the replay writes the records the
//! daemon writes, so that journal time is a span of its own.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tacc_chaos::{Journal, JournalRecord};
use tacc_ha::{JournalTail, StandbyCore};
use tacc_obs::{ProfileSnapshot, RegistrySnapshot};
use tacc_proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame_event,
    write_frame, FrameEvent, Request, Response,
};
use tacc_runtime::Runtime;
use tacc_serve::{ServeConfig, Session};
use tacc_topology::DelayModel;
use tacc_workload::TraceEvent;

use crate::stats::{mean, median, Outcome};
use crate::workload::{EndState, Inputs, Kind, Op, Rec, Sol, Spec};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the request in the replay (`u32::MAX` outside requests).
    pub req: u32,
    /// Enclosing span.
    pub parent: Option<usize>,
    /// Layer-qualified name (`proto.decode`, `serve.push`, ...).
    pub name: String,
    /// Start, nanoseconds after the replay began (`None` for spans
    /// derived from the program's profile, which only has durations).
    pub start_ns: Option<u64>,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Spans held in memory until the replay ends.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u32,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new(), req: u32::MAX }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let start = self.now_ns();
        self.spans.push(Span {
            req: self.req,
            parent: self.stack.last().copied(),
            name: name.to_owned(),
            start_ns: Some(start),
            dur_ns: 0,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn exit(&mut self, idx: usize) {
        if idx == usize::MAX {
            return;
        }
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.dur_ns = end - span.start_ns.expect("entered spans have a start");
        self.stack.pop();
    }

    /// Adds a child of `parent` known only by its duration.
    fn derived(&mut self, parent: usize, name: String, dur_ns: u64) {
        self.spans.push(Span { req: self.req, parent: Some(parent), name, start_ns: None, dur_ns });
    }

    /// Summed duration of the spans named `name` inside requests.
    pub fn total_in_requests(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.req != u32::MAX && s.name == name).map(|s| s.dur_ns).sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let start = s.start_ns.map_or("null".to_owned(), |t| t.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{start},\"dur_ns\":{}}}\n",
                s.req, s.name, s.dur_ns
            ));
        }
        out
    }
}

/// Layer of a span name: the part before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Layer of a profile path: the innermost segment that names a layer
/// (`runtime.step/apply` → `runtime`).
fn layer_of_path(path: &str) -> &str {
    path.rsplit('/').find(|seg| seg.contains('.')).map_or("runtime", layer_of)
}

/// Per-layer self time of one profile delta, excluding `par.dispatch`
/// (the caller's wait for workers whose own spans are counted).
fn profile_layers(before: &ProfileSnapshot, after: &ProfileSnapshot) -> BTreeMap<String, u64> {
    let earlier: BTreeMap<&str, u64> = before.iter().map(|(p, s)| (p, s.total_ns)).collect();
    let delta: BTreeMap<&str, u64> = after
        .iter()
        .map(|(p, s)| (p, s.total_ns.saturating_sub(earlier.get(p).copied().unwrap_or(0))))
        .filter(|&(_, d)| d > 0)
        .collect();
    let mut layers = BTreeMap::new();
    for (&path, &total) in &delta {
        if path.rsplit('/').next() == Some("par.dispatch") {
            continue;
        }
        let children: u64 = delta
            .iter()
            .filter(|(p, _)| {
                p.strip_prefix(path)
                    .and_then(|rest| rest.strip_prefix('/'))
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|(_, d)| *d)
            .sum();
        *layers.entry(layer_of_path(path).to_owned()).or_insert(0) +=
            total.saturating_sub(children);
    }
    layers
}

/// One replayed request's split.
#[derive(Debug, Clone)]
pub struct ReqSplit {
    /// Request type.
    pub kind: Kind,
    /// Index of the wire record it replays.
    pub rec: usize,
    /// In-process time, tracing bookkeeping excluded.
    pub inproc_ns: u64,
    /// Self time per layer.
    pub layers: BTreeMap<String, u64>,
}

/// What a replay found.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Check failures (empty = every check held).
    pub failures: Vec<String>,
    /// Solutions compared with an in-process answer.
    pub solves_verified: usize,
    /// Solutions left unverified because the serve order was ambiguous.
    pub solves_unverified: usize,
    /// Traced only: per-request splits.
    pub splits: Vec<ReqSplit>,
    /// Traced only: the spans.
    pub spans: Option<Tracer>,
    /// Traced only: per-layer metrics `(name, value, unit)`.
    pub layer_metrics: Vec<(String, f64, &'static str)>,
}

/// The order the daemon served `recs` in: by answer time (one daemon
/// thread serves every connection, so answers leave in service order).
/// A `Solve` is ambiguous when a push overlapping it was answered
/// within a millisecond of it.
pub fn serve_order(recs: &[Rec]) -> (Vec<usize>, Vec<bool>) {
    let mut order: Vec<usize> = (0..recs.len()).collect();
    order.sort_by(|&a, &b| recs[a].done.total_cmp(&recs[b].done).then(a.cmp(&b)));
    let ambiguous = recs
        .iter()
        .map(|s| {
            matches!(s.op, Op::Solve { .. })
                && recs.iter().any(|p| {
                    p.conn != s.conn
                        && p.sent < s.done
                        && s.sent < p.done
                        && (p.done - s.done).abs() < 1e-3
                })
        })
        .collect();
    (order, ambiguous)
}

/// Sum of demands per server must stay within capacity.
fn check_feasible(session: &Session, sol: &Sol) -> Result<(), String> {
    let instance = session.runtime().cluster().instance();
    let mut load = vec![0.0f64; instance.num_servers()];
    for &(device, server) in &sol.assignment {
        if server >= load.len() {
            return Err(format!("assignment names server {server} of {}", load.len()));
        }
        load[server] += instance.demand(device, server);
    }
    for (j, &l) in load.iter().enumerate() {
        let cap = instance.capacity(j);
        if l > cap * (1.0 + 1e-9) + 1e-9 {
            return Err(format!("server {j} carries {l} over capacity {cap}"));
        }
    }
    Ok(())
}

/// The replay's journal, written as the daemon writes its own, and on
/// `ingest-ha` the standby it ships to.
struct Mirror {
    journal: Journal,
    journal_path: std::path::PathBuf,
    journaled: u64,
    cursor: u64,
    applied_since_snapshot: u64,
    snapshot_every: u64,
    snapshot_cursor: u64,
    snapshot_bytes: Vec<f64>,
    ha: Option<(JournalTail, StandbyCore, u64)>,
    ship_bytes: Vec<f64>,
}

fn span_secs(tr: &Tracer, name: &str) -> Vec<f64> {
    tr.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 / 1e9).collect()
}

fn counter(r: &RegistrySnapshot, name: &str) -> f64 {
    r.counter(name).unwrap_or(0) as f64
}

fn hist_mean(r: &RegistrySnapshot, name: &str) -> f64 {
    r.histogram(name).map_or(0.0, |h| h.mean())
}

fn hist_count(r: &RegistrySnapshot, name: &str) -> f64 {
    r.histogram(name).map_or(0.0, |h| h.count() as f64)
}

/// Replays `recs` (a round's records) in-process. With `traced`, also
/// records spans and derives the per-layer metrics; `dir` holds the
/// replay's journals.
#[allow(clippy::too_many_lines)]
pub fn replay(
    spec: &Spec,
    inputs: &Inputs,
    recs: &[Rec],
    end: &EndState,
    traced: bool,
    dir: &Path,
) -> Result<Replayed, String> {
    let cfg = ServeConfig { zones: spec.zones, ..ServeConfig::default() };
    let mut out = Replayed::default();
    let mut tr = Tracer::new(traced);
    if traced {
        tacc_obs::set_enabled(true);
        tacc_obs::reset();
    }
    let mut session = Session::start(inputs.shell.clone(), inputs.config.clone(), &cfg)
        .map_err(|e| format!("in-process session: {e}"))?;
    let mut mirror = if traced {
        let journal_path = dir.join("replay-primary.jsonl");
        let mut journal = Journal::create(&journal_path, &inputs.shell, &inputs.config)
            .map_err(|e| e.to_string())?;
        journal
            .append(&JournalRecord::SessionScenario { scenario: inputs.shell.scenario.clone() })
            .map_err(|e| e.to_string())?;
        let ha = if spec.ha {
            let standby_cfg = ServeConfig {
                journal: Some(dir.join("replay-standby.jsonl")),
                ..ServeConfig::default()
            };
            let core = StandbyCore::new(&standby_cfg).map_err(|e| e.to_string())?;
            Some((JournalTail::new(&journal_path), core, 0))
        } else {
            None
        };
        Some(Mirror {
            journal,
            journal_path,
            journaled: 0,
            cursor: 0,
            applied_since_snapshot: 0,
            snapshot_every: cfg.snapshot_every,
            snapshot_cursor: 0,
            snapshot_bytes: Vec::new(),
            ha,
            ship_bytes: Vec::new(),
        })
    } else {
        None
    };
    let registry_before = tacc_obs::registry_snapshot();
    let budget_cap = cfg.query_budget;
    let (order, ambiguous) = serve_order(recs);
    let mut solve_prep = Vec::new();
    let mut supervise = Vec::new();
    let mut fallbacks = 0u64;
    let mut spent = Vec::new();

    for (n, &i) in order.iter().enumerate() {
        let rec = &recs[i];
        // Requests the daemon did not answer may or may not have been
        // applied: the end state cannot be checked after one.
        if rec.outcome == Outcome::Timeout {
            return Err(format!("request {i} ({:?}) timed out; end state unknown", rec.op));
        }
        if matches!(rec.op, Op::Push { .. }) && rec.outcome != Outcome::Ok {
            continue; // shed or refused: never applied
        }
        tr.req = n as u32;
        let root = tr.enter(&format!("request.{}", rec.op.kind().name()));
        let mut bookkeeping_ns = 0u64;

        // Client → daemon.
        let request = rec.op.request(inputs);
        let s = tr.enter("proto.encode");
        let payload = encode_request(n as u64 + 1, &request);
        tr.exit(s);
        let s = tr.enter("proto.frame");
        let mut buf = Vec::with_capacity(payload.len() + 4);
        write_frame(&mut buf, &payload).map_err(|e| e.to_string())?;
        let Ok(FrameEvent::Frame(read)) = read_frame_event(&mut buf.as_slice()) else {
            return Err("in-memory frame did not round-trip".into());
        };
        tr.exit(s);
        let s = tr.enter("proto.decode");
        let frame = decode_request(&read).map_err(|e| e.to_string())?;
        tr.exit(s);

        // The dispatch the daemon does for these three requests.
        let t = Instant::now();
        let before = traced.then(tacc_obs::profile_snapshot);
        bookkeeping_ns += t.elapsed().as_nanos() as u64;
        let serve_name = format!("serve.{}", rec.op.kind().name());
        let s = tr.enter(&serve_name);
        let response = match frame.request {
            Request::Push { events, seq } => session.push(events, seq),
            Request::Query { device } => session.query(device),
            Request::Solve { budget_units } => session.solve(budget_units),
            other => return Err(format!("unexpected replayed request {other:?}")),
        }
        .map_err(|e| format!("in-process {serve_name}: {e}"))?;
        tr.exit(s);
        if let Some(before) = before {
            let t = Instant::now();
            let after = tacc_obs::profile_snapshot();
            let mut inner = profile_layers(&before, &after);
            let serve_ns = tr.spans[s].dur_ns;
            let total: u64 = inner.values().sum();
            if total > serve_ns {
                // Worker threads of a zoned solve overlap in wall time.
                for v in inner.values_mut() {
                    *v = (*v as f64 * serve_ns as f64 / total as f64) as u64;
                }
            }
            if rec.op.kind() == Kind::Solve {
                let inner_ns: u64 = inner.values().sum();
                solve_prep.push((serve_ns - inner_ns.min(serve_ns)) as f64 / 1e3);
                let guard_ns: u64 = inner
                    .iter()
                    .filter(|(l, _)| *l == "guard" || *l == "rl")
                    .map(|(_, v)| *v)
                    .sum();
                supervise.push(guard_ns as f64 / 1e6);
            }
            for (layer, ns) in inner {
                tr.derived(s, format!("{layer}.inner"), ns);
            }
            bookkeeping_ns += t.elapsed().as_nanos() as u64;
        }

        // The write-ahead journal and replication the daemon does
        // around the call.
        if let Some(m) = mirror.as_mut() {
            if let (Request::Push { seq, .. }, Response::Accepted { queued, pending }) =
                (&request, &response)
            {
                let Op::Push { burst, .. } = rec.op else { unreachable!("push request") };
                let mut records: Vec<JournalRecord> = inputs.events[inputs.bursts[burst].clone()]
                    .iter()
                    .enumerate()
                    .map(|(k, timed)| JournalRecord::Event {
                        index: m.journaled + k as u64,
                        timed: timed.clone(),
                    })
                    .collect();
                m.journaled += *queued as u64;
                records.push(JournalRecord::SeqAck {
                    seq: *seq,
                    queued: *queued as u64,
                    pending: *pending as u64,
                });
                let s = tr.enter("journal.append");
                m.journal.append_batch(&records).map_err(|e| e.to_string())?;
                tr.exit(s);
            }
            let cursor = session.cursor();
            if cursor > m.cursor {
                m.applied_since_snapshot += cursor - m.cursor;
                m.cursor = cursor;
                let mut records = vec![JournalRecord::Step { index: cursor - 1 }];
                let snapshot = m.applied_since_snapshot >= m.snapshot_every;
                if snapshot {
                    let s = tr.enter("runtime.snapshot");
                    records
                        .push(JournalRecord::Snapshot { snapshot: session.runtime().snapshot() });
                    tr.exit(s);
                    m.applied_since_snapshot = 0;
                    m.snapshot_cursor = cursor;
                }
                let size_before = m.journal_size();
                let s =
                    tr.enter(if snapshot { "journal.append_snapshot" } else { "journal.append" });
                m.journal.append_batch(&records).map_err(|e| e.to_string())?;
                tr.exit(s);
                if snapshot {
                    m.snapshot_bytes.push((m.journal_size() - size_before) as f64);
                }
            }
            if let Some((tail, core, shipped)) = m.ha.as_mut() {
                let s = tr.enter("ha.poll");
                let lines = tail.poll().map_err(|e| e.to_string())?;
                tr.exit(s);
                if !lines.is_empty() {
                    let s = tr.enter("proto.encode");
                    let payload = encode_request(0, &Request::Replicate { base: *shipped, lines });
                    tr.exit(s);
                    m.ship_bytes.push(payload.len() as f64);
                    let s = tr.enter("proto.decode");
                    let frame = decode_request(&payload).map_err(|e| e.to_string())?;
                    tr.exit(s);
                    let Request::Replicate { base, lines } = frame.request else {
                        unreachable!("replicate request")
                    };
                    let s = tr.enter("ha.apply");
                    let acked = core.apply(base, &lines).map_err(|e| e.to_string())?;
                    tr.exit(s);
                    let s = tr.enter("proto.encode");
                    let ack = encode_response(0, &Response::ReplicaAck { acked });
                    tr.exit(s);
                    let s = tr.enter("proto.decode");
                    decode_response(&ack).map_err(|e| e.to_string())?;
                    tr.exit(s);
                    *shipped = acked;
                }
            }
        }

        // Daemon → client.
        let s = tr.enter("proto.encode");
        let answer = encode_response(n as u64 + 1, &response);
        tr.exit(s);
        let s = tr.enter("proto.frame");
        let mut buf = Vec::with_capacity(answer.len() + 4);
        write_frame(&mut buf, &answer).map_err(|e| e.to_string())?;
        let Ok(FrameEvent::Frame(read)) = read_frame_event(&mut buf.as_slice()) else {
            return Err("in-memory frame did not round-trip".into());
        };
        tr.exit(s);
        let s = tr.enter("proto.decode");
        decode_response(&read).map_err(|e| e.to_string())?;
        tr.exit(s);
        tr.exit(root);

        if traced {
            out.splits.push(split_of(&tr, root, rec.op.kind(), i, bookkeeping_ns));
        }

        // The answer checks, outside the request's spans.
        match (&rec.op, &response) {
            (Op::Push { .. }, Response::Accepted { .. }) => {}
            (Op::Query { .. }, Response::Device { .. }) => {}
            (Op::Solve { .. }, Response::Solution { objective, spent: s_units, feasible, .. }) => {
                if let Some(sol) = &rec.solution {
                    if ambiguous[i] {
                        out.solves_unverified += 1;
                    } else if sol.objective != *objective
                        || sol.spent != *s_units
                        || sol.feasible != *feasible
                    {
                        out.failures.push(format!(
                            "solve {i}: daemon answered objective {} (spent {}), in-process {} (spent {})",
                            sol.objective, sol.spent, objective, s_units
                        ));
                    } else {
                        out.solves_verified += 1;
                    }
                    if !sol.feasible {
                        out.failures.push(format!("solve {i}: infeasible answer"));
                    } else if let Err(e) = check_feasible(&session, sol) {
                        out.failures.push(format!("solve {i}: {e}"));
                    }
                    if sol.spent > budget_cap {
                        out.failures.push(format!(
                            "solve {i}: spent {} over the budget {budget_cap}",
                            sol.spent
                        ));
                    }
                    fallbacks += u64::from(sol.fallbacks);
                    spent.push(sol.spent as f64);
                }
            }
            (_, Response::Error { .. }) if rec.outcome == Outcome::Error => {}
            (op, other) => {
                out.failures.push(format!("request {i} ({op:?}): in-process answer {other:?}"));
            }
        }
    }

    let stats = session.stats().map_err(|e| e.to_string())?;
    let snapshot = session.snapshot_json().map_err(|e| e.to_string())?;
    if stats.cursor != end.cursor
        || stats.total_delay_ms != end.total_delay_ms
        || stats.feasible != end.feasible
    {
        out.failures.push(format!(
            "end state: daemon cursor {} delay {} feasible {}, in-process cursor {} delay {} feasible {}",
            end.cursor,
            end.total_delay_ms,
            end.feasible,
            stats.cursor,
            stats.total_delay_ms,
            stats.feasible
        ));
    }
    if snapshot != end.snapshot {
        out.failures.push(format!(
            "final Snapshot differs from the in-process replay ({} vs {} bytes)",
            end.snapshot.len(),
            snapshot.len()
        ));
    }
    if !session.runtime().cluster().is_feasible() {
        out.failures.push("the final assignment is infeasible".into());
    }

    if let Some(mut m) = mirror {
        let registry = tacc_obs::registry_snapshot().diff(&registry_before);
        let events = m.journaled.max(1) as f64;
        let layer = &mut out.layer_metrics;
        let solves = spent.len().max(1) as f64;
        let journal_bytes = m.journal_size() as f64;
        let mut appends = span_secs(&tr, "journal.append");
        let snapshot_appends = span_secs(&tr, "journal.append_snapshot");
        appends.extend(&snapshot_appends);
        layer.push(("journal.append_us".into(), mean(&appends) * 1e6, "us"));
        layer.push(("journal.fsyncs".into(), hist_count(&registry, "journal.fsync"), "count"));
        layer.push(("journal.bytes_per_event".into(), journal_bytes / events, "B"));
        layer.push(("journal.snapshot_bytes".into(), mean(&m.snapshot_bytes), "B"));
        layer.push(("journal.snapshot_us".into(), mean(&snapshot_appends) * 1e6, "us"));
        layer.push((
            "runtime.snapshot_us".into(),
            mean(&span_secs(&tr, "runtime.snapshot")) * 1e6,
            "us",
        ));
        let flushes = counter(&registry, "serve.flushes").max(1.0);
        layer.push((
            "serve.flush_events".into(),
            counter(&registry, "serve.events_applied") / flushes,
            "count",
        ));
        if !spent.is_empty() {
            layer.push(("serve.solve_prep_us".into(), median(&solve_prep), "us"));
            layer.push(("guard.supervise_ms".into(), mean(&supervise), "ms"));
            layer.push((
                "rl.episodes_per_solve".into(),
                counter(&registry, "rl.episodes") / solves,
                "count",
            ));
            layer.push(("guard.units_spent".into(), mean(&spent), "count"));
            layer.push(("guard.fallback_ratio".into(), fallbacks as f64 / solves, "ratio"));
        }
        if spec.zones >= 2 && !spent.is_empty() {
            let profile = tacc_obs::profile_snapshot();
            let per_solve = |phase: &str| {
                profile
                    .iter()
                    .filter(|(p, _)| p.rsplit('/').next() == Some(phase))
                    .map(|(_, s)| s.total_ns as f64)
                    .sum::<f64>()
                    / solves
            };
            layer.push(("zone.build_us".into(), per_solve("zone.partition") / 1e3, "us"));
            layer.push(("zone.route_us".into(), per_solve("zone.route") / 1e3, "us"));
            layer.push(("zone.solve_ms".into(), per_solve("zone.solve") / 1e6, "ms"));
            layer.push((
                "zone.router_spills".into(),
                counter(&registry, "zone.router_spills"),
                "count",
            ));
            layer.push((
                "zone.border_refinements".into(),
                counter(&registry, "zone.border_refinements"),
                "count",
            ));
        }
        if let Some((_, mut core, _)) = m.ha.take() {
            layer.push(("ha.poll_us".into(), mean(&span_secs(&tr, "ha.poll")) * 1e6, "us"));
            layer.push(("ha.ship_bytes".into(), mean(&m.ship_bytes), "B"));
            layer.push(("ha.apply_us".into(), mean(&span_secs(&tr, "ha.apply")) * 1e6, "us"));
            tr.req = u32::MAX;
            let s = tr.enter("ha.promote");
            let mut promoted = core.promote().map_err(|e| format!("in-process promote: {e}"))?;
            tr.exit(s);
            layer.push(("ha.promote_ms".into(), tr.spans[s].dur_ns as f64 / 1e6, "ms"));
            layer.push((
                "ha.replayed_events".into(),
                (promoted.cursor() - m.snapshot_cursor) as f64,
                "count",
            ));
            if promoted.snapshot_json().map_err(|e| e.to_string())? != snapshot {
                out.failures.push("in-process promoted standby differs from the primary".into());
            }
        }
        runtime_pass(inputs, &mut tr, &mut out.layer_metrics)?;
        out.spans = Some(tr);
    }
    Ok(out)
}

impl Mirror {
    fn journal_size(&self) -> u64 {
        std::fs::metadata(&self.journal_path).map(|m| m.len()).unwrap_or(0)
    }
}

/// Self time per layer of the request under `root`.
fn split_of(tr: &Tracer, root: usize, kind: Kind, rec: usize, bookkeeping_ns: u64) -> ReqSplit {
    let mut child_sum = vec![0u64; tr.spans.len() - root];
    for s in &tr.spans[root + 1..] {
        let parent = s.parent.expect("spans under a request have a parent");
        child_sum[parent - root] += s.dur_ns;
    }
    let mut layers = BTreeMap::new();
    for (k, s) in tr.spans[root..].iter().enumerate() {
        let own = s.dur_ns.saturating_sub(child_sum[k]);
        let name = if k == 0 { "bench" } else { layer_of(&s.name) };
        *layers.entry(name.to_owned()).or_insert(0) += own;
    }
    // The profile reads are tracing overhead, not the request's.
    let bench = layers.entry("bench".to_owned()).or_insert(0);
    *bench = bench.saturating_sub(bookkeeping_ns);
    let inproc_ns = tr.spans[root].dur_ns.saturating_sub(bookkeeping_ns);
    ReqSplit { kind, rec, inproc_ns, layers }
}

/// Times `Runtime::step` per event kind, `Runtime::snapshot` +
/// `to_json`, and the delay-matrix build over the same events.
fn runtime_pass(
    inputs: &Inputs,
    tr: &mut Tracer,
    layer: &mut Vec<(String, f64, &'static str)>,
) -> Result<(), String> {
    tr.req = u32::MAX;
    let registry_before = tacc_obs::registry_snapshot();
    let mut runtime =
        Runtime::from_trace(&inputs.shell, inputs.config.clone()).map_err(|e| e.to_string())?;
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (index, timed) in inputs.events.iter().enumerate() {
        let kind = match timed.event {
            TraceEvent::DeviceJoin { .. } => "join",
            TraceEvent::DeviceLeave { .. } => "leave",
            TraceEvent::LinkLatencyDrift { .. } => "drift",
            _ => "server",
        };
        let s = tr.enter(&format!("runtime.step_{kind}"));
        runtime.step(index, timed).map_err(|e| e.to_string())?;
        tr.exit(s);
        by_kind.entry(kind).or_default().push(tr.spans[s].dur_ns as f64 / 1e3);
    }
    let registry = tacc_obs::registry_snapshot().diff(&registry_before);
    for kind in ["join", "leave", "drift"] {
        let v = by_kind.get(kind).map_or(0.0, |v| mean(v));
        layer.push((format!("runtime.step_{kind}_us"), v, "us"));
    }
    layer.push((
        "runtime.delay_updates".into(),
        counter(&registry, "runtime.delay_updates"),
        "count",
    ));
    layer.push((
        "runtime.repair_settled".into(),
        hist_mean(&registry, "runtime.repair_settled"),
        "count",
    ));
    layer.push(("runtime.migrations".into(), counter(&registry, "runtime.migrations"), "count"));
    let s = tr.enter("runtime.snapshot_to_json");
    let json = runtime.snapshot().to_json();
    tr.exit(s);
    layer.push(("runtime.snapshot_json_us".into(), tr.spans[s].dur_ns as f64 / 1e3, "us"));
    layer.push(("runtime.snapshot_json_bytes".into(), json.len() as f64, "B"));
    let scenario = inputs.shell.scenario.build().map_err(|e| e.to_string())?;
    let mut builds = Vec::new();
    for _ in 0..3 {
        let s = tr.enter("topology.delay_matrix");
        std::hint::black_box(scenario.topology().delay_matrix(&DelayModel::default()));
        tr.exit(s);
        builds.push(tr.spans[s].dur_ns as f64 / 1e6);
    }
    layer.push(("topology.delay_matrix_ms".into(), median(&builds), "ms"));
    Ok(())
}
