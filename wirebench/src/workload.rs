//! The three workloads: their inputs, made from the seed alone, and one
//! measured round of each against live daemons.
//!
//! A round starts fresh daemons, sends `Init`, replays the workload's
//! whole request sequence and tears the daemons down. A run repeats
//! rounds for its measuring time; every round of a run sends the same
//! inputs, so each round's final state must match the first's.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tacc_proto::{Request, Response};
use tacc_runtime::RuntimeConfig;
use tacc_workload::{SurgeGenerator, TimedEvent, TopologyFamily, Trace, TraceEvent, TraceScenario};

use crate::stats::{due_s, latency_from_due_s, lateness_s, spread_ticks, Outcome};
use crate::wire::{ClientSplit, Conn, Daemon};

/// Operator requests on `ops-2conn` answered later than this count as
/// failed (over the limit).
pub const OP_LIMIT_MS: f64 = 250.0;

/// The open-loop gateway of `ops-2conn` may send at most this late (its
/// p99) before the run is invalid.
pub const LATENESS_BOUND_MS: f64 = 20.0;

/// The surge generator's tick: every event of a tick carries its stamp.
const SURGE_TICK_MS: f64 = 500.0;

/// How long a request may wait for its answer before it counts as a
/// timeout; generous, so a starved peer still ends in bounded time.
const DEADLINE: Duration = Duration::from_secs(60);

/// How long a fresh daemon may take to bind its socket.
const BIND_PATIENCE: Duration = Duration::from_secs(20);

/// One workload's shape.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// IoT devices of the scenario.
    pub devices: usize,
    /// Edge servers of the scenario.
    pub servers: usize,
    /// Simulated span of the surge trace.
    pub horizon_ms: f64,
    /// Events per `Push`.
    pub burst: usize,
    /// A `Solve` after every this many bursts (`0` = none).
    pub solve_every: usize,
    /// Primary `--replicate-to` a `--standby`, failed over at the end.
    pub ha: bool,
    /// `--zones` of the daemon (`0` = flat solves).
    pub zones: usize,
    /// Open-loop gateway compression beside a closed-loop operator
    /// connection (`None` = one closed-loop connection).
    pub open_loop: Option<f64>,
}

/// The workload named `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        devices: 1000,
        servers: 32,
        horizon_ms: 20_000.0,
        burst: 16,
        solve_every: 0,
        ha: false,
        zones: 0,
        open_loop: None,
    };
    match name {
        "ingest-ha" => Some(Spec { name: "ingest-ha", ha: true, ..base }),
        "solve-rl" => {
            Some(Spec { name: "solve-rl", devices: 400, servers: 16, solve_every: 4, ..base })
        }
        "ops-2conn" => Some(Spec { name: "ops-2conn", zones: 4, open_loop: Some(2.0), ..base }),
        _ => None,
    }
}

/// What the daemon is sent, generated from the seed alone.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Scenario-only trace for `Init`.
    pub shell: Trace,
    /// The surge trace's events, in order.
    pub events: Vec<TimedEvent>,
    /// Event ranges of the bursts.
    pub bursts: Vec<Range<usize>>,
    /// Runtime configuration for `Init`.
    pub config: RuntimeConfig,
}

impl Inputs {
    /// Generates the workload's surge trace for `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Result<Inputs, String> {
        let scenario = TraceScenario {
            family: TopologyFamily::RandomGeometric,
            num_iot: spec.devices,
            num_servers: spec.servers,
            load_factor: 0.7,
            seed,
        };
        let trace = SurgeGenerator::new(scenario)
            .horizon_ms(spec.horizon_ms)
            .generate(seed)
            .map_err(|e| e.to_string())?;
        let events = trace.events.clone();
        let bursts = (0..events.len())
            .step_by(spec.burst)
            .map(|start| start..(start + spec.burst).min(events.len()))
            .collect();
        Ok(Inputs {
            shell: Trace { events: Vec::new(), ..trace },
            events,
            bursts,
            config: RuntimeConfig { seed, ..RuntimeConfig::default() },
        })
    }

    /// The device a read-your-writes `Query` after burst `i` asks about:
    /// the last device the burst touched.
    pub fn query_device(&self, i: usize) -> usize {
        self.events[self.bursts[i].clone()]
            .iter()
            .rev()
            .find_map(|t| match t.event {
                TraceEvent::DeviceJoin { device } | TraceEvent::DeviceLeave { device } => {
                    Some(device)
                }
                _ => None,
            })
            .unwrap_or(i % self.shell.scenario.num_iot)
    }
}

/// The request types the benchmark measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `Push` of one burst.
    Push,
    /// `Query` of one device.
    Query,
    /// `Solve` at the default budget.
    Solve,
}

impl Kind {
    /// All kinds, in report order.
    pub const ALL: [Kind; 3] = [Kind::Push, Kind::Query, Kind::Solve];

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Push => "push",
            Kind::Query => "query",
            Kind::Solve => "solve",
        }
    }
}

/// A measured request.
#[derive(Debug, Clone)]
pub enum Op {
    /// `Push` of burst `burst` under sequence number `seq`.
    Push {
        /// Burst index into [`Inputs::bursts`].
        burst: usize,
        /// Idempotency sequence number.
        seq: u64,
    },
    /// `Query { device }`.
    Query {
        /// The device.
        device: usize,
    },
    /// `Solve { budget_units }` (`0` = the daemon's default).
    Solve {
        /// The budget.
        budget: u64,
    },
}

impl Op {
    /// The request type.
    pub fn kind(&self) -> Kind {
        match self {
            Op::Push { .. } => Kind::Push,
            Op::Query { .. } => Kind::Query,
            Op::Solve { .. } => Kind::Solve,
        }
    }

    /// The wire request.
    pub fn request(&self, inputs: &Inputs) -> Request {
        match *self {
            Op::Push { burst, seq } => {
                Request::Push { events: inputs.events[inputs.bursts[burst].clone()].to_vec(), seq }
            }
            Op::Query { device } => Request::Query { device },
            Op::Solve { budget } => Request::Solve { budget_units: budget },
        }
    }
}

/// A `Solution` answer, kept for the output checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Sol {
    /// Claimed feasibility.
    pub feasible: bool,
    /// Total delay of the answer (ms).
    pub objective: f64,
    /// Work units spent.
    pub spent: u64,
    /// Ladder stages that failed before the answer.
    pub fallbacks: u32,
    /// `(device, server)` pairs.
    pub assignment: Vec<(usize, usize)>,
}

/// One measured request and how it went.
#[derive(Debug, Clone)]
pub struct Rec {
    /// `0` = the main (gateway) connection, `1` = the operator.
    pub conn: u8,
    /// What was sent.
    pub op: Op,
    /// Send time, seconds after the round's body began.
    pub sent: f64,
    /// Answer time, same clock.
    pub done: f64,
    /// Send to answer.
    pub latency_ms: f64,
    /// Due time to answer, for open-loop pushes.
    pub from_due_ms: Option<f64>,
    /// How it ended.
    pub outcome: Outcome,
    /// Request payload bytes.
    pub request_bytes: usize,
    /// Response payload bytes.
    pub response_bytes: usize,
    /// Client-side split, in traced rounds.
    pub split: Option<ClientSplit>,
    /// Events the daemon acknowledged (pushes).
    pub acked: u64,
    /// The answer of a `Solve`.
    pub solution: Option<Sol>,
}

/// The end state a round reads back for the output checks.
#[derive(Debug, Clone, PartialEq)]
pub struct EndState {
    /// `Stats.cursor`.
    pub cursor: u64,
    /// `Stats.pending`.
    pub pending: usize,
    /// `Stats.total_delay_ms`.
    pub total_delay_ms: f64,
    /// `Stats.feasible`.
    pub feasible: bool,
    /// The `Snapshot` JSON.
    pub snapshot: String,
}

/// One measured round.
#[derive(Debug)]
pub struct Round {
    /// Measured requests, in send order per connection.
    pub recs: Vec<Rec>,
    /// Daemon spawn(s) to `Init` answered.
    pub setup_s: f64,
    /// `Init` answered to the last measured request answered.
    pub body_s: f64,
    /// Primary SIGKILL to the promoted standby answering a `Query`.
    pub failover_s: Option<f64>,
    /// Open-loop generator lateness per gateway push (ms).
    pub lateness_ms: Vec<f64>,
    /// Bytes in the (primary's) journal after the body.
    pub journal_bytes: u64,
    /// State read back at the end (from the promoted standby on
    /// `ingest-ha`).
    pub end: EndState,
}

impl Round {
    /// Events acknowledged over the round.
    pub fn events_acked(&self) -> u64 {
        self.recs.iter().map(|r| r.acked).sum()
    }
}

/// Where and how rounds run.
#[derive(Debug)]
pub struct Bench {
    /// The `tacc` binary.
    pub tacc: PathBuf,
    /// Scratch directory of the run (journals, sockets, daemon logs).
    pub dir: PathBuf,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn path_arg(p: &Path) -> String {
    p.display().to_string()
}

/// Sends one measured request and classifies its answer.
fn measure(
    conn: &mut Conn,
    conn_id: u8,
    op: Op,
    inputs: &Inputs,
    t0: Instant,
    traced: bool,
) -> Rec {
    let sent = secs(t0);
    let result = conn.call(&op.request(inputs), traced);
    let done = secs(t0);
    let mut rec = Rec {
        conn: conn_id,
        sent,
        done,
        latency_ms: (done - sent) * 1e3,
        from_due_ms: None,
        outcome: Outcome::Timeout,
        request_bytes: 0,
        response_bytes: 0,
        split: None,
        acked: 0,
        solution: None,
        op,
    };
    let Ok(ex) = result else { return rec };
    rec.request_bytes = ex.request_bytes;
    rec.response_bytes = ex.response_bytes;
    rec.split = ex.split;
    rec.outcome = match (&rec.op, ex.response) {
        (Op::Push { burst, .. }, Response::Accepted { queued, .. })
            if queued == inputs.bursts[*burst].len() =>
        {
            rec.acked = queued as u64;
            Outcome::Ok
        }
        (Op::Query { device }, Response::Device { device: d, .. }) if d == *device => Outcome::Ok,
        (
            Op::Solve { .. },
            Response::Solution { feasible, objective, spent, fallbacks, assignment, .. },
        ) => {
            rec.solution = Some(Sol { feasible, objective, spent, fallbacks, assignment });
            Outcome::Ok
        }
        (_, Response::Overloaded { .. }) => Outcome::Overloaded,
        _ => Outcome::Error,
    };
    rec
}

/// An unmeasured exchange that must succeed.
fn expect(conn: &mut Conn, request: &Request, what: &str) -> Result<Response, String> {
    let ex = conn.call(request, false).map_err(|e| format!("{what}: {e}"))?;
    match ex.response {
        Response::Error { code, message } => Err(format!("{what}: {code:?}: {message}")),
        other => Ok(other),
    }
}

fn init(conn: &mut Conn, inputs: &Inputs) -> Result<(), String> {
    let request = Request::Init { trace: inputs.shell.clone(), config: inputs.config.clone() };
    match expect(conn, &request, "Init")? {
        Response::Initialized { .. } => Ok(()),
        other => Err(format!("Init answered {other:?}")),
    }
}

/// `Stats` then `Snapshot`.
fn read_end(conn: &mut Conn) -> Result<EndState, String> {
    let Response::Stats { cursor, pending, total_delay_ms, feasible, .. } =
        expect(conn, &Request::Stats, "Stats")?
    else {
        return Err("Stats answered the wrong shape".into());
    };
    let Response::Snapshot { snapshot_json } = expect(conn, &Request::Snapshot, "Snapshot")? else {
        return Err("Snapshot answered the wrong shape".into());
    };
    Ok(EndState { cursor, pending, total_delay_ms, feasible, snapshot: snapshot_json })
}

fn shutdown(conn: &mut Conn, daemon: &mut Daemon) {
    let _ = conn.call(&Request::Shutdown, false);
    daemon.finish(Duration::from_secs(10));
}

/// The closed-loop request sequence of `ingest-ha` and `solve-rl`: each
/// burst is pushed, its last device queried, and every `solve_every`
/// bursts a `Solve` sent.
pub fn closed_loop_ops(spec: &Spec, inputs: &Inputs) -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..inputs.bursts.len() {
        ops.push(Op::Push { burst: i, seq: i as u64 + 1 });
        ops.push(Op::Query { device: inputs.query_device(i) });
        if spec.solve_every > 0 && (i + 1) % spec.solve_every == 0 {
            ops.push(Op::Solve { budget: 0 });
        }
    }
    ops
}

impl Bench {
    /// Runs round `k` of `spec` in a fresh scratch directory. The
    /// directory stays until the run ends: deleting a round's journals
    /// would put their filesystem work under the next round's fsyncs.
    pub fn round(
        &self,
        k: usize,
        spec: &Spec,
        inputs: &Inputs,
        traced: bool,
    ) -> Result<Round, String> {
        let dir = self.dir.join(format!("r{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        match spec.open_loop {
            Some(compression) => self.round_two_conn(spec, inputs, &dir, compression, traced),
            None => self.round_closed(spec, inputs, &dir, traced),
        }
    }

    fn spawn(&self, dir: &Path, name: &str, args: Vec<String>) -> Result<Daemon, String> {
        let daemon = Daemon::spawn(
            &self.tacc,
            dir.join(format!("{name}.sock")),
            &args,
            &dir.join(format!("{name}.log")),
        )?;
        daemon.wait_bound(BIND_PATIENCE)?;
        Ok(daemon)
    }

    fn round_closed(
        &self,
        spec: &Spec,
        inputs: &Inputs,
        dir: &Path,
        traced: bool,
    ) -> Result<Round, String> {
        let journal = dir.join("primary.jsonl");
        let standby_journal = dir.join("standby.jsonl");
        let started = Instant::now();
        let mut standby = if spec.ha {
            Some(self.spawn(
                dir,
                "standby",
                vec!["--standby".into(), "--journal".into(), path_arg(&standby_journal)],
            )?)
        } else {
            None
        };
        let mut args = vec!["--journal".into(), path_arg(&journal)];
        if let Some(s) = &standby {
            args.extend(["--replicate-to".into(), path_arg(&s.sock)]);
        }
        let mut primary = self.spawn(dir, "primary", args)?;
        let mut conn = Conn::connect(&primary.sock, BIND_PATIENCE, DEADLINE)?;
        init(&mut conn, inputs)?;
        let setup_s = secs(started);

        let t0 = Instant::now();
        let recs: Vec<Rec> = closed_loop_ops(spec, inputs)
            .into_iter()
            .map(|op| measure(&mut conn, 0, op, inputs, t0, traced))
            .collect();
        let body_s = secs(t0);
        let journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);

        let Some(standby) = standby.as_mut() else {
            let end = read_end(&mut conn)?;
            shutdown(&mut conn, &mut primary);
            return Ok(Round {
                recs,
                setup_s,
                body_s,
                failover_s: None,
                lateness_ms: Vec::new(),
                journal_bytes,
                end,
            });
        };
        // Fail over: SIGKILL the primary; the promoted standby must
        // answer a Query.
        let killed = Instant::now();
        primary.kill();
        drop(conn);
        let mut conn = Conn::connect(&standby.sock, BIND_PATIENCE, DEADLINE)?;
        match expect(&mut conn, &Request::Promote, "Promote")? {
            Response::Promoted { was_primary: false, .. } => {}
            other => return Err(format!("Promote answered {other:?}")),
        }
        match expect(&mut conn, &Request::Query { device: 0 }, "Query after failover")? {
            Response::Device { .. } => {}
            other => return Err(format!("Query after failover answered {other:?}")),
        }
        let failover_s = secs(killed);
        let end = read_end(&mut conn)?;
        shutdown(&mut conn, standby);
        Ok(Round {
            recs,
            setup_s,
            body_s,
            failover_s: Some(failover_s),
            lateness_ms: Vec::new(),
            journal_bytes,
            end,
        })
    }

    fn round_two_conn(
        &self,
        spec: &Spec,
        inputs: &Inputs,
        dir: &Path,
        compression: f64,
        traced: bool,
    ) -> Result<Round, String> {
        let journal = dir.join("primary.jsonl");
        let started = Instant::now();
        let mut daemon = self.spawn(
            dir,
            "primary",
            vec!["--journal".into(), path_arg(&journal), "--zones".into(), spec.zones.to_string()],
        )?;
        let mut gateway = Conn::connect(&daemon.sock, BIND_PATIENCE, DEADLINE)?;
        init(&mut gateway, inputs)?;
        let setup_s = secs(started);

        let times: Vec<f64> = inputs.events.iter().map(|t| t.time_ms).collect();
        let happens_ms = spread_ticks(&times, SURGE_TICK_MS);
        let stop = AtomicBool::new(false);
        let t0 = Instant::now();
        let sock = daemon.sock.clone();
        let (mut recs, lateness_ms, body_s, operator) = std::thread::scope(|scope| {
            let operator = scope.spawn(|| operator_loop(&sock, inputs, t0, &stop, traced));
            let mut recs = Vec::with_capacity(inputs.bursts.len());
            let mut lateness_ms = Vec::with_capacity(inputs.bursts.len());
            let mut conn_free = 0.0;
            for (i, range) in inputs.bursts.iter().enumerate() {
                let due = due_s(happens_ms[range.end - 1], compression);
                let now = secs(t0);
                if due > now {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                let op = Op::Push { burst: i, seq: i as u64 + 1 };
                let mut rec = measure(&mut gateway, 0, op, inputs, t0, traced);
                lateness_ms.push(lateness_s(rec.sent, due, conn_free) * 1e3);
                rec.from_due_ms = Some(latency_from_due_s(rec.done, due) * 1e3);
                conn_free = rec.done;
                recs.push(rec);
            }
            let body_s = secs(t0);
            stop.store(true, Ordering::SeqCst);
            drop(gateway);
            let operator = operator.join().expect("operator thread panicked");
            (recs, lateness_ms, body_s, operator)
        });
        recs.extend(operator?);

        let journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
        let mut conn = Conn::connect(&daemon.sock, BIND_PATIENCE, DEADLINE)?;
        let end = read_end(&mut conn)?;
        shutdown(&mut conn, &mut daemon);
        Ok(Round { recs, setup_s, body_s, failover_s: None, lateness_ms, journal_bytes, end })
    }
}

/// The operator of `ops-2conn`: alternates `Query` and `Solve` on its
/// own connection until the gateway is done and it has had at least one
/// answer of each.
fn operator_loop(
    sock: &Path,
    inputs: &Inputs,
    t0: Instant,
    stop: &AtomicBool,
    traced: bool,
) -> Result<Vec<Rec>, String> {
    let mut conn = Conn::connect(sock, BIND_PATIENCE, DEADLINE)?;
    let mut recs = Vec::new();
    let (mut queries, mut solves) = (0usize, 0usize);
    loop {
        let done_both = queries > 0 && solves > 0;
        if stop.load(Ordering::SeqCst) && done_both {
            break;
        }
        let op = if queries <= solves {
            queries += 1;
            Op::Query { device: (queries * 7919) % inputs.shell.scenario.num_iot }
        } else {
            solves += 1;
            Op::Solve { budget: 0 }
        };
        let mut rec = measure(&mut conn, 1, op, inputs, t0, traced);
        if rec.outcome == Outcome::Ok && rec.latency_ms > OP_LIMIT_MS {
            rec.outcome = Outcome::OverLimit;
        }
        let broken = rec.outcome == Outcome::Timeout;
        recs.push(rec);
        if broken {
            break;
        }
    }
    Ok(recs)
}
