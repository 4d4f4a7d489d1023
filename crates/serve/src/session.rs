//! The daemon's resident state: one scenario, one runtime, one journal.

use serde_json::Value;
use tacc_chaos::{Journal, JournalRecord, RecoveryPolicy};
use tacc_core::Algorithm;
use tacc_gap::GapInstance;
use tacc_guard::{Budget, Supervisor, SupervisorConfig};
use tacc_obs::StreamWriter;
use tacc_proto::{ErrorCode, QueryState, Response};
use tacc_runtime::{DeviceState, Runtime, RuntimeConfig};
use tacc_topology::{AltOracle, DelayOracle};
use tacc_workload::{TimedEvent, Trace, TraceEvent};

use std::sync::Mutex;

use tacc_zone::{RouterConfig, ZoneLayout};

use crate::surge::SurgeController;
use crate::{ServeConfig, ServeError};

/// Probes a named failpoint, rendering a fired fault as the typed
/// [`ServeError::Io`] a real I/O failure on the same path would produce.
pub(crate) fn failpoint(name: &'static str) -> Result<(), ServeError> {
    tacc_failpoints::check(name).map_err(|f| ServeError::io(name, &f.to_io_error()))
}

/// Landmarks for the brownout ALT oracle: enough for useful bounds,
/// cheap enough (`ALT_LANDMARKS + 1` core SSSP sweeps) that building it
/// under pressure is still far below one exact-matrix refresh.
const ALT_LANDMARKS: usize = 4;

/// A live control-plane session: the growing trace of wire-accepted
/// events, the runtime applying them, and the durability/observability
/// sidecars.
///
/// The coalescing contract: `push` journals and *queues* events;
/// [`Session::flush`] applies everything pending in one pass of
/// sequential [`Runtime::step`] calls — exactly the order a `run-trace`
/// replay would use — so the resulting state is independent of how
/// events were grouped into bursts, and a journal replay reproduces it
/// byte-for-byte.
#[derive(Debug)]
pub struct Session {
    trace: Trace,
    runtime: Runtime,
    journal: Option<Journal>,
    supervisor: Supervisor,
    cfg: ServeConfig,
    stream: Option<StreamWriter>,
    applied_since_snapshot: u64,
    solves: u64,
    pushes: u64,
    /// Cached Solve sub-instance; see [`SubCache`].
    sub_cache: Option<SubCache>,
    /// The brownout ladder; fed one observation per admission decision.
    surge: SurgeController,
    /// Sequence number of the most recently *accepted* sequenced push
    /// (`0` = none yet). A re-send of exactly this number is answered
    /// from [`Session::last_ack`] without touching state — the
    /// idempotency contract retrying clients rely on.
    last_seq: u64,
    /// The acknowledgement recorded for [`Session::last_seq`].
    last_ack: Option<Response>,
}

/// The (active devices × alive servers) sub-instance a `Solve` query
/// runs against, cached between queries. The runtime cursor is the
/// cache key: `solve` flushes first, and every state change goes
/// through [`Runtime::step`] (which advances the cursor), so an
/// unchanged cursor means an unchanged sub-instance — repeated Solve
/// queries between events stop re-materializing the delay sub-matrix.
/// Reuse and rebuild are counted on the `fast.oracle_hits` /
/// `fast.oracle_refines` obs counters. The `alt` flag is part of the
/// key: exact and ALT-bound sub-instances differ, so a brownout
/// transition between two solves forces a rebuild.
#[derive(Debug)]
struct SubCache {
    cursor: u64,
    /// Whether the rows hold ALT bounds (brownout L2+) or exact delays.
    alt: bool,
    /// Active device indices, in instance order (sub-instance rows).
    active: Vec<usize>,
    /// Alive server indices, in instance order (sub-instance columns).
    alive: Vec<usize>,
    sub: GapInstance,
}

/// The deterministic session summary behind the `Stats` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Events applied so far.
    pub cursor: u64,
    /// Events accepted but not yet applied.
    pub pending: usize,
    /// Devices actively assigned.
    pub active_devices: usize,
    /// Devices shed for capacity.
    pub shed_devices: usize,
    /// Devices partitioned from every alive server.
    pub unreachable_devices: usize,
    /// Devices that departed.
    pub departed_devices: usize,
    /// Alive servers.
    pub alive_servers: usize,
    /// Total delay of the current assignment (ms).
    pub total_delay_ms: f64,
    /// Whether the current assignment is feasible.
    pub feasible: bool,
}

impl Session {
    /// Starts a fresh session from a scenario-only trace (its `events`
    /// must be empty — events arrive over the wire). Solves the initial
    /// assignment, creates the journal (when configured) and opens the
    /// obs stream (when configured).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] for a non-empty event list, an algorithm
    /// that is not anytime-capable, or runtime construction failures;
    /// [`ServeError::Io`] for journal/stream filesystem failures.
    pub fn start(
        trace: Trace,
        config: RuntimeConfig,
        cfg: &ServeConfig,
    ) -> Result<Session, ServeError> {
        if !trace.events.is_empty() {
            return Err(ServeError::state(
                "Init traces carry the scenario only; push events over the wire",
            ));
        }
        let Some(algorithm) = Algorithm::by_name(&cfg.algorithm) else {
            return Err(ServeError::state(format!("unknown algorithm `{}`", cfg.algorithm)));
        };
        if algorithm.anytime_solver(0).is_none() {
            return Err(ServeError::state(format!(
                "`{}` is one-shot; Solve queries need an anytime-capable algorithm",
                cfg.algorithm
            )));
        }
        let runtime = Runtime::from_trace(&trace, config.clone())
            .map_err(|e| ServeError::state(e.to_string()))?;
        let journal = match &cfg.journal {
            Some(path) => Some(
                Journal::create_session(path, &trace.scenario, &config)
                    .map_err(|e| ServeError::state(e.to_string()))?,
            ),
            None => None,
        };
        let stream = open_stream(cfg, &trace, &runtime, false)?;
        Ok(Session {
            trace,
            runtime,
            journal,
            supervisor: Supervisor::new(SupervisorConfig::default()),
            cfg: cfg.clone(),
            stream,
            applied_since_snapshot: 0,
            solves: 0,
            pushes: 0,
            sub_cache: None,
            surge: SurgeController::new(cfg.surge.clone()),
            last_seq: 0,
            last_ack: None,
        })
    }

    /// Rebuilds a session from its journal alone through
    /// [`tacc_chaos::recover`]: scenario, events, restore point and the
    /// last `SeqAck` come from the journal, and the journaled events past
    /// the restore point replay deterministically — landing on exactly
    /// the state the killed daemon had acknowledged.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] when no journal is configured or the journal
    /// is unusable under [`RecoveryPolicy::Strict`]; [`ServeError::Io`]
    /// when the `snapshot.load` failpoint fires; plus everything
    /// [`Session::start`] can return.
    pub fn recover(cfg: &ServeConfig) -> Result<Session, ServeError> {
        let Some(path) = cfg.journal.clone() else {
            return Err(ServeError::state("recovery needs --journal"));
        };
        failpoint("snapshot.load")?;
        let recovery = tacc_chaos::recover(&path, RecoveryPolicy::Strict)
            .map_err(|e| ServeError::state(e.to_string()))?;
        let (trace, mut runtime) = (recovery.trace, recovery.runtime);
        // Replay every journaled event past the restore point; the state
        // after this is byte-identical to an uninterrupted session that
        // flushed the same events.
        while (runtime.cursor() as usize) < trace.events.len() {
            let index = runtime.cursor() as usize;
            runtime
                .step(index, &trace.events[index])
                .map_err(|e| ServeError::state(e.to_string()))?;
        }

        let mut journal =
            Journal::open_append(&path).map_err(|e| ServeError::state(e.to_string()))?;
        journal
            .append(&JournalRecord::Recovered { cursor: runtime.cursor() })
            .map_err(|e| ServeError::state(e.to_string()))?;

        let stream = open_stream(cfg, &trace, &runtime, true)?;
        tacc_obs::counter_add("serve.recoveries", 1);
        // Restore the seq-dedup state from the journaled acknowledgement:
        // an acked burst re-sent across the crash (or a failover) is
        // answered from here instead of journaled twice.
        let (last_seq, last_ack) = match recovery.seq_ack {
            Some((seq, queued, pending)) => (
                seq,
                Some(Response::Accepted { queued: queued as usize, pending: pending as usize }),
            ),
            None => (0, None),
        };
        Ok(Session {
            trace,
            runtime,
            journal: Some(journal),
            supervisor: Supervisor::new(SupervisorConfig::default()),
            cfg: cfg.clone(),
            stream,
            applied_since_snapshot: 0,
            solves: 0,
            pushes: 0,
            sub_cache: None,
            surge: SurgeController::new(cfg.surge.clone()),
            last_seq,
            last_ack,
        })
    }

    /// Events accepted but not yet applied.
    pub fn pending(&self) -> usize {
        self.trace.events.len() - self.runtime.cursor() as usize
    }

    /// Events applied so far (the runtime cursor).
    pub fn cursor(&self) -> u64 {
        self.runtime.cursor()
    }

    /// The current brownout-ladder label (`normal`, `l1-budget`,
    /// `l2-alt-oracle`, `l3-tier-shed`).
    pub fn brownout(&self) -> &'static str {
        self.surge.label()
    }

    /// The current brownout-ladder level (0–3).
    pub fn brownout_level(&self) -> u8 {
        self.surge.level()
    }

    /// The underlying runtime (read-only; tests and the server's
    /// `Initialized` response).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Accepts a burst: validates it whole, journals it durably (one
    /// fsync), queues it, and — once the backlog reaches
    /// [`ServeConfig::batch_size`] — applies everything in one coalesced
    /// pass. A burst that would overflow the (brownout-adjusted)
    /// admission cap is rejected atomically with `Overloaded` carrying a
    /// deterministic retry hint; an invalid burst with `BadRequest`.
    /// Neither touches session state.
    ///
    /// A nonzero `seq` makes the push idempotent: a re-send of the most
    /// recently accepted sequence number is answered with the recorded
    /// acknowledgement — no re-journal, no duplicate events — so a
    /// client that lost the ack to a timeout can retry blindly.
    /// Rejections are never recorded, so a shed sequence number retries
    /// into real admission. `seq == 0` means unsequenced: never deduplicated.
    ///
    /// Every admission decision feeds the [`SurgeController`]; under
    /// deep brownout (L2+) a burst carrying no top-tier device faces a
    /// tightened cap — lowest tiers shed first, as deferral, never loss.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] only for journal or runtime failures —
    /// protocol-level rejections come back as `Ok(Response::...)`.
    pub fn push(&mut self, events: Vec<TimedEvent>, seq: u64) -> Result<Response, ServeError> {
        if seq != 0 && seq == self.last_seq {
            if let Some(ack) = &self.last_ack {
                tacc_obs::counter_add("serve.backpressure.dup_pushes", 1);
                return Ok(ack.clone());
            }
        }
        if let Err(reason) = self.validate_burst(&events) {
            return Ok(Response::Error { code: ErrorCode::BadRequest, message: reason });
        }
        let pending = self.pending();
        let low_tier = self.burst_is_low_tier(&events);
        let cap = self.surge.effective_cap(self.cfg.max_pending, low_tier);
        if pending + events.len() > cap {
            tacc_obs::counter_add("serve.overloaded", 1);
            tacc_obs::counter_add("serve.backpressure.rejects", 1);
            if cap < self.cfg.max_pending {
                tacc_obs::counter_add("serve.backpressure.tier_shed", 1);
            }
            self.surge.observe(pending, self.cfg.max_pending, true);
            let retry_after_ms = self.surge.retry_after_ms(pending, self.cfg.batch_size);
            let brownout = self.surge.label().to_owned();
            self.record_stream(
                "overload",
                vec![
                    ("pending".to_owned(), Value::UInt(pending as u64)),
                    ("cap".to_owned(), Value::UInt(cap as u64)),
                    ("rejected".to_owned(), Value::UInt(events.len() as u64)),
                    ("retry_after_ms".to_owned(), Value::UInt(retry_after_ms)),
                    ("brownout".to_owned(), Value::Str(brownout.clone())),
                ],
            )?;
            return Ok(Response::Overloaded {
                pending,
                max_pending: cap,
                rejected: events.len(),
                retry_after_ms,
                brownout,
            });
        }

        // Write-ahead: durable before acknowledged, all-or-nothing per
        // burst (one fsync). A sequenced burst's acknowledgement rides
        // the same fsync as its events (the pending count is predicted
        // across the possible batch-triggered flush below), so recovery
        // and failover restore the dedup state atomically with the
        // events it guards.
        if let Some(journal) = self.journal.as_mut() {
            let base = self.trace.events.len() as u64;
            let mut records: Vec<JournalRecord> = events
                .iter()
                .enumerate()
                .map(|(i, timed)| JournalRecord::Event {
                    index: base + i as u64,
                    timed: timed.clone(),
                })
                .collect();
            if seq != 0 {
                let pending_after = pending + events.len();
                let final_pending =
                    if pending_after >= self.cfg.batch_size { 0 } else { pending_after };
                records.push(JournalRecord::SeqAck {
                    seq,
                    queued: events.len() as u64,
                    pending: final_pending as u64,
                });
            }
            journal.append_batch(&records).map_err(|e| ServeError::state(e.to_string()))?;
        }

        let queued = events.len();
        self.trace.events.extend(events);
        self.pushes += 1;
        tacc_obs::counter_add("serve.events_accepted", queued as u64);
        let push_index = self.pushes;
        let pending_now = self.pending();
        self.surge.observe(pending_now, self.cfg.max_pending, false);
        self.record_stream(
            "push",
            vec![
                ("push".to_owned(), Value::UInt(push_index)),
                ("queued".to_owned(), Value::UInt(queued as u64)),
                ("pending".to_owned(), Value::UInt(pending_now as u64)),
            ],
        )?;

        if self.pending() >= self.cfg.batch_size {
            self.flush()?;
        }
        let response = Response::Accepted { queued, pending: self.pending() };
        if seq != 0 {
            self.last_seq = seq;
            self.last_ack = Some(response.clone());
        }
        Ok(response)
    }

    /// Whether a burst carries *no* top-tier device event — the bursts
    /// deep brownout sheds first. With no configured priorities (an
    /// untiered session) nothing is ever low tier, and non-device events
    /// (server failures, link drift) always count as top tier: shedding
    /// can only ever defer explicitly low-priority device traffic.
    fn burst_is_low_tier(&self, events: &[TimedEvent]) -> bool {
        let priorities = &self.runtime.config().priorities;
        if priorities.is_empty() || events.is_empty() {
            return false;
        }
        let top = priorities.iter().copied().fold(f64::MIN, f64::max);
        events.iter().all(|timed| match timed.event {
            TraceEvent::DeviceJoin { device } | TraceEvent::DeviceLeave { device } => {
                priorities.get(device).copied().unwrap_or(top) < top
            }
            _ => false,
        })
    }

    /// Applies every pending event in one coalesced pass, journaling a
    /// `Snapshot` when the configured cadence is due. The events
    /// themselves were journaled when they were accepted.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on runtime or journal failures.
    pub fn flush(&mut self) -> Result<(u64, u64), ServeError> {
        let start = self.runtime.cursor();
        if self.pending() == 0 {
            return Ok((0, start));
        }
        while (self.runtime.cursor() as usize) < self.trace.events.len() {
            let index = self.runtime.cursor() as usize;
            self.runtime
                .step(index, &self.trace.events[index])
                .map_err(|e| ServeError::state(e.to_string()))?;
        }
        let cursor = self.runtime.cursor();
        let applied = cursor - start;
        self.applied_since_snapshot += applied;
        tacc_obs::counter_add("serve.flushes", 1);
        tacc_obs::counter_add("serve.events_applied", applied);

        if let Some(journal) = self.journal.as_mut() {
            if self.cfg.snapshot_every > 0 && self.applied_since_snapshot >= self.cfg.snapshot_every
            {
                failpoint("snapshot.save")?;
                journal
                    .append(&JournalRecord::Snapshot { snapshot: self.runtime.snapshot() })
                    .map_err(|e| ServeError::state(e.to_string()))?;
                self.applied_since_snapshot = 0;
            }
        }
        self.record_stream(
            "flush",
            vec![
                ("applied".to_owned(), Value::UInt(applied)),
                ("cursor".to_owned(), Value::UInt(cursor)),
                ("active".to_owned(), Value::UInt(self.runtime.cluster().active_count() as u64)),
                ("total_delay_ms".to_owned(), Value::Float(self.runtime.cluster().total_delay())),
            ],
        )?;
        Ok((applied, cursor))
    }

    /// Answers a device-state query against *current* state (pending
    /// events are flushed first, so an answer never describes a stale
    /// world).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on flush failures.
    pub fn query(&mut self, device: usize) -> Result<Response, ServeError> {
        self.flush()?;
        if device >= self.trace.scenario.num_iot {
            return Ok(Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("device {device} out of range ({})", self.trace.scenario.num_iot),
            });
        }
        tacc_obs::counter_add("serve.queries", 1);
        let (state, server) = match self.runtime.device_state(device) {
            DeviceState::Assigned(server) => (QueryState::Assigned, Some(server)),
            DeviceState::Shed => (QueryState::Shed, None),
            DeviceState::Unreachable => (QueryState::Unreachable, None),
            DeviceState::Departed => (QueryState::Departed, None),
        };
        let delay_ms = server.map(|s| self.runtime.cluster().instance().delay(device, s));
        Ok(Response::Device { device, state, server, delay_ms })
    }

    /// Re-solves the *current* sub-instance (active devices × alive
    /// servers) under the supervisor's fallback ladder and a
    /// deterministic work budget (`0` = the configured default). The
    /// answer is bounded: the primary anytime solver is truncated at the
    /// budget, and the ladder guarantees a feasible assignment or a
    /// typed error — never a hang.
    ///
    /// Under brownout the answer degrades further, explicitly: the
    /// budget shrinks (÷4 at L1, ÷16 at L2+) and at L2+ the sub-instance
    /// is built from [`AltOracle`] delay *bounds* instead of exact
    /// maintained delays — a cheaper, admissible approximation. Solve
    /// never mutates session state, so a degraded answer cannot perturb
    /// the event timeline or the final snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on flush failures.
    pub fn solve(&mut self, budget_units: u64) -> Result<Response, ServeError> {
        self.flush()?;
        let requested = if budget_units == 0 { self.cfg.query_budget } else { budget_units };
        let units = self.surge.solve_budget(requested);
        let alt = self.surge.use_alt_oracle();
        if alt {
            tacc_obs::counter_add("surge.alt_solves", 1);
        }
        if self.cfg.zones >= 2 && !alt {
            // Zone-decomposed path; under L2+ brownout the flat
            // AltOracle-bounded path below stays in charge (its budget
            // is already ÷16 — decomposition buys nothing there).
            return self.solve_zoned(units);
        }

        let cursor = self.runtime.cursor();
        let cached = self.sub_cache.as_ref().is_some_and(|c| c.cursor == cursor && c.alt == alt);
        if cached {
            tacc_obs::counter_add("fast.oracle_hits", 1);
        } else {
            tacc_obs::counter_add("fast.oracle_refines", 1);
            let instance = self.runtime.cluster().instance();
            let active: Vec<usize> = (0..instance.num_devices())
                .filter(|&d| self.runtime.cluster().is_active(d))
                .collect();
            let alive: Vec<usize> = (0..instance.num_servers())
                .filter(|&j| !self.runtime.maintainer().is_failed(j))
                .collect();
            if active.is_empty() || alive.is_empty() {
                self.sub_cache = None;
                return Ok(Response::Error {
                    code: ErrorCode::BadRequest,
                    message: "nothing to solve: no active devices or no alive servers".to_owned(),
                });
            }
            let rows: Vec<Vec<f64>> = if alt {
                let oracle = AltOracle::new(
                    self.runtime.topology(),
                    self.runtime.maintainer().model(),
                    ALT_LANDMARKS,
                );
                active
                    .iter()
                    .map(|&d| alive.iter().map(|&j| oracle.delay_bound(d, j)).collect())
                    .collect()
            } else {
                active
                    .iter()
                    .map(|&d| alive.iter().map(|&j| instance.delay(d, j)).collect())
                    .collect()
            };
            let demands: Vec<f64> = active
                .iter()
                .flat_map(|&d| alive.iter().map(move |&j| instance.demand(d, j)))
                .collect();
            let capacities: Vec<f64> = alive.iter().map(|&j| instance.capacity(j)).collect();
            let sub = GapInstance::builder(tacc_topology::DelayMatrix::from_rows(rows))
                .demand_matrix(demands)
                .capacities(capacities)
                .build()
                .map_err(|e| ServeError::state(format!("sub-instance: {e}")))?;
            self.sub_cache = Some(SubCache { cursor, alt, active, alive, sub });
        }
        let cache = self.sub_cache.as_ref().expect("cache populated above");
        let (active, alive, sub) = (&cache.active, &cache.alive, &cache.sub);

        self.solves += 1;
        let seed = self
            .runtime
            .config()
            .seed
            .wrapping_add(self.solves.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let algorithm =
            Algorithm::by_name(&self.cfg.algorithm).expect("validated at session start");
        let primary = algorithm.anytime_solver(seed).expect("validated at session start");

        let budget = Budget::units(units);
        let result = self.supervisor.supervise(primary.as_ref(), sub, &budget);
        let (solution, guard) = match result {
            Ok(answer) => answer,
            Err(e) => {
                return Ok(Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("solve ladder exhausted: {e}"),
                });
            }
        };

        let assignment: Vec<(usize, usize)> = active
            .iter()
            .enumerate()
            .filter_map(|(row, &device)| {
                solution.assignment.server_of(row).map(|s| (device, alive[s]))
            })
            .collect();
        self.record_stream(
            "solve",
            vec![
                ("budget".to_owned(), Value::UInt(units)),
                ("solver".to_owned(), Value::Str(guard.solver.clone())),
                ("degradation".to_owned(), Value::Str(guard.degradation.label().to_owned())),
                ("objective".to_owned(), Value::Float(guard.objective)),
                ("feasible".to_owned(), Value::Bool(guard.feasible)),
                ("brownout".to_owned(), Value::Str(self.surge.label().to_owned())),
            ],
        )?;
        Ok(Response::Solution {
            feasible: guard.feasible,
            objective: guard.objective,
            solver: guard.solver,
            degradation: guard.degradation.label().to_owned(),
            spent: guard.spent,
            fallbacks: guard.fallbacks,
            panics_caught: guard.panics_caught,
            assignment,
        })
    }

    /// Zone-decomposed Solve: partitions the alive servers into
    /// `cfg.zones` zones over the maintainer's *current* link costs,
    /// routes active devices through the compressed summary, and
    /// supervises one guard ladder per zone under budget shares that
    /// sum exactly to the query budget. Merged answer: objective is
    /// the device-order delay sum after border refinement, degradation
    /// is the worst any zone reported. Read-only on session state,
    /// like the flat path.
    fn solve_zoned(&mut self, units: u64) -> Result<Response, ServeError> {
        let instance = self.runtime.cluster().instance();
        let active: Vec<usize> =
            (0..instance.num_devices()).filter(|&d| self.runtime.cluster().is_active(d)).collect();
        let alive: Vec<usize> = (0..instance.num_servers())
            .filter(|&j| !self.runtime.maintainer().is_failed(j))
            .collect();
        if active.is_empty() || alive.is_empty() {
            return Ok(Response::Error {
                code: ErrorCode::BadRequest,
                message: "nothing to solve: no active devices or no alive servers".to_owned(),
            });
        }
        let topology = self.runtime.topology();
        let capacities: Vec<f64> = alive.iter().map(|&j| instance.capacity(j)).collect();
        let layout = ZoneLayout::build_scoped(
            topology,
            self.runtime.maintainer().link_costs(),
            &alive,
            &capacities,
            self.cfg.zones,
        );
        let devices: Vec<tacc_topology::NodeId> =
            active.iter().map(|&d| topology.iot_nodes()[d]).collect();
        let demands: Vec<f64> = active.iter().map(|&d| instance.demand(d, 0)).collect();
        let routing = layout.route(&devices, &demands, &RouterConfig::default());
        let budgets = layout.split_rounds(&routing, &Budget::units(units));

        self.solves += 1;
        let seed = self
            .runtime
            .config()
            .seed
            .wrapping_add(self.solves.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let algorithm =
            Algorithm::by_name(&self.cfg.algorithm).expect("validated at session start");
        // One guard ladder per zone; reports land in a zone-indexed
        // side table so the parallel merge stays deterministic.
        let reports: Mutex<Vec<Option<tacc_gap::GuardReport>>> =
            Mutex::new(vec![None; layout.num_zones()]);
        let zoned =
            layout.solve_with(&devices, &demands, &routing, &budgets, |zone, sub, share| {
                let primary =
                    algorithm.anytime_solver(seed.wrapping_add(zone as u64)).expect("validated");
                let mut supervisor = Supervisor::new(SupervisorConfig::default());
                match supervisor.supervise(primary.as_ref(), sub, &Budget::units(share)) {
                    Ok((solution, guard)) => {
                        reports.lock().expect("report table")[zone] = Some(guard);
                        solution
                    }
                    // The ladder is exhausted only when even greedy cannot
                    // place the zone's devices; the reference dense solver
                    // still yields a complete (possibly overloaded)
                    // assignment, which the merge flags infeasible.
                    Err(_) => tacc_zone::dense_solve(sub, seed.wrapping_add(zone as u64), 1),
                }
            });
        let reports = reports.into_inner().expect("report table");
        let (mut spent, mut fallbacks, mut panics_caught) = (0u64, 0u32, 0u32);
        let mut degradation = tacc_gap::DegradationLevel::None;
        for guard in reports.iter().flatten() {
            spent += guard.spent;
            fallbacks += guard.fallbacks;
            panics_caught += guard.panics_caught;
            degradation = degradation.max(guard.degradation);
        }
        let solver = format!("zoned:{}", self.cfg.algorithm);

        self.record_stream(
            "zones",
            vec![
                ("zones".to_owned(), Value::UInt(layout.num_zones() as u64)),
                ("router_spills".to_owned(), Value::UInt(routing.spills as u64)),
                ("border_refinements".to_owned(), Value::UInt(zoned.refinements as u64)),
                ("budget".to_owned(), Value::UInt(units)),
            ],
        )?;
        self.record_stream(
            "solve",
            vec![
                ("budget".to_owned(), Value::UInt(units)),
                ("solver".to_owned(), Value::Str(solver.clone())),
                ("degradation".to_owned(), Value::Str(degradation.label().to_owned())),
                ("objective".to_owned(), Value::Float(zoned.objective)),
                ("feasible".to_owned(), Value::Bool(zoned.feasible)),
                ("brownout".to_owned(), Value::Str(self.surge.label().to_owned())),
            ],
        )?;
        let assignment: Vec<(usize, usize)> = active
            .iter()
            .enumerate()
            .filter_map(|(row, &device)| {
                let slot = zoned.server_of_device[row];
                (slot != u32::MAX).then(|| (device, alive[slot as usize]))
            })
            .collect();
        Ok(Response::Solution {
            feasible: zoned.feasible,
            objective: zoned.objective,
            solver,
            degradation: degradation.label().to_owned(),
            spent,
            fallbacks,
            panics_caught,
            assignment,
        })
    }

    /// The deterministic session summary (flushes first).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on flush failures.
    pub fn stats(&mut self) -> Result<SessionStats, ServeError> {
        self.flush()?;
        Ok(SessionStats {
            cursor: self.runtime.cursor(),
            pending: self.pending(),
            active_devices: self.runtime.cluster().active_count(),
            shed_devices: self.runtime.shed_count(),
            unreachable_devices: self.runtime.unreachable_count(),
            departed_devices: self.runtime.departed_count(),
            alive_servers: self.runtime.maintainer().alive_count(),
            total_delay_ms: self.runtime.cluster().total_delay(),
            feasible: self.runtime.cluster().is_feasible(),
        })
    }

    /// The full resumable snapshot, as JSON (flushes first).
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on flush failures.
    pub fn snapshot_json(&mut self) -> Result<String, ServeError> {
        self.flush()?;
        Ok(self.runtime.snapshot().to_json())
    }

    /// Finishes the session cleanly: flushes pending events, journals a
    /// final snapshot, and closes the obs stream with the registry
    /// snapshot appended. Called on `Shutdown` requests and SIGTERM.
    ///
    /// # Errors
    ///
    /// [`ServeError::State`] on flush/journal failures; [`ServeError::Io`]
    /// on stream failures.
    pub fn close(mut self) -> Result<(), ServeError> {
        self.flush()?;
        if let Some(journal) = self.journal.as_mut() {
            failpoint("snapshot.save")?;
            journal
                .append(&JournalRecord::Snapshot { snapshot: self.runtime.snapshot() })
                .map_err(|e| ServeError::state(e.to_string()))?;
        }
        if let Some(stream) = self.stream.take() {
            stream
                .finish(&tacc_obs::registry_snapshot())
                .map_err(|e| ServeError::io("finishing obs stream", &e))?;
        }
        Ok(())
    }

    /// Validates a burst against the scenario and the session timeline
    /// (the same structural rules as [`Trace::validate`], applied
    /// incrementally), without touching state.
    fn validate_burst(&self, events: &[TimedEvent]) -> Result<(), String> {
        let mut last = self.trace.events.last().map_or(0.0, |t| t.time_ms);
        for (i, timed) in events.iter().enumerate() {
            let t = timed.time_ms;
            if !t.is_finite() || t < 0.0 {
                return Err(format!("event {i}: time {t} is not finite and non-negative"));
            }
            if t < last {
                return Err(format!("event {i}: time {t} goes backwards (previous {last})"));
            }
            last = t;
            match timed.event {
                TraceEvent::DeviceJoin { device } | TraceEvent::DeviceLeave { device } => {
                    if device >= self.trace.scenario.num_iot {
                        return Err(format!(
                            "event {i}: device {device} out of range ({})",
                            self.trace.scenario.num_iot
                        ));
                    }
                }
                TraceEvent::ServerFail { server } | TraceEvent::ServerRecover { server } => {
                    if server >= self.trace.scenario.num_servers {
                        return Err(format!(
                            "event {i}: server {server} out of range ({})",
                            self.trace.scenario.num_servers
                        ));
                    }
                }
                TraceEvent::LinkLatencyDrift { latency_ms, .. } => {
                    if !latency_ms.is_finite() || latency_ms < 0.0 {
                        return Err(format!(
                            "event {i}: drift latency {latency_ms} is not finite and non-negative"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Appends one record to the obs stream, when one is open.
    fn record_stream(
        &mut self,
        kind: &str,
        fields: Vec<(String, Value)>,
    ) -> Result<(), ServeError> {
        if let Some(stream) = self.stream.as_mut() {
            stream.record(kind, fields).map_err(|e| ServeError::io("obs stream", &e))?;
        }
        Ok(())
    }
}

/// Opens the configured obs JSONL stream. Meta is deterministic only —
/// scenario coordinates and the session seed, never clocks — so two
/// same-seed sessions produce byte-identical streams.
fn open_stream(
    cfg: &ServeConfig,
    trace: &Trace,
    runtime: &Runtime,
    recovered: bool,
) -> Result<Option<StreamWriter>, ServeError> {
    let Some(path) = &cfg.obs_out else { return Ok(None) };
    let stream = StreamWriter::create(
        path,
        "serve",
        vec![
            ("family".to_owned(), Value::Str(format!("{:?}", trace.scenario.family))),
            ("num_iot".to_owned(), Value::UInt(trace.scenario.num_iot as u64)),
            ("num_servers".to_owned(), Value::UInt(trace.scenario.num_servers as u64)),
            ("scenario_seed".to_owned(), Value::UInt(trace.scenario.seed)),
            ("policy".to_owned(), Value::Str(runtime.config().policy.name().to_owned())),
            ("seed".to_owned(), Value::UInt(runtime.config().seed)),
            ("recovered".to_owned(), Value::Bool(recovered)),
            ("start_cursor".to_owned(), Value::UInt(runtime.cursor())),
        ],
    )
    .map_err(|e| ServeError::io("creating obs stream", &e))?;
    Ok(Some(stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_runtime::ReassignPolicy;
    use tacc_workload::{TraceGenerator, TraceScenario};

    fn session_with_trace(num_events: usize) -> (Session, Vec<TimedEvent>) {
        let scenario = TraceScenario {
            num_iot: 20,
            num_servers: 4,
            load_factor: 0.6,
            ..TraceScenario::default()
        };
        let trace = TraceGenerator::new(scenario).num_events(num_events).generate(9).unwrap();
        let shell = Trace { events: Vec::new(), ..trace.clone() };
        let config =
            RuntimeConfig { policy: ReassignPolicy::Greedy, seed: 3, ..RuntimeConfig::default() };
        let session = Session::start(shell, config, &ServeConfig::default()).unwrap();
        (session, trace.events)
    }

    #[test]
    fn solve_reuses_the_sub_instance_while_the_cursor_is_unchanged() {
        let (mut session, events) = session_with_trace(60);
        session.push(events[..30].to_vec(), 0).unwrap();
        session.flush().unwrap();

        assert!(session.sub_cache.is_none());
        let first = session.solve(200).unwrap();
        assert!(matches!(first, Response::Solution { .. }));
        let cursor = session.sub_cache.as_ref().expect("solve populates the cache").cursor;
        assert_eq!(cursor, session.runtime.cursor());

        // Same cursor: the cached sub-instance is reused, not rebuilt.
        let ptr_before = std::ptr::from_ref(&session.sub_cache.as_ref().unwrap().sub);
        session.solve(200).unwrap();
        let cache = session.sub_cache.as_ref().unwrap();
        assert_eq!(ptr_before, std::ptr::from_ref(&cache.sub), "cache entry survives");

        // New events move the cursor: the next solve rebuilds.
        session.push(events[30..].to_vec(), 0).unwrap();
        session.flush().unwrap();
        session.solve(200).unwrap();
        let cache = session.sub_cache.as_ref().unwrap();
        assert_eq!(cache.cursor, session.runtime.cursor());
        assert!(cache.cursor > cursor);
        assert_eq!(cache.active.len(), cache.sub.num_devices());
        assert_eq!(cache.alive.len(), cache.sub.num_servers());
    }
}
