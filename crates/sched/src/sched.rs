//! The concurrent multi-query scheduler.
//!
//! [`Scheduler::run`] executes a whole workload of [`QuerySpec`]s over
//! one deterministic runtime: every query gets its own message fabric
//! (a [`Net`] seeded with a disjoint RPC-id range) and its own set of
//! site actors, while *capacity* is shared — an [`Admission`] gate
//! bounds how many queries execute at once (strict priority, FIFO
//! within a priority) and a [`DrrGate`] bounds how many site RPCs are
//! on the wire (deficit round robin across priority lanes, so heavy
//! queries cannot starve light ones).
//!
//! # Execution
//!
//! A query's driver sleeps until its arrival time, races admission
//! against its deadline, then executes its plan: `CA` ships extents and
//! evaluates centrally; `BL`/`PL`/`HY` fan `LocalEval` dispatches out
//! through the gate and fold replies into a [`LocalizedMerge`] in
//! *completion* order (the merge canonicalises, so the answer is
//! byte-identical to a serial run of the same plan). `Adaptive` specs
//! ask the cost-based planner for the cheapest of CA/BL/PL/HY first and
//! feed the observed response time back into the catalog afterwards.
//!
//! # Mid-flight replanning
//!
//! For adaptive queries a monitor samples in-flight dispatches every
//! `probe_interval_us`. A site whose dispatch has been outstanding
//! longer than `max(min_straggler_us, straggler_factor × mean completed
//! latency)` is a *straggler*: its observed elapsed time is fed into
//! the catalog as a transport observation (repricing the link), the
//! planner re-prices the **unfinished** sites only
//! ([`fedoq_plan::replan`]), and each straggler is re-dispatched once
//! with its freshly priced mode. Completed work is never re-done and
//! never re-certified: the merge accepts the first reply per site and
//! discards the loser of the original-vs-redispatch race as stale.

use crate::gate::{Admission, DrrGate};
use crate::trace::{DispatchTrace, ReplanEvent, TraceEvent};
use fedoq_core::handlers::{centralized_answer_with, ship_plan, LocalizedConfig, LocalizedMerge};
use fedoq_core::{
    choose_plan, collect_catalog, plan_knobs, query_fingerprint, ExecError, Federation,
    LookupCache, PipelineConfig, QueryAnswer,
};
use fedoq_net::actor::{run_site, Ctx, FANOUT_TIMEOUT_SCALE};
use fedoq_net::msg::{Request, Response};
use fedoq_net::router::Net;
use fedoq_net::rpc::call;
use fedoq_net::rt::{join_all, timeout, Runtime};
use fedoq_net::{DistributedStrategy, Plan, RpcConfig, SiteModes, Transport};
use fedoq_object::DbId;
use fedoq_plan::{replan, StatsCatalog};
use fedoq_query::{plan_for_db, BoundQuery};
use fedoq_sim::{Phase, Simulation, Site};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// How a query picks its plan.
#[derive(Debug, Clone, Copy)]
pub enum SchedStrategy {
    /// Always run this strategy.
    Fixed(DistributedStrategy),
    /// Ask the cost-based planner (CA/BL/PL/HY) per query; eligible for
    /// mid-flight replanning.
    Adaptive,
}

/// One query submitted to the scheduler.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Caller-chosen id, unique within the workload (it also seeds the
    /// query's RPC-id range).
    pub id: u64,
    /// The query text.
    pub sql: String,
    /// Priority (higher = more urgent); drives admission order and the
    /// dispatch gate's lane weight.
    pub priority: u8,
    /// Completion deadline in virtual µs *from arrival*; `None` = none.
    pub deadline_us: Option<f64>,
    /// Virtual arrival time (µs from scheduler start).
    pub arrival_us: f64,
    /// Plan selection.
    pub strategy: SchedStrategy,
}

/// Scheduler capacity and policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Queries executing concurrently (admission slots).
    pub max_inflight: usize,
    /// Site RPCs on the wire concurrently (dispatch-gate slots).
    pub rpc_slots: usize,
    /// DRR replenish quantum (credits per round per unit weight).
    pub quantum: f64,
    /// A dispatch is a straggler past `straggler_factor ×` the mean
    /// completed-dispatch latency of its query.
    pub straggler_factor: f64,
    /// …but never before this many µs have elapsed.
    pub min_straggler_us: f64,
    /// Straggler-probe period (µs of virtual time).
    pub probe_interval_us: f64,
    /// Replan stragglers mid-flight (adaptive queries only).
    pub replan: bool,
    /// Timeout/retry policy for site RPCs.
    pub rpc: RpcConfig,
    /// Parallel-scan / batching / caching configuration for site work.
    pub pipeline: PipelineConfig,
    /// Idle time at the end of the run for late replies to land (µs).
    pub drain_us: f64,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            max_inflight: 16,
            rpc_slots: 8,
            quantum: 1.0,
            straggler_factor: 4.0,
            min_straggler_us: 20_000.0,
            probe_interval_us: 5_000.0,
            replan: true,
            rpc: RpcConfig::default(),
            pipeline: PipelineConfig::default(),
            drain_us: 50_000.0,
        }
    }
}

/// How one query ended.
#[derive(Debug, Clone)]
pub enum QueryVerdict {
    /// Certified answer (possibly degraded under faults).
    Answered(QueryAnswer),
    /// Execution failed (e.g. CA with an unreachable site).
    Failed(String),
    /// The deadline expired before the query won an execution slot.
    DeadlineExpiredInQueue,
    /// The deadline expired mid-execution.
    DeadlineMiss,
}

impl QueryVerdict {
    /// The answer, when there is one.
    pub fn answer(&self) -> Option<&QueryAnswer> {
        match self {
            QueryVerdict::Answered(answer) => Some(answer),
            _ => None,
        }
    }

    /// `true` for either deadline outcome.
    pub fn deadline_missed(&self) -> bool {
        matches!(
            self,
            QueryVerdict::DeadlineExpiredInQueue | QueryVerdict::DeadlineMiss
        )
    }
}

/// One query's result and timings.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The spec's id.
    pub id: u64,
    /// The executed plan's label (`CA`/`BL`/`PL`/`HY`, or the fixed
    /// strategy's name; `-` when never admitted).
    pub executed: String,
    /// How the query ended.
    pub verdict: QueryVerdict,
    /// Sites that stayed unreachable during this query.
    pub degraded_sites: Vec<DbId>,
    /// Virtual time the query entered the admission queue (µs).
    pub submitted_us: f64,
    /// Virtual time it won an execution slot (µs).
    pub started_us: f64,
    /// Virtual time it finished (µs).
    pub finished_us: f64,
    /// `true` when a mid-flight replan re-dispatched at least one site.
    pub replanned: bool,
}

/// Everything one scheduler run produced.
#[derive(Debug, Clone)]
pub struct SchedOutcome {
    /// Per-query outcomes, in spec order.
    pub queries: Vec<QueryOutcome>,
    /// The full dispatch trace, in virtual-time order.
    pub trace: Vec<TraceEvent>,
    /// Every mid-flight replan decision.
    pub replans: Vec<ReplanEvent>,
    /// Total RPC retries across all queries.
    pub retries: u64,
    /// Stale responses observed at the RPC layer (late replies to
    /// abandoned attempts).
    pub stale: u64,
    /// Virtual time the whole run took (µs), including the drain.
    pub virtual_us: f64,
}

/// The concurrent multi-query scheduler.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    config: SchedConfig,
}

// ---------------------------------------------------------------------
// Per-query shared state.
// ---------------------------------------------------------------------

/// Per-site dispatch bookkeeping.
#[derive(Debug, Default)]
struct SiteState {
    inflight: u32,
    replanned: bool,
    dispatched_at: f64,
}

/// Shared state of one localized execution: the merge accumulator plus
/// dispatch bookkeeping. Dispatch tasks, the straggler monitor, and the
/// query body all hold an `Rc` to it.
struct Board {
    merge: LocalizedMerge,
    states: BTreeMap<DbId, SiteState>,
    completed_us: Vec<f64>,
    remaining: usize,
    waker: Option<Waker>,
    replanned_any: bool,
    /// Set once the query body took the merge: late replies landing
    /// after this are stale by definition and must not touch `merge`
    /// (it has been replaced by an empty accumulator) or `remaining`.
    finished: bool,
}

impl Board {
    fn wake(&mut self) {
        if let Some(waker) = self.waker.take() {
            waker.wake();
        }
    }
}

/// Resolves when every hosting site is merged (success or loss).
struct BoardDone {
    board: Rc<RefCell<Board>>,
}

impl Future for BoardDone {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut board = self.board.borrow_mut();
        if board.remaining == 0 {
            return Poll::Ready(());
        }
        board.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Everything a query's tasks share (cheap to clone).
struct QueryCtx<'a> {
    fed: &'a Federation,
    query: &'a BoundQuery,
    net: Net<'a>,
    sim: Rc<RefCell<Simulation>>,
    catalog: Rc<RefCell<StatsCatalog>>,
    cache: Rc<RefCell<LookupCache>>,
    trace: DispatchTrace,
    gate: DrrGate,
    cfg: SchedConfig,
    qid: u64,
    priority: u8,
    attr_bytes: u64,
    cancel: Rc<Cell<bool>>,
}

impl<'a> Clone for QueryCtx<'a> {
    fn clone(&self) -> Self {
        QueryCtx {
            fed: self.fed,
            query: self.query,
            net: self.net.clone(),
            sim: Rc::clone(&self.sim),
            catalog: Rc::clone(&self.catalog),
            cache: Rc::clone(&self.cache),
            trace: self.trace.clone(),
            gate: self.gate.clone(),
            cfg: self.cfg,
            qid: self.qid,
            priority: self.priority,
            attr_bytes: self.attr_bytes,
            cancel: Rc::clone(&self.cancel),
        }
    }
}

impl<'a> QueryCtx<'a> {
    fn now(&self) -> f64 {
        self.net.rt().now_us()
    }
}

type BodyResult = Result<(QueryAnswer, Vec<DbId>, bool), String>;

// ---------------------------------------------------------------------
// Localized execution (BL / PL / HY) with optional replanning.
// ---------------------------------------------------------------------

/// One gated `LocalEval` dispatch to `site`; merges whatever comes back.
async fn dispatch_site<'a>(
    qc: QueryCtx<'a>,
    board: Rc<RefCell<Board>>,
    site: DbId,
    parallel: bool,
    generation: u32,
    config: LocalizedConfig,
) {
    let permit = qc.gate.acquire(qc.priority).await;
    {
        let mut b = board.borrow_mut();
        if qc.cancel.get() || b.merge.is_merged(site) {
            return;
        }
        let state = b.states.get_mut(&site).expect("site state");
        state.inflight += 1;
        state.dispatched_at = qc.now();
    }
    let sent_at = qc.now();
    qc.trace.record(TraceEvent::Dispatched {
        query: qc.qid,
        site,
        parallel,
        generation,
        at_us: sent_at,
    });
    let request = Request::LocalEval {
        parallel,
        use_signatures: config.use_signatures,
        complete_targets: config.complete_targets,
    };
    let outcome = call(
        &qc.net,
        Site::Global,
        Site::Db(site),
        request,
        2 * qc.attr_bytes,
        Phase::Ship,
        qc.cfg.rpc.scaled(FANOUT_TIMEOUT_SCALE),
    )
    .await;
    drop(permit);
    let now = qc.now();
    let mut b = board.borrow_mut();
    let state = b.states.get_mut(&site).expect("site state");
    state.inflight -= 1;
    let attempts_left = state.inflight;
    if b.finished {
        if matches!(outcome, Ok(Response::LocalEval(_))) {
            qc.trace.record(TraceEvent::Replied {
                query: qc.qid,
                site,
                at_us: now,
                stale: true,
            });
        }
        return;
    }
    match outcome {
        Ok(Response::LocalEval(reply)) => {
            let merged = b.merge.record_site(
                site,
                reply.rows,
                reply.verdicts,
                reply.target_values,
                reply.failed_checks,
                reply.degraded_peers,
            );
            qc.trace.record(TraceEvent::Replied {
                query: qc.qid,
                site,
                at_us: now,
                stale: !merged,
            });
            if merged {
                b.completed_us.push(now - sent_at);
                b.remaining -= 1;
                b.wake();
            }
        }
        // This attempt exhausted its retry budget. The site is lost only
        // when no other attempt (a replan redispatch) is still in
        // flight and nothing merged meanwhile.
        _ => {
            if !qc.cancel.get()
                && attempts_left == 0
                && !b.merge.is_merged(site)
                && b.merge.record_site_loss(site)
            {
                qc.trace.record(TraceEvent::SiteLost {
                    query: qc.qid,
                    site,
                    at_us: now,
                });
                b.remaining -= 1;
                b.wake();
            }
        }
    }
}

/// The straggler monitor: probes in-flight dispatches, feeds elapsed
/// times into the catalog, and re-dispatches re-priced stragglers once.
async fn monitor_stragglers<'a>(
    qc: QueryCtx<'a>,
    board: Rc<RefCell<Board>>,
    hosting: Rc<Vec<DbId>>,
    config: LocalizedConfig,
) {
    loop {
        qc.net.rt().sleep(qc.cfg.probe_interval_us).await;
        if qc.cancel.get() {
            return;
        }
        let stragglers: Vec<(DbId, f64)> = {
            let mut b = board.borrow_mut();
            if b.remaining == 0 {
                return;
            }
            if b.completed_us.is_empty() {
                continue; // need at least one completed dispatch to calibrate
            }
            let mean = b.completed_us.iter().sum::<f64>() / b.completed_us.len() as f64;
            let threshold = (qc.cfg.straggler_factor * mean).max(qc.cfg.min_straggler_us);
            let now = qc.net.rt().now_us();
            let Board { states, merge, .. } = &mut *b;
            states
                .iter()
                .filter(|(site, state)| {
                    !merge.is_merged(**site)
                        && !state.replanned
                        && state.inflight > 0
                        && now - state.dispatched_at > threshold
                })
                .map(|(site, state)| (*site, now - state.dispatched_at))
                .collect()
        };
        if stragglers.is_empty() {
            continue;
        }
        // A straggling dispatch is itself a transport observation: the
        // link has been busy at least this long for one request-sized
        // message. Repricing the catalog mid-flight is what lets the
        // replan disagree with the original plan.
        {
            let mut catalog = qc.catalog.borrow_mut();
            for (_, elapsed) in &stragglers {
                catalog.observe_net(2 * qc.attr_bytes, *elapsed);
            }
        }
        let unfinished: Vec<DbId> = stragglers.iter().map(|(s, _)| *s).collect();
        let modes = {
            let catalog = qc.catalog.borrow();
            replan(
                &catalog,
                qc.fed.global_schema(),
                qc.query,
                &plan_knobs(qc.cfg.pipeline, Some(&qc.cache)),
                &unfinished,
            )
        };
        let (completed, redispatched) = {
            let mut b = board.borrow_mut();
            let mut redispatched = Vec::new();
            for mode in &modes {
                if b.merge.is_merged(mode.db) {
                    continue;
                }
                let state = b.states.get_mut(&mode.db).expect("site state");
                if state.replanned {
                    continue;
                }
                state.replanned = true;
                redispatched.push(mode.db);
                let rt = qc.net.rt().clone();
                rt.spawn(dispatch_site(
                    qc.clone(),
                    Rc::clone(&board),
                    mode.db,
                    mode.parallel,
                    1,
                    config,
                ));
            }
            if redispatched.is_empty() {
                continue;
            }
            b.replanned_any = true;
            (b.merge.merged_sites(), redispatched)
        };
        let retained: Vec<DbId> = hosting
            .iter()
            .filter(|s| !completed.contains(s) && !redispatched.contains(s))
            .copied()
            .collect();
        qc.trace.record(TraceEvent::Replanned(ReplanEvent {
            query: qc.qid,
            at_us: qc.now(),
            hosting: hosting.as_ref().clone(),
            completed,
            redispatched,
            retained,
        }));
    }
}

/// Runs one localized plan (`modes` assigns each hosting site its
/// schedule) and certifies the merged replies.
async fn run_localized<'a>(
    qc: QueryCtx<'a>,
    modes: SiteModes,
    config: LocalizedConfig,
    monitor: bool,
) -> BodyResult {
    let hosting: Rc<Vec<DbId>> = Rc::new(hosting_sites(qc.fed, qc.query));
    let board = Rc::new(RefCell::new(Board {
        merge: LocalizedMerge::new(),
        states: hosting.iter().map(|&s| (s, SiteState::default())).collect(),
        completed_us: Vec::new(),
        remaining: hosting.len(),
        waker: None,
        replanned_any: false,
        finished: false,
    }));
    let rt = qc.net.rt().clone();
    for &site in hosting.iter() {
        rt.spawn(dispatch_site(
            qc.clone(),
            Rc::clone(&board),
            site,
            modes.parallel_at(site),
            0,
            config,
        ));
    }
    if monitor && qc.cfg.replan {
        rt.spawn(monitor_stragglers(
            qc.clone(),
            Rc::clone(&board),
            Rc::clone(&hosting),
            config,
        ));
    }
    BoardDone {
        board: Rc::clone(&board),
    }
    .await;
    let mut board = board.borrow_mut();
    board.finished = true;
    let merge = std::mem::take(&mut board.merge);
    let replanned = board.replanned_any;
    drop(board);
    let (answer, degraded_sites) = {
        let mut sim = qc.sim.borrow_mut();
        merge.finish(qc.fed, qc.query, &mut sim)
    };
    Ok((answer, degraded_sites, replanned))
}

// ---------------------------------------------------------------------
// Centralized execution (CA).
// ---------------------------------------------------------------------

/// Ships every involved extent through the gate, then evaluates at the
/// global site. CA has no graceful degradation: any lost site is fatal.
async fn run_centralized<'a>(qc: QueryCtx<'a>) -> BodyResult {
    let params = *qc.sim.borrow().params();
    let plan = ship_plan(qc.fed, qc.query, &params);
    type ShipFut<'f> = Pin<Box<dyn Future<Output = (DbId, bool)> + 'f>>;
    let ships: Vec<ShipFut<'_>> = plan
        .sites
        .iter()
        .map(|&site| {
            let qc = qc.clone();
            Box::pin(async move {
                let _permit = qc.gate.acquire(qc.priority).await;
                if qc.cancel.get() {
                    return (site, false);
                }
                let at = qc.now();
                qc.trace.record(TraceEvent::Dispatched {
                    query: qc.qid,
                    site,
                    parallel: false,
                    generation: 0,
                    at_us: at,
                });
                let outcome = call(
                    &qc.net,
                    Site::Global,
                    Site::Db(site),
                    Request::ShipObjects,
                    2 * qc.attr_bytes,
                    Phase::Ship,
                    qc.cfg.rpc.scaled(FANOUT_TIMEOUT_SCALE),
                )
                .await;
                let ok = matches!(outcome, Ok(Response::ShipObjects(_)));
                let event = if ok {
                    TraceEvent::Replied {
                        query: qc.qid,
                        site,
                        at_us: qc.now(),
                        stale: false,
                    }
                } else {
                    TraceEvent::SiteLost {
                        query: qc.qid,
                        site,
                        at_us: qc.now(),
                    }
                };
                qc.trace.record(event);
                (site, ok)
            }) as ShipFut<'_>
        })
        .collect();
    let shipped = join_all(ships).await;
    let lost: Vec<DbId> = shipped
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(site, _)| *site)
        .collect();
    if !lost.is_empty() {
        let names = lost
            .iter()
            .map(|&s| qc.fed.db(s).name().to_string())
            .collect::<Vec<_>>()
            .join(", ");
        return Err(format!(
            "CA cannot evaluate without the extents of {names}; \
             use a localized strategy for graceful degradation"
        ));
    }
    let answer = {
        let mut sim = qc.sim.borrow_mut();
        centralized_answer_with(qc.fed, qc.query, &mut sim, qc.cfg.pipeline)
            .map_err(|e| e.to_string())?
    };
    Ok((answer, Vec::new(), false))
}

// ---------------------------------------------------------------------
// The per-query driver.
// ---------------------------------------------------------------------

/// The hosting sites of `query`, ascending.
fn hosting_sites(fed: &Federation, query: &BoundQuery) -> Vec<DbId> {
    let schema = fed.global_schema();
    fed.dbs()
        .iter()
        .filter_map(|db| plan_for_db(query, schema, db.id()).map(|p| p.db()))
        .collect()
}

/// Drives one query end to end: arrival → admission → plan → execute →
/// verdict. Admission and execution both race the deadline.
async fn drive_query<'a>(
    qc: QueryCtx<'a>,
    admission: Admission,
    spec: &'a QuerySpec,
) -> QueryOutcome {
    let handle = qc.net.rt().clone();
    if spec.arrival_us > 0.0 {
        handle.sleep(spec.arrival_us).await;
    }
    let submitted_us = qc.now();
    qc.trace.record(TraceEvent::Submitted {
        query: qc.qid,
        at_us: submitted_us,
    });

    // Admission, raced against the deadline.
    let admit = admission.acquire(qc.priority);
    let permit = match spec.deadline_us {
        Some(deadline) => match timeout(&handle, deadline, admit).await {
            Some(permit) => permit,
            None => {
                let now = qc.now();
                qc.trace.record(TraceEvent::RejectedAtDeadline {
                    query: qc.qid,
                    at_us: now,
                });
                qc.trace.record(TraceEvent::Finished {
                    query: qc.qid,
                    at_us: now,
                    deadline_missed: true,
                });
                return QueryOutcome {
                    id: spec.id,
                    executed: "-".to_string(),
                    verdict: QueryVerdict::DeadlineExpiredInQueue,
                    degraded_sites: Vec::new(),
                    submitted_us,
                    started_us: now,
                    finished_us: now,
                    replanned: false,
                };
            }
        },
        None => admit.await,
    };
    let started_us = qc.now();
    qc.trace.record(TraceEvent::Admitted {
        query: qc.qid,
        at_us: started_us,
    });

    // Pick the plan.
    let fingerprint = query_fingerprint(qc.query);
    let adaptive = matches!(spec.strategy, SchedStrategy::Adaptive);
    let plan = match spec.strategy {
        SchedStrategy::Fixed(strategy) => Plan::from(strategy),
        SchedStrategy::Adaptive => {
            let mut catalog = qc.catalog.borrow_mut();
            let pipeline = qc.cfg.pipeline;
            let choice = choose_plan(qc.fed, qc.query, &mut catalog, pipeline, Some(&qc.cache));
            Plan::from(choice.best())
        }
    };
    let label = plan.label();

    // Execute, raced against what's left of the deadline.
    let body: Pin<Box<dyn Future<Output = BodyResult> + 'a>> = match plan {
        Plan::Central => Box::pin(run_centralized(qc.clone())),
        Plan::Localized { modes, config } => {
            Box::pin(run_localized(qc.clone(), modes, config, adaptive))
        }
    };
    let deadline_left = spec
        .deadline_us
        .map(|deadline| (submitted_us + deadline - started_us).max(1.0));
    let result = match deadline_left {
        Some(left) => timeout(&handle, left, body).await,
        None => Some(body.await),
    };
    drop(permit);
    let finished_us = qc.now();
    let (verdict, degraded_sites, replanned) = match result {
        None => {
            qc.cancel.set(true);
            (QueryVerdict::DeadlineMiss, Vec::new(), false)
        }
        Some(Err(message)) => (QueryVerdict::Failed(message), Vec::new(), false),
        Some(Ok((answer, degraded_sites, replanned))) => {
            if adaptive {
                qc.catalog.borrow_mut().observe_response(
                    fingerprint,
                    label,
                    finished_us - started_us,
                );
            }
            (QueryVerdict::Answered(answer), degraded_sites, replanned)
        }
    };
    qc.trace.record(TraceEvent::Finished {
        query: qc.qid,
        at_us: finished_us,
        deadline_missed: verdict.deadline_missed(),
    });
    QueryOutcome {
        id: spec.id,
        executed: label.to_string(),
        verdict,
        degraded_sites,
        submitted_us,
        started_us,
        finished_us,
        replanned,
    }
}

// ---------------------------------------------------------------------
// The scheduler.
// ---------------------------------------------------------------------

impl Scheduler {
    /// A scheduler with the given capacity/policy knobs.
    pub fn new(config: SchedConfig) -> Scheduler {
        Scheduler { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> SchedConfig {
        self.config
    }

    /// Executes the whole workload over `transport` and returns every
    /// query's outcome plus the dispatch trace.
    ///
    /// Each spec gets its own message fabric (RPC ids seeded from its
    /// id, so correlation ids never collide across queries) and its own
    /// site actors; admission slots, the dispatch gate, the lookup
    /// cache, and the statistics catalog are shared.
    ///
    /// # Errors
    ///
    /// Parse/bind errors for any spec, and [`ExecError::Internal`] when
    /// the runtime deadlocks (a scheduler bug by construction).
    pub fn run(
        &self,
        fed: &Federation,
        specs: &[QuerySpec],
        transport: Rc<RefCell<dyn Transport>>,
        sim: Rc<RefCell<Simulation>>,
    ) -> Result<SchedOutcome, ExecError> {
        let queries: Vec<BoundQuery> = specs
            .iter()
            .map(|spec| fed.parse_and_bind(&spec.sql))
            .collect::<Result<_, _>>()?;
        let params = *sim.borrow().params();
        let catalog = Rc::new(RefCell::new(collect_catalog(fed, params)));
        let cache = Rc::new(RefCell::new(LookupCache::default()));
        cache.borrow_mut().sync_generation(fed.generation());
        let trace = DispatchTrace::new();
        let admission = Admission::new(self.config.max_inflight);
        let gate = DrrGate::new(self.config.rpc_slots, self.config.quantum);
        let cfg = self.config;

        let rt = Runtime::new();
        let mut nets: Vec<Net<'_>> = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let net = Net::new(rt.handle(), Rc::clone(&transport), fed.num_dbs());
            net.seed_rpc_ids((spec.id + 1) << 32);
            for db in fed.dbs() {
                let ctx = Ctx {
                    fed,
                    query: &queries[i],
                    net: net.clone(),
                    sim: Rc::clone(&sim),
                    rpc: cfg.rpc,
                    pipeline: cfg.pipeline,
                    cache: Some(Rc::clone(&cache)),
                };
                rt.handle().spawn(run_site(ctx, db.id()));
            }
            nets.push(net);
        }

        type DriverFut<'f> = Pin<Box<dyn Future<Output = QueryOutcome> + 'f>>;
        let drivers: Vec<DriverFut<'_>> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let qc = QueryCtx {
                    fed,
                    query: &queries[i],
                    net: nets[i].clone(),
                    sim: Rc::clone(&sim),
                    catalog: Rc::clone(&catalog),
                    cache: Rc::clone(&cache),
                    trace: trace.clone(),
                    gate: gate.clone(),
                    cfg,
                    qid: spec.id,
                    priority: spec.priority,
                    attr_bytes: params.attr_bytes,
                    cancel: Rc::new(Cell::new(false)),
                };
                Box::pin(drive_query(qc, admission.clone(), spec)) as DriverFut<'_>
            })
            .collect();

        let handle = rt.handle();
        let drain_us = cfg.drain_us;
        let (outcomes, virtual_us) = rt
            .run(async move {
                let outcomes = join_all(drivers).await;
                if drain_us > 0.0 {
                    handle.sleep(drain_us).await;
                }
                (outcomes, handle.now_us())
            })
            .map_err(|deadlock| ExecError::Internal(deadlock.to_string()))?;

        let retries = nets.iter().map(Net::retries).sum();
        let stale = nets.iter().map(Net::stale_responses).sum();
        Ok(SchedOutcome {
            queries: outcomes,
            trace: trace.events(),
            replans: trace.replans(),
            retries,
            stale,
            virtual_us,
        })
    }
}
