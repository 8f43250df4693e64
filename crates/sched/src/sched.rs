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
//! against its deadline, picks its plan, then runs it through
//! [`execute_plan`] — the same global-site orchestration the
//! distributed executor, `fedoq-serve` and the protocol checker run.
//! The scheduler's part comes in through the [`DispatchHook`] each
//! query implements: every dispatch waits for a [`DrrGate`] permit, a
//! cancelled query sends nothing more, and each dispatch, reply and lost
//! site lands in the [`DispatchTrace`]. `Adaptive` specs ask the
//! cost-based planner for the cheapest of CA/BL/PL/HY first and feed the
//! observed response time back into the catalog afterwards.
//!
//! # Mid-flight replanning
//!
//! For adaptive localized queries the hook's monitor probes the fan-out
//! ([`Fanout::stragglers`]) every `probe_interval_us`. A site whose
//! dispatch has been outstanding longer than `max(min_straggler_us,
//! straggler_factor × mean completed latency)` is a *straggler*: its
//! observed elapsed time is fed into the catalog as a transport
//! observation (repricing the link), the planner re-prices the
//! **unfinished** sites only ([`fedoq_plan::replan`]), and each
//! straggler is re-dispatched once ([`Fanout::redispatch`]) with its
//! freshly priced mode. Completed work is never re-done and never
//! re-certified: the orchestrator's merge accepts the first reply per
//! site and discards the loser of the original-vs-redispatch race as
//! stale.

use crate::gate::{Admission, DrrGate, GatePermit};
use crate::trace::{DispatchTrace, ReplanEvent, TraceEvent};
use fedoq_core::{
    choose_plan, collect_catalog, plan_knobs, query_fingerprint, ExecError, Federation,
    LookupCache, PipelineConfig, QueryAnswer,
};
use fedoq_net::actor::{execute_plan, run_site, CertifyReply, Ctx, DispatchHook, Fanout};
use fedoq_net::router::Net;
use fedoq_net::rt::{join_all, timeout, Runtime};
use fedoq_net::{DistributedStrategy, Plan, RpcConfig, Transport};
use fedoq_object::DbId;
use fedoq_plan::{replan, StatsCatalog};
use fedoq_query::BoundQuery;
use fedoq_sim::Simulation;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

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

/// Everything a query's driver and its dispatch hook share (cheap to
/// clone). It is the [`DispatchHook`] the query's plan runs under.
#[derive(Clone)]
struct QueryCtx<'a> {
    ctx: Ctx<'a>,
    spec: &'a QuerySpec,
    catalog: Rc<RefCell<StatsCatalog>>,
    trace: DispatchTrace,
    gate: DrrGate,
    cfg: SchedConfig,
    cancel: Rc<Cell<bool>>,
    replanned: Rc<Cell<bool>>,
}

impl<'a> QueryCtx<'a> {
    fn now(&self) -> f64 {
        self.ctx.net.rt().now_us()
    }

    fn adaptive(&self) -> bool {
        matches!(self.spec.strategy, SchedStrategy::Adaptive)
    }
}

impl<'a> DispatchHook<'a> for QueryCtx<'a> {
    type Permit = GatePermit;

    fn admit(&self) -> impl Future<Output = GatePermit> {
        self.gate.acquire(self.spec.priority)
    }

    fn cancelled(&self) -> bool {
        self.cancel.get()
    }

    fn dispatched(&self, site: DbId, parallel: bool, generation: u32) {
        self.trace.record(TraceEvent::Dispatched {
            query: self.spec.id,
            site,
            parallel,
            generation,
            at_us: self.now(),
        });
    }

    fn replied(&self, site: DbId, stale: bool) {
        self.trace.record(TraceEvent::Replied {
            query: self.spec.id,
            site,
            at_us: self.now(),
            stale,
        });
    }

    fn lost(&self, site: DbId) {
        self.trace.record(TraceEvent::SiteLost {
            query: self.spec.id,
            site,
            at_us: self.now(),
        });
    }

    fn watch(&self, fanout: &Fanout<'a, Self>) {
        if self.adaptive() && self.cfg.replan {
            let rt = self.ctx.net.rt().clone();
            rt.spawn(monitor_stragglers(self.clone(), fanout.clone()));
        }
    }
}

/// The straggler monitor: probes in-flight dispatches, feeds elapsed
/// times into the catalog, and re-dispatches re-priced stragglers once.
async fn monitor_stragglers<'a>(qc: QueryCtx<'a>, fanout: Fanout<'a, QueryCtx<'a>>) {
    loop {
        qc.ctx.net.rt().sleep(qc.cfg.probe_interval_us).await;
        if qc.cancel.get() {
            return;
        }
        let cfg = qc.cfg;
        let Some(stragglers) = fanout.stragglers(cfg.straggler_factor, cfg.min_straggler_us) else {
            return;
        };
        if stragglers.is_empty() {
            continue;
        }
        // A straggling dispatch is itself a transport observation: the
        // link has been busy at least this long for one request-sized
        // message. Repricing the catalog mid-flight is what lets the
        // replan disagree with the original plan.
        {
            let request_bytes = 2 * qc.ctx.sim.borrow().params().attr_bytes;
            let mut catalog = qc.catalog.borrow_mut();
            for (_, elapsed) in &stragglers {
                catalog.observe_net(request_bytes, *elapsed);
            }
        }
        let unfinished: Vec<DbId> = stragglers.iter().map(|(s, _)| *s).collect();
        let modes = replan(
            &qc.catalog.borrow(),
            qc.ctx.fed.global_schema(),
            qc.ctx.query,
            &plan_knobs(qc.cfg.pipeline, qc.ctx.cache.as_deref()),
            &unfinished,
        );
        let mut redispatched = Vec::new();
        for mode in &modes {
            if fanout.redispatch(mode.db, mode.parallel) {
                redispatched.push(mode.db);
            }
        }
        if redispatched.is_empty() {
            continue;
        }
        qc.replanned.set(true);
        let completed = fanout.merged_sites();
        let retained: Vec<DbId> = fanout
            .hosting()
            .iter()
            .filter(|s| !completed.contains(s) && !redispatched.contains(s))
            .copied()
            .collect();
        qc.trace.record(TraceEvent::Replanned(ReplanEvent {
            query: qc.spec.id,
            at_us: qc.now(),
            hosting: fanout.hosting().to_vec(),
            completed,
            redispatched,
            retained,
        }));
    }
}

// ---------------------------------------------------------------------
// The per-query driver.
// ---------------------------------------------------------------------

/// Drives one query end to end: arrival → admission → plan → execute →
/// verdict. Admission and execution both race the deadline.
async fn drive_query(qc: QueryCtx<'_>, admission: Admission) -> QueryOutcome {
    let spec = qc.spec;
    let handle = qc.ctx.net.rt().clone();
    if spec.arrival_us > 0.0 {
        handle.sleep(spec.arrival_us).await;
    }
    let submitted_us = qc.now();
    qc.trace.record(TraceEvent::Submitted {
        query: spec.id,
        at_us: submitted_us,
    });

    // Admission, raced against the deadline.
    let admit = admission.acquire(spec.priority);
    let permit = match spec.deadline_us {
        Some(deadline) => match timeout(&handle, deadline, admit).await {
            Some(permit) => permit,
            None => {
                let now = qc.now();
                qc.trace.record(TraceEvent::RejectedAtDeadline {
                    query: spec.id,
                    at_us: now,
                });
                qc.trace.record(TraceEvent::Finished {
                    query: spec.id,
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
        query: spec.id,
        at_us: started_us,
    });

    // Pick the plan.
    let Ctx { fed, query, .. } = qc.ctx;
    let fingerprint = query_fingerprint(query);
    let plan = match spec.strategy {
        SchedStrategy::Fixed(strategy) => Plan::from(strategy),
        SchedStrategy::Adaptive => {
            let mut catalog = qc.catalog.borrow_mut();
            let cache = qc.ctx.cache.as_deref();
            Plan::from(choose_plan(fed, query, &mut catalog, qc.cfg.pipeline, cache).best())
        }
    };
    let label = plan.label();

    // Execute, raced against what's left of the deadline.
    let body = Box::pin(execute_plan(&qc.ctx, &plan, qc.clone()));
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
        Some(CertifyReply { answer: Err(e), .. }) => {
            (QueryVerdict::Failed(e.to_string()), Vec::new(), false)
        }
        Some(CertifyReply {
            answer: Ok(answer),
            degraded_sites,
            ..
        }) => {
            if qc.adaptive() {
                qc.catalog.borrow_mut().observe_response(
                    fingerprint,
                    label,
                    finished_us - started_us,
                );
            }
            (
                QueryVerdict::Answered(answer),
                degraded_sites,
                qc.replanned.get(),
            )
        }
    };
    qc.trace.record(TraceEvent::Finished {
        query: spec.id,
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
        let catalog = Rc::new(RefCell::new(collect_catalog(fed, *sim.borrow().params())));
        let cache = Rc::new(RefCell::new(LookupCache::default()));
        cache.borrow_mut().sync_generation(fed.generation());
        let trace = DispatchTrace::new();
        let admission = Admission::new(self.config.max_inflight);
        let gate = DrrGate::new(self.config.rpc_slots, self.config.quantum);
        let cfg = self.config;

        let rt = Runtime::new();
        let mut nets: Vec<Net<'_>> = Vec::with_capacity(specs.len());
        type DriverFut<'f> = Pin<Box<dyn Future<Output = QueryOutcome> + 'f>>;
        let mut drivers: Vec<DriverFut<'_>> = Vec::with_capacity(specs.len());
        for (spec, query) in specs.iter().zip(&queries) {
            let net = Net::new(rt.handle(), Rc::clone(&transport), fed.num_dbs());
            net.seed_rpc_ids((spec.id + 1) << 32);
            let ctx = Ctx {
                fed,
                query,
                net: net.clone(),
                sim: Rc::clone(&sim),
                rpc: cfg.rpc,
                pipeline: cfg.pipeline,
                cache: Some(Rc::clone(&cache)),
            };
            for db in fed.dbs() {
                rt.handle().spawn(run_site(ctx.clone(), db.id()));
            }
            nets.push(net);
            let qc = QueryCtx {
                ctx,
                spec,
                catalog: Rc::clone(&catalog),
                trace: trace.clone(),
                gate: gate.clone(),
                cfg,
                cancel: Rc::default(),
                replanned: Rc::default(),
            };
            drivers.push(Box::pin(drive_query(qc, admission.clone())));
        }

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
