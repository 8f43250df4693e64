//! Pillar 2: the actor-protocol checker.
//!
//! The Request/Response pairs of `fedoq-net` form a session protocol:
//! every delivered request must be answered exactly once, on its own
//! correlation id, and the certified answer must not depend on the
//! message delivery schedule. This module replays real executions on the
//! deterministic virtual-time runtime under a [`TraceTransport`] that
//! both *perturbs* delivery (bounded reorderings and a straggler spike)
//! and *records* every dispatched envelope, then audits the trace:
//!
//! * a run that never produces the certified answer is a deadlock
//!   ([`crate::lints::DEADLOCK`]);
//! * two responses on one correlation id is a double reply
//!   ([`crate::lints::DOUBLE_REPLY`]) — the router hides the second as
//!   stale, so only the trace can see it;
//! * a delivered request whose id never gets a response is orphaned
//!   ([`crate::lints::ORPHANED_RPC`]);
//! * a response on an id no request used is unsolicited
//!   ([`crate::lints::UNSOLICITED_RESPONSE`]);
//! * an answer whose certain/maybe classification changes under a
//!   lossless reordering depends on the schedule
//!   ([`crate::lints::SCHEDULE_DIVERGENCE`]).
//!
//! Seeded actor bugs ([`ActorBug`]) exist so the checker can prove it
//! detects what it claims to detect (`fedoq-check --self-test`).

use crate::diag::{Diagnostic, Report};
use crate::lints;
use fedoq_core::handlers::{answer_check_requests, answer_target_requests};
use fedoq_core::{Federation, LookupCache, PipelineConfig, QueryAnswer};
use fedoq_net::actor::{execute_plan, run_site, Ctx};
use fedoq_net::msg::{Envelope, LookupReply, Payload, Request, Response, ShipReply};
use fedoq_net::router::Net;
use fedoq_net::rpc::RpcConfig;
use fedoq_net::rt::Runtime;
use fedoq_net::transport::Transport;
use fedoq_net::{DistributedStrategy, Plan};
use fedoq_object::DbId;
use fedoq_query::BoundQuery;
use fedoq_sim::{Simulation, Site, SystemParams};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Virtual time a run lingers after its answer so in-flight
/// deliveries, retries, and stale responses land before the trace is
/// audited. Must exceed the largest schedule perturbation.
const DRAIN_US: f64 = 3e7;

/// One dispatched envelope, as the trace sees it.
#[derive(Debug, Clone)]
pub struct Event {
    /// Dispatch order (0-based).
    pub seq: u64,
    /// Sending site.
    pub from: Site,
    /// Receiving site.
    pub to: Site,
    /// Correlation id.
    pub rpc: u64,
    /// Message kind (`LocalEval`, `ShipObjects`, ...).
    pub kind: &'static str,
    /// `true` for the response half of an RPC.
    pub is_response: bool,
}

/// A deterministic delivery schedule: the i-th dispatched message is
/// delayed by `base_us + slots[i mod len] * slot_us`, plus an optional
/// straggler spike on one dispatch index. Lossless — every message is
/// delivered — so reorderings, not losses, are what it explores.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Schedule name (appears in diagnostics).
    pub name: &'static str,
    /// Fixed delay applied to every message (virtual µs).
    pub base_us: f64,
    /// One reordering slot's worth of extra delay (virtual µs).
    pub slot_us: f64,
    /// Slot multipliers, cycled over the dispatch sequence.
    pub slots: Vec<f64>,
    /// `(dispatch index, extra delay)`: one message becomes a straggler,
    /// outliving the caller's timeout so retry and stale-response paths
    /// run.
    pub spike: Option<(u64, f64)>,
}

impl Schedule {
    /// Every message delayed equally: delivery order equals send order.
    /// The reference schedule the others are compared against.
    pub fn uniform() -> Schedule {
        Schedule {
            name: "uniform",
            base_us: 10.0,
            slot_us: 0.0,
            slots: vec![0.0],
            spike: None,
        }
    }

    /// Bounded reorderings: cycles of distinct slot delays shuffle the
    /// delivery order of nearby messages without tripping any timeout
    /// (max extra delay ≪ the 20 ms RPC window).
    pub fn permutations() -> Vec<Schedule> {
        let named: [(&'static str, [f64; 3]); 5] = [
            ("perm-021", [0.0, 2.0, 1.0]),
            ("perm-102", [1.0, 0.0, 2.0]),
            ("perm-120", [1.0, 2.0, 0.0]),
            ("perm-201", [2.0, 0.0, 1.0]),
            ("perm-210", [2.0, 1.0, 0.0]),
        ];
        named
            .iter()
            .map(|(name, slots)| Schedule {
                name,
                base_us: 10.0,
                slot_us: 250.0,
                slots: slots.to_vec(),
                spike: None,
            })
            .collect()
    }

    /// One message delayed far past its caller's timeout: the caller
    /// must retry on a fresh correlation id and discard the late reply
    /// as stale instead of mistaking it for the retry's.
    pub fn stragglers() -> Vec<Schedule> {
        [("straggle-1", 1), ("straggle-4", 4)]
            .iter()
            .map(|&(name, at)| Schedule {
                name,
                base_us: 10.0,
                slot_us: 0.0,
                slots: vec![0.0],
                spike: Some((at, 5e6)),
            })
            .collect()
    }
}

/// A lossless transport that applies a [`Schedule`] and records every
/// dispatched envelope.
pub struct TraceTransport {
    schedule: Schedule,
    events: Rc<RefCell<Vec<Event>>>,
    seq: u64,
}

impl TraceTransport {
    /// A transport applying `schedule`, appending events to `events`.
    pub fn new(schedule: Schedule, events: Rc<RefCell<Vec<Event>>>) -> TraceTransport {
        TraceTransport {
            schedule,
            events,
            seq: 0,
        }
    }
}

impl Transport for TraceTransport {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn dispatch(&mut self, env: &Envelope, _now_us: f64) -> Option<f64> {
        let seq = self.seq;
        self.seq += 1;
        let (kind, is_response) = env.payload.kind();
        self.events.borrow_mut().push(Event {
            seq,
            from: env.from,
            to: env.to,
            rpc: env.rpc,
            kind,
            is_response,
        });
        let slot = self.schedule.slots[seq as usize % self.schedule.slots.len()];
        let mut delay = self.schedule.base_us + slot * self.schedule.slot_us;
        if let Some((at, extra)) = self.schedule.spike {
            if at == seq {
                delay += extra;
            }
        }
        Some(delay)
    }

    fn stats(&self) -> (u64, u64) {
        (self.seq, 0)
    }
}

/// A deliberately broken actor, for self-testing the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorBug {
    /// All actors behave.
    Healthy,
    /// This site receives requests but never responds: every request
    /// delivered to it orphans its correlation id.
    Silent(DbId),
    /// This site answers every `AssistantLookup` twice on the same
    /// correlation id.
    DoubleReply(DbId),
}

/// A silent site: the mailbox drains, nothing comes back.
async fn run_silent_site(ctx: Ctx<'_>, db: DbId) {
    loop {
        let _ = ctx.net.recv(Site::Db(db)).await;
    }
}

/// A double-replying site: correct verdicts, sent twice per lookup.
async fn run_double_reply_site(ctx: Ctx<'_>, db: DbId) {
    loop {
        let env = ctx.net.recv(Site::Db(db)).await;
        let Payload::Request(ref request) = env.payload else {
            continue;
        };
        match request.clone() {
            Request::AssistantLookup { checks, targets } => {
                let reply = {
                    let mut sim = ctx.sim.borrow_mut();
                    LookupReply {
                        verdicts: answer_check_requests(ctx.fed, ctx.query, db, &checks, &mut sim),
                        values: answer_target_requests(ctx.fed, ctx.query, db, &targets, &mut sim),
                    }
                };
                ctx.net
                    .respond(&env, 0, Response::AssistantLookup(reply.clone()));
                // The bug: a second reply on the same correlation id.
                ctx.net.respond(&env, 0, Response::AssistantLookup(reply));
            }
            Request::BatchAssistantLookup { checks, targets } => {
                let reply = {
                    let mut sim = ctx.sim.borrow_mut();
                    LookupReply {
                        verdicts: answer_check_requests(ctx.fed, ctx.query, db, &checks, &mut sim),
                        values: answer_target_requests(ctx.fed, ctx.query, db, &targets, &mut sim),
                    }
                };
                ctx.net
                    .respond(&env, 0, Response::BatchAssistantLookup(reply.clone()));
                // The bug again, on the batched path.
                ctx.net
                    .respond(&env, 0, Response::BatchAssistantLookup(reply));
            }
            Request::LocalEval { .. } => {
                ctx.net
                    .respond(&env, 0, Response::LocalEval(Box::default()));
            }
            Request::ShipObjects => {
                ctx.net
                    .respond(&env, 0, Response::ShipObjects(ShipReply::default()));
            }
        }
    }
}

/// Why a protocol run produced no answer.
#[derive(Debug, Clone)]
pub enum ProtocolFailure {
    /// No answer was ever certified: the protocol stalled (deadlock).
    Stalled(String),
    /// The protocol completed but delivered an execution error (e.g. CA
    /// over a dead site). The messaging itself worked.
    Error(String),
}

/// One recorded execution of a strategy under a schedule.
#[derive(Debug, Clone)]
pub struct ProtocolRun {
    /// Strategy name (`CA`, `BL`, `PL`).
    pub strategy: &'static str,
    /// Schedule name.
    pub schedule: &'static str,
    /// The certified answer, or why there is none.
    pub answer: Result<QueryAnswer, ProtocolFailure>,
    /// Every dispatched envelope, in dispatch order.
    pub events: Vec<Event>,
    /// Responses the router discarded as stale.
    pub stale: u64,
    /// RPC retries performed.
    pub retries: u64,
}

/// Executes `strategy` over the virtual-time runtime under `schedule`,
/// optionally replacing one site actor with a seeded bug, and records
/// the full message trace.
pub fn run_protocol(
    fed: &Federation,
    query: &BoundQuery,
    strategy: DistributedStrategy,
    schedule: &Schedule,
    bug: ActorBug,
) -> ProtocolRun {
    run_protocol_with_pipeline(
        fed,
        query,
        strategy,
        schedule,
        bug,
        PipelineConfig::sequential(),
    )
}

/// Like [`run_protocol`] under an explicit [`PipelineConfig`]: a batched
/// pipeline makes the actors speak `BatchAssistantLookup` fragments, and
/// an enabled cache is shared by the run's actors (fresh per run).
pub fn run_protocol_with_pipeline(
    fed: &Federation,
    query: &BoundQuery,
    strategy: DistributedStrategy,
    schedule: &Schedule,
    bug: ActorBug,
    pipeline: PipelineConfig,
) -> ProtocolRun {
    let cache = pipeline
        .cache
        .then(|| Rc::new(RefCell::new(LookupCache::default())));
    let events: Rc<RefCell<Vec<Event>>> = Rc::new(RefCell::new(Vec::new()));
    let transport: Rc<RefCell<dyn Transport>> = Rc::new(RefCell::new(TraceTransport::new(
        schedule.clone(),
        Rc::clone(&events),
    )));
    let sim = Rc::new(RefCell::new(Simulation::new(
        SystemParams::paper_default(),
        fed.num_dbs(),
    )));
    let rt = Runtime::new();
    let net = Net::new(rt.handle(), Rc::clone(&transport), fed.num_dbs());
    let rpc = RpcConfig::default();
    for db in fed.dbs() {
        let ctx = Ctx {
            fed,
            query,
            net: net.clone(),
            sim: Rc::clone(&sim),
            rpc,
            pipeline,
            cache: cache.clone(),
        };
        match bug {
            ActorBug::Silent(b) if b == db.id() => rt.handle().spawn(run_silent_site(ctx, db.id())),
            ActorBug::DoubleReply(b) if b == db.id() => {
                rt.handle().spawn(run_double_reply_site(ctx, db.id()));
            }
            _ => rt.handle().spawn(run_site(ctx, db.id())),
        }
    }
    let global = Ctx {
        fed,
        query,
        net: net.clone(),
        sim: Rc::clone(&sim),
        rpc,
        pipeline,
        cache,
    };
    let plan = Plan::from(strategy);
    let handle = rt.handle();
    let outcome = rt.run(async move {
        let reply = execute_plan(&global, &plan, ()).await;
        handle.sleep(DRAIN_US).await;
        reply
    });
    let answer = match outcome {
        Err(deadlock) => Err(ProtocolFailure::Stalled(deadlock.to_string())),
        Ok(reply) => reply
            .answer
            .map_err(|e| ProtocolFailure::Error(e.to_string())),
    };
    let trace = events.borrow().clone();
    ProtocolRun {
        strategy: strategy.name(),
        schedule: schedule.name,
        answer,
        events: trace,
        stale: net.stale_responses(),
        retries: net.retries(),
    }
}

/// Audits one run's trace; `reference` enables the schedule-divergence
/// comparison (FQ204) against the uniform schedule's answer.
pub fn analyze_run(run: &ProtocolRun, reference: Option<&QueryAnswer>, report: &mut Report) {
    let tag = format!("[{} under {}]", run.strategy, run.schedule);
    if let Err(ProtocolFailure::Stalled(why)) = &run.answer {
        report.push(
            Diagnostic::new(
                lints::DEADLOCK,
                format!("{tag} no answer was ever certified: {why}"),
            )
            .with_hint(
                "some actor is waiting on a message that can no longer arrive; check every \
                 request path for a matching respond"
                    .to_owned(),
            ),
        );
    }

    // Per correlation id: the request (if any) and the response count.
    let mut requests: BTreeMap<u64, &Event> = BTreeMap::new();
    let mut responses: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in &run.events {
        if ev.is_response {
            *responses.entry(ev.rpc).or_default() += 1;
        } else {
            requests.entry(ev.rpc).or_insert(ev);
        }
    }
    for (rpc, count) in &responses {
        match requests.get(rpc) {
            None => {
                report.push(Diagnostic::new(
                    lints::UNSOLICITED_RESPONSE,
                    format!(
                        "{tag} a response was sent on correlation id {rpc}, which no request used"
                    ),
                ));
            }
            Some(req) if *count > 1 => {
                report.push(
                    Diagnostic::new(
                        lints::DOUBLE_REPLY,
                        format!(
                            "{tag} {} answered {} request #{rpc} from {} {count} times; the \
                             router discards the extras as stale, masking the bug",
                            req.to, req.kind, req.from
                        ),
                    )
                    .with_hint("respond exactly once per received request".to_owned()),
                );
            }
            Some(_) => {}
        }
    }
    for (rpc, req) in &requests {
        if !responses.contains_key(rpc) {
            report.push(
                Diagnostic::new(
                    lints::ORPHANED_RPC,
                    format!(
                        "{tag} {} request #{rpc} from {} was delivered to {} and never answered",
                        req.kind, req.from, req.to
                    ),
                )
                .with_hint(format!(
                    "every request arm of {}'s event loop must send a response (or the caller \
                     retries forever)",
                    req.to
                )),
            );
        }
    }

    if let (Ok(answer), Some(reference)) = (&run.answer, reference) {
        if !answer.same_classification(reference) {
            report.push(
                Diagnostic::new(
                    lints::SCHEDULE_DIVERGENCE,
                    format!(
                        "{tag} the certified answer differs from the uniform schedule's \
                         ({} vs {} certain, {} vs {} maybe): classification depends on \
                         message delivery order",
                        answer.certain().len(),
                        reference.certain().len(),
                        answer.maybe().len(),
                        reference.maybe().len()
                    ),
                )
                .with_hint(
                    "merge and certification must be order-insensitive; look for state that \
                     keeps only the first or last reply"
                        .to_owned(),
                ),
            );
        }
    }
}

/// Runs every strategy under the reference schedule, five bounded
/// reorderings, and two straggler schedules, auditing each trace.
///
/// Straggler runs are exempt from the divergence comparison: blowing an
/// RPC past its retry budget legitimately degrades localized answers
/// (certain rows may become degraded maybes) — that is the designed
/// behavior, not a protocol bug.
pub fn check_protocol(fed: &Federation, query: &BoundQuery) -> Report {
    let source = query.source().to_string();
    let mut report = Report::new(format!("actor protocol for `{source}`"), source);
    let strategies = [
        DistributedStrategy::ca(),
        DistributedStrategy::bl(),
        DistributedStrategy::pl(),
    ];
    // Both wire dialects are audited: the legacy one-message-per-peer
    // shape, and the batched pipeline speaking BatchAssistantLookup
    // fragments with the shared lookup cache enabled.
    let pipelines = [
        PipelineConfig::sequential(),
        PipelineConfig::sequential().with_batch(4).with_cache(),
    ];
    for pipeline in pipelines {
        for strategy in strategies {
            let reference = run_protocol_with_pipeline(
                fed,
                query,
                strategy,
                &Schedule::uniform(),
                ActorBug::Healthy,
                pipeline,
            );
            analyze_run(&reference, None, &mut report);
            let reference_answer = reference.answer.ok();
            for schedule in Schedule::permutations() {
                let run = run_protocol_with_pipeline(
                    fed,
                    query,
                    strategy,
                    &schedule,
                    ActorBug::Healthy,
                    pipeline,
                );
                analyze_run(&run, reference_answer.as_ref(), &mut report);
            }
            for schedule in Schedule::stragglers() {
                let run = run_protocol_with_pipeline(
                    fed,
                    query,
                    strategy,
                    &schedule,
                    ActorBug::Healthy,
                    pipeline,
                );
                analyze_run(&run, None, &mut report);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedoq_core::oracle_answer;
    use fedoq_workload::university;

    fn setting() -> (Federation, BoundQuery) {
        let fed = university::federation().expect("university federation builds");
        let bound = fed
            .parse_and_bind(university::Q1)
            .expect("Q1 binds against the university schema");
        (fed, bound)
    }

    #[test]
    fn healthy_runs_match_the_oracle_and_audit_clean() {
        let (fed, bound) = setting();
        let oracle = oracle_answer(&fed, &bound);
        for strategy in [
            DistributedStrategy::ca(),
            DistributedStrategy::bl(),
            DistributedStrategy::pl(),
        ] {
            let run = run_protocol(
                &fed,
                &bound,
                strategy,
                &Schedule::uniform(),
                ActorBug::Healthy,
            );
            let answer = run.answer.clone().expect("healthy run answers");
            assert!(
                answer.same_classification(&oracle),
                "{} diverged from the oracle",
                strategy.name()
            );
            let mut report = Report::new("test", "");
            analyze_run(&run, Some(&oracle), &mut report);
            assert!(report.diagnostics.is_empty(), "{report}");
        }
    }

    #[test]
    fn silent_site_orphans_its_requests() {
        let (fed, bound) = setting();
        let run = run_protocol(
            &fed,
            &bound,
            DistributedStrategy::bl(),
            &Schedule::uniform(),
            ActorBug::Silent(DbId::new(1)),
        );
        let mut report = Report::new("test", "");
        analyze_run(&run, None, &mut report);
        assert!(report.fired("FQ202"), "{report}");
        // The answer still arrives — localized strategies degrade.
        assert!(run.answer.is_ok());
    }

    #[test]
    fn double_reply_is_caught_even_though_the_router_hides_it() {
        let (fed, bound) = setting();
        let run = run_protocol(
            &fed,
            &bound,
            DistributedStrategy::bl(),
            &Schedule::uniform(),
            ActorBug::DoubleReply(DbId::new(1)),
        );
        assert!(
            run.stale > 0,
            "the second reply should be discarded as stale"
        );
        let mut report = Report::new("test", "");
        analyze_run(&run, None, &mut report);
        assert!(report.fired("FQ201"), "{report}");
    }

    #[test]
    fn straggler_schedules_exercise_retry_and_stale_paths() {
        let (fed, bound) = setting();
        let mut saw_retry = false;
        for schedule in Schedule::stragglers() {
            let run = run_protocol(
                &fed,
                &bound,
                DistributedStrategy::bl(),
                &schedule,
                ActorBug::Healthy,
            );
            saw_retry |= run.retries > 0;
            let mut report = Report::new("test", "");
            analyze_run(&run, None, &mut report);
            assert!(report.diagnostics.is_empty(), "{report}");
        }
        assert!(saw_retry, "a 5s spike must blow at least one RPC window");
    }

    #[test]
    fn full_protocol_check_passes_on_the_university_example() {
        let (fed, bound) = setting();
        let report = check_protocol(&fed, &bound);
        assert!(report.is_sound(), "{report}");
        assert!(report.diagnostics.is_empty(), "{report}");
    }
}
