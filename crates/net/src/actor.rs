//! Site actors: each component database as a message-serving process.
//!
//! [`run_site`] is one component site's event loop; [`execute_plan`] is
//! the global (federation) site's orchestration of one query, awaited
//! directly by whoever runs the query — the distributed executor,
//! `fedoq-serve`, the protocol checker and the concurrent scheduler. It
//! is the only code that sends a query's global→site `LocalEval` and
//! `ShipObjects` requests and folds their replies; a caller's policy
//! (the scheduler's dispatch gate, cancellation, trace and straggler
//! replanning) wraps each dispatch through a [`DispatchHook`]. Localized
//! replies fold into one [`LocalizedMerge`] in completion order, first
//! reply per site wins. The actors reuse the *exact*
//! computation of the in-process strategies via [`fedoq_core::handlers`],
//! so their certain/maybe answers match the sync strategies bit for bit
//! when the network is healthy — messaging changes *how* the work moves
//! between sites, never what is computed.
//!
//! # Graceful degradation
//!
//! Localized strategies localize failure too. When a peer stays
//! unreachable past the retry budget:
//!
//! * unanswered `(item, pred)` assistant checks leave the affected rows
//!   as **maybe** results tagged [`Provenance::Degraded`](fedoq_core::Provenance::Degraded) — certification
//!   simply sees fewer verdicts, which can only move rows from certain to
//!   maybe, never the reverse;
//! * a site whose whole `LocalEval` fails is removed from `queried_dbs`,
//!   disabling absence elimination there (its missing rows are unknown,
//!   not absent), and every entity with an isomeric copy at the dead site
//!   is tagged degraded;
//! * certain rows stay certain: component copies are consistent (object
//!   isomerism), so data already seen cannot be contradicted by the data
//!   a dead site holds.
//!
//! CA has no such option: evaluation cannot start until every involved
//! extent has been shipped, so an unreachable site is a hard
//! [`ExecError::Unreachable`]. That asymmetry is itself a finding the
//! paper's cost model cannot show — localization buys availability, not
//! just response time.

use crate::msg::{Envelope, LocalEvalReply, LookupReply, Payload, Request, Response, ShipReply};
use crate::plan::{Plan, SiteModes};
use crate::router::Net;
use crate::rpc::{call, RpcConfig, RpcError};
use crate::rt::join_all;
use fedoq_core::cache::{CacheKey, CacheValue};
use fedoq_core::handlers::{
    answer_check_requests, answer_target_requests, centralized_answer_with, evaluate_site_with,
    reply_message_bytes, request_message_bytes, result_message_bytes, ship_plan,
    target_reply_message_bytes, CheckRequest, CheckVerdict, LocalizedConfig, LocalizedMerge,
    LocalizedMode, TargetRequest,
};
use fedoq_core::{
    query_fingerprint, ExecError, Federation, LookupCache, PipelineConfig, QueryAnswer,
};
use fedoq_object::{DbId, LOid, Value};
use fedoq_query::{plan_for_db, BoundQuery, PredId};
use fedoq_sim::{Phase, Simulation, Site};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Poll, Waker};

/// Outer RPCs whose handler issues nested RPCs (`LocalEval`,
/// `ShipObjects`) get this much more time, so a callee patiently
/// retrying its *own* peers — or shipping a large reply — is not
/// mistaken for a dead site.
const FANOUT_TIMEOUT_SCALE: f64 = 50.0;

/// Everything one actor needs: the (immutably shared) federation and
/// query, the message fabric, the shared cost ledger, and the RPC policy.
pub struct Ctx<'a> {
    /// The federation served by the actors.
    pub fed: &'a Federation,
    /// The query under execution.
    pub query: &'a BoundQuery,
    /// Message fabric.
    pub net: Net<'a>,
    /// Shared simulation ledger (charged by handlers and transport).
    pub sim: Rc<RefCell<Simulation>>,
    /// Timeout/retry policy for site-to-site RPCs.
    pub rpc: RpcConfig,
    /// Parallel-scan / batching / caching configuration. The default
    /// (sequential, unbatched, uncached) reproduces the legacy wire
    /// behavior bit for bit.
    pub pipeline: PipelineConfig,
    /// The shared GOid-lookup cache, conceptually replicated at every
    /// site (like the GOid mapping tables themselves). `None`, or a
    /// pipeline with caching off, disables it.
    pub cache: Option<Rc<RefCell<LookupCache>>>,
}

impl<'a> Clone for Ctx<'a> {
    fn clone(&self) -> Self {
        Ctx {
            fed: self.fed,
            query: self.query,
            net: self.net.clone(),
            sim: Rc::clone(&self.sim),
            rpc: self.rpc,
            pipeline: self.pipeline,
            cache: self.cache.clone(),
        }
    }
}

impl<'a> Ctx<'a> {
    /// The lookup cache, when the pipeline actually enables it.
    fn active_cache(&self) -> Option<&RefCell<LookupCache>> {
        if self.pipeline.cache {
            self.cache.as_deref()
        } else {
            None
        }
    }
}

type BoxFut<'f, T> = Pin<Box<dyn Future<Output = T> + 'f>>;

/// Event loop of one component site: serves requests until the runtime
/// winds down.
///
/// `LocalEval` handling is spawned as its own task: in PL every site
/// issues static assistant lookups to its peers *while* those peers are
/// evaluating, so a site that blocked inside its own evaluation would
/// deadlock the federation (each site waiting for a lookup reply from a
/// site that is not listening). Serving lookups concurrently with the
/// site's own evaluation is exactly the intra-site parallelism the paper
/// assumes of PL.
pub async fn run_site<'a>(ctx: Ctx<'a>, db: DbId) {
    loop {
        let env = ctx.net.recv(Site::Db(db)).await;
        let Payload::Request(ref request) = env.payload else {
            continue;
        };
        if matches!(request, Request::LocalEval { .. }) {
            let rt = ctx.net.rt().clone();
            rt.spawn(serve_site_request(ctx.clone(), db, env));
        } else {
            serve_site_request(ctx.clone(), db, env).await;
        }
    }
}

/// Serves one request addressed to component site `db` and sends its
/// response (if the request warrants one).
///
/// This is [`run_site`]'s body factored out so an out-of-process server
/// (the `fedoq-wire` crate's `fedoq-site` binary) can feed requests
/// arriving over a real wire into the same handler code. `LocalEval` is
/// handled inline here; callers that must serve assistant lookups
/// concurrently with their own evaluation (every site in PL) spawn this
/// future instead of awaiting it, exactly as [`run_site`] does.
pub async fn serve_site_request<'a>(ctx: Ctx<'a>, db: DbId, env: Envelope) {
    let Payload::Request(ref request) = env.payload else {
        return;
    };
    match request.clone() {
        Request::LocalEval {
            parallel,
            use_signatures,
            complete_targets,
        } => {
            let config = LocalizedConfig {
                use_signatures,
                complete_targets,
            };
            let reply = handle_local_eval(&ctx, db, parallel, config).await;
            let bytes = {
                let sim = ctx.sim.borrow();
                let params = sim.params();
                result_message_bytes(&reply.rows, params)
                    + reply_message_bytes(reply.verdicts.len(), params)
                    + target_reply_message_bytes(reply.target_values.len(), params)
            };
            ctx.net
                .respond(&env, bytes, Response::LocalEval(Box::new(reply)));
        }
        Request::AssistantLookup { checks, targets } => {
            let mut sim = ctx.sim.borrow_mut();
            let reply = LookupReply {
                verdicts: answer_check_requests(ctx.fed, ctx.query, db, &checks, &mut sim),
                values: answer_target_requests(ctx.fed, ctx.query, db, &targets, &mut sim),
            };
            let bytes = reply_message_bytes(reply.verdicts.len(), sim.params())
                + target_reply_message_bytes(reply.values.len(), sim.params());
            drop(sim);
            ctx.net
                .respond(&env, bytes, Response::AssistantLookup(reply));
        }
        Request::BatchAssistantLookup { checks, targets } => {
            let mut sim = ctx.sim.borrow_mut();
            let reply = LookupReply {
                verdicts: answer_check_requests(ctx.fed, ctx.query, db, &checks, &mut sim),
                values: answer_target_requests(ctx.fed, ctx.query, db, &targets, &mut sim),
            };
            let bytes = reply_message_bytes(reply.verdicts.len(), sim.params())
                + target_reply_message_bytes(reply.values.len(), sim.params());
            drop(sim);
            ctx.net
                .respond(&env, bytes, Response::BatchAssistantLookup(reply));
        }
        Request::ShipObjects => {
            let mut sim = ctx.sim.borrow_mut();
            let plan = ship_plan(ctx.fed, ctx.query, sim.params());
            let bytes: u64 = plan
                .shipments
                .iter()
                .filter(|(site, _)| *site == db)
                .map(|(_, b)| *b)
                .sum();
            sim.disk(Site::Db(db), bytes, Phase::Ship);
            drop(sim);
            ctx.net
                .respond(&env, bytes, Response::ShipObjects(ShipReply { bytes }));
        }
    }
}

/// Serves one `LocalEval`: local evaluation, then concurrent assistant
/// lookups against every peer owning assistants of the unsolved items.
async fn handle_local_eval(
    ctx: &Ctx<'_>,
    db: DbId,
    parallel: bool,
    config: LocalizedConfig,
) -> LocalEvalReply {
    let mode = if parallel {
        LocalizedMode::Parallel
    } else {
        LocalizedMode::Basic
    };
    let eval = {
        let mut sim = ctx.sim.borrow_mut();
        evaluate_site_with(
            ctx.fed,
            ctx.query,
            db,
            mode,
            config,
            &mut sim,
            ctx.pipeline,
            ctx.cache.as_deref(),
        )
    };
    // No local query at this site, or a local error: nothing to report.
    let Ok(Some(eval)) = eval else {
        return LocalEvalReply::default();
    };

    // Group the lookups by the peer owning the assistants. BTreeMap keeps
    // the fan-out order deterministic.
    let mut by_peer: BTreeMap<DbId, (Vec<CheckRequest>, Vec<TargetRequest>)> = BTreeMap::new();
    for r in eval
        .static_requests
        .iter()
        .chain(eval.dynamic_requests.iter())
    {
        by_peer.entry(r.assistant.db()).or_default().0.push(*r);
    }
    for r in &eval.target_requests {
        by_peer.entry(r.assistant.db()).or_default().1.push(*r);
    }

    let mut reply = LocalEvalReply {
        rows: eval.rows,
        ..LocalEvalReply::default()
    };
    let mut remote: Vec<(DbId, Vec<CheckRequest>, Vec<TargetRequest>)> = Vec::new();
    for (peer, (checks, targets)) in by_peer {
        if peer == db {
            // Own assistants: answered in place, no message needed.
            let mut sim = ctx.sim.borrow_mut();
            reply.verdicts.extend(answer_check_requests(
                ctx.fed, ctx.query, db, &checks, &mut sim,
            ));
            reply.target_values.extend(answer_target_requests(
                ctx.fed, ctx.query, db, &targets, &mut sim,
            ));
        } else {
            remote.push((peer, checks, targets));
        }
    }

    // Batched (or cached) lookups take the fragment path; the default
    // pipeline keeps the legacy one-message-per-peer wire shape.
    if ctx.pipeline.batch > 0 || ctx.active_cache().is_some() {
        let lookups: Vec<BoxFut<'_, PeerLookup>> = remote
            .iter()
            .map(|(peer, checks, targets)| {
                Box::pin(batched_peer_lookup(ctx, db, *peer, checks, targets)) as BoxFut<'_, _>
            })
            .collect();
        for outcome in join_all(lookups).await {
            reply.verdicts.extend(outcome.verdicts);
            reply.target_values.extend(outcome.values);
            reply.failed_checks.extend(outcome.failed_checks);
            if outcome.degraded {
                reply.degraded_peers.push(outcome.peer);
            }
        }
        return reply;
    }

    let params = *ctx.sim.borrow().params();
    let lookups: Vec<BoxFut<'_, Result<Response, RpcError>>> = remote
        .iter()
        .map(|(peer, checks, targets)| {
            let net = ctx.net.clone();
            let bytes = request_message_bytes(checks.len() + targets.len(), &params);
            let request = Request::AssistantLookup {
                checks: checks.clone(),
                targets: targets.clone(),
            };
            let (from, to) = (Site::Db(db), Site::Db(*peer));
            let cfg = ctx.rpc;
            Box::pin(async move { call(&net, from, to, request, bytes, Phase::O, cfg).await })
                as BoxFut<'_, _>
        })
        .collect();
    for ((peer, checks, _), outcome) in remote.iter().zip(join_all(lookups).await) {
        match outcome {
            Ok(Response::AssistantLookup(lookup)) => {
                reply.verdicts.extend(lookup.verdicts);
                reply.target_values.extend(lookup.values);
            }
            // Unreachable peer (or a protocol violation): record which
            // checks went unanswered so certification can degrade.
            _ => {
                reply.degraded_peers.push(*peer);
                reply
                    .failed_checks
                    .extend(checks.iter().map(|c| (c.item, c.pred)));
            }
        }
    }
    reply
}

/// One peer's contribution to a batched lookup round: answered verdicts
/// and values in request order, plus what stayed unanswered.
struct PeerLookup {
    peer: DbId,
    verdicts: Vec<CheckVerdict>,
    values: Vec<((LOid, usize), Value)>,
    failed_checks: Vec<(LOid, PredId)>,
    degraded: bool,
}

/// One batched-lookup fragment: coalesced checks and target fetches.
type Fragment = (Vec<CheckRequest>, Vec<TargetRequest>);

/// Splits a failed fragment of ≥ 2 probes into two non-empty halves
/// (checks order first, then targets), so the retry isolates the loss.
fn split_fragment(
    mut checks: Vec<CheckRequest>,
    mut targets: Vec<TargetRequest>,
) -> (Fragment, Fragment) {
    let mid = (checks.len() + targets.len()) / 2;
    if mid <= checks.len() {
        let back_checks = checks.split_off(mid);
        ((checks, Vec::new()), (back_checks, targets))
    } else {
        let back_targets = targets.split_off(mid - checks.len());
        ((checks, targets), (Vec::new(), back_targets))
    }
}

/// Resolves one peer's probes through `BatchAssistantLookup` fragments
/// of at most K probes, consulting the shared cache first.
///
/// A cache hit never touches the wire. A fragment whose RPC exhausts its
/// retry budget is split in half and each half retried on a fresh
/// correlation id — a transient drop costs one fragment, not the peer's
/// whole wave — until single probes remain; only those are given up as
/// failed. Answers are reassembled in original request order, so a
/// cached or batched run reports verdicts and values in exactly the
/// order the unbatched path would (target certification keeps the first
/// value it sees per item).
async fn batched_peer_lookup(
    ctx: &Ctx<'_>,
    db: DbId,
    peer: DbId,
    checks: &[CheckRequest],
    targets: &[TargetRequest],
) -> PeerLookup {
    let params = *ctx.sim.borrow().params();
    let fingerprint = if ctx.active_cache().is_some() {
        query_fingerprint(ctx.query)
    } else {
        0
    };

    // Cache pass: a hit is a probe the wire never sees.
    let mut check_hits: Vec<Option<CheckVerdict>> = Vec::with_capacity(checks.len());
    let mut check_misses: Vec<CheckRequest> = Vec::new();
    let mut target_hits: Vec<Option<Value>> = Vec::with_capacity(targets.len());
    let mut target_misses: Vec<TargetRequest> = Vec::new();
    for request in checks {
        let hit = ctx.active_cache().and_then(|c| {
            let key = CacheKey::Verdict {
                assistant: request.assistant,
                pred: request.pred.index(),
                start: request.start,
                query: fingerprint,
            };
            match c.borrow_mut().get(&key) {
                Some(CacheValue::Verdict(verdict)) => Some(CheckVerdict {
                    item: request.item,
                    pred: request.pred,
                    verdict,
                }),
                _ => None,
            }
        });
        if hit.is_none() {
            check_misses.push(*request);
        }
        check_hits.push(hit);
    }
    for request in targets {
        let hit = ctx.active_cache().and_then(|c| {
            let key = CacheKey::Target {
                assistant: request.assistant,
                target: request.target,
                start: request.start,
                query: fingerprint,
            };
            match c.borrow_mut().get(&key) {
                Some(CacheValue::Target(value)) => Some(value),
                _ => None,
            }
        });
        if hit.is_none() {
            target_misses.push(*request);
        }
        target_hits.push(hit);
    }

    // Coalesce the misses into fragments of at most K probes (batch 0,
    // reachable with the cache alone, keeps the one-message shape).
    let mut queue: VecDeque<Fragment> = VecDeque::new();
    if ctx.pipeline.batch == 0 {
        if !check_misses.is_empty() || !target_misses.is_empty() {
            queue.push_back((check_misses, target_misses));
        }
    } else {
        for chunk in check_misses.chunks(ctx.pipeline.batch) {
            queue.push_back((chunk.to_vec(), Vec::new()));
        }
        for chunk in target_misses.chunks(ctx.pipeline.batch) {
            queue.push_back((Vec::new(), chunk.to_vec()));
        }
    }

    // Drain the fragment queue with split-retry. Halves go to the front,
    // front half first, preserving overall answer order.
    let mut verdict_by_request: HashMap<CheckRequest, CheckVerdict> = HashMap::new();
    let mut value_by_request: HashMap<TargetRequest, Value> = HashMap::new();
    while let Some((frag_checks, frag_targets)) = queue.pop_front() {
        let bytes = request_message_bytes(frag_checks.len() + frag_targets.len(), &params);
        let request = Request::BatchAssistantLookup {
            checks: frag_checks.clone(),
            targets: frag_targets.clone(),
        };
        let outcome = call(
            &ctx.net,
            Site::Db(db),
            Site::Db(peer),
            request,
            bytes,
            Phase::O,
            ctx.rpc,
        )
        .await;
        match outcome {
            Ok(Response::BatchAssistantLookup(lookup)) => {
                for (request, verdict) in frag_checks.iter().zip(lookup.verdicts) {
                    verdict_by_request.insert(*request, verdict);
                }
                for (request, value) in frag_targets.iter().zip(lookup.values) {
                    value_by_request.insert(*request, value.1);
                }
            }
            _ if frag_checks.len() + frag_targets.len() > 1 => {
                let (front, back) = split_fragment(frag_checks, frag_targets);
                queue.push_front(back);
                queue.push_front(front);
            }
            // A single probe past the retry budget is lost for good.
            _ => {}
        }
    }

    // Reassemble in request order, populating the cache from fresh
    // answers and recording what stayed unanswered.
    let mut result = PeerLookup {
        peer,
        verdicts: Vec::with_capacity(checks.len()),
        values: Vec::with_capacity(targets.len()),
        failed_checks: Vec::new(),
        degraded: false,
    };
    for (request, hit) in checks.iter().zip(check_hits) {
        let answered = hit.or_else(|| verdict_by_request.get(request).copied());
        match answered {
            Some(verdict) => {
                if let Some(c) = ctx.active_cache() {
                    c.borrow_mut().put(
                        CacheKey::Verdict {
                            assistant: request.assistant,
                            pred: request.pred.index(),
                            start: request.start,
                            query: fingerprint,
                        },
                        CacheValue::Verdict(verdict.verdict),
                    );
                }
                result.verdicts.push(verdict);
            }
            None => {
                result.failed_checks.push((request.item, request.pred));
                result.degraded = true;
            }
        }
    }
    for (request, hit) in targets.iter().zip(target_hits) {
        let answered = hit.or_else(|| value_by_request.get(request).cloned());
        match answered {
            Some(value) => {
                if let Some(c) = ctx.active_cache() {
                    c.borrow_mut().put(
                        CacheKey::Target {
                            assistant: request.assistant,
                            target: request.target,
                            start: request.start,
                            query: fingerprint,
                        },
                        CacheValue::Target(value.clone()),
                    );
                }
                result.values.push(((request.item, request.target), value));
            }
            None => result.degraded = true,
        }
    }
    result
}

/// Final result of one distributed query execution.
#[derive(Debug, Clone)]
pub struct CertifyReply {
    /// The certified answer, or the error that stopped execution.
    pub answer: Result<QueryAnswer, ExecError>,
    /// Sites that stayed unreachable past the retry budget.
    pub degraded_sites: Vec<DbId>,
    /// Total RPC retries performed while executing.
    pub retries: u64,
}

/// What the caller of [`execute_plan`] wraps around each global→site
/// dispatch.
///
/// `()` is the no-op hook, passed by
/// [`DistributedExecutor`](crate::DistributedExecutor), `fedoq-serve`
/// and the protocol checker. The concurrent scheduler (`fedoq-sched`)
/// implements it with its dispatch gate, deadline cancellation,
/// dispatch trace and straggler probe.
pub trait DispatchHook<'a>: Sized + 'a {
    /// Held from admission until the dispatch's RPC returns.
    type Permit;

    /// Waits until one more dispatch may go out.
    fn admit(&self) -> impl Future<Output = Self::Permit>;

    /// `true` once the query is abandoned: an admitted dispatch is not
    /// sent, and a failed one no longer marks its site lost.
    fn cancelled(&self) -> bool {
        false
    }

    /// A dispatch to `site` is going out (`generation` 0 for the plan,
    /// 1 for a redispatch).
    fn dispatched(&self, _site: DbId, _parallel: bool, _generation: u32) {}

    /// `site` answered; `stale` when the reply was discarded because the
    /// site was already merged or the fold had finished.
    fn replied(&self, _site: DbId, _stale: bool) {}

    /// `site` was given up: no dispatch to it is left that could answer.
    fn lost(&self, _site: DbId) {}

    /// A localized fan-out has started; the hook may keep `fanout` (in a
    /// task of its own) to watch it and redispatch stragglers.
    fn watch(&self, _fanout: &Fanout<'a, Self>) {}
}

impl<'a> DispatchHook<'a> for () {
    type Permit = ();

    fn admit(&self) -> impl Future<Output = ()> {
        std::future::ready(())
    }
}

/// The global site's orchestration: runs `plan` end to end over the
/// component actors and certifies the answer, with `hook` around every
/// dispatch.
///
/// Callers await it directly on the runtime that hosts the site actors
/// (or, over a real wire, the transport that reaches them); the global
/// site never receives a message of its own.
pub async fn execute_plan<'a, H: DispatchHook<'a>>(
    ctx: &Ctx<'a>,
    plan: &Plan,
    hook: H,
) -> CertifyReply {
    match plan {
        Plan::Central => orchestrate_centralized(ctx, &hook).await,
        Plan::Localized { modes, config } => orchestrate_localized(ctx, modes, *config, hook).await,
    }
}

/// One global→site RPC. The site does work (and, for `LocalEval`, RPCs)
/// of its own before it replies, hence the scaled timeout.
async fn call_site(ctx: &Ctx<'_>, site: DbId, request: Request) -> Result<Response, RpcError> {
    let bytes = 2 * ctx.sim.borrow().params().attr_bytes;
    let cfg = ctx.rpc.scaled(FANOUT_TIMEOUT_SCALE);
    call(
        &ctx.net,
        Site::Global,
        Site::Db(site),
        request,
        bytes,
        Phase::Ship,
        cfg,
    )
    .await
}

/// CA over the runtime: ship every involved extent, then evaluate at the
/// global site. No shipment may be missing, so failure is fatal.
async fn orchestrate_centralized<'a, H: DispatchHook<'a>>(ctx: &Ctx<'a>, hook: &H) -> CertifyReply {
    let params = *ctx.sim.borrow().params();
    let plan = ship_plan(ctx.fed, ctx.query, &params);
    // With the cache on, shipments the global site already holds from a
    // previous run of this query are warm: a site is contacted only if
    // it owns at least one cold shipment. Cache entries are recorded
    // only after the ships succeed, so a degraded run stays cold.
    let mut contact = plan.sites.clone();
    let mut fresh: Vec<(CacheKey, u64)> = Vec::new();
    if let Some(cache) = ctx.active_cache() {
        let fingerprint = query_fingerprint(ctx.query);
        let mut cold: BTreeSet<DbId> = BTreeSet::new();
        let mut cache = cache.borrow_mut();
        for (index, (site, bytes)) in plan.shipments.iter().enumerate() {
            let key = CacheKey::Shipment {
                db: *site,
                index,
                query: fingerprint,
            };
            if cache.get(&key).is_none() {
                cold.insert(*site);
                fresh.push((key, *bytes));
            }
        }
        contact.retain(|site| cold.contains(site));
    }
    let ships: Vec<BoxFut<'_, (DbId, bool)>> = contact
        .iter()
        .map(|&site| {
            Box::pin(async move {
                let _permit = hook.admit().await;
                if hook.cancelled() {
                    return (site, false);
                }
                hook.dispatched(site, false, 0);
                let outcome = call_site(ctx, site, Request::ShipObjects).await;
                let shipped = matches!(outcome, Ok(Response::ShipObjects(_)));
                if shipped {
                    hook.replied(site, false);
                } else {
                    hook.lost(site);
                }
                (site, shipped)
            }) as BoxFut<'_, _>
        })
        .collect();
    let mut degraded_sites = Vec::new();
    for (site, shipped) in join_all(ships).await {
        if !shipped {
            degraded_sites.push(site);
        }
    }
    let answer = if degraded_sites.is_empty() {
        if let Some(cache) = ctx.active_cache() {
            let mut cache = cache.borrow_mut();
            for (key, bytes) in fresh {
                cache.put(key, CacheValue::Shipment(bytes));
            }
        }
        let mut sim = ctx.sim.borrow_mut();
        centralized_answer_with(ctx.fed, ctx.query, &mut sim, ctx.pipeline)
    } else {
        let sites = degraded_sites
            .iter()
            .map(|&s| ctx.fed.db(s).name().to_string())
            .collect::<Vec<_>>()
            .join(", ");
        Err(ExecError::Unreachable(format!(
            "CA cannot evaluate without the extents of {sites}; \
             use a localized strategy for graceful degradation"
        )))
    };
    CertifyReply {
        answer,
        degraded_sites,
        retries: ctx.net.retries(),
    }
}

/// BL/PL/HY over the runtime: one `LocalEval` task per hosting site
/// (each with its mode's `parallel` flag) folds its reply into a
/// [`LocalizedMerge`] in completion order; once every site is merged or
/// lost, the merge certifies and tags degraded maybe results.
async fn orchestrate_localized<'a, H: DispatchHook<'a>>(
    ctx: &Ctx<'a>,
    modes: &SiteModes,
    config: LocalizedConfig,
    hook: H,
) -> CertifyReply {
    let schema = ctx.fed.global_schema();
    let hosting: Rc<[DbId]> = ctx
        .fed
        .dbs()
        .iter()
        .filter_map(|db| plan_for_db(ctx.query, schema, db.id()).map(|p| p.db()))
        .collect();
    let fanout = Fanout {
        ctx: ctx.clone(),
        hook: Rc::new(hook),
        config,
        state: Rc::new(RefCell::new(FanoutState {
            remaining: hosting.len(),
            ..FanoutState::default()
        })),
        hosting,
    };
    for &site in fanout.hosting.iter() {
        fanout.spawn_dispatch(site, modes.parallel_at(site), 0);
    }
    fanout.hook.watch(&fanout);
    poll_fn(|cx| {
        let mut state = fanout.state.borrow_mut();
        if state.remaining == 0 {
            return Poll::Ready(());
        }
        state.waker = Some(cx.waker().clone());
        Poll::Pending
    })
    .await;
    let merge = {
        let mut state = fanout.state.borrow_mut();
        state.finished = true;
        std::mem::take(&mut state.merge)
    };
    let (answer, degraded_sites) = merge.finish(ctx.fed, ctx.query, &mut ctx.sim.borrow_mut());
    CertifyReply {
        answer: Ok(answer),
        degraded_sites,
        retries: ctx.net.retries(),
    }
}

/// A localized fan-out in flight: the merge accumulator plus per-site
/// dispatch bookkeeping, shared by the dispatch tasks, the fold in
/// [`execute_plan`], and whatever the hook's
/// [`watch`](DispatchHook::watch) keeps.
pub struct Fanout<'a, H> {
    ctx: Ctx<'a>,
    hook: Rc<H>,
    config: LocalizedConfig,
    hosting: Rc<[DbId]>,
    state: Rc<RefCell<FanoutState>>,
}

impl<H> Clone for Fanout<'_, H> {
    fn clone(&self) -> Self {
        Fanout {
            ctx: self.ctx.clone(),
            hook: Rc::clone(&self.hook),
            config: self.config,
            hosting: Rc::clone(&self.hosting),
            state: Rc::clone(&self.state),
        }
    }
}

/// Dispatch bookkeeping of one hosting site.
#[derive(Debug, Default)]
struct SiteDispatch {
    /// Dispatches whose RPC has not returned.
    inflight: u32,
    /// The site was redispatched (at most once).
    redispatched: bool,
    /// Virtual time the latest dispatch went out (µs).
    sent_at: f64,
}

#[derive(Debug, Default)]
struct FanoutState {
    merge: LocalizedMerge,
    sites: BTreeMap<DbId, SiteDispatch>,
    /// Latencies of the dispatches that merged (µs).
    completed_us: Vec<f64>,
    /// Hosting sites not merged yet.
    remaining: usize,
    waker: Option<Waker>,
    /// Set once the fold took the merge: late replies landing after this
    /// are stale by definition and must not touch `merge` (it has been
    /// replaced by an empty accumulator) or `remaining`.
    finished: bool,
}

impl FanoutState {
    /// One more site merged (answered or lost): wake the fold.
    fn settle(&mut self) {
        self.remaining -= 1;
        if let Some(waker) = self.waker.take() {
            waker.wake();
        }
    }
}

impl<'a, H: DispatchHook<'a>> Fanout<'a, H> {
    /// Every hosting site, ascending.
    pub fn hosting(&self) -> &[DbId] {
        &self.hosting
    }

    /// The sites merged (answered or lost) so far, ascending.
    pub fn merged_sites(&self) -> Vec<DbId> {
        self.state.borrow().merge.merged_sites()
    }

    /// The straggling sites, each with how long its dispatch has been
    /// out (µs), ascending by site: unmerged, never redispatched, and
    /// out longer than `max(min_us, factor ×` the mean latency of the
    /// dispatches merged so far`)` — none before the first merges.
    /// `None` once every hosting site is merged.
    pub fn stragglers(&self, factor: f64, min_us: f64) -> Option<Vec<(DbId, f64)>> {
        let now = self.ctx.net.rt().now_us();
        let state = self.state.borrow();
        if state.remaining == 0 {
            return None;
        }
        let merged = state.completed_us.len();
        if merged == 0 {
            return Some(Vec::new());
        }
        let mean = state.completed_us.iter().sum::<f64>() / merged as f64;
        let threshold = (factor * mean).max(min_us);
        let stragglers = state
            .sites
            .iter()
            .filter(|(site, d)| !state.merge.is_merged(**site) && !d.redispatched && d.inflight > 0)
            .map(|(site, d)| (*site, now - d.sent_at))
            .filter(|&(_, elapsed)| elapsed > threshold)
            .collect();
        Some(stragglers)
    }

    /// Dispatches hosting site `site` once more, as `parallel` says
    /// (generation 1). Refuses, returning `false`, a site that is merged
    /// or was redispatched already.
    pub fn redispatch(&self, site: DbId, parallel: bool) -> bool {
        {
            let mut state = self.state.borrow_mut();
            if !self.hosting.contains(&site) || state.merge.is_merged(site) {
                return false;
            }
            let dispatch = state.sites.entry(site).or_default();
            if dispatch.redispatched {
                return false;
            }
            dispatch.redispatched = true;
        }
        self.spawn_dispatch(site, parallel, 1);
        true
    }

    fn spawn_dispatch(&self, site: DbId, parallel: bool, generation: u32) {
        let rt = self.ctx.net.rt().clone();
        rt.spawn(self.clone().dispatch(site, parallel, generation));
    }

    /// One `LocalEval` dispatch to `site`; folds whatever comes back.
    async fn dispatch(self, site: DbId, parallel: bool, generation: u32) {
        let permit = self.hook.admit().await;
        let sent_at = self.ctx.net.rt().now_us();
        {
            let mut state = self.state.borrow_mut();
            if self.hook.cancelled() || state.merge.is_merged(site) {
                return;
            }
            let dispatch = state.sites.entry(site).or_default();
            dispatch.inflight += 1;
            dispatch.sent_at = sent_at;
        }
        self.hook.dispatched(site, parallel, generation);
        let request = Request::LocalEval {
            parallel,
            use_signatures: self.config.use_signatures,
            complete_targets: self.config.complete_targets,
        };
        let outcome = call_site(&self.ctx, site, request).await;
        drop(permit);
        let now = self.ctx.net.rt().now_us();
        let mut state = self.state.borrow_mut();
        let dispatch = state.sites.entry(site).or_default();
        dispatch.inflight -= 1;
        let attempts_left = dispatch.inflight;
        if state.finished {
            if matches!(outcome, Ok(Response::LocalEval(_))) {
                self.hook.replied(site, true);
            }
            return;
        }
        match outcome {
            Ok(Response::LocalEval(reply)) => {
                let merged = state.merge.record_site(
                    site,
                    reply.rows,
                    reply.verdicts,
                    reply.target_values,
                    reply.failed_checks,
                    reply.degraded_peers,
                );
                self.hook.replied(site, !merged);
                if merged {
                    state.completed_us.push(now - sent_at);
                    state.settle();
                }
            }
            // This attempt exhausted its retry budget. The site is lost
            // only when no other attempt (a redispatch) is still in
            // flight and nothing merged meanwhile; a loss whose site is
            // gone stops absence elimination against it and degrades
            // every entity with a copy there.
            _ => {
                if !self.hook.cancelled()
                    && attempts_left == 0
                    && state.merge.record_site_loss(site)
                {
                    self.hook.lost(site);
                    state.settle();
                }
            }
        }
    }
}
