//! Site actors: each component database as a message-serving process.
//!
//! [`run_site`] is one component site's event loop; [`execute_plan`] is
//! the global (federation) site's orchestration of one query, awaited
//! directly by whoever runs the query. The actors reuse the *exact*
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
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

/// Outer RPCs whose handler issues nested RPCs (`LocalEval`,
/// `ShipObjects`) get this much more time, so a callee patiently
/// retrying its *own* peers — or shipping a large reply — is not
/// mistaken for a dead site.
pub const FANOUT_TIMEOUT_SCALE: f64 = 50.0;

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

/// The global site's orchestration: runs `plan` end to end over the
/// component actors and certifies the answer.
///
/// Callers await it directly on the runtime that hosts the site actors
/// (or, over a real wire, the transport that reaches them); the global
/// site never receives a message of its own.
pub async fn execute_plan(ctx: &Ctx<'_>, plan: &Plan) -> CertifyReply {
    match plan {
        Plan::Central => orchestrate_centralized(ctx).await,
        Plan::Localized { modes, config } => orchestrate_localized(ctx, modes, *config).await,
    }
}

/// CA over the runtime: ship every involved extent, then evaluate at the
/// global site. No shipment may be missing, so failure is fatal.
async fn orchestrate_centralized(ctx: &Ctx<'_>) -> CertifyReply {
    let params = *ctx.sim.borrow().params();
    let plan = ship_plan(ctx.fed, ctx.query, &params);
    let cfg = ctx.rpc.scaled(FANOUT_TIMEOUT_SCALE);
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
    let ships: Vec<BoxFut<'_, (DbId, Result<Response, RpcError>)>> = contact
        .iter()
        .map(|&site| {
            let net = ctx.net.clone();
            Box::pin(async move {
                let outcome = call(
                    &net,
                    Site::Global,
                    Site::Db(site),
                    Request::ShipObjects,
                    2 * params.attr_bytes,
                    Phase::Ship,
                    cfg,
                )
                .await;
                (site, outcome)
            }) as BoxFut<'_, _>
        })
        .collect();
    let mut degraded_sites = Vec::new();
    for (site, outcome) in join_all(ships).await {
        match outcome {
            Ok(Response::ShipObjects(_)) => {}
            _ => degraded_sites.push(site),
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

/// BL/PL/HY over the runtime: fan `LocalEval` out to every hosting site
/// (each with its mode's `parallel` flag), merge the replies through
/// [`LocalizedMerge`], certify, and tag degraded maybe results.
async fn orchestrate_localized(
    ctx: &Ctx<'_>,
    modes: &SiteModes,
    config: LocalizedConfig,
) -> CertifyReply {
    let schema = ctx.fed.global_schema();
    let hosting: Vec<DbId> = ctx
        .fed
        .dbs()
        .iter()
        .filter_map(|db| plan_for_db(ctx.query, schema, db.id()).map(|p| p.db()))
        .collect();

    let params = *ctx.sim.borrow().params();
    let cfg = ctx.rpc.scaled(FANOUT_TIMEOUT_SCALE);
    let evals: Vec<BoxFut<'_, (DbId, Result<Response, RpcError>)>> = hosting
        .iter()
        .map(|&site| {
            let net = ctx.net.clone();
            let request = Request::LocalEval {
                parallel: modes.parallel_at(site),
                use_signatures: config.use_signatures,
                complete_targets: config.complete_targets,
            };
            Box::pin(async move {
                let outcome = call(
                    &net,
                    Site::Global,
                    Site::Db(site),
                    request,
                    2 * params.attr_bytes,
                    Phase::Ship,
                    cfg,
                )
                .await;
                (site, outcome)
            }) as BoxFut<'_, _>
        })
        .collect();

    let mut merge = LocalizedMerge::new();
    for (site, outcome) in join_all(evals).await {
        match outcome {
            Ok(Response::LocalEval(reply)) => {
                merge.record_site(
                    site,
                    reply.rows,
                    reply.verdicts,
                    reply.target_values,
                    reply.failed_checks,
                    reply.degraded_peers,
                );
            }
            // The whole site is gone: no absence elimination against it,
            // and every entity with a copy there is degraded.
            _ => {
                merge.record_site_loss(site);
            }
        }
    }

    let (answer, degraded_sites) = {
        let mut sim = ctx.sim.borrow_mut();
        merge.finish(ctx.fed, ctx.query, &mut sim)
    };

    CertifyReply {
        answer: Ok(answer),
        degraded_sites,
        retries: ctx.net.retries(),
    }
}
