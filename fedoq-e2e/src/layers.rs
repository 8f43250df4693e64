//! The traced run's in-process half: the benchmark calls each crate's
//! public entry points on the workload's own federation and inputs,
//! inside spans, and checks every answer it gets back.

use crate::check::digest;
use crate::family::{Mutations, Texts};
use crate::stats::median;
use crate::trace::Tracer;
use fedoq_core::{
    annotate_conditions, collect_catalog, oracle_answer, query_fingerprint,
    run_strategy_with_pipeline, Federation, LookupCache, PipelineConfig,
};
use fedoq_live::{evaluate, render_conditioned, LiveEvent, LiveReactor, LiveStrategy, SubId};
use fedoq_net::{DistributedExecutor, DistributedStrategy};
use fedoq_object::DbId;
use fedoq_plan::{choose, PipelineKnobs};
use fedoq_query::{plan_for_db, BoundQuery, SitePlan};
use fedoq_sim::{QueryMetrics, SystemParams};
use fedoq_store::LocalQuery;
use fedoq_sync::Receiver;
use fedoq_wire::{apply_mutation, build_workload, parse_mutation, render_answer};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Strategies the in-process layers are timed under.
pub const CORE_STRATEGIES: [&str; 3] = ["ca", "bl", "pl"];

const CORE_SPANS: [&str; 3] = ["core.exec.ca", "core.exec.bl", "core.exec.pl"];
const NET_SPANS: [&str; 3] = ["net.exec.ca", "net.exec.bl", "net.exec.pl"];

/// Texts the warm-cache comparison runs on.
const WARM_TEXTS: usize = 3;

/// Counts and cost-model values the spans alone do not carry.
#[derive(Default)]
pub struct LayerCounts {
    /// Per strategy: modeled response µs, messages, bytes, comparisons,
    /// and modeled µs over measured core µs, one entry per query.
    pub sim: BTreeMap<&'static str, Vec<(QueryMetrics, f64)>>,
    /// Store scan comparisons and rows returned, summed.
    pub scan_comparisons: u64,
    /// Rows the store scans returned.
    pub scan_rows: u64,
    /// Per mirrored mutation: subscriptions re-evaluated.
    pub evals: Vec<f64>,
    /// Per mirrored mutation: deltas emitted.
    pub deltas: Vec<f64>,
    /// Re-evaluations that emitted at least one delta.
    pub useful_evals: u64,
    /// Answers checked against a reference.
    pub checked: usize,
    /// Answers that differed from it.
    pub wrong: usize,
    /// Human-readable comparison of the cost model with the clock.
    pub table: Vec<String>,
}

struct Watch {
    sub: SubId,
    sql: Arc<str>,
    strategy: LiveStrategy,
    events: Receiver<LiveEvent>,
}

/// Runs the in-process battery until `deadline` (at least one round):
/// per query text, parse/bind, catalog, planning, each strategy in
/// process and over `LocalTransport`, and each site's local scan; per
/// round, one mutation mirrored through a `LiveReactor` holding `fleet`.
///
/// # Errors
///
/// A federation that fails to build, or a layer call that fails where
/// the workload guarantees success.
pub fn battery(
    base: &Federation,
    spec: &str,
    texts: &mut Texts,
    mut mutations: Mutations,
    fleet: &[(Arc<str>, &'static str)],
    deadline: Instant,
    tracer: &mut Tracer,
) -> Result<LayerCounts, String> {
    let params = SystemParams::paper_default();
    let mut counts = LayerCounts::default();
    let (mirror, _) = build_workload(spec)?;
    let mut reactor = LiveReactor::new(mirror);
    let mut watches = Vec::new();
    for (sql, strategy) in fleet {
        let strategy = LiveStrategy::parse(strategy).ok_or("bad fleet strategy")?;
        let reg = reactor
            .register(sql, strategy, 0)
            .map_err(|e| format!("register {sql}: {e}"))?;
        while reg.events.try_recv().is_some() {}
        watches.push(Watch {
            sub: reg.sub,
            sql: Arc::clone(sql),
            strategy,
            events: reg.events,
        });
    }

    let mut warm_rows = Vec::new();
    let mut request = 3u64 << 32;
    for round in 0usize.. {
        if round > 0 && Instant::now() >= deadline {
            break;
        }
        request += 1;
        let sql = texts.next_text();
        let bound = tracer.leaf("query.parse_bind", request, || base.parse_and_bind(&sql));
        if let Ok(query) = bound {
            query_layers(base, &query, params, request, tracer, &mut counts)?;
            if warm_rows.len() < WARM_TEXTS {
                warm_rows.push(warm_cache(base, &query, params)?);
            }
        }
        request += 1;
        live_step(
            &mut reactor,
            &mut watches,
            &mut mutations,
            round,
            request,
            tracer,
            &mut counts,
        )?;
    }
    counts.table = modeled_vs_wall(tracer, &counts, &warm_rows);
    Ok(counts)
}

fn query_layers(
    fed: &Federation,
    query: &BoundQuery,
    params: SystemParams,
    request: u64,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<(), String> {
    let expected = digest(&render_answer(&oracle_answer(fed, query)));
    let catalog = tracer.leaf("plan.catalog", request, || collect_catalog(fed, params));
    let knobs = PipelineKnobs {
        threads: 1.0,
        warmth: 0.0,
        batch: 0.0,
    };
    let fingerprint = query_fingerprint(query);
    tracer.leaf("plan.choose", request, || {
        choose(
            &catalog,
            fed.global_schema(),
            query,
            &knobs,
            fingerprint,
            true,
        )
    });
    for (i, name) in CORE_STRATEGIES.iter().enumerate() {
        let strategy = DistributedStrategy::parse(name).ok_or("unknown strategy")?;
        let exec = strategy.sync();
        let start = Instant::now();
        let (answer, metrics) = tracer
            .leaf(CORE_SPANS[i], request, || {
                run_strategy_with_pipeline(
                    exec.as_ref(),
                    fed,
                    query,
                    params,
                    PipelineConfig::default(),
                    None,
                )
            })
            .map_err(|e| format!("{name} in process: {e}"))?;
        let wall_us = start.elapsed().as_secs_f64() * 1e6;
        counts.checked += 1;
        counts.wrong += usize::from(digest(&render_answer(&answer)) != expected);
        let ratio = metrics.response_us / wall_us;
        counts.sim.entry(name).or_default().push((metrics, ratio));

        let outcome = tracer
            .leaf(NET_SPANS[i], request, || {
                DistributedExecutor::new().run_local(fed, query, strategy)
            })
            .map_err(|e| format!("{name} over LocalTransport: {e}"))?;
        counts.checked += 1;
        counts.wrong += usize::from(digest(&render_answer(&outcome.answer)) != expected);
    }
    for db in fed.dbs() {
        let Some(plan) = plan_for_db(query, fed.global_schema(), db.id()) else {
            continue;
        };
        let local = local_query(fed, query, &plan)?;
        let result = tracer.leaf("store.scan", request, || local.execute(db));
        counts.scan_comparisons += result.counter().comparisons;
        counts.scan_rows += result.len() as u64;
    }
    Ok(())
}

/// The site's localized predicates from `plan_for_db`, as a
/// [`LocalQuery`] over the site's root constituent.
fn local_query(
    fed: &Federation,
    query: &BoundQuery,
    plan: &SitePlan,
) -> Result<LocalQuery, String> {
    let db = fed.db(plan.db());
    let schema = fed.global_schema();
    let mut preds = Vec::new();
    for id in plan.local_preds() {
        let pred = query.predicate(id);
        let path = pred.path();
        let mut names = Vec::with_capacity(path.len());
        for i in 0..path.len() {
            let constituent = schema
                .class(path.class(i))
                .constituent_for(db.id())
                .ok_or("local step without a constituent")?;
            let slot = constituent
                .local_slot(path.slot(i))
                .ok_or("local step without a local attribute")?;
            names.push(db.schema().class(constituent.class()).attrs()[slot].name());
        }
        preds.push((names.join("."), pred.op(), pred.literal().clone()));
    }
    let preds: Vec<_> = preds
        .iter()
        .map(|(p, op, v)| (p.as_str(), *op, v.clone()))
        .collect();
    let class = db.schema().class(plan.root_constituent()).name();
    LocalQuery::build(db, class, &preds, &[]).map_err(|e| e.to_string())
}

/// A cold and a warm run of one strategy with the lookup cache on.
struct WarmPair {
    strategy: &'static str,
    /// Modeled response µs, cold then warm.
    modeled: (f64, f64),
    /// Measured µs, cold then warm.
    wall: (f64, f64),
}

/// One cold-then-warm pair per strategy with the lookup cache on.
fn warm_cache(
    fed: &Federation,
    query: &BoundQuery,
    params: SystemParams,
) -> Result<Vec<WarmPair>, String> {
    let pipeline = PipelineConfig {
        cache: true,
        ..PipelineConfig::default()
    };
    let mut rows = Vec::new();
    for name in CORE_STRATEGIES {
        let exec = DistributedStrategy::parse(name)
            .ok_or("unknown strategy")?
            .sync();
        let cache = RefCell::new(LookupCache::default());
        let run = || -> Result<(f64, f64), String> {
            let start = Instant::now();
            let (_, m) = run_strategy_with_pipeline(
                exec.as_ref(),
                fed,
                query,
                params,
                pipeline,
                Some(&cache),
            )
            .map_err(|e| e.to_string())?;
            Ok((m.response_us, start.elapsed().as_secs_f64() * 1e6))
        };
        let (modeled_cold, wall_cold) = run()?;
        let (modeled_warm, wall_warm) = run()?;
        rows.push(WarmPair {
            strategy: name,
            modeled: (modeled_cold, modeled_warm),
            wall: (wall_cold, wall_warm),
        });
    }
    Ok(rows)
}

fn live_step(
    reactor: &mut LiveReactor,
    watches: &mut [Watch],
    mutations: &mut Mutations,
    round: usize,
    request: u64,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<(), String> {
    let (db, spec) = mutations.next_spec();
    let mutation = parse_mutation(&spec)?;
    let span = tracer.open("live.mutate", request);
    let result = reactor.mutate(DbId::new(db), |cdb| {
        tracer.leaf("store.mutate", request, || apply_mutation(cdb, &mutation))
    });
    tracer.close(span);
    let (_, outcome) = result.map_err(|e| format!("mirror {spec}: {e}"))?;
    counts.evals.push(outcome.affected as f64);
    counts.deltas.push(outcome.deltas as f64);
    for watch in watches.iter() {
        let mut emitted = false;
        while let Some(event) = watch.events.try_recv() {
            emitted |= matches!(event, LiveEvent::Deltas { .. });
        }
        counts.useful_evals += u64::from(emitted);
    }
    if watches.is_empty() {
        return Ok(());
    }
    // Check one standing query per round against a full re-evaluation,
    // and time condition annotation on that answer.
    let watch = &watches[round % watches.len()];
    let fed = reactor.federation();
    let query = fed.parse_and_bind(&watch.sql).map_err(|e| e.to_string())?;
    let params = SystemParams::paper_default();
    let reference = evaluate(fed, &query, watch.strategy, params, &BTreeSet::new())
        .map_err(|e| e.to_string())?;
    let annotated = tracer.leaf("core.condition", request, || {
        annotate_conditions(fed, &query, reference.answer())
    });
    let maintained = reactor.answer(watch.sub).ok_or("fleet query lost")?;
    let expected = render_conditioned(&reference);
    counts.checked += 2;
    counts.wrong += usize::from(render_conditioned(&annotated) != expected);
    counts.wrong += usize::from(render_conditioned(maintained) != expected);
    Ok(())
}

fn span_p50(tracer: &Tracer, name: &str) -> f64 {
    let durations: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_us - s.start_us)
        .collect();
    median(&durations).unwrap_or(f64::NAN)
}

/// The cost model beside the clock: modeled response µs next to the
/// measured in-process and `LocalTransport` µs per strategy, the warm
/// lookup cache's modeled and measured speed-ups, and PL against BL.
fn modeled_vs_wall(tracer: &Tracer, counts: &LayerCounts, warm: &[Vec<WarmPair>]) -> Vec<String> {
    let mut table = vec![format!(
        "{:<10} {:>16} {:>14} {:>14} {:>14}",
        "strategy", "sim.modeled_us", "core.exec_us", "net.exec_us", "modeled/core"
    )];
    let mut wall = BTreeMap::new();
    let mut modeled = BTreeMap::new();
    for (i, name) in CORE_STRATEGIES.iter().enumerate() {
        let m: Vec<f64> = counts
            .sim
            .get(name)
            .map(|v| v.iter().map(|(m, _)| m.response_us).collect())
            .unwrap_or_default();
        let m = median(&m).unwrap_or(f64::NAN);
        let core = span_p50(tracer, CORE_SPANS[i]);
        let net = span_p50(tracer, NET_SPANS[i]);
        table.push(format!(
            "{name:<10} {m:>16.1} {core:>14.1} {net:>14.1} {:>14.2}",
            m / core
        ));
        wall.insert(*name, core);
        modeled.insert(*name, m);
    }
    table.push(format!(
        "PL/BL: modeled {:.2}x, in-process wall {:.2}x",
        modeled["pl"] / modeled["bl"],
        wall["pl"] / wall["bl"]
    ));
    for name in CORE_STRATEGIES {
        let speedup = |pair: fn(&WarmPair) -> (f64, f64)| {
            let v: Vec<f64> = warm
                .iter()
                .flatten()
                .filter(|r| r.strategy == name)
                .map(|r| pair(r).0 / pair(r).1)
                .collect();
            median(&v).unwrap_or(f64::NAN)
        };
        let modeled_x = speedup(|r| r.modeled);
        let wall_x = speedup(|r| r.wall);
        table.push(format!(
            "warm cache {name}: modeled speed-up {modeled_x:.2}x, wall speed-up {wall_x:.2}x (median of {} texts)",
            warm.len()
        ));
    }
    table
}
