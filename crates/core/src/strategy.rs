//! The execution-strategy interface and the adaptive planner loop.

use crate::cache::{query_fingerprint, LookupCache};
use crate::centralized::Centralized;
use crate::error::ExecError;
use crate::federation::Federation;
use crate::localized::{BasicLocalized, HybridLocalized, ParallelLocalized};
use crate::pipeline::PipelineConfig;
use crate::result::QueryAnswer;
use fedoq_plan::{choose, PipelineKnobs, PlanChoice, PlanKind, StatsCatalog};
use fedoq_query::BoundQuery;
use fedoq_sim::{NetworkModel, QueryMetrics, Resource, SimTime, Simulation, Site, SystemParams};
use std::cell::RefCell;

/// A query execution strategy for global queries over missing data.
///
/// Implementations execute the query for real over the federation's data
/// while charging every comparison, disk byte, and network byte to the
/// [`Simulation`] — the answer is exact, and the metrics reflect the work
/// the strategy actually performed.
pub trait ExecutionStrategy {
    /// Short name used in experiment output (`"CA"`, `"BL"`, `"PL"`, …).
    fn name(&self) -> &'static str;

    /// Executes `query` over `fed`, narrating costs to `sim`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] when the federation violates an invariant the
    /// strategy relies on (e.g. a constituent class disappearing between
    /// binding and execution). Well-formed federations never error.
    fn execute(
        &self,
        fed: &Federation,
        query: &BoundQuery,
        sim: &mut Simulation,
    ) -> Result<QueryAnswer, ExecError>;

    /// Executes `query` under an explicit [`PipelineConfig`] with an
    /// optional shared [`LookupCache`].
    ///
    /// The pipeline tunes *how* the strategy runs — chunked parallel
    /// scans, probe batching, cached lookups — never the answer: for any
    /// configuration the result must equal `execute`'s. The default
    /// implementation ignores the tuning and runs sequentially, which is
    /// always correct; CA/BL/PL override it.
    ///
    /// Callers owning a persistent cache must
    /// [`sync_generation`](LookupCache::sync_generation) it against
    /// [`Federation::generation`] first (the [`run_strategy_with_pipeline`]
    /// wrapper does).
    ///
    /// # Errors
    ///
    /// As for [`execute`](ExecutionStrategy::execute).
    fn execute_with(
        &self,
        fed: &Federation,
        query: &BoundQuery,
        sim: &mut Simulation,
        pipeline: PipelineConfig,
        cache: Option<&RefCell<LookupCache>>,
    ) -> Result<QueryAnswer, ExecError> {
        let _ = (pipeline, cache);
        self.execute(fed, query, sim)
    }
}

/// Convenience wrapper: runs `strategy` in a fresh simulation and returns
/// the answer with its metrics.
///
/// # Errors
///
/// Propagates the strategy's [`ExecError`].
///
/// # Example
///
/// ```no_run
/// use fedoq_core::{run_strategy, Centralized, Federation};
/// use fedoq_sim::SystemParams;
/// # fn get_fed() -> Federation { unimplemented!() }
/// let fed = get_fed();
/// let query = fed.parse_and_bind("SELECT X.name FROM Student X WHERE X.age > 30")?;
/// let (answer, metrics) = run_strategy(&Centralized, &fed, &query, SystemParams::paper_default())?;
/// println!("{answer}: {metrics}");
/// # Ok::<(), fedoq_core::ExecError>(())
/// ```
pub fn run_strategy<S: ExecutionStrategy + ?Sized>(
    strategy: &S,
    fed: &Federation,
    query: &BoundQuery,
    params: SystemParams,
) -> Result<(QueryAnswer, QueryMetrics), ExecError> {
    run_strategy_with_network(strategy, fed, query, params, NetworkModel::SharedBus)
}

/// Like [`run_strategy`] with an explicit network arbitration model —
/// used by the network-model ablation (the paper assumes a shared
/// medium; point-to-point links change where contention bites).
///
/// # Errors
///
/// Propagates the strategy's [`ExecError`].
pub fn run_strategy_with_network<S: ExecutionStrategy + ?Sized>(
    strategy: &S,
    fed: &Federation,
    query: &BoundQuery,
    params: SystemParams,
    network: NetworkModel,
) -> Result<(QueryAnswer, QueryMetrics), ExecError> {
    let mut sim = Simulation::with_network(params, fed.num_dbs(), network);
    let answer = strategy.execute(fed, query, &mut sim)?;
    let metrics = sim.metrics();
    Ok((answer, metrics))
}

/// Like [`run_strategy`] with an explicit [`PipelineConfig`] and an
/// optional shared [`LookupCache`]. The cache is generation-synced
/// against the federation before execution, so a query following a store
/// mutation never observes stale entries; pass the same `RefCell` across
/// calls to measure warm-cache behavior.
///
/// # Errors
///
/// Propagates the strategy's [`ExecError`].
pub fn run_strategy_with_pipeline<S: ExecutionStrategy + ?Sized>(
    strategy: &S,
    fed: &Federation,
    query: &BoundQuery,
    params: SystemParams,
    pipeline: PipelineConfig,
    cache: Option<&RefCell<LookupCache>>,
) -> Result<(QueryAnswer, QueryMetrics), ExecError> {
    if let Some(cache) = cache {
        cache.borrow_mut().sync_generation(fed.generation());
    }
    let mut sim = Simulation::with_network(params, fed.num_dbs(), NetworkModel::SharedBus);
    let answer = strategy.execute_with(fed, query, &mut sim, pipeline, cache)?;
    let metrics = sim.metrics();
    Ok((answer, metrics))
}

/// Scans `fed` into a fresh [`StatsCatalog`] stamped with the
/// federation's current mutation generation.
pub fn collect_catalog(fed: &Federation, params: SystemParams) -> StatsCatalog {
    StatsCatalog::collect(
        fed.dbs(),
        fed.global_schema(),
        fed.catalog(),
        fed.generation(),
        params,
    )
}

/// Re-scans a stale catalog in place, keeping its accumulated transport
/// and response-time observations. A no-op when the catalog already
/// matches [`Federation::generation`].
pub fn refresh_catalog(catalog: &mut StatsCatalog, fed: &Federation) {
    if catalog.is_stale(fed.generation()) {
        catalog.rescan(
            fed.dbs(),
            fed.global_schema(),
            fed.catalog(),
            fed.generation(),
        );
    }
}

/// What [`run_adaptive`] did: the ranked choice, the plan it executed,
/// and the execution's answer and measured metrics.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The query answer (identical to every fixed strategy's
    /// classification — planning never changes results).
    pub answer: QueryAnswer,
    /// Measured metrics of the executed plan.
    pub metrics: QueryMetrics,
    /// The full ranking the planner produced, cheapest first.
    pub choice: PlanChoice,
    /// The plan that actually ran (`choice.best().kind`).
    pub executed: PlanKind,
}

/// Translates the pipeline configuration into the cost model's tuning
/// knobs, reading expected cache warmth from the shared cache's observed
/// hit rate (a cold or absent cache prices as warmth 0).
pub fn plan_knobs(pipeline: PipelineConfig, cache: Option<&RefCell<LookupCache>>) -> PipelineKnobs {
    let warmth = match (pipeline.cache, cache) {
        (true, Some(cache)) => cache.borrow().stats().hit_rate(),
        _ => 0.0,
    };
    PipelineKnobs {
        threads: pipeline.threads.max(1) as f64,
        warmth,
        batch: pipeline.batch as f64,
    }
}

/// Prices CA, BL, PL, and the per-site hybrid for `query` against
/// `catalog` (re-scanned first if stale) under `pipeline`'s
/// [`plan_knobs`]. Every adaptive executor plans through this helper.
pub fn choose_plan(
    fed: &Federation,
    query: &BoundQuery,
    catalog: &mut StatsCatalog,
    pipeline: PipelineConfig,
    cache: Option<&RefCell<LookupCache>>,
) -> PlanChoice {
    refresh_catalog(catalog, fed);
    let knobs = plan_knobs(pipeline, cache);
    let fingerprint = query_fingerprint(query);
    choose(
        catalog,
        fed.global_schema(),
        query,
        &knobs,
        fingerprint,
        true,
    )
}

/// A reading of a simulation's ledger taken before a plan runs, so the
/// plan's feedback is this run's slice alone even when the simulation
/// is shared across runs.
#[derive(Debug, Clone, Copy)]
pub struct LedgerMark {
    response: SimTime,
    net: SimTime,
    bytes: u64,
}

impl LedgerMark {
    /// Reads the global clock, the network busy time, and the bytes
    /// transferred so far.
    pub fn take(sim: &Simulation) -> LedgerMark {
        LedgerMark {
            response: sim.now(Site::Global),
            net: sim.ledger().total_for_resource(Resource::Net),
            bytes: sim.metrics().bytes_transferred,
        }
    }

    /// Feeds what `sim` measured since the mark back into `catalog`: the
    /// response time for `(fingerprint, plan)`, and the link's observed
    /// price per byte.
    pub fn observe(
        self,
        catalog: &mut StatsCatalog,
        fingerprint: u64,
        plan: &str,
        sim: &Simulation,
    ) {
        let response = sim.now(Site::Global) - self.response;
        catalog.observe_response(fingerprint, plan, response.as_micros());
        let net_busy = sim.ledger().total_for_resource(Resource::Net) - self.net;
        let bytes = sim.metrics().bytes_transferred.saturating_sub(self.bytes);
        catalog.observe_net(bytes, net_busy.as_micros());
    }
}

/// The adaptive executor: plan → run → observe.
///
/// Prices CA, BL, PL, and the per-site hybrid against the statistics in
/// `catalog` (auto-refreshing it first if the federation has mutated
/// since the last scan), executes the cheapest blended plan through the
/// normal pipeline machinery, and folds the measured response time and
/// transport costs back into the catalog so the next run of the same
/// query ranks with real observations. Repeated workloads therefore
/// converge on the true winner even where the model misestimates.
///
/// # Errors
///
/// Propagates the executed strategy's [`ExecError`].
pub fn run_adaptive(
    fed: &Federation,
    query: &BoundQuery,
    catalog: &mut StatsCatalog,
    pipeline: PipelineConfig,
    cache: Option<&RefCell<LookupCache>>,
) -> Result<AdaptiveOutcome, ExecError> {
    let choice = choose_plan(fed, query, catalog, pipeline, cache);
    let best = choice.best();
    let executed = best.kind;
    let strategy: Box<dyn ExecutionStrategy> = match executed {
        PlanKind::Centralized => Box::new(Centralized),
        PlanKind::BasicLocalized => Box::new(BasicLocalized::new()),
        PlanKind::ParallelLocalized => Box::new(ParallelLocalized::new()),
        PlanKind::Hybrid => Box::new(HybridLocalized::new(
            best.modes.iter().filter(|m| m.parallel).map(|m| m.db),
        )),
    };
    if let Some(cache) = cache {
        cache.borrow_mut().sync_generation(fed.generation());
    }
    let params = *catalog.params();
    let mut sim = Simulation::with_network(params, fed.num_dbs(), NetworkModel::SharedBus);
    let mark = LedgerMark::take(&sim);
    let answer = strategy.execute_with(fed, query, &mut sim, pipeline, cache)?;
    mark.observe(catalog, choice.fingerprint, executed.label(), &sim);
    let metrics = sim.metrics();

    Ok(AdaptiveOutcome {
        answer,
        metrics,
        choice,
        executed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedoq_object::{DbId, Value};
    use fedoq_schema::Correspondences;
    use fedoq_store::{AttrType, ClassDef, ComponentDb, ComponentSchema};

    fn fed() -> Federation {
        let s0 = ComponentSchema::new(vec![ClassDef::new("Student")
            .attr("s-no", AttrType::int())
            .attr("age", AttrType::int())
            .key(["s-no"])])
        .unwrap();
        let s1 = ComponentSchema::new(vec![ClassDef::new("Student")
            .attr("s-no", AttrType::int())
            .key(["s-no"])])
        .unwrap();
        let mut db0 = ComponentDb::new(DbId::new(0), "DB0", s0);
        let mut db1 = ComponentDb::new(DbId::new(1), "DB1", s1);
        for i in 0..20 {
            db0.insert_named(
                "Student",
                &[("s-no", Value::Int(i)), ("age", Value::Int(20 + (i % 10)))],
            )
            .unwrap();
            db1.insert_named("Student", &[("s-no", Value::Int(i))])
                .unwrap();
        }
        Federation::new(vec![db0, db1], &Correspondences::new()).unwrap()
    }

    #[test]
    fn adaptive_matches_fixed_strategies_and_learns() {
        let f = fed();
        let query = f
            .parse_and_bind("SELECT X.s-no FROM Student X WHERE X.age >= 25")
            .unwrap();
        let mut catalog = collect_catalog(&f, SystemParams::paper_default());
        let first =
            run_adaptive(&f, &query, &mut catalog, PipelineConfig::sequential(), None).unwrap();
        // The adaptive answer classifies like every fixed strategy's.
        let (bl, _) = run_strategy(
            &BasicLocalized::new(),
            &f,
            &query,
            SystemParams::paper_default(),
        )
        .unwrap();
        assert!(first.answer.same_classification(&bl));
        assert_eq!(first.executed, first.choice.best().kind);
        // The run fed an observation back for the executed plan.
        assert_eq!(catalog.observed_len(), 1);
        let second =
            run_adaptive(&f, &query, &mut catalog, PipelineConfig::sequential(), None).unwrap();
        let again = second
            .choice
            .plan(second.executed)
            .or_else(|| Some(second.choice.best()))
            .unwrap();
        assert!(again.observed_us.is_some() || second.executed != first.executed);
    }

    #[test]
    fn adaptive_refreshes_a_stale_catalog() {
        let mut f = fed();
        let query = f
            .parse_and_bind("SELECT X.s-no FROM Student X WHERE X.age >= 25")
            .unwrap();
        let mut catalog = collect_catalog(&f, SystemParams::paper_default());
        f.mutate(DbId::new(0), |db| {
            db.insert_named(
                "Student",
                &[("s-no", Value::Int(99)), ("age", Value::Int(40))],
            )
            .map(|_| ())
        })
        .unwrap();
        assert!(catalog.is_stale(f.generation()));
        run_adaptive(&f, &query, &mut catalog, PipelineConfig::sequential(), None).unwrap();
        assert!(!catalog.is_stale(f.generation()));
    }
}
