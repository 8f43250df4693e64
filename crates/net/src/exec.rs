//! The distributed executor: strategies over the actor runtime.
//!
//! [`DistributedExecutor::run`] spins up one actor per component site on
//! the deterministic runtime, runs the global site's orchestration of a
//! [`Plan`] as the runtime's main task, and drives the virtual clock
//! until the answer is certified. The result carries the answer together
//! with the degradation and cost diagnostics of the run.

use crate::actor::{execute_plan, run_site, Ctx};
use crate::plan::Plan;
use crate::router::Net;
use crate::rpc::RpcConfig;
use crate::rt::Runtime;
use crate::transport::{LocalTransport, Transport};
use fedoq_core::handlers::LocalizedConfig;
use fedoq_core::{
    choose_plan, BasicLocalized, CacheStats, Centralized, ExecError, ExecutionStrategy, Federation,
    LedgerMark, LookupCache, ParallelLocalized, PipelineConfig, QueryAnswer,
};
use fedoq_object::DbId;
use fedoq_plan::{PlanChoice, PlanKind, StatsCatalog};
use fedoq_query::BoundQuery;
use fedoq_sim::{QueryMetrics, Simulation, SystemParams};
use std::cell::RefCell;
use std::rc::Rc;

/// A strategy choice for the distributed runtime, mirroring the three
/// in-process strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributedStrategy {
    /// CA: ship everything, evaluate at the global site.
    Centralized,
    /// BL: local evaluation first, assistant lookup for survivors.
    BasicLocalized(LocalizedConfig),
    /// PL: static assistant lookup overlapping local evaluation.
    ParallelLocalized(LocalizedConfig),
}

impl DistributedStrategy {
    /// CA.
    pub fn ca() -> DistributedStrategy {
        DistributedStrategy::Centralized
    }

    /// BL without signature pruning.
    pub fn bl() -> DistributedStrategy {
        DistributedStrategy::BasicLocalized(LocalizedConfig::default())
    }

    /// PL without signature pruning.
    pub fn pl() -> DistributedStrategy {
        DistributedStrategy::ParallelLocalized(LocalizedConfig::default())
    }

    /// The same strategy with signature pruning enabled (no-op for CA).
    pub fn with_signatures(self) -> DistributedStrategy {
        match self {
            DistributedStrategy::Centralized => self,
            DistributedStrategy::BasicLocalized(mut c) => {
                c.use_signatures = true;
                DistributedStrategy::BasicLocalized(c)
            }
            DistributedStrategy::ParallelLocalized(mut c) => {
                c.use_signatures = true;
                DistributedStrategy::ParallelLocalized(c)
            }
        }
    }

    /// The paper's name for the strategy (`-S` marks signature pruning).
    pub fn name(&self) -> &'static str {
        match self {
            DistributedStrategy::Centralized => "CA",
            DistributedStrategy::BasicLocalized(c) if c.use_signatures => "BL-S",
            DistributedStrategy::BasicLocalized(_) => "BL",
            DistributedStrategy::ParallelLocalized(c) if c.use_signatures => "PL-S",
            DistributedStrategy::ParallelLocalized(_) => "PL",
        }
    }

    /// Parses a strategy name (`ca`, `bl`, `pl`, `bl-s`, `pl-s`).
    pub fn parse(name: &str) -> Option<DistributedStrategy> {
        match name.to_ascii_lowercase().as_str() {
            "ca" => Some(DistributedStrategy::ca()),
            "bl" => Some(DistributedStrategy::bl()),
            "pl" => Some(DistributedStrategy::pl()),
            "bl-s" => Some(DistributedStrategy::bl().with_signatures()),
            "pl-s" => Some(DistributedStrategy::pl().with_signatures()),
            _ => None,
        }
    }

    /// The equivalent in-process strategy (for differential testing).
    pub fn sync(&self) -> Box<dyn ExecutionStrategy> {
        match self {
            DistributedStrategy::Centralized => Box::new(Centralized),
            DistributedStrategy::BasicLocalized(c) => Box::new(BasicLocalized {
                use_signatures: c.use_signatures,
                complete_targets: c.complete_targets,
            }),
            DistributedStrategy::ParallelLocalized(c) => Box::new(ParallelLocalized {
                use_signatures: c.use_signatures,
                complete_targets: c.complete_targets,
            }),
        }
    }
}

/// Everything one distributed execution produced.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The certified answer.
    pub answer: QueryAnswer,
    /// Sites that stayed unreachable past the retry budget.
    pub degraded_sites: Vec<DbId>,
    /// Total RPC retries performed.
    pub retries: u64,
    /// Messages the transport delivered.
    pub delivered: u64,
    /// Messages the transport dropped (faults).
    pub dropped: u64,
    /// Cost-model metrics accumulated in the shared simulation.
    pub metrics: QueryMetrics,
    /// Virtual time the runtime advanced (µs); includes network latency
    /// and retry backoffs, unlike the cost-model clocks.
    pub virtual_us: f64,
}

impl DistributedOutcome {
    /// `true` iff any maybe row was tagged degraded or a site was lost.
    pub fn is_degraded(&self) -> bool {
        !self.degraded_sites.is_empty() || self.answer.is_degraded()
    }
}

/// What [`DistributedExecutor::run_adaptive`] did: the planner's ranking
/// plus the executed run's outcome.
#[derive(Debug, Clone)]
pub struct AdaptiveDistributedOutcome {
    /// The executed run's answer and diagnostics.
    pub outcome: DistributedOutcome,
    /// The full ranking the planner produced (CA/BL/PL/HY).
    pub choice: PlanChoice,
    /// The plan that actually ran (`choice.best().kind`).
    pub executed: PlanKind,
}

/// Runs distributed queries over a transport.
///
/// The executor owns a [`PipelineConfig`] (parallel scans, probe
/// batching, lookup caching) and a persistent [`LookupCache`] that
/// survives across `run` calls — run the same query twice with the cache
/// enabled and the second run answers warm probes without touching the
/// wire. Clones share the cache. The cache is generation-synced against
/// the federation on every run, so store mutations invalidate it.
#[derive(Debug, Clone, Default)]
pub struct DistributedExecutor {
    rpc: RpcConfig,
    pipeline: PipelineConfig,
    cache: Rc<RefCell<LookupCache>>,
}

impl DistributedExecutor {
    /// An executor with the default RPC policy and a sequential,
    /// unbatched, uncached pipeline (the legacy wire behavior).
    pub fn new() -> DistributedExecutor {
        DistributedExecutor::default()
    }

    /// Overrides the RPC timeout/retry policy.
    pub fn with_rpc(mut self, rpc: RpcConfig) -> DistributedExecutor {
        self.rpc = rpc;
        self
    }

    /// The RPC policy in force.
    pub fn rpc(&self) -> RpcConfig {
        self.rpc
    }

    /// Overrides the pipeline (parallelism, batch size, caching).
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> DistributedExecutor {
        self.pipeline = pipeline;
        self
    }

    /// The pipeline configuration in force.
    pub fn pipeline(&self) -> PipelineConfig {
        self.pipeline
    }

    /// Hit/miss/eviction counters of the persistent lookup cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.borrow().stats()
    }

    /// Entries currently held by the persistent lookup cache.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Drops every cache entry and resets the counters.
    pub fn reset_cache(&self) {
        self.cache.borrow_mut().reset();
    }

    /// Executes `query` under `plan` (a [`Plan`], or a
    /// [`DistributedStrategy`]) over `transport`, charging `sim`'s ledger
    /// for every disk/CPU/network action.
    ///
    /// # Errors
    ///
    /// CA's [`ExecError::Unreachable`] when a site's extent cannot be
    /// shipped, and [`ExecError::Internal`] when the runtime deadlocks.
    pub fn run(
        &self,
        fed: &Federation,
        query: &BoundQuery,
        plan: impl Into<Plan>,
        transport: Rc<RefCell<dyn Transport>>,
        sim: Rc<RefCell<Simulation>>,
    ) -> Result<DistributedOutcome, ExecError> {
        let plan = plan.into();
        // A store mutation since the last run flushes the cache.
        self.cache.borrow_mut().sync_generation(fed.generation());
        let rt = Runtime::new();
        let ctx = Ctx {
            fed,
            query,
            net: Net::new(rt.handle(), Rc::clone(&transport), fed.num_dbs()),
            sim: Rc::clone(&sim),
            rpc: self.rpc,
            pipeline: self.pipeline,
            cache: self.pipeline.cache.then(|| Rc::clone(&self.cache)),
        };
        for db in fed.dbs() {
            rt.handle().spawn(run_site(ctx.clone(), db.id()));
        }
        let reply = rt
            .run(async move { execute_plan(&ctx, &plan).await })
            .map_err(|deadlock| ExecError::Internal(deadlock.to_string()))?;
        let (delivered, dropped) = transport.borrow().stats();
        Ok(DistributedOutcome {
            answer: reply.answer?,
            degraded_sites: reply.degraded_sites,
            retries: reply.retries,
            delivered,
            dropped,
            metrics: sim.borrow().metrics(),
            virtual_us: rt.handle().now_us(),
        })
    }

    /// The adaptive distributed executor: prices CA/BL/PL/HY against the
    /// statistics catalog, runs the cheapest over `transport`, and feeds
    /// the measured response time and transport cost back into the
    /// catalog.
    ///
    /// A winning hybrid executes for real: each hosting site runs its own
    /// BL or PL schedule from one non-uniform fan-out. A stale catalog
    /// (the federation mutated since the last scan) is re-scanned first,
    /// keeping its accumulated observations. `sim` may be shared across
    /// runs: the feedback is this run's slice of its ledger only.
    ///
    /// # Errors
    ///
    /// As for [`run`](DistributedExecutor::run).
    pub fn run_adaptive(
        &self,
        fed: &Federation,
        query: &BoundQuery,
        catalog: &mut StatsCatalog,
        transport: Rc<RefCell<dyn Transport>>,
        sim: Rc<RefCell<Simulation>>,
    ) -> Result<AdaptiveDistributedOutcome, ExecError> {
        let choice = choose_plan(fed, query, catalog, self.pipeline, Some(&self.cache));
        let plan = Plan::from(choice.best());
        let mark = LedgerMark::take(&sim.borrow());
        let label = plan.label();
        let outcome = self.run(fed, query, plan, transport, Rc::clone(&sim))?;
        mark.observe(catalog, choice.fingerprint, label, &sim.borrow());
        Ok(AdaptiveDistributedOutcome {
            outcome,
            executed: choice.best().kind,
            choice,
        })
    }

    /// Convenience: runs over the in-process [`LocalTransport`] with a
    /// fresh paper-default simulation.
    pub fn run_local(
        &self,
        fed: &Federation,
        query: &BoundQuery,
        strategy: DistributedStrategy,
    ) -> Result<DistributedOutcome, ExecError> {
        let sim = Rc::new(RefCell::new(Simulation::new(
            SystemParams::paper_default(),
            fed.num_dbs(),
        )));
        let transport: Rc<RefCell<dyn Transport>> = Rc::new(RefCell::new(LocalTransport::new()));
        self.run(fed, query, strategy, transport, sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SiteModes;
    use fedoq_core::collect_catalog;
    use fedoq_workload::university;

    fn fresh_sim(fed: &Federation) -> Rc<RefCell<Simulation>> {
        Rc::new(RefCell::new(Simulation::new(
            SystemParams::paper_default(),
            fed.num_dbs(),
        )))
    }

    fn local() -> Rc<RefCell<dyn Transport>> {
        Rc::new(RefCell::new(LocalTransport::new()))
    }

    #[test]
    fn adaptive_distributed_run_plans_executes_and_learns() {
        let fed = university::federation().unwrap();
        let query = fed.parse_and_bind(university::Q1).unwrap();
        let mut catalog = collect_catalog(&fed, SystemParams::paper_default());
        let exec = DistributedExecutor::new();
        let run = |catalog: &mut StatsCatalog| {
            let sim = Rc::new(RefCell::new(Simulation::new(
                SystemParams::paper_default(),
                fed.num_dbs(),
            )));
            let transport: Rc<RefCell<dyn Transport>> =
                Rc::new(RefCell::new(LocalTransport::new()));
            exec.run_adaptive(&fed, &query, catalog, transport, sim)
                .unwrap()
        };
        let first = run(&mut catalog);
        // The hybrid is priced alongside the uniform strategies.
        assert_eq!(first.choice.ranked.len(), 4);
        assert!(first.choice.plan(PlanKind::Hybrid).is_some());
        assert_eq!(first.executed, first.choice.best().kind);
        // The answer classifies like the fixed strategy's own run.
        let fixed = exec
            .run_local(&fed, &query, DistributedStrategy::bl())
            .unwrap();
        assert!(first.outcome.answer.same_classification(&fixed.answer));
        // Feedback landed: the second run scores with an observation.
        assert_eq!(catalog.observed_len(), 1);
        let second = run(&mut catalog);
        let seen = second.choice.plan(first.executed).unwrap();
        assert!(seen.observed_us.is_some());
        assert!(seen.confidence > 0.0);
    }

    #[test]
    fn hybrid_certify_executes_non_uniform_site_schedules() {
        let fed = university::federation().unwrap();
        let query = fed.parse_and_bind(university::Q1).unwrap();
        let exec = DistributedExecutor::new();
        // Site 1 runs PL's schedule, everyone else BL's; the answer must
        // classify like a uniform run (the strategies' shared invariant).
        let plan = Plan::Localized {
            modes: SiteModes::Hybrid(vec![DbId::new(1)]),
            config: LocalizedConfig::default(),
        };
        let hybrid = exec
            .run(&fed, &query, plan, local(), fresh_sim(&fed))
            .unwrap();
        let uniform = exec
            .run_local(&fed, &query, DistributedStrategy::bl())
            .unwrap();
        assert!(hybrid.answer.same_classification(&uniform.answer));
        assert_eq!(
            format!("{}", hybrid.answer),
            format!("{}", uniform.answer),
            "hybrid row order and provenance must match the uniform run"
        );
    }

    #[test]
    fn adaptive_feedback_on_a_shared_sim_is_this_runs_slice() {
        let fed = university::federation().unwrap();
        let query = fed.parse_and_bind(university::Q1).unwrap();
        let exec = DistributedExecutor::new();
        let shared = fresh_sim(&fed);
        let mut warmup = collect_catalog(&fed, SystemParams::paper_default());
        exec.run_adaptive(&fed, &query, &mut warmup, local(), Rc::clone(&shared))
            .unwrap();
        assert!(shared.borrow().metrics().response_us > 0.0);

        // The second run on the same sim, observed by a fresh catalog.
        let mut catalog = collect_catalog(&fed, SystemParams::paper_default());
        let second = exec
            .run_adaptive(&fed, &query, &mut catalog, local(), shared)
            .unwrap();
        let (observed, _) = catalog
            .observed_response(second.choice.fingerprint, second.executed.label())
            .unwrap();
        let alone = exec
            .run(
                &fed,
                &query,
                Plan::from(second.choice.best()),
                local(),
                fresh_sim(&fed),
            )
            .unwrap();
        assert_eq!(observed, alone.metrics.response_us);
    }
}
