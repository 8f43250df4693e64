//! [`Plan`]: what one distributed execution runs.
//!
//! Every executor of the distributed runtime — [`crate::DistributedExecutor`],
//! the `fedoq-serve` frontend, the concurrent scheduler, and the protocol
//! checker — runs a `Plan`. A fixed strategy converts into one
//! ([`From<DistributedStrategy>`]); the cost-based planner's pick converts
//! through [`From<&RankedPlan>`], the one place a planner shape becomes an
//! execution.

use crate::exec::DistributedStrategy;
use fedoq_core::handlers::LocalizedConfig;
use fedoq_object::DbId;
use fedoq_plan::{PlanKind, RankedPlan};

/// Which localized schedule each hosting site runs.
///
/// The paper's BL and PL give every site the same schedule; the per-site
/// hybrid (`HY`) lets the planner assign each site its own. Execution is
/// the same fan-out either way — the modes only set each site's
/// `LocalEval` `parallel` flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteModes {
    /// Every hosting site runs BL's schedule.
    Basic,
    /// Every hosting site runs PL's static-prefetch schedule.
    Parallel,
    /// The listed sites run PL's schedule; every other hosting site BL's.
    Hybrid(Vec<DbId>),
}

impl SiteModes {
    /// Does `db` run PL's static-prefetch schedule?
    pub fn parallel_at(&self, db: DbId) -> bool {
        match self {
            SiteModes::Basic => false,
            SiteModes::Parallel => true,
            SiteModes::Hybrid(sites) => sites.contains(&db),
        }
    }
}

/// One distributed execution plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// CA: ship every involved extent, evaluate at the global site.
    Central,
    /// BL/PL/HY: every hosting site evaluates locally under its mode,
    /// and the global site certifies the merged replies.
    Localized {
        /// Each hosting site's schedule.
        modes: SiteModes,
        /// Signature pruning / target completion options.
        config: LocalizedConfig,
    },
}

impl Plan {
    /// The executed-plan label (`CA`/`BL`/`PL`/`BL-S`/`PL-S`/`HY`), also
    /// the key response-time feedback is recorded under.
    pub fn label(&self) -> &'static str {
        match self {
            Plan::Central => "CA",
            Plan::Localized { modes, config } => match modes {
                SiteModes::Basic if config.use_signatures => "BL-S",
                SiteModes::Basic => "BL",
                SiteModes::Parallel if config.use_signatures => "PL-S",
                SiteModes::Parallel => "PL",
                SiteModes::Hybrid(_) => "HY",
            },
        }
    }
}

impl From<DistributedStrategy> for Plan {
    fn from(strategy: DistributedStrategy) -> Plan {
        let (modes, config) = match strategy {
            DistributedStrategy::Centralized => return Plan::Central,
            DistributedStrategy::BasicLocalized(config) => (SiteModes::Basic, config),
            DistributedStrategy::ParallelLocalized(config) => (SiteModes::Parallel, config),
        };
        Plan::Localized { modes, config }
    }
}

impl From<&RankedPlan> for Plan {
    fn from(ranked: &RankedPlan) -> Plan {
        let modes = match ranked.kind {
            PlanKind::Centralized => return Plan::Central,
            PlanKind::BasicLocalized => SiteModes::Basic,
            PlanKind::ParallelLocalized => SiteModes::Parallel,
            PlanKind::Hybrid => SiteModes::Hybrid(
                ranked
                    .modes
                    .iter()
                    .filter(|m| m.parallel)
                    .map(|m| m.db)
                    .collect(),
            ),
        };
        Plan::Localized {
            modes,
            config: LocalizedConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedoq_core::{choose_plan, collect_catalog, PipelineConfig};
    use fedoq_plan::SiteMode;
    use fedoq_sim::SystemParams;
    use fedoq_workload::university;

    #[test]
    fn planner_shapes_map_to_plans_with_their_labels() {
        let fed = university::federation().unwrap();
        let query = fed.parse_and_bind(university::Q1).unwrap();
        let mut catalog = collect_catalog(&fed, SystemParams::paper_default());
        let choice = choose_plan(&fed, &query, &mut catalog, PipelineConfig::default(), None);
        for kind in PlanKind::ALL {
            let ranked = choice.plan(kind).unwrap();
            let plan = Plan::from(ranked);
            assert_eq!(plan.label(), kind.label());
            let Plan::Localized { modes, config } = plan else {
                assert_eq!(kind, PlanKind::Centralized);
                continue;
            };
            assert_eq!(config, LocalizedConfig::default());
            for db in fed.dbs() {
                let db = db.id();
                let expected = match kind {
                    PlanKind::BasicLocalized => false,
                    PlanKind::ParallelLocalized => true,
                    _ => ranked.modes.iter().any(|m| m.db == db && m.parallel),
                };
                assert_eq!(modes.parallel_at(db), expected, "{kind} at {db}");
            }
        }

        // A hybrid's parallel sites are exactly its ranked modes' parallel
        // sites, in order.
        let hybrid = RankedPlan {
            modes: vec![
                SiteMode {
                    db: DbId::new(0),
                    parallel: true,
                },
                SiteMode {
                    db: DbId::new(1),
                    parallel: false,
                },
                SiteMode {
                    db: DbId::new(2),
                    parallel: true,
                },
            ],
            ..choice.plan(PlanKind::Hybrid).unwrap().clone()
        };
        assert_eq!(
            Plan::from(&hybrid),
            Plan::Localized {
                modes: SiteModes::Hybrid(vec![DbId::new(0), DbId::new(2)]),
                config: LocalizedConfig::default(),
            }
        );
    }

    #[test]
    fn fixed_strategies_keep_their_options_and_names() {
        for strategy in [
            DistributedStrategy::ca(),
            DistributedStrategy::bl(),
            DistributedStrategy::pl(),
            DistributedStrategy::bl().with_signatures(),
            DistributedStrategy::pl().with_signatures(),
        ] {
            let plan = Plan::from(strategy);
            assert_eq!(plan.label(), strategy.name());
            match (strategy, plan) {
                (DistributedStrategy::Centralized, Plan::Central) => {}
                (DistributedStrategy::BasicLocalized(c), Plan::Localized { modes, config }) => {
                    assert_eq!((modes, config), (SiteModes::Basic, c));
                }
                (DistributedStrategy::ParallelLocalized(c), Plan::Localized { modes, config }) => {
                    assert_eq!((modes, config), (SiteModes::Parallel, c));
                }
                (s, p) => panic!("{s:?} became {p:?}"),
            }
        }
        let targets = LocalizedConfig {
            use_signatures: true,
            complete_targets: true,
        };
        assert_eq!(
            Plan::from(DistributedStrategy::BasicLocalized(targets)),
            Plan::Localized {
                modes: SiteModes::Basic,
                config: targets,
            }
        );
    }
}
