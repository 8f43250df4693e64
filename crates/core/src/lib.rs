//! FedOQ core: query execution strategies for missing data in distributed
//! heterogeneous object databases.
//!
//! This crate implements the contribution of Koh & Chen (ICDCS 1996): three
//! strategies for answering global conjunctive queries whose predicates
//! touch *missing data* (missing attributes and null values), returning
//! **certain** results alongside **maybe** results, and using *object
//! isomerism* to certify local maybe results into certain ones:
//!
//! * [`Centralized`] (**CA**, phase order O → I → P) ships every involved
//!   object to the global site, outerjoins constituent classes over GOids,
//!   and evaluates predicates on the materialized global classes;
//! * [`BasicLocalized`] (**BL**, P → O → I) evaluates local predicates at
//!   each site first, looks up assistant objects only for the surviving
//!   maybe results, and certifies at the global site;
//! * [`ParallelLocalized`] (**PL**, O → P → I) issues assistant checks for
//!   all candidate objects *before* local evaluation so remote checking
//!   overlaps local work.
//!
//! Both localized strategies optionally use replicated **object
//! signatures** to prune assistant checks without changing answers (the
//! paper's proposed extension).
//!
//! All strategies execute for real over a [`Federation`] of in-memory
//! component databases while narrating their work to a
//! [`fedoq_sim::Simulation`], which produces the paper's two measures:
//! total execution time and response time.
//!
//! # Example
//!
//! ```
//! use fedoq_core::{Centralized, ExecutionStrategy, Federation};
//! use fedoq_object::{DbId, Value};
//! use fedoq_schema::Correspondences;
//! use fedoq_sim::{Simulation, SystemParams};
//! use fedoq_store::{AttrType, ClassDef, ComponentDb, ComponentSchema};
//!
//! // Two one-class databases; `age` exists only in DB0.
//! let s0 = ComponentSchema::new(vec![ClassDef::new("Student")
//!     .attr("s-no", AttrType::int()).attr("age", AttrType::int()).key(["s-no"])])?;
//! let s1 = ComponentSchema::new(vec![ClassDef::new("Student")
//!     .attr("s-no", AttrType::int()).key(["s-no"])])?;
//! let mut db0 = ComponentDb::new(DbId::new(0), "DB0", s0);
//! let mut db1 = ComponentDb::new(DbId::new(1), "DB1", s1);
//! db0.insert_named("Student", &[("s-no", Value::Int(1)), ("age", Value::Int(31))])?;
//! db1.insert_named("Student", &[("s-no", Value::Int(1))])?; // isomeric copy
//! db1.insert_named("Student", &[("s-no", Value::Int(2))])?; // age unknown anywhere
//!
//! let fed = Federation::new(vec![db0, db1], &Correspondences::new())?;
//! let query = fed.parse_and_bind("SELECT X.s-no FROM Student X WHERE X.age >= 30")?;
//! let mut sim = Simulation::new(SystemParams::paper_default(), fed.num_dbs());
//! let answer = Centralized.execute(&fed, &query, &mut sim)?;
//! assert_eq!(answer.certain().len(), 1); // student 1: age 31 via its isomeric copy
//! assert_eq!(answer.maybe().len(), 1);   // student 2: age missing everywhere
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Library code must surface errors as values, never panic on them:
// test modules, which may unwrap freely, are exempt via cfg_attr.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cache;
pub mod centralized;
pub mod certify;
pub mod condition;
pub mod disjunctive;
pub mod error;
pub mod explain;
pub mod federation;
pub mod handlers;
pub mod localized;
pub mod materialize;
pub mod merge;
pub mod oracle;
pub mod pipeline;
pub mod result;
pub mod strategy;

pub use cache::{query_fingerprint, CacheStats, LookupCache};
pub use centralized::Centralized;
pub use condition::{annotate_conditions, Condition, ConditionAtom, ConditionedAnswer, Missing};
pub use disjunctive::run_disjunctive;
pub use error::ExecError;
pub use explain::{explain, explain_with_pipeline};
pub use federation::{ChangeCursor, ChangeRecord, Federation};
pub use localized::{BasicLocalized, HybridLocalized, ParallelLocalized};
pub use merge::LocalizedMerge;
pub use oracle::{oracle_answer, oracle_disjunctive};
pub use pipeline::PipelineConfig;
pub use result::{MaybeRow, Provenance, QueryAnswer, ResultRow};
pub use strategy::{
    choose_plan, collect_catalog, plan_knobs, refresh_catalog, run_adaptive, run_strategy,
    run_strategy_with_network, run_strategy_with_pipeline, AdaptiveOutcome, ExecutionStrategy,
    LedgerMark,
};
