//! FedOQ distributed runtime: every component database as a site actor.
//!
//! The in-process strategies in `fedoq-core` execute a query as one
//! straight-line program narrating its messaging to a cost model. This
//! crate runs the *same computation* the way the paper describes the
//! system — as independent sites exchanging typed messages:
//!
//! * [`rt`] — a deterministic single-threaded async executor with a
//!   virtual clock: tasks interleave in FIFO order and time jumps to the
//!   next timer, so a run is a pure function of its inputs and seed;
//! * [`msg`] — the typed site protocol (`LocalEval`, `AssistantLookup`,
//!   `BatchAssistantLookup`, `ShipObjects`) with per-message wire sizes;
//! * [`plan`] — [`Plan`], what one execution runs: CA, or BL/PL/HY as
//!   per-site localized modes;
//! * [`transport`] — message fate: [`transport::LocalTransport`] delivers
//!   instantly, [`transport::SimTransport`] adds per-link latency and
//!   seeded fault injection (drops, site crashes, partitions, heals)
//!   while charging every delivery to the `fedoq-sim` ledger;
//! * [`router`] — mailboxes and RPC correlation on top of a transport;
//! * [`rpc`] — per-request timeouts and bounded exponential-backoff
//!   retry;
//! * [`actor`] — the site event loop and the global site's
//!   [`actor::execute_plan`], built from [`fedoq_core::handlers`];
//! * [`exec`] — [`DistributedExecutor`], the one-call entry point.
//!
//! Under a healthy network the distributed answers are bit-identical to
//! the sync strategies (`tests/distributed_differential.rs`). Under
//! faults, localized strategies degrade gracefully: unreachable
//! assistants leave affected rows as *maybe* results tagged
//! [`fedoq_core::Provenance::Degraded`], while CA — which cannot start
//! without every extent — fails with
//! [`fedoq_core::ExecError::Unreachable`].
//!
//! # Example
//!
//! ```
//! use fedoq_core::Federation;
//! use fedoq_net::{DistributedExecutor, DistributedStrategy};
//! use fedoq_object::{DbId, Value};
//! use fedoq_schema::Correspondences;
//! use fedoq_store::{AttrType, ClassDef, ComponentDb, ComponentSchema};
//!
//! let s0 = ComponentSchema::new(vec![ClassDef::new("Student")
//!     .attr("s-no", AttrType::int()).attr("age", AttrType::int()).key(["s-no"])])?;
//! let s1 = ComponentSchema::new(vec![ClassDef::new("Student")
//!     .attr("s-no", AttrType::int()).key(["s-no"])])?;
//! let mut db0 = ComponentDb::new(DbId::new(0), "DB0", s0);
//! let mut db1 = ComponentDb::new(DbId::new(1), "DB1", s1);
//! db0.insert_named("Student", &[("s-no", Value::Int(1)), ("age", Value::Int(31))])?;
//! db1.insert_named("Student", &[("s-no", Value::Int(1))])?;
//! db1.insert_named("Student", &[("s-no", Value::Int(2))])?;
//!
//! let fed = Federation::new(vec![db0, db1], &Correspondences::new())?;
//! let query = fed.parse_and_bind("SELECT X.s-no FROM Student X WHERE X.age >= 30")?;
//! let outcome = DistributedExecutor::new()
//!     .run_local(&fed, &query, DistributedStrategy::bl())?;
//! assert_eq!(outcome.answer.certain().len(), 1);
//! assert_eq!(outcome.answer.maybe().len(), 1);
//! assert!(outcome.degraded_sites.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Library code must surface errors as values, never panic on them:
// test modules, which may unwrap freely, are exempt via cfg_attr.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod actor;
pub mod exec;
pub mod msg;
pub mod plan;
pub mod router;
pub mod rpc;
pub mod rt;
pub mod transport;

pub use exec::{
    AdaptiveDistributedOutcome, DistributedExecutor, DistributedOutcome, DistributedStrategy,
};
pub use plan::{Plan, SiteModes};
pub use rpc::{RpcConfig, RpcError};
pub use rt::{IdleStep, Runtime};
pub use transport::{FaultEvent, LocalTransport, SimTransport, Transport};
