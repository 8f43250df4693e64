//! # fedoq-sched — the concurrent multi-query scheduler
//!
//! Everything below `fedoq-sched` executes *one* query at a time: the
//! distributed executor spins up actors, certifies one answer, and
//! tears the world down. A federation serving real clients runs
//! *hundreds* of queries at once, all contending for the same site
//! actors, lookup cache, and wire. This crate adds that layer:
//!
//! * **Admission control** ([`Admission`]) — at most `max_inflight`
//!   queries execute concurrently; waiters are served strictly by
//!   priority, FIFO within a priority, and can give up when their
//!   deadline passes.
//! * **Deficit-round-robin dispatch** ([`DrrGate`]) — site RPCs from
//!   all in-flight queries share `rpc_slots` wire slots; DRR lanes
//!   weight by priority without starving anyone.
//! * **Deadlines and priorities** ([`QuerySpec`]) — admission and
//!   execution both race each query's deadline; an expired query is
//!   cancelled without orphaning its in-flight RPCs.
//! * **Mid-flight hybrid replanning** ([`Scheduler`]) — adaptive
//!   queries start on the cost-based planner's pick (CA/BL/PL/HY); a
//!   straggler monitor feeds observed dispatch latencies back into the
//!   statistics catalog *during* execution and re-dispatches re-priced
//!   unfinished sites, never re-doing or re-certifying completed work
//!   (the orchestrator's [`fedoq_core::LocalizedMerge`] accumulator
//!   accepts one merge per site, structurally).
//! * **A deterministic simulation harness** ([`SchedSim`]) — the real
//!   scheduler and real site actors over a seeded fault-injecting
//!   transport with a recorded wire log; any failure reproduces from
//!   its printed `u64` seed.
//!
//! The answers are the paper's: certification, graceful degradation,
//! and the CA/BL/PL/HY strategy surface are untouched — this crate only
//! decides *when* each piece of work runs. It sends no query traffic of
//! its own: every admitted query runs through
//! [`fedoq_net::actor::execute_plan`], the orchestrator every executor
//! shares, and the scheduler's gate, cancellation, trace and straggler
//! probe wrap its dispatches as a [`fedoq_net::actor::DispatchHook`].

pub mod gate;
pub mod sched;
pub mod sim;
pub mod trace;

pub use gate::{Admission, AdmitPermit, DrrGate, GatePermit};
pub use sched::{
    QueryOutcome, QuerySpec, QueryVerdict, SchedConfig, SchedOutcome, SchedStrategy, Scheduler,
};
pub use sim::{mixed_specs, FaultScript, RecordingTransport, SchedRun, SchedSim, WireEvent};
pub use trace::{DispatchTrace, ReplanEvent, TraceEvent};

// Re-export the strategy surface so scheduler consumers don't need a
// direct fedoq-net dependency for the common types.
pub use fedoq_net::{DistributedStrategy, RpcConfig};
