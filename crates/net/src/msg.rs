//! Typed messages exchanged by the site actors.
//!
//! Every message travels inside an [`Envelope`] carrying its routing
//! information, its simulated wire size, and the execution phase its
//! transfer is charged to. As in the paper, messages flow only between
//! the global site and the component sites, and between component
//! sites. Three request kinds cover the paper's three strategies:
//!
//! * [`Request::LocalEval`] — global → component site: evaluate your local
//!   query (BL/PL); the response carries the site's local rows plus the
//!   assistant verdicts it gathered from its peers;
//! * [`Request::AssistantLookup`] — site → site: check these assistant
//!   objects against their unsolved predicates (and fetch target values);
//! * [`Request::ShipObjects`] — global → component site: ship your
//!   projected extents (CA).
//!
//! A fourth supports the batched pipeline ([`fedoq_core::PipelineConfig`]):
//! [`Request::BatchAssistantLookup`] — site → site: an assistant-lookup
//! *fragment* coalescing up to K GOid probes into one round-trip. Unlike
//! the legacy all-probes-in-one `AssistantLookup`, a failed fragment is
//! split in half and each half retried on a fresh correlation id, so a
//! transient drop costs one fragment rather than the whole wave.
//!
//! The global site's own work is no message: callers run a query by
//! awaiting [`crate::actor::execute_plan`].

use fedoq_core::handlers::{CheckRequest, CheckVerdict, LocalRow, TargetRequest};
use fedoq_object::{DbId, LOid, Value};
use fedoq_query::PredId;
use fedoq_sim::{Phase, Site};

/// A routed message: request or response.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending site.
    pub from: Site,
    /// Receiving site.
    pub to: Site,
    /// RPC correlation id: responses carry their request's id.
    pub rpc: u64,
    /// Simulated wire size (fed into the `fedoq-sim` ledger).
    pub bytes: u64,
    /// Execution phase the transfer is charged to.
    pub phase: Phase,
    /// The message itself.
    pub payload: Payload,
}

/// Either half of an RPC.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A request, delivered to the receiving actor's mailbox.
    Request(Request),
    /// A response, delivered to the caller's pending-RPC table.
    Response(Response),
}

impl Payload {
    /// The message's short wire tag, and whether it is a response.
    pub fn kind(&self) -> (&'static str, bool) {
        match self {
            Payload::Request(request) => (request.kind(), false),
            Payload::Response(response) => (response.kind(), true),
        }
    }
}

/// A request served by a site actor.
#[derive(Debug, Clone)]
pub enum Request {
    /// Evaluate the local query at a component site (BL/PL).
    LocalEval {
        /// `true` for PL (static assistant lookup before evaluation).
        parallel: bool,
        /// Signature pruning / target completion options.
        use_signatures: bool,
        /// Fetch locally-unprojectable target values from assistants.
        complete_targets: bool,
    },
    /// Check assistant objects against unsolved predicates.
    AssistantLookup {
        /// Predicate checks to answer.
        checks: Vec<CheckRequest>,
        /// Target-value fetches to answer.
        targets: Vec<TargetRequest>,
    },
    /// Ship the projected extents to the global site (CA).
    ShipObjects,
    /// One fragment of a batched assistant lookup: at most K coalesced
    /// probes (checks plus targets), retried by splitting on failure.
    BatchAssistantLookup {
        /// Predicate checks coalesced into this fragment.
        checks: Vec<CheckRequest>,
        /// Target-value fetches coalesced into this fragment.
        targets: Vec<TargetRequest>,
    },
}

impl Request {
    /// Short wire tag (diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::LocalEval { .. } => "LocalEval",
            Request::AssistantLookup { .. } => "AssistantLookup",
            Request::ShipObjects => "ShipObjects",
            Request::BatchAssistantLookup { .. } => "BatchAssistantLookup",
        }
    }
}

/// A response to one [`Request`].
#[derive(Debug, Clone)]
pub enum Response {
    /// A site's local evaluation results.
    LocalEval(Box<LocalEvalReply>),
    /// Verdicts and values for an assistant lookup.
    AssistantLookup(LookupReply),
    /// Acknowledgement of a CA extent shipment.
    ShipObjects(ShipReply),
    /// Verdicts and values for one batched-lookup fragment.
    BatchAssistantLookup(LookupReply),
}

impl Response {
    /// Short wire tag of the request this answers (diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            Response::LocalEval(_) => "LocalEval",
            Response::AssistantLookup(_) => "AssistantLookup",
            Response::ShipObjects(_) => "ShipObjects",
            Response::BatchAssistantLookup(_) => "BatchAssistantLookup",
        }
    }
}

/// One component site's contribution to a localized execution.
#[derive(Debug, Clone, Default)]
pub struct LocalEvalReply {
    /// Local maybe rows surviving this site's evaluation.
    pub rows: Vec<LocalRow>,
    /// Assistant verdicts this site gathered from its peers (and itself).
    pub verdicts: Vec<CheckVerdict>,
    /// Fetched target values, `((item, select position), value)`.
    pub target_values: Vec<((LOid, usize), Value)>,
    /// `(item, pred)` pairs whose assistant lookups stayed unanswered
    /// because a peer was unreachable: certification must treat the
    /// affected rows as degraded maybe results.
    pub failed_checks: Vec<(LOid, PredId)>,
    /// Peers this site could not reach.
    pub degraded_peers: Vec<DbId>,
}

/// Verdicts and values answered for one [`Request::AssistantLookup`].
#[derive(Debug, Clone, Default)]
pub struct LookupReply {
    /// One verdict per check request, in request order.
    pub verdicts: Vec<CheckVerdict>,
    /// One `((item, select position), value)` pair per target request.
    pub values: Vec<((LOid, usize), Value)>,
}

/// Acknowledgement of one CA extent shipment.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShipReply {
    /// Bytes of projected extent shipped by the site.
    pub bytes: u64,
}
