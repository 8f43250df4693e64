//! Encoders and decoders for the typed site messages of `fedoq-net`.
//!
//! Every type that crosses a process boundary — [`Envelope`] with its
//! [`Payload`] of requests and responses, down through the handler
//! structs and [`Value`] — gets an explicit, versioned binary layout on
//! top of the [`crate::codec`] primitives. Enum variants are one-byte
//! tags in declaration order; unknown tags decode to
//! [`WireError::Malformed`], never a panic. Encoding is canonical: the
//! encoder has exactly one output per value, so `encode(decode(bytes))`
//! reproduces `bytes` for every accepted input (the round-trip property
//! `tests/wire_roundtrip.rs` exercises). Tags of removed variants stay
//! retired, so the surviving variants keep their numbers.

use crate::codec::{Reader, WireError, Writer, MAX_DEPTH};
use fedoq_core::handlers::{CheckRequest, CheckVerdict, LocalRow, TargetRequest, UnsolvedEntry};
use fedoq_net::msg::{
    Envelope, LocalEvalReply, LookupReply, Payload, Request, Response, ShipReply,
};
use fedoq_object::{DbId, GOid, LOid, Truth, Value};
use fedoq_query::PredId;
use fedoq_sim::{Phase, Site};

// ---------------------------------------------------------------- leaves

pub(crate) fn enc_db(w: &mut Writer, db: DbId) {
    w.u16(db.index() as u16);
}

pub(crate) fn dec_db(r: &mut Reader) -> Result<DbId, WireError> {
    Ok(DbId::new(r.u16()?))
}

pub(crate) fn enc_loid(w: &mut Writer, loid: LOid) {
    enc_db(w, loid.db());
    w.u64(loid.serial());
}

pub(crate) fn dec_loid(r: &mut Reader) -> Result<LOid, WireError> {
    let db = dec_db(r)?;
    Ok(LOid::new(db, r.u64()?))
}

pub(crate) fn enc_site(w: &mut Writer, site: Site) {
    match site {
        Site::Global => w.u8(0),
        Site::Db(db) => {
            w.u8(1);
            enc_db(w, db);
        }
    }
}

pub(crate) fn dec_site(r: &mut Reader) -> Result<Site, WireError> {
    match r.u8()? {
        0 => Ok(Site::Global),
        1 => Ok(Site::Db(dec_db(r)?)),
        _ => Err(WireError::Malformed("site tag")),
    }
}

pub(crate) fn enc_phase(w: &mut Writer, phase: Phase) {
    w.u8(match phase {
        Phase::Ship => 0,
        Phase::O => 1,
        Phase::I => 2,
        Phase::P => 3,
    });
}

pub(crate) fn dec_phase(r: &mut Reader) -> Result<Phase, WireError> {
    match r.u8()? {
        0 => Ok(Phase::Ship),
        1 => Ok(Phase::O),
        2 => Ok(Phase::I),
        3 => Ok(Phase::P),
        _ => Err(WireError::Malformed("phase tag")),
    }
}

pub(crate) fn enc_truth(w: &mut Writer, t: Truth) {
    w.u8(match t {
        Truth::False => 0,
        Truth::Unknown => 1,
        Truth::True => 2,
    });
}

pub(crate) fn dec_truth(r: &mut Reader) -> Result<Truth, WireError> {
    match r.u8()? {
        0 => Ok(Truth::False),
        1 => Ok(Truth::Unknown),
        2 => Ok(Truth::True),
        _ => Err(WireError::Malformed("truth tag")),
    }
}

pub(crate) fn enc_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.u8(0),
        Value::Int(i) => {
            w.u8(1);
            w.i64(*i);
        }
        Value::Float(f) => {
            w.u8(2);
            w.f64(*f);
        }
        Value::Text(s) => {
            w.u8(3);
            w.str(s);
        }
        Value::Bool(b) => {
            w.u8(4);
            w.boolean(*b);
        }
        Value::Ref(loid) => {
            w.u8(5);
            enc_loid(w, *loid);
        }
        Value::GRef(goid) => {
            w.u8(6);
            w.u64(goid.serial());
        }
        Value::List(items) => {
            w.u8(7);
            w.seq(items.len());
            for item in items {
                enc_value(w, item);
            }
        }
    }
}

pub(crate) fn dec_value(r: &mut Reader) -> Result<Value, WireError> {
    dec_value_depth(r, 0)
}

fn dec_value_depth(r: &mut Reader, depth: usize) -> Result<Value, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::Malformed("value nesting too deep"));
    }
    match r.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.i64()?)),
        2 => Ok(Value::Float(r.f64()?)),
        3 => Ok(Value::Text(r.str()?)),
        4 => Ok(Value::Bool(r.boolean()?)),
        5 => Ok(Value::Ref(dec_loid(r)?)),
        6 => Ok(Value::GRef(GOid::new(r.u64()?))),
        7 => {
            let n = r.seq()?;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(dec_value_depth(r, depth + 1)?);
            }
            Ok(Value::List(items))
        }
        _ => Err(WireError::Malformed("value tag")),
    }
}

fn enc_pred(w: &mut Writer, pred: PredId) {
    w.size(pred.index());
}

fn dec_pred(r: &mut Reader) -> Result<PredId, WireError> {
    Ok(PredId::new(r.size()?))
}

// ------------------------------------------------------- handler structs

fn enc_check_request(w: &mut Writer, c: &CheckRequest) {
    enc_loid(w, c.item);
    enc_loid(w, c.assistant);
    enc_pred(w, c.pred);
    w.size(c.start);
}

fn dec_check_request(r: &mut Reader) -> Result<CheckRequest, WireError> {
    Ok(CheckRequest {
        item: dec_loid(r)?,
        assistant: dec_loid(r)?,
        pred: dec_pred(r)?,
        start: r.size()?,
    })
}

fn enc_target_request(w: &mut Writer, t: &TargetRequest) {
    enc_loid(w, t.item);
    enc_loid(w, t.assistant);
    w.size(t.target);
    w.size(t.start);
}

fn dec_target_request(r: &mut Reader) -> Result<TargetRequest, WireError> {
    Ok(TargetRequest {
        item: dec_loid(r)?,
        assistant: dec_loid(r)?,
        target: r.size()?,
        start: r.size()?,
    })
}

fn enc_check_verdict(w: &mut Writer, v: &CheckVerdict) {
    enc_loid(w, v.item);
    enc_pred(w, v.pred);
    enc_truth(w, v.verdict);
}

fn dec_check_verdict(r: &mut Reader) -> Result<CheckVerdict, WireError> {
    Ok(CheckVerdict {
        item: dec_loid(r)?,
        pred: dec_pred(r)?,
        verdict: dec_truth(r)?,
    })
}

fn enc_unsolved_entry(w: &mut Writer, u: &UnsolvedEntry) {
    enc_pred(w, u.pred);
    match u.item {
        None => w.u8(0),
        Some(loid) => {
            w.u8(1);
            enc_loid(w, loid);
        }
    }
}

fn dec_unsolved_entry(r: &mut Reader) -> Result<UnsolvedEntry, WireError> {
    let pred = dec_pred(r)?;
    let item = match r.u8()? {
        0 => None,
        1 => Some(dec_loid(r)?),
        _ => return Err(WireError::Malformed("option tag")),
    };
    Ok(UnsolvedEntry { pred, item })
}

fn enc_local_row(w: &mut Writer, row: &LocalRow) {
    enc_loid(w, row.root_loid);
    w.u64(row.goid.serial());
    w.seq(row.verdicts.len());
    for v in &row.verdicts {
        enc_truth(w, *v);
    }
    w.seq(row.unsolved.len());
    for u in &row.unsolved {
        enc_unsolved_entry(w, u);
    }
    w.seq(row.targets.len());
    for t in &row.targets {
        enc_value(w, t);
    }
    w.seq(row.target_items.len());
    for item in &row.target_items {
        match item {
            None => w.u8(0),
            Some((loid, start)) => {
                w.u8(1);
                enc_loid(w, *loid);
                w.size(*start);
            }
        }
    }
}

fn dec_local_row(r: &mut Reader) -> Result<LocalRow, WireError> {
    let root_loid = dec_loid(r)?;
    let goid = GOid::new(r.u64()?);
    let verdicts = dec_seq(r, dec_truth)?;
    let unsolved = dec_seq(r, dec_unsolved_entry)?;
    let targets = dec_seq(r, dec_value)?;
    let target_items = dec_seq(r, |r| match r.u8()? {
        0 => Ok(None),
        1 => {
            let loid = dec_loid(r)?;
            let start = r.size()?;
            Ok(Some((loid, start)))
        }
        _ => Err(WireError::Malformed("option tag")),
    })?;
    Ok(LocalRow {
        root_loid,
        goid,
        verdicts,
        unsolved,
        targets,
        target_items,
    })
}

fn dec_seq<T>(
    r: &mut Reader,
    mut elem: impl FnMut(&mut Reader) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.seq()?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(elem(r)?);
    }
    Ok(out)
}

// ------------------------------------------------------------- requests

fn enc_lookup_lists(w: &mut Writer, checks: &[CheckRequest], targets: &[TargetRequest]) {
    w.seq(checks.len());
    for c in checks {
        enc_check_request(w, c);
    }
    w.seq(targets.len());
    for t in targets {
        enc_target_request(w, t);
    }
}

pub(crate) fn enc_request(w: &mut Writer, req: &Request) {
    match req {
        Request::LocalEval {
            parallel,
            use_signatures,
            complete_targets,
        } => {
            w.u8(1);
            w.boolean(*parallel);
            w.boolean(*use_signatures);
            w.boolean(*complete_targets);
        }
        Request::AssistantLookup { checks, targets } => {
            w.u8(2);
            enc_lookup_lists(w, checks, targets);
        }
        Request::ShipObjects => w.u8(3),
        Request::BatchAssistantLookup { checks, targets } => {
            w.u8(4);
            enc_lookup_lists(w, checks, targets);
        }
    }
}

pub(crate) fn dec_request(r: &mut Reader) -> Result<Request, WireError> {
    match r.u8()? {
        1 => Ok(Request::LocalEval {
            parallel: r.boolean()?,
            use_signatures: r.boolean()?,
            complete_targets: r.boolean()?,
        }),
        2 => {
            let checks = dec_seq(r, dec_check_request)?;
            let targets = dec_seq(r, dec_target_request)?;
            Ok(Request::AssistantLookup { checks, targets })
        }
        3 => Ok(Request::ShipObjects),
        4 => {
            let checks = dec_seq(r, dec_check_request)?;
            let targets = dec_seq(r, dec_target_request)?;
            Ok(Request::BatchAssistantLookup { checks, targets })
        }
        _ => Err(WireError::Malformed("request tag")),
    }
}

// ------------------------------------------------------------ responses

fn enc_lookup_reply(w: &mut Writer, reply: &LookupReply) {
    w.seq(reply.verdicts.len());
    for v in &reply.verdicts {
        enc_check_verdict(w, v);
    }
    w.seq(reply.values.len());
    for ((loid, start), value) in &reply.values {
        enc_loid(w, *loid);
        w.size(*start);
        enc_value(w, value);
    }
}

fn dec_lookup_reply(r: &mut Reader) -> Result<LookupReply, WireError> {
    let verdicts = dec_seq(r, dec_check_verdict)?;
    let values = dec_seq(r, |r| {
        let loid = dec_loid(r)?;
        let start = r.size()?;
        let value = dec_value(r)?;
        Ok(((loid, start), value))
    })?;
    Ok(LookupReply { verdicts, values })
}

fn enc_local_eval_reply(w: &mut Writer, reply: &LocalEvalReply) {
    w.seq(reply.rows.len());
    for row in &reply.rows {
        enc_local_row(w, row);
    }
    w.seq(reply.verdicts.len());
    for v in &reply.verdicts {
        enc_check_verdict(w, v);
    }
    w.seq(reply.target_values.len());
    for ((loid, start), value) in &reply.target_values {
        enc_loid(w, *loid);
        w.size(*start);
        enc_value(w, value);
    }
    w.seq(reply.failed_checks.len());
    for (loid, pred) in &reply.failed_checks {
        enc_loid(w, *loid);
        enc_pred(w, *pred);
    }
    w.seq(reply.degraded_peers.len());
    for db in &reply.degraded_peers {
        enc_db(w, *db);
    }
}

fn dec_local_eval_reply(r: &mut Reader) -> Result<LocalEvalReply, WireError> {
    let rows = dec_seq(r, dec_local_row)?;
    let verdicts = dec_seq(r, dec_check_verdict)?;
    let target_values = dec_seq(r, |r| {
        let loid = dec_loid(r)?;
        let start = r.size()?;
        let value = dec_value(r)?;
        Ok(((loid, start), value))
    })?;
    let failed_checks = dec_seq(r, |r| {
        let loid = dec_loid(r)?;
        let pred = dec_pred(r)?;
        Ok((loid, pred))
    })?;
    let degraded_peers = dec_seq(r, dec_db)?;
    Ok(LocalEvalReply {
        rows,
        verdicts,
        target_values,
        failed_checks,
        degraded_peers,
    })
}

pub(crate) fn enc_response(w: &mut Writer, resp: &Response) {
    match resp {
        Response::LocalEval(reply) => {
            w.u8(1);
            enc_local_eval_reply(w, reply);
        }
        Response::AssistantLookup(reply) => {
            w.u8(2);
            enc_lookup_reply(w, reply);
        }
        Response::ShipObjects(reply) => {
            w.u8(3);
            w.u64(reply.bytes);
        }
        Response::BatchAssistantLookup(reply) => {
            w.u8(4);
            enc_lookup_reply(w, reply);
        }
    }
}

pub(crate) fn dec_response(r: &mut Reader) -> Result<Response, WireError> {
    match r.u8()? {
        1 => Ok(Response::LocalEval(Box::new(dec_local_eval_reply(r)?))),
        2 => Ok(Response::AssistantLookup(dec_lookup_reply(r)?)),
        3 => Ok(Response::ShipObjects(ShipReply { bytes: r.u64()? })),
        4 => Ok(Response::BatchAssistantLookup(dec_lookup_reply(r)?)),
        _ => Err(WireError::Malformed("response tag")),
    }
}

// ------------------------------------------------------------- envelope

/// Encodes one routed message to its canonical byte layout.
pub fn encode_envelope(env: &Envelope) -> Vec<u8> {
    let mut w = Writer::new();
    enc_envelope(&mut w, env);
    w.finish()
}

/// Decodes one routed message; the buffer must hold exactly one.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope, WireError> {
    let mut r = Reader::new(bytes);
    let env = dec_envelope(&mut r)?;
    r.expect_end()?;
    Ok(env)
}

pub(crate) fn dec_envelope(r: &mut Reader) -> Result<Envelope, WireError> {
    let from = dec_site(r)?;
    let to = dec_site(r)?;
    let rpc = r.u64()?;
    let bytes = r.u64()?;
    let phase = dec_phase(r)?;
    let payload = match r.u8()? {
        0 => Payload::Request(dec_request(r)?),
        1 => Payload::Response(dec_response(r)?),
        _ => return Err(WireError::Malformed("payload tag")),
    };
    Ok(Envelope {
        from,
        to,
        rpc,
        bytes,
        phase,
        payload,
    })
}

pub(crate) fn enc_envelope(w: &mut Writer, env: &Envelope) {
    enc_site(w, env.from);
    enc_site(w, env.to);
    w.u64(env.rpc);
    w.u64(env.bytes);
    enc_phase(w, env.phase);
    match &env.payload {
        Payload::Request(req) => {
            w.u8(0);
            enc_request(w, req);
        }
        Payload::Response(resp) => {
            w.u8(1);
            enc_response(w, resp);
        }
    }
}
