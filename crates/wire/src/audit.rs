//! Self-description of the wire grammar for the FQ304–FQ306 codec
//! lints.
//!
//! `fedoq-check`'s codec pass does not parse this crate's source; it
//! interprets the *actual* encoder/decoder tables. [`surface`] builds a
//! [`WireSurface`] by running the real code both ways:
//!
//! * **Encoder tables** — every variant of every tagged enum family is
//!   encoded from an exemplar value; the first byte is its tag. The
//!   exemplar lists are kept exhaustive by companion `match`es with no
//!   wildcard arm, so adding an enum variant without extending the
//!   table (and therefore the codec) is a compile error here.
//! * **Decoder tables** — each family's decoder is probed with every
//!   possible tag byte; a tag is *accepted* when the decoder commits to
//!   it (any outcome other than that family's unknown-tag rejection).
//! * **Bound probes** (FQ305) — deliberately oversized frames, sequence
//!   counts, strings, and over-deep value nests are fed to the real
//!   decoders under `catch_unwind`; each must reject, never panic.
//! * **Version-skew probes** (FQ306) — well-formed frames rewritten to
//!   versions `VERSION ± 1` are fed to [`read_frame`]; both must be
//!   rejected cleanly.
//!
//! The surface also carries a **grammar fingerprint** (FNV-1a over the
//! family tables and exemplar encodings) and the pinned
//! [`GRAMMAR_PIN`]. FQ306 fails when the fingerprint drifts while the
//! version stands still — the "added a message variant without bumping
//! the codec" mistake — so evolving the grammar forces a deliberate
//! choice: bump [`crate::frame::VERSION`], then re-pin.

use crate::codec::{Reader, WireError, Writer, MAX_DEPTH, MAX_FRAME, MAX_SEQ};
use crate::frame::{
    dec_role, enc_role, encode_frame, encode_payload, read_frame, Frame, Role, VERSION,
};
use crate::proto::{
    dec_phase, dec_request, dec_response, dec_site, dec_truth, dec_value, enc_phase, enc_request,
    enc_response, enc_site, enc_truth, enc_value,
};
use fedoq_net::msg::{
    Envelope, LocalEvalReply, LookupReply, Payload, Request, Response, ShipReply,
};
use fedoq_object::Truth;
use fedoq_object::{DbId, GOid, LOid, Value};
use fedoq_sim::{Phase, Site};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Pinned grammar identity: protocol version and grammar fingerprint at
/// the time the codec was last deliberately evolved. When the grammar
/// changes, FQ306 fires until [`crate::frame::VERSION`] is bumped *and*
/// this pin is updated to the value printed by the
/// `grammar_pin_matches_current_surface` test.
pub const GRAMMAR_PIN: (u32, u64) = (4, 0x1382_eaec_b17b_79dd);

/// One tagged enum family of the wire grammar.
#[derive(Debug, Clone)]
pub struct TagFamily {
    /// Family name (`"frame"`, `"request"`, `"value"`, …).
    pub name: &'static str,
    /// `(tag, variant name)` for every variant the encoder can emit.
    pub encoder: Vec<(u8, &'static str)>,
    /// Every tag byte the decoder commits to (does not reject as an
    /// unknown tag for this family).
    pub decoder_accepts: Vec<u8>,
}

/// What a hostile-input probe did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The input was rejected with a decode error — the only sound
    /// outcome.
    Rejected,
    /// The input was accepted as if well-formed.
    Accepted,
    /// The decoder panicked.
    Panicked,
}

/// Results of the resource-bound probes (FQ305 input).
#[derive(Debug, Clone)]
pub struct BoundsProbe {
    /// [`MAX_FRAME`] as compiled.
    pub max_frame: usize,
    /// [`MAX_SEQ`] as compiled.
    pub max_seq: usize,
    /// [`MAX_DEPTH`] as compiled.
    pub max_depth: usize,
    /// A frame header declaring `MAX_FRAME + 1` payload bytes.
    pub oversized_frame: ProbeOutcome,
    /// A sequence header declaring `MAX_SEQ + 1` elements.
    pub oversized_seq: ProbeOutcome,
    /// A string header declaring `MAX_FRAME + 1` bytes.
    pub oversized_str: ProbeOutcome,
    /// A value nested `MAX_DEPTH + 2` lists deep.
    pub overdeep_value: ProbeOutcome,
}

/// Result of decoding a well-formed frame rewritten to another version.
#[derive(Debug, Clone)]
pub struct SkewProbe {
    /// The version the frame header claimed.
    pub version: u32,
    /// What [`read_frame`] did with it.
    pub outcome: ProbeOutcome,
}

/// Everything the FQ304–FQ306 lints need to judge the codec, computed
/// from the shipped encoder/decoder code (never from a description that
/// could drift out of sync with it).
#[derive(Debug, Clone)]
pub struct WireSurface {
    /// [`crate::frame::VERSION`] as compiled.
    pub version: u32,
    /// FNV-1a fingerprint of the grammar (families, tags, exemplar
    /// encodings, bounds).
    pub fingerprint: u64,
    /// The pinned version ([`GRAMMAR_PIN`]).
    pub pin_version: u32,
    /// The pinned fingerprint ([`GRAMMAR_PIN`]).
    pub pin_fingerprint: u64,
    /// Every tagged enum family.
    pub families: Vec<TagFamily>,
    /// Resource-bound probe results.
    pub bounds: BoundsProbe,
    /// Version-skew probe results (`VERSION ± 1`).
    pub skew: Vec<SkewProbe>,
}

// ------------------------------------------------------------ exemplars
//
// Each `*_variants` function returns one encoded exemplar per enum
// variant. The inner `name` match has no wildcard arm: adding a variant
// to the enum without teaching this table (and the codec) is a compile
// error — the static half of FQ304's exhaustiveness guarantee.

fn value_exemplars() -> Vec<(&'static str, Vec<u8>)> {
    fn name(v: &Value) -> &'static str {
        match v {
            Value::Null => "Null",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Text(_) => "Text",
            Value::Bool(_) => "Bool",
            Value::Ref(_) => "Ref",
            Value::GRef(_) => "GRef",
            Value::List(_) => "List",
        }
    }
    [
        Value::Null,
        Value::Int(1),
        Value::Float(1.5),
        Value::Text("x".into()),
        Value::Bool(true),
        Value::Ref(LOid::new(DbId::new(0), 1)),
        Value::GRef(GOid::new(1)),
        Value::List(vec![Value::Null]),
    ]
    .iter()
    .map(|v| {
        let mut w = Writer::new();
        enc_value(&mut w, v);
        (name(v), w.finish())
    })
    .collect()
}

fn site_exemplars() -> Vec<(&'static str, Vec<u8>)> {
    fn name(s: &Site) -> &'static str {
        match s {
            Site::Global => "Global",
            Site::Db(_) => "Db",
        }
    }
    [Site::Global, Site::Db(DbId::new(0))]
        .iter()
        .map(|s| {
            let mut w = Writer::new();
            enc_site(&mut w, *s);
            (name(s), w.finish())
        })
        .collect()
}

fn phase_exemplars() -> Vec<(&'static str, Vec<u8>)> {
    fn name(p: &Phase) -> &'static str {
        match p {
            Phase::Ship => "Ship",
            Phase::O => "O",
            Phase::I => "I",
            Phase::P => "P",
        }
    }
    [Phase::Ship, Phase::O, Phase::I, Phase::P]
        .iter()
        .map(|p| {
            let mut w = Writer::new();
            enc_phase(&mut w, *p);
            (name(p), w.finish())
        })
        .collect()
}

fn truth_exemplars() -> Vec<(&'static str, Vec<u8>)> {
    fn name(t: &Truth) -> &'static str {
        match t {
            Truth::False => "False",
            Truth::Unknown => "Unknown",
            Truth::True => "True",
        }
    }
    [Truth::False, Truth::Unknown, Truth::True]
        .iter()
        .map(|t| {
            let mut w = Writer::new();
            enc_truth(&mut w, *t);
            (name(t), w.finish())
        })
        .collect()
}

fn role_exemplars() -> Vec<(&'static str, Vec<u8>)> {
    fn name(r: &Role) -> &'static str {
        match r {
            Role::Serve => "Serve",
            Role::Site => "Site",
            Role::Client => "Client",
        }
    }
    [Role::Serve, Role::Site, Role::Client]
        .iter()
        .map(|r| {
            let mut w = Writer::new();
            enc_role(&mut w, *r);
            (name(r), w.finish())
        })
        .collect()
}

fn request_exemplars() -> Vec<(&'static str, Vec<u8>)> {
    fn name(r: &Request) -> &'static str {
        match r {
            Request::LocalEval { .. } => "LocalEval",
            Request::AssistantLookup { .. } => "AssistantLookup",
            Request::ShipObjects => "ShipObjects",
            Request::BatchAssistantLookup { .. } => "BatchAssistantLookup",
        }
    }
    [
        Request::LocalEval {
            parallel: false,
            use_signatures: false,
            complete_targets: false,
        },
        Request::AssistantLookup {
            checks: vec![],
            targets: vec![],
        },
        Request::ShipObjects,
        Request::BatchAssistantLookup {
            checks: vec![],
            targets: vec![],
        },
    ]
    .iter()
    .map(|r| {
        let mut w = Writer::new();
        enc_request(&mut w, r);
        (name(r), w.finish())
    })
    .collect()
}

fn response_exemplars() -> Vec<(&'static str, Vec<u8>)> {
    fn name(r: &Response) -> &'static str {
        match r {
            Response::LocalEval(_) => "LocalEval",
            Response::AssistantLookup(_) => "AssistantLookup",
            Response::ShipObjects(_) => "ShipObjects",
            Response::BatchAssistantLookup(_) => "BatchAssistantLookup",
        }
    }
    let local_eval = LocalEvalReply {
        rows: vec![],
        verdicts: vec![],
        target_values: vec![],
        failed_checks: vec![],
        degraded_peers: vec![],
    };
    let lookup = LookupReply {
        verdicts: vec![],
        values: vec![],
    };
    [
        Response::LocalEval(Box::new(local_eval)),
        Response::AssistantLookup(lookup.clone()),
        Response::ShipObjects(ShipReply { bytes: 0 }),
        Response::BatchAssistantLookup(lookup),
    ]
    .iter()
    .map(|r| {
        let mut w = Writer::new();
        enc_response(&mut w, r);
        (name(r), w.finish())
    })
    .collect()
}

fn frame_exemplars() -> Vec<(&'static str, Vec<u8>)> {
    fn name(f: &Frame) -> &'static str {
        match f {
            Frame::Hello { .. } => "Hello",
            Frame::Peers { .. } => "Peers",
            Frame::Envelope { .. } => "Envelope",
            Frame::Query { .. } => "Query",
            Frame::Answer { .. } => "Answer",
            Frame::Subscribe { .. } => "Subscribe",
            Frame::Delta { .. } => "Delta",
            Frame::Unsubscribe { .. } => "Unsubscribe",
            Frame::Mutate { .. } => "Mutate",
        }
    }
    let env = Envelope {
        from: Site::Global,
        to: Site::Db(DbId::new(0)),
        rpc: 0,
        bytes: 0,
        phase: Phase::Ship,
        payload: Payload::Request(Request::ShipObjects),
    };
    [
        Frame::Hello {
            role: Role::Client,
            site: None,
        },
        Frame::Peers { sites: vec![] },
        Frame::Envelope {
            tag: 0,
            sql: String::new(),
            env,
        },
        Frame::Query {
            id: 0,
            sql: String::new(),
            strategy: String::new(),
        },
        Frame::Answer {
            id: 0,
            reply: Err(String::new()),
        },
        Frame::Subscribe {
            id: 0,
            sql: String::new(),
            strategy: String::new(),
            priority: 0,
        },
        Frame::Delta {
            id: 0,
            seq: 0,
            reply: Err(String::new()),
        },
        Frame::Unsubscribe { id: 0 },
        Frame::Mutate {
            id: 0,
            db: 0,
            spec: String::new(),
        },
    ]
    .iter()
    .map(|f| (name(f), encode_payload(f)))
    .collect()
}

// --------------------------------------------------------------- probes

/// Probes `dec` with every possible tag byte as a 1-byte input. The
/// decoder *accepts* a tag when it commits to parsing that variant —
/// any outcome (success, truncation while reading the body) other than
/// the family's unknown-tag rejection `Malformed(unknown_msg)`.
fn probe_decoder(
    unknown_msg: &'static str,
    dec: impl Fn(&[u8]) -> Result<(), WireError>,
) -> Vec<u8> {
    (0..=u8::MAX)
        .filter(|&t| !matches!(dec(&[t]), Err(WireError::Malformed(msg)) if msg == unknown_msg))
        .collect()
}

fn build_family(
    name: &'static str,
    unknown_msg: &'static str,
    exemplars: &[(&'static str, Vec<u8>)],
    dec: impl Fn(&[u8]) -> Result<(), WireError>,
) -> TagFamily {
    TagFamily {
        name,
        encoder: exemplars
            .iter()
            .map(|(variant, bytes)| (bytes.first().copied().unwrap_or(0xFF), *variant))
            .collect(),
        decoder_accepts: probe_decoder(unknown_msg, dec),
    }
}

fn guarded(f: impl FnOnce() -> bool) -> ProbeOutcome {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(true) => ProbeOutcome::Rejected,
        Ok(false) => ProbeOutcome::Accepted,
        Err(_) => ProbeOutcome::Panicked,
    }
}

fn bounds_probe() -> BoundsProbe {
    let oversized_frame = guarded(|| {
        let mut w = Writer::new();
        w.u32(crate::frame::MAGIC);
        w.u32(VERSION);
        w.u32((MAX_FRAME + 1) as u32);
        let bytes = w.finish();
        read_frame(&mut io::Cursor::new(bytes)).is_err()
    });
    let oversized_seq = guarded(|| {
        let mut w = Writer::new();
        w.u32((MAX_SEQ + 1) as u32);
        let bytes = w.finish();
        Reader::new(&bytes).seq().is_err()
    });
    let oversized_str = guarded(|| {
        let mut w = Writer::new();
        w.u32((MAX_FRAME + 1) as u32);
        let bytes = w.finish();
        Reader::new(&bytes).str().is_err()
    });
    let overdeep_value = guarded(|| {
        // MAX_DEPTH + 2 nested one-element lists around a Null: the
        // depth cap must reject it long before the stack could.
        let mut bytes = Vec::new();
        for _ in 0..(MAX_DEPTH + 2) {
            bytes.push(7u8); // Value::List tag
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(0u8); // Value::Null
        dec_value(&mut Reader::new(&bytes)).is_err()
    });
    BoundsProbe {
        max_frame: MAX_FRAME,
        max_seq: MAX_SEQ,
        max_depth: MAX_DEPTH,
        oversized_frame,
        oversized_seq,
        oversized_str,
        overdeep_value,
    }
}

fn skew_probes() -> Vec<SkewProbe> {
    let good = encode_frame(&Frame::Hello {
        role: Role::Client,
        site: None,
    });
    [VERSION.wrapping_sub(1), VERSION + 1]
        .iter()
        .map(|&version| {
            let outcome = guarded(|| {
                let mut bytes = good.clone();
                bytes[4..8].copy_from_slice(&version.to_le_bytes());
                read_frame(&mut io::Cursor::new(bytes)).is_err()
            });
            SkewProbe { version, outcome }
        })
        .collect()
}

// ---------------------------------------------------------- fingerprint

/// `(family name, [(variant name, exemplar encoding)])` — the raw
/// material both the fingerprint and the encoder tables are built from.
type ExemplarTables = Vec<(&'static str, Vec<(&'static str, Vec<u8>)>)>;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn fingerprint(families: &ExemplarTables) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, &VERSION.to_le_bytes());
    fnv(&mut h, &(MAX_FRAME as u64).to_le_bytes());
    fnv(&mut h, &(MAX_SEQ as u64).to_le_bytes());
    fnv(&mut h, &(MAX_DEPTH as u64).to_le_bytes());
    for (name, exemplars) in families {
        fnv(&mut h, name.as_bytes());
        for (variant, bytes) in exemplars {
            fnv(&mut h, variant.as_bytes());
            fnv(&mut h, &(bytes.len() as u64).to_le_bytes());
            fnv(&mut h, bytes);
        }
        fnv(&mut h, &[0xFE]);
    }
    h
}

/// Builds the full wire surface from the shipped codec. See the module
/// docs for what each part feeds.
pub fn surface() -> WireSurface {
    let tables: ExemplarTables = vec![
        ("frame", frame_exemplars()),
        ("role", role_exemplars()),
        ("site", site_exemplars()),
        ("phase", phase_exemplars()),
        ("truth", truth_exemplars()),
        ("value", value_exemplars()),
        ("request", request_exemplars()),
        ("response", response_exemplars()),
    ];
    let fingerprint = fingerprint(&tables);

    let via = |dec: fn(&mut Reader) -> Result<(), WireError>| {
        move |bytes: &[u8]| dec(&mut Reader::new(bytes))
    };
    let families = vec![
        build_family("frame", "frame tag", &tables[0].1, |bytes| {
            crate::frame::decode_payload(bytes).map(|_| ())
        }),
        build_family(
            "role",
            "role tag",
            &tables[1].1,
            via(|r| dec_role(r).map(|_| ())),
        ),
        build_family(
            "site",
            "site tag",
            &tables[2].1,
            via(|r| dec_site(r).map(|_| ())),
        ),
        build_family(
            "phase",
            "phase tag",
            &tables[3].1,
            via(|r| dec_phase(r).map(|_| ())),
        ),
        build_family(
            "truth",
            "truth tag",
            &tables[4].1,
            via(|r| dec_truth(r).map(|_| ())),
        ),
        build_family(
            "value",
            "value tag",
            &tables[5].1,
            via(|r| dec_value(r).map(|_| ())),
        ),
        build_family(
            "request",
            "request tag",
            &tables[6].1,
            via(|r| dec_request(r).map(|_| ())),
        ),
        build_family(
            "response",
            "response tag",
            &tables[7].1,
            via(|r| dec_response(r).map(|_| ())),
        ),
    ];

    WireSurface {
        version: VERSION,
        fingerprint,
        pin_version: GRAMMAR_PIN.0,
        pin_fingerprint: GRAMMAR_PIN.1,
        families,
        bounds: bounds_probe(),
        skew: skew_probes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_and_decoder_tables_agree_per_family() {
        for family in surface().families {
            let mut tags: Vec<u8> = family.encoder.iter().map(|(t, _)| *t).collect();
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(
                tags.len(),
                family.encoder.len(),
                "{}: duplicate encoder tags",
                family.name
            );
            for (tag, variant) in &family.encoder {
                assert!(
                    family.decoder_accepts.contains(tag),
                    "{}: encoder emits tag {tag} ({variant}) the decoder rejects",
                    family.name
                );
            }
            for tag in &family.decoder_accepts {
                assert!(
                    family.encoder.iter().any(|(t, _)| t == tag),
                    "{}: decoder accepts dead tag {tag} no encoder emits",
                    family.name
                );
            }
        }
    }

    #[test]
    fn bound_and_skew_probes_all_reject() {
        let s = surface();
        assert_eq!(s.bounds.oversized_frame, ProbeOutcome::Rejected);
        assert_eq!(s.bounds.oversized_seq, ProbeOutcome::Rejected);
        assert_eq!(s.bounds.oversized_str, ProbeOutcome::Rejected);
        assert_eq!(s.bounds.overdeep_value, ProbeOutcome::Rejected);
        assert_eq!(s.skew.len(), 2);
        for probe in &s.skew {
            assert_eq!(
                probe.outcome,
                ProbeOutcome::Rejected,
                "version {} frames must be rejected",
                probe.version
            );
        }
    }

    #[test]
    fn grammar_pin_matches_current_surface() {
        let s = surface();
        assert_eq!(
            (s.version, s.fingerprint),
            GRAMMAR_PIN,
            "the wire grammar changed: bump frame::VERSION and re-pin \
             GRAMMAR_PIN to ({}, {:#018x})",
            s.version,
            s.fingerprint
        );
    }
}
