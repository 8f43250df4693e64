//! Property tests for the wire codec.
//!
//! Three guarantees, over arbitrary protocol messages:
//!
//! * **Canonical round trip** — for any envelope built through the real
//!   constructors, `encode(decode(encode(e))) == encode(e)` byte for
//!   byte (the codec adds no freedom of its own).
//! * **Truncation is an error** — every strict prefix of a valid
//!   encoding is rejected, never mis-parsed or panicked on.
//! * **Garbage never panics** — arbitrary bytes either fail to decode
//!   or decode to a value whose re-encoding is a fixed point of
//!   `encode ∘ decode` (the decoder normalizes, idempotently).

use fedoq_core::handlers::{CheckRequest, CheckVerdict, LocalRow, TargetRequest, UnsolvedEntry};
use fedoq_net::msg::{
    Envelope, LocalEvalReply, LookupReply, Payload, Request, Response, ShipReply,
};
use fedoq_object::{DbId, GOid, LOid, Truth, Value};
use fedoq_query::PredId;
use fedoq_sim::{Phase, Site};
use fedoq_wire::frame::{decode_payload, encode_payload, Frame, Role};
use fedoq_wire::{decode_envelope, encode_envelope};
use proptest::collection::vec;
use proptest::prelude::*;

// ------------------------------------------------------------ generators

fn arb_db() -> impl Strategy<Value = DbId> {
    (0u16..6).prop_map(DbId::new)
}

fn arb_loid() -> impl Strategy<Value = LOid> {
    (arb_db(), 0u64..1_000_000).prop_map(|(db, serial)| LOid::new(db, serial))
}

fn arb_goid() -> impl Strategy<Value = GOid> {
    (0u64..1_000_000).prop_map(GOid::new)
}

fn arb_pred() -> impl Strategy<Value = PredId> {
    (0usize..8).prop_map(PredId::new)
}

fn arb_truth() -> impl Strategy<Value = Truth> {
    prop_oneof![Just(Truth::False), Just(Truth::Unknown), Just(Truth::True)]
}

fn arb_site() -> impl Strategy<Value = Site> {
    prop_oneof![Just(Site::Global), arb_db().prop_map(Site::Db)]
}

fn arb_phase() -> impl Strategy<Value = Phase> {
    prop_oneof![
        Just(Phase::Ship),
        Just(Phase::O),
        Just(Phase::I),
        Just(Phase::P)
    ]
}

fn arb_value(depth: u32) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[ -~]{0,12}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        arb_loid().prop_map(Value::Ref),
        arb_goid().prop_map(Value::GRef),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
        prop_oneof![leaf, vec(arb_value(depth - 1), 0..3).prop_map(Value::List)].boxed()
    }
}

fn arb_check_request() -> impl Strategy<Value = CheckRequest> {
    (arb_loid(), arb_loid(), arb_pred(), 0usize..8).prop_map(|(item, assistant, pred, start)| {
        CheckRequest {
            item,
            assistant,
            pred,
            start,
        }
    })
}

fn arb_target_request() -> impl Strategy<Value = TargetRequest> {
    (arb_loid(), arb_loid(), 0usize..4, 0usize..8).prop_map(|(item, assistant, target, start)| {
        TargetRequest {
            item,
            assistant,
            target,
            start,
        }
    })
}

fn arb_check_verdict() -> impl Strategy<Value = CheckVerdict> {
    (arb_loid(), arb_pred(), arb_truth()).prop_map(|(item, pred, verdict)| CheckVerdict {
        item,
        pred,
        verdict,
    })
}

fn arb_unsolved_entry() -> impl Strategy<Value = UnsolvedEntry> {
    (
        arb_pred(),
        prop_oneof![Just(None), arb_loid().prop_map(Some)],
    )
        .prop_map(|(pred, item)| UnsolvedEntry { pred, item })
}

fn arb_local_row() -> impl Strategy<Value = LocalRow> {
    (
        arb_loid(),
        arb_goid(),
        vec(arb_truth(), 0..4),
        vec(arb_unsolved_entry(), 0..3),
        vec(arb_value(1), 0..3),
        vec(
            prop_oneof![Just(None), (arb_loid(), 0usize..8).prop_map(Some)],
            0..3,
        ),
    )
        .prop_map(
            |(root_loid, goid, verdicts, unsolved, targets, target_items)| LocalRow {
                root_loid,
                goid,
                verdicts,
                unsolved,
                targets,
                target_items,
            },
        )
}

fn arb_lookup_reply() -> impl Strategy<Value = LookupReply> {
    (
        vec(arb_check_verdict(), 0..4),
        vec(((arb_loid(), 0usize..4), arb_value(1)), 0..4),
    )
        .prop_map(|(verdicts, values)| LookupReply { verdicts, values })
}

fn arb_request() -> BoxedStrategy<Request> {
    prop_oneof![
        (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
            |(parallel, use_signatures, complete_targets)| Request::LocalEval {
                parallel,
                use_signatures,
                complete_targets,
            }
        ),
        (
            vec(arb_check_request(), 0..4),
            vec(arb_target_request(), 0..4)
        )
            .prop_map(|(checks, targets)| Request::AssistantLookup { checks, targets }),
        Just(Request::ShipObjects),
        (
            vec(arb_check_request(), 0..4),
            vec(arb_target_request(), 0..4)
        )
            .prop_map(|(checks, targets)| Request::BatchAssistantLookup { checks, targets }),
    ]
    .boxed()
}

fn arb_local_eval_reply() -> impl Strategy<Value = LocalEvalReply> {
    (
        vec(arb_local_row(), 0..3),
        vec(arb_check_verdict(), 0..3),
        vec(((arb_loid(), 0usize..4), arb_value(1)), 0..3),
        vec((arb_loid(), arb_pred()), 0..3),
        vec(arb_db(), 0..3),
    )
        .prop_map(
            |(rows, verdicts, target_values, failed_checks, degraded_peers)| LocalEvalReply {
                rows,
                verdicts,
                target_values,
                failed_checks,
                degraded_peers,
            },
        )
}

fn arb_response() -> BoxedStrategy<Response> {
    prop_oneof![
        arb_local_eval_reply().prop_map(|r| Response::LocalEval(Box::new(r))),
        arb_lookup_reply().prop_map(Response::AssistantLookup),
        any::<u64>().prop_map(|bytes| Response::ShipObjects(ShipReply { bytes })),
        arb_lookup_reply().prop_map(Response::BatchAssistantLookup),
    ]
    .boxed()
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        arb_site(),
        arb_site(),
        any::<u64>(),
        any::<u64>(),
        arb_phase(),
        prop_oneof![
            arb_request().prop_map(Payload::Request),
            arb_response().prop_map(Payload::Response)
        ],
    )
        .prop_map(|(from, to, rpc, bytes, phase, payload)| Envelope {
            from,
            to,
            rpc,
            bytes,
            phase,
            payload,
        })
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    let role = prop_oneof![Just(Role::Serve), Just(Role::Site), Just(Role::Client)];
    prop_oneof![
        (role, prop_oneof![Just(None), (0u16..6).prop_map(Some)])
            .prop_map(|(role, site)| Frame::Hello { role, site }),
        vec((0u16..6, "[ -~]{0,16}"), 0..4).prop_map(|sites| Frame::Peers { sites }),
        (any::<u64>(), "[ -~]{0,32}", arb_envelope()).prop_map(|(tag, sql, env)| Frame::Envelope {
            tag,
            sql,
            env
        }),
        (any::<u64>(), "[ -~]{0,32}", "[a-z-]{0,8}").prop_map(|(id, sql, strategy)| Frame::Query {
            id,
            sql,
            strategy
        }),
        (any::<u64>(), "[ -~]{0,24}").prop_map(|(id, err)| Frame::Answer {
            id,
            reply: Err(err)
        }),
    ]
}

// ------------------------------------------------------------ properties

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn envelope_reencode_is_byte_identical(env in arb_envelope()) {
        let bytes = encode_envelope(&env);
        let decoded = decode_envelope(&bytes).expect("own encoding must decode");
        prop_assert_eq!(encode_envelope(&decoded), bytes);
    }

    #[test]
    fn frame_payload_reencode_is_byte_identical(frame in arb_frame()) {
        let bytes = encode_payload(&frame);
        let decoded = decode_payload(&bytes).expect("own encoding must decode");
        prop_assert_eq!(encode_payload(&decoded), bytes);
    }

    #[test]
    fn every_truncation_is_rejected_without_panic(env in arb_envelope(), cut in any::<usize>()) {
        let bytes = encode_envelope(&env);
        let cut = cut % bytes.len().max(1);
        prop_assert!(decode_envelope(&bytes[..cut]).is_err());
    }

    #[test]
    fn garbage_never_panics_and_accepted_garbage_normalizes(
        bytes in vec(any::<u8>(), 0..192)
    ) {
        // Either rejected, or accepted into a value whose encoding is a
        // fixed point (decode normalizes; encode of the result must be
        // stable under another decode/encode round).
        if let Ok(env) = decode_envelope(&bytes) {
            let canon = encode_envelope(&env);
            let again = decode_envelope(&canon).expect("canonical form must decode");
            prop_assert_eq!(encode_envelope(&again), canon);
        }
        if let Ok(frame) = decode_payload(&bytes) {
            let canon = encode_payload(&frame);
            let again = decode_payload(&canon).expect("canonical form must decode");
            prop_assert_eq!(encode_payload(&again), canon);
        }
    }

    #[test]
    fn corrupted_headers_error_cleanly(env in arb_envelope(), flip in 0usize..16, bit in 0u8..8) {
        // Flip one bit somewhere in the first 16 bytes: must never panic,
        // and on acceptance the canonical fixed point still holds.
        let mut bytes = encode_envelope(&env);
        if !bytes.is_empty() {
            let at = flip % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        if let Ok(decoded) = decode_envelope(&bytes) {
            let canon = encode_envelope(&decoded);
            prop_assert!(decode_envelope(&canon).is_ok());
        }
    }
}
