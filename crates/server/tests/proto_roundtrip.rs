//! `hermit_proto` conformance: every message kind survives an
//! encode → frame → unframe → decode round trip, and no damaged byte
//! stream — torn at any offset, oversized, CRC-flipped, or structurally
//! garbage — escapes as anything but a typed [`ProtoError`].

use hermit_core::Query;
use hermit_server::proto::{read_frame, write_frame, ProtoError};
use hermit_server::{ErrorCode, Request, Response, MAX_FRAME};
use hermit_storage::Value;

/// One of every request kind, with the query shapes that stress the
/// optional fields (projection present/absent, limit present/absent,
/// zero and multi conjuncts).
fn all_requests() -> Vec<Request> {
    vec![
        Request::Query(Query::new()),
        Request::Query(Query::new().point(2, 42.0)),
        Request::Query(Query::new().range(1, -3.5, 9.25).range(3, 0.0, 1.0e12)),
        Request::Query(Query::new().range(2, 1.0, 2.0).select([0, 2]).limit(7)),
        Request::Insert(vec![Value::Int(i64::MIN), Value::Float(-0.0), Value::Null]),
        Request::Insert(vec![]),
        Request::Delete { pk: -1 },
        Request::Explain(Query::new().range(2, 5.0, 6.0).select([1])),
        Request::Checkpoint,
        Request::Stats,
        Request::Shutdown,
    ]
}

/// One of every response kind, including the edge shapes (empty row set,
/// ragged widths, empty strings, every error code).
fn all_responses() -> Vec<Response> {
    let mut out = vec![
        Response::Rows(vec![]),
        Response::Rows(vec![
            vec![Value::Int(1), Value::Float(2.5), Value::Null],
            vec![],
            vec![Value::Float(f64::MAX)],
        ]),
        Response::Inserted { tid: u64::MAX },
        Response::Deleted,
        Response::Explain(String::new()),
        Response::Explain("Query Plan [hermit route]\n  phase 1: …".into()),
        Response::Stats("hermit_rows 10\nhermit_pool_hits 3\n".into()),
        Response::Ok,
    ];
    for code in [
        ErrorCode::BadRequest,
        ErrorCode::Storage,
        ErrorCode::NotDurable,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Capacity,
        ErrorCode::ShuttingDown,
        ErrorCode::Protocol,
    ] {
        out.push(Response::Error { code, message: format!("{code:?} detail") });
    }
    out
}

fn frame_of(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, payload).unwrap();
    wire
}

#[test]
fn every_request_kind_round_trips() {
    let mut payload = Vec::new();
    for req in all_requests() {
        req.encode(&mut payload);
        let wire = frame_of(&payload);
        let unframed = read_frame(&mut wire.as_slice()).unwrap().expect("one frame");
        assert_eq!(unframed, payload);
        assert_eq!(Request::decode(&unframed).unwrap(), req, "round trip of {req:?}");
    }
}

#[test]
fn every_response_kind_round_trips() {
    let mut payload = Vec::new();
    for resp in all_responses() {
        resp.encode(&mut payload);
        let wire = frame_of(&payload);
        let unframed = read_frame(&mut wire.as_slice()).unwrap().expect("one frame");
        assert_eq!(Response::decode(&unframed).unwrap(), resp, "round trip of {resp:?}");
    }
}

/// Tearing the wire at *every* byte offset: offset 0 is the clean-EOF
/// case, every interior offset is `Truncated`, the full frame decodes.
#[test]
fn torn_frame_at_every_offset_is_truncated_never_a_panic() {
    let mut payload = Vec::new();
    for req in all_requests() {
        req.encode(&mut payload);
        let wire = frame_of(&payload);
        assert!(read_frame(&mut &wire[..0]).unwrap().is_none(), "empty stream is clean EOF");
        for cut in 1..wire.len() {
            match read_frame(&mut &wire[..cut]) {
                Err(ProtoError::Truncated) => {}
                other => panic!(
                    "cut at {cut}/{} of {req:?}: expected Truncated, got {other:?}",
                    wire.len()
                ),
            }
        }
        assert!(read_frame(&mut wire.as_slice()).unwrap().is_some());
    }
}

/// Tearing the *payload* at every offset (a valid frame around a short
/// body): decode must reject every strict prefix — a torn message can
/// never be mistaken for a complete one, because every kind either has a
/// fixed arity or carries explicit counts.
#[test]
fn torn_payload_at_every_offset_is_malformed() {
    let mut payload = Vec::new();
    for req in all_requests() {
        req.encode(&mut payload);
        for cut in 0..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "prefix {cut}/{} of {req:?} decoded",
                payload.len()
            );
        }
    }
    for resp in all_responses() {
        resp.encode(&mut payload);
        for cut in 0..payload.len() {
            assert!(
                Response::decode(&payload[..cut]).is_err(),
                "prefix {cut}/{} of {resp:?} decoded",
                payload.len()
            );
        }
    }
}

/// Trailing bytes after a structurally complete message are rejected —
/// a frame carries exactly one message.
#[test]
fn trailing_garbage_is_malformed() {
    let mut payload = Vec::new();
    for req in all_requests() {
        req.encode(&mut payload);
        payload.push(0x00);
        assert!(matches!(Request::decode(&payload), Err(ProtoError::Malformed(_))), "{req:?}");
    }
}

/// Flipping any single byte of a framed message must surface as a typed
/// error — the CRC covers the payload, and header damage lands on the
/// length checks. No flip may yield a successfully decoded frame.
#[test]
fn any_single_byte_flip_is_detected() {
    let mut payload = Vec::new();
    Request::Query(Query::new().range(2, 1.0, 2.0).limit(3)).encode(&mut payload);
    let wire = frame_of(&payload);
    for i in 0..wire.len() {
        let mut bad = wire.clone();
        bad[i] ^= 0x40;
        match read_frame(&mut bad.as_slice()) {
            Err(
                ProtoError::Truncated
                | ProtoError::Oversized { .. }
                | ProtoError::CrcMismatch
                | ProtoError::Io(_),
            ) => {}
            Ok(Some(p)) => {
                panic!("flip at byte {i} produced an accepted frame ({} bytes)", p.len())
            }
            other => panic!("flip at byte {i}: unexpected {other:?}"),
        }
    }
}

#[test]
fn oversized_declared_length_is_rejected_before_payload() {
    for declared in [MAX_FRAME as u32 + 1, u32::MAX] {
        let mut wire = Vec::new();
        wire.extend_from_slice(&declared.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        // No payload bytes at all: rejection must come from the header.
        match read_frame(&mut wire.as_slice()) {
            Err(ProtoError::Oversized { declared: got }) => assert_eq!(got, declared as usize),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
    // Exactly MAX_FRAME is legal.
    let payload = vec![0xAB; MAX_FRAME];
    let wire = frame_of(&payload);
    assert_eq!(read_frame(&mut wire.as_slice()).unwrap().unwrap(), payload);
}

/// Structurally garbage payloads (valid framing, junk inside) must come
/// back as `Malformed`, never panic or allocate absurdly.
#[test]
fn garbage_payloads_are_malformed() {
    let cases: Vec<Vec<u8>> = vec![
        vec![],                                            // no tag at all
        vec![0x00],                                        // unknown request tag
        vec![0xFF],                                        // unknown tag, high bit set
        vec![0x01, 0xFF, 0xFF],                            // query declaring 65535 conjuncts
        vec![0x02, 0x10, 0x00, 1, 1, 2, 3],                // insert: 16 cells, one short one
        vec![0x02, 0x01, 0x00, 9, 0, 0, 0, 0, 0, 0, 0, 0], // bad cell tag 9
        vec![0x03, 1, 2, 3],                               // delete with a short pk
    ];
    for payload in cases {
        assert!(
            matches!(Request::decode(&payload), Err(ProtoError::Malformed(_))),
            "payload {payload:?} must be Malformed"
        );
    }
    // Response-side: a hostile row count larger than the payload could
    // ever hold must be rejected before the row loop allocates.
    let mut hostile = vec![0x81];
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(Response::decode(&hostile), Err(ProtoError::Malformed(_))));
    // And an unknown error code.
    let mut bad_code = vec![0x87];
    bad_code.extend_from_slice(&999u16.to_le_bytes());
    bad_code.extend_from_slice(&0u32.to_le_bytes());
    assert!(matches!(Response::decode(&bad_code), Err(ProtoError::Malformed(_))));
}

/// A deterministic keyed LCG "fuzzer": a few thousand pseudo-random byte
/// strings through both decoders must never panic (errors are fine).
#[test]
fn random_bytes_never_panic_the_decoders() {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u8
    };
    for round in 0..4_000 {
        let len = round % 61;
        let mut payload = Vec::with_capacity(len + 1);
        // Bias the first byte toward real tags so decoding gets past it.
        payload.push([0x01, 0x02, 0x81, 0x84, 0x87, next()][round % 6]);
        for _ in 0..len {
            payload.push(next());
        }
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }
}

/// The `Rows` payload written from a `RowBlock` — the cell images the
/// executor copied off the pinned pages — is byte for byte the payload the
/// boxed encoder produces from the same rows decoded, so no client can tell
/// which one the server used. Whole rows and projections (reordered,
/// repeated and out-of-range columns, the empty `select`), NULLs and `Int`s,
/// a `LIMIT`, an empty answer; both substrates. A persistent buffered reader
/// then takes the frames back off one stream, one after the other.
#[test]
fn rows_frame_built_from_a_block_is_byte_identical_to_the_boxed_encoder() {
    use hermit_core::Database;
    use hermit_server::proto::{encode_rows, read_frame_into, send_response, send_rows};
    use hermit_storage::paged::{BufferPool, PagedTable, SimulatedPageStore};
    use hermit_storage::{ColumnDef, Schema, TidScheme};
    use std::sync::Arc;

    let schema = || {
        Schema::new(vec![
            ColumnDef::int("pk"),
            ColumnDef::float("host"),
            ColumnDef::float("target"),
            ColumnDef::float_null("maybe"),
            ColumnDef::int("tag"),
        ])
    };
    let fill = |db: &mut Database| {
        for i in 0..2_000i64 {
            let m = ((i * 7) % 2_000) as f64;
            let maybe = if i % 3 == 0 { Value::Null } else { Value::Float(-m) };
            db.insert(&[
                Value::Int(i),
                Value::Float(2.0 * m),
                Value::Float(m),
                maybe,
                Value::Int(-i),
            ])
            .unwrap();
        }
        db.create_baseline_index(1, true).unwrap();
        db.create_hermit_index(2, 1).unwrap();
    };
    let mut mem = Database::new(schema(), 0, TidScheme::Logical);
    fill(&mut mem);
    let pool = Arc::new(BufferPool::new(Arc::new(SimulatedPageStore::new()), 4));
    let mut paged = Database::new_paged(PagedTable::new(schema(), pool), 0);
    fill(&mut paged);

    let mut wire = Vec::new();
    let mut expected = Vec::new();
    let mut scratch = Vec::new();
    for db in [&mem, &paged] {
        for base in [
            Query::new().range(2, 100.0, 399.0),
            Query::new().range(2, 100.0, 399.0).limit(7),
            Query::new().range(0, 10.0, 40.0), // pk is unindexed: the scan
            Query::new().range(2, 5_000.0, 6_000.0), // empty answer
        ] {
            for cols in [vec![0, 1, 2, 3, 4], vec![4, 3, 3, 0], vec![3, 17], vec![]] {
                let result = db.execute(&base.clone().select(cols));
                let block = result.projected.expect("a projection was asked for");
                let rows = block.to_rows();
                assert_eq!(rows.len(), result.rows.len());

                let mut from_block = Vec::new();
                encode_rows(&block, &mut from_block);
                let mut boxed = Vec::new();
                Response::Rows(rows.clone()).encode(&mut boxed);
                assert_eq!(from_block, boxed, "payload bytes");

                // And framed: the same bytes on the wire either way.
                let (mut a, mut b) = (Vec::new(), Vec::new());
                send_rows(&mut a, &block, &mut scratch).unwrap();
                send_response(&mut b, &Response::Rows(rows.clone()), &mut scratch).unwrap();
                assert_eq!(a, b, "frame bytes");
                wire.extend_from_slice(&a);
                expected.push(Response::Rows(rows));
            }
        }
    }
    assert!(expected.iter().any(|r| matches!(r, Response::Rows(rows) if rows.len() == 300)));

    let mut reader = std::io::BufReader::new(wire.as_slice());
    let mut payload = Vec::new();
    for want in &expected {
        assert!(read_frame_into(&mut reader, &mut payload).unwrap());
        assert_eq!(&Response::decode(&payload).unwrap(), want);
    }
    assert!(!read_frame_into(&mut reader, &mut payload).unwrap(), "clean EOF after the last frame");
}
