//! Adversarial decoding: every malformed input class from the
//! PROTOCOL.md error registry must map to its documented code — and
//! nothing may panic, whatever the bytes.

use lbq_geom::Point;
use lbq_proto::{
    decode_frame, encode_frame, validate_request, Decoded, ErrorCode, Frame, KnnRequest,
    WindowRequest, DEFAULT_CLIENT_MAX_PAYLOAD, DEFAULT_SERVER_MAX_PAYLOAD, HEADER_LEN, MAGIC,
    MAX_K, VERSION,
};
use lbq_rng::Xoshiro256ss;

fn sample_request_bytes() -> Vec<u8> {
    let mut b = Vec::new();
    encode_frame(
        &Frame::KnnRequest(KnnRequest {
            request_id: 42,
            q: Point::new(2.0, 3.0),
            k: 2,
        }),
        &mut b,
    )
    .expect("encode");
    b
}

fn err_code(buf: &[u8]) -> ErrorCode {
    match decode_frame(buf, DEFAULT_SERVER_MAX_PAYLOAD) {
        Err(e) => e.code,
        other => panic!("expected a wire error, got {other:?}"),
    }
}

#[test]
fn empty_and_truncated_headers_are_incomplete() {
    for n in 0..HEADER_LEN {
        let buf = sample_request_bytes();
        match decode_frame(&buf[..n], DEFAULT_SERVER_MAX_PAYLOAD)
            .expect("short reads are not errors")
        {
            Decoded::Incomplete { need } => assert_eq!(need, HEADER_LEN),
            other => panic!("{n}-byte buffer decoded to {other:?}"),
        }
    }
}

#[test]
fn truncated_payload_is_incomplete_with_exact_need() {
    let full = sample_request_bytes();
    for n in HEADER_LEN..full.len() {
        match decode_frame(&full[..n], DEFAULT_SERVER_MAX_PAYLOAD)
            .expect("short reads are not errors")
        {
            Decoded::Incomplete { need } => assert_eq!(need, full.len()),
            other => panic!("{n}-byte prefix decoded to {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_fatal() {
    let mut buf = sample_request_bytes();
    buf[0] = b'X';
    let code = err_code(&buf);
    assert_eq!(code, ErrorCode::BadMagic);
    assert!(code.is_fatal());
}

#[test]
fn unknown_version_is_fatal() {
    let mut buf = sample_request_bytes();
    buf[4] = VERSION + 1;
    let code = err_code(&buf);
    assert_eq!(code, ErrorCode::UnsupportedVersion);
    assert!(code.is_fatal());
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let mut buf = sample_request_bytes();
    // Claim a u32::MAX payload: must be FrameTooLarge, instantly, with
    // no attempt to buffer 4 GiB.
    buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let code = err_code(&buf);
    assert_eq!(code, ErrorCode::FrameTooLarge);
    assert!(code.is_fatal());
}

#[test]
fn reserved_bytes_are_ignored_on_receive() {
    let mut buf = sample_request_bytes();
    buf[6] = 0xAB;
    buf[7] = 0xCD;
    match decode_frame(&buf, DEFAULT_SERVER_MAX_PAYLOAD).expect("reserved bytes must not error") {
        Decoded::Frame { frame, .. } => assert_eq!(frame.request_id(), 42),
        other => panic!("decoded to {other:?}"),
    }
}

#[test]
fn unknown_frame_type_is_skippable_with_request_id() {
    let mut buf = sample_request_bytes();
    buf[5] = 0x77;
    match decode_frame(&buf, DEFAULT_SERVER_MAX_PAYLOAD).expect("unknown types are not errors") {
        Decoded::Unknown {
            frame_type,
            request_id,
            consumed,
        } => {
            assert_eq!(frame_type, 0x77);
            assert_eq!(
                request_id, 42,
                "leading u64 is surfaced as the correlation id"
            );
            assert_eq!(consumed, buf.len());
            assert!(!ErrorCode::UnknownFrameType.is_fatal());
        }
        other => panic!("decoded to {other:?}"),
    }
}

#[test]
fn payload_shorter_than_fields_is_malformed() {
    let mut buf = sample_request_bytes();
    // Shrink the declared length below the 28 bytes a kNN request needs
    // (and truncate the buffer to match, so it is "complete").
    buf[8..12].copy_from_slice(&20u32.to_le_bytes());
    buf.truncate(HEADER_LEN + 20);
    assert_eq!(err_code(&buf), ErrorCode::Malformed);
}

#[test]
fn trailing_payload_bytes_are_malformed() {
    let mut buf = sample_request_bytes();
    buf[8..12].copy_from_slice(&33u32.to_le_bytes());
    buf.extend_from_slice(&[0, 0, 0, 0, 0]);
    assert_eq!(err_code(&buf), ErrorCode::Malformed);
}

#[test]
fn adversarial_count_cannot_force_allocation() {
    // Hand-build a kNN response frame whose result count claims
    // 500 million items inside a 100-byte payload.
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(0x20); // KnnResponse
    buf.extend_from_slice(&[0, 0]);
    let payload_len: usize = 8 + 8 + 1 + 1 + 56 + 16 + 4 + 100;
    buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
    buf.extend_from_slice(&7u64.to_le_bytes()); // request_id
    buf.extend_from_slice(&1u64.to_le_bytes()); // query_id
    buf.push(0); // flags
    buf.push(7); // stage_count
    buf.extend_from_slice(&[0u8; 56]); // stages
    buf.extend_from_slice(&[0u8; 16]); // query point
    buf.extend_from_slice(&0u32.to_le_bytes()); // tpnn_queries
    buf.extend_from_slice(&500_000_000u32.to_le_bytes()); // result count
    buf.extend_from_slice(&[0u8; 96]); // padding to the declared length
    assert_eq!(buf.len(), HEADER_LEN + payload_len);
    assert_eq!(err_code(&buf), ErrorCode::Malformed);
}

#[test]
fn non_convex_polygon_is_malformed() {
    use lbq_core::{NnResponse, NnValidity};
    use lbq_geom::{ConvexPolygon, Rect};
    use lbq_proto::KnnResponseFrame;
    // Encode a valid response, then corrupt the polygon vertex bytes to
    // a self-intersecting (CW) ring.
    let square = vec![
        Point::new(0.0, 0.0),
        Point::new(4.0, 0.0),
        Point::new(4.0, 4.0),
        Point::new(0.0, 4.0),
    ];
    let frame = Frame::KnnResponse(Box::new(KnnResponseFrame {
        request_id: 1,
        query_id: 2,
        from_cache: false,
        tier: lbq_proto::CacheTier::Tree,
        stages: Default::default(),
        body: NnResponse {
            query: Point::new(1.0, 1.0),
            result: Vec::new(),
            validity: NnValidity {
                pairs: Vec::new(),
                polygon: ConvexPolygon::new(square),
                universe: Rect::new(0.0, 0.0, 4.0, 4.0),
            },
            tpnn_queries: 0,
        },
    }));
    let mut bytes = Vec::new();
    encode_frame(&frame, &mut bytes).expect("encode");
    // The vertex list starts after preamble(74) + query(16) + tpnn(4) +
    // result count(4) + universe(32) + vertex count(4). Swap vertices 1
    // and 3 (16 bytes each) to reverse the winding.
    let vstart = HEADER_LEN + 74 + 16 + 4 + 4 + 32 + 4;
    let (a, b) = (vstart + 16, vstart + 48);
    for i in 0..16 {
        bytes.swap(a + i, b + i);
    }
    match decode_frame(&bytes, DEFAULT_CLIENT_MAX_PAYLOAD) {
        Err(e) => {
            assert_eq!(e.code, ErrorCode::Malformed);
            assert!(e.detail.contains("polygon"), "detail: {}", e.detail);
        }
        other => panic!("corrupted polygon decoded to {other:?}"),
    }
}

#[test]
fn bad_flags_and_stage_count_are_malformed() {
    let frame = valid_error_like_knn_response();
    let mut bytes = Vec::new();
    encode_frame(&frame, &mut bytes).expect("encode");
    let mut bad_flags = bytes.clone();
    bad_flags[HEADER_LEN + 16] = 0x82; // flags byte: set an undefined bit
    assert_eq!(err_code(&bad_flags), ErrorCode::Malformed);
    let mut both_tiers = bytes.clone();
    both_tiers[HEADER_LEN + 16] = 0x03; // cache AND hot-voronoi: exclusive
    assert_eq!(err_code(&both_tiers), ErrorCode::Malformed);
    let mut bad_stages = bytes;
    bad_stages[HEADER_LEN + 17] = 6; // stage_count byte (v1 fixes it at 7)
    assert_eq!(err_code(&bad_stages), ErrorCode::Malformed);
}

fn valid_error_like_knn_response() -> Frame {
    use lbq_core::{NnResponse, NnValidity};
    use lbq_geom::{ConvexPolygon, Rect};
    use lbq_proto::KnnResponseFrame;
    Frame::KnnResponse(Box::new(KnnResponseFrame {
        request_id: 1,
        query_id: 2,
        from_cache: true,
        tier: lbq_proto::CacheTier::Cache,
        stages: Default::default(),
        body: NnResponse {
            query: Point::new(1.0, 1.0),
            result: Vec::new(),
            validity: NnValidity {
                pairs: Vec::new(),
                polygon: ConvexPolygon::new(Vec::new()),
                universe: Rect::new(0.0, 0.0, 4.0, 4.0),
            },
            tpnn_queries: 0,
        },
    }))
}

#[test]
fn invalid_utf8_detail_is_malformed() {
    // Error frame with a 2-byte detail of invalid UTF-8.
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(0x3F);
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&16u32.to_le_bytes());
    buf.extend_from_slice(&1u64.to_le_bytes());
    buf.extend_from_slice(&5u32.to_le_bytes());
    buf.extend_from_slice(&2u16.to_le_bytes());
    buf.extend_from_slice(&[0xFF, 0xFE]);
    assert_eq!(err_code(&buf), ErrorCode::Malformed);
}

#[test]
fn decode_never_panics_on_random_bytes() {
    let mut rng = Xoshiro256ss::seed_from_u64(0xFEED_F00D);
    for round in 0..20_000 {
        let n = rng.gen_index(96);
        let mut buf: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        // Half the rounds: start from a real header so the payload
        // decoders get exercised too.
        if round % 2 == 0 && buf.len() >= 6 {
            buf[..4].copy_from_slice(&MAGIC);
            buf[4] = VERSION;
        }
        let _ = decode_frame(&buf, DEFAULT_SERVER_MAX_PAYLOAD);
    }
}

#[test]
fn decode_never_panics_on_mutated_valid_frames() {
    let mut rng = Xoshiro256ss::seed_from_u64(0x0BAD_5EED);
    let base = {
        let frame = valid_error_like_knn_response();
        let mut b = Vec::new();
        encode_frame(&frame, &mut b).expect("encode");
        b
    };
    for _ in 0..20_000 {
        let mut buf = base.clone();
        for _ in 0..1 + rng.gen_index(4) {
            let at = rng.gen_index(buf.len());
            buf[at] = (rng.next_u64() & 0xFF) as u8;
        }
        let _ = decode_frame(&buf, DEFAULT_CLIENT_MAX_PAYLOAD);
    }
}

// ------------------------------------------------------ request validation

#[test]
fn validation_rejects_bad_knn_requests() {
    let ok = |k, q| {
        validate_request(&Frame::KnnRequest(KnnRequest {
            request_id: 1,
            q,
            k,
        }))
    };
    assert!(ok(1, Point::new(0.0, 0.0)).is_ok());
    assert!(ok(MAX_K, Point::new(0.0, 0.0)).is_ok());
    for (k, q) in [
        (0, Point::new(0.0, 0.0)),
        (MAX_K + 1, Point::new(0.0, 0.0)),
        (1, Point::new(f64::NAN, 0.0)),
        (1, Point::new(0.0, f64::INFINITY)),
    ] {
        let e = ok(k, q).expect_err("must be rejected");
        assert_eq!(e.code, ErrorCode::InvalidRequest);
        assert!(!e.code.is_fatal(), "invalid requests keep the connection");
    }
}

#[test]
fn validation_rejects_bad_window_requests() {
    let ok = |c, hx, hy| {
        validate_request(&Frame::WindowRequest(WindowRequest {
            request_id: 1,
            c,
            hx,
            hy,
        }))
    };
    assert!(ok(Point::new(0.0, 0.0), 1.0, 2.0).is_ok());
    for (c, hx, hy) in [
        (Point::new(0.0, 0.0), 0.0, 1.0),
        (Point::new(0.0, 0.0), 1.0, -2.0),
        (Point::new(0.0, 0.0), f64::NAN, 1.0),
        (Point::new(0.0, 0.0), 1.0, f64::INFINITY),
        (Point::new(f64::NAN, 0.0), 1.0, 1.0),
    ] {
        let e = ok(c, hx, hy).expect_err("must be rejected");
        assert_eq!(e.code, ErrorCode::InvalidRequest);
    }
}

#[test]
fn validation_rejects_role_violations_fatally() {
    let e =
        validate_request(&valid_error_like_knn_response()).expect_err("responses are not requests");
    assert_eq!(e.code, ErrorCode::Malformed);
    assert!(e.code.is_fatal());
}
