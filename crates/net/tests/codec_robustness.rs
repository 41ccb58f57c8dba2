//! Adversarial codec tests: the wire decoder's robustness contract.
//!
//! Two halves:
//!
//! * **Losslessness** — every `Query`, `QueryOutput`, and `ServiceError`
//!   shape roundtrips through a full frame bit-exactly.
//! * **Hostility** — truncation at every byte offset, a bit flip at every
//!   byte, lying length prefixes (outer and internal): the decoder returns
//!   a typed [`TransportError`], never panics, and never allocates a
//!   buffer an unvalidated length asked for.

use std::time::Duration;

use wazi_core::{
    CostEstimate, EngineError, IndexError, PartitionDecision, Query, QueryOutput, QueryReport,
    StrategyDecisions, UpdateOp,
};
use wazi_geom::{Point, Rect};
use wazi_net::wire::{
    checksum, read_raw_frame, CHECKSUM_LEN, DEFAULT_MAX_FRAME_LEN, HEADER_LEN, MAGIC, VERSION,
};
use wazi_net::{Frame, FrameBody, TransportError, WireError};
use wazi_service::{BatchSummary, QueryResponse, ServiceError, SubmitOptions};
use wazi_storage::ExecStats;

fn roundtrip(frame: &Frame) -> Frame {
    let bytes = frame.encode();
    Frame::decode(&bytes, DEFAULT_MAX_FRAME_LEN).expect("roundtrip decode")
}

fn every_query() -> Vec<Query> {
    vec![
        Query::range(Rect::from_coords(0.1, 0.2, 0.7, 0.9)),
        Query::range_count(Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
        Query::range_stream(Rect::from_coords(0.25, 0.25, 0.5, 0.5)),
        Query::point(Point::new(0.125, 0.875)),
        Query::knn(Point::new(0.5, 0.5), 17),
    ]
}

fn sample_stats() -> ExecStats {
    ExecStats {
        nodes_visited: 12,
        bbs_checked: 34,
        pages_scanned: 5,
        points_scanned: 678,
        results: 9,
        leaves_skipped: 2,
        projection_ns: 1_234,
        scan_ns: 56_789,
    }
}

fn response_with(output: QueryOutput) -> QueryResponse {
    QueryResponse {
        report: QueryReport {
            output,
            stats: sample_stats(),
            latency_ns: 42_000,
        },
        batch: BatchSummary {
            size: 7,
            latency_ns: 90_000,
            fused_queries: 5,
            fused_points: 1,
            fused_knn: 1,
            shards_used: 2,
            shared_stats: sample_stats(),
            decisions: StrategyDecisions {
                range: Some(PartitionDecision {
                    queries: 5,
                    shards: 2,
                    shared_visits: 7,
                    estimate: Some(CostEstimate {
                        fused_ns: 60,
                        fused_parallel_ns: Some(40),
                        shards: 2,
                    }),
                    actual_ns: 45,
                }),
                point: Some(PartitionDecision {
                    queries: 1,
                    shards: 1,
                    shared_visits: 0,
                    estimate: None,
                    actual_ns: 5,
                }),
                knn: Some(PartitionDecision {
                    queries: 1,
                    shards: 1,
                    shared_visits: 3,
                    estimate: Some(CostEstimate {
                        fused_ns: 8,
                        fused_parallel_ns: None,
                        shards: 1,
                    }),
                    actual_ns: 9,
                }),
            },
            epoch: 3,
            degraded: true,
        },
        queue_ns: 11_000,
        total_ns: 101_000,
    }
}

fn every_output() -> Vec<QueryOutput> {
    vec![
        QueryOutput::Points(vec![Point::new(0.1, 0.2), Point::new(0.3, 0.4)]),
        QueryOutput::Points(Vec::new()),
        QueryOutput::Count(123_456),
        QueryOutput::Streamed(7),
        QueryOutput::Found(true),
        QueryOutput::Found(false),
        QueryOutput::Neighbors(vec![Point::new(0.5, 0.5)]),
    ]
}

fn every_service_error() -> Vec<ServiceError> {
    vec![
        ServiceError::Engine(EngineError::Index(IndexError::Unsupported(
            UpdateOp::Insert,
        ))),
        ServiceError::Engine(EngineError::Index(IndexError::UpdateUnsupported {
            index: "Flood".into(),
            op: UpdateOp::Delete,
        })),
        ServiceError::Engine(EngineError::Index(IndexError::InvalidInput(
            "page size must be positive".into(),
        ))),
        ServiceError::Engine(EngineError::InvalidQuery("empty rectangle".into())),
        ServiceError::Engine(EngineError::ExecutionPanicked("oom in kernel".into())),
        ServiceError::Closed,
        ServiceError::WorkerDied,
        ServiceError::ExecutionPanicked {
            message: "kernel overflow".into(),
        },
        ServiceError::DeadlineExceeded,
        ServiceError::WritesUnsupported,
    ]
}

#[test]
fn every_query_shape_roundtrips() {
    for query in every_query() {
        for options in [
            SubmitOptions::new(),
            SubmitOptions::new().deadline(Duration::from_micros(1_500)),
        ] {
            let frame = Frame::request(99, query.clone(), options);
            assert_eq!(roundtrip(&frame), frame, "query {query:?}");
        }
    }
}

#[test]
fn every_output_shape_roundtrips_inside_a_full_response() {
    for output in every_output() {
        let frame = Frame {
            request_id: u64::MAX,
            body: FrameBody::Response(Box::new(response_with(output.clone()))),
        };
        assert_eq!(roundtrip(&frame), frame, "output {output:?}");
    }
}

#[test]
fn every_service_error_shape_roundtrips() {
    for err in every_service_error() {
        let frame = Frame {
            request_id: 3,
            body: FrameBody::Error(WireError::Service(err.clone())),
        };
        assert_eq!(roundtrip(&frame), frame, "error {err:?}");
    }
    let transport = Frame {
        request_id: 4,
        body: FrameBody::Error(WireError::Transport("bad tag 200".into())),
    };
    assert_eq!(roundtrip(&transport), transport);
    let rejected = Frame {
        request_id: 5,
        body: FrameBody::Rejected,
    };
    assert_eq!(roundtrip(&rejected), rejected);
}

/// A representative corpus spanning every frame kind and payload encoder.
fn corpus() -> Vec<Frame> {
    let mut frames: Vec<Frame> = every_query()
        .into_iter()
        .map(|q| {
            Frame::request(
                1,
                q,
                SubmitOptions::new().deadline(Duration::from_millis(2)),
            )
        })
        .collect();
    frames.extend(every_output().into_iter().map(|output| Frame {
        request_id: 2,
        body: FrameBody::Response(Box::new(response_with(output))),
    }));
    frames.extend(every_service_error().into_iter().map(|err| Frame {
        request_id: 3,
        body: FrameBody::Error(WireError::Service(err)),
    }));
    frames.push(Frame {
        request_id: 4,
        body: FrameBody::Rejected,
    });
    frames
}

#[test]
fn truncation_at_every_byte_offset_is_a_typed_error() {
    for frame in corpus() {
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut], DEFAULT_MAX_FRAME_LEN)
                .expect_err("truncated frame must not decode");
            assert!(
                matches!(
                    err,
                    TransportError::Truncated(_)
                        | TransportError::BadMagic(_)
                        | TransportError::BadVersion(_)
                ),
                "cut at {cut}/{} gave {err:?}",
                bytes.len()
            );
        }
    }
}

#[test]
fn truncated_streams_are_a_lost_connection_not_a_hang() {
    for frame in corpus() {
        let bytes = frame.encode();
        // Every non-empty prefix: mid-frame EOF must be ConnectionLost;
        // only the empty prefix is a clean end-of-stream.
        for cut in [1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            let mut cursor = std::io::Cursor::new(&bytes[..cut]);
            let err = read_raw_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN)
                .expect_err("mid-frame EOF must error");
            assert_eq!(err, TransportError::ConnectionLost, "cut at {cut}");
        }
        let mut empty = std::io::Cursor::new(&[][..]);
        assert_eq!(
            read_raw_frame(&mut empty, DEFAULT_MAX_FRAME_LEN).unwrap(),
            None
        );
    }
}

#[test]
fn a_single_bit_flip_anywhere_is_caught() {
    for frame in corpus() {
        let bytes = frame.encode();
        for offset in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[offset] ^= 0x10;
            let result = Frame::decode(&corrupted, DEFAULT_MAX_FRAME_LEN);
            let err = match result {
                Err(err) => err,
                Ok(decoded) => {
                    panic!("flip at byte {offset} decoded as {decoded:?} (original {frame:?})")
                }
            };
            // Flips past the header can only be caught by the checksum.
            if offset >= HEADER_LEN && offset < bytes.len() - CHECKSUM_LEN {
                assert_eq!(
                    err,
                    TransportError::ChecksumMismatch,
                    "payload flip at {offset}"
                );
            }
        }
    }
}

/// An update operation travels by name; a name this version does not know
/// (a newer peer, or a forged frame) decodes to a typed protocol error.
#[test]
fn unknown_update_op_is_a_protocol_error() {
    for error in [
        IndexError::Unsupported(UpdateOp::Delete),
        IndexError::UpdateUnsupported {
            index: "STR".into(),
            op: UpdateOp::Delete,
        },
    ] {
        let frame = Frame {
            request_id: 3,
            body: FrameBody::Error(WireError::Service(ServiceError::Engine(
                EngineError::Index(error),
            ))),
        };
        let mut bytes = frame.encode();
        // Rename the op in place, same length, and re-seal the checksum so
        // only the name is wrong.
        let body_end = bytes.len() - CHECKSUM_LEN;
        let at = bytes[..body_end]
            .windows(6)
            .rposition(|w| w == b"delete")
            .expect("the op travels by name");
        bytes[at..at + 6].copy_from_slice(b"vacuum");
        let reseal = checksum(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&reseal.to_le_bytes());
        match Frame::decode(&bytes, DEFAULT_MAX_FRAME_LEN) {
            Err(TransportError::Protocol(message)) => {
                assert!(message.contains("vacuum"), "{message}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
}

#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    // A header declaring a payload absurdly larger than the cap: the typed
    // refusal must carry the declared length, and arrive without the
    // decoder ever allocating the buffer (the frame has no such bytes).
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.push(VERSION);
    header.push(1); // request
    header.extend_from_slice(&7u64.to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = Frame::decode(&header, 1024).expect_err("oversized frame must not decode");
    assert_eq!(
        err,
        TransportError::FrameTooLarge {
            len: u32::MAX,
            max: 1024
        }
    );
    // Same through the stream reader: only the 16 header bytes are read.
    let mut cursor = std::io::Cursor::new(header.clone());
    let err = read_raw_frame(&mut cursor, 1024).expect_err("oversized frame must not stream");
    assert!(matches!(err, TransportError::FrameTooLarge { .. }));
    assert_eq!(cursor.position(), HEADER_LEN as u64);
}

#[test]
fn lying_internal_point_count_is_truncation_not_allocation() {
    // Take a valid Response frame carrying a point vector, inflate the
    // vector's internal count field, and re-seal the checksum so only the
    // *internal* length lies. The decoder must report truncation — it
    // validates the count against the bytes remaining before reserving.
    let frame = Frame {
        request_id: 8,
        body: FrameBody::Response(Box::new(response_with(QueryOutput::Points(vec![
            Point::new(0.1, 0.2),
            Point::new(0.3, 0.4),
        ])))),
    };
    let bytes = frame.encode();
    // The payload starts with the report: output tag (u8) then the point
    // count (u32). Inflate it to claim ~268M points (4 GiB of data).
    let count_offset = HEADER_LEN + 1;
    let original = u32::from_le_bytes(bytes[count_offset..count_offset + 4].try_into().unwrap());
    assert_eq!(original, 2, "test assumes the count sits after the tag");
    let mut lying = bytes.clone();
    lying[count_offset..count_offset + 4].copy_from_slice(&0x0FFF_FFFFu32.to_le_bytes());
    let body_end = lying.len() - CHECKSUM_LEN;
    let reseal = checksum(&lying[..body_end]);
    lying[body_end..].copy_from_slice(&reseal.to_le_bytes());
    let err = Frame::decode(&lying, DEFAULT_MAX_FRAME_LEN).expect_err("lying count must fail");
    assert!(
        matches!(err, TransportError::Truncated(_)),
        "expected a truncation, got {err:?}"
    );
}

#[test]
fn unknown_tags_are_protocol_errors() {
    // Bad frame kind in the header.
    let frame = Frame {
        request_id: 9,
        body: FrameBody::Rejected,
    };
    let mut bytes = frame.encode();
    bytes[3] = 200;
    let body_end = bytes.len() - CHECKSUM_LEN;
    let reseal = checksum(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&reseal.to_le_bytes());
    assert_eq!(
        Frame::decode(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap_err(),
        TransportError::UnknownKind(200)
    );

    // Bad query tag inside a request payload (resealed so the checksum
    // passes and the decoder actually reaches the tag).
    let request = Frame::request(10, Query::point(Point::new(0.5, 0.5)), SubmitOptions::new());
    let mut bytes = request.encode();
    bytes[HEADER_LEN] = 250;
    let body_end = bytes.len() - CHECKSUM_LEN;
    let reseal = checksum(&bytes[..body_end]);
    bytes[body_end..].copy_from_slice(&reseal.to_le_bytes());
    let err = Frame::decode(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap_err();
    assert!(
        matches!(err, TransportError::Protocol(_)),
        "expected a protocol error, got {err:?}"
    );
}

#[test]
fn a_decision_with_zero_shards_is_a_protocol_error() {
    // Every run has at least one shard: a zero on the wire is a lie the
    // decoder refuses by type, without panicking.
    let mut response = response_with(QueryOutput::Count(1));
    if let Some(range) = response.batch.decisions.range.as_mut() {
        range.shards = 0;
    }
    let frame = Frame {
        request_id: 12,
        body: FrameBody::Response(Box::new(response)),
    };
    let err = Frame::decode(&frame.encode(), DEFAULT_MAX_FRAME_LEN).unwrap_err();
    assert!(
        matches!(&err, TransportError::Protocol(message) if message.contains("0 shards")),
        "expected a protocol error, got {err:?}"
    );
}

#[test]
fn trailing_bytes_after_a_frame_are_refused() {
    let frame = Frame {
        request_id: 11,
        body: FrameBody::Rejected,
    };
    let mut bytes = frame.encode();
    bytes.push(0);
    let err = Frame::decode(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap_err();
    assert!(matches!(err, TransportError::Protocol(_)), "got {err:?}");
}

#[test]
fn nan_and_extreme_floats_survive_the_wire() {
    let weird = vec![
        Point::new(f64::NAN, f64::NEG_INFINITY),
        Point::new(f64::MIN_POSITIVE, -0.0),
        Point::new(f64::MAX, f64::EPSILON),
    ];
    let frame = Frame {
        request_id: 12,
        body: FrameBody::Response(Box::new(response_with(QueryOutput::Neighbors(
            weird.clone(),
        )))),
    };
    let bytes = frame.encode();
    let decoded = Frame::decode(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
    let FrameBody::Response(response) = decoded.body else {
        panic!("wrong body kind");
    };
    let QueryOutput::Neighbors(points) = response.report.output else {
        panic!("wrong output kind");
    };
    for (a, b) in weird.iter().zip(&points) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
    }
}
