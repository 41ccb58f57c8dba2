//! Chaos acceptance tests for the TCP transport: under a seeded matrix of
//! wire faults — corrupted frames, truncated writes, read stalls, dropped
//! connections, a writer killed mid-drain — **every request resolves** (a
//! response or a typed error, never a hang), the server survives to serve
//! the next request, and answers routed over TCP are bit-identical to
//! in-process submission for every index of the paper's overview suite:
//! the wire changes transport, never answers.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use wazi_bench::{build_index, IndexKind};
use wazi_core::{Query, QueryEngine, QueryOutput, SpatialIndex};
use wazi_net::{
    wire, Client, ClientConfig, Frame, FrameBody, NetError, Server, TransportError, WireFault,
};
use wazi_service::{Fault, FaultPlan, FullQueuePolicy, Service, SubmitOptions};
use wazi_workload::{
    generate_dataset, generate_mixed_batch, generate_queries, reconnect_sessions, Region,
    SELECTIVITIES,
};

fn fixture(kind: IndexKind, n_queries: usize) -> (Arc<dyn SpatialIndex>, Vec<Query>) {
    let region = Region::CaliNev;
    let points = generate_dataset(region, 3_000);
    let train = generate_queries(region, 100, SELECTIVITIES[1]);
    let batch = generate_mixed_batch(region, n_queries, SELECTIVITIES[2], 0x7C9);
    let built = build_index(kind, &points, &train, 128);
    (Arc::from(built.index), batch)
}

fn chaos_client(addr: std::net::SocketAddr) -> Client {
    Client::connect(
        addr,
        ClientConfig {
            request_timeout: Duration::from_secs(5),
            max_retries: 8,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(50),
            ..ClientConfig::default()
        },
    )
    .expect("connect")
}

/// The transport identity guarantee, across every overview index: a query
/// answered over loopback TCP produces output bit-identical to a solo
/// engine execution and to an in-process submission on the very same
/// service instance.
#[test]
fn tcp_responses_are_bit_identical_to_in_process_for_every_index() {
    for kind in IndexKind::OVERVIEW {
        let (index, queries) = fixture(kind, 40);
        let reference: Vec<QueryOutput> = {
            let engine = QueryEngine::new(index.as_ref());
            queries
                .iter()
                .map(|q| engine.execute(q).expect("solo execution").output)
                .collect()
        };

        let service = Service::builder(Arc::clone(&index)).start();
        let server = Server::bind(service, "127.0.0.1:0").expect("bind");
        let client = chaos_client(server.local_addr());

        for (i, query) in queries.iter().enumerate() {
            let over_tcp = client
                .request(query.clone())
                .unwrap_or_else(|err| panic!("{kind:?} query {i} over tcp: {err}"));
            // In-process, on the same service the server fronts.
            let in_process = server
                .service()
                .submit(query.clone())
                .expect("in-process submit")
                .ticket()
                .expect("accepted")
                .wait()
                .expect("in-process response");
            assert_eq!(
                over_tcp.report.output, reference[i],
                "{kind:?} query {i}: tcp vs solo"
            );
            assert_eq!(
                in_process.report.output, reference[i],
                "{kind:?} query {i}: in-process vs solo"
            );
        }

        drop(client);
        let stats = server.shutdown();
        assert_eq!(stats.connections_opened, stats.connections_drained);
    }
}

/// The tentpole: a seeded chaos matrix over every injectable wire fault
/// kind, including an explicit writer kill mid-drain. Every request
/// resolves through the retrying client, outputs stay bit-identical to
/// solo execution, the server keeps serving afterwards, and connection
/// accounting balances.
#[test]
fn wire_chaos_matrix_every_request_resolves() {
    const N: usize = 60;
    let (index, queries) = fixture(IndexKind::Wazi, N);
    let engine = QueryEngine::new(index.as_ref());
    let expected: Vec<QueryOutput> = queries
        .iter()
        .map(|q| engine.execute(q).expect("solo execution").output)
        .collect();

    for seed in [1u64, 7, 42] {
        // Seeded faults over the early ordinals plus a writer kill: with
        // retries, arrival ordinals overshoot N, so plan over 2N.
        let mut plan = WireFault::seeded_plan(seed, N as u64, 10);
        plan = plan.with(N as u64 / 2, WireFault::KillWriter);
        let plan = Arc::new(plan);
        assert!(plan.schedule().count() >= 5, "seed {seed}: thin schedule");

        let service = Service::builder(Arc::clone(&index)).start();
        let server = Server::builder(service)
            .wire_faults(Arc::clone(&plan))
            .bind("127.0.0.1:0")
            .expect("bind");
        let client = chaos_client(server.local_addr());

        for (i, query) in queries.iter().enumerate() {
            let response = client
                .request(query.clone())
                .unwrap_or_else(|err| panic!("seed {seed} query {i} did not resolve: {err}"));
            assert_eq!(
                response.report.output, expected[i],
                "seed {seed} query {i}: output must survive the chaos"
            );
        }

        assert!(
            plan.injected() > 0,
            "seed {seed}: no fault actually fired — the matrix tested nothing"
        );
        assert!(
            client.retries() > 0,
            "seed {seed}: the client never had to retry"
        );

        // The server must still be serving: one more request, clean.
        let post = client
            .request(queries[0].clone())
            .expect("post-chaos request");
        assert_eq!(post.report.output, expected[0]);

        drop(client);
        let stats = server.shutdown();
        assert_eq!(
            stats.connections_opened, stats.connections_drained,
            "seed {seed}: every connection must drain, severed or not"
        );
        assert!(
            stats.connections_severed > 0,
            "seed {seed}: drop/truncate faults must sever at least one connection"
        );
        assert_eq!(
            stats.submitted,
            stats.completed + stats.shed + stats.timed_out,
            "seed {seed}: no ticket left behind"
        );
    }
}

/// Server shutdown while requests are in flight: the drain flushes every
/// response it can, the client sees either an answer or a typed error
/// (`Closed` once the service refuses new work), and shutdown returns —
/// never hangs.
#[test]
fn shutdown_mid_traffic_drains_and_resolves_every_request() {
    let (index, queries) = fixture(IndexKind::Wazi, 40);
    let service = Service::builder(index).start();
    let server = Server::bind(service, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let pump = std::thread::spawn(move || {
        let client = Client::connect(
            addr,
            ClientConfig {
                request_timeout: Duration::from_secs(2),
                max_retries: 0,
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        let mut outcomes = Vec::new();
        for query in queries {
            outcomes.push(client.request(query));
        }
        outcomes
    });

    // Let some traffic through, then pull the plug mid-stream.
    std::thread::sleep(Duration::from_millis(30));
    let stats = server.shutdown();

    let outcomes = pump.join().expect("client thread");
    let mut answered = 0usize;
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Ok(_) => answered += 1,
            Err(NetError::Service(_) | NetError::Rejected | NetError::Transport(_)) => {}
            #[allow(unreachable_patterns)]
            Err(other) => panic!("request {i}: unexpected outcome {other:?}"),
        }
    }
    assert!(answered > 0, "the drain must have flushed some responses");
    assert_eq!(stats.connections_opened, stats.connections_drained);
}

/// The retrying client vs a saturated service: a tiny Reject queue sheds
/// aggressively, but backoff-with-retry completes the full workload from
/// several concurrent clients anyway — transient 429s are absorbed, not
/// surfaced.
#[test]
fn retrying_client_completes_workload_under_rejected_saturation() {
    const CLIENTS: usize = 3;
    let (index, queries) = fixture(IndexKind::Wazi, 120);
    let engine = QueryEngine::new(index.as_ref());
    let expected: Vec<QueryOutput> = queries
        .iter()
        .map(|q| engine.execute(q).expect("solo execution").output)
        .collect();

    // Stall the lone worker on every early batch: with execution held for
    // milliseconds while three clients keep submitting into a 2-slot
    // Reject queue, shedding is guaranteed rather than a scheduling race
    // (without the stalls, a fast engine can drain between submissions
    // and the shed assertion below turns flaky).
    let mut stalls = FaultPlan::new();
    for seq in 0..12 {
        stalls = stalls.with(seq, Fault::ExecDelay(Duration::from_millis(3)));
    }
    let service = Service::builder(Arc::clone(&index))
        .queue_capacity(2)
        .max_batch(2)
        .workers(1)
        .on_full(FullQueuePolicy::Reject)
        .fault_plan(Arc::new(stalls))
        .start();
    let server = Server::bind(service, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let schedules = reconnect_sessions(queries.clone(), CLIENTS, 50_000.0, 15, 0.25, 9);
    let mut rejections_seen = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|schedule| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut rejections = 0u64;
                    // One fresh connection per epoch: the reconnect-heavy
                    // shape the schedule generator encodes.
                    for epoch in &schedule.epochs {
                        let client = Client::connect(
                            addr,
                            ClientConfig {
                                request_timeout: Duration::from_secs(5),
                                max_retries: 64,
                                backoff_base: Duration::from_micros(500),
                                backoff_max: Duration::from_millis(10),
                                retry_rejected: true,
                                jitter_seed: 0x1000 + schedule.client as u64,
                                ..ClientConfig::default()
                            },
                        )
                        .expect("connect");
                        for arrival in &epoch.arrivals {
                            let response = client
                                .request(arrival.query.clone())
                                .expect("must complete under saturation");
                            let solo = engine
                                .execute(&arrival.query)
                                .expect("solo execution")
                                .output;
                            assert_eq!(response.report.output, solo);
                        }
                        rejections += client.rejections_seen();
                    }
                    rejections
                })
            })
            .collect();
        for handle in handles {
            rejections_seen += handle.join().expect("client thread");
        }
    });

    assert!(
        rejections_seen > 0,
        "queue of 2 under 3 bursty clients must have shed something, or the \
         test exercised nothing"
    );
    let stats = server.shutdown();
    assert_eq!(stats.connections_opened, stats.connections_drained);
    // Transitivity check against the reference outputs (the per-request
    // asserts above used solo execution directly).
    assert_eq!(expected.len(), 120);
}

/// Malformed input containment: a payload that frames correctly but does
/// not decode is answered with a typed error frame *on a connection that
/// keeps working*; wire garbage (framing violation) severs only that
/// connection, with the server intact either way.
#[test]
fn malformed_input_gets_typed_errors_and_never_kills_the_server() {
    let (index, queries) = fixture(IndexKind::Wazi, 4);
    let service = Service::builder(index).start();
    let server = Server::bind(service, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // 1. Valid framing, garbage payload: typed error frame, connection
    //    survives to serve a well-formed request.
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut garbage = Frame::request(77, queries[0].clone(), SubmitOptions::new()).encode();
        garbage[wire::HEADER_LEN] = 250; // unknown query tag
        let body_end = garbage.len() - wire::CHECKSUM_LEN;
        let reseal = wire::checksum(&garbage[..body_end]);
        garbage[body_end..].copy_from_slice(&reseal.to_le_bytes());
        stream.write_all(&garbage).expect("write garbage payload");

        let frame = wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_LEN)
            .expect("read error frame")
            .expect("frame, not EOF");
        assert_eq!(frame.request_id, 77, "error frame must carry our id");
        assert!(
            matches!(
                frame.body,
                FrameBody::Error(wazi_net::WireError::Transport(_))
            ),
            "got {:?}",
            frame.body
        );

        // Same connection, now a valid request: it must still work.
        let valid = Frame::request(78, queries[1].clone(), SubmitOptions::new());
        wire::write_frame(&mut stream, &valid).expect("write valid request");
        let frame = wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_LEN)
            .expect("read response")
            .expect("frame, not EOF");
        assert_eq!(frame.request_id, 78);
        assert!(
            matches!(frame.body, FrameBody::Response(_)),
            "got {:?}",
            frame.body
        );
    }

    // 2. Wire garbage: the stream desyncs, the server severs just this
    //    connection (best-effort error frame first).
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(b"this is not a frame!")
            .expect("write noise");
        // Whatever comes back — an error frame or an immediate EOF — the
        // read must terminate and the socket must die.
        match wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_LEN) {
            Ok(Some(frame)) => {
                assert!(
                    matches!(frame.body, FrameBody::Error(_)),
                    "got {:?}",
                    frame.body
                )
            }
            Ok(None) => {}
            Err(TransportError::ConnectionLost) => {}
            Err(other) => panic!("unexpected read outcome: {other:?}"),
        }
    }

    // The server is unharmed: a fresh well-behaved client gets answers.
    let client = chaos_client(addr);
    let response = client
        .request(queries[2].clone())
        .expect("post-garbage request");
    assert!(response.report.output.result_count() < u64::MAX);
    drop(client);

    let stats = server.shutdown();
    assert!(
        stats.connections_severed >= 1,
        "the garbage connection must be accounted as severed"
    );
    assert_eq!(stats.connections_opened, stats.connections_drained);
}
