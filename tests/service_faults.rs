//! Chaos acceptance tests for the service's fault tolerance: under any
//! deterministic fault schedule, **no ticket is left behind** — every
//! accepted submission reaches exactly one terminal outcome (a response,
//! a deadline error, a panic error, or a worker-death error), non-faulty
//! queries still get answers bit-identical to solo execution, and the
//! worker pool recovers to serve traffic submitted after the faults.

use std::sync::Arc;
use std::time::Duration;

use wazi_bench::{build_index, IndexKind};
use wazi_core::{Query, QueryEngine, QueryOutput, SpatialIndex};
use wazi_service::{Fault, FaultPlan, FullQueuePolicy, Service, ServiceError};
use wazi_workload::{
    generate_dataset, generate_mixed_batch, generate_queries, Region, SELECTIVITIES,
};

fn fixture(n_queries: usize) -> (Arc<dyn SpatialIndex>, Vec<Query>) {
    let region = Region::CaliNev;
    let points = generate_dataset(region, 4_000);
    let train = generate_queries(region, 120, SELECTIVITIES[1]);
    let batch = generate_mixed_batch(region, n_queries, SELECTIVITIES[2], 0xC4A0);
    let built = build_index(IndexKind::Wazi, &points, &train, 128);
    (Arc::from(built.index), batch)
}

/// The tentpole acceptance test, run over a matrix of seeded fault
/// schedules: kernel panics resolve to `ExecutionPanicked` for exactly the
/// faulty queries, every other query's output is bit-identical to a solo
/// `QueryEngine::execute`, zero tickets are stranded, and the pool keeps
/// answering after the schedule is exhausted.
#[test]
fn chaos_matrix_leaves_no_ticket_behind() {
    const N: usize = 160;
    let (index, queries) = fixture(N);
    let engine = QueryEngine::new(index.as_ref());
    let expected: Vec<QueryOutput> = queries
        .iter()
        .map(|q| engine.execute(q).expect("solo execution").output)
        .collect();

    for seed in [1u64, 7, 42] {
        let plan = Arc::new(Fault::seeded_plan(seed, N as u64, 9));
        let faulty: Vec<u64> = plan
            .schedule()
            .filter(|&(_, fault)| fault == Fault::KernelPanic)
            .map(|(seq, _)| seq)
            .collect();
        assert!(
            !faulty.is_empty(),
            "seed {seed}: schedule must panic somewhere"
        );

        let service = Service::builder(Arc::clone(&index))
            .window(Duration::from_micros(100), Duration::from_millis(2))
            .max_batch(32)
            .fault_plan(Arc::clone(&plan))
            .start();

        // Single-threaded submission so seq i == query i: the bit-identity
        // assertion needs to know which expected output belongs to which
        // ticket.
        let tickets: Vec<_> = queries
            .iter()
            .map(|q| {
                service
                    .submit(q.clone())
                    .expect("service accepts while running")
                    .ticket()
                    .expect("blocking policy never sheds")
            })
            .collect();

        let mut answered = 0u64;
        let mut panicked = Vec::new();
        for (i, ticket) in tickets.into_iter().enumerate() {
            // `wait` itself is the no-ticket-left-behind assertion: a
            // stranded ticket would hang the test, a severed one errors.
            match ticket.wait() {
                Ok(response) => {
                    assert_eq!(
                        response.report.output, expected[i],
                        "seed {seed}: query {i} diverged from solo execution"
                    );
                    answered += 1;
                }
                Err(ServiceError::ExecutionPanicked { message }) => {
                    assert!(
                        message.contains("injected kernel panic"),
                        "seed {seed}: query {i} unexpected payload: {message}"
                    );
                    panicked.push(i as u64);
                }
                Err(other) => panic!("seed {seed}: query {i} failed with {other}"),
            }
        }
        assert_eq!(
            panicked, faulty,
            "seed {seed}: exactly the planned queries must panic"
        );

        // The pool recovered: fresh traffic after the schedule still works.
        let probe = service
            .submit(queries[0].clone())
            .expect("service is still accepting")
            .ticket()
            .expect("queue has room");
        assert_eq!(
            probe.wait().expect("post-fault probe").report.output,
            expected[0],
            "seed {seed}: post-fault probe diverged"
        );

        let stats = service.shutdown();
        assert_eq!(stats.completed, answered + 1, "seed {seed}");
        assert_eq!(stats.panicked, faulty.len() as u64, "seed {seed}");
        assert!(stats.degraded_batches >= 1, "seed {seed}");
        assert_eq!(
            stats.worker_panics, 0,
            "seed {seed}: kernel panics never escape the boundary"
        );
        assert!(plan.injected() > 0, "seed {seed}: the schedule must fire");
    }
}

/// Satellite 1 + supervision: a worker killed outside the execution
/// boundary severs its drained batch's tickets — which resolve to the
/// descriptive `WorkerDied`, never hang — and the supervisor respawns the
/// worker so later traffic completes.
#[test]
fn killed_worker_is_respawned_and_its_tickets_resolve() {
    let (index, queries) = fixture(24);
    let plan = Arc::new(FaultPlan::new().with(0, Fault::WorkerKill));
    let service = Service::builder(Arc::clone(&index))
        .workers(1)
        .fixed_window(Duration::from_micros(100))
        .max_batch(4)
        .fault_plan(plan)
        .start();

    // First wave: seq 0 carries the kill. The batch it rides in dies with
    // the worker; its tickets resolve to WorkerDied, everyone else is
    // answered by the respawned worker.
    let first_wave: Vec<_> = queries[..8]
        .iter()
        .map(|q| service.submit(q.clone()).unwrap().ticket().unwrap())
        .collect();
    let mut died = 0;
    for (i, ticket) in first_wave.into_iter().enumerate() {
        match ticket.wait() {
            Ok(_) => {}
            Err(ServiceError::WorkerDied) => died += 1,
            Err(other) => panic!("query {i}: unexpected error {other}"),
        }
    }
    assert!(
        died >= 1,
        "the killed worker's batch must surface WorkerDied"
    );

    // Second wave: with one worker slot, only a respawned worker can serve
    // it, so its completion is the respawn, observed without a clock.
    let second_wave: Vec<_> = queries[8..]
        .iter()
        .map(|q| service.submit(q.clone()).unwrap().ticket().unwrap())
        .collect();
    for (i, ticket) in second_wave.into_iter().enumerate() {
        ticket
            .wait()
            .unwrap_or_else(|e| panic!("post-respawn query {i} failed: {e}"));
    }

    let stats = service.shutdown();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!(
        stats.completed + died,
        24,
        "every ticket reached exactly one terminal outcome"
    );
}

/// Satellite 3: shutdown racing blocked submitters on a full Block-policy
/// queue — no hang, every accepted query is drained, and every blocked
/// submitter is unblocked with a terminal outcome (`Closed`).
#[test]
fn shutdown_under_load_unblocks_every_submitter() {
    const SUBMITTERS: usize = 8;
    let (index, queries) = fixture(32);
    // Capacity below max_batch and a 30s window: the queue wedges full,
    // nothing flushes on its own, and submitters block on the space
    // condvar until shutdown cuts in.
    let service = Service::builder(Arc::clone(&index))
        .queue_capacity(4)
        .max_batch(16)
        .fixed_window(Duration::from_secs(30))
        .on_full(FullQueuePolicy::Block)
        .start();

    let (accepted, closed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|client| {
                let service = &service;
                let queries = &queries;
                s.spawn(move || {
                    let mut tickets = Vec::new();
                    let mut closed = 0usize;
                    for query in queries.iter().cycle().take(64) {
                        match service.submit(query.clone()) {
                            Ok(submit) => tickets.push(submit.ticket().expect("Block never sheds")),
                            Err(ServiceError::Closed) => {
                                closed += 1;
                                break;
                            }
                            Err(other) => panic!("client {client}: {other}"),
                        }
                    }
                    (tickets, closed)
                })
            })
            .collect();
        // Let the submitters wedge the queue, then pull the plug under them.
        std::thread::sleep(Duration::from_millis(50));
        service.begin_shutdown();
        let mut accepted = 0u64;
        let mut closed = 0usize;
        for handle in handles {
            let (tickets, was_closed) = handle.join().expect("submitter thread");
            closed += was_closed;
            for ticket in tickets {
                ticket.wait().expect("accepted queries are drained");
                accepted += 1;
            }
        }
        (accepted, closed)
    });
    let stats = service.shutdown();
    assert_eq!(
        stats.completed, accepted,
        "every accepted query must be drained by shutdown"
    );

    assert!(accepted > 0, "the race must accept something");
    assert!(
        closed > 0,
        "at least one blocked submitter must be unblocked with Closed"
    );
}
