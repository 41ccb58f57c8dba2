//! # wazi-service
//!
//! A thread-based concurrent query service over the `wazi-core` fused
//! batch engine: many client threads submit [`wazi_core::Query`] plans, the
//! service
//! coalesces them in a bounded queue under an **adaptive micro-batching
//! window**, executes each coalesced batch through
//! [`wazi_core::QueryEngine::execute_batch`] (default
//! [`wazi_core::BatchStrategy::Auto`]), and routes every response back to
//! its submitter through a completion [`Ticket`].
//!
//! ## Why coalesce
//!
//! The engine's fused kernels fetch each page once per batch however many
//! co-located queries need it — but a fused batch must first *exist*. Under
//! concurrent traffic nobody hands the engine a batch; this crate forms
//! batches from the arrival stream itself, waiting at most one coalescing
//! window before flushing. The window adapts: it grows while arrivals
//! saturate it (capacity cuts) and shrinks when traffic is light (timer
//! cuts), and an EWMA of the page visits each query shares with its batch
//! ([`wazi_core::PartitionDecision::shared_visits`]) drops it below
//! `min_window`, to a short fixed wait, whenever too little is shared to
//! be worth queueing for.
//! A wait also ends early on a gated backlog (more queued than workers)
//! and once arrivals have gone quiet. See `docs/SERVICE.md` at the
//! repository root for the full guide.
//!
//! ## Failure model
//!
//! A faulty query fails alone; the service never loses a ticket. Batches
//! execute inside [`wazi_core::catch_execution_panic`]: a kernel panic
//! degrades the batch to one-by-one re-execution, so non-faulty riders
//! still get answers bit-identical to solo execution and only the faulty
//! query resolves to [`ServiceError::ExecutionPanicked`]. A worker that
//! dies outside that boundary drops its drained batch unanswered, and each
//! of those tickets resolves to [`ServiceError::WorkerDied`] (they error,
//! never hang); a supervisor thread respawns the worker, and every
//! queue-lock acquisition recovers from poisoning. Per-query deadlines ([`SubmitOptions::deadline`]) are
//! culled at batch formation as [`ServiceError::DeadlineExceeded`] — never
//! executed late, never silently dropped. A deterministic [`FaultPlan`],
//! installed with [`ServiceBuilder::fault_plan`], drives the failpoints
//! the chaos tests and the `service-recovery` bench table exercise;
//! without one, each failpoint is a single `Option` check.
//!
//! ## Pipeline
//!
//! ```text
//! clients ──submit()──▶ bounded queue ──window/capacity cut──▶ worker pool
//!    ▲                  (backpressure:                          │ execute_batch
//!    │                   Block | Reject)                        ▼ (Auto strategy)
//!    └──────────── Ticket::wait() ◀─────── per-query QueryResponse routing
//! ```
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use wazi_core::{Query, QueryOutput, SpatialIndex, ZIndex};
//! use wazi_geom::{Point, Rect};
//! use wazi_service::Service;
//!
//! let points: Vec<Point> = (0..1_000)
//!     .map(|i| Point::new((i % 40) as f64 / 40.0, (i / 40) as f64 / 25.0))
//!     .collect();
//! let index: Arc<dyn SpatialIndex> = Arc::new(ZIndex::build_base(points));
//!
//! let service = Service::builder(Arc::clone(&index)).start();
//!
//! // Submit from any number of threads; here, two scoped clients.
//! let (a, b) = std::thread::scope(|s| {
//!     let ta = s.spawn(|| {
//!         let ticket = service
//!             .submit(Query::range_count(Rect::from_coords(0.1, 0.1, 0.6, 0.6)))
//!             .unwrap()
//!             .ticket()
//!             .unwrap();
//!         ticket.wait().unwrap()
//!     });
//!     let tb = s.spawn(|| {
//!         let ticket = service
//!             .submit(Query::knn(Point::new(0.5, 0.5), 3))
//!             .unwrap()
//!             .ticket()
//!             .unwrap();
//!         ticket.wait().unwrap()
//!     });
//!     (ta.join().unwrap(), tb.join().unwrap())
//! });
//!
//! assert!(matches!(a.report.output, QueryOutput::Count(_)));
//! assert!(matches!(b.report.output, QueryOutput::Neighbors(ref n) if n.len() == 3));
//!
//! let stats = service.shutdown(); // drains in-flight work, joins workers
//! assert_eq!(stats.completed, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod faults;
mod handle;
mod service;
mod stats;
mod window;

pub use config::{FullQueuePolicy, ServiceConfig};
pub use faults::{Fault, FaultPlan};
pub use handle::{BatchSummary, QueryResponse, ServiceError, Submit, SubmitOptions, Ticket};
pub use service::{Service, ServiceBuilder};
pub use stats::ServiceStats;

// Re-export the versioning vocabulary the writer path speaks in
// ([`Service::builder_versioned`], [`Service::apply_write`]), so service
// callers need not depend on `wazi-core` directly for it.
pub use wazi_core::{
    Snapshot, SnapshotSource, VersionStats, VersionedIndex, WriteOp, WriteReceipt,
};

/// Compile-time guarantees the service is built on: everything that crosses
/// a thread boundary — submitted plans, routed responses, completion
/// handles — must be `Send + 'static`. These assertions fail the build of
/// this crate (not just a test run) if a field of any of these types loses
/// the bound.
const fn assert_send_static<T: Send + 'static>() {}

const _: () = {
    assert_send_static::<wazi_core::Query>();
    assert_send_static::<wazi_core::QueryOutput>();
    assert_send_static::<wazi_core::QueryReport>();
    assert_send_static::<wazi_core::BatchReport>();
    assert_send_static::<QueryResponse>();
    assert_send_static::<BatchSummary>();
    assert_send_static::<ServiceError>();
    assert_send_static::<ServiceStats>();
    assert_send_static::<Submit>();
    assert_send_static::<SubmitOptions>();
    assert_send_static::<Ticket>();
};

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use wazi_core::{
        BatchStrategy, EngineError, Query, QueryEngine, QueryOutput, SpatialIndex, ZIndex,
    };
    use wazi_geom::{Point, Rect};

    use crate::{FullQueuePolicy, Service, ServiceError, Submit};

    fn clustered_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i % 50) as f64 / 50.0, (i / 50) as f64 / 40.0))
            .collect()
    }

    fn small_index() -> Arc<dyn SpatialIndex> {
        Arc::new(ZIndex::build_base(clustered_points(2_000)))
    }

    /// A mixed workload of overlapping counting ranges, point probes and
    /// kNN plans, deterministic without any RNG.
    fn mixed_queries(n: usize) -> Vec<Query> {
        (0..n)
            .map(|i| match i % 4 {
                0 | 1 => {
                    let off = (i % 7) as f64 / 100.0;
                    Query::range_count(Rect::from_coords(
                        0.10 + off,
                        0.10 + off,
                        0.55 + off,
                        0.50 + off,
                    ))
                }
                2 => Query::point(Point::new(
                    ((i / 4) % 50) as f64 / 50.0,
                    ((i / 4) / 50 % 40) as f64 / 40.0,
                )),
                _ => Query::knn(Point::new(0.3 + (i % 5) as f64 / 10.0, 0.4), 4),
            })
            .collect()
    }

    #[test]
    fn responses_match_solo_execution() {
        let index = small_index();
        let queries = mixed_queries(60);
        let engine = QueryEngine::new(index.as_ref());
        let expected: Vec<QueryOutput> = queries
            .iter()
            .map(|q| engine.execute(q).unwrap().output)
            .collect();

        let service = Service::builder(Arc::clone(&index))
            .window(Duration::from_micros(200), Duration::from_millis(2))
            .start();
        let tickets: Vec<_> = queries
            .iter()
            .map(|q| service.submit(q.clone()).unwrap().ticket().unwrap())
            .collect();
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            let response = ticket.wait().unwrap();
            assert_eq!(&response.report.output, want);
            assert!(response.total_ns >= response.queue_ns);
            assert!(response.batch.size >= 1);
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 60);
        assert_eq!(stats.submitted, 60);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn coalescing_actually_fuses_under_a_wide_window() {
        let index = small_index();
        let service = Service::builder(Arc::clone(&index))
            // A wide fixed window: the first flush waits for the whole burst.
            .fixed_window(Duration::from_millis(200))
            .start();
        let tickets: Vec<_> = (0..16)
            .map(|i| {
                let off = i as f64 / 200.0;
                service
                    .submit(Query::range_count(Rect::from_coords(
                        0.1 + off,
                        0.1,
                        0.5 + off,
                        0.5,
                    )))
                    .unwrap()
                    .ticket()
                    .unwrap()
            })
            .collect();
        let mut max_batch = 0;
        for ticket in tickets {
            let response = ticket.wait().unwrap();
            max_batch = max_batch.max(response.batch.size);
        }
        // All 16 submissions landed well inside the 200ms window, so at
        // least one coalesced batch carried several queries and the fused
        // range kernel served them.
        assert!(
            max_batch > 1,
            "no coalescing happened (max batch {max_batch})"
        );
        let stats = service.shutdown();
        assert!(stats.batches < 16, "every query executed alone");
        assert!(stats.max_batch_size as usize == max_batch);
    }

    #[test]
    fn a_gated_window_stops_waiting_out_min_window() {
        let service = Service::builder(small_index())
            .window(Duration::from_secs(30), Duration::from_secs(60))
            .max_batch(2)
            .strategy(BatchStrategy::Auto)
            .start();
        // Two small ranges at opposite corners fill one batch by a capacity
        // cut. Their footprints share no page, so too little is shared
        // and the gate drops the 30 s window to the gated one.
        let tickets: Vec<_> = [
            Rect::from_coords(0.01, 0.01, 0.03, 0.03),
            Rect::from_coords(0.95, 0.95, 0.97, 0.97),
        ]
        .into_iter()
        .map(|r| {
            service
                .submit(Query::range_count(r))
                .unwrap()
                .ticket()
                .unwrap()
        })
        .collect();
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().batch.size, 2);
        }
        assert_eq!(service.stats().window_ns, crate::window::GATED_WINDOW_NS);
        // A lone query is cut after the gated window, not 30 s later.
        let lone = service
            .submit(Query::point(Point::new(0.5, 0.5)))
            .unwrap()
            .ticket()
            .unwrap();
        assert_eq!(lone.wait().unwrap().batch.size, 1);
    }

    #[test]
    fn invalid_query_is_refused_at_submission() {
        let index = small_index();
        let service = Service::builder(index).start();
        let err = service
            .submit(Query::knn(Point::new(f64::NAN, 0.5), 3))
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Engine(EngineError::InvalidQuery(_))
        ));
        // The refusal left the service fully operational.
        let ok = service
            .submit(Query::point(Point::new(0.5, 0.5)))
            .unwrap()
            .ticket()
            .unwrap();
        assert!(matches!(
            ok.wait().unwrap().report.output,
            QueryOutput::Found(_)
        ));
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        let index = small_index();
        // A very wide fixed window and a huge batch bound: nothing flushes
        // until shutdown cuts the queue.
        let service = Service::builder(Arc::clone(&index))
            .fixed_window(Duration::from_secs(30))
            .max_batch(1_000)
            .start();
        let queries = mixed_queries(24);
        let engine = QueryEngine::new(index.as_ref());
        let expected: Vec<QueryOutput> = queries
            .iter()
            .map(|q| engine.execute(q).unwrap().output)
            .collect();
        let tickets: Vec<_> = queries
            .iter()
            .map(|q| service.submit(q.clone()).unwrap().ticket().unwrap())
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.completed, 24, "shutdown must drain the queue");
        assert!(stats.flushed_on_shutdown >= 1);
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            assert_eq!(ticket.wait().unwrap().report.output, *want);
        }
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let index = small_index();
        let service = Service::builder(Arc::clone(&index)).start();
        let stats = service.shutdown();
        assert_eq!(stats.completed, 0);
        // `shutdown` consumed the handle; a fresh service that is dropped
        // behaves the same way (Drop shuts down gracefully).
        let service = Service::builder(index).start();
        let ticket = service
            .submit(Query::point(Point::new(0.1, 0.1)))
            .unwrap()
            .ticket()
            .unwrap();
        drop(service);
        assert!(ticket.wait().is_ok(), "drop must drain accepted queries");
    }

    #[test]
    fn reject_policy_sheds_under_a_full_queue() {
        let index = small_index();
        let service = Service::builder(index)
            .queue_capacity(1)
            .max_batch(1)
            .on_full(FullQueuePolicy::Reject)
            .start();
        // A tight submission loop against a capacity-1 queue: the single
        // worker cannot keep up with back-to-back submissions, so some are
        // shed. (Deterministically asserting *which* ones would require
        // pausing the worker; the service only guarantees the accounting.)
        let mut tickets = Vec::new();
        let mut shed = 0usize;
        for i in 0..5_000 {
            let q = Query::point(Point::new((i % 50) as f64 / 50.0, 0.2));
            match service.submit(q).unwrap() {
                Submit::Accepted(t) => tickets.push(t),
                Submit::Rejected => shed += 1,
            }
        }
        assert!(shed > 0, "a capacity-1 queue under a tight loop must shed");
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.shed as usize, shed);
        assert_eq!(stats.completed + stats.shed, 5_000);
    }

    #[test]
    fn block_policy_is_lossless() {
        let index = small_index();
        let service = Service::builder(index)
            .queue_capacity(4)
            .max_batch(4)
            .on_full(FullQueuePolicy::Block)
            .start();
        let tickets: Vec<_> = (0..200)
            .map(|i| {
                service
                    .submit(Query::point(Point::new((i % 50) as f64 / 50.0, 0.4)))
                    .unwrap()
                    .ticket()
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.completed, 200);
        assert!(stats.max_batch_size <= 4);
    }

    #[test]
    fn dispatch_mode_executes_every_query_alone() {
        let index = small_index();
        let service = Service::builder(index)
            .max_batch(1)
            .strategy(BatchStrategy::Sequential)
            .start();
        let tickets: Vec<_> = mixed_queries(12)
            .into_iter()
            .map(|q| service.submit(q).unwrap().ticket().unwrap())
            .collect();
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().batch.size, 1);
        }
        let stats = service.shutdown();
        assert_eq!(stats.batches, 12);
        assert_eq!(stats.max_batch_size, 1);
    }

    #[test]
    fn deadlines_cull_expired_queries_at_batch_formation() {
        let index = small_index();
        // A wide fixed window: the batch forms 200ms after the first
        // submission, long after the 1ms deadlines have expired.
        let service = Service::builder(Arc::clone(&index))
            .fixed_window(Duration::from_millis(200))
            .max_batch(100)
            .start();
        let queries = mixed_queries(10);
        let tickets: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let options = if i % 2 == 0 {
                    crate::SubmitOptions::new().deadline(Duration::from_millis(1))
                } else {
                    crate::SubmitOptions::new()
                };
                service
                    .submit_with(q.clone(), options)
                    .unwrap()
                    .ticket()
                    .unwrap()
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let outcome = ticket.wait();
            if i % 2 == 0 {
                assert_eq!(
                    outcome,
                    Err(ServiceError::DeadlineExceeded),
                    "query {i} should have expired in the 200ms window"
                );
            } else {
                let response = outcome.unwrap_or_else(|e| panic!("query {i}: {e}"));
                assert_eq!(response.batch.size, 5, "only the live queries batch");
            }
        }
        let stats = service.shutdown();
        assert_eq!(stats.timed_out, 5);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.submitted, 10);
    }

    #[test]
    fn wait_timeout_distinguishes_pending_from_terminal() {
        let index = small_index();
        let service = Service::builder(Arc::clone(&index))
            .fixed_window(Duration::from_secs(30))
            .max_batch(1_000)
            .start();
        let ticket = service
            .submit(Query::point(Point::new(0.5, 0.5)))
            .unwrap()
            .ticket()
            .unwrap();
        // Nothing flushes inside a 30s window: the ticket is still pending.
        assert!(ticket.wait_timeout(Duration::from_millis(20)).is_none());
        let stats = service.shutdown(); // drains the query
        assert_eq!(stats.completed, 1);
        let response = ticket
            .wait_timeout(Duration::from_secs(5))
            .expect("shutdown drained the query")
            .expect("drain answers it");
        assert!(matches!(response.report.output, QueryOutput::Found(_)));
    }

    #[test]
    fn a_kernel_panic_degrades_the_batch_and_fails_only_its_query() {
        use crate::{Fault, FaultPlan};

        let index = small_index();
        let queries = mixed_queries(6);
        let engine = QueryEngine::new(index.as_ref());
        let expected: Vec<QueryOutput> = queries
            .iter()
            .map(|q| engine.execute(q).unwrap().output)
            .collect();

        let plan = Arc::new(FaultPlan::new().with(2, Fault::KernelPanic));
        let service = Service::builder(Arc::clone(&index))
            .fixed_window(Duration::from_secs(30))
            .max_batch(1_000)
            .fault_plan(Arc::clone(&plan))
            .start();
        // Single-threaded submission: seq i == query i.
        let tickets: Vec<_> = queries
            .iter()
            .map(|q| service.submit(q.clone()).unwrap().ticket().unwrap())
            .collect();
        let stats = service.shutdown(); // one shutdown drain batch of 6
        for (i, (ticket, want)) in tickets.into_iter().zip(&expected).enumerate() {
            match ticket.wait() {
                Ok(response) => {
                    assert_ne!(i, 2, "the faulty query must not get a response");
                    assert_eq!(&response.report.output, want, "query {i} diverged");
                    assert!(response.batch.degraded, "query {i} rode the fallback");
                    assert_eq!(response.batch.size, 6);
                    assert_eq!(response.batch.fused_queries, 0);
                }
                Err(ServiceError::ExecutionPanicked { message }) => {
                    assert_eq!(i, 2, "only the faulty query may panic");
                    assert!(
                        message.contains("injected kernel panic"),
                        "panic message lost: {message}"
                    );
                }
                Err(other) => panic!("query {i}: unexpected error {other}"),
            }
        }
        assert_eq!(stats.degraded_batches, 1);
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.worker_panics, 0, "the panic never left the boundary");
        assert!(plan.injected() >= 2, "batch pass + solo re-execution");
    }

    #[test]
    fn a_killed_workers_tickets_surface_worker_died_on_every_redemption() {
        use crate::{Fault, FaultPlan};

        let plan = Arc::new(FaultPlan::new().with(0, Fault::WorkerKill));
        let service = Service::builder(small_index())
            .workers(1)
            .fixed_window(Duration::from_secs(30))
            .max_batch(3)
            .fault_plan(plan)
            .start();
        // Seq 0 carries the kill; the capacity cut drains all three, and
        // the worker dies holding them.
        let tickets: Vec<_> = mixed_queries(3)
            .into_iter()
            .map(|q| service.submit(q).unwrap().ticket().unwrap())
            .collect();
        assert!(
            tickets[0].wait_timeout(Duration::from_secs(30)) == Some(Err(ServiceError::WorkerDied))
        );
        let polled = loop {
            if let Some(outcome) = tickets[1].try_wait() {
                break outcome;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(polled, Err(ServiceError::WorkerDied));
        // Delivered once; a second redemption reads the same error.
        assert!(tickets[0].try_wait() == Some(Err(ServiceError::WorkerDied)));
        for ticket in tickets.into_iter().skip(1) {
            assert_eq!(ticket.wait(), Err(ServiceError::WorkerDied));
        }
        // Only a respawned worker can answer this (one worker slot): the
        // capacity cut of three needs a full batch.
        let survivors: Vec<_> = mixed_queries(3)
            .into_iter()
            .map(|q| service.submit(q).unwrap().ticket().unwrap())
            .collect();
        for ticket in survivors {
            assert!(ticket.wait().is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.worker_restarts, 1);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn stats_snapshot_mid_flight_is_consistent() {
        let index = small_index();
        let service = Service::builder(index).start();
        let stats = service.stats();
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.window_ns > 0, "window starts at the configured min");
        let t = service
            .submit(Query::point(Point::new(0.2, 0.2)))
            .unwrap()
            .ticket()
            .unwrap();
        t.wait().unwrap();
        let stats = service.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
    }
}
