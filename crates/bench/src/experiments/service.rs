//! The concurrent query service under offered load: the experiment behind
//! `BENCH_service.json`.
//!
//! The `batch` experiment shows what fusing an *existing* batch saves;
//! this one shows the piece that forms batches in the first place.
//! Clients replay a deterministic open-loop arrival schedule
//! ([`wazi_workload::poisson_arrivals`] / [`wazi_workload::bursty_arrivals`])
//! against a running [`wazi_service::Service`] over WaZI, and the table
//! compares service configurations at two offered-load points:
//!
//! * **dispatch** — `max_batch = 1`: every query wakes a worker and runs
//!   alone. The per-query baseline coalescing must beat.
//! * **adaptive (auto)** — the full service: adaptive micro-batching
//!   window, batches executed under the cost-based `Auto` strategy.
//! * **adaptive (sequential)** — same coalescing, but batches execute as
//!   per-query loops: isolates what coalescing alone (amortised wakeups)
//!   buys without fused kernels.
//! * **fixed 1ms (auto)** — a pinned window: what the adaptation is worth
//!   against a hand-tuned constant.
//!
//! Every row of every table is replayed by one open-loop driver,
//! `replay`: one thread per client paces its arrivals, submits them
//! in-process or over loopback TCP, and collects every outcome. Latency is
//! measured open-loop — from each query's *scheduled* arrival to its
//! response — so queueing delay from falling behind the schedule is
//! visible instead of hidden. Two hard asserts back the committed
//! artifact: every response output is bit-identical to a solo
//! `QueryEngine::execute` of the same query, and at the saturating load
//! point adaptive coalescing beats dispatch on throughput (and on p95
//! latency at full scale).

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use super::ExperimentContext;
use crate::measure::format_ns;
use crate::report::Report;
use crate::suite::{build_index, build_versioned_index, IndexKind};
use wazi_core::{BatchStrategy, Query, QueryEngine, QueryOutput, SpatialIndex};
use wazi_net::{Client as NetClient, ClientConfig as NetClientConfig, NetError, Server};
use wazi_service::{
    Fault, FaultPlan, FullQueuePolicy, QueryResponse, Service, ServiceBuilder, ServiceError,
    ServiceStats, Submit, SubmitOptions,
};
use wazi_workload::{
    bursty_arrivals, generate_overlapping_batch, mixed_read_write_schedule, poisson_arrivals,
    reconnect_sessions, Arrival, Region, RwStep, SELECTIVITIES,
};

/// The overlapping counting-range workload of the batch experiment: the
/// shape coalescing exists for (shared hot pages, fused scans win big).
const SERVICE_REGION: Region = Region::NewYork;
const SERVICE_SELECTIVITY: f64 = SELECTIVITIES[3];

/// Client threads replaying the arrival schedule.
const CLIENTS: usize = 2;

/// Offered load as a multiple of the measured solo drain rate: well under
/// capacity, and far enough over it that the queue stays pressured.
const MODERATE_LOAD_FACTOR: f64 = 0.5;
const SATURATING_LOAD_FACTOR: f64 = 4.0;

/// Open-loop pacing fidelity ceiling for the *moderate* load point.
/// `thread::sleep` on Linux overshoots by tens of microseconds (default
/// timer slack), so one client cannot pace much more than ~16k arrivals/s;
/// the moderate rate is capped below [`CLIENTS`] times that so "moderate"
/// stays both genuinely under capacity and replayable on schedule. The
/// saturating point is deliberately uncapped: clients falling behind and
/// offering as fast as they can is exactly what it measures.
const MODERATE_OFFERED_CAP_QPS: f64 = 20_000.0;

/// Adaptive window bounds (the service defaults, restated here so the
/// table is self-describing even if the defaults move).
const MIN_WINDOW: Duration = Duration::from_micros(50);
const MAX_WINDOW: Duration = Duration::from_millis(5);
/// The pinned window of the fixed-window comparison row.
const FIXED_WINDOW: Duration = Duration::from_millis(1);

/// Queue capacity for the shedding demonstration row (small enough that a
/// saturating open loop actually fills it).
const REJECT_QUEUE_CAPACITY: usize = 64;

/// The throughput and p95 asserts need enough queries that the drain time
/// dwarfs single-core scheduling noise (thread wakeups land with hundreds
/// of microseconds of jitter, which at 100 x ~2.5 us of work is the whole
/// measurement). Tiny test contexts still run every correctness assert;
/// CI's perf gate passes `--queries 2000` to arm these two as well.
const PERF_ASSERT_MIN_QUERIES: usize = 500;

/// One service configuration the experiment compares.
#[derive(Clone, Copy)]
struct Variant {
    name: &'static str,
    max_batch: usize,
    window: (Duration, Duration),
    strategy: BatchStrategy,
}

impl Variant {
    /// A builder for this configuration's service over `index`.
    fn builder(self, index: &Arc<dyn SpatialIndex>) -> ServiceBuilder {
        Service::builder(Arc::clone(index))
            .max_batch(self.max_batch)
            .window(self.window.0, self.window.1)
            .strategy(self.strategy)
    }
}

const VARIANTS: [Variant; 4] = [
    Variant {
        name: "dispatch",
        max_batch: 1,
        window: (MIN_WINDOW, MIN_WINDOW),
        strategy: BatchStrategy::Auto,
    },
    Variant {
        name: "adaptive auto",
        max_batch: 256,
        window: (MIN_WINDOW, MAX_WINDOW),
        strategy: BatchStrategy::Auto,
    },
    Variant {
        name: "adaptive sequential",
        max_batch: 256,
        window: (MIN_WINDOW, MAX_WINDOW),
        strategy: BatchStrategy::Sequential,
    },
    Variant {
        name: "fixed 1ms auto",
        max_batch: 256,
        window: (FIXED_WINDOW, FIXED_WINDOW),
        strategy: BatchStrategy::Auto,
    },
];

/// How a replay's clients reach the service.
#[derive(Clone, Copy)]
enum Via<'a> {
    /// Direct [`Service::submit_with`] calls.
    InProcess(&'a Service),
    /// One `wazi-net` client per connection epoch, one request in flight
    /// (the wire's pipelining unit).
    Tcp(SocketAddr),
}

/// One client thread's arrivals, cut into connection epochs. Each arrival
/// carries the index of the reference output it must equal. A TCP client
/// dials a fresh connection per epoch; an in-process client ignores the
/// cuts.
struct ClientPlan {
    epochs: Vec<Vec<(usize, Arrival)>>,
}

/// Deals `arrivals` round-robin onto `clients` one-epoch plans; arrival `i`
/// answers reference `i`.
fn dealt(arrivals: Vec<Arrival>, clients: usize) -> Vec<ClientPlan> {
    let mut plans: Vec<ClientPlan> = (0..clients)
        .map(|_| ClientPlan {
            epochs: vec![Vec::new()],
        })
        .collect();
    for (i, arrival) in arrivals.into_iter().enumerate() {
        plans[i % clients].epochs[0].push((i, arrival));
    }
    plans
}

/// How one arrival ended: `None` when the service shed it.
type Outcome = Option<Result<QueryResponse, ServiceError>>;

/// Everything one replay produces.
struct Replay {
    /// `(reference index, outcome)` per arrival, client by client in plan
    /// order.
    outcomes: Vec<(usize, Outcome)>,
    /// Open-loop latencies (scheduled arrival → response) of answered
    /// queries, sorted ascending.
    latencies_ns: Vec<u64>,
    /// Wall-clock from replay start to the last response, nanoseconds.
    elapsed_ns: u64,
    /// Transient-failure retries summed over the TCP clients.
    retries: u64,
}

impl Replay {
    fn completed(&self) -> usize {
        self.latencies_ns.len()
    }

    fn throughput_qps(&self) -> f64 {
        self.completed() as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// Percentile of the sorted latencies (0 when nothing was answered).
    fn percentile_ns(&self, p: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let rank = ((self.latencies_ns.len() - 1) as f64 * p).round() as usize;
        self.latencies_ns[rank]
    }

    /// `(reference index, response)` of every answered arrival. A query
    /// that resolved to an error fails the run; a shed one is skipped.
    fn responses<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = (usize, &'a QueryResponse)> + 'a {
        self.outcomes
            .iter()
            .filter_map(move |(i, outcome)| match outcome {
                Some(Ok(response)) => Some((*i, response)),
                Some(Err(err)) => panic!("{label}: response {i} lost: {err}"),
                None => None,
            })
    }
}

/// One client thread's records — `(reference index, open-loop latency of
/// an answered query, outcome)` per arrival — and its retry counter.
type ClientRecords = (Vec<(usize, Option<u64>, Outcome)>, u64);

/// The open-loop replay driver behind every row: one thread per plan
/// paces its arrivals (sleeping only when ahead of schedule; once behind,
/// it offers as fast as it can), submits each through `via` with
/// `options`, and collects every outcome.
///
/// An in-process client submits its whole schedule, then redeems the
/// tickets; its latency is submit time + the service's `total_ns` − the
/// scheduled offset. A TCP client waits for each response on the wire;
/// its latency is completion − the scheduled offset.
fn replay(via: Via<'_>, plans: &[ClientPlan], options: SubmitOptions) -> Replay {
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let pace = |offset_ns: u64| {
        if let Some(ahead) = Duration::from_nanos(offset_ns).checked_sub(start.elapsed()) {
            thread::sleep(ahead);
        }
    };
    let clients: Vec<ClientRecords> = thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(client, plan)| {
                s.spawn(move || match via {
                    Via::InProcess(service) => {
                        let submitted: Vec<_> = plan
                            .epochs
                            .iter()
                            .flatten()
                            .map(|(i, arrival)| {
                                pace(arrival.offset_ns);
                                let submit = service.submit_with(arrival.query.clone(), options);
                                (*i, arrival.offset_ns, now_ns(), submit)
                            })
                            .collect();
                        let records = submitted
                            .into_iter()
                            .map(|(i, offset_ns, submitted_ns, submit)| {
                                let outcome = match submit {
                                    Ok(Submit::Accepted(ticket)) => Some(ticket.wait()),
                                    Ok(Submit::Rejected) => None,
                                    Err(err) => Some(Err(err)),
                                };
                                let latency = match &outcome {
                                    Some(Ok(response)) => Some(
                                        (submitted_ns + response.total_ns)
                                            .saturating_sub(offset_ns),
                                    ),
                                    _ => None,
                                };
                                (i, latency, outcome)
                            })
                            .collect();
                        (records, 0)
                    }
                    Via::Tcp(addr) => {
                        let mut records = Vec::new();
                        let mut retries = 0;
                        for epoch in &plan.epochs {
                            let tcp = bench_client(addr, 0x0BE7_C0DE ^ client as u64);
                            for (i, arrival) in epoch {
                                pace(arrival.offset_ns);
                                let result = tcp.request_with(arrival.query.clone(), options);
                                let completion_ns = now_ns();
                                let outcome = match result {
                                    Ok(response) => Some(Ok(response)),
                                    Err(NetError::Service(err)) => Some(Err(err)),
                                    Err(NetError::Rejected) => None,
                                    Err(err) => panic!("tcp request {i} failed: {err}"),
                                };
                                let latency = matches!(outcome, Some(Ok(_)))
                                    .then(|| completion_ns.saturating_sub(arrival.offset_ns));
                                records.push((*i, latency, outcome));
                            }
                            retries += tcp.retries();
                        }
                        (records, retries)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut replay = Replay {
        outcomes: Vec::new(),
        latencies_ns: Vec::new(),
        elapsed_ns: start.elapsed().as_nanos().max(1) as u64,
        retries: 0,
    };
    for (records, retries) in clients {
        replay.retries += retries;
        for (i, latency, outcome) in records {
            replay.latencies_ns.extend(latency);
            replay.outcomes.push((i, outcome));
        }
    }
    replay.latencies_ns.sort_unstable();
    replay
}

/// The TCP bench client's configuration: generous attempt deadline (the
/// saturating load point queues deeply), a few retries for robustness.
fn bench_client(addr: SocketAddr, seed: u64) -> NetClient {
    NetClient::connect(
        addr,
        NetClientConfig {
            request_timeout: Duration::from_secs(60),
            max_retries: 4,
            jitter_seed: seed,
            ..NetClientConfig::default()
        },
    )
    .expect("connect bench client")
}

/// Starts `builder`'s service — behind a loopback-TCP server when `tcp` —
/// replays `plans` through it, and shuts it down for its final counters.
fn serve(builder: ServiceBuilder, tcp: bool, plans: &[ClientPlan]) -> (Replay, ServiceStats) {
    let service = builder.start();
    if tcp {
        let server = Server::bind(service, "127.0.0.1:0").expect("bind loopback server");
        let replay = replay(Via::Tcp(server.local_addr()), plans, SubmitOptions::new());
        (replay, server.shutdown())
    } else {
        let replay = replay(Via::InProcess(&service), plans, SubmitOptions::new());
        (replay, service.shutdown())
    }
}

/// Replays `queries` closed-loop against `builder`'s service carrying
/// `plan`: one client, every offset 0, so submission order is the plan's
/// sequence order. Waits every ticket to a terminal outcome, then probes
/// the service with a fresh query to prove the pool recovered. Panics if
/// any non-faulty response diverges from `reference` or any ticket is
/// stranded — the chaos acceptance property behind the recovery table.
/// Returns (completed incl. the probe, panicked, worker died) and the
/// final counters.
fn recover(
    label: &str,
    builder: ServiceBuilder,
    plan: Option<&Arc<FaultPlan>>,
    options: SubmitOptions,
    queries: &[Query],
    reference: &[QueryOutput],
) -> ((u64, u64, u64), ServiceStats) {
    let service = match plan {
        Some(plan) => builder.fault_plan(Arc::clone(plan)),
        None => builder,
    }
    .start();
    let closed_loop = dealt(
        queries
            .iter()
            .map(|query| Arrival {
                offset_ns: 0,
                query: query.clone(),
            })
            .collect(),
        1,
    );
    let replay = replay(Via::InProcess(&service), &closed_loop, options);

    let faulty: Vec<u64> = plan
        .iter()
        .flat_map(|p| p.schedule())
        .filter(|&(_, fault)| fault == Fault::KernelPanic)
        .map(|(seq, _)| seq)
        .collect();
    let (mut completed, mut panicked, mut worker_died, mut timed_out) = (0u64, 0u64, 0u64, 0u64);
    // The driver waited every ticket: a stranded one would have hung it.
    for &(i, ref outcome) in &replay.outcomes {
        match outcome {
            None => panic!("{label}: blocking policy never sheds"),
            Some(Ok(response)) => {
                assert_eq!(
                    response.report.output, reference[i],
                    "{label}: response {i} diverged from solo execution"
                );
                completed += 1;
            }
            Some(Err(ServiceError::ExecutionPanicked { .. })) => {
                assert!(
                    faulty.contains(&(i as u64)),
                    "{label}: query {i} panicked without a planned fault"
                );
                panicked += 1;
            }
            Some(Err(ServiceError::WorkerDied)) => worker_died += 1,
            Some(Err(ServiceError::DeadlineExceeded)) => timed_out += 1,
            Some(Err(other)) => panic!("{label}: query {i} failed with {other}"),
        }
    }
    assert_eq!(
        completed + panicked + worker_died + timed_out,
        queries.len() as u64,
        "{label}: every ticket must reach exactly one terminal outcome"
    );
    assert_eq!(
        panicked,
        faulty.len() as u64,
        "{label}: exactly the planned kernel panics must surface"
    );

    // Recovery probe: the pool must still answer fresh traffic (and the
    // probe carries no deadline, so it cannot be culled).
    let probe = service
        .submit(queries[0].clone())
        .unwrap_or_else(|err| panic!("{label}: post-fault submission refused: {err}"))
        .ticket()
        .expect("queue has room");
    let response = probe
        .wait()
        .unwrap_or_else(|err| panic!("{label}: post-fault probe lost: {err}"));
    assert_eq!(
        response.report.output, reference[0],
        "{label}: post-fault probe diverged"
    );
    ((completed + 1, panicked, worker_died), service.shutdown())
}

/// The hard bit-identity assert behind the committed artifact: every
/// response the service routed equals a solo `execute` of the same query.
fn assert_outputs_identical(label: &str, replay: &Replay, reference: &[QueryOutput]) {
    for (i, response) in replay.responses(label) {
        assert_eq!(
            response.report.output, reference[i],
            "{label}: response {i} diverged from solo execution"
        );
    }
}

fn load_row(
    load_name: &str,
    offered_qps: f64,
    variant_name: &str,
    replay: &Replay,
    stats: &ServiceStats,
) -> Vec<String> {
    vec![
        load_name.to_string(),
        format!("{offered_qps:.0}"),
        variant_name.to_string(),
        replay.completed().to_string(),
        format!("{:.0}", replay.throughput_qps()),
        format!("{:.1}", stats.mean_batch_size()),
        format_ns(replay.percentile_ns(0.50) as f64),
        format_ns(replay.percentile_ns(0.95) as f64),
        format_ns(replay.percentile_ns(0.99) as f64),
        format_ns(stats.window_ns as f64),
    ]
}

fn stats_row(load_name: &str, variant_name: &str, stats: &ServiceStats) -> Vec<String> {
    vec![
        load_name.to_string(),
        variant_name.to_string(),
        stats.batches.to_string(),
        format!("{:.1}", stats.mean_batch_size()),
        stats.max_batch_size.to_string(),
        stats.flushed_on_capacity.to_string(),
        stats.flushed_on_timer.to_string(),
        stats.shed.to_string(),
        format_ns(stats.mean_queue_wait_ns()),
        format_ns(stats.window_ns as f64),
    ]
}

/// The `service` experiment: offered-load sweep over service
/// configurations, a service-counters table, and the transport, recovery
/// and read/write tables — the reports of `BENCH_service.json`.
pub fn service(ctx: &ExperimentContext) -> Vec<Report> {
    let queries = generate_overlapping_batch(
        SERVICE_REGION,
        ctx.workload_size.max(24),
        SERVICE_SELECTIVITY,
        ctx.seed ^ 0x5E41_1CE5,
    );
    let points = wazi_workload::generate_dataset_with_seed(
        SERVICE_REGION,
        ctx.dataset_size,
        SERVICE_REGION.seed(),
    );
    let train = wazi_workload::generate_queries_with_seed(
        SERVICE_REGION,
        ctx.training_size,
        SERVICE_SELECTIVITY,
        SERVICE_REGION.seed() ^ ctx.seed,
    );
    let built = build_index(IndexKind::Wazi, &points, &train, ctx.leaf_capacity);
    let index: Arc<dyn SpatialIndex> = Arc::from(built.index);

    // Solo reference pass: the outputs every service response must equal,
    // and the drain-rate calibration the offered loads are expressed in.
    let engine = QueryEngine::new(index.as_ref());
    let solo_started = Instant::now();
    let reference: Vec<QueryOutput> = queries
        .iter()
        .map(|q| engine.execute(q).expect("solo execution").output)
        .collect();
    let solo_ns = solo_started.elapsed().as_nanos().max(1) as u64;
    let mean_solo_ns = (solo_ns / queries.len() as u64).max(1);
    let solo_qps = 1e9 / mean_solo_ns as f64;

    let moderate_qps = (MODERATE_LOAD_FACTOR * solo_qps).min(MODERATE_OFFERED_CAP_QPS);
    let loads = [
        ("moderate", moderate_qps),
        ("saturating", SATURATING_LOAD_FACTOR * solo_qps),
    ];

    let mut table = Report::new(
        "service-load",
        format!(
            "Service throughput and open-loop latency vs offered load ({} overlapping \
             counting queries on WaZI, {} clients)",
            queries.len(),
            CLIENTS
        ),
    )
    .with_headers(&[
        "Load",
        "Offered qps",
        "Config",
        "Completed",
        "Achieved qps",
        "Mean batch",
        "p50",
        "p95",
        "p99",
        "Window end",
    ]);
    let mut counters = Report::new(
        "service-stats",
        "Service counters per configuration (ServiceStats surface)",
    )
    .with_headers(&[
        "Load",
        "Config",
        "Batches",
        "Mean batch",
        "Max batch",
        "Capacity cuts",
        "Timer cuts",
        "Shed",
        "Mean queue wait",
        "Window end",
    ]);

    for (load_name, offered_qps) in loads {
        let plans = dealt(
            poisson_arrivals(queries.clone(), offered_qps, ctx.seed),
            CLIENTS,
        );
        let mut dispatch: Option<Replay> = None;
        let mut adaptive: Option<Replay> = None;
        for variant in VARIANTS {
            let (outcome, stats) = serve(variant.builder(&index), false, &plans);
            let label = format!("{load_name}/{}", variant.name);
            assert_outputs_identical(&label, &outcome, &reference);
            assert_eq!(
                outcome.completed(),
                queries.len(),
                "{label}: the blocking policy must be lossless"
            );
            table.push_row(load_row(
                load_name,
                offered_qps,
                variant.name,
                &outcome,
                &stats,
            ));
            counters.push_row(stats_row(load_name, variant.name, &stats));
            match variant.name {
                "dispatch" => dispatch = Some(outcome),
                "adaptive auto" => adaptive = Some(outcome),
                _ => {}
            }
        }
        // The acceptance property of BENCH_service.json: under a
        // saturating offered load, coalescing into fused batches beats
        // per-query dispatch. (Tiny test contexts skip the assert: with a
        // handful of queries the tail is a single sample.)
        if load_name == "saturating" && queries.len() >= PERF_ASSERT_MIN_QUERIES {
            let (dispatch, adaptive) = (dispatch.unwrap(), adaptive.unwrap());
            assert!(
                adaptive.throughput_qps() >= dispatch.throughput_qps(),
                "adaptive coalescing ({:.0} qps) must beat per-query dispatch \
                 ({:.0} qps) at saturating load",
                adaptive.throughput_qps(),
                dispatch.throughput_qps()
            );
            assert!(
                adaptive.percentile_ns(0.95) <= dispatch.percentile_ns(0.95),
                "adaptive coalescing p95 ({}) must not exceed dispatch p95 ({}) \
                 at saturating load",
                format_ns(adaptive.percentile_ns(0.95) as f64),
                format_ns(dispatch.percentile_ns(0.95) as f64)
            );
        }
    }

    // Bursty traffic: the adaptive window's reason to exist — the right
    // window differs between the burst and the lull.
    let bursty_qps = SATURATING_LOAD_FACTOR * solo_qps / 2.0;
    let bursty = dealt(
        bursty_arrivals(queries.clone(), bursty_qps, 4.0, 64, ctx.seed),
        CLIENTS,
    );
    let (outcome, stats) = serve(VARIANTS[1].builder(&index), false, &bursty);
    assert_outputs_identical("bursty/adaptive auto", &outcome, &reference);
    table.push_row(load_row(
        "bursty",
        bursty_qps,
        "adaptive auto",
        &outcome,
        &stats,
    ));
    counters.push_row(stats_row("bursty", "adaptive auto", &stats));

    // Load shedding: the Reject policy against a deliberately small queue
    // under saturating load. Completed responses must still be
    // bit-identical; the shed count is the backpressure surface at work.
    let saturating = dealt(
        poisson_arrivals(queries.clone(), SATURATING_LOAD_FACTOR * solo_qps, ctx.seed),
        CLIENTS,
    );
    let (outcome, stats) = serve(
        VARIANTS[1]
            .builder(&index)
            .queue_capacity(REJECT_QUEUE_CAPACITY)
            .on_full(FullQueuePolicy::Reject),
        false,
        &saturating,
    );
    assert_outputs_identical("reject/adaptive auto", &outcome, &reference);
    assert_eq!(
        outcome.completed() + stats.shed as usize,
        queries.len(),
        "every offered query is either answered or counted as shed"
    );
    counters.push_row(stats_row(
        "saturating (reject)",
        &format!("adaptive auto, queue {REJECT_QUEUE_CAPACITY}"),
        &stats,
    ));

    table.push_note(format!(
        "open-loop replay of a Poisson (rows 1-8) or on/off bursty (row 9) arrival \
         schedule over {} clients; latency runs from each query's scheduled arrival \
         to its response, so falling behind the schedule shows up as queueing delay. \
         Offered loads are multiples of the measured solo drain rate ({} per query): \
         {}x (moderate, capped at {:.0} qps so the schedule stays paceable against \
         sleep granularity) and {}x (saturating)",
        CLIENTS,
        format_ns(mean_solo_ns as f64),
        MODERATE_LOAD_FACTOR,
        MODERATE_OFFERED_CAP_QPS,
        SATURATING_LOAD_FACTOR
    ));
    table.push_note(
        "hard-asserted on every row: response outputs bit-identical to solo \
         QueryEngine::execute, the blocking policy lossless; at saturating load, \
         adaptive coalescing >= dispatch throughput (and <= dispatch p95 at full \
         scale)",
    );
    table.push_note(format!(
        "configs: dispatch = max_batch 1 (per-query execution); adaptive = window \
         {}..{} adapting by arrival rate and the cost model's predicted fusion \
         saving; fixed = window pinned at {}; strategies are the engine's \
         (auto = cost-based per partition)",
        format_ns(MIN_WINDOW.as_nanos() as f64),
        format_ns(MAX_WINDOW.as_nanos() as f64),
        format_ns(FIXED_WINDOW.as_nanos() as f64)
    ));
    counters.push_note(format!(
        "capacity cuts flush at max_batch pending queries and double the window; \
         underfilled timer cuts halve it; the closing row sheds under \
         FullQueuePolicy::Reject against a {REJECT_QUEUE_CAPACITY}-slot queue at \
         saturating load (shed + completed = offered)"
    ));

    // Recovery under injected faults: the fault-tolerance surface measured
    // the same way the chaos tests assert it — no ticket left behind,
    // non-faulty answers bit-identical, the pool recovered by a probe.
    let mut recovery = Report::new(
        "service-recovery",
        format!(
            "Service recovery under deterministic fault injection ({} queries per \
             schedule, single client)",
            queries.len()
        ),
    )
    .with_headers(&[
        "Schedule",
        "Planned",
        "Fired",
        "Completed",
        "Panicked",
        "Worker died",
        "Timed out",
        "Degraded batches",
        "Restarts",
    ]);
    let recovery_row = |name: &str,
                        planned: usize,
                        fired: u64,
                        (completed, panicked, worker_died): (u64, u64, u64),
                        stats: &ServiceStats|
     -> Vec<String> {
        vec![
            name.to_string(),
            planned.to_string(),
            fired.to_string(),
            completed.to_string(),
            panicked.to_string(),
            worker_died.to_string(),
            stats.timed_out.to_string(),
            stats.degraded_batches.to_string(),
            stats.worker_restarts.to_string(),
        ]
    };
    let chaos_service = || {
        Service::builder(Arc::clone(&index))
            .max_batch(32.max(queries.len() / 8))
            .window(Duration::from_micros(100), Duration::from_millis(2))
    };
    let no_deadline = SubmitOptions::new();

    let ((completed, panicked, worker_died), stats) = recover(
        "recovery/control",
        chaos_service(),
        None,
        no_deadline,
        &queries,
        &reference,
    );
    assert_eq!(panicked + worker_died, 0);
    recovery.push_row(recovery_row(
        "none (control)",
        0,
        0,
        (completed, panicked, worker_died),
        &stats,
    ));

    let chaos_plan = Arc::new(Fault::seeded_plan(
        ctx.seed ^ 0xFA17,
        queries.len() as u64,
        (queries.len() / 40).max(3),
    ));
    let planned = chaos_plan.schedule().count();
    let ((completed, panicked, worker_died), stats) = recover(
        "recovery/chaos",
        chaos_service(),
        Some(&chaos_plan),
        no_deadline,
        &queries,
        &reference,
    );
    assert!(panicked >= 1, "the chaos schedule must panic somewhere");
    assert!(stats.degraded_batches >= 1);
    assert_eq!(
        stats.worker_panics, 0,
        "kernel panics must never escape the execution boundary"
    );
    recovery.push_row(recovery_row(
        "seeded chaos",
        planned,
        chaos_plan.injected(),
        (completed, panicked, worker_died),
        &stats,
    ));

    let kill_plan = Arc::new(FaultPlan::new().with(queries.len() as u64 / 2, Fault::WorkerKill));
    let ((completed, panicked, worker_died), stats) = recover(
        "recovery/worker-kill",
        chaos_service(),
        Some(&kill_plan),
        no_deadline,
        &queries,
        &reference,
    );
    assert!(worker_died >= 1, "the killed batch must surface WorkerDied");
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_restarts, 1);
    recovery.push_row(recovery_row(
        "worker kill",
        1,
        kill_plan.injected(),
        (completed, panicked, worker_died),
        &stats,
    ));

    // Deadlines: a 30ms fixed window against 1ms deadlines expires every
    // query in the queue — all culled at batch formation, none executed
    // late, none silently dropped (only the deadline-free probe completes).
    let ((completed, panicked, worker_died), stats) = recover(
        "recovery/deadline",
        Service::builder(Arc::clone(&index))
            .fixed_window(Duration::from_millis(30))
            // No capacity flushes: every query must sit out the window so
            // its deadline expires in the queue.
            .max_batch(queries.len() + 1),
        None,
        SubmitOptions::new().deadline(Duration::from_millis(1)),
        &queries,
        &reference,
    );
    assert_eq!(stats.timed_out, queries.len() as u64);
    assert_eq!(completed, 1, "only the probe survives its deadline");
    recovery.push_row(recovery_row(
        "deadline 1ms, window 30ms",
        0,
        0,
        (completed, panicked, worker_died),
        &stats,
    ));

    recovery.push_note(
        "fault kinds: kernel panics inside the execution boundary (batch degrades \
         to one-by-one re-execution; only the faulty query fails), worker kills \
         outside it (tickets in the dead worker's batch resolve to WorkerDied; the \
         supervisor respawns the thread), submit stalls and execution delays; \
         schedules are seeded and deterministic (wazi_service::Fault::seeded_plan)",
    );
    recovery.push_note(
        "hard-asserted on every row: each submission reaches exactly one terminal \
         outcome (completed + panicked + worker died + timed out = offered + probe), \
         completed answers bit-identical to solo execution, exactly the planned \
         kernel panics surface, and a post-fault probe completes (the pool \
         recovered)",
    );

    // The transport table: the same offered load routed in-process (direct
    // `submit`) and over loopback TCP (`wazi-net`), the adaptive-auto
    // service behind both. The wire's pinned guarantee — it changes
    // transport, never answers — is hard-asserted on every completed
    // response; the throughput/latency deltas are what framing, sockets
    // and one-in-flight-per-connection pipelining cost.
    let mut transport = Report::new(
        "service-transport",
        format!(
            "In-process vs loopback-TCP transport at the same offered load \
             ({} queries, {} clients, adaptive auto service)",
            queries.len(),
            CLIENTS
        ),
    )
    .with_headers(&[
        "Load",
        "Offered qps",
        "Transport",
        "Completed",
        "Achieved qps",
        "p50",
        "p95",
        "p99",
        "Connections",
        "Retries",
    ]);
    let transport_row = |load: &str,
                         offered: f64,
                         name: &str,
                         outcome: &Replay,
                         stats: &ServiceStats|
     -> Vec<String> {
        vec![
            load.to_string(),
            format!("{offered:.0}"),
            name.to_string(),
            outcome.completed().to_string(),
            format!("{:.0}", outcome.throughput_qps()),
            format_ns(outcome.percentile_ns(0.50) as f64),
            format_ns(outcome.percentile_ns(0.95) as f64),
            format_ns(outcome.percentile_ns(0.99) as f64),
            stats.connections_opened.to_string(),
            outcome.retries.to_string(),
        ]
    };
    for (load_name, offered_qps) in loads {
        let plans = dealt(
            poisson_arrivals(queries.clone(), offered_qps, ctx.seed),
            CLIENTS,
        );
        for (name, tcp) in [("in-process", false), ("tcp", true)] {
            let (outcome, stats) = serve(VARIANTS[1].builder(&index), tcp, &plans);
            let label = format!("transport/{load_name}/{name}");
            assert_outputs_identical(&label, &outcome, &reference);
            if tcp {
                assert_eq!(
                    outcome.completed(),
                    queries.len(),
                    "{label}: the blocking policy over TCP must be lossless"
                );
                assert_eq!(
                    stats.connections_opened, stats.connections_drained,
                    "{label}: every connection must drain"
                );
            }
            transport.push_row(transport_row(
                load_name,
                offered_qps,
                name,
                &outcome,
                &stats,
            ));
        }
    }
    // The reconnect-heavy row: per-client session epochs with a fresh
    // connection per epoch and a shared hot-key subset — the client
    // schedule shape `wazi_workload::reconnect_sessions` generates.
    let schedules = reconnect_sessions(
        queries.clone(),
        CLIENTS,
        moderate_qps,
        (queries.len() / (CLIENTS * 6)).max(4),
        0.25,
        ctx.seed,
    );
    let offered: usize = schedules.iter().map(|s| s.total_queries()).sum();
    let connections: usize = schedules.iter().map(|s| s.epochs.len()).sum();
    // A hot-key substitute is a copy of an earlier batch query; equal
    // queries share one reference output, so the first match serves it.
    let reference_index = |query: &Query| {
        queries
            .iter()
            .position(|q| q == query)
            .expect("session queries are drawn from the batch")
    };
    let sessions: Vec<ClientPlan> = schedules
        .into_iter()
        .map(|schedule| ClientPlan {
            epochs: schedule
                .epochs
                .into_iter()
                .map(|epoch| {
                    epoch
                        .arrivals
                        .into_iter()
                        .map(|arrival| (reference_index(&arrival.query), arrival))
                        .collect()
                })
                .collect(),
        })
        .collect();
    let (outcome, stats) = serve(VARIANTS[1].builder(&index), true, &sessions);
    assert_outputs_identical("transport/reconnect", &outcome, &reference);
    assert_eq!(
        outcome.completed(),
        offered,
        "transport/reconnect: every session query must complete"
    );
    assert_eq!(
        stats.connections_opened, stats.connections_drained,
        "transport/reconnect: every connection must drain"
    );
    assert!(
        stats.connections_opened as usize >= connections,
        "transport/reconnect: each epoch dials a fresh connection"
    );
    transport.push_row(transport_row(
        "reconnect-heavy",
        moderate_qps,
        "tcp",
        &outcome,
        &stats,
    ));
    transport.push_note(
        "same arrival schedules and adaptive-auto service on both transports; the \
         TCP path adds framing, checksums, loopback sockets and a pipelining unit \
         of one in-flight request per connection, so its open-loop latency upper-\
         bounds the wire cost. Hard-asserted: every completed response \
         bit-identical to solo execution (the wire changes transport, never \
         answers), lossless under the blocking policy, connections opened = \
         drained",
    );
    transport.push_note(
        "the reconnect-heavy row replays wazi_workload::reconnect_sessions: \
         per-client Poisson epochs with a fresh connection per epoch and 25% \
         hot-key substitution, so connection churn and skew land on the server \
         together",
    );

    // The read/write table: the snapshot-versioned writer path under a
    // live writer. A writer thread publishes a new index version per write
    // burst while clients read concurrently; every response names the
    // epoch it executed against and is hard-asserted bit-identical to a
    // solo execution on that epoch's pinned snapshot.
    let mut rw = Report::new(
        "service-rw",
        "Snapshot reads under a live writer (mixed read/write schedule, \
         epoch-versioned index)",
    )
    .with_headers(&[
        "Index",
        "Reads",
        "Writes",
        "Versions",
        "Epochs read",
        "Retired",
        "Rebuilds",
        "p50",
        "p95",
    ]);
    let rw_rounds = 4usize;
    let rw_reads = (ctx.workload_size / (rw_rounds + 1)).max(6);
    let rw_writes = (ctx.dataset_size / 200).clamp(4, 64);
    let rw_schedule = mixed_read_write_schedule(
        SERVICE_REGION,
        rw_rounds,
        rw_reads,
        rw_writes,
        SERVICE_SELECTIVITY,
        ctx.seed ^ 0x0DD_5EED,
    );
    let rw_queries: Vec<Query> = rw_schedule
        .iter()
        .filter_map(|step| match step {
            RwStep::Queries(queries) => Some(queries.clone()),
            RwStep::Writes(_) => None,
        })
        .flatten()
        .collect();
    let rw_bursts = rw_schedule.iter().filter(|s| s.write_count() > 0).count() as u64;
    let rw_ops: u64 = rw_schedule.iter().map(|s| s.write_count() as u64).sum();
    let rw_plans = dealt(
        poisson_arrivals(rw_queries.clone(), moderate_qps, ctx.seed),
        CLIENTS,
    );
    // Three writer temperaments: in-place inserts (WaZI), full
    // insert+delete support (Flood), and rebuild-per-burst (QUASII).
    for kind in [IndexKind::Wazi, IndexKind::Flood, IndexKind::Quasii] {
        let source = build_versioned_index(kind, &points, &train, ctx.leaf_capacity);
        let label = format!("rw/{kind}");
        let service = Service::builder_versioned(Arc::clone(&source))
            .max_batch(64)
            .start();
        // One pinned snapshot per published epoch, `snapshots[e]` at epoch
        // `e` — the versions the bit-identity assert replays against.
        let snapshots = Mutex::new(vec![source.snapshot()]);
        let (reads, rebuilds) = thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut rebuilds = 0u64;
                for step in &rw_schedule {
                    let RwStep::Writes(ops) = step else { continue };
                    let receipt = service
                        .apply_write(ops)
                        .unwrap_or_else(|err| panic!("{label}: write burst failed: {err}"));
                    let snapshot = source.snapshot();
                    assert_eq!(
                        snapshot.epoch(),
                        receipt.epoch,
                        "{label}: the single writer sees its own publish"
                    );
                    snapshots.lock().expect("snapshot registry").push(snapshot);
                    rebuilds += u64::from(receipt.rebuilt);
                    // A short pause per burst so reads land across many
                    // epochs instead of all racing the first one.
                    thread::sleep(Duration::from_micros(200));
                }
                rebuilds
            });
            let reads = replay(Via::InProcess(&service), &rw_plans, SubmitOptions::new());
            (reads, writer.join().expect("writer thread"))
        });
        let stats = service.shutdown();
        let snapshots = snapshots.into_inner().expect("snapshot registry");
        assert_eq!(
            reads.completed(),
            rw_queries.len(),
            "{label}: the blocking policy must be lossless under writes"
        );
        assert_eq!(stats.writes_applied, rw_ops, "{label}");
        assert_eq!(stats.snapshots_published, rw_bursts, "{label}");
        assert_eq!(stats.current_epoch, rw_bursts, "{label}");
        assert_eq!(snapshots.len(), rw_bursts as usize + 1, "{label}");
        // The live-writer bit-identity assert: each response equals a solo
        // execution on the pinned snapshot of exactly the epoch it names.
        let mut epochs_read = std::collections::BTreeSet::new();
        for (i, response) in reads.responses(&label) {
            let epoch = response.batch.epoch;
            epochs_read.insert(epoch);
            let solo = QueryEngine::new(&snapshots[epoch as usize])
                .execute(&rw_queries[i])
                .expect("solo execution on pinned snapshot")
                .output;
            assert_eq!(
                response.report.output, solo,
                "{label}: response {i} diverged from its epoch-{epoch} snapshot"
            );
        }
        rw.push_row(vec![
            kind.name().to_string(),
            reads.completed().to_string(),
            stats.writes_applied.to_string(),
            stats.snapshots_published.to_string(),
            epochs_read.len().to_string(),
            stats.epochs_retired.to_string(),
            rebuilds.to_string(),
            format_ns(reads.percentile_ns(0.50) as f64),
            format_ns(reads.percentile_ns(0.95) as f64),
        ]);
    }
    rw.push_note(format!(
        "a writer thread applies {rw_bursts} write bursts of {rw_writes} ops \
         (inserts, deletes of earlier inserts, closing maintain) while {CLIENTS} \
         clients replay {} reads open-loop on a Poisson schedule at the moderate \
         offered load ({moderate_qps:.0} qps), with the same driver as the tables \
         above: p50/p95 run from each read's scheduled arrival to its response. \
         Every response carries the epoch of the index version it executed against",
        rw_queries.len()
    ));
    rw.push_note(
        "hard-asserted per index: lossless under the blocking policy, one \
         published version per burst, and every response bit-identical to a solo \
         execution on the pinned snapshot of exactly the epoch it names — a \
         snapshot never changes answers, writes only change which snapshot you \
         read. WaZI applies inserts in place, Flood also deletes in place, \
         QUASII rebuilds from the point mirror every burst",
    );

    vec![table, counters, transport, recovery, rw]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The experiment's own asserts (bit-identity, losslessness, the
    /// saturating-load throughput bound) all run inside `service`; this
    /// test exercises them at smoke scale and checks the report shape the
    /// artifact is built from.
    #[test]
    fn smoke_run_produces_wellformed_reports() {
        let ctx = ExperimentContext::smoke_test();
        let reports = service(&ctx);
        assert_eq!(reports.len(), 5);
        let load = &reports[0];
        assert_eq!(load.id, "service-load");
        // 4 configs x 2 loads + the bursty row.
        assert_eq!(load.rows.len(), 2 * VARIANTS.len() + 1);
        for row in &load.rows {
            assert_eq!(row.len(), load.headers.len());
        }
        let counters = &reports[1];
        assert_eq!(counters.id, "service-stats");
        assert_eq!(counters.rows.len(), 2 * VARIANTS.len() + 2);
        let transport = &reports[2];
        assert_eq!(transport.id, "service-transport");
        // (in-process + tcp) x 2 loads + the reconnect-heavy row.
        assert_eq!(transport.rows.len(), 5);
        for row in &transport.rows {
            assert_eq!(row.len(), transport.headers.len());
        }
        let recovery = &reports[3];
        assert_eq!(recovery.id, "service-recovery");
        // control + seeded chaos + worker kill + deadline.
        assert_eq!(recovery.rows.len(), 4);
        for row in &recovery.rows {
            assert_eq!(row.len(), recovery.headers.len());
        }
        let rw = &reports[4];
        assert_eq!(rw.id, "service-rw");
        // One row per writer temperament: WaZI, Flood, QUASII.
        assert_eq!(rw.rows.len(), 3);
        for row in &rw.rows {
            assert_eq!(row.len(), rw.headers.len());
        }
    }
}
