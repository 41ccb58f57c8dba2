//! The `serve_*` workloads: closed-loop generator threads against the
//! micro-batching service, in process and over loopback TCP.
//!
//! A generator keeps a fixed number of its own requests in flight: it
//! submits until that window is full, then redeems its oldest request, and
//! only then submits the next. The number in flight is therefore fixed per
//! workload, whatever the host's core count.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use wazi_core::{
    Query, QueryOutput, SnapshotSource, SpatialIndex, VersionedIndex, WriteOp, ZIndex,
};
use wazi_geom::Point;
use wazi_net::wire::{self, Frame, FrameBody, RawFrame};
use wazi_net::{Server, DEFAULT_MAX_FRAME_LEN};
use wazi_service::{QueryResponse, Service, ServiceStats, SubmitOptions, Ticket};
use wazi_workload::RwStep;

use crate::harness::{generator_threads, Built, Counters, Trial, Workload};
use crate::inputs::{self, Common, Digest};
use crate::oracle::{self, Check, Scan};
use crate::trace::Recorder;
use crate::{host, sys};

/// What a closed-loop generator does next.
#[derive(Debug, PartialEq, Eq)]
pub enum Step {
    /// Submit the generator's `n`-th request.
    Submit(usize),
    /// Wait for the oldest outstanding request.
    Redeem,
    Done,
}

/// The closed loop's bookkeeping: never more than `limit` requests in flight.
pub struct Window {
    limit: usize,
    total: usize,
    issued: usize,
    redeemed: usize,
}

impl Window {
    pub fn new(limit: usize, total: usize) -> Self {
        Window {
            limit: limit.max(1),
            total,
            issued: 0,
            redeemed: 0,
        }
    }

    pub fn in_flight(&self) -> usize {
        self.issued - self.redeemed
    }

    pub fn next(&mut self) -> Step {
        if self.issued < self.total && self.in_flight() < self.limit {
            self.issued += 1;
            Step::Submit(self.issued - 1)
        } else if self.in_flight() > 0 {
            self.redeemed += 1;
            Step::Redeem
        } else {
            Step::Done
        }
    }
}

/// One way of reaching the service.
trait Lane {
    type Pending;
    type Reply: Send;
    fn submit(&mut self, op: usize) -> Self::Pending;
    /// Blocks until the request is answered.
    fn redeem(&mut self, pending: Self::Pending) -> Self::Reply;
}

struct InProcess<'a> {
    service: &'a Service,
    queries: &'a [Query],
    /// When given: the requests whose materialized points are kept for the
    /// oracle. The others' are dropped on receipt, as a client that is done
    /// with an answer drops it — a trial's worth of hot-spot result sets is
    /// hundreds of megabytes.
    keep: Option<&'a [bool]>,
}

impl Lane for InProcess<'_> {
    type Pending = (usize, Option<Ticket>);
    type Reply = Option<QueryResponse>;

    fn submit(&mut self, op: usize) -> Self::Pending {
        let submit = self.service.submit(self.queries[op].clone());
        (op, submit.ok().and_then(|s| s.ticket()))
    }

    fn redeem(&mut self, (op, ticket): Self::Pending) -> Option<QueryResponse> {
        let mut response = ticket?.wait().ok()?;
        if self.keep.is_some_and(|keep| !keep[op]) {
            if let QueryOutput::Points(points) = &response.report.output {
                response.report.output = QueryOutput::Count(points.len() as u64);
            }
        }
        Some(response)
    }
}

/// Pre-encoded request frames written raw; responses read as raw frames and
/// decoded after the clock stopped. The server answers a connection's
/// requests in order, so the oldest outstanding request is always the next
/// frame on the socket.
struct Wire<'a> {
    stream: &'a TcpStream,
    reader: BufReader<&'a TcpStream>,
    frames: &'a [Vec<u8>],
}

impl Lane for Wire<'_> {
    type Pending = bool;
    type Reply = Option<RawFrame>;

    fn submit(&mut self, op: usize) -> bool {
        self.stream.write_all(&self.frames[op]).is_ok()
    }

    fn redeem(&mut self, written: bool) -> Option<RawFrame> {
        if !written {
            return None;
        }
        wire::read_raw_frame(&mut self.reader, DEFAULT_MAX_FRAME_LEN).ok()?
    }
}

/// The response a raw frame carries, if it answers request `op`.
fn decode(op: usize, reply: Option<RawFrame>) -> Option<QueryResponse> {
    let raw = reply.filter(|raw| raw.request_id == op as u64)?;
    match raw.body() {
        Ok(FrameBody::Response(response)) => Some(*response),
        _ => None,
    }
}

/// When one request of a generator was submitted, accepted and answered.
struct Timing {
    op: usize,
    /// The in-flight slot the request occupied.
    slot: usize,
    submitted: Instant,
    accepted: Instant,
    answered: Instant,
}

/// A write burst a generator applied: `(burst, start, end, succeeded)`.
type Applied = (usize, Instant, Instant, bool);

/// What one generator thread hands back.
struct Log<R> {
    started: Instant,
    finished: Instant,
    served: Vec<(Timing, R)>,
    writes: Vec<Applied>,
    context_switches: u64,
}

/// Runs generator `thread` of `threads`: it owns requests `thread`,
/// `thread + threads`, … of `total`. `before` runs ahead of each submit with
/// the request about to go out (where `serve_rw`'s writer applies its
/// bursts).
fn generate<L: Lane>(
    lane: &mut L,
    (thread, threads): (usize, usize),
    total: usize,
    limit: usize,
    gate: &Barrier,
    mut before: impl FnMut(usize, &mut Vec<Applied>),
) -> Log<L::Reply> {
    let own = (total + threads - 1 - thread) / threads;
    let mut window = Window::new(limit, own);
    let mut outstanding = VecDeque::with_capacity(limit);
    let mut served = Vec::with_capacity(own);
    let mut writes = Vec::new();
    // Twice: ready (buffers allocated), then go.
    gate.wait();
    gate.wait();
    let started = Instant::now();
    loop {
        match window.next() {
            Step::Submit(n) => {
                let op = thread + n * threads;
                before(op, &mut writes);
                let submitted = Instant::now();
                let pending = lane.submit(op);
                outstanding.push_back((op, n % limit, submitted, Instant::now(), pending));
            }
            Step::Redeem => {
                let (op, slot, submitted, accepted, pending) = outstanding
                    .pop_front()
                    .expect("the window counted a request in flight");
                let reply = lane.redeem(pending);
                let timing = Timing {
                    op,
                    slot,
                    submitted,
                    accepted,
                    answered: Instant::now(),
                };
                served.push((timing, reply));
            }
            Step::Done => break,
        }
    }
    Log {
        started,
        finished: Instant::now(),
        served,
        writes,
        context_switches: host::own_context_switches(),
    }
}

/// What [`run_generators`] saw beside the logs: the most threads alive,
/// and the allocations counted while the generators ran.
struct Observed {
    threads_peak: u64,
    allocs: (u64, u64),
}

/// Starts `threads` generators behind one gate and collects their logs.
fn run_generators<R: Send>(
    threads: usize,
    traced: bool,
    body: impl Fn(usize, &Barrier) -> Log<R> + Sync,
) -> (Vec<Log<R>>, Observed) {
    let gate = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let (gate, body) = (&gate, &body);
        let generators: Vec<_> = (0..threads)
            .map(|thread| scope.spawn(move || body(thread, gate)))
            .collect();
        gate.wait();
        if traced {
            sys::arm();
        }
        gate.wait();
        let threads_peak = host::threads_now();
        let logs = generators
            .into_iter()
            .map(|g| g.join().expect("generator thread panicked"))
            .collect();
        let allocs = sys::disarm();
        let observed = Observed {
            threads_peak,
            allocs,
        };
        (logs, observed)
    })
}

/// Lays one served request out as a span tree. In process:
/// `bench.op` → `service.submit` (timed), then what the response reports —
/// `service.queue`, `core.engine.batch` (→ projection and scan: the
/// query's own and its batch's shared), `service.route`. Over the wire the reported spans hang under a
/// `net.wire` span timed from the first byte written to the frame read.
fn record_served(
    rec: &mut Recorder,
    thread: usize,
    served: &Timing,
    response: &QueryResponse,
    over_wire: bool,
) {
    let lane = (thread * 1_000 + served.slot) as u32;
    let root = rec.root(served.op as u32, lane, served.submitted, served.answered);
    let parent = if over_wire {
        rec.measured(root, "net.wire", served.submitted, served.answered)
    } else {
        rec.measured(root, "service.submit", served.submitted, served.accepted);
        root
    };
    let batch_ns = response.batch.latency_ns;
    rec.filled(parent, "service.queue", response.queue_ns);
    let batch = rec.filled(parent, "core.engine.batch", batch_ns);
    // The query's own phases plus its batch's shared ones; what the other
    // riders did for themselves stays in the batch span's self time.
    let (own, shared) = (&response.report.stats, &response.batch.shared_stats);
    let projection_ns = own.projection_ns + shared.projection_ns;
    rec.filled(batch, "core.zindex.projection", projection_ns);
    rec.filled(batch, "storage.scan", own.scan_ns + shared.scan_ns);
    let routed = response
        .total_ns
        .saturating_sub(response.queue_ns + batch_ns);
    rec.filled(parent, "service.route", routed);
}

/// Adds one response's work to the counters. A batch's shared work and
/// fusion counts ride on every response of the batch, so each carries a
/// `1 / size` share of them.
fn count_response(counters: &mut Counters, response: &QueryResponse) {
    let batch = &response.batch;
    let share = 1.0 / batch.size.max(1) as f64;
    counters.queries += 1.0;
    counters.add_exec(&response.report.stats, 1.0);
    counters.add_exec(&batch.shared_stats, share);
    counters.shared_pages += batch.shared_stats.pages_scanned as f64 * share;
    let fused = batch.fused_queries + batch.fused_points + batch.fused_knn;
    counters.fused_queries += fused as f64 * share;
    counters.shards += batch.shards_used as f64 * share;
    counters.engine_batches += share;
}

/// What the service counted between two snapshots of its stats.
fn count_service(counters: &mut Counters, before: &ServiceStats, after: &ServiceStats) {
    counters.service_completed += (after.completed - before.completed) as f64;
    counters.service_batches += (after.batches - before.batches) as f64;
    counters.capacity_cuts += (after.flushed_on_capacity - before.flushed_on_capacity) as f64;
    counters.timer_cuts += (after.flushed_on_timer - before.flushed_on_timer) as f64;
    counters.shed += (after.shed - before.shed) as f64;
    counters.worker_restarts += (after.worker_restarts - before.worker_restarts) as f64;
    let accepted = after.submitted - before.submitted;
    let resolved = (after.completed - before.completed)
        + (after.timed_out - before.timed_out)
        + (after.panicked - before.panicked);
    counters.lost_tickets += accepted.saturating_sub(resolved) as f64;
    counters.max_batch = counters.max_batch.max(after.max_batch_size as f64);
}

/// Folds the generators' logs into a trial, one reply at a time: `respond`
/// turns a reply into its response and `check` judges it (and may keep it).
fn conclude<R>(
    logs: Vec<Log<R>>,
    (traced, over_wire): (bool, bool),
    observed: Observed,
    counters: &mut Counters,
    respond: impl Fn(usize, R) -> Option<QueryResponse>,
    mut check: impl FnMut(usize, QueryResponse) -> bool,
) -> Trial {
    let started = logs
        .iter()
        .map(|l| l.started)
        .min()
        .expect("a generator ran");
    let finished = logs
        .iter()
        .map(|l| l.finished)
        .max()
        .expect("a generator ran");
    let mut trial = Trial {
        wall: finished - started,
        threads_peak: observed.threads_peak,
        allocs: observed.allocs,
        ..Trial::default()
    };
    let mut rec = Recorder::new(started, 0);
    for (thread, log) in logs.into_iter().enumerate() {
        for (served, reply) in log.served {
            trial.ops += 1;
            let latency = served.answered - served.submitted;
            trial.calls_ns.push(latency.as_nanos() as u64);
            let Some(response) = respond(served.op, reply) else {
                trial.failed += 1;
                continue;
            };
            count_response(counters, &response);
            if traced {
                record_served(&mut rec, thread, &served, &response, over_wire);
            }
            trial.failed += u64::from(!check(served.op, response));
        }
        for (burst, start, end, ok) in log.writes {
            counters.writer_busy_ns += (end - start).as_nanos() as f64;
            trial.failed += u64::from(!ok);
            if traced {
                let lane = (thread * 1_000 + 999) as u32;
                let root = rec.root(u32::MAX - burst as u32, lane, start, end);
                rec.measured(root, "core.snapshot.apply", start, end);
            }
        }
        trial.context_switches += log.context_switches;
    }
    trial.spans = rec.spans;
    trial
}

/// How a `serve_*` workload reaches its service.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Transport {
    InProcess,
    Tcp,
}

/// `serve_solo`, `serve_inproc` and `serve_tcp`: traffic T_cheap against a
/// default-configured service over the frozen index.
pub struct Frozen {
    traffic: Vec<Query>,
    expected: Vec<QueryOutput>,
    in_flight: usize,
    transport: Transport,
    /// The traffic as request frames, encoded ahead of the clock.
    frames: Vec<Vec<u8>>,
}

impl Frozen {
    fn new(common: &Common, ops: f64, in_flight: usize, transport: Transport) -> Self {
        let traffic = inputs::t_cheap(&common.points, ops.ceil() as usize, common.seed);
        let frame = |(op, query): (usize, &Query)| {
            Frame::request(op as u64, query.clone(), SubmitOptions::new()).encode()
        };
        let frames = match transport {
            Transport::InProcess => Vec::new(),
            Transport::Tcp => traffic.iter().enumerate().map(frame).collect(),
        };
        Frozen {
            traffic,
            expected: Vec::new(),
            in_flight,
            transport,
            frames,
        }
    }

    /// One request in flight per caller: what one user feels.
    pub fn solo(common: &Common, scale: f64) -> Self {
        Self::new(common, 7_000.0 * scale, 1, Transport::InProcess)
    }

    /// Sixteen in flight per generator: the service's throughput.
    pub fn in_process(common: &Common, scale: f64) -> Self {
        Self::new(common, 25_000.0 * scale, 16, Transport::InProcess)
    }

    /// The same traffic and window through `wazi-net` on loopback.
    pub fn tcp(common: &Common, scale: f64) -> Self {
        Self::new(common, 20_000.0 * scale, 16, Transport::Tcp)
    }
}

/// The running front end of a [`Frozen`] workload.
pub enum Front {
    Service(Service),
    Server {
        server: Server,
        connections: Vec<TcpStream>,
    },
}

impl Front {
    fn service(&self) -> &Service {
        match self {
            Front::Service(service) => service,
            Front::Server { server, .. } => server.service(),
        }
    }
}

impl Workload for Frozen {
    type State = (Built, Front);

    fn load(&self) -> (usize, usize) {
        (generator_threads(), self.in_flight)
    }

    fn digest(&self, digest: &mut Digest) {
        digest.queries(&self.traffic);
    }

    fn setup(&self, common: &Common) -> Self::State {
        let built = Built::new(common);
        let index: Arc<dyn SpatialIndex> = built.index.clone();
        let service = Service::builder(index).start();
        let front = match self.transport {
            Transport::InProcess => Front::Service(service),
            Transport::Tcp => {
                let server = Server::bind(service, "127.0.0.1:0").expect("bind a loopback port");
                let connect = |_| {
                    let stream = TcpStream::connect(server.local_addr()).expect("connect");
                    stream.set_nodelay(true).expect("set TCP_NODELAY");
                    stream
                };
                let connections = (0..generator_threads()).map(connect).collect();
                Front::Server {
                    server,
                    connections,
                }
            }
        };
        (built, front)
    }

    fn built<'s>(&self, state: &'s Self::State) -> &'s Built {
        &state.0
    }

    fn prepare(&mut self, state: &Self::State, common: &Common) -> u64 {
        self.expected = oracle::solo_answers(state.0.index.as_ref(), &self.traffic);
        oracle::sampled_disagreements(&Scan::new(&common.points), &self.traffic, &self.expected)
    }

    fn trial(&self, state: &mut Self::State, traced: bool, counters: &mut Counters) -> Trial {
        let threads = generator_threads();
        let (total, limit) = (self.traffic.len(), self.in_flight);
        let front = &state.1;
        let before = front.service().stats();
        let check =
            |op: usize, response: QueryResponse| response.report.output == self.expected[op];
        let trial = match front {
            Front::Service(service) => {
                let (logs, peak) = run_generators(threads, traced, |thread, gate| {
                    let mut lane = InProcess {
                        service,
                        queries: &self.traffic,
                        keep: None,
                    };
                    generate(&mut lane, (thread, threads), total, limit, gate, |_, _| {})
                });
                conclude(
                    logs,
                    (traced, false),
                    peak,
                    counters,
                    |_, reply| reply,
                    check,
                )
            }
            Front::Server { connections, .. } => {
                let (logs, peak) = run_generators(threads, traced, |thread, gate| {
                    let stream = &connections[thread];
                    let mut lane = Wire {
                        stream,
                        reader: BufReader::new(stream),
                        frames: &self.frames,
                    };
                    generate(&mut lane, (thread, threads), total, limit, gate, |_, _| {})
                });
                conclude(logs, (traced, true), peak, counters, decode, check)
            }
        };
        count_service(counters, &before, &front.service().stats());
        trial
    }

    fn finish(&self, state: Self::State, counters: &mut Counters) {
        let stats = match state.1 {
            Front::Service(service) => service.shutdown(),
            Front::Server {
                server,
                connections,
            } => {
                drop(connections);
                server.shutdown()
            }
        };
        let leaked = stats.connections_opened.abs_diff(stats.connections_drained);
        counters.connections_leaked += leaked as f64;
    }
}

/// `serve_rw`: reads of traffic T_mixed through a service over a versioned
/// index, with generator 0 applying each write burst synchronously when the
/// reads reach it — so the other generator reads under concurrent writes.
pub struct ReadWrite<'a> {
    reads: Vec<Query>,
    bursts: Vec<Vec<WriteOp>>,
    reads_per_burst: usize,
    /// The points the schedule has added once `e` bursts are applied.
    extras_at: Vec<Vec<Point>>,
    /// The reads the scan checks; the others' result sets are not kept.
    checked: Vec<bool>,
    in_flight: usize,
    base_points: usize,
    scan: Scan<'a>,
}

impl<'a> ReadWrite<'a> {
    pub fn new(common: &'a Common, scale: f64) -> Self {
        let reads_per_burst = (64.0 * scale).ceil() as usize;
        let mut reads = Vec::new();
        let mut bursts = Vec::new();
        for step in inputs::t_mixed(100, reads_per_burst, 256, common.seed) {
            match step {
                RwStep::Queries(queries) => reads.extend(queries),
                RwStep::Writes(ops) => bursts.push(ops),
            }
        }
        let mut alive: Vec<Point> = Vec::new();
        let mut extras_at = vec![Vec::new()];
        for op in bursts.iter().flatten() {
            match op {
                WriteOp::Insert(p) => alive.push(*p),
                WriteOp::Delete(p) => {
                    let at = alive.iter().position(|q| q == p);
                    alive.swap_remove(at.expect("the schedule deletes only what it inserted"));
                }
                WriteOp::Maintain => extras_at.push(alive.clone()),
            }
        }
        let mut checked = vec![false; reads.len()];
        for i in oracle::sample(reads.iter()) {
            checked[i] = true;
        }
        ReadWrite {
            reads,
            bursts,
            reads_per_burst,
            extras_at,
            checked,
            in_flight: 16,
            base_points: common.points.len(),
            scan: Scan::new(&common.points),
        }
    }

    fn start(built: &Built) -> (Arc<VersionedIndex<ZIndex>>, Service) {
        let versioned = Arc::new(VersionedIndex::new(ZIndex::clone(&built.index)));
        let source: Arc<dyn SnapshotSource> = versioned.clone();
        (versioned, Service::builder_versioned(source).start())
    }
}

/// Set-up product of [`ReadWrite`]. Writes change the index, so every trial
/// after the first starts a fresh service over a clone of the built index.
pub struct Versioned {
    built: Built,
    first: Option<(Arc<VersionedIndex<ZIndex>>, Service)>,
    bytes_per_point: f64,
}

impl Workload for ReadWrite<'_> {
    type State = Versioned;

    fn load(&self) -> (usize, usize) {
        (generator_threads(), self.in_flight)
    }

    fn digest(&self, digest: &mut Digest) {
        digest.queries(&self.reads);
        self.bursts.iter().for_each(|ops| digest.write_ops(ops));
    }

    fn setup(&self, common: &Common) -> Versioned {
        let built = Built::new(common);
        let first = Some(Self::start(&built));
        Versioned {
            built,
            first,
            bytes_per_point: 0.0,
        }
    }

    fn built<'s>(&self, state: &'s Versioned) -> &'s Built {
        &state.built
    }

    fn index_bytes_per_point(&self, state: &Versioned) -> f64 {
        state.bytes_per_point
    }

    fn prepare(&mut self, _state: &Versioned, _common: &Common) -> u64 {
        // What a read must answer depends on the epoch it ran against, so
        // the answers are checked per trial, against the scan.
        0
    }

    fn trial(&self, state: &mut Versioned, traced: bool, counters: &mut Counters) -> Trial {
        let threads = generator_threads();
        let (versioned, service) = state
            .first
            .take()
            .unwrap_or_else(|| Self::start(&state.built));
        let live_epochs_max = AtomicU64::new(0);
        let (logs, peak) = run_generators(threads, traced, |thread, gate| {
            let mut lane = InProcess {
                service: &service,
                queries: &self.reads,
                keep: Some(&self.checked),
            };
            let mut applied = 0;
            let writer = |op: usize, writes: &mut Vec<Applied>| {
                while thread == 0
                    && applied < self.bursts.len()
                    && op >= (applied + 1) * self.reads_per_burst
                {
                    let start = Instant::now();
                    let receipt = service.apply_write(&self.bursts[applied]);
                    writes.push((applied, start, Instant::now(), receipt.is_ok()));
                    let alive = service.version_stats().map_or(0, |v| v.live_epochs());
                    // Relaxed: a statistic, read after the threads joined.
                    live_epochs_max.fetch_max(alive, Ordering::Relaxed);
                    applied += 1;
                }
            };
            let share = (thread, threads);
            generate(
                &mut lane,
                share,
                self.reads.len(),
                self.in_flight,
                gate,
                writer,
            )
        });

        // Keep what the scan will check: the answer and the epoch it is of.
        let mut kept: Vec<(usize, u64, QueryOutput)> = Vec::new();
        let keep = |op: usize, response: QueryResponse| {
            if self.checked[op] {
                kept.push((op, response.batch.epoch, response.report.output));
            }
            true
        };
        let mut trial = conclude(
            logs,
            (traced, false),
            peak,
            counters,
            |_, reply| reply,
            keep,
        );
        let checks: Vec<Check> = kept
            .iter()
            .map(|(op, epoch, answer)| {
                let extras = self.extras_at.get(*epoch as usize);
                (
                    &self.reads[*op],
                    answer,
                    extras.map_or(&[][..], Vec::as_slice),
                )
            })
            .collect();
        trial.failed += self.scan.disagreements(&checks, host::parallelism());

        // The final state: every burst published once, no rebuild, and the
        // length the schedule's inserts and deletes add up to.
        let write_ops: usize = self.bursts.iter().map(Vec::len).sum();
        trial.ops += write_ops as u64;
        let versions = versioned.version_stats();
        let snapshot = versioned.snapshot();
        let added = self.extras_at.last().map_or(0, Vec::len);
        let consistent = versions.snapshots_published == self.bursts.len() as u64
            && versions.writes_applied == write_ops as u64
            && snapshot.len() == self.base_points + added;
        trial.failed += u64::from(!consistent);
        counters.epochs_published += versions.snapshots_published as f64;
        counters.rebuild_fallbacks += versions.rebuild_fallbacks as f64;
        counters.live_epochs_max = counters
            .live_epochs_max
            .max(live_epochs_max.into_inner() as f64);
        state.bytes_per_point = snapshot.size_bytes() as f64 / snapshot.len() as f64;
        drop(snapshot);

        let after = service.shutdown();
        count_service(counters, &ServiceStats::default(), &after);
        trial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_window_never_exceeds_the_stated_in_flight() {
        for (limit, total) in [(1, 5), (16, 100), (16, 3), (4, 0)] {
            let mut window = Window::new(limit, total);
            let (mut submitted, mut redeemed) = (Vec::new(), 0);
            loop {
                match window.next() {
                    Step::Submit(n) => submitted.push(n),
                    Step::Redeem => redeemed += 1,
                    Step::Done => break,
                }
                assert!(window.in_flight() <= limit);
            }
            assert_eq!(submitted, (0..total).collect::<Vec<_>>());
            assert_eq!(redeemed, total);
            assert_eq!(window.in_flight(), 0);
        }
    }

    #[test]
    fn a_full_window_redeems_before_it_submits() {
        let mut window = Window::new(2, 3);
        let steps: Vec<Step> = std::iter::from_fn(|| Some(window.next())).take(7).collect();
        let expected = [
            Step::Submit(0),
            Step::Submit(1),
            Step::Redeem,
            Step::Submit(2),
            Step::Redeem,
            Step::Redeem,
            Step::Done,
        ];
        assert_eq!(steps, expected);
    }
}
