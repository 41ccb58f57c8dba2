//! The service proper: bounded submission queue, worker pool, coalesced
//! execution, response routing, fault isolation, worker supervision,
//! graceful shutdown.
//!
//! ## Failure model (implementation view)
//!
//! Three layers keep one faulty query from taking the service down — see
//! `docs/SERVICE.md` at the repository root for the user-facing guide:
//!
//! 1. **Panic isolation + graceful degradation.** Every coalesced batch
//!    executes inside [`wazi_core::catch_execution_panic`]. If the fused
//!    pass panics, [`degrade_batch`] re-executes the batch's queries one at
//!    a time (each again inside the catch boundary): every non-faulty
//!    query gets its normal response — bit-identical to solo execution,
//!    because it *is* a solo execution — and only the query that panics
//!    alone resolves to [`ServiceError::ExecutionPanicked`].
//! 2. **Poison-resistant locking.** Every acquisition of the queue mutex
//!    (including through the condvars) recovers the guard from a
//!    [`PoisonError`], so a worker that dies while holding the lock cannot
//!    wedge submitters, siblings, or shutdown. The queue state stays
//!    consistent because workers only mutate it by draining whole batches.
//! 3. **Worker supervision.** Each worker holds an [`ExitGuard`] that
//!    reports its exit (and whether it panicked) to a supervisor thread,
//!    which joins the dead thread and respawns a replacement into the same
//!    slot — so the pool returns to full strength after any panic that
//!    escapes the execution boundary. The queries the dead worker had
//!    already drained are the only casualties; their tickets resolve to
//!    [`ServiceError::WorkerDied`] when their unresolved responders drop.
//!
//! Deadlines are enforced at batch-formation time: a query whose
//! [`SubmitOptions::deadline`] expired while queued is culled from the
//! drained batch with [`ServiceError::DeadlineExceeded`] instead of being
//! executed late — and never silently dropped.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wazi_core::{
    catch_execution_panic, BatchStrategy, EngineError, Query, QueryEngine, Snapshot,
    SnapshotSource, SpatialIndex, StrategyDecisions, VersionStats, WriteOp, WriteReceipt,
};

use crate::config::{FullQueuePolicy, ServiceConfig};
use crate::faults::{self, FaultPlan};
use crate::handle::{
    self, BatchSummary, QueryResponse, Responder, ServiceError, Submit, SubmitOptions,
};
use crate::stats::{ServiceStats, StatsInner};
use crate::window::{FlushCause, WindowController};

/// One accepted query waiting in the submission queue.
struct Pending {
    /// Submission sequence number: the order of acceptance, from 0.
    seq: u64,
    query: Query,
    responder: Responder,
    submitted_at: Instant,
    /// Absolute expiry instant, from [`SubmitOptions::deadline`].
    deadline: Option<Instant>,
}

/// State behind the service mutex.
struct QueueState {
    pending: VecDeque<Pending>,
    window: WindowController,
    shutdown: bool,
}

/// What the service executes queries against: a frozen index shared
/// directly, or a versioned index whose current snapshot is pinned per
/// batch (the writer path of [`Service::apply_write`]).
enum IndexSource {
    Frozen(Arc<dyn SpatialIndex>),
    Versioned(Arc<dyn SnapshotSource>),
}

impl IndexSource {
    /// Pins the version a batch will execute against. On a frozen index
    /// this is a plain borrow; on a versioned one it takes an epoch-pinned
    /// snapshot, so the whole batch — including a degraded re-execution —
    /// reads one immutable version however many writes are published
    /// meanwhile.
    fn pin(&self) -> PinnedIndex<'_> {
        match self {
            IndexSource::Frozen(index) => PinnedIndex::Frozen(index.as_ref()),
            IndexSource::Versioned(source) => PinnedIndex::Snapshot(source.snapshot()),
        }
    }
}

/// One batch's pinned view of the index; see [`IndexSource::pin`].
enum PinnedIndex<'a> {
    Frozen(&'a dyn SpatialIndex),
    Snapshot(Snapshot),
}

impl PinnedIndex<'_> {
    fn index(&self) -> &dyn SpatialIndex {
        match self {
            PinnedIndex::Frozen(index) => *index,
            PinnedIndex::Snapshot(snapshot) => snapshot,
        }
    }

    /// The epoch stamped into the batch's [`BatchSummary`]; 0 on a frozen
    /// index.
    fn epoch(&self) -> u64 {
        match self {
            PinnedIndex::Frozen(_) => 0,
            PinnedIndex::Snapshot(snapshot) => snapshot.epoch(),
        }
    }
}

/// State shared by the service handle, its workers and every submitter.
struct Shared {
    index: IndexSource,
    /// Cached display name of the underlying index (the source may need a
    /// snapshot to answer, so it is resolved once at startup).
    index_name: &'static str,
    config: ServiceConfig,
    queue: Mutex<QueueState>,
    /// Signalled when work arrives or shutdown begins; workers wait here.
    work: Condvar,
    /// Signalled when a worker drains the queue; blocked submitters under
    /// [`FullQueuePolicy::Block`] wait here.
    space: Condvar,
    stats: StatsInner,
    fault_plan: Option<Arc<FaultPlan>>,
}

/// Acquires the queue mutex, recovering the guard if a worker panicked
/// while holding it. The state a panicking worker leaves behind is always
/// consistent: batches are drained atomically under the guard, and the
/// window controller's fields are plain integers updated in place.
fn lock_queue(shared: &Shared) -> MutexGuard<'_, QueueState> {
    shared.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Builder-style front end for a [`Service`]; construct with
/// [`Service::builder`], finish with [`ServiceBuilder::start`].
pub struct ServiceBuilder {
    index: IndexSource,
    index_name: &'static str,
    config: ServiceConfig,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl std::fmt::Debug for ServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceBuilder")
            .field("index", &self.index_name)
            .field("config", &self.config)
            .finish()
    }
}

impl ServiceBuilder {
    /// Bounds the submission queue (floored at 1 query).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity.max(1);
        self
    }

    /// Bounds the coalesced batch size (floored at 1). `1` is dispatch
    /// mode: every query executes alone, nothing coalesces.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch.max(1);
        self
    }

    /// Sets the adaptive window's bounds (`max` floored at `min`).
    pub fn window(mut self, min: Duration, max: Duration) -> Self {
        self.config.min_window = min;
        self.config.max_window = max.max(min);
        self
    }

    /// Pins the window to a fixed value: neither the rate rule nor the
    /// sharing gate moves it.
    pub fn fixed_window(self, window: Duration) -> Self {
        self.window(window, window)
    }

    /// Sizes the worker pool explicitly (floored at 1 thread). The default
    /// is the host's `available_parallelism`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Sets the backpressure policy for a full submission queue.
    pub fn on_full(mut self, policy: FullQueuePolicy) -> Self {
        self.config.on_full = policy;
        self
    }

    /// Sets the engine strategy used for every coalesced batch.
    pub fn strategy(mut self, strategy: BatchStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Installs a deterministic fault plan (the chaos harness): faults
    /// fire at the planned submission sequence numbers. See
    /// [`crate::faults`].
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Starts the worker pool (under supervision) and returns the running
    /// service.
    pub fn start(self) -> Service {
        let window = WindowController::new(
            self.config.min_window.as_nanos() as u64,
            self.config.max_window.as_nanos() as u64,
        );
        let shared = Arc::new(Shared {
            index: self.index,
            index_name: self.index_name,
            queue: Mutex::new(QueueState {
                pending: VecDeque::with_capacity(self.config.queue_capacity.min(4096)),
                window,
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            stats: StatsInner::default(),
            config: self.config,
            fault_plan: self.fault_plan,
        });
        shared.stats.window_ns.store(
            shared.config.min_window.as_nanos() as u64,
            Ordering::Relaxed,
        );
        let (exit_tx, exit_rx) = mpsc::channel();
        let handles: Vec<Option<JoinHandle<()>>> = (0..shared.config.workers)
            .map(|slot| Some(spawn_worker(Arc::clone(&shared), slot, exit_tx.clone())))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wazi-service-supervisor".into())
                .spawn(move || supervisor_loop(shared, handles, exit_rx, exit_tx))
                .expect("spawn service supervisor")
        };
        Service {
            shared,
            supervisor: Some(supervisor),
        }
    }
}

/// A running concurrent query service over one shared index.
///
/// Submissions from any number of client threads coalesce in a bounded
/// queue under an adaptive micro-batching window and execute as fused
/// engine batches; see the crate docs for the pipeline and
/// `docs/SERVICE.md` at the repository root for the full guide (including
/// the failure model: panic isolation, degraded re-execution, deadlines,
/// worker supervision).
///
/// The handle is `Sync`: share `&Service` across client threads (e.g. via
/// `std::thread::scope`). Dropping it shuts the service down gracefully,
/// draining every accepted query first.
pub struct Service {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl Service {
    /// Starts building a service over a frozen `index`: queries only,
    /// [`Service::apply_write`] returns [`ServiceError::WritesUnsupported`].
    pub fn builder(index: Arc<dyn SpatialIndex>) -> ServiceBuilder {
        let index_name = index.name();
        ServiceBuilder {
            index: IndexSource::Frozen(index),
            index_name,
            config: ServiceConfig::default(),
            fault_plan: None,
        }
    }

    /// Starts building a service over a versioned index
    /// ([`wazi_core::VersionedIndex`] behind its [`SnapshotSource`] facade):
    /// every batch executes against an epoch-pinned snapshot of the current
    /// version, and [`Service::apply_write`] publishes new versions while
    /// queries keep flowing.
    pub fn builder_versioned(source: Arc<dyn SnapshotSource>) -> ServiceBuilder {
        let index_name = source.snapshot().name();
        ServiceBuilder {
            index: IndexSource::Versioned(source),
            index_name,
            config: ServiceConfig::default(),
            fault_plan: None,
        }
    }

    /// The configuration the service runs under.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Submits one query for coalesced execution with default options
    /// (no deadline). See [`Service::submit_with`].
    pub fn submit(&self, query: Query) -> Result<Submit, ServiceError> {
        self.submit_with(query, SubmitOptions::default())
    }

    /// Submits one query for coalesced execution.
    ///
    /// Validates the plan immediately — an invalid query is refused here
    /// with [`ServiceError::Engine`] rather than poisoning a whole
    /// coalesced batch later (the engine rejects batches atomically).
    /// When the queue is full, [`FullQueuePolicy::Block`] waits for space
    /// and [`FullQueuePolicy::Reject`] sheds ([`Submit::Rejected`]).
    ///
    /// A [`SubmitOptions::deadline`] is measured from acceptance; if it
    /// expires while the query is still queued, the query is culled at
    /// batch-formation time and the ticket resolves to
    /// [`ServiceError::DeadlineExceeded`].
    pub fn submit_with(
        &self,
        query: Query,
        options: SubmitOptions,
    ) -> Result<Submit, ServiceError> {
        query.validate()?;
        let shared = &self.shared;
        // Allocated before the lock; a refused query drops both halves.
        let (ticket, responder) = handle::ticket();
        let mut queue = lock_queue(shared);
        loop {
            if queue.shutdown {
                return Err(ServiceError::Closed);
            }
            if queue.pending.len() < shared.config.queue_capacity {
                break;
            }
            match shared.config.on_full {
                FullQueuePolicy::Reject => {
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    return Ok(Submit::Rejected);
                }
                FullQueuePolicy::Block => {
                    queue = shared
                        .space
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        // The sequence number is assigned at acceptance, under the lock, so
        // it is exactly the queue arrival order — the key space fault plans
        // and chaos tests speak in.
        let seq = shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        faults::stall_on_submit(&shared.fault_plan, seq);
        let submitted_at = Instant::now();
        queue.pending.push_back(Pending {
            seq,
            query,
            responder,
            submitted_at,
            deadline: options.deadline.map(|d| submitted_at + d),
        });
        let depth = queue.pending.len();
        drop(queue);
        // Wake a worker only when it has something new to act on: the
        // empty→nonempty transition (a timer must be armed for the new
        // oldest query) or a queue deep enough for a capacity cut. Any
        // other submission is already covered by the armed timer —
        // notifying on every submit would wake the worker once per query,
        // the exact per-query overhead coalescing exists to amortise.
        if depth == 1 || depth >= shared.config.max_batch {
            shared.work.notify_one();
        }
        Ok(Submit::Accepted(ticket))
    }

    /// Applies a batch of write operations through the versioned index's
    /// writer path and publishes the result as a new epoch. Batches already
    /// executing keep their pinned snapshot; batches formed after the
    /// publish read the new version.
    ///
    /// Concurrent callers serialize on the index's writer lock. A panic
    /// inside the writer (a buggy index, or an injected write fault) is
    /// caught here: the working fork is discarded, nothing is published,
    /// and the error is reported as [`ServiceError::ExecutionPanicked`] —
    /// the service itself keeps serving.
    ///
    /// On a service built over a frozen index ([`Service::builder`]) this
    /// returns [`ServiceError::WritesUnsupported`].
    pub fn apply_write(&self, ops: &[WriteOp]) -> Result<WriteReceipt, ServiceError> {
        let source = match &self.shared.index {
            IndexSource::Frozen(_) => return Err(ServiceError::WritesUnsupported),
            IndexSource::Versioned(source) => source,
        };
        match catch_execution_panic(|| Ok(source.apply(ops))) {
            Ok(Ok(receipt)) => Ok(receipt),
            Ok(Err(index_err)) => Err(ServiceError::Engine(EngineError::Index(index_err))),
            Err(engine_err) => Err(ServiceError::from(engine_err)),
        }
    }

    /// The version-lifecycle counters of the underlying versioned index
    /// (`None` on a service built over a frozen index).
    pub fn version_stats(&self) -> Option<VersionStats> {
        match &self.shared.index {
            IndexSource::Frozen(_) => None,
            IndexSource::Versioned(source) => Some(source.version_stats()),
        }
    }

    /// Snapshots the service counters (including the live queue depth and,
    /// on a versioned index, the version-lifecycle counters).
    pub fn stats(&self) -> ServiceStats {
        let depth = lock_queue(&self.shared).pending.len();
        let mut stats = self.shared.stats.snapshot(depth);
        if let Some(versions) = self.version_stats() {
            stats.current_epoch = versions.current_epoch;
            stats.writes_applied = versions.writes_applied;
            stats.snapshots_published = versions.snapshots_published;
            stats.epochs_retired = versions.epochs_retired;
        }
        stats
    }

    /// Records that a transport front end accepted a connection over this
    /// service ([`ServiceStats::connections_opened`]).
    ///
    /// The connection counters are *hooks for transports* (`wazi-net` is
    /// the in-tree caller): the service has no connections of its own, but
    /// it owns the accounting so one snapshot — [`Service::stats`] —
    /// answers for queries and connections alike, and so the
    /// no-ticket-left-behind guarantee can be audited end to end
    /// (`connections_drained == connections_opened` after a clean front-end
    /// shutdown).
    pub fn note_connection_opened(&self) {
        self.shared
            .stats
            .connections_opened
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records that a transport connection was severed on a fault (timeout,
    /// wire corruption, peer disconnect) rather than closed cleanly
    /// ([`ServiceStats::connections_severed`]).
    pub fn note_connection_severed(&self) {
        self.shared
            .stats
            .connections_severed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records that a transport connection's close path redeemed every
    /// in-flight ticket before releasing the connection
    /// ([`ServiceStats::connections_drained`]).
    pub fn note_connection_drained(&self) {
        self.shared
            .stats
            .connections_drained
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Initiates shutdown without waiting: refuses new submissions from
    /// this point on and wakes both idle workers and submitters blocked on
    /// a full queue (they return [`ServiceError::Closed`]). The drain
    /// proceeds in the background; call [`Service::shutdown`] — or drop
    /// the handle — to wait for it. Callable from any thread sharing
    /// `&Service`, which is what lets one client pull the plug while
    /// others are mid-submit.
    pub fn begin_shutdown(&self) {
        {
            let mut queue = lock_queue(&self.shared);
            queue.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }

    /// Shuts down gracefully: refuses new submissions, drains every
    /// accepted query (their tickets all resolve — with a response, a
    /// deadline error, or a panic error; never a hang), joins the worker
    /// pool through the supervisor, and returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        self.begin_shutdown();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("index", &self.shared.index_name)
            .field("config", &self.shared.config)
            .field("workers", &self.shared.config.workers)
            .finish()
    }
}

/// A worker's exit report, delivered to the supervisor by [`ExitGuard`].
struct WorkerExit {
    slot: usize,
    panicked: bool,
}

/// Dropped when a worker thread exits — normally or by unwinding — so the
/// supervisor learns about every exit without polling `JoinHandle`s.
struct ExitGuard {
    slot: usize,
    tx: mpsc::Sender<WorkerExit>,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        // A closed channel means the supervisor itself is gone (only
        // possible after it counted every worker out); nothing to report.
        let _ = self.tx.send(WorkerExit {
            slot: self.slot,
            panicked: std::thread::panicking(),
        });
    }
}

fn spawn_worker(
    shared: Arc<Shared>,
    slot: usize,
    exit_tx: mpsc::Sender<WorkerExit>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("wazi-service-{slot}"))
        .spawn(move || {
            let _guard = ExitGuard { slot, tx: exit_tx };
            worker_loop(&shared);
        })
        .expect("spawn service worker")
}

/// Joins exited workers and respawns panicked ones into their slot.
///
/// Each worker sends exactly one [`WorkerExit`] (via its [`ExitGuard`]),
/// so the loop runs until every live worker has been counted out. A
/// panicked worker is respawned unless the service is shutting down with
/// an already-empty queue — during a shutdown drain the replacement still
/// spawns, finishes the drain, and exits cleanly, so accepted queries are
/// drained even if the last worker dies mid-shutdown.
fn supervisor_loop(
    shared: Arc<Shared>,
    mut handles: Vec<Option<JoinHandle<()>>>,
    exit_rx: mpsc::Receiver<WorkerExit>,
    exit_tx: mpsc::Sender<WorkerExit>,
) {
    let mut alive = handles.iter().filter(|h| h.is_some()).count();
    while alive > 0 {
        let exit = exit_rx
            .recv()
            .expect("exit channel outlives workers: supervisor holds a sender");
        if let Some(handle) = handles.get_mut(exit.slot).and_then(Option::take) {
            let _ = handle.join();
        }
        alive -= 1;
        if !exit.panicked {
            continue;
        }
        shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
        let respawn = {
            let queue = lock_queue(&shared);
            !queue.shutdown || !queue.pending.is_empty()
        };
        if respawn {
            let replacement = spawn_worker(Arc::clone(&shared), exit.slot, exit_tx.clone());
            if let Some(slot) = handles.get_mut(exit.slot) {
                *slot = Some(replacement);
            }
            alive += 1;
            shared.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some((batch, cause)) = next_batch(shared) {
        execute_and_respond(shared, batch, cause);
    }
}

/// Drains up to `max_batch` pending queries, deciding the flush cause,
/// then culls the drained queries whose deadline expired while queued.
/// Returns `None` (worker exits) once the service is shut down and empty.
fn next_batch(shared: &Shared) -> Option<(Vec<Pending>, FlushCause)> {
    let mut queue: MutexGuard<'_, QueueState> = lock_queue(shared);
    loop {
        if queue.pending.is_empty() {
            if queue.shutdown {
                return None;
            }
            queue = shared
                .work
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        let cause = if queue.shutdown {
            FlushCause::Shutdown
        } else if queue.pending.len() >= shared.config.max_batch {
            FlushCause::Capacity
        } else {
            let oldest = queue.pending.front().expect("non-empty queue").submitted_at;
            let newest = queue.pending.back().expect("non-empty queue").submitted_at;
            let plan = queue.window.wait_plan(
                oldest.elapsed(),
                newest.elapsed(),
                queue.pending.len(),
                shared.config.workers,
            );
            if let Some(wait) = plan {
                let (guard, _timeout) = shared
                    .work
                    .wait_timeout(queue, wait)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
                continue;
            }
            FlushCause::Timer
        };
        let take = queue.pending.len().min(shared.config.max_batch);
        let batch: Vec<Pending> = queue.pending.drain(..take).collect();
        // Failpoint: die here, with the guard held and the batch drained —
        // the harshest worker death the service must survive (poisoned
        // mutex, dropped tickets, a pool one thread short).
        faults::kill_worker_if_planned(&shared.fault_plan, batch.iter().map(|p| p.seq));
        if !queue.pending.is_empty() {
            // Leftovers (queue deeper than one batch): wake a sibling so it
            // can start cutting the next batch while this one executes.
            shared.work.notify_one();
        }
        drop(queue);
        // Space opened up: release submitters blocked on the full queue.
        shared.space.notify_all();

        // Deadline cull: expired queries are answered (never executed,
        // never silently dropped) and the rest form the batch. Culling at
        // batch formation keeps the hot submit path free of deadline
        // bookkeeping.
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        let mut expired = 0u64;
        for pending in batch {
            match pending.deadline {
                Some(deadline) if now >= deadline => {
                    expired += 1;
                    drop(
                        pending
                            .responder
                            .resolve(Err(ServiceError::DeadlineExceeded)),
                    );
                }
                _ => live.push(pending),
            }
        }
        if expired > 0 {
            shared.stats.timed_out.fetch_add(expired, Ordering::Relaxed);
        }
        if live.is_empty() {
            // The whole drain had expired; go back for real work.
            queue = lock_queue(shared);
            continue;
        }
        return Some((live, cause));
    }
}

/// Executes one coalesced batch and routes each response to its submitter.
///
/// The fused pass runs inside the engine's panic-catch boundary; a panic
/// downgrades the batch to [`degrade_batch`] instead of killing the worker.
fn execute_and_respond(shared: &Shared, batch: Vec<Pending>, cause: FlushCause) {
    let drained_at = Instant::now();
    let queries: Vec<Query> = batch.iter().map(|p| p.query.clone()).collect();
    // Pin the version for the whole batch: every query in it — and the
    // degraded re-execution, should the fused pass panic — reads this one
    // immutable snapshot, whatever the writer publishes meanwhile.
    let pinned = shared.index.pin();
    let epoch = pinned.epoch();
    let engine = QueryEngine::new(pinned.index()).with_strategy(shared.config.strategy);
    let result = catch_execution_panic(|| {
        faults::delay_and_panic_if_planned(&shared.fault_plan, batch.iter().map(|p| p.seq));
        engine.execute_batch(&queries)
    });
    let report = match result {
        Ok(report) => report,
        Err(EngineError::ExecutionPanicked(_)) => {
            // The coalesced pass panicked somewhere inside a kernel. Fall
            // back to one-query-at-a-time execution so the fault is
            // attributed to exactly the query that carries it.
            degrade_batch(shared, &engine, epoch, batch, cause, drained_at);
            return;
        }
        Err(err) => {
            // Queries are validated at submission, so this is unreachable
            // for plan errors; still, fail every submitter loudly rather
            // than dropping tickets.
            let service_err = ServiceError::from(err);
            for pending in batch {
                drop(pending.responder.resolve(Err(service_err.clone())));
            }
            return;
        }
    };

    // Feed the flush back into the adaptive window (brief lock; execution
    // above ran unlocked).
    observe_flush(shared, cause, batch.len(), &report.strategy_chosen);

    let stats = &shared.stats;
    stats.batches.fetch_add(1, Ordering::Relaxed);
    record_flush_cause(stats, cause);
    StatsInner::record_max(&stats.max_batch_size, batch.len() as u64);

    let summary = BatchSummary {
        size: batch.len(),
        latency_ns: report.latency_ns,
        fused_queries: report.fused_queries,
        fused_points: report.fused_points,
        fused_knn: report.fused_knn,
        shards_used: report.shards_used,
        shared_stats: report.shared_stats,
        decisions: report.strategy_chosen,
        epoch,
        degraded: false,
    };

    // Count the batch as completed *before* routing responses, so a client
    // that receives its response and immediately snapshots the stats never
    // sees its own query missing from `completed`.
    let mut queue_wait_total = 0u64;
    let queue_waits: Vec<u64> = batch
        .iter()
        .map(|pending| {
            let queue_ns = drained_at
                .saturating_duration_since(pending.submitted_at)
                .as_nanos() as u64;
            queue_wait_total += queue_ns;
            StatsInner::record_max(&stats.max_queue_wait_ns, queue_ns);
            queue_ns
        })
        .collect();
    stats
        .completed
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    stats
        .total_queue_wait_ns
        .fetch_add(queue_wait_total, Ordering::Relaxed);

    // Publish every answer, then wake the submitters parked on them.
    let mut wakes = Vec::new();
    for ((pending, query_report), queue_ns) in
        batch.into_iter().zip(report.reports).zip(queue_waits)
    {
        let total_ns = pending.submitted_at.elapsed().as_nanos() as u64;
        wakes.extend(pending.responder.resolve(Ok(QueryResponse {
            report: query_report,
            batch: summary.clone(),
            queue_ns,
            total_ns,
        })));
    }
    drop(wakes);
}

/// Graceful degradation: the coalesced pass panicked, so re-execute the
/// batch one query at a time, each inside its own catch boundary. Every
/// query that survives alone gets its normal response (bit-identical to
/// solo execution — it *is* one); the query that panics again resolves to
/// [`ServiceError::ExecutionPanicked`] carrying the panic message.
fn degrade_batch(
    shared: &Shared,
    engine: &QueryEngine<'_>,
    epoch: u64,
    batch: Vec<Pending>,
    cause: FlushCause,
    drained_at: Instant,
) {
    let stats = &shared.stats;
    let outcomes: Vec<Result<wazi_core::QueryReport, EngineError>> = batch
        .iter()
        .map(|pending| {
            catch_execution_panic(|| {
                faults::panic_if_planned_solo(&shared.fault_plan, pending.seq);
                engine.execute(&pending.query)
            })
        })
        .collect();

    // The degraded pass still counts as the batch's flush: feed the window
    // a no-decision observation so adaptation keeps running across faults
    // (an EWMA gap, not a stall).
    observe_flush(shared, cause, batch.len(), &StrategyDecisions::default());
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.degraded_batches.fetch_add(1, Ordering::Relaxed);
    record_flush_cause(stats, cause);
    StatsInner::record_max(&stats.max_batch_size, batch.len() as u64);

    let summary = BatchSummary {
        size: batch.len(),
        latency_ns: drained_at.elapsed().as_nanos() as u64,
        fused_queries: 0,
        fused_points: 0,
        fused_knn: 0,
        shards_used: 0,
        shared_stats: Default::default(),
        decisions: StrategyDecisions::default(),
        epoch,
        degraded: true,
    };

    let completed = outcomes.iter().filter(|o| o.is_ok()).count() as u64;
    let panicked = outcomes.len() as u64 - completed;
    let mut queue_wait_total = 0u64;
    for (pending, outcome) in batch.iter().zip(&outcomes) {
        if outcome.is_ok() {
            let queue_ns = drained_at
                .saturating_duration_since(pending.submitted_at)
                .as_nanos() as u64;
            queue_wait_total += queue_ns;
            StatsInner::record_max(&stats.max_queue_wait_ns, queue_ns);
        }
    }
    stats.completed.fetch_add(completed, Ordering::Relaxed);
    stats.panicked.fetch_add(panicked, Ordering::Relaxed);
    stats
        .total_queue_wait_ns
        .fetch_add(queue_wait_total, Ordering::Relaxed);

    for (pending, outcome) in batch.into_iter().zip(outcomes) {
        let message = match outcome {
            Ok(report) => {
                let queue_ns = drained_at
                    .saturating_duration_since(pending.submitted_at)
                    .as_nanos() as u64;
                let total_ns = pending.submitted_at.elapsed().as_nanos() as u64;
                Ok(QueryResponse {
                    report,
                    batch: summary.clone(),
                    queue_ns,
                    total_ns,
                })
            }
            Err(err) => Err(ServiceError::from(err)),
        };
        drop(pending.responder.resolve(message));
    }
}

/// Feeds one flush into the adaptive window under a brief lock and
/// republishes the resulting window width.
fn observe_flush(
    shared: &Shared,
    cause: FlushCause,
    batch_len: usize,
    decisions: &StrategyDecisions,
) {
    let mut queue = lock_queue(shared);
    queue
        .window
        .observe_flush(cause, batch_len, shared.config.max_batch, decisions);
    shared
        .stats
        .window_ns
        .store(queue.window.window_ns(), Ordering::Relaxed);
}

fn record_flush_cause(stats: &StatsInner, cause: FlushCause) {
    match cause {
        FlushCause::Capacity => stats.flushed_on_capacity.fetch_add(1, Ordering::Relaxed),
        FlushCause::Timer => stats.flushed_on_timer.fetch_add(1, Ordering::Relaxed),
        FlushCause::Shutdown => stats.flushed_on_shutdown.fetch_add(1, Ordering::Relaxed),
    };
}
