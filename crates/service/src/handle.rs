//! Completion handles and response types: what a submitter gets back.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use wazi_core::{EngineError, QueryReport, StrategyDecisions};
use wazi_storage::ExecStats;

/// Errors surfaced by the service.
///
/// Marked `#[non_exhaustive]` (like [`EngineError`] and
/// `wazi_core::IndexError`): the failure taxonomy grows with the service,
/// and downstream matches must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The engine rejected the query — either at submission time (invalid
    /// plan, caught before it can poison a coalesced batch) or during batch
    /// execution.
    Engine(EngineError),
    /// The service has shut down and accepts no new submissions.
    Closed,
    /// The worker that drained this query died (panicked outside the
    /// execution boundary) before routing a response: the query's
    /// responder was dropped unresolved. The supervisor respawns the
    /// worker; only the queries it was holding are lost, and each of their
    /// tickets resolves to this error rather than hanging. A ticket
    /// redeemed again after it already delivered its outcome also reads
    /// this error.
    WorkerDied,
    /// Execution panicked inside a kernel while this query was being
    /// answered **and** the panic was attributed to this query: the batch
    /// it rode in was re-executed one query at a time, every other query
    /// got its normal response, and this one panicked again on its own.
    ExecutionPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The query's [`SubmitOptions::deadline`] expired while it was still
    /// queued, so the service dropped it at batch-formation time instead of
    /// executing it late.
    DeadlineExceeded,
    /// [`crate::Service::apply_write`] was called on a service built over a
    /// frozen index ([`crate::Service::builder`]); only a service built with
    /// [`crate::Service::builder_versioned`] has a writer path.
    WritesUnsupported,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Engine(err) => write!(f, "engine error: {err}"),
            ServiceError::Closed => write!(f, "service is shut down"),
            ServiceError::WorkerDied => {
                write!(f, "worker died before routing a response to this query")
            }
            ServiceError::ExecutionPanicked { message } => {
                write!(f, "execution panicked on this query: {message}")
            }
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline expired before the query reached a worker")
            }
            ServiceError::WritesUnsupported => {
                write!(
                    f,
                    "service was built over a frozen index; writes need a versioned index"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(err: EngineError) -> Self {
        match err {
            // Unwrap the engine's panic capture into the service's own
            // variant so callers match one taxonomy, not a nested one.
            EngineError::ExecutionPanicked(message) => ServiceError::ExecutionPanicked { message },
            other => ServiceError::Engine(other),
        }
    }
}

/// Per-submission options for [`crate::Service::submit_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SubmitOptions {
    /// Maximum time the query may spend in the service, measured from
    /// acceptance. A query whose deadline expires while it is still queued
    /// is culled at batch-formation time and its ticket resolves to
    /// [`ServiceError::DeadlineExceeded`] — it is never executed late and
    /// never silently dropped. `None` (the default) means no deadline.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Options with no deadline (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the deadline, measured from acceptance.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Batch-level context attached to every response: the per-query
/// [`QueryReport`] answers *what*, this summary answers *how* the batch
/// that carried the query was executed.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Number of queries coalesced into the batch.
    pub size: usize,
    /// Wall-clock of the whole batch inside the engine, in nanoseconds.
    pub latency_ns: u64,
    /// Range queries executed through the fused range kernel.
    pub fused_queries: usize,
    /// Point probes executed through the fused leaf-grouped kernel.
    pub fused_points: usize,
    /// kNN plans executed through the shared expanding-ring sweep.
    pub fused_knn: usize,
    /// Sweep shards the fused range kernel ran on (zero when sequential).
    pub shards_used: usize,
    /// Work the fused kernels performed once on behalf of several queries.
    pub shared_stats: ExecStats,
    /// The engine's per-partition strategy decisions for this batch.
    pub decisions: StrategyDecisions,
    /// Epoch of the index snapshot the batch executed against: 0 forever on
    /// a frozen index, and the [`wazi_core::Snapshot::epoch`] of the pinned
    /// snapshot on a versioned one. Every query in a batch reads the same
    /// epoch — a batch never observes a write published mid-execution.
    pub epoch: u64,
    /// `true` when the coalesced pass panicked and this response came from
    /// the degraded one-query-at-a-time re-execution. Outputs are still
    /// bit-identical to solo execution (they *are* solo executions); only
    /// the fusion counters above are zero and the latency reflects the
    /// sequential fallback.
    pub degraded: bool,
}

/// The service's answer to one submitted query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The per-query report, exactly as [`wazi_core::QueryEngine`] produced
    /// it — output, work counters, per-query latency. Outputs are
    /// bit-identical to a solo `execute` of the same query by the engine's
    /// fusion guarantee.
    pub report: QueryReport,
    /// How the coalesced batch carrying this query was executed.
    pub batch: BatchSummary,
    /// Time the query spent coalescing in the submission queue before a
    /// worker drained it, in nanoseconds.
    pub queue_ns: u64,
    /// End-to-end service latency in nanoseconds: submission to response
    /// routing (queueing + batch execution).
    pub total_ns: u64,
}

/// Outcome of a [`crate::Service::submit`] call.
#[derive(Debug)]
pub enum Submit {
    /// The query was enqueued; redeem the [`Ticket`] for the response.
    Accepted(Ticket),
    /// The queue was full under [`crate::FullQueuePolicy::Reject`]; the
    /// query was shed and will not be executed.
    Rejected,
}

impl Submit {
    /// Returns the ticket of an accepted submission, `None` if shed.
    pub fn ticket(self) -> Option<Ticket> {
        match self {
            Submit::Accepted(ticket) => Some(ticket),
            Submit::Rejected => None,
        }
    }

    /// Returns `true` when the submission was shed.
    pub fn is_rejected(&self) -> bool {
        matches!(self, Submit::Rejected)
    }
}

/// Where one query's outcome waits for its submitter.
// The outcome is stored inline: the slot is one allocation sized for it,
// and boxing it would add a second allocation per query.
#[allow(clippy::large_enum_variant)]
enum State {
    /// Not answered yet; `Some` names the thread parked in a redemption,
    /// the only one the resolver wakes.
    Waiting(Option<Thread>),
    Ready(Result<QueryResponse, ServiceError>),
    /// The outcome was handed out; any later redemption reads
    /// [`ServiceError::WorkerDied`].
    Taken,
}

/// A one-shot slot shared by one [`Ticket`] and its [`Responder`].
struct Slot(Mutex<State>);

impl Slot {
    /// The state is replaced whole under the guard and no code that can
    /// panic runs while it is held, so a poisoned guard is still coherent.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fresh slot's two halves: the submitter's ticket and the responder
/// that travels with the query through the queue.
pub(crate) fn ticket() -> (Ticket, Responder) {
    let slot = Arc::new(Slot(Mutex::new(State::Waiting(None))));
    (
        Ticket {
            slot: Arc::clone(&slot),
        },
        Responder { slot: Some(slot) },
    )
}

/// The service's half of a ticket. [`Responder::resolve`] consumes it, so
/// a query is answered at most once; dropping it unresolved (the worker
/// holding it died) answers [`ServiceError::WorkerDied`], so every ticket
/// resolves.
pub(crate) struct Responder {
    /// `None` once resolved, so `Drop` does not answer a second time.
    slot: Option<Arc<Slot>>,
}

impl Responder {
    /// Publishes the query's outcome. Returns the submitter to wake if one
    /// is parked in a redemption; a worker holds the wakes until its whole
    /// batch is published, so it is not preempted mid-batch by the thread
    /// it woke, and a woken submitter finds all its answers ready. A
    /// submitter that dropped its ticket is gone; that is its choice, and
    /// the outcome is dropped with the slot.
    #[must_use = "dropping the Wake wakes the submitter at once"]
    pub(crate) fn resolve(mut self, outcome: Result<QueryResponse, ServiceError>) -> Option<Wake> {
        self.slot.take().and_then(|slot| fill(&slot, outcome))
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            drop(fill(&slot, Err(ServiceError::WorkerDied)));
        }
    }
}

/// A parked submitter whose answer is published. Dropping it unparks the
/// thread, so a wake-up cannot be lost, only held back.
pub(crate) struct Wake(Thread);

impl Drop for Wake {
    fn drop(&mut self) {
        self.0.unpark();
    }
}

/// Fills a slot only a [`Responder`] can reach, once: before, it can only
/// be `Waiting`.
fn fill(slot: &Slot, outcome: Result<QueryResponse, ServiceError>) -> Option<Wake> {
    match std::mem::replace(&mut *slot.lock(), State::Ready(outcome)) {
        State::Waiting(waiter) => waiter.map(Wake),
        State::Ready(_) | State::Taken => None,
    }
}

/// Completion handle for one accepted query. `Send + 'static`: hand it to
/// whatever thread should consume the response.
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the service answers. A query whose worker died before
    /// routing anything surfaces as [`ServiceError::WorkerDied`], never as
    /// a hang.
    pub fn wait(self) -> Result<QueryResponse, ServiceError> {
        self.redeem(None)
            .expect("an untimed redemption returns only an outcome")
    }

    /// Blocks for at most `timeout` for the service to answer. `None`
    /// means the query is still queued or executing — the ticket remains
    /// redeemable; `Some` carries the terminal outcome (including
    /// [`ServiceError::WorkerDied`] when the query's worker died). A
    /// timeout too large to form a deadline waits without one.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryResponse, ServiceError>> {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.redeem(Some(deadline)),
            None => self.redeem(None),
        }
    }

    /// Returns the response if it has already arrived, without blocking.
    /// `None` means the query is still queued or executing.
    pub fn try_wait(&self) -> Option<Result<QueryResponse, ServiceError>> {
        let mut state = self.slot.lock();
        match std::mem::replace(&mut *state, State::Taken) {
            State::Ready(outcome) => Some(outcome),
            State::Taken => Some(Err(ServiceError::WorkerDied)),
            waiting @ State::Waiting(_) => {
                *state = waiting;
                None
            }
        }
    }

    /// Takes the outcome, parking until it is filled or `deadline` passes.
    /// Every wake-up re-checks the slot, so spurious wake-ups and stray
    /// unpark tokens only cost a loop turn.
    fn redeem(&self, deadline: Option<Instant>) -> Option<Result<QueryResponse, ServiceError>> {
        loop {
            {
                let mut state = self.slot.lock();
                match std::mem::replace(&mut *state, State::Taken) {
                    State::Ready(outcome) => return Some(outcome),
                    State::Taken => return Some(Err(ServiceError::WorkerDied)),
                    // Register this thread, replacing any waiter left by an
                    // earlier timed-out redemption (perhaps on another
                    // thread: the ticket is `Send`).
                    State::Waiting(_) => *state = State::Waiting(Some(thread::current())),
                }
            }
            match deadline {
                None => thread::park(),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    thread::park_timeout(left);
                }
            }
        }
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_error_display() {
        assert_eq!(ServiceError::Closed.to_string(), "service is shut down");
        assert!(ServiceError::WorkerDied.to_string().contains("worker died"));
        assert!(ServiceError::DeadlineExceeded
            .to_string()
            .contains("deadline expired"));
        let panicked = ServiceError::ExecutionPanicked {
            message: "index out of bounds".into(),
        };
        assert!(panicked.to_string().contains("index out of bounds"));
        let engine = ServiceError::from(EngineError::InvalidQuery("nan".into()));
        assert!(engine.to_string().contains("invalid query"));
    }

    #[test]
    fn engine_panic_unwraps_into_the_service_variant() {
        let err = ServiceError::from(EngineError::ExecutionPanicked("boom".into()));
        assert_eq!(
            err,
            ServiceError::ExecutionPanicked {
                message: "boom".into()
            }
        );
    }

    /// A response whose answer is `count`, for slot tests that must tell
    /// two deliveries apart.
    fn response(count: u64) -> QueryResponse {
        QueryResponse {
            report: QueryReport {
                output: wazi_core::QueryOutput::Count(count),
                stats: ExecStats::default(),
                latency_ns: 0,
            },
            batch: BatchSummary {
                size: 1,
                latency_ns: 0,
                fused_queries: 0,
                fused_points: 0,
                fused_knn: 0,
                shards_used: 0,
                shared_stats: ExecStats::default(),
                decisions: StrategyDecisions::default(),
                epoch: 0,
                degraded: false,
            },
            queue_ns: 0,
            total_ns: 0,
        }
    }

    /// Sleeps in short steps until thread `id` is the slot's registered
    /// waiter, so a test can act on a submitter that is parked (or about
    /// to park: an unpark before the park is kept as a token).
    fn until_parked(slot: &Slot, id: std::thread::ThreadId) {
        while !matches!(&*slot.lock(), State::Waiting(Some(w)) if w.id() == id) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn dropped_sender_surfaces_as_worker_died() {
        let (ticket, responder) = super::ticket();
        drop(responder);
        assert!(ticket.wait_timeout(Duration::ZERO) == Some(Err(ServiceError::WorkerDied)));
        assert!(ticket.try_wait() == Some(Err(ServiceError::WorkerDied)));
        assert_eq!(ticket.wait(), Err(ServiceError::WorkerDied));
    }

    #[test]
    fn a_resolve_before_the_wait_is_delivered_without_parking() {
        let (ticket, responder) = super::ticket();
        drop(responder.resolve(Ok(response(7))));
        assert!(matches!(*ticket.slot.lock(), State::Ready(_)));
        assert_eq!(ticket.wait(), Ok(response(7)));
    }

    #[test]
    fn a_parked_wait_is_woken_by_a_resolve_from_another_thread() {
        let (ticket, responder) = super::ticket();
        let (slot, me) = (Arc::clone(&ticket.slot), std::thread::current().id());
        let resolver = std::thread::spawn(move || {
            until_parked(&slot, me);
            drop(responder.resolve(Ok(response(3))));
        });
        assert_eq!(ticket.wait(), Ok(response(3)));
        resolver.join().unwrap();
    }

    #[test]
    fn a_timed_out_wait_leaves_the_ticket_redeemable() {
        let (ticket, responder) = super::ticket();
        assert!(ticket.wait_timeout(Duration::from_millis(2)).is_none());
        assert!(ticket.try_wait().is_none());
        // The timed-out redemption left this thread registered; the resolve
        // unparks it (a stray token), which no later redemption minds.
        drop(responder.resolve(Ok(response(5))));
        assert!(ticket.wait_timeout(Duration::from_secs(5)) == Some(Ok(response(5))));
        assert!(
            ticket.wait_timeout(Duration::from_millis(1)) == Some(Err(ServiceError::WorkerDied))
        );
    }

    #[test]
    fn a_stale_waiter_is_replaced_by_the_thread_that_redeems() {
        let (ticket, responder) = super::ticket();
        // Time out here, then redeem on another thread: the resolve must
        // wake that thread, not this one.
        assert!(ticket.wait_timeout(Duration::ZERO).is_none());
        let slot = Arc::clone(&ticket.slot);
        let waiter = std::thread::spawn(move || ticket.wait());
        until_parked(&slot, waiter.thread().id());
        drop(responder.resolve(Ok(response(9))));
        assert_eq!(waiter.join().unwrap(), Ok(response(9)));
    }

    #[test]
    fn a_stray_unpark_does_not_end_a_wait_early() {
        let (ticket, responder) = super::ticket();
        let ticket = Arc::new(ticket);
        let waiter = {
            let ticket = Arc::clone(&ticket);
            std::thread::spawn(move || ticket.wait_timeout(Duration::from_secs(30)))
        };
        until_parked(&ticket.slot, waiter.thread().id());
        waiter.thread().unpark();
        waiter.thread().unpark();
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "an unpark is not an answer");
        drop(responder.resolve(Ok(response(11))));
        assert!(waiter.join().unwrap() == Some(Ok(response(11))));
    }

    #[test]
    fn a_redemption_after_try_wait_delivered_reads_worker_died() {
        let (ticket, responder) = super::ticket();
        assert!(ticket.try_wait().is_none());
        drop(responder.resolve(Err(ServiceError::DeadlineExceeded)));
        assert!(ticket.try_wait() == Some(Err(ServiceError::DeadlineExceeded)));
        // The outcome is handed out once; every later redemption reads
        // what a receiver reads from a closed channel after its one message.
        assert!(ticket.try_wait() == Some(Err(ServiceError::WorkerDied)));
        assert!(ticket.wait_timeout(Duration::ZERO) == Some(Err(ServiceError::WorkerDied)));
        assert_eq!(ticket.wait(), Err(ServiceError::WorkerDied));
    }

    #[test]
    fn wait_timeout_with_an_unrepresentable_deadline_waits_untimed() {
        let (ticket, responder) = super::ticket();
        let ticket = Arc::new(ticket);
        let waiter = {
            let ticket = Arc::clone(&ticket);
            std::thread::spawn(move || ticket.wait_timeout(Duration::MAX))
        };
        until_parked(&ticket.slot, waiter.thread().id());
        drop(responder.resolve(Ok(response(13))));
        assert!(waiter.join().unwrap() == Some(Ok(response(13))));
        // Already delivered: the same call returns at once.
        assert!(ticket.wait_timeout(Duration::MAX) == Some(Err(ServiceError::WorkerDied)));
    }

    #[test]
    fn submit_options_compose() {
        assert_eq!(SubmitOptions::new().deadline, None);
        let opts = SubmitOptions::new().deadline(Duration::from_millis(5));
        assert_eq!(opts.deadline, Some(Duration::from_millis(5)));
    }

    #[test]
    fn rejected_submission_has_no_ticket() {
        assert!(Submit::Rejected.is_rejected());
        assert!(Submit::Rejected.ticket().is_none());
    }
}
