//! Completion handles and response types: what a submitter gets back.

use std::sync::mpsc;
use std::time::Duration;

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
    /// execution boundary) before routing a response. The supervisor
    /// respawns the worker; only the queries it was holding are lost, and
    /// each of their tickets resolves to this error rather than hanging.
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

/// Completion handle for one accepted query. `Send + 'static`: hand it to
/// whatever thread should consume the response.
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Result<QueryResponse, ServiceError>>,
}

impl Ticket {
    /// Blocks until the service answers. A severed channel (the worker
    /// holding this query died before routing anything) surfaces as
    /// [`ServiceError::WorkerDied`], never as a hang.
    pub fn wait(self) -> Result<QueryResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::WorkerDied))
    }

    /// Blocks for at most `timeout` for the service to answer. `None`
    /// means the query is still queued or executing — the ticket remains
    /// redeemable; `Some` carries the terminal outcome (including
    /// [`ServiceError::WorkerDied`] for a severed channel).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryResponse, ServiceError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(response) => Some(response),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServiceError::WorkerDied)),
        }
    }

    /// Returns the response if it has already arrived, without blocking.
    /// `None` means the query is still queued or executing.
    pub fn try_wait(&self) -> Option<Result<QueryResponse, ServiceError>> {
        match self.rx.try_recv() {
            Ok(response) => Some(response),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServiceError::WorkerDied)),
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

    #[test]
    fn dropped_sender_surfaces_as_worker_died() {
        let (tx, rx) = mpsc::channel::<Result<QueryResponse, ServiceError>>();
        drop(tx);
        let ticket = Ticket { rx };
        assert!(ticket.wait_timeout(Duration::ZERO) == Some(Err(ServiceError::WorkerDied)));
        assert!(ticket.try_wait() == Some(Err(ServiceError::WorkerDied)));
        assert_eq!(ticket.wait(), Err(ServiceError::WorkerDied));
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
