//! The service's observability surface: cheap atomic counters updated by
//! workers and submitters, snapshotted on demand.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters shared by every thread touching the service. The
/// queue mutex is never taken to update them; [`crate::Service::stats`]
/// takes it only to read the live queue depth.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) flushed_on_capacity: AtomicU64,
    pub(crate) flushed_on_timer: AtomicU64,
    pub(crate) flushed_on_shutdown: AtomicU64,
    pub(crate) max_batch_size: AtomicU64,
    pub(crate) total_queue_wait_ns: AtomicU64,
    pub(crate) max_queue_wait_ns: AtomicU64,
    pub(crate) window_ns: AtomicU64,
    pub(crate) timed_out: AtomicU64,
    pub(crate) panicked: AtomicU64,
    pub(crate) degraded_batches: AtomicU64,
    pub(crate) worker_panics: AtomicU64,
    pub(crate) worker_restarts: AtomicU64,
    pub(crate) connections_opened: AtomicU64,
    pub(crate) connections_severed: AtomicU64,
    pub(crate) connections_drained: AtomicU64,
}

impl StatsInner {
    pub(crate) fn snapshot(&self, queue_depth: usize) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            flushed_on_capacity: self.flushed_on_capacity.load(Ordering::Relaxed),
            flushed_on_timer: self.flushed_on_timer.load(Ordering::Relaxed),
            flushed_on_shutdown: self.flushed_on_shutdown.load(Ordering::Relaxed),
            queue_depth,
            max_batch_size: self.max_batch_size.load(Ordering::Relaxed),
            total_queue_wait_ns: self.total_queue_wait_ns.load(Ordering::Relaxed),
            max_queue_wait_ns: self.max_queue_wait_ns.load(Ordering::Relaxed),
            window_ns: self.window_ns.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_severed: self.connections_severed.load(Ordering::Relaxed),
            connections_drained: self.connections_drained.load(Ordering::Relaxed),
            // Version-lifecycle counters live on the versioned index, not in
            // these atomics; `Service::stats` overlays them when the service
            // was built with a writer path.
            current_epoch: 0,
            writes_applied: 0,
            snapshots_published: 0,
            epochs_retired: 0,
        }
    }

    pub(crate) fn record_max(slot: &AtomicU64, value: u64) {
        slot.fetch_max(value, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of the service's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Queries accepted into the submission queue.
    pub submitted: u64,
    /// Queries answered with a [`crate::QueryResponse`].
    pub completed: u64,
    /// Queries shed by the [`crate::FullQueuePolicy::Reject`] policy.
    pub shed: u64,
    /// Coalesced batches executed.
    pub batches: u64,
    /// Batches flushed because the queue reached `max_batch`.
    pub flushed_on_capacity: u64,
    /// Batches flushed because the oldest query waited out the window.
    pub flushed_on_timer: u64,
    /// Batches flushed by shutdown draining the queue.
    pub flushed_on_shutdown: u64,
    /// Queries waiting in the queue at snapshot time.
    pub queue_depth: usize,
    /// Largest batch executed so far.
    pub max_batch_size: u64,
    /// Sum over completed queries of their time in the queue (coalescing
    /// latency), in nanoseconds.
    pub total_queue_wait_ns: u64,
    /// Longest time any completed query spent in the queue, in nanoseconds.
    pub max_queue_wait_ns: u64,
    /// The adaptive coalescing window after the most recent flush, in
    /// nanoseconds; below `min_window` while the sharing gate holds.
    pub window_ns: u64,
    /// Queries whose [`crate::SubmitOptions::deadline`] expired in the
    /// queue; culled at batch-formation time with
    /// [`crate::ServiceError::DeadlineExceeded`].
    pub timed_out: u64,
    /// Queries that panicked during their own solo re-execution and were
    /// answered with [`crate::ServiceError::ExecutionPanicked`].
    pub panicked: u64,
    /// Coalesced batches whose fused pass panicked and were re-executed
    /// one query at a time (graceful degradation).
    pub degraded_batches: u64,
    /// Worker threads that died on a panic outside the execution boundary.
    pub worker_panics: u64,
    /// Worker threads the supervisor respawned after a panic.
    pub worker_restarts: u64,
    /// Transport connections a network front end opened over this service
    /// (reported via [`crate::Service::note_connection_opened`]; zero when
    /// the service is used purely in-process).
    pub connections_opened: u64,
    /// Connections a front end closed on a fault — read/write timeout, wire
    /// corruption, peer disconnect — rather than a clean end-of-stream.
    pub connections_severed: u64,
    /// Connections whose close path redeemed every in-flight ticket before
    /// releasing the connection (the no-ticket-left-behind guarantee
    /// extended to transports). After a front end shuts down cleanly this
    /// equals [`ServiceStats::connections_opened`].
    pub connections_drained: u64,
    /// Epoch of the currently published index version (0 on a frozen
    /// index, which never advances).
    pub current_epoch: u64,
    /// Write operations applied through [`crate::Service::apply_write`].
    pub writes_applied: u64,
    /// Index versions published by the writer path (one per successful
    /// `apply_write`; 0 on a frozen index).
    pub snapshots_published: u64,
    /// Superseded index versions whose last pinned snapshot was dropped
    /// and whose memory was reclaimed.
    pub epochs_retired: u64,
}

impl ServiceStats {
    /// Mean queries per executed batch (0 before the first batch).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// Mean coalescing latency per completed query in nanoseconds (0
    /// before the first completion).
    pub fn mean_queue_wait_ns(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_queue_wait_ns as f64 / self.completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_derived_means() {
        let inner = StatsInner::default();
        inner.submitted.store(10, Ordering::Relaxed);
        inner.completed.store(8, Ordering::Relaxed);
        inner.batches.store(2, Ordering::Relaxed);
        inner.total_queue_wait_ns.store(4_000, Ordering::Relaxed);
        StatsInner::record_max(&inner.max_batch_size, 5);
        StatsInner::record_max(&inner.max_batch_size, 3);
        let stats = inner.snapshot(1);
        assert_eq!(stats.queue_depth, 1);
        assert_eq!(stats.max_batch_size, 5);
        assert_eq!(stats.mean_batch_size(), 4.0);
        assert_eq!(stats.mean_queue_wait_ns(), 500.0);
    }

    #[test]
    fn empty_stats_divide_safely() {
        let stats = ServiceStats::default();
        assert_eq!(stats.mean_batch_size(), 0.0);
        assert_eq!(stats.mean_queue_wait_ns(), 0.0);
    }
}
