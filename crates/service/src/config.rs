//! Service tunables: queue bound, batch bound, window bounds, worker pool,
//! backpressure policy and batch strategy.

use std::time::Duration;

use wazi_core::BatchStrategy;

/// What [`crate::Service::submit`] does when the bounded submission queue is
/// at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FullQueuePolicy {
    /// Block the submitting thread until a worker drains space (lossless;
    /// the client's own submission rate becomes the backpressure signal).
    #[default]
    Block,
    /// Return [`crate::Submit::Rejected`] immediately and count the query
    /// as shed (load shedding; the client decides whether to retry).
    Reject,
}

/// Tunables of a [`crate::Service`] instance.
///
/// Built through [`crate::ServiceBuilder`]; the defaults serve a mixed
/// workload reasonably on any host. All bounds are floored at sane minima
/// by the builder (capacities at 1, `max_window` at `min_window`).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum number of queries waiting in the submission queue. Arrivals
    /// beyond it are handled per [`ServiceConfig::on_full`].
    pub queue_capacity: usize,
    /// Maximum number of queries coalesced into one engine batch. A queue
    /// reaching this depth flushes immediately (capacity cut). `1` turns
    /// the service into a per-query dispatcher (no coalescing, no window
    /// adaptation) — the baseline the bench compares against.
    pub max_batch: usize,
    /// Starting value of the adaptive coalescing window, its floor while
    /// queries share enough page visits, and where it restarts when the
    /// sharing returns after the sharing gate dropped it to a short fixed
    /// wait (20 µs, or this value if shorter).
    pub min_window: Duration,
    /// Upper bound of the adaptive coalescing window.
    pub max_window: Duration,
    /// Worker threads executing coalesced batches. Defaults to the host's
    /// `available_parallelism`.
    pub workers: usize,
    /// Backpressure policy when the submission queue is full.
    pub on_full: FullQueuePolicy,
    /// Batch strategy handed to the [`wazi_core::QueryEngine`] for every
    /// coalesced batch. Defaults to [`BatchStrategy::Auto`], fused with
    /// the shard count the calibrated cost model picks.
    pub strategy: BatchStrategy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            max_batch: 256,
            min_window: Duration::from_micros(50),
            max_window: Duration::from_millis(5),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            on_full: FullQueuePolicy::default(),
            strategy: BatchStrategy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServiceConfig::default();
        assert!(cfg.queue_capacity >= cfg.max_batch);
        assert!(cfg.min_window <= cfg.max_window);
        assert!(cfg.workers >= 1);
        assert_eq!(cfg.on_full, FullQueuePolicy::Block);
        assert_eq!(cfg.strategy, BatchStrategy::Auto);
    }
}
