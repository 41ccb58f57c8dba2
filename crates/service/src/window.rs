//! The adaptive micro-batching window.
//!
//! The service trades a little queueing latency for fused execution: the
//! longer the oldest pending query waits, the more arrivals coalesce into
//! its batch, and the more page visits the fused kernels share. The window
//! controller sets how long that wait may be, adapting to two signals:
//!
//! * **Arrival rate** (multiplicative increase / decrease): a flush forced
//!   by the queue hitting `max_batch` (*capacity cut*) means arrivals are
//!   outpacing the window — coalescing is cheap, so the window doubles. A
//!   flush forced by the timer that drained only a sliver of `max_batch`
//!   (*timer cut* at under a quarter of capacity) means traffic is light —
//!   waiting longer would buy little sharing, so the window halves.
//! * **Predicted fusion benefit** (the cost-model gate): every executed
//!   batch carries the engine's [`StrategyDecisions`], whose range
//!   [`wazi_core::CostEstimate`] predicts what fusion saved over the
//!   sequential loop. The controller tracks an EWMA of that per-query
//!   saving; while the model predicts fusion buys nothing (scattered
//!   workloads), the window collapses to
//!   its minimum — there is no point taxing latency for sharing that does
//!   not materialize.
//!
//! Both rules are deterministic functions of the observed flushes, so the
//! controller is unit-tested without clocks or threads.

use wazi_core::StrategyDecisions;

/// Why a worker cut a batch from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushCause {
    /// The queue reached `max_batch` pending queries.
    Capacity,
    /// The oldest pending query waited out the coalescing window.
    Timer,
    /// The service is shutting down and drains whatever is queued.
    Shutdown,
}

/// A timer cut draining less than this fraction of `max_batch` counts as
/// light traffic and shrinks the window.
const SHRINK_FILL_DIVISOR: usize = 4;

/// EWMA smoothing factor for the predicted per-query fusion saving.
const SAVING_EWMA_ALPHA: f64 = 0.3;

/// Predicted per-query saving (ns) below which the cost gate collapses the
/// window to its minimum. Roughly the baked calibration's cost of one page
/// fetch shared between two queries — less than that and coalescing is not
/// worth any added queueing latency.
const SAVING_GATE_NS: f64 = 50.0;

/// Deterministic controller for the coalescing window. Owned by the queue
/// state (behind the service mutex), observed by workers after each flush.
#[derive(Debug, Clone)]
pub(crate) struct WindowController {
    min_ns: u64,
    max_ns: u64,
    window_ns: u64,
    /// EWMA of the cost model's predicted per-query fusion saving, `None`
    /// until a batch carries a quantitative range estimate.
    saving_ewma_ns: Option<f64>,
}

impl WindowController {
    pub(crate) fn new(min_ns: u64, max_ns: u64) -> Self {
        let min_ns = min_ns.max(1);
        let max_ns = max_ns.max(min_ns);
        WindowController {
            min_ns,
            max_ns,
            window_ns: min_ns,
            saving_ewma_ns: None,
        }
    }

    /// Current coalescing window in nanoseconds.
    pub(crate) fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Smoothed predicted per-query fusion saving, for introspection.
    #[cfg(test)]
    pub(crate) fn saving_ewma_ns(&self) -> Option<f64> {
        self.saving_ewma_ns
    }

    /// Feeds one executed flush back into the controller.
    ///
    /// `max_batch == 1` is dispatch mode: there is no coalescing to tune,
    /// so the controller does nothing.
    pub(crate) fn observe_flush(
        &mut self,
        cause: FlushCause,
        batch_len: usize,
        max_batch: usize,
        decisions: &StrategyDecisions,
    ) {
        if max_batch <= 1 {
            return;
        }
        // Rate rule: grow on capacity cuts, shrink on underfilled timer cuts.
        match cause {
            FlushCause::Capacity => {
                self.window_ns = (self.window_ns.saturating_mul(2)).min(self.max_ns);
            }
            FlushCause::Timer if batch_len * SHRINK_FILL_DIVISOR <= max_batch => {
                self.window_ns = (self.window_ns / 2).max(self.min_ns);
            }
            FlushCause::Timer | FlushCause::Shutdown => {}
        }
        // Benefit rule: fold the model's predicted saving into the EWMA...
        if let Some(decision) = decisions.range {
            if let Some(estimate) = decision.estimate {
                let best_fused = match estimate.fused_parallel_ns {
                    Some(parallel) => estimate.fused_ns.min(parallel),
                    None => estimate.fused_ns,
                };
                let saving_per_query = (estimate.sequential_ns as f64 - best_fused as f64)
                    / decision.queries.max(1) as f64;
                self.saving_ewma_ns = Some(match self.saving_ewma_ns {
                    Some(ewma) => ewma + SAVING_EWMA_ALPHA * (saving_per_query - ewma),
                    None => saving_per_query,
                });
            }
        }
        // ...and collapse the window while fusion is predicted worthless.
        if matches!(self.saving_ewma_ns, Some(ewma) if ewma < SAVING_GATE_NS) {
            self.window_ns = self.min_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazi_core::{ChosenStrategy, CostEstimate, PartitionDecision};

    const MIN: u64 = 1_000;
    const MAX: u64 = 16_000;

    fn no_decisions() -> StrategyDecisions {
        StrategyDecisions::default()
    }

    /// A range decision whose estimate predicts `saving` ns of total fusion
    /// benefit spread over `queries` queries.
    fn range_decision(queries: usize, sequential_ns: u64, fused_ns: u64) -> StrategyDecisions {
        StrategyDecisions {
            range: Some(PartitionDecision {
                queries,
                chosen: ChosenStrategy::Fused,
                estimate: Some(CostEstimate {
                    sequential_ns,
                    fused_ns,
                    fused_parallel_ns: None,
                    shards: 1,
                }),
                actual_ns: 0,
            }),
            ..StrategyDecisions::default()
        }
    }

    #[test]
    fn capacity_cuts_double_the_window_up_to_the_max() {
        let mut w = WindowController::new(MIN, MAX);
        for expected in [2_000, 4_000, 8_000, 16_000, 16_000] {
            w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
            assert_eq!(w.window_ns(), expected);
        }
    }

    #[test]
    fn underfilled_timer_cuts_halve_the_window_down_to_the_min() {
        let mut w = WindowController::new(MIN, MAX);
        for _ in 0..4 {
            w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        }
        assert_eq!(w.window_ns(), MAX);
        // 16 of 64 is exactly a quarter: still counts as underfilled.
        for expected in [8_000, 4_000, 2_000, 1_000, 1_000] {
            w.observe_flush(FlushCause::Timer, 16, 64, &no_decisions());
            assert_eq!(w.window_ns(), expected);
        }
    }

    #[test]
    fn well_filled_timer_cuts_hold_the_window() {
        let mut w = WindowController::new(MIN, MAX);
        w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        let held = w.window_ns();
        w.observe_flush(FlushCause::Timer, 40, 64, &no_decisions());
        assert_eq!(w.window_ns(), held);
        w.observe_flush(FlushCause::Shutdown, 1, 64, &no_decisions());
        assert_eq!(w.window_ns(), held);
    }

    #[test]
    fn dispatch_mode_never_adapts() {
        let mut w = WindowController::new(MIN, MAX);
        w.observe_flush(FlushCause::Capacity, 1, 1, &no_decisions());
        w.observe_flush(FlushCause::Timer, 1, 1, &no_decisions());
        assert_eq!(w.window_ns(), MIN);
        assert_eq!(w.saving_ewma_ns(), None);
    }

    #[test]
    fn predicted_saving_feeds_the_ewma() {
        let mut w = WindowController::new(MIN, MAX);
        // 10 queries saving 100_000 ns total: 10_000 ns per query.
        w.observe_flush(
            FlushCause::Capacity,
            10,
            64,
            &range_decision(10, 150_000, 50_000),
        );
        assert_eq!(w.saving_ewma_ns(), Some(10_000.0));
        // A second observation moves the EWMA by the smoothing factor.
        w.observe_flush(
            FlushCause::Capacity,
            10,
            64,
            &range_decision(10, 50_000, 50_000),
        );
        let ewma = w.saving_ewma_ns().unwrap();
        assert!(ewma > 6_000.0 && ewma < 8_000.0, "ewma = {ewma}");
    }

    #[test]
    fn worthless_fusion_collapses_the_window_to_the_min() {
        let mut w = WindowController::new(MIN, MAX);
        for _ in 0..4 {
            w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        }
        assert_eq!(w.window_ns(), MAX);
        // The model predicts fusion costs MORE than sequential (scattered
        // workload): the gate overrides the rate rule.
        w.observe_flush(
            FlushCause::Capacity,
            64,
            64,
            &range_decision(64, 50_000, 90_000),
        );
        assert_eq!(w.window_ns(), MIN);
        // And it stays collapsed while the prediction holds.
        w.observe_flush(
            FlushCause::Capacity,
            64,
            64,
            &range_decision(64, 50_000, 90_000),
        );
        assert_eq!(w.window_ns(), MIN);
    }

    #[test]
    fn batches_without_range_estimates_leave_the_ewma_alone() {
        let mut w = WindowController::new(MIN, MAX);
        w.observe_flush(FlushCause::Capacity, 32, 64, &no_decisions());
        assert_eq!(w.saving_ewma_ns(), None);
        assert!(
            w.window_ns() > MIN,
            "the gate must not fire without evidence"
        );
    }

    #[test]
    fn zero_window_is_floored_at_one_nanosecond() {
        // `fixed_window(Duration::ZERO)` ends up here: both bounds zero.
        let w = WindowController::new(0, 0);
        assert_eq!(w.window_ns(), 1);
        let mut w = WindowController::new(0, 0);
        w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        assert_eq!(w.window_ns(), 1, "a degenerate window cannot grow");
        w.observe_flush(FlushCause::Timer, 1, 64, &no_decisions());
        assert_eq!(w.window_ns(), 1, "nor shrink below the floor");
    }

    #[test]
    fn equal_min_max_pins_the_window_under_every_rule() {
        let mut w = WindowController::new(MIN, MIN);
        w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        assert_eq!(w.window_ns(), MIN, "capacity growth is clamped");
        w.observe_flush(FlushCause::Timer, 1, 64, &no_decisions());
        assert_eq!(w.window_ns(), MIN, "timer shrink is clamped");
        // Even the cost gate cannot move a pinned window anywhere else.
        w.observe_flush(FlushCause::Timer, 1, 64, &range_decision(64, 0, 90_000));
        assert_eq!(w.window_ns(), MIN);
    }

    #[test]
    fn inverted_bounds_are_reordered() {
        // max below min: the controller floors max at min.
        let mut w = WindowController::new(4_000, 2_000);
        assert_eq!(w.window_ns(), 4_000);
        w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        assert_eq!(w.window_ns(), 4_000);
    }

    #[test]
    fn the_gate_never_fires_before_the_first_estimate() {
        // With no prior samples the EWMA is None: even a long run of
        // estimate-free flushes must leave the rate rule fully in charge.
        let mut w = WindowController::new(MIN, MAX);
        for _ in 0..8 {
            w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        }
        assert_eq!(w.saving_ewma_ns(), None);
        assert_eq!(w.window_ns(), MAX);
    }

    #[test]
    fn degraded_batches_interleave_without_stalling_adaptation() {
        // A degraded (panic-recovered) batch reports default decisions —
        // no estimate. It must count for the rate rule (its flush cause is
        // real) while leaving the benefit EWMA untouched, so adaptation
        // resumes seamlessly when healthy batches return.
        let mut w = WindowController::new(MIN, MAX);
        w.observe_flush(
            FlushCause::Capacity,
            64,
            64,
            &range_decision(64, 900_000, 100_000),
        );
        let ewma_before = w.saving_ewma_ns().unwrap();
        assert_eq!(w.window_ns(), 2_000);
        // The degraded batch: capacity cut, no decisions.
        w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        assert_eq!(w.window_ns(), 4_000, "rate rule still applies");
        assert_eq!(
            w.saving_ewma_ns(),
            Some(ewma_before),
            "EWMA must not decay across a degraded batch"
        );
        // Healthy traffic resumes and keeps adapting from where it left.
        w.observe_flush(
            FlushCause::Capacity,
            64,
            64,
            &range_decision(64, 900_000, 100_000),
        );
        assert_eq!(w.window_ns(), 8_000);
        assert!(w.saving_ewma_ns().unwrap() >= ewma_before);
    }
}
