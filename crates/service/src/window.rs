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
//! * **Shared page visits** (the sharing gate): every executed batch
//!   carries the engine's [`StrategyDecisions`], whose range
//!   [`wazi_core::PartitionDecision`] counts the page visits its walks
//!   share — the fetches fusion saves. The controller tracks an EWMA of
//!   the shared visits per query; while too few are shared (scattered
//!   workloads), the window drops below its floor to [`GATED_WINDOW_NS`]
//!   (or `min_window`, if that is shorter), because there is no point
//!   taxing latency for sharing that does not materialize. `min_window`
//!   stays the floor of the rate rule and is where a reopened window
//!   restarts, once shared visits lift the EWMA back to the gate. A pinned
//!   window (`min_window == max_window`) is moved by neither rule.
//!
//! Both rules are deterministic functions of the observed flushes, so the
//! controller is unit-tested without clocks or threads.
//!
//! The controller also decides when a waiting worker cuts
//! ([`WindowController::wait_plan`]). Two cases end a wait before the
//! window runs out. While the gate holds, a backlog — more queries queued
//! than the pool has workers — is cut at once: the gated wait is there to
//! keep a lone query's cut from racing thread wake-ups, and too little is
//! shared, so holding a backlog only adds latency. And an
//! unpinned window ends once arrivals have gone quiet, so a burst's last
//! partial batch does not wait out the window the burst grew.

use std::time::Duration;

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

/// EWMA smoothing factor for the shared page visits per query.
const SHARED_EWMA_ALPHA: f64 = 0.3;

/// Shared page visits per query below which the sharing gate drops the
/// window to [`GATED_WINDOW_NS`]: with less sharing than that, coalescing
/// is not worth any added queueing latency. At ≈ 150 ns saved per shared
/// page fetch against ≈ 200 ns of fused bookkeeping per query, a batch
/// saves the 50 ns per query worth waiting for only from `s = 5/3`
/// shared visits per query up (`150 · s − 200 ≥ 50`).
const SHARED_GATE: f64 = 5.0 / 3.0;

/// The window while the sharing gate holds. It is short, but not 0: a 0
/// window cuts each lone query the moment a worker wakes, which turns the
/// cut into a race between thread wake-ups. On a 2-core host that race
/// moved `serve_solo` throughput between about 60 k and 110 k ops/s with
/// where the scheduler placed the threads, so runs disagreed by over
/// 10 %. 20 µs is above a worker's usual wake-up, so a lone query's cut
/// stays a timed wait, as steady as a wait of `min_window`, and it still
/// takes 30 µs of the default 50 µs `min_window` off every gated query.
/// (A timed wait wakes ≈ 50 µs late on Linux, its timer slack, so the
/// wait is ≈ 70 µs in fact.) A gated backlog does not wait at all; see
/// [`WindowController::wait_plan`].
pub(crate) const GATED_WINDOW_NS: u64 = 20_000;

/// Arrivals count as stopped once none has come for this many mean gaps
/// between the queued ones (see [`WindowController::wait_plan`]). Poisson
/// arrivals leave such a gap once in ≈ 3 000 (e^-8).
const QUIET_GAPS: u32 = 8;

/// Deterministic controller for the coalescing window. Owned by the queue
/// state (behind the service mutex), observed by workers after each flush.
#[derive(Debug, Clone)]
pub(crate) struct WindowController {
    min_ns: u64,
    max_ns: u64,
    window_ns: u64,
    /// EWMA of the shared page visits per query of range partitions,
    /// `None` until a batch carries a range decision.
    shared_ewma: Option<f64>,
}

impl WindowController {
    pub(crate) fn new(min_ns: u64, max_ns: u64) -> Self {
        let min_ns = min_ns.max(1);
        let max_ns = max_ns.max(min_ns);
        WindowController {
            min_ns,
            max_ns,
            window_ns: min_ns,
            shared_ewma: None,
        }
    }

    /// Current coalescing window in nanoseconds.
    pub(crate) fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// How long a worker should wait before it looks at the queue again;
    /// `None` means cut now. `waited` is the age of the oldest pending
    /// query, `idle` the age of the newest, `pending` how many are queued
    /// and `workers` the size of the pool.
    ///
    /// The batch is due when the window has run out, with two exceptions.
    /// While the gate holds, a backlog (`pending > workers`) is due at
    /// once. And on an unpinned window the batch is due once arrivals
    /// have gone quiet: nothing has arrived for [`QUIET_GAPS`] mean gaps
    /// between the queued arrivals, nor for `min_window`. So only a window
    /// grown past `min_window` ends early for quiet.
    pub(crate) fn wait_plan(
        &self,
        waited: Duration,
        idle: Duration,
        pending: usize,
        workers: usize,
    ) -> Option<Duration> {
        if self.gated() && pending > workers {
            return None;
        }
        let mut left = Duration::from_nanos(self.window_ns).saturating_sub(waited);
        if self.min_ns < self.max_ns && pending >= 2 {
            let gaps = u32::try_from(pending - 1).unwrap_or(u32::MAX);
            let quiet = (waited.saturating_sub(idle) / gaps)
                .saturating_mul(QUIET_GAPS)
                .max(Duration::from_nanos(self.min_ns));
            left = left.min(quiet.saturating_sub(idle));
        }
        (!left.is_zero()).then_some(left)
    }

    /// Whether the sharing gate holds: too few page visits are shared and
    /// the window is not pinned.
    fn gated(&self) -> bool {
        let worthless = matches!(self.shared_ewma, Some(ewma) if ewma < SHARED_GATE);
        worthless && self.min_ns < self.max_ns
    }

    /// Smoothed shared page visits per query, for introspection.
    #[cfg(test)]
    pub(crate) fn shared_ewma(&self) -> Option<f64> {
        self.shared_ewma
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
        let rated = match cause {
            FlushCause::Capacity => self.window_ns.saturating_mul(2),
            FlushCause::Timer if batch_len * SHRINK_FILL_DIVISOR <= max_batch => self.window_ns / 2,
            FlushCause::Timer | FlushCause::Shutdown => self.window_ns,
        };
        // Sharing rule: fold the range partition's shared visits into the
        // EWMA...
        if let Some(decision) = decisions.range {
            let shared = decision.shared_visits as f64 / decision.queries.max(1) as f64;
            self.shared_ewma = Some(match self.shared_ewma {
                Some(ewma) => ewma + SHARED_EWMA_ALPHA * (shared - ewma),
                None => shared,
            });
        }
        // ...and drop the window below its floor while too little is
        // shared. The clamp lifts a gated window back to the floor once
        // the gate reopens; a pinned window has no range for either rule to
        // move in.
        self.window_ns = if self.gated() {
            GATED_WINDOW_NS.min(self.min_ns)
        } else {
            rated.clamp(self.min_ns, self.max_ns)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazi_core::PartitionDecision;

    const MIN: u64 = 1_000;
    const MAX: u64 = 16_000;

    fn no_decisions() -> StrategyDecisions {
        StrategyDecisions::default()
    }

    /// A range decision whose walks share `shared_visits` page visits
    /// among `queries` queries.
    fn range_decision(queries: usize, shared_visits: u64) -> StrategyDecisions {
        StrategyDecisions {
            range: Some(PartitionDecision {
                queries,
                shards: 1,
                shared_visits,
                estimate: None,
                actual_ns: 0,
            }),
            ..StrategyDecisions::default()
        }
    }

    const US: Duration = Duration::from_micros(1);

    /// A 1 µs..1 ms window grown to its 1 ms max.
    fn grown() -> WindowController {
        let mut w = WindowController::new(1_000, 1_000_000);
        while w.window_ns() < 1_000_000 {
            w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        }
        w
    }

    /// A 30..60 µs window with the gate closed (20 µs).
    fn gated() -> WindowController {
        let mut w = WindowController::new(30_000, 60_000);
        w.observe_flush(FlushCause::Timer, 8, 64, &range_decision(8, 0));
        assert_eq!(w.window_ns(), GATED_WINDOW_NS);
        w
    }

    #[test]
    fn a_lone_query_waits_out_the_window() {
        let w = WindowController::new(MIN, MAX);
        let ns = Duration::from_nanos;
        assert_eq!(w.wait_plan(ns(400), ns(400), 1, 2), Some(ns(600)));
        assert_eq!(w.wait_plan(ns(MIN), ns(MIN), 1, 2), None);
        assert_eq!(w.wait_plan(ns(2 * MIN), ns(2 * MIN), 1, 2), None);
    }

    #[test]
    fn a_gated_backlog_is_cut_at_once() {
        let w = gated();
        // Up to one query per worker: the gated wait holds.
        assert_eq!(w.wait_plan(5 * US, US, 2, 2), Some(15 * US));
        // More queued than workers: cut now.
        assert_eq!(w.wait_plan(5 * US, US, 3, 2), None);
        assert_eq!(w.wait_plan(Duration::ZERO, Duration::ZERO, 32, 2), None);
        // An open gate never cuts a backlog early; nor does a pinned window.
        let open = WindowController::new(30_000, 60_000);
        assert_eq!(open.wait_plan(5 * US, 5 * US, 32, 2), Some(25 * US));
        let mut pinned = WindowController::new(30_000, 30_000);
        pinned.observe_flush(FlushCause::Timer, 8, 64, &range_decision(8, 0));
        assert_eq!(pinned.wait_plan(5 * US, 5 * US, 32, 2), Some(25 * US));
    }

    #[test]
    fn a_grown_window_ends_once_arrivals_go_quiet() {
        let w = grown();
        // 101 arrivals 1 µs apart, the newest 5 µs ago: quiet is 8 gaps
        // (above the 1 µs min_window), so 3 µs from now.
        assert_eq!(w.wait_plan(105 * US, 5 * US, 101, 2), Some(3 * US));
        assert_eq!(w.wait_plan(108 * US, 8 * US, 101, 2), None);
        // Still arriving (the newest just now): wait out the 8 gaps.
        assert_eq!(w.wait_plan(100 * US, Duration::ZERO, 101, 2), Some(8 * US));
        // A lone query has no gap to judge by: the window holds.
        assert_eq!(w.wait_plan(105 * US, 105 * US, 1, 2), Some(895 * US));
    }

    #[test]
    fn the_quiet_wait_is_at_least_min_window() {
        let mut w = WindowController::new(100_000, 1_000_000);
        w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        // Gaps of 1 µs would say quiet after 8 µs; min_window says 100.
        assert_eq!(w.wait_plan(11 * US, US, 11, 2), Some(99 * US));
    }

    #[test]
    fn a_pinned_window_ignores_quiet_arrivals() {
        let w = WindowController::new(MAX, MAX);
        assert_eq!(w.wait_plan(10 * US, 9 * US, 50, 2), Some(6 * US));
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
        assert_eq!(w.shared_ewma(), None);
    }

    #[test]
    fn predicted_saving_feeds_the_ewma() {
        let mut w = WindowController::new(MIN, MAX);
        // 10 queries sharing 30 page visits: 3 per query.
        w.observe_flush(FlushCause::Capacity, 10, 64, &range_decision(10, 30));
        assert_eq!(w.shared_ewma(), Some(3.0));
        // A second observation moves the EWMA by the smoothing factor.
        w.observe_flush(FlushCause::Capacity, 10, 64, &range_decision(10, 0));
        let ewma = w.shared_ewma().unwrap();
        assert!((ewma - 2.1).abs() < 1e-9, "ewma = {ewma}");
    }

    #[test]
    fn the_gate_holds_below_five_thirds_shared_visits_per_query() {
        // One flush sets the EWMA to its sample: just below 5/3 gates, 5/3
        // itself and just above it do not.
        for (queries, shared, gated) in [
            (3, 4, true),
            (1_000, 1_666, true),
            (3, 5, false),
            (1_000, 1_667, false),
            (3, 6, false),
        ] {
            let mut w = WindowController::new(30_000, 60_000);
            w.observe_flush(
                FlushCause::Timer,
                queries,
                64,
                &range_decision(queries, shared),
            );
            let expected = if gated { GATED_WINDOW_NS } else { 30_000 };
            assert_eq!(w.window_ns(), expected, "{shared} shared by {queries}");
            assert_eq!(w.gated(), gated, "{shared} shared by {queries}");
        }
    }

    #[test]
    fn worthless_fusion_collapses_the_window_to_the_min() {
        let mut w = WindowController::new(MIN, MAX);
        for _ in 0..4 {
            w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        }
        assert_eq!(w.window_ns(), MAX);
        // The walks share no page visit (scattered workload): the gate
        // overrides the rate rule. A floor shorter than the gated window is
        // kept.
        w.observe_flush(FlushCause::Capacity, 64, 64, &range_decision(64, 0));
        assert_eq!(w.window_ns(), MIN);
        // And it stays collapsed while nothing is shared.
        w.observe_flush(FlushCause::Capacity, 64, 64, &range_decision(64, 0));
        assert_eq!(w.window_ns(), MIN);
    }

    #[test]
    fn worthless_fusion_drops_a_wide_floor_to_the_gated_window() {
        let (min, max) = (4 * GATED_WINDOW_NS, 64 * GATED_WINDOW_NS);
        let mut w = WindowController::new(min, max);
        w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        assert_eq!(w.window_ns(), 2 * min);
        w.observe_flush(FlushCause::Capacity, 64, 64, &range_decision(64, 0));
        assert_eq!(w.window_ns(), GATED_WINDOW_NS);
        // Neither rate rule moves a gated window while nothing is shared.
        w.observe_flush(FlushCause::Timer, 1, 64, &range_decision(64, 0));
        assert_eq!(w.window_ns(), GATED_WINDOW_NS);
        // Shared visits that lift the EWMA over the gate reopen it: the
        // capacity cut doubles the gated window and lands on the floor.
        w.observe_flush(FlushCause::Capacity, 64, 64, &range_decision(64, 640));
        assert!(w.shared_ewma().unwrap() >= SHARED_GATE);
        assert_eq!(w.window_ns(), min);
    }

    #[test]
    fn batches_without_range_estimates_leave_the_ewma_alone() {
        let mut w = WindowController::new(MIN, MAX);
        w.observe_flush(FlushCause::Capacity, 32, 64, &no_decisions());
        assert_eq!(w.shared_ewma(), None);
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
        // Even the sharing gate cannot move a pinned window anywhere else.
        w.observe_flush(FlushCause::Timer, 1, 64, &range_decision(64, 0));
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
        // flushes without a range decision must leave the rate rule fully
        // in charge.
        let mut w = WindowController::new(MIN, MAX);
        for _ in 0..8 {
            w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        }
        assert_eq!(w.shared_ewma(), None);
        assert_eq!(w.window_ns(), MAX);
    }

    #[test]
    fn degraded_batches_interleave_without_stalling_adaptation() {
        // A degraded (panic-recovered) batch reports default decisions —
        // no range decision. It must count for the rate rule (its flush
        // cause is real) while leaving the sharing EWMA untouched, so
        // adaptation resumes seamlessly when healthy batches return.
        let mut w = WindowController::new(MIN, MAX);
        w.observe_flush(FlushCause::Capacity, 64, 64, &range_decision(64, 640));
        let ewma_before = w.shared_ewma().unwrap();
        assert_eq!(w.window_ns(), 2_000);
        // The degraded batch: capacity cut, no decisions.
        w.observe_flush(FlushCause::Capacity, 64, 64, &no_decisions());
        assert_eq!(w.window_ns(), 4_000, "rate rule still applies");
        assert_eq!(
            w.shared_ewma(),
            Some(ewma_before),
            "EWMA must not decay across a degraded batch"
        );
        // Healthy traffic resumes and keeps adapting from where it left.
        w.observe_flush(FlushCause::Capacity, 64, 64, &range_decision(64, 640));
        assert_eq!(w.window_ns(), 8_000);
        assert!(w.shared_ewma().unwrap() >= ewma_before);
    }
}
