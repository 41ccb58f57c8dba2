//! The query-plan execution engine: a unified front door over any
//! [`SpatialIndex`].
//!
//! The low-level trait speaks one query at a time through differently-shaped
//! methods, each threading a `&mut ExecStats` out-parameter. The engine
//! replaces that surface with typed requests and responses:
//!
//! * a [`Query`] describes one operation (range in one of three modes,
//!   point probe, kNN);
//! * [`QueryEngine::execute`] answers it with a [`QueryReport`] — output,
//!   work counters and phase timings, wall-clock latency — owning the
//!   `ExecStats` plumbing;
//! * [`QueryEngine::execute_batch`] answers a whole workload mix, either by
//!   the sequential per-query loop (the default, byte- and
//!   counter-equivalent to calling [`QueryEngine::execute`] in a loop) or,
//!   under [`BatchStrategy::Fused`], by partitioning the batch by plan
//!   type and routing each partition through the index's fused kernels —
//!   range plans through the [`RangeBatchKernel`], point probes through
//!   the [`PointBatchKernel`], kNN plans through grouped expanding-ring
//!   sweeps — so pages shared by co-located queries are scanned once per
//!   batch.
//!
//! The engine is configured builder-style and borrows the index, so it can
//! be created per request batch without cost:
//!
//! ```
//! use wazi_core::{BatchStrategy, Query, QueryEngine, QueryOutput, ZIndex};
//! use wazi_geom::{Point, Rect};
//!
//! let points: Vec<Point> = (0..1_000)
//!     .map(|i| Point::new((i % 40) as f64 / 40.0, (i / 40) as f64 / 25.0))
//!     .collect();
//! let index = ZIndex::build_base(points);
//! let engine = QueryEngine::new(&index).with_strategy(BatchStrategy::Fused);
//!
//! let batch = vec![
//!     Query::range_count(Rect::from_coords(0.1, 0.1, 0.4, 0.4)),
//!     Query::point(Point::new(0.5, 0.52)),
//!     Query::knn(Point::new(0.2, 0.2), 3),
//! ];
//! let report = engine.execute_batch(&batch).unwrap();
//! assert_eq!(report.len(), 3);
//! assert!(matches!(report.reports[0].output, QueryOutput::Count(_)));
//! ```

mod batch;
pub mod cost;
mod knn;
mod plan;
mod point;
mod report;
pub mod snapshot;
#[cfg(test)]
mod tests;

pub(crate) use batch::interval_hull;
use batch::{available_workers, run_projected_batch};
pub use batch::{
    run_range_batch, BatchProjection, RangeBatchKernel, RangeBatchOutput, RangeBatchRequest,
    RangeBatchResponse, ShardBounds, SweepInterval,
};
pub use cost::{
    decide_knn_strategy, decide_point_strategy, decide_range_strategy, CalibrationTable,
    ChosenStrategy, CostConstants, CostEstimate, KernelClass, PartitionDecision, RangeBatchStats,
};
pub(crate) use knn::KnnSweepState;
pub use knn::{group_knn_plans, run_knn_batch, KnnBatchResponse};
pub use plan::{Query, QueryOutput, RangeMode};
pub use point::{run_point_batch, run_point_batch_sharded, PointBatchKernel, PointBatchResponse};
pub use report::{BatchReport, QueryReport, StrategyDecisions};
pub use snapshot::{
    Snapshot, SnapshotSource, VersionStats, VersionedIndex, WriteFault, WriteFaultPlan, WriteOp,
    WritePhase, WriteReceipt,
};

use crate::index::{IndexError, SpatialIndex};
use std::time::Instant;
use wazi_geom::Point;
use wazi_storage::ExecStats;

/// Errors returned by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The underlying index rejected the operation.
    Index(IndexError),
    /// The query plan itself was invalid (e.g. non-finite geometry).
    InvalidQuery(String),
    /// Execution panicked inside a kernel and the panic was caught at the
    /// engine boundary ([`catch_execution_panic`]); the payload's message is
    /// preserved. The index itself is still valid — kernels execute over
    /// `&self` and never mutate index state, so an unwound kernel leaves
    /// nothing half-written (see the panic-safety notes on
    /// [`SpatialIndex::range_batch_kernel`]).
    ExecutionPanicked(String),
}

impl From<IndexError> for EngineError {
    fn from(err: IndexError) -> Self {
        EngineError::Index(err)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Index(err) => write!(f, "index error: {err}"),
            EngineError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            EngineError::ExecutionPanicked(msg) => {
                write!(f, "execution panicked inside a kernel: {msg}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Index(err) => Some(err),
            _ => None,
        }
    }
}

/// Runs `f` under [`std::panic::catch_unwind`], converting a panic into
/// [`EngineError::ExecutionPanicked`] with the payload's message preserved.
///
/// This is the engine's panic-isolation boundary, used by
/// [`QueryEngine::execute_caught`] / [`QueryEngine::execute_batch_caught`]
/// and by service layers that need to survive a faulty query without
/// losing the process. The unwind-safety assertion is justified by the
/// engine's execution model:
///
/// * every kernel entry point ([`SpatialIndex::range_query`],
///   [`SpatialIndex::range_batch_kernel`], [`SpatialIndex::point_batch_kernel`],
///   the kNN sweeps) takes `&self` — index state is never mutated during
///   query execution, and no index implementation uses interior mutability
///   (the workspace forbids `unsafe`), so an unwound kernel cannot leave
///   the index half-written;
/// * all per-call state (`ExecStats`, batch projections, sweep cursors) is
///   owned by the call frame and dropped during the unwind;
/// * panics on the engine's scoped worker threads propagate to the caller
///   with their original payload (the shard joins re-raise via
///   [`std::panic::resume_unwind`]), so a parallel sweep is caught here
///   exactly like a sequential one.
pub fn catch_execution_panic<T>(
    f: impl FnOnce() -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        // `as_ref` matters: `&payload` would coerce the Box itself to
        // `dyn Any` and every downcast would miss.
        Err(payload) => Err(EngineError::ExecutionPanicked(panic_message(
            payload.as_ref(),
        ))),
    }
}

/// Extracts a human-readable message from a panic payload (`&str` and
/// `String` payloads — what `panic!` produces — are preserved verbatim).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How [`QueryEngine::execute_batch`] schedules a batch.
///
/// All strategies return identical answers; they differ only in how the
/// physical work is scheduled, so picking one is purely a performance
/// decision:
///
/// * [`BatchStrategy::Auto`] (the default) lets the engine pick per batch
///   and per partition, using the cost model in [`cost`]: cheap statistics
///   the projection phase already produces feed calibrated
///   per-kernel-class formulas, and the cheapest predicted candidate runs.
///   The decision is recorded in [`BatchReport::strategy_chosen`].
/// * [`BatchStrategy::Sequential`] wins on batches whose queries barely
///   overlap — there is no shared work to exploit, and the per-query loop
///   has the least bookkeeping.
/// * [`BatchStrategy::Fused`] wins on overlapping batches: one sweep over
///   the index serves every range plan, pages relevant to several queries
///   are scanned once per batch, and pages are visited in layout order
///   (cache-friendly) instead of once per query in arrival order. The win
///   is largest for counting/streaming plans; materializing
///   ([`RangeMode::Collect`]) plans gain less because result
///   materialization, which fusion cannot share, dominates their cost.
/// * [`BatchStrategy::FusedParallel`] wins when a fused batch has enough
///   total work to amortize thread spawning (thousands of overlapping
///   queries, large datasets): the sweep's address span is partitioned
///   into disjoint work-balanced shards swept concurrently. On small
///   batches the spawn overhead makes it slower than [`BatchStrategy::Fused`]
///   — prefer plain fusion below a few hundred microseconds of batch work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchStrategy {
    /// Pick the strategy per batch and per partition with the calibrated
    /// cost model ([`cost`]): range partitions are decided quantitatively
    /// from the batch's walk footprint (page visits against distinct
    /// pages, checks, points, host parallelism), point and kNN partitions by the kernel's
    /// class rule. Never changes results, only cost — a misprediction
    /// costs wall-clock, not correctness — and never schedules worker
    /// threads on a single-core host. The decision per partition, with
    /// predicted and measured cost, lands in
    /// [`BatchReport::strategy_chosen`].
    #[default]
    Auto,
    /// Execute queries one at a time in input order: results, counters and
    /// per-query latencies are exactly those of a hand-written
    /// [`QueryEngine::execute`] loop.
    Sequential,
    /// Partition the batch by plan type and route every partition through
    /// the matching fused kernel the index advertises: range plans through
    /// the [`RangeBatchKernel`] ([`SpatialIndex::range_batch_kernel`]),
    /// point probes through the [`PointBatchKernel`]
    /// ([`SpatialIndex::point_batch_kernel`]), kNN plans through grouped
    /// expanding-ring sweeps reusing the range kernel per ring. Partitions
    /// without a kernel fall back to the sequential loop. Answers are
    /// identical to [`BatchStrategy::Sequential`]; pages relevant to
    /// several queries are scanned once per batch (per ring for kNN)
    /// instead of once per query, and per-query bounding-box checks never
    /// exceed the sequential walk's.
    Fused,
    /// Like [`BatchStrategy::Fused`], but fused range sweeps — the range
    /// partition's single sweep and every kNN ring — are split into up to
    /// `shards` disjoint slices of the index's sweep address space (leaf
    /// intervals for the Z-index) and swept on scoped worker threads, one
    /// per shard. Each request is owned by the shard containing its entry
    /// address and swept over its whole interval there, so per-request
    /// walks (bounding-box checks, look-ahead skips) are identical to the
    /// single sweep's; shard bounds are cut between the requests' entry
    /// addresses, weighted by each request's walk
    /// ([`RangeBatchKernel::footprint`]); partial results merge
    /// deterministically in sweep order, so outputs are bit-identical to
    /// the other strategies regardless of thread scheduling. The point
    /// partition parallelizes the same way: its sorted probe-group list is
    /// split at group boundaries ([`run_point_batch_sharded`]) onto worker
    /// threads — groups are disjoint by construction, so probe-heavy
    /// batches scale without any cross-chunk coordination. Degenerates to
    /// [`BatchStrategy::Fused`] — the same sweep with a one-shard plan —
    /// when `shards <= 1` or every request enters at the same address.
    FusedParallel {
        /// Upper bound on the number of concurrently swept shards (clamped
        /// to the batch's distinct entry addresses; `0` is treated as `1`).
        shards: usize,
    },
}

/// Executes typed [`Query`] plans against a borrowed [`SpatialIndex`].
///
/// Construction is builder-style (see the module example): [`QueryEngine::new`]
/// picks the self-tuning [`BatchStrategy::Auto`] default and
/// [`QueryEngine::with_strategy`] pins a fixed strategy.
pub struct QueryEngine<'a> {
    index: &'a dyn SpatialIndex,
    strategy: BatchStrategy,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over `index` with the default
    /// [`BatchStrategy::Auto`].
    pub fn new(index: &'a dyn SpatialIndex) -> Self {
        Self {
            index,
            strategy: BatchStrategy::default(),
        }
    }

    /// Sets the batch scheduling strategy (builder-style).
    pub fn with_strategy(mut self, strategy: BatchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The configured batch strategy.
    pub fn strategy(&self) -> BatchStrategy {
        self.strategy
    }

    /// The index this engine executes against.
    pub fn index(&self) -> &dyn SpatialIndex {
        self.index
    }

    /// Executes one query plan, owning the stats bookkeeping.
    ///
    /// [`RangeMode::Stream`] plans executed through this entry point count
    /// and drop the matches (the non-materializing measurement mode); use
    /// [`QueryEngine::execute_streaming`] to receive them.
    pub fn execute(&self, query: &Query) -> Result<QueryReport, EngineError> {
        self.execute_with_sink(query, &mut |_| {})
    }

    /// Executes one query plan, delivering the matches of a
    /// [`RangeMode::Stream`] range plan to `sink` as they are found. For
    /// every other plan this behaves exactly like [`QueryEngine::execute`]
    /// (`sink` is never called).
    pub fn execute_streaming(
        &self,
        query: &Query,
        sink: &mut dyn FnMut(&Point),
    ) -> Result<QueryReport, EngineError> {
        self.execute_with_sink(query, sink)
    }

    fn execute_with_sink(
        &self,
        query: &Query,
        sink: &mut dyn FnMut(&Point),
    ) -> Result<QueryReport, EngineError> {
        query.validate()?;
        let mut stats = ExecStats::default();
        let start = Instant::now();
        let output = match query {
            Query::Range { rect, mode } => match mode {
                RangeMode::Collect => QueryOutput::Points(self.index.range_query(rect, &mut stats)),
                RangeMode::Count => QueryOutput::Count(self.index.range_count(rect, &mut stats)),
                RangeMode::Stream => {
                    let mut streamed = 0u64;
                    self.index.range_for_each(rect, &mut stats, &mut |p| {
                        streamed += 1;
                        sink(p);
                    });
                    QueryOutput::Streamed(streamed)
                }
            },
            Query::Point(p) => QueryOutput::Found(self.index.point_query(p, &mut stats)),
            Query::Knn { q, k } => QueryOutput::Neighbors(self.index.knn(q, *k, &mut stats)),
        };
        Ok(QueryReport {
            output,
            stats,
            latency_ns: start.elapsed().as_nanos() as u64,
        })
    }

    /// [`QueryEngine::execute`] behind the engine's panic-isolation
    /// boundary: a panic inside a kernel is caught and returned as
    /// [`EngineError::ExecutionPanicked`] instead of unwinding the caller.
    /// See [`catch_execution_panic`] for why this is sound.
    pub fn execute_caught(&self, query: &Query) -> Result<QueryReport, EngineError> {
        catch_execution_panic(|| self.execute(query))
    }

    /// [`QueryEngine::execute_batch`] behind the engine's panic-isolation
    /// boundary ([`catch_execution_panic`]). Note the granularity: the
    /// whole batch fails as one [`EngineError::ExecutionPanicked`], because
    /// a fused kernel interleaves every member's work in one sweep — a
    /// caller that wants per-query isolation re-executes the members
    /// one-by-one through [`QueryEngine::execute_caught`], which is exactly
    /// what `wazi-service`'s degraded path does.
    pub fn execute_batch_caught(&self, queries: &[Query]) -> Result<BatchReport, EngineError> {
        catch_execution_panic(|| self.execute_batch(queries))
    }

    /// Executes a batch of query plans, answering in input order.
    ///
    /// Every plan is validated before anything executes, so an invalid
    /// query rejects the whole batch without partial work.
    ///
    /// Under the fused strategies the batch is partitioned by plan type and
    /// each partition with at least two members routes through the matching
    /// kernel when the index has one: range plans through the
    /// [`RangeBatchKernel`], point probes through the [`PointBatchKernel`],
    /// kNN plans through the shared expanding-ring sweep (which reuses the
    /// range kernel per ring). Partitions without a kernel — and leftover
    /// single plans — run sequentially; answers are identical either way.
    pub fn execute_batch(&self, queries: &[Query]) -> Result<BatchReport, EngineError> {
        for query in queries {
            query.validate()?;
        }
        let start = Instant::now();
        let (kernel, point_kernel) = match self.strategy {
            BatchStrategy::Auto | BatchStrategy::Fused | BatchStrategy::FusedParallel { .. } => (
                self.index.range_batch_kernel(),
                self.index.point_batch_kernel(),
            ),
            BatchStrategy::Sequential => (None, None),
        };
        let mut ranges = 0usize;
        let mut points = 0usize;
        let mut knns = 0usize;
        for query in queries {
            match query {
                Query::Range { .. } => ranges += 1,
                Query::Point(_) => points += 1,
                Query::Knn { .. } => knns += 1,
            }
        }
        let fusable = (kernel.is_some() && (ranges >= 2 || knns >= 2))
            || (point_kernel.is_some() && points >= 2);
        let mut report = if fusable {
            self.execute_batch_fused(queries, kernel, point_kernel)?
        } else {
            self.execute_batch_sequential(queries)?
        };
        report.latency_ns = start.elapsed().as_nanos() as u64;
        Ok(report)
    }

    fn execute_batch_sequential(&self, queries: &[Query]) -> Result<BatchReport, EngineError> {
        let mut reports = Vec::with_capacity(queries.len());
        for query in queries {
            reports.push(self.execute(query)?);
        }
        Ok(BatchReport {
            reports,
            shared_stats: ExecStats::default(),
            range_shared_stats: ExecStats::default(),
            point_shared_stats: ExecStats::default(),
            knn_shared_stats: ExecStats::default(),
            latency_ns: 0,
            fused_queries: 0,
            fused_points: 0,
            fused_knn: 0,
            shards_used: 0,
            strategy_chosen: StrategyDecisions::default(),
        })
    }

    /// The fused path: the batch is partitioned by plan type and every
    /// partition with at least two members and a kernel executes fused —
    /// range plans in one sweep (sharded onto worker threads under
    /// [`BatchStrategy::FusedParallel`]), point probes leaf-grouped with
    /// one page visit per group, kNN plans through grouped expanding-ring
    /// sweeps whose rings reuse the range kernel (sharded rings under the
    /// parallel strategy). Everything else runs sequentially, and the
    /// answers are reassembled into input order.
    ///
    /// Under [`BatchStrategy::Auto`] each partition first passes through
    /// the cost model ([`cost`]): the range partition's projection and its
    /// walk footprint, each computed once, decide among the candidates and
    /// are reused by whichever fused execution wins. A
    /// partition the model routes to `Sequential` executes through the
    /// per-query loop (zero fused counters, exactly as if the engine were
    /// pinned sequential); every decision is recorded in
    /// [`BatchReport::strategy_chosen`].
    fn execute_batch_fused(
        &self,
        queries: &[Query],
        kernel: Option<&dyn RangeBatchKernel>,
        point_kernel: Option<&dyn PointBatchKernel>,
    ) -> Result<BatchReport, EngineError> {
        let auto = self.strategy == BatchStrategy::Auto;
        // What a pinned fused strategy runs every partition as.
        let pinned = match self.strategy {
            BatchStrategy::FusedParallel { shards } if shards > 1 => {
                ChosenStrategy::FusedParallel { shards }
            }
            _ => ChosenStrategy::Fused,
        };
        let workers = available_workers();
        let mut slots: Vec<Option<QueryReport>> = (0..queries.len()).map(|_| None).collect();

        // Range partition: one fused sweep for every range plan.
        let mut range = PartitionOutcome::default();
        if let Some(kernel) = kernel {
            let (positions, requests) = gather(queries, |query| match query {
                Query::Range { rect, mode } => Some(RangeBatchRequest {
                    rect: *rect,
                    collect: *mode == RangeMode::Collect,
                }),
                _ => None,
            });
            if requests.len() >= 2 {
                // Auto prices the batch's walk footprint; the projection
                // and the footprint's per-request weights then serve
                // whichever fused execution wins. A pinned single sweep
                // plans the hull whatever the weights, so it never asks.
                let projection = kernel.project_batch(&requests);
                let footprint = (auto || pinned != ChosenStrategy::Fused)
                    .then(|| kernel.footprint(&requests, &projection));
                let choice = match &footprint {
                    Some(stats) if auto => {
                        let (chosen, estimate) = decide_range_strategy(
                            kernel.cost_class(),
                            stats,
                            workers,
                            &CalibrationTable::BAKED,
                        );
                        (chosen, Some(estimate))
                    }
                    _ => (pinned, None),
                };
                let weights = footprint.map_or_else(Vec::new, |stats| stats.per_request);
                range =
                    self.run_partition(queries, &positions, &mut slots, choice, |shards| {
                        let (response, shards_used) =
                            run_projected_batch(kernel, &requests, projection, &weights, shards);
                        let outputs = positions.iter().zip(response.outputs).map(
                            |(&position, output)| match (output, &queries[position]) {
                                (RangeBatchOutput::Points(points), _) => {
                                    QueryOutput::Points(points)
                                }
                                (
                                    RangeBatchOutput::Count(n),
                                    Query::Range {
                                        mode: RangeMode::Stream,
                                        ..
                                    },
                                ) => QueryOutput::Streamed(n),
                                (RangeBatchOutput::Count(n), _) => QueryOutput::Count(n),
                            },
                        );
                        FusedRun {
                            outputs,
                            per_query: response.per_query,
                            shared: response.shared,
                            shards_used,
                        }
                    })?;
            }
        }

        // Point partition: probes grouped by owning page, one visit per
        // group (`run_point_batch_sharded`'s sorted pass owns the grouping).
        let mut point = PartitionOutcome::default();
        if let Some(point_kernel) = point_kernel {
            let (positions, probes) = gather(queries, |query| match query {
                Query::Point(p) => Some(*p),
                _ => None,
            });
            if probes.len() >= 2 {
                // Auto routes the partition by the range kernel's class
                // rule: grouped probes share page fetches on page-backed
                // indexes; a flat array's probe is a binary search with
                // nothing to share, so the per-probe loop wins there.
                let chosen = if auto {
                    let class = kernel.map_or(KernelClass::PageBacked, |k| k.cost_class());
                    decide_point_strategy(class, probes.len(), workers)
                } else {
                    pinned
                };
                point = self.run_partition(
                    queries,
                    &positions,
                    &mut slots,
                    (chosen, None),
                    |shards| {
                        // Probe-heavy batches parallelize too: the sorted
                        // group list splits at group boundaries (groups are
                        // disjoint by construction), so chunked execution
                        // is bit-identical to the single pass.
                        let (response, shards_used) =
                            run_point_batch_sharded(point_kernel, &probes, shards);
                        FusedRun {
                            outputs: response.found.into_iter().map(QueryOutput::Found),
                            per_query: response.per_query,
                            shared: response.shared,
                            shards_used,
                        }
                    },
                )?;
            }
        }

        // kNN partition: plans grouped by seed-box overlap, each group
        // driven through a shared expanding-ring sweep whose rings execute
        // as fused range batches (sharded rings under the parallel
        // strategy).
        let mut knn = PartitionOutcome::default();
        if let Some(kernel) = kernel {
            let (positions, plans) = gather(queries, |query| match query {
                Query::Knn { q, k } => Some((*q, *k)),
                _ => None,
            });
            if plans.len() >= 2 {
                // Auto routes the partition by the range kernel's class
                // rule: ring sweeps share candidate pages on page-backed
                // indexes; on a flat array the rings only add sweep
                // coordination, so the per-plan loop wins.
                let chosen = if auto {
                    decide_knn_strategy(kernel.cost_class(), plans.len(), workers)
                } else {
                    pinned
                };
                knn = self.run_partition(
                    queries,
                    &positions,
                    &mut slots,
                    (chosen, None),
                    |shards| {
                        let (response, shards_used) =
                            run_knn_batch(self.index, kernel, &plans, shards);
                        FusedRun {
                            outputs: response.neighbors.into_iter().map(QueryOutput::Neighbors),
                            per_query: response.per_query,
                            shared: response.shared,
                            shards_used,
                        }
                    },
                )?;
            }
        }

        // Leftovers — partitions without a kernel, single-plan partitions —
        // run sequentially in place.
        for (slot, query) in slots.iter_mut().zip(queries) {
            if slot.is_none() {
                *slot = Some(self.execute(query)?);
            }
        }
        let mut shared_stats = range.shared;
        shared_stats.merge(&point.shared);
        shared_stats.merge(&knn.shared);
        Ok(BatchReport {
            reports: slots
                .into_iter()
                .map(|s| s.expect("every slot filled above"))
                .collect(),
            shared_stats,
            range_shared_stats: range.shared,
            point_shared_stats: point.shared,
            knn_shared_stats: knn.shared,
            latency_ns: 0,
            fused_queries: range.fused,
            fused_points: point.fused,
            fused_knn: knn.fused,
            shards_used: range
                .shards_used
                .max(point.shards_used)
                .max(knn.shards_used),
            strategy_chosen: StrategyDecisions {
                range: range.decision,
                point: point.decision,
                knn: knn.decision,
            },
        })
    }

    /// The partition driver: executes one plan-type partition (the members
    /// of `queries` at `positions`) the way `choice` says — through the
    /// per-query loop, or through `run_fused` with the chosen shard count —
    /// fills the members' slots, and, under [`BatchStrategy::Auto`], puts
    /// the decision on record with its measured cost.
    fn run_partition<O: ExactSizeIterator<Item = QueryOutput>>(
        &self,
        queries: &[Query],
        positions: &[usize],
        slots: &mut [Option<QueryReport>],
        (chosen, estimate): (ChosenStrategy, Option<CostEstimate>),
        run_fused: impl FnOnce(usize) -> FusedRun<O>,
    ) -> Result<PartitionOutcome, EngineError> {
        let executed = Instant::now();
        let mut outcome = PartitionOutcome::default();
        match chosen {
            ChosenStrategy::Sequential => {
                for &position in positions {
                    slots[position] = Some(self.execute(&queries[position])?);
                }
            }
            ChosenStrategy::Fused | ChosenStrategy::FusedParallel { .. } => {
                let run = run_fused(match chosen {
                    ChosenStrategy::FusedParallel { shards } => shards,
                    _ => 1,
                });
                debug_assert_eq!(run.outputs.len(), positions.len());
                debug_assert_eq!(run.per_query.len(), positions.len());
                for ((&position, output), stats) in
                    positions.iter().zip(run.outputs).zip(run.per_query)
                {
                    slots[position] = Some(QueryReport {
                        output,
                        stats,
                        latency_ns: 0,
                    });
                }
                outcome.shared = run.shared;
                outcome.fused = positions.len();
                outcome.shards_used = run.shards_used;
            }
        }
        if self.strategy == BatchStrategy::Auto {
            outcome.decision = Some(PartitionDecision {
                queries: positions.len(),
                chosen,
                estimate,
                actual_ns: executed.elapsed().as_nanos() as u64,
            });
        }
        Ok(outcome)
    }
}

/// The positions of the plans `extract` accepts, with what it extracted
/// from each: one plan-type partition of a batch.
fn gather<T>(queries: &[Query], extract: impl Fn(&Query) -> Option<T>) -> (Vec<usize>, Vec<T>) {
    queries
        .iter()
        .enumerate()
        .filter_map(|(i, query)| extract(query).map(|member| (i, member)))
        .unzip()
}

/// What a fused kernel run hands the partition driver: one answer and one
/// stats record per partition member, in member order (`outputs` is an
/// iterator so each kernel's own output type converts on the way into the
/// slots, without an intermediate vector).
struct FusedRun<O> {
    outputs: O,
    per_query: Vec<ExecStats>,
    shared: ExecStats,
    shards_used: usize,
}

/// How one plan-type partition executed; all zero when it never ran as a
/// partition (no kernel, fewer than two members).
#[derive(Default)]
struct PartitionOutcome {
    /// Work the fused kernel did once on behalf of the whole partition.
    shared: ExecStats,
    /// Members answered by the fused kernel (zero on the sequential route).
    fused: usize,
    shards_used: usize,
    /// The cost model's decision, recorded under Auto only.
    decision: Option<PartitionDecision>,
}
