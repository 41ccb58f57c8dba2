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
//!   type and routing each partition through the index's fused
//!   [`RangeBatchKernel`] — range plans walked, point probes located, kNN
//!   plans through grouped expanding-ring sweeps — so pages shared by
//!   co-located queries are read once per batch.
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
mod report;
pub mod snapshot;
#[cfg(test)]
mod tests;

pub(crate) use batch::solo_range;
use batch::{available_workers, run_probe_batch, run_walked_batch, walk};
pub use batch::{
    run_range_batch, solo_point_query, solo_range_query, RangeBatchKernel, RangeBatchOutput,
    RangeBatchRequest, RangeBatchResponse, WalkRecord,
};
pub use cost::{
    decide_range_shards, CostConstants, CostEstimate, PartitionDecision, RangeBatchStats,
};
pub(crate) use knn::KnnSweepState;
pub use knn::{group_knn_plans, run_knn_batch, KnnBatchResponse};
pub use plan::{Query, QueryOutput, RangeMode};
pub use report::{BatchReport, QueryReport, StrategyDecisions};
pub use snapshot::{
    Snapshot, SnapshotSource, VersionStats, VersionedIndex, WriteFault, WriteFaultPlan, WriteOp,
    WritePhase, WriteReceipt,
};

use crate::index::{IndexError, SpatialIndex};
use std::time::Instant;
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
/// This is the engine's panic-isolation boundary, for service layers that
/// need to survive a faulty query without losing the process. Around
/// [`QueryEngine::execute_batch`] the whole batch fails as one
/// [`EngineError::ExecutionPanicked`], because a fused kernel interleaves
/// every member's work in one sweep; a caller that wants per-query
/// isolation re-executes the members one by one around
/// [`QueryEngine::execute`], which is what `wazi-service`'s degraded path
/// does. The unwind-safety assertion is justified by the
/// engine's execution model:
///
/// * every kernel entry point ([`SpatialIndex::range_query`],
///   [`SpatialIndex::point_query`], [`SpatialIndex::range_batch_kernel`],
///   the kNN sweeps) takes `&self` — index state is never mutated during
///   query execution, and no index implementation uses interior mutability
///   (the workspace forbids `unsafe`), so an unwound kernel cannot leave
///   the index half-written;
/// * all per-call state (`ExecStats`, walk records, partial responses) is
///   owned by the call frame and dropped during the unwind;
/// * panics on the engine's scoped worker threads propagate to the caller
///   with their original payload (the chunk joins re-raise via
///   [`std::panic::resume_unwind`]), so a parallel scan is caught here
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
/// * [`BatchStrategy::Auto`] (the default) runs every partition fused and
///   asks the cost model in [`cost`] one question per range partition: how
///   many shards. The decision is recorded in
///   [`BatchReport::strategy_chosen`].
/// * [`BatchStrategy::Sequential`] is the per-query reference loop that
///   every fused run is pinned to.
/// * [`BatchStrategy::Fused`] wins on overlapping batches: one walk records
///   every range plan's pages, pages relevant to several queries are
///   scanned once per batch, and pages are visited in layout order
///   (cache-friendly) instead of once per query in arrival order. The win
///   is largest for counting plans; materializing
///   ([`RangeMode::Collect`]) plans gain less because result
///   materialization, which fusion cannot share, dominates their cost.
/// * [`BatchStrategy::FusedParallel`] wins when a fused batch has enough
///   total work to amortize thread spawning (thousands of overlapping
///   queries, large datasets): the batch's distinct pages are cut into
///   work-balanced chunks scanned concurrently. On small
///   batches the spawn overhead makes it slower than [`BatchStrategy::Fused`]
///   — prefer plain fusion below a few hundred microseconds of batch work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchStrategy {
    /// Run every partition of two or more plans fused, as
    /// [`BatchStrategy::Fused`] does, and pick each range partition's shard
    /// count with the calibrated cost model ([`cost`]) from the batch's
    /// walk footprint (distinct pages, points, host parallelism): one
    /// shard, or the parallel cut when it is predicted cheaper. Point and
    /// kNN partitions run on one shard. Never changes results, only cost —
    /// a misprediction costs wall-clock, not correctness — and never
    /// schedules worker threads on a single-core host. The decision per
    /// partition, with predicted and measured cost, lands in
    /// [`BatchReport::strategy_chosen`].
    #[default]
    Auto,
    /// Execute queries one at a time in input order: results, counters and
    /// per-query latencies are exactly those of a hand-written
    /// [`QueryEngine::execute`] loop.
    Sequential,
    /// Partition the batch by plan type and route every partition through
    /// the fused [`RangeBatchKernel`] the index advertises
    /// ([`SpatialIndex::range_batch_kernel`]): range plans walked, point
    /// probes located, each distinct unit read once for all of its plans,
    /// and kNN plans through grouped expanding-ring sweeps reusing the
    /// kernel per ring. Without a kernel the batch runs the sequential
    /// loop. Answers are
    /// identical to [`BatchStrategy::Sequential`]; pages relevant to
    /// several queries are scanned once per batch (per ring for kNN)
    /// instead of once per query, and per-query bounding-box checks never
    /// exceed the sequential walk's.
    Fused,
    /// Like [`BatchStrategy::Fused`], but every fused read — the range
    /// partition's, the point partition's and every kNN ring's — cuts the
    /// batch's distinct units (leaves for the Z-index) into up to `shards`
    /// contiguous, work-balanced chunks read on scoped worker threads.
    /// Every request is still walked or located once, before any chunk is
    /// read, so per-request walks (bounding-box checks, look-ahead skips)
    /// are those of the single pass, and every unit is fetched once per
    /// batch whatever the shard count; partial results merge
    /// deterministically in unit order, so outputs and counters are
    /// bit-identical to the other strategies regardless of thread
    /// scheduling. Degenerates to [`BatchStrategy::Fused`] — the same read
    /// with a one-chunk plan — when `shards <= 1` or the batch reads a
    /// single unit.
    FusedParallel {
        /// Upper bound on the number of concurrently scanned chunks
        /// (clamped to the batch's distinct units; `0` is treated as `1`).
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

    /// Executes one query plan, owning the stats bookkeeping. A
    /// [`RangeMode::Stream`] plan counts, exactly as a
    /// [`RangeMode::Count`] plan does.
    pub fn execute(&self, query: &Query) -> Result<QueryReport, EngineError> {
        query.validate()?;
        let mut stats = ExecStats::default();
        let start = Instant::now();
        let output = match query {
            Query::Range { rect, mode } => match mode {
                RangeMode::Collect => QueryOutput::Points(self.index.range_query(rect, &mut stats)),
                RangeMode::Count => QueryOutput::Count(self.index.range_count(rect, &mut stats)),
                RangeMode::Stream => {
                    QueryOutput::Streamed(self.index.range_count(rect, &mut stats))
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

    /// Executes a batch of query plans, answering in input order.
    ///
    /// Every plan is validated before anything executes, so an invalid
    /// query rejects the whole batch without partial work.
    ///
    /// Under the fused strategies the batch is partitioned by plan type and,
    /// when the index has a [`RangeBatchKernel`], each partition with at
    /// least two members routes through it: range plans walked, point
    /// probes located, both read unit by unit, and kNN plans through the
    /// shared expanding-ring sweep (which reuses the kernel per ring).
    /// Without a kernel — and for leftover single plans — plans run
    /// sequentially; answers are identical either way.
    pub fn execute_batch(&self, queries: &[Query]) -> Result<BatchReport, EngineError> {
        for query in queries {
            query.validate()?;
        }
        let start = Instant::now();
        let kernel = match self.strategy {
            BatchStrategy::Auto | BatchStrategy::Fused | BatchStrategy::FusedParallel { .. } => {
                self.index.range_batch_kernel()
            }
            BatchStrategy::Sequential => None,
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
        let mut report = match kernel {
            Some(kernel) if ranges >= 2 || points >= 2 || knns >= 2 => {
                self.execute_batch_fused(queries, kernel)?
            }
            _ => self.execute_batch_sequential(queries)?,
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
    /// partition with at least two members executes fused — range plans
    /// walked once and point probes located once, each distinct unit read
    /// once (in chunks on worker threads under
    /// [`BatchStrategy::FusedParallel`]), kNN plans through grouped
    /// expanding-ring sweeps whose rings reuse the kernel. Everything else
    /// runs sequentially, and the answers are reassembled into input order.
    ///
    /// Under [`BatchStrategy::Auto`] the range partition is walked once,
    /// the record's footprint decides the shard count ([`cost`]), and the
    /// record is the plan the fused run executes; every decision is
    /// recorded in [`BatchReport::strategy_chosen`].
    fn execute_batch_fused(
        &self,
        queries: &[Query],
        kernel: &dyn RangeBatchKernel,
    ) -> Result<BatchReport, EngineError> {
        let auto = self.strategy == BatchStrategy::Auto;
        // The shard count a pinned fused strategy runs every partition at.
        let pinned = match self.strategy {
            BatchStrategy::FusedParallel { shards } => shards.max(1),
            _ => 1,
        };
        let workers = available_workers();
        let mut slots: Vec<Option<QueryReport>> = (0..queries.len()).map(|_| None).collect();

        // Range partition: one walk for every range plan, then the scans
        // its schedule asks for.
        let mut range = PartitionOutcome::default();
        let (positions, requests) = gather(queries, |query| match query {
            Query::Range { rect, mode } => Some(RangeBatchRequest {
                rect: *rect,
                collect: *mode == RangeMode::Collect,
            }),
            _ => None,
        });
        if requests.len() >= 2 {
            // Auto prices the record's footprint; the record is then the
            // plan the fused run executes at the chosen shard count.
            let record = walk(kernel, &requests);
            let choice = if auto {
                let footprint = record.footprint();
                let (shards, estimate) =
                    decide_range_shards(&footprint, workers, &CostConstants::BAKED);
                let shared_visits = footprint.page_visits - footprint.distinct_pages;
                (shards, shared_visits, Some(estimate))
            } else {
                (pinned, 0, None)
            };
            range = self.run_partition(&positions, &mut slots, choice, |shards| {
                let (response, shards_used) = run_walked_batch(kernel, &requests, &record, shards);
                let outputs = positions
                    .iter()
                    .zip(response.outputs)
                    .map(|(&position, output)| match (output, &queries[position]) {
                        (RangeBatchOutput::Points(points), _) => QueryOutput::Points(points),
                        (
                            RangeBatchOutput::Count(n),
                            Query::Range {
                                mode: RangeMode::Stream,
                                ..
                            },
                        ) => QueryOutput::Streamed(n),
                        (RangeBatchOutput::Count(n), _) => QueryOutput::Count(n),
                    });
                PartitionRun {
                    outputs,
                    per_query: response.per_query,
                    shared: response.shared,
                    shards_used,
                }
            });
        }

        // Point partition: every probe located, a run of at most one unit,
        // then read like a range partition. A located unit is shared by
        // the probes that read it, so Auto fuses, on one shard.
        let mut point = PartitionOutcome::default();
        let (positions, probes) = gather(queries, |query| match query {
            Query::Point(p) => Some(*p),
            _ => None,
        });
        if probes.len() >= 2 {
            let shards = if auto { 1 } else { pinned };
            point = self.run_partition(&positions, &mut slots, (shards, 0, None), |shards| {
                let (response, shards_used) = run_probe_batch(kernel, &probes, shards);
                PartitionRun {
                    outputs: response
                        .outputs
                        .into_iter()
                        .map(|output| QueryOutput::Found(output != RangeBatchOutput::Count(0))),
                    per_query: response.per_query,
                    shared: response.shared,
                    shards_used,
                }
            });
        }

        // kNN partition: plans grouped by seed-box overlap, each group
        // driven through a shared expanding-ring sweep whose rings execute
        // as fused range batches (sharded rings under the parallel
        // strategy).
        let mut knn = PartitionOutcome::default();
        let (positions, plans) = gather(queries, |query| match query {
            Query::Knn { q, k } => Some((*q, *k)),
            _ => None,
        });
        if plans.len() >= 2 {
            // Ring sweeps share candidate pages, so Auto fuses, on one
            // shard as a point partition does.
            let shards = if auto { 1 } else { pinned };
            knn = self.run_partition(&positions, &mut slots, (shards, 0, None), |shards| {
                let (response, shards_used) = run_knn_batch(self.index, kernel, &plans, shards);
                PartitionRun {
                    outputs: response.neighbors.into_iter().map(QueryOutput::Neighbors),
                    per_query: response.per_query,
                    shared: response.shared,
                    shards_used,
                }
            });
        }

        // Leftovers — single-plan partitions — run sequentially in place.
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

    /// The partition driver: executes one plan-type partition (the batch's
    /// members at `positions`) through `run`'s fused read at `shards`
    /// shards, fills the members' slots, and, under [`BatchStrategy::Auto`],
    /// puts the decision on record with the page visits its walks share,
    /// the model's estimate and the measured cost. A fused member has no
    /// latency of its own.
    fn run_partition<O: ExactSizeIterator<Item = QueryOutput>>(
        &self,
        positions: &[usize],
        slots: &mut [Option<QueryReport>],
        (shards, shared_visits, estimate): (usize, u64, Option<CostEstimate>),
        run: impl FnOnce(usize) -> PartitionRun<O>,
    ) -> PartitionOutcome {
        let executed = Instant::now();
        let run = run(shards);
        debug_assert_eq!(run.outputs.len(), positions.len());
        debug_assert_eq!(run.per_query.len(), positions.len());
        for ((&position, output), stats) in positions.iter().zip(run.outputs).zip(run.per_query) {
            slots[position] = Some(QueryReport {
                output,
                stats,
                latency_ns: 0,
            });
        }
        PartitionOutcome {
            shared: run.shared,
            fused: positions.len(),
            shards_used: run.shards_used,
            decision: (self.strategy == BatchStrategy::Auto).then(|| PartitionDecision {
                queries: positions.len(),
                shards,
                shared_visits,
                estimate,
                actual_ns: executed.elapsed().as_nanos() as u64,
            }),
        }
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

/// What a partition run hands the partition driver: one answer and one
/// stats record per partition member, in member order (`outputs` is an
/// iterator so each kernel's own output type converts on the way into the
/// slots, without an intermediate vector).
struct PartitionRun<O> {
    outputs: O,
    per_query: Vec<ExecStats>,
    shared: ExecStats,
    shards_used: usize,
}

/// How one plan-type partition executed; all zero when it never ran as a
/// partition (fewer than two members).
#[derive(Default)]
struct PartitionOutcome {
    /// Work the fused kernel did once on behalf of the whole partition.
    shared: ExecStats,
    /// Members answered by the fused kernel.
    fused: usize,
    shards_used: usize,
    /// The cost model's decision, recorded under Auto only.
    decision: Option<PartitionDecision>,
}
