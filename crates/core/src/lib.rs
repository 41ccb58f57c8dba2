//! # wazi-core
//!
//! A from-scratch Rust implementation of **WaZI**, the learned and
//! workload-aware Z-index of Pai, Mathioudakis and Wang (EDBT 2024), together
//! with the base Z-index it generalizes.
//!
//! ## What the index does
//!
//! A Z-index partitions the data space hierarchically into quaternary cells
//! and orders the cells along a space-filling curve, which induces a
//! clustered layout of leaf pages. Range queries locate the leaves containing
//! the query's bottom-left and top-right corners and scan the leaf interval
//! between them (Algorithms 1 and 2 of the paper).
//!
//! WaZI generalizes the base index in two ways (Section 4):
//!
//! * the split point of every cell may be placed anywhere (not just at the
//!   data medians), and
//! * the child ordering of every cell may be `abcd` or `acbd`, both of which
//!   preserve dominance monotonicity.
//!
//! Both choices are made per cell by greedily minimising a retrieval-cost
//! function (Eq. 5) evaluated on an anticipated range-query workload, with
//! point cardinalities estimated by a Random Forest Density Estimation model.
//! A look-ahead pointer mechanism (Section 5) lets range queries skip runs of
//! irrelevant leaf pages.
//!
//! ## Quick start
//!
//! ```
//! use wazi_core::{SpatialIndex, ZIndex};
//! use wazi_geom::{Point, Rect};
//! use wazi_storage::ExecStats;
//!
//! // A small clustered dataset and an anticipated query workload.
//! let points: Vec<Point> = (0..5_000)
//!     .map(|i| Point::new((i % 100) as f64 / 100.0, (i / 100) as f64 / 50.0))
//!     .collect();
//! let workload: Vec<Rect> = (0..50)
//!     .map(|i| Rect::query_box(&Rect::UNIT, Point::new(0.2, 0.3 + i as f64 / 500.0), 0.001, 1.0))
//!     .collect();
//!
//! let index = ZIndex::build_wazi(points, &workload);
//! let mut stats = ExecStats::default();
//! let result = index.range_query(&workload[0], &mut stats);
//! assert_eq!(result.len() as u64, stats.results);
//! ```
//!
//! ## Batch execution through the query engine
//!
//! On top of the [`SpatialIndex`] trait sits the typed query-plan engine
//! (the [`engine`] module): [`Query`] plans executed by a [`QueryEngine`],
//! one at a time or as batches. The fused strategies partition a batch by
//! plan type and route each partition through the index's fused kernels,
//! so pages relevant to several co-located queries are fetched once per
//! batch — with outputs and per-query work counters identical to the
//! sequential loop by construction (see `docs/ENGINE.md` at the repository
//! root for the full pipeline guide):
//!
//! ```
//! use wazi_core::{BatchStrategy, Query, QueryEngine, QueryOutput, SpatialIndex, ZIndex};
//! use wazi_geom::{Point, Rect};
//!
//! let points: Vec<Point> = (0..2_000)
//!     .map(|i| Point::new((i % 50) as f64 / 50.0, (i / 50) as f64 / 40.0))
//!     .collect();
//! let index = ZIndex::build_base(points);
//!
//! // A mixed batch: overlapping range counts, a point probe, a kNN plan.
//! let batch = vec![
//!     Query::range_count(Rect::from_coords(0.10, 0.10, 0.45, 0.45)),
//!     Query::range_count(Rect::from_coords(0.15, 0.12, 0.50, 0.48)),
//!     Query::point(Point::new(0.5, 0.5)),
//!     Query::knn(Point::new(0.2, 0.2), 5),
//! ];
//!
//! let sequential = QueryEngine::new(&index)
//!     .with_strategy(BatchStrategy::Sequential)
//!     .execute_batch(&batch)
//!     .unwrap();
//! let fused = QueryEngine::new(&index)
//!     .with_strategy(BatchStrategy::Fused)
//!     .execute_batch(&batch)
//!     .unwrap();
//!
//! // Fusion changes the physical schedule, never the answers.
//! for (a, b) in fused.reports.iter().zip(&sequential.reports) {
//!     assert_eq!(a.output, b.output);
//! }
//! assert_eq!(fused.fused_queries, 2); // both range plans shared one scan
//! assert!(matches!(fused.reports[3].output, QueryOutput::Neighbors(ref n) if n.len() == 5));
//!
//! // The engine's default is `BatchStrategy::Auto`: the cost model picks
//! // the schedule per partition — never changing results, only cost.
//! let auto = QueryEngine::new(&index).execute_batch(&batch).unwrap();
//! for (a, b) in auto.reports.iter().zip(&sequential.reports) {
//!     assert_eq!(a.output, b.output);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod config;
pub mod cost;
pub mod engine;
pub mod faults;
mod index;
mod lookahead;
mod node;
mod zindex;

pub use build::{BuildReport, BuildStrategy, ZIndexBuilder};
pub use config::{DensityMode, ZIndexConfig};
pub use engine::{
    catch_execution_panic, decide_range_strategy, group_knn_plans, panic_message, run_knn_batch,
    run_range_batch, solo_point_query, solo_range_query, BatchReport, BatchStrategy,
    ChosenStrategy, CostConstants, CostEstimate, EngineError, KnnBatchResponse, PartitionDecision,
    Query, QueryEngine, QueryOutput, QueryReport, RangeBatchKernel, RangeBatchOutput,
    RangeBatchRequest, RangeBatchResponse, RangeBatchStats, RangeMode, Snapshot, SnapshotSource,
    StrategyDecisions, VersionStats, VersionedIndex, WalkRecord, WriteFault, WriteFaultPlan,
    WriteOp, WritePhase, WriteReceipt,
};
pub use index::{IndexError, SpatialIndex, UpdateOp};
pub use node::{Leaf, Lookahead, SkipCriterion};
pub use zindex::ZIndex;

// Re-export the geometry the public API speaks in, so downstream crates can
// depend on `wazi-core` alone for simple uses.
pub use wazi_geom::{CellOrdering, Point, Quadrant, Rect};
pub use wazi_storage::{ExecStats, StatsSummary};
