//! # wazi-baselines
//!
//! The baseline spatial indexes of the WaZI evaluation (Section 6.1), all
//! implementing [`wazi_core::SpatialIndex`]:
//!
//! * [`StrRTree`] — Sort-Tile-Recursive packed R-tree (Leutenegger et al.);
//! * [`CurTree`] — cost-based unbalanced R-tree (Ross et al.), adapted to
//!   point data with a query-weighted RFDE as described in the paper;
//! * [`FloodIndex`] — a simplified two-dimensional Flood grid index
//!   (Nathan et al.) whose column count is tuned on a workload sample;
//! * [`Quasii`] — the converged query-aware cracking index
//!   (Pavlovic et al.);
//! * [`ZOrderSorted`] — a rank-space Z-order sorted array with BIGMIN
//!   skipping, representing the `Zpgm`/`ZM` family that Figure 4 discards.
//!
//! The base Z-index itself lives in `wazi-core` (it shares its implementation
//! with WaZI).
//!
//! ## Fused batch kernels
//!
//! Every page-backed baseline also implements the query engine's fused batch
//! kernel ([`wazi_core::RangeBatchKernel`]) over its own layout. Its walk
//! records, for a batch of range requests, the units each request scans —
//! leaf pages reached by one pruning descent for STR and CUR, cracked
//! pieces for QUASII, grid columns for Flood — and its `locate` names the
//! one unit a point probe reads first: the first page or piece its walk
//! probes, or Flood's column. The engine reads each distinct unit once for
//! all of its requests and probes, so [`wazi_core::QueryEngine`] batch
//! fusion is genuinely cross-index, and a solo query of either kind is the
//! batch of one ([`wazi_core::solo_range_query`],
//! [`wazi_core::solo_point_query`]). The sorted Z-order array has no page
//! fetch to share and advertises no kernel; the engine runs its batches
//! through the per-query loop. The kernels obey one contract: answers and
//! per-query work counters are bit-identical to the sequential path, only
//! physical page fetches are shared:
//!
//! ```
//! use wazi_baselines::StrRTree;
//! use wazi_core::{run_range_batch, RangeBatchOutput, RangeBatchRequest, SpatialIndex};
//! use wazi_geom::{Point, Rect};
//! use wazi_storage::ExecStats;
//!
//! let points: Vec<Point> = (0..2_000)
//!     .map(|i| Point::new((i % 50) as f64 / 50.0, (i / 50) as f64 / 40.0))
//!     .collect();
//! let index = StrRTree::build(points, 64);
//! let kernel = index.range_batch_kernel().expect("STR fuses range batches");
//!
//! // Two heavily overlapping requests: the batch walk records every shared
//! // leaf page once, while each request keeps its solo walk.
//! let requests = vec![
//!     RangeBatchRequest { rect: Rect::from_coords(0.2, 0.2, 0.6, 0.6), collect: false },
//!     RangeBatchRequest { rect: Rect::from_coords(0.25, 0.25, 0.65, 0.65), collect: false },
//! ];
//! let (response, shards) = run_range_batch(kernel, &requests, 1);
//! assert_eq!(shards, 1);
//!
//! let mut sequential = ExecStats::default();
//! let mut sequential_counts = Vec::new();
//! for request in &requests {
//!     sequential_counts.push(index.range_count(&request.rect, &mut sequential));
//! }
//! assert_eq!(
//!     response.outputs,
//!     sequential_counts.into_iter().map(RangeBatchOutput::Count).collect::<Vec<_>>()
//! );
//! // Shared page fetches never exceed the per-query loop's.
//! assert!(response.shared.pages_scanned < sequential.pages_scanned);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cur;
mod flood;
mod quasii;
mod rtree;
mod str_rtree;
mod zorder_sorted;

pub use cur::CurTree;
pub use flood::FloodIndex;
pub use quasii::Quasii;
pub use str_rtree::StrRTree;
pub use zorder_sorted::ZOrderSorted;
