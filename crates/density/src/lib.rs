//! # wazi-density
//!
//! Random Forest Density Estimation (RFDE, Wen & Hang 2022) as used by the
//! WaZI index construction (Section 4.3 of the paper): a forest of k-d trees
//! with randomized split dimensions whose nodes store the cardinality of the
//! points in their region. Estimating the number of points inside a query
//! rectangle is a tree traversal collecting cardinalities from overlapping
//! nodes.
//!
//! Two flavours are provided through one type:
//!
//! * [`Rfde::fit`] — the plain estimator over data points, used by WaZI to
//!   evaluate the `n_X` terms of the retrieval-cost function;
//! * [`Rfde::fit_weighted`] — the weighted estimator used by the CUR
//!   baseline, where each point is weighted by the number of distinct
//!   queries fetching it (Section 6.1).
//!
//! Fitting one tree is `O(n log n)`: a node selects its median
//! (`select_nth_unstable_by`, linear), reads the lower median as the maximum
//! of the left part and partitions at most once, so every level of the tree
//! costs one linear pass. Both flavours share that one fitting path; the
//! unweighted one works on a single scratch copy of the bare 16-byte points.
//! What the fit draws from its generator, and in which order, is part of the
//! construction's determinism contract (`docs/BUILD.md`).
//!
//! Estimation is construction-time only: query execution (including the
//! engine's fused batch kernels) never consults the estimator, so its cost
//! is charged to build time alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rfde;
mod tree;

pub use rfde::{Rfde, RfdeConfig};
pub use tree::CountKdTree;
