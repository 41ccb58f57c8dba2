//! The generalized Z-index: structure definition and its [`SpatialIndex`]
//! front door.
//!
//! The implementation is layered into focused submodules:
//!
//! * `mod.rs` — the [`ZIndex`] struct, its constructors and the
//!   [`SpatialIndex`] impl, which only delegates;
//! * `query.rs` — the leaf-interval walk behind every range read (solo
//!   queries in all three modes, kNN candidates, batches), the point probe
//!   and the kNN seed descent;
//! * `update.rs` — inserts, deletes, leaf splits and look-ahead pointer
//!   maintenance;
//! * `introspect.rs` — accessors, invariant checkers and cost measurement
//!   used by tests and experiments.

mod introspect;
mod query;
#[cfg(test)]
mod tests;
mod update;

use crate::build::BuildReport;
use crate::config::ZIndexConfig;
use crate::engine::{solo_point_query, solo_range_query, RangeBatchKernel};
use crate::index::{IndexError, SpatialIndex};
use crate::node::{InternalNode, Leaf, NodeRef};
use wazi_geom::{Point, Rect};
use wazi_storage::{ExecStats, PageStore};

/// A generalized Z-index instance: either the base variant (median splits,
/// `abcd` ordering) or WaZI (cost-optimised splits and orderings, optional
/// look-ahead skipping), depending on how it was built.
///
/// Construct instances through [`crate::ZIndexBuilder`] or the convenience
/// constructors [`ZIndex::build_wazi`] / [`ZIndex::build_base`].
#[derive(Debug, Clone)]
pub struct ZIndex {
    pub(crate) variant: &'static str,
    pub(crate) config: ZIndexConfig,
    pub(crate) nodes: Vec<InternalNode>,
    pub(crate) leaves: Vec<Leaf>,
    pub(crate) root: NodeRef,
    pub(crate) store: PageStore,
    pub(crate) len: usize,
    pub(crate) data_space: Rect,
    pub(crate) build_report: BuildReport,
    /// Set when an update made the look-ahead pointers potentially unsafe
    /// (a point was inserted outside its leaf's cell region, which can only
    /// happen for points outside the original data space). Skipping is
    /// disabled until [`ZIndex::rebuild_lookahead`] is called.
    pub(crate) lookahead_stale: bool,
}

impl ZIndex {
    /// Builds the paper's WaZI index (adaptive partitioning + ordering,
    /// RFDE cardinality estimation, look-ahead skipping) for a dataset and an
    /// anticipated range-query workload.
    pub fn build_wazi(points: Vec<Point>, queries: &[Rect]) -> Self {
        crate::ZIndexBuilder::wazi().build(points, queries)
    }

    /// Builds the base Z-index (median splits, `abcd` ordering, no
    /// skipping).
    pub fn build_base(points: Vec<Point>) -> Self {
        crate::ZIndexBuilder::base().build(points, &[])
    }

    /// Assembles an index from parts produced by the builder.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        variant: &'static str,
        config: ZIndexConfig,
        nodes: Vec<InternalNode>,
        leaves: Vec<Leaf>,
        root: NodeRef,
        store: PageStore,
        len: usize,
        data_space: Rect,
        build_report: BuildReport,
    ) -> Self {
        Self {
            variant,
            config,
            nodes,
            leaves,
            root,
            store,
            len,
            data_space,
            build_report,
            lookahead_stale: false,
        }
    }
}

impl SpatialIndex for ZIndex {
    fn name(&self) -> &'static str {
        self.variant
    }

    fn len(&self) -> usize {
        self.len
    }

    fn data_bounds(&self) -> Rect {
        self.data_space
    }

    fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
        solo_range_query(self, query, stats)
    }

    fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
        solo_point_query(self, p, stats)
    }

    fn insert(&mut self, p: Point) -> Result<(), IndexError> {
        self.insert_point(p)
    }

    fn delete(&mut self, p: &Point) -> Result<bool, IndexError> {
        self.delete_point(p)
    }

    fn maintain(&mut self) {
        self.rebuild_lookahead();
    }

    fn size_bytes(&self) -> usize {
        self.structure_size_bytes()
    }

    fn knn_seed_radius(&self, q: &Point, k: usize, stats: &mut ExecStats) -> Option<f64> {
        self.knn_seed(q, k, stats)
    }

    fn range_batch_kernel(&self) -> Option<&dyn RangeBatchKernel> {
        Some(self)
    }
}
