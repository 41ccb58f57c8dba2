//! The `SpatialIndex` trait implemented by every index in the evaluation.

use crate::engine::{solo_range, PointBatchKernel, RangeBatchKernel, RangeBatchOutput};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

/// Errors returned by index operations.
///
/// The enum is `#[non_exhaustive]`: downstream crates must keep a wildcard
/// arm when matching, so adding error variants is not a breaking change.
/// [`crate::engine::EngineError`] wraps it via `From` for engine callers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexError {
    /// The index does not support the requested operation (e.g. inserts into
    /// a statically packed index such as STR).
    Unsupported(&'static str),
    /// The operation's input was invalid (e.g. a non-finite point).
    InvalidInput(String),
    /// The index's structure cannot apply the requested incremental update;
    /// callers that must make progress anyway (e.g. the versioned writer's
    /// rebuild fallback) match on this variant specifically.
    UpdateUnsupported {
        /// Display name of the rejecting index ([`SpatialIndex::name`]).
        index: &'static str,
        /// The rejected update operation (`"insert"` or `"delete"`).
        op: &'static str,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Unsupported(op) => write!(f, "operation not supported: {op}"),
            IndexError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            IndexError::UpdateUnsupported { index, op } => {
                write!(f, "{index} does not support incremental {op}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// Common interface of the spatial indexes compared in the paper's
/// evaluation (WaZI, Base, STR, CUR, Flood, QUASII, rank-space Z-order).
///
/// All query methods receive an [`ExecStats`] sink so the benchmark harness
/// can report the counters of Figures 9 and 13 uniformly, independent of
/// wall-clock measurement.
///
/// Range queries come in three execution modes sharing one semantics:
///
/// * [`SpatialIndex::range_query`] materializes the result set;
/// * [`SpatialIndex::range_count`] returns only its size;
/// * [`SpatialIndex::range_for_each`] streams every result to a closure.
///
/// An index with a fused range kernel ([`SpatialIndex::range_batch_kernel`])
/// answers a solo range query as a batch of one: the kernel's walk, its run
/// replayed with one page visit per unit. It implements `range_query` with
/// [`crate::solo_range_query`], and the defaults of the other two modes
/// take the same route without materializing — counting allocates no
/// result, streaming hands the matches over unit by unit through one
/// buffer — so all three charge the paper's Eq. 5 counters identically.
/// Without a kernel both defaults materialize through `range_query`.
///
/// The trait requires `Send + Sync`: all query methods take `&self`, and the
/// concurrent query service (`wazi-service`) shares one index across its
/// worker pool and client threads behind an `Arc<dyn SpatialIndex>`. Every
/// index in this workspace is a plain owned data structure with no interior
/// mutability, so the bound costs implementors nothing.
///
/// # Panic safety
///
/// Every query entry point — the three range modes, [`SpatialIndex::point_query`],
/// [`SpatialIndex::knn`], and both batch kernels — executes over `&self` and
/// must not mutate index state (updates go through the exclusive `&mut self`
/// methods). Under that contract a panic unwinding out of a kernel leaves
/// the index exactly as it was: walk records, partial responses and counters
/// are call-owned and dropped with the frame. This is what lets
/// [`crate::catch_execution_panic`] (and `wazi-service`'s degraded batch
/// path on top of it) catch a kernel panic, fail the one poisoning query,
/// and keep serving the same index — implementors adding caches or other
/// interior mutability to the read path would break that recovery story and
/// must not.
pub trait SpatialIndex: Send + Sync {
    /// Short display name used in experiment tables ("WaZI", "Base", ...).
    fn name(&self) -> &'static str;

    /// Number of points currently indexed.
    fn len(&self) -> usize;

    /// Returns `true` when the index holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tight-enough bounding rectangle of the indexed data: every indexed
    /// point lies inside it. Used to bound the final sweep of the kNN
    /// fallback; may be [`Rect::EMPTY`] only for an empty index.
    fn data_bounds(&self) -> Rect;

    /// Returns every indexed point that falls inside `query`.
    fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point>;

    /// Returns the number of indexed points inside `query`.
    ///
    /// The default counts through the range kernel's walk when the index
    /// has one, and materializes through [`SpatialIndex::range_query`]
    /// otherwise.
    fn range_count(&self, query: &Rect, stats: &mut ExecStats) -> u64 {
        let Some(kernel) = self.range_batch_kernel() else {
            return self.range_query(query, stats).len() as u64;
        };
        let mut output = RangeBatchOutput::Count(0);
        solo_range(kernel, query, &mut output, stats, |_| {});
        match output {
            RangeBatchOutput::Count(count) => count,
            RangeBatchOutput::Points(_) => unreachable!("a counting request"),
        }
    }

    /// Invokes `visit` for every indexed point inside `query`.
    ///
    /// The default streams through the range kernel's walk, unit by unit,
    /// when the index has one, and materializes through
    /// [`SpatialIndex::range_query`] otherwise. Visit order is unspecified
    /// (it follows the index's layout).
    fn range_for_each(&self, query: &Rect, stats: &mut ExecStats, visit: &mut dyn FnMut(&Point)) {
        let Some(kernel) = self.range_batch_kernel() else {
            self.range_query(query, stats).iter().for_each(visit);
            return;
        };
        let mut buffer = RangeBatchOutput::Points(Vec::new());
        solo_range(kernel, query, &mut buffer, stats, |output| {
            if let RangeBatchOutput::Points(points) = output {
                points.drain(..).for_each(|p| visit(&p));
            }
        });
    }

    /// Returns `true` when a point equal to `p` is indexed.
    fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool;

    /// Inserts a point. Indexes that only support bulk loading return
    /// [`IndexError::UpdateUnsupported`] naming themselves, so callers can
    /// distinguish "this index never ingests" from other failures and fall
    /// back to a rebuild.
    fn insert(&mut self, _p: Point) -> Result<(), IndexError> {
        Err(IndexError::UpdateUnsupported {
            index: self.name(),
            op: "insert",
        })
    }

    /// Deletes a point (the first indexed point equal to `p`). Returns
    /// `Ok(true)` when a point was removed. Indexes that only support bulk
    /// loading return [`IndexError::UpdateUnsupported`] naming themselves.
    fn delete(&mut self, _p: &Point) -> Result<bool, IndexError> {
        Err(IndexError::UpdateUnsupported {
            index: self.name(),
            op: "delete",
        })
    }

    /// Post-batch maintenance hook: indexes that defer bookkeeping during
    /// updates (e.g. WaZI's look-ahead pointers) restore their optimal state
    /// here. The default does nothing.
    fn maintain(&mut self) {}

    /// Approximate in-memory size of the index structure in bytes,
    /// including learned components but excluding nothing: this is the
    /// quantity reported in Table 5.
    fn size_bytes(&self) -> usize;

    /// The `k` nearest neighbours of `q`, ordered by increasing distance;
    /// none when `q` has a non-finite coordinate.
    ///
    /// The default implementation decomposes kNN into a sequence of growing
    /// range queries, the strategy the paper describes for indexes without a
    /// specialised kNN algorithm (Section 6.3, "Remark on kNN and
    /// Spatial-Join Queries").
    fn knn(&self, q: &Point, k: usize, stats: &mut ExecStats) -> Vec<Point> {
        knn_by_range_queries(self, q, k, stats)
    }

    /// The half-width of the first kNN ring around `q` for `k` neighbours
    /// (`1 ≤ k ≤ len`, `q` finite), sized from the index's own density
    /// around `q`; any work it does is charged to `stats`.
    ///
    /// The default is `None`: the ring starts at the uniform-density radius
    /// `sqrt(k · area(data_bounds) / len)`, whose box holds about `4k`
    /// points when the data is uniform. An index that knows a smaller cell
    /// around `q` holding at least `k` points returns the same formula over
    /// that cell. The answer never depends on the seed — the doubling loop
    /// ends only once the k-th candidate lies inside the swept box — only
    /// the work of the first rings does.
    fn knn_seed_radius(&self, _q: &Point, _k: usize, _stats: &mut ExecStats) -> Option<f64> {
        None
    }

    /// Fused batch-range capability hook for the query engine.
    ///
    /// Indexes that can execute many range queries in one pass (sharing
    /// page visits between overlapping queries) return themselves here;
    /// the default advertises nothing, and
    /// [`crate::QueryEngine::execute_batch`] under
    /// [`crate::BatchStrategy::Fused`] falls back to the sequential loop.
    fn range_batch_kernel(&self) -> Option<&dyn RangeBatchKernel> {
        None
    }

    /// Fused batch-point-probe capability hook for the query engine.
    ///
    /// Indexes that can answer many exact-match probes in one leaf-grouped
    /// pass (probes grouped by owning page, each page fetched once per
    /// batch) return themselves here; the default advertises nothing, and
    /// the engine's fused strategies fall back to per-probe execution.
    fn point_batch_kernel(&self) -> Option<&dyn PointBatchKernel> {
        None
    }
}

/// kNN by repeated range queries with a doubling search radius.
///
/// A candidate set found within radius `r` is only final once the k-th
/// nearest candidate lies within `r` — or once the search box covers the
/// index's [`SpatialIndex::data_bounds`], in which case no point can hide
/// outside it (the sweep is then clamped to the bounds themselves, keeping
/// the coordinates finite and inside the range every index's coordinate
/// mapping was built for). The initial radius is the index's
/// [`SpatialIndex::knn_seed_radius`] when it has one, and otherwise assumes
/// a roughly uniform density over the data bounds: a half-width of
/// `sqrt(k · area / len)`, whose box is expected to hold about `4k` points
/// whatever the dataset's extent.
///
/// Each round keeps its `k` nearest candidates by selection rather than by
/// sorting them all: ordered by distance, ties by the order the range query
/// returned them, which equals the first `k` of a stable sort by distance.
/// A centre with a non-finite coordinate has no neighbours.
///
/// The per-round geometry and termination tests live in
/// [`crate::engine::KnnSweepState`], which the engine's fused kNN batch path
/// shares verbatim — the two paths answer bit-identically by construction.
pub(crate) fn knn_by_range_queries<I: SpatialIndex + ?Sized>(
    index: &I,
    q: &Point,
    k: usize,
    stats: &mut ExecStats,
) -> Vec<Point> {
    let Some(mut state) = crate::engine::KnnSweepState::new(index, *q, k, stats) else {
        return Vec::new();
    };
    loop {
        let (sweep, covers_everything) = state.sweep();
        let candidates = index.range_query(&sweep, stats);
        if let Some(neighbors) = state.absorb(covers_everything, candidates) {
            return neighbors;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially correct index used to exercise the trait's default
    /// methods.
    struct ScanIndex {
        points: Vec<Point>,
    }

    impl SpatialIndex for ScanIndex {
        fn name(&self) -> &'static str {
            "Scan"
        }
        fn len(&self) -> usize {
            self.points.len()
        }
        fn data_bounds(&self) -> Rect {
            Rect::bounding(&self.points)
        }
        fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
            stats.points_scanned += self.points.len() as u64;
            let out: Vec<Point> = self
                .points
                .iter()
                .copied()
                .filter(|p| query.contains(p))
                .collect();
            stats.results += out.len() as u64;
            out
        }
        fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
            stats.points_scanned += self.points.len() as u64;
            self.points.contains(p)
        }
        fn size_bytes(&self) -> usize {
            self.points.len() * std::mem::size_of::<Point>()
        }
    }

    fn grid_index() -> ScanIndex {
        let mut points = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                points.push(Point::new(i as f64 / 10.0, j as f64 / 10.0));
            }
        }
        ScanIndex { points }
    }

    #[test]
    fn default_insert_and_delete_are_typed_update_unsupported() {
        let mut idx = grid_index();
        assert_eq!(
            idx.insert(Point::new(0.5, 0.5)),
            Err(IndexError::UpdateUnsupported {
                index: "Scan",
                op: "insert"
            })
        );
        assert_eq!(
            idx.delete(&Point::new(0.5, 0.5)),
            Err(IndexError::UpdateUnsupported {
                index: "Scan",
                op: "delete"
            })
        );
        assert!(!idx.is_empty());
    }

    #[test]
    fn default_count_and_for_each_agree_with_range_query() {
        let idx = grid_index();
        let query = Rect::from_coords(0.15, 0.15, 0.75, 0.55);
        let mut stats = ExecStats::default();
        let materialized = idx.range_query(&query, &mut stats);
        assert_eq!(
            idx.range_count(&query, &mut stats),
            materialized.len() as u64
        );
        let mut streamed = Vec::new();
        idx.range_for_each(&query, &mut stats, &mut |p| streamed.push(*p));
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn knn_returns_k_closest_points_in_order() {
        let idx = grid_index();
        let mut stats = ExecStats::default();
        let q = Point::new(0.42, 0.42);
        let result = idx.knn(&q, 4, &mut stats);
        assert_eq!(result.len(), 4);
        // Closest grid point is (0.4, 0.4).
        assert_eq!(result[0], Point::new(0.4, 0.4));
        // Distances must be non-decreasing.
        for w in result.windows(2) {
            assert!(w[0].distance(&q) <= w[1].distance(&q) + 1e-12);
        }
    }

    #[test]
    fn knn_handles_edge_cases() {
        let idx = grid_index();
        let mut stats = ExecStats::default();
        assert!(idx.knn(&Point::new(0.5, 0.5), 0, &mut stats).is_empty());
        let all = idx.knn(&Point::new(0.5, 0.5), 1_000, &mut stats);
        assert_eq!(all.len(), 100, "k larger than the index clamps to len");
        let empty = ScanIndex { points: vec![] };
        assert!(empty.knn(&Point::new(0.5, 0.5), 3, &mut stats).is_empty());
    }

    #[test]
    fn knn_from_far_outside_the_data_terminates_via_the_clamped_sweep() {
        let idx = grid_index();
        let mut stats = ExecStats::default();
        let q = Point::new(1.0e9, 1.0e9);
        let result = idx.knn(&q, 3, &mut stats);
        assert_eq!(result.len(), 3);
        // The closest grid point to a far top-right query is (0.9, 0.9).
        assert_eq!(result[0], Point::new(0.9, 0.9));
    }

    /// The initial-radius guess scales with the data bounds: on a non-unit
    /// dataset the first box already has the right order of magnitude, so
    /// the doubling loop finishes within a couple of sweeps instead of
    /// warming up from a unit-square-sized box.
    #[test]
    fn knn_initial_radius_scales_with_data_bounds() {
        let mut points = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                points.push(Point::new(i as f64 * 100.0, j as f64 * 100.0));
            }
        }
        let idx = ScanIndex { points };
        let mut stats = ExecStats::default();
        let q = Point::new(420.0, 420.0);
        let result = idx.knn(&q, 4, &mut stats);
        assert_eq!(result.len(), 4);
        assert_eq!(result[0], Point::new(400.0, 400.0));
        // Every range-query sweep of this brute-force index compares all 100
        // points; a well-sized initial box needs at most a few sweeps. The
        // old unit-square guess started at radius 0.2 and needed ~13
        // doublings (> 1000 points scanned) before reaching the data.
        assert!(
            stats.points_scanned <= 500,
            "too many doubling rounds: {} points scanned",
            stats.points_scanned
        );
    }

    /// Degenerate data bounds (all points collinear: zero area) fall back to
    /// the floor radius and still terminate with the right answer.
    #[test]
    fn knn_handles_zero_area_data_bounds() {
        let points: Vec<Point> = (0..50).map(|i| Point::new(i as f64, 5.0)).collect();
        let idx = ScanIndex { points };
        let mut stats = ExecStats::default();
        let result = idx.knn(&Point::new(10.2, 5.0), 3, &mut stats);
        assert_eq!(
            result,
            vec![
                Point::new(10.0, 5.0),
                Point::new(11.0, 5.0),
                Point::new(9.0, 5.0)
            ]
        );
    }

    #[test]
    fn index_error_display() {
        assert_eq!(
            IndexError::Unsupported("insert").to_string(),
            "operation not supported: insert"
        );
        assert!(IndexError::InvalidInput("nan".into())
            .to_string()
            .contains("nan"));
        let typed = IndexError::UpdateUnsupported {
            index: "QUASII",
            op: "insert",
        };
        assert_eq!(
            typed.to_string(),
            "QUASII does not support incremental insert"
        );
    }
}
