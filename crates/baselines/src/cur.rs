//! CUR: cost-based unbalanced R-tree (Ross, Sitzmann & Stuckey, 2001),
//! adapted to point data as described in Section 6.1 of the WaZI paper.
//!
//! The adaptation weights every point by the number of distinct workload
//! queries fetching it and packs leaf pages so that the *weighted* mass is
//! balanced across pages ("weighted density estimates to select partitions
//! following the Sort Tile Recursive algorithm"). Query-hot areas therefore
//! receive more, smaller pages, which reduces the excess points scanned for
//! the anticipated workload.

use crate::rtree::PackedRTree;
use wazi_core::{IndexError, PointBatchKernel, RangeBatchKernel, SpatialIndex};
use wazi_density::{Rfde, RfdeConfig};
use wazi_geom::{Point, Rect};
use wazi_storage::{ExecStats, PageStore};

/// Resolution of the query-count grid used to approximate per-point weights
/// (the number of workload queries fetching each point).
const WEIGHT_GRID: usize = 64;

/// A query-aware packed R-tree built with weighted Sort-Tile-Recursive
/// packing.
#[derive(Debug, Clone)]
pub struct CurTree {
    tree: PackedRTree,
    leaf_capacity: usize,
    /// The weighted RFDE estimator retained by the index (it is part of the
    /// learned index structure and counted in its size).
    estimator: Rfde,
}

impl CurTree {
    /// Builds a CUR tree for a dataset and an anticipated query workload.
    pub fn build(points: Vec<Point>, queries: &[Rect], leaf_capacity: usize) -> Self {
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        let len = points.len();
        let weights = query_weights(&points, queries);
        let weighted: Vec<(Point, f64)> = points
            .iter()
            .zip(weights.iter())
            .map(|(p, w)| (*p, *w))
            .collect();
        let estimator = Rfde::fit_weighted(&weighted, RfdeConfig::fast());
        let store = pack_weighted_str(points, &weights, leaf_capacity);
        Self {
            tree: PackedRTree::from_packed_pages(store, len),
            leaf_capacity,
            estimator,
        }
    }

    /// The leaf capacity used for packing.
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Height of the tree.
    pub fn height(&self) -> usize {
        self.tree.height()
    }
}

/// Approximates, for every point, the number of workload queries fetching it.
///
/// Counting exactly is quadratic in `|D| x |Q|`; instead queries are rasterised
/// onto a fixed grid and each point inherits the query count of its grid
/// cell. Every point receives a base weight of one so that query-cold regions
/// still pack into full pages.
fn query_weights(points: &[Point], queries: &[Rect]) -> Vec<f64> {
    if points.is_empty() {
        return Vec::new();
    }
    let space = Rect::bounding(points);
    let mut grid = vec![0.0f64; WEIGHT_GRID * WEIGHT_GRID];
    let cell_w = (space.width() / WEIGHT_GRID as f64).max(f64::MIN_POSITIVE);
    let cell_h = (space.height() / WEIGHT_GRID as f64).max(f64::MIN_POSITIVE);
    let clamp = |v: f64| (v.max(0.0) as usize).min(WEIGHT_GRID - 1);
    for q in queries {
        let Some(clipped) = q.intersection(&space) else {
            continue;
        };
        let x0 = clamp((clipped.lo.x - space.lo.x) / cell_w);
        let x1 = clamp((clipped.hi.x - space.lo.x) / cell_w);
        let y0 = clamp((clipped.lo.y - space.lo.y) / cell_h);
        let y1 = clamp((clipped.hi.y - space.lo.y) / cell_h);
        for gx in x0..=x1 {
            for gy in y0..=y1 {
                grid[gy * WEIGHT_GRID + gx] += 1.0;
            }
        }
    }
    points
        .iter()
        .map(|p| {
            let gx = clamp((p.x - space.lo.x) / cell_w);
            let gy = clamp((p.y - space.lo.y) / cell_h);
            1.0 + grid[gy * WEIGHT_GRID + gx]
        })
        .collect()
}

/// Sort-Tile-Recursive packing where slice and page boundaries equalise the
/// *weighted* mass instead of the raw point count. Pages never exceed the
/// leaf capacity; hot pages simply end up holding fewer points.
fn pack_weighted_str(points: Vec<Point>, weights: &[f64], leaf_capacity: usize) -> PageStore {
    let mut store = PageStore::new(leaf_capacity);
    if points.is_empty() {
        return store;
    }
    let total_weight: f64 = weights.iter().sum();
    let page_count = points.len().div_ceil(leaf_capacity);
    let slice_count = (page_count as f64).sqrt().ceil() as usize;
    let weight_per_slice = total_weight / slice_count as f64;

    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        points[a]
            .x
            .total_cmp(&points[b].x)
            .then_with(|| points[a].y.total_cmp(&points[b].y))
    });

    // Cut vertical slices of (roughly) equal weight.
    let mut slices: Vec<Vec<usize>> = Vec::with_capacity(slice_count);
    let mut current = Vec::new();
    let mut acc = 0.0;
    for &i in &order {
        current.push(i);
        acc += weights[i];
        if acc >= weight_per_slice && slices.len() + 1 < slice_count {
            slices.push(std::mem::take(&mut current));
            acc = 0.0;
        }
    }
    if !current.is_empty() {
        slices.push(current);
    }

    // Within each slice, cut pages of (roughly) equal weight, capped at the
    // leaf capacity.
    for mut slice in slices {
        slice.sort_unstable_by(|&a, &b| {
            points[a]
                .y
                .total_cmp(&points[b].y)
                .then_with(|| points[a].x.total_cmp(&points[b].x))
        });
        let slice_weight: f64 = slice.iter().map(|&i| weights[i]).sum();
        let slice_pages = slice.len().div_ceil(leaf_capacity).max(1);
        let weight_per_page = slice_weight / slice_pages as f64;
        let mut page = Vec::new();
        let mut acc = 0.0;
        for &i in &slice {
            page.push(points[i]);
            acc += weights[i];
            if (acc >= weight_per_page || page.len() >= leaf_capacity) && !page.is_empty() {
                store.allocate_slice(&page);
                page.clear();
                acc = 0.0;
            }
        }
        if !page.is_empty() {
            store.allocate(page);
        }
    }
    store
}

impl SpatialIndex for CurTree {
    fn name(&self) -> &'static str {
        "CUR"
    }

    fn len(&self) -> usize {
        self.tree.len
    }

    fn data_bounds(&self) -> Rect {
        self.tree.root_mbr()
    }

    fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
        let result = self.tree.range_query(query, stats);
        stats.results += result.len() as u64;
        result
    }

    fn range_count(&self, query: &Rect, stats: &mut ExecStats) -> u64 {
        let count = self.tree.range_count(query, stats);
        stats.results += count;
        count
    }

    fn range_for_each(&self, query: &Rect, stats: &mut ExecStats, visit: &mut dyn FnMut(&Point)) {
        stats.results += self.tree.range_for_each(query, stats, visit);
    }

    fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
        let start = std::time::Instant::now();
        let found = self.tree.point_query(p, stats);
        stats.add_scan(start.elapsed());
        if found {
            stats.results += 1;
        }
        found
    }

    fn insert(&mut self, p: Point) -> Result<(), IndexError> {
        if !p.is_finite() {
            return Err(IndexError::InvalidInput(format!("non-finite point {p}")));
        }
        self.tree.insert(p);
        Ok(())
    }

    fn size_bytes(&self) -> usize {
        self.tree.size_bytes() + self.estimator.size_bytes()
    }

    fn range_batch_kernel(&self) -> Option<&dyn RangeBatchKernel> {
        Some(&self.tree)
    }

    fn point_batch_kernel(&self) -> Option<&dyn PointBatchKernel> {
        Some(&self.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    fn hot_corner_queries(n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let c = Point::new(0.1 + rng.gen::<f64>() * 0.15, 0.1 + rng.gen::<f64>() * 0.15);
                Rect::query_box(&Rect::UNIT, c, 0.001, 1.0)
            })
            .collect()
    }

    #[test]
    fn weights_are_higher_in_the_query_hot_region() {
        let points = dataset(4_000, 1);
        let queries = hot_corner_queries(200, 2);
        let weights = query_weights(&points, &queries);
        let hot: Vec<f64> = points
            .iter()
            .zip(&weights)
            .filter(|(p, _)| p.x < 0.3 && p.y < 0.3)
            .map(|(_, w)| *w)
            .collect();
        let cold: Vec<f64> = points
            .iter()
            .zip(&weights)
            .filter(|(p, _)| p.x > 0.7 && p.y > 0.7)
            .map(|(_, w)| *w)
            .collect();
        let hot_mean: f64 = hot.iter().sum::<f64>() / hot.len() as f64;
        let cold_mean: f64 = cold.iter().sum::<f64>() / cold.len() as f64;
        assert!(
            hot_mean > cold_mean * 2.0,
            "hot {hot_mean} vs cold {cold_mean}"
        );
    }

    #[test]
    fn hot_pages_hold_fewer_points_than_cold_pages() {
        let points = dataset(8_000, 3);
        let queries = hot_corner_queries(400, 4);
        let weights = query_weights(&points, &queries);
        let store = pack_weighted_str(points, &weights, 128);
        let hot_region = Rect::from_coords(0.1, 0.1, 0.25, 0.25);
        let cold_region = Rect::from_coords(0.6, 0.6, 1.0, 1.0);
        let mut hot_sizes = Vec::new();
        let mut cold_sizes = Vec::new();
        for page in store.pages() {
            if page.is_empty() {
                continue;
            }
            if hot_region.contains_rect(&page.bbox()) {
                hot_sizes.push(page.len());
            } else if cold_region.contains_rect(&page.bbox()) {
                cold_sizes.push(page.len());
            }
        }
        let hot_mean: f64 = hot_sizes.iter().sum::<usize>() as f64 / hot_sizes.len().max(1) as f64;
        let cold_mean: f64 =
            cold_sizes.iter().sum::<usize>() as f64 / cold_sizes.len().max(1) as f64;
        assert!(
            hot_mean < cold_mean,
            "query-hot pages ({hot_mean:.1} pts) should be smaller than cold pages ({cold_mean:.1} pts)"
        );
    }

    #[test]
    fn queries_remain_exact() {
        let points = dataset(5_000, 5);
        let queries = hot_corner_queries(300, 6);
        let index = CurTree::build(points.clone(), &queries, 64);
        assert_eq!(index.len(), 5_000);
        let mut stats = ExecStats::default();
        for query in queries.iter().take(30).chain([Rect::UNIT].iter()) {
            let mut got = index.range_query(query, &mut stats);
            got.sort_by(|a, b| a.lex_cmp(b));
            let mut expected: Vec<Point> = points
                .iter()
                .copied()
                .filter(|p| query.contains(p))
                .collect();
            expected.sort_by(|a, b| a.lex_cmp(b));
            assert_eq!(got, expected);
        }
        assert!(index.point_query(&points[42], &mut stats));
    }

    #[test]
    fn cur_scans_fewer_points_than_str_on_its_workload() {
        let points = dataset(10_000, 7);
        let queries = hot_corner_queries(500, 8);
        let cur = CurTree::build(points.clone(), &queries, 128);
        let str_tree = crate::str_rtree::StrRTree::build(points, 128);
        let mut cur_stats = ExecStats::default();
        let mut str_stats = ExecStats::default();
        for q in &queries {
            cur.range_query(q, &mut cur_stats);
            str_tree.range_query(q, &mut str_stats);
        }
        assert_eq!(cur_stats.results, str_stats.results);
        assert!(
            cur_stats.points_scanned < str_stats.points_scanned,
            "CUR ({}) should scan fewer points than STR ({}) on the trained workload",
            cur_stats.points_scanned,
            str_stats.points_scanned
        );
    }

    #[test]
    fn insert_and_metadata() {
        let points = dataset(2_000, 9);
        let queries = hot_corner_queries(100, 10);
        let mut index = CurTree::build(points, &queries, 64);
        assert_eq!(index.name(), "CUR");
        assert_eq!(index.leaf_capacity(), 64);
        assert!(index.height() >= 2);
        assert!(index.size_bytes() > 0);
        let mut stats = ExecStats::default();
        index.insert(Point::new(0.42, 0.43)).expect("insert");
        assert!(index.point_query(&Point::new(0.42, 0.43), &mut stats));
        assert_eq!(index.len(), 2_001);
    }

    #[test]
    fn empty_build() {
        let index = CurTree::build(Vec::new(), &[], 64);
        let mut stats = ExecStats::default();
        assert!(index.is_empty());
        assert!(index.range_query(&Rect::UNIT, &mut stats).is_empty());
    }

    /// CUR shares the packed R-tree's fused kernels: the batched walk over
    /// its query-weighted layout must replicate every query's solo descent
    /// while overlapping queries share page fetches.
    #[test]
    fn fused_batch_kernels_match_sequential_on_the_weighted_layout() {
        use wazi_core::{RangeBatchOutput, RangeBatchRequest};
        let points = dataset(5_000, 21);
        let queries = hot_corner_queries(300, 22);
        let index = CurTree::build(points.clone(), &queries, 64);
        let kernel = index
            .range_batch_kernel()
            .expect("CUR fuses range batches now");
        let requests: Vec<RangeBatchRequest> = queries
            .iter()
            .take(40)
            .map(|rect| RangeBatchRequest {
                rect: *rect,
                collect: false,
            })
            .collect();
        let (response, _) = wazi_core::run_range_batch(kernel, &requests, 1);
        let mut sequential_pages = 0u64;
        for (qi, request) in requests.iter().enumerate() {
            let mut stats = ExecStats::default();
            let expected = index.range_count(&request.rect, &mut stats);
            assert_eq!(response.outputs[qi], RangeBatchOutput::Count(expected));
            assert_eq!(response.per_query[qi].bbs_checked, stats.bbs_checked);
            assert_eq!(response.per_query[qi].points_scanned, stats.points_scanned);
            sequential_pages += stats.pages_scanned;
        }
        assert!(
            response.shared.pages_scanned < sequential_pages,
            "the query-hot corner must share page fetches"
        );
        // The point kernel answers hot-key duplicates on one fetch.
        let point_kernel = index.point_batch_kernel().expect("CUR probes in batches");
        let probes = vec![points[7], points[7], points[7]];
        let probe_response = wazi_core::run_point_batch(point_kernel, &probes);
        assert_eq!(probe_response.found, vec![true, true, true]);
        assert!(probe_response.shared.pages_scanned >= 1);
    }
}
