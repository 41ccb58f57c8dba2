//! STR: Sort-Tile-Recursive R-tree packing (Leutenegger et al., 1997).

use crate::rtree::PackedRTree;
use wazi_core::{IndexError, PointBatchKernel, RangeBatchKernel, SpatialIndex};
use wazi_geom::{Point, Rect};
use wazi_storage::{ExecStats, PageStore};

/// A packed R-tree whose leaf level is produced by the Sort-Tile-Recursive
/// algorithm: points are sorted by `x` and cut into vertical slices of
/// roughly `sqrt(P)` pages each, then each slice is sorted by `y` and cut
/// into pages of capacity `L`.
#[derive(Debug, Clone)]
pub struct StrRTree {
    tree: PackedRTree,
    leaf_capacity: usize,
}

impl StrRTree {
    /// Bulk-loads an STR R-tree with the given leaf capacity.
    pub fn build(points: Vec<Point>, leaf_capacity: usize) -> Self {
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        let len = points.len();
        let store = pack_str(points, leaf_capacity);
        Self {
            tree: PackedRTree::from_packed_pages(store, len),
            leaf_capacity,
        }
    }

    /// The leaf capacity the tree was packed with.
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Height of the tree.
    pub fn height(&self) -> usize {
        self.tree.height()
    }
}

/// Packs points into a clustered page store using Sort-Tile-Recursive.
pub(crate) fn pack_str(mut points: Vec<Point>, leaf_capacity: usize) -> PageStore {
    let mut store = PageStore::new(leaf_capacity);
    if points.is_empty() {
        return store;
    }
    let page_count = points.len().div_ceil(leaf_capacity);
    let slice_count = (page_count as f64).sqrt().ceil() as usize;
    let slice_size = points.len().div_ceil(slice_count);

    points.sort_unstable_by(|a, b| a.x.total_cmp(&b.x).then_with(|| a.y.total_cmp(&b.y)));
    for slice in points.chunks_mut(slice_size.max(1)) {
        slice.sort_unstable_by(|a, b| a.y.total_cmp(&b.y).then_with(|| a.x.total_cmp(&b.x)));
        for run in slice.chunks(leaf_capacity) {
            store.allocate_slice(run);
        }
    }
    store
}

impl SpatialIndex for StrRTree {
    fn name(&self) -> &'static str {
        "STR"
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
        self.tree.size_bytes()
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

    #[test]
    fn str_packing_fills_pages_tightly() {
        let store = pack_str(dataset(1_000, 1), 64);
        assert_eq!(store.total_points(), 1_000);
        assert_eq!(store.page_count(), 1_000_usize.div_ceil(64).max(16));
        // All but the trailing page of each slice are full.
        let full_pages = store.pages().filter(|p| p.len() == 64).count();
        assert!(full_pages >= store.page_count() / 2);
    }

    #[test]
    fn range_queries_match_brute_force() {
        let points = dataset(5_000, 2);
        let index = StrRTree::build(points.clone(), 64);
        assert_eq!(index.len(), 5_000);
        let mut stats = ExecStats::default();
        for query in [
            Rect::from_coords(0.1, 0.2, 0.3, 0.5),
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
            Rect::from_coords(0.72, 0.11, 0.78, 0.17),
        ] {
            let mut got = index.range_query(&query, &mut stats);
            got.sort_by(|a, b| a.lex_cmp(b));
            let mut expected: Vec<Point> = points
                .iter()
                .copied()
                .filter(|p| query.contains(p))
                .collect();
            expected.sort_by(|a, b| a.lex_cmp(b));
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn point_queries_and_inserts() {
        let points = dataset(2_000, 3);
        let mut index = StrRTree::build(points.clone(), 64);
        let mut stats = ExecStats::default();
        assert!(index.point_query(&points[17], &mut stats));
        assert!(!index.point_query(&Point::new(1.5, 1.5), &mut stats));

        let new_points = dataset(500, 4);
        for p in &new_points {
            index.insert(*p).expect("insert");
        }
        assert_eq!(index.len(), 2_500);
        for p in new_points.iter().step_by(7) {
            assert!(index.point_query(p, &mut stats));
        }
        assert!(index.insert(Point::new(f64::NAN, 0.0)).is_err());
    }

    #[test]
    fn empty_and_tiny_datasets() {
        let empty = StrRTree::build(Vec::new(), 16);
        let mut stats = ExecStats::default();
        assert!(empty.is_empty());
        assert!(empty.range_query(&Rect::UNIT, &mut stats).is_empty());
        let tiny = StrRTree::build(vec![Point::new(0.5, 0.5)], 16);
        assert_eq!(tiny.range_query(&Rect::UNIT, &mut stats).len(), 1);
        assert_eq!(tiny.height(), 1);
    }

    #[test]
    fn metadata() {
        let index = StrRTree::build(dataset(3_000, 5), 128);
        assert_eq!(index.name(), "STR");
        assert_eq!(index.leaf_capacity(), 128);
        assert!(index.size_bytes() > 0);
        assert!(index.height() >= 2);
    }

    /// The fused batch descent must replicate every query's solo walk —
    /// same points in the same order, same bounding-box checks and point
    /// comparisons — while overlapping queries share page fetches.
    #[test]
    fn fused_range_batch_matches_sequential_and_shares_pages() {
        use wazi_core::{RangeBatchOutput, RangeBatchRequest};
        let index = StrRTree::build(dataset(4_000, 11), 64);
        let kernel = index
            .range_batch_kernel()
            .expect("STR fuses range batches now");
        let rects: Vec<Rect> = (0..20)
            .map(|i| {
                let c = 0.3 + 0.02 * i as f64;
                Rect::from_coords(c - 0.1, c - 0.12, c + 0.1, c + 0.12)
            })
            .collect();
        let requests: Vec<RangeBatchRequest> = rects
            .iter()
            .map(|rect| RangeBatchRequest {
                rect: *rect,
                collect: true,
            })
            .collect();
        let (response, _) = wazi_core::run_range_batch(kernel, &requests, 1);
        let mut sequential_pages = 0u64;
        for (qi, rect) in rects.iter().enumerate() {
            let mut stats = ExecStats::default();
            let expected = index.range_query(rect, &mut stats);
            assert_eq!(
                response.outputs[qi],
                RangeBatchOutput::Points(expected),
                "query {qi}: fused points or order differ"
            );
            assert_eq!(response.per_query[qi].bbs_checked, stats.bbs_checked);
            assert_eq!(response.per_query[qi].nodes_visited, stats.nodes_visited);
            assert_eq!(response.per_query[qi].points_scanned, stats.points_scanned);
            assert_eq!(response.per_query[qi].results, stats.results);
            sequential_pages += stats.pages_scanned;
        }
        assert!(
            response.shared.pages_scanned < sequential_pages,
            "overlapping queries must share page fetches ({} fused vs {} sequential)",
            response.shared.pages_scanned,
            sequential_pages
        );
    }

    /// Duplicate probes group onto one page fetch while every probe keeps
    /// the sequential walk's comparisons and answers.
    #[test]
    fn fused_point_batch_groups_duplicate_probes() {
        let points = dataset(2_000, 12);
        let index = StrRTree::build(points.clone(), 64);
        let kernel = index
            .point_batch_kernel()
            .expect("STR probes in batches now");
        let probes = vec![points[5], points[5], points[5], Point::new(2.0, 2.0)];
        let response = wazi_core::run_point_batch(kernel, &probes);
        assert_eq!(response.found, vec![true, true, true, false]);
        let mut sequential = ExecStats::default();
        for probe in &probes {
            index.point_query(probe, &mut sequential);
        }
        let fused_points: u64 = response.per_query.iter().map(|s| s.points_scanned).sum();
        assert_eq!(
            fused_points, sequential.points_scanned,
            "per-probe comparisons must replicate the sequential walk"
        );
        let fused_pages: u64 = response.shared.pages_scanned
            + response
                .per_query
                .iter()
                .map(|s| s.pages_scanned)
                .sum::<u64>();
        assert!(
            fused_pages < sequential.pages_scanned,
            "duplicate probes must share their owning page ({fused_pages} fused vs {} sequential)",
            sequential.pages_scanned
        );
    }
}
