//! Flood: a learned grid index (Nathan et al., 2020), simplified to two
//! dimensions as described in Section 6.1 of the WaZI paper.
//!
//! The layout is a one-dimensional grid of columns along the x axis; within
//! each column, points are sorted by y. Range queries identify the columns
//! overlapping the query's x extent and binary-search the y range inside each
//! column ("Flood performs the fastest projection ... as it does not perform
//! a tree traversal"). The *learned* part is the layout optimisation: the
//! number of columns is chosen by measuring candidate layouts on a sub-sample
//! of the training workload and keeping the cheapest one.

use wazi_core::{
    solo_point_query, solo_range_query, IndexError, RangeBatchKernel, RangeBatchOutput,
    RangeBatchRequest, SpatialIndex, WalkRecord,
};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

/// Candidate column counts evaluated during layout optimisation, expressed as
/// multipliers of `sqrt(N / L)`.
const CANDIDATE_FACTORS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Number of training queries measured per candidate layout.
const LAYOUT_SAMPLE: usize = 100;

/// A simplified two-dimensional Flood index.
#[derive(Debug, Clone)]
pub struct FloodIndex {
    /// Column boundaries on the x axis (length `columns + 1`).
    boundaries: Vec<f64>,
    /// Per-column points sorted by y.
    columns: Vec<Vec<Point>>,
    len: usize,
    space: Rect,
    chosen_columns: usize,
}

impl FloodIndex {
    /// Builds a Flood index, choosing the column count by evaluating the
    /// candidate layouts on (a sample of) the training workload.
    pub fn build(points: Vec<Point>, queries: &[Rect], leaf_capacity: usize) -> Self {
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        let space = if points.is_empty() {
            Rect::UNIT
        } else {
            Rect::bounding(&points)
        };
        let base_columns =
            ((points.len() as f64 / leaf_capacity as f64).sqrt().ceil() as usize).max(1);

        let sample: Vec<Rect> = queries.iter().take(LAYOUT_SAMPLE).copied().collect();
        let mut best: Option<(usize, u64)> = None;
        for factor in CANDIDATE_FACTORS {
            let columns = ((base_columns as f64 * factor).round() as usize).max(1);
            let candidate = Self::with_columns(points.clone(), columns, space);
            let cost = candidate.layout_cost(&sample);
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((columns, cost));
            }
        }
        let columns = best.map_or(base_columns, |(c, _)| c);
        Self::with_columns(points, columns, space)
    }

    /// Builds the index with a fixed number of columns (no layout search).
    pub fn with_columns(points: Vec<Point>, columns: usize, space: Rect) -> Self {
        let columns = columns.max(1);
        let len = points.len();
        let width = space.width().max(f64::MIN_POSITIVE);
        let boundaries: Vec<f64> = (0..=columns)
            .map(|i| space.lo.x + width * i as f64 / columns as f64)
            .collect();
        let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); columns];
        for p in points {
            let column = column_of(&boundaries, p.x);
            buckets[column].push(p);
        }
        for bucket in &mut buckets {
            bucket.sort_unstable_by(|a, b| a.y.total_cmp(&b.y).then_with(|| a.x.total_cmp(&b.x)));
        }
        Self {
            boundaries,
            columns: buckets,
            len,
            space,
            chosen_columns: columns,
        }
    }

    /// Number of columns selected by the layout optimisation.
    pub fn column_count(&self) -> usize {
        self.chosen_columns
    }

    /// Total points scanned when answering the given queries; the objective
    /// minimised by the layout search. Uses the non-materializing counting
    /// path: the search compares work counters, not result vectors.
    fn layout_cost(&self, queries: &[Rect]) -> u64 {
        let mut stats = ExecStats::default();
        for q in queries {
            self.range_count(q, &mut stats);
        }
        stats.points_scanned + stats.bbs_checked
    }

    /// Index range of columns overlapping `[x0, x1]`.
    fn column_range(&self, x0: f64, x1: f64) -> (usize, usize) {
        let first = column_of(&self.boundaries, x0);
        let last = column_of(&self.boundaries, x1);
        (first, last)
    }

    /// The points of `column` inside the query's y extent: two binary
    /// searches over the column's y-sorted points.
    fn y_run(&self, column: usize, query: &Rect) -> &[Point] {
        let points = &self.columns[column];
        let start = points.partition_point(|p| p.y < query.lo.y);
        let end = points.partition_point(|p| p.y <= query.hi.y);
        &points[start..end.max(start)]
    }
}

/// Column index containing coordinate `x` (clamped to the grid).
fn column_of(boundaries: &[f64], x: f64) -> usize {
    let columns = boundaries.len() - 1;
    match boundaries[1..columns].binary_search_by(|b| b.total_cmp(&x)) {
        Ok(i) => (i + 1).min(columns - 1),
        Err(i) => i.min(columns - 1),
    }
}

impl SpatialIndex for FloodIndex {
    fn name(&self) -> &'static str {
        "Flood"
    }

    fn len(&self) -> usize {
        self.len
    }

    fn data_bounds(&self) -> Rect {
        self.space
    }

    fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
        solo_range_query(self, query, stats)
    }

    fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
        solo_point_query(self, p, stats)
    }

    fn insert(&mut self, p: Point) -> Result<(), IndexError> {
        if !p.is_finite() {
            return Err(IndexError::InvalidInput(format!("non-finite point {p}")));
        }
        let column = column_of(&self.boundaries, p.x);
        let points = &mut self.columns[column];
        let position = points.partition_point(|q| q.y < p.y);
        points.insert(position, p);
        self.len += 1;
        self.space.expand(&p);
        Ok(())
    }

    fn delete(&mut self, p: &Point) -> Result<bool, IndexError> {
        let column = column_of(&self.boundaries, p.x);
        let points = &mut self.columns[column];
        if let Some(position) = points.iter().position(|q| q == p) {
            points.remove(position);
            self.len -= 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn size_bytes(&self) -> usize {
        // The grid structure: boundaries plus per-column vector headers. The
        // point payload is the clustered data shared by every index.
        std::mem::size_of::<Self>()
            + self.boundaries.len() * std::mem::size_of::<f64>()
            + self.columns.len() * std::mem::size_of::<Vec<Point>>()
    }

    fn range_batch_kernel(&self) -> Option<&dyn RangeBatchKernel> {
        Some(self)
    }
}

/// Flood's kernel: a unit is a grid column, and a request's run lists the
/// columns of its x extent whose y-run is non-empty, ascending; a probe
/// reads the one column of its x. A column read by `m` requests or probes
/// of a batch is fetched once instead of once per request.
impl RangeBatchKernel for FloodIndex {
    /// Walks every request over its column interval — the projection phase,
    /// Flood's fastest: one bounding-box check per column, two binary
    /// searches for its y-run, and the column joins the run when the y-run
    /// is non-empty. Column location charges nothing.
    fn walk(&self, requests: &[RangeBatchRequest]) -> WalkRecord {
        let mut record = WalkRecord::new(requests.len());
        for (qi, request) in requests.iter().enumerate() {
            let (rect, stats) = (&request.rect, &mut record.per_query[qi]);
            let (first, last) = self.column_range(rect.lo.x, rect.hi.x);
            for column in first..=last {
                stats.bbs_checked += 1;
                let run = self.y_run(column, rect).len();
                if run > 0 {
                    record.units.push(column as u32);
                    record.points += run as u64;
                }
            }
            record.end_run();
        }
        record
    }

    /// Re-finds the request's y-run in the column and filters it by x.
    fn scan(&self, column: u32, rect: &Rect, output: &mut RangeBatchOutput, stats: &mut ExecStats) {
        // Copy the filter bounds into locals: the filter must not reload
        // them through `rect`, which the optimiser cannot prove disjoint
        // from the output it writes.
        let (lo_x, hi_x) = (rect.lo.x, rect.hi.x);
        let run = self.y_run(column as usize, rect);
        output.scan_run(run, |p| p.x >= lo_x && p.x <= hi_x, stats);
    }

    /// The probe's column: the clamped binary search the walk uses, which
    /// charges nothing.
    fn locate(&self, p: &Point, _stats: &mut ExecStats) -> Option<u32> {
        Some(column_of(&self.boundaries, p.x) as u32)
    }

    /// Binary-searches the column for `p.y` and compares the points of
    /// equal y.
    fn probe(&self, column: u32, p: &Point, stats: &mut ExecStats) -> bool {
        let points = &self.columns[column as usize];
        let from = points.partition_point(|q| q.y < p.y);
        for q in points[from..].iter().take_while(|q| q.y <= p.y) {
            stats.points_scanned += 1;
            if q == p {
                return true;
            }
        }
        false
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

    fn queries(n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let c = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
                Rect::query_box(&Rect::UNIT, c, 0.002, 1.0 + rng.gen::<f64>())
            })
            .collect()
    }

    #[test]
    fn range_queries_match_brute_force() {
        let points = dataset(6_000, 1);
        let workload = queries(100, 2);
        let index = FloodIndex::build(points.clone(), &workload, 64);
        let mut stats = ExecStats::default();
        for query in workload.iter().take(30).chain([Rect::UNIT].iter()) {
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
    }

    #[test]
    fn point_queries_and_updates() {
        let points = dataset(3_000, 3);
        let mut index = FloodIndex::build(points.clone(), &queries(50, 4), 64);
        let mut stats = ExecStats::default();
        assert!(index.point_query(&points[100], &mut stats));
        assert!(!index.point_query(&Point::new(1.5, 0.5), &mut stats));

        index.insert(Point::new(0.111, 0.222)).expect("insert");
        assert!(index.point_query(&Point::new(0.111, 0.222), &mut stats));
        assert_eq!(index.len(), 3_001);
        assert_eq!(index.delete(&Point::new(0.111, 0.222)), Ok(true));
        assert_eq!(index.delete(&Point::new(0.111, 0.222)), Ok(false));
        assert_eq!(index.len(), 3_000);
        assert!(index.insert(Point::new(f64::INFINITY, 0.0)).is_err());
    }

    #[test]
    fn layout_search_prefers_more_columns_for_narrow_queries() {
        let points = dataset(20_000, 5);
        // Narrow-in-x queries favour many columns (less x over-scan).
        let narrow: Vec<Rect> = (0..100)
            .map(|i| {
                let cx = (i as f64 + 0.5) / 100.0;
                Rect::from_coords((cx - 0.001).max(0.0), 0.1, (cx + 0.001).min(1.0), 0.9)
            })
            .collect();
        // Wide-in-x, thin-in-y queries favour fewer columns.
        let wide: Vec<Rect> = (0..100)
            .map(|i| {
                let cy = (i as f64 + 0.5) / 100.0;
                Rect::from_coords(0.1, (cy - 0.001).max(0.0), 0.9, (cy + 0.001).min(1.0))
            })
            .collect();
        let for_narrow = FloodIndex::build(points.clone(), &narrow, 64);
        let for_wide = FloodIndex::build(points, &wide, 64);
        assert!(
            for_narrow.column_count() > for_wide.column_count(),
            "narrow {} vs wide {}",
            for_narrow.column_count(),
            for_wide.column_count()
        );
    }

    #[test]
    fn empty_dataset() {
        let index = FloodIndex::build(Vec::new(), &[], 64);
        let mut stats = ExecStats::default();
        assert!(index.is_empty());
        assert!(index.range_query(&Rect::UNIT, &mut stats).is_empty());
        assert!(!index.point_query(&Point::new(0.5, 0.5), &mut stats));
    }

    #[test]
    fn metadata() {
        let index = FloodIndex::build(dataset(2_000, 6), &queries(50, 7), 64);
        assert_eq!(index.name(), "Flood");
        assert!(index.column_count() >= 1);
        assert!(index.size_bytes() > 0);
    }
}
