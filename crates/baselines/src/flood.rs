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
    BatchProjection, IndexError, PointBatchKernel, PointBatchResponse, RangeBatchKernel,
    RangeBatchOutput, RangeBatchRequest, RangeBatchResponse, RangeBatchStats, ShardBounds,
    SpatialIndex, SweepInterval,
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

    /// The range-scan kernel shared by every execution mode: for each column
    /// overlapping the query's x extent, binary-search the y run (the
    /// projection phase — "Flood performs the fastest projection") and hand
    /// the run to `on_run` for x filtering. No run list is materialized.
    fn scan_range(&self, query: &Rect, stats: &mut ExecStats, mut on_run: impl FnMut(&[Point])) {
        let kernel_start = std::time::Instant::now();
        let mut scan_ns = 0u64;
        let (first, last) = self.column_range(query.lo.x, query.hi.x);
        for column in first..=last {
            stats.bbs_checked += 1;
            let points = &self.columns[column];
            let start = points.partition_point(|p| p.y < query.lo.y);
            let end = points.partition_point(|p| p.y <= query.hi.y);
            if start < end {
                let scan_start = std::time::Instant::now();
                stats.pages_scanned += 1;
                stats.points_scanned += (end - start) as u64;
                on_run(&points[start..end]);
                scan_ns += scan_start.elapsed().as_nanos() as u64;
            }
        }
        stats.charge_kernel(kernel_start.elapsed().as_nanos() as u64, scan_ns);
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
        let mut result = Vec::new();
        self.scan_range(query, stats, |run| {
            for p in run {
                if p.x >= query.lo.x && p.x <= query.hi.x {
                    result.push(*p);
                }
            }
        });
        stats.results += result.len() as u64;
        result
    }

    fn range_count(&self, query: &Rect, stats: &mut ExecStats) -> u64 {
        let mut count = 0u64;
        self.scan_range(query, stats, |run| {
            for p in run {
                count += u64::from(p.x >= query.lo.x && p.x <= query.hi.x);
            }
        });
        stats.results += count;
        count
    }

    fn range_for_each(&self, query: &Rect, stats: &mut ExecStats, visit: &mut dyn FnMut(&Point)) {
        let mut matched = 0u64;
        self.scan_range(query, stats, |run| {
            for p in run {
                if p.x >= query.lo.x && p.x <= query.hi.x {
                    matched += 1;
                    visit(p);
                }
            }
        });
        stats.results += matched;
    }

    fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
        let start = std::time::Instant::now();
        let column = column_of(&self.boundaries, p.x);
        let points = &self.columns[column];
        let from = points.partition_point(|q| q.y < p.y);
        let mut found = false;
        for q in &points[from..] {
            if q.y > p.y {
                break;
            }
            stats.points_scanned += 1;
            if q == p {
                found = true;
                break;
            }
        }
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

    fn point_batch_kernel(&self) -> Option<&dyn PointBatchKernel> {
        Some(self)
    }
}

/// Flood's fused batch kernel: the sweep address space is the column grid.
///
/// Overlapping queries share their *column visits* — at every column the
/// sweep serves all requests whose x extent covers it, so a column touched
/// by `m` overlapping queries is fetched once per batch instead of once per
/// query (the grid-cell sharing of the ROADMAP's cross-index fusion item).
/// Per-request work is unchanged vs. the sequential path: every request
/// still pays one bounding-box (column) check per column of its range and
/// one y-run binary search, so fused counters never exceed sequential ones.
impl RangeBatchKernel for FloodIndex {
    /// Maps every request onto its column interval. Column location is the
    /// same clamped binary search the sequential path uses and charges
    /// nothing, matching the sequential scan's accounting.
    fn project_batch(&self, requests: &[RangeBatchRequest]) -> BatchProjection {
        let start = std::time::Instant::now();
        let intervals = requests
            .iter()
            .map(|request| {
                let (first, last) = self.column_range(request.rect.lo.x, request.rect.hi.x);
                SweepInterval {
                    lo: first as u32,
                    hi: last as u32,
                }
            })
            .collect();
        BatchProjection {
            intervals,
            per_query: vec![ExecStats::default(); requests.len()],
            elapsed_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// Sweeps the requests owned by one shard of the column grid
    /// ([`BatchProjection::owned_by`]: each over its whole column interval,
    /// so its per-column work is identical to its solo scan whatever the
    /// shard plan). Requests enter the active set at their first column and
    /// leave after their last; there is no skipping machinery (Flood's
    /// relevance test *is* the column interval), so the active set is a
    /// dense vector.
    /// Per column, every active request binary-searches its y-run
    /// (projection phase, charged as a bounding-box check like the
    /// sequential scan) and filters the run by x (scan phase, charged per
    /// request); the column itself counts as one shared page visit however
    /// many of the shard's requests read it.
    fn sweep_shard(
        &self,
        requests: &[RangeBatchRequest],
        projection: &BatchProjection,
        bounds: ShardBounds,
    ) -> RangeBatchResponse {
        let mut response = RangeBatchResponse::zeroed(requests);
        let entries = projection.owned_by(bounds);
        if entries.is_empty() {
            return response;
        }

        let kernel_start = std::time::Instant::now();
        let mut scan_ns = 0u64;
        let mut active: Vec<(u32, usize)> = Vec::new();
        let mut runs: Vec<(usize, usize, usize)> = Vec::new();
        let mut next_entry = 0usize;
        let mut column = entries[0].0;
        loop {
            while next_entry < entries.len() && entries[next_entry].0 <= column {
                let (_, qi) = entries[next_entry];
                active.push((projection.intervals[qi].hi, qi));
                next_entry += 1;
            }
            active.retain(|&(hi, _)| hi >= column);
            if active.is_empty() {
                match entries.get(next_entry) {
                    Some(&(lo, _)) => {
                        column = lo;
                        continue;
                    }
                    None => break,
                }
            }
            let points = &self.columns[column as usize];
            runs.clear();
            for &(_, qi) in &active {
                let rect = &requests[qi].rect;
                response.per_query[qi].bbs_checked += 1;
                let start = points.partition_point(|p| p.y < rect.lo.y);
                let end = points.partition_point(|p| p.y <= rect.hi.y);
                if start < end {
                    runs.push((qi, start, end));
                }
            }
            if !runs.is_empty() {
                let scan_start = std::time::Instant::now();
                response.shared.pages_scanned += 1;
                for &(qi, start, end) in &runs {
                    // Copy the filter bounds into locals: the hot loop must
                    // not reload them through the request slice, which the
                    // optimiser cannot prove disjoint from the output it
                    // writes.
                    let (lo_x, hi_x) = (requests[qi].rect.lo.x, requests[qi].rect.hi.x);
                    let stats = &mut response.per_query[qi];
                    stats.points_scanned += (end - start) as u64;
                    let run = &points[start..end];
                    match &mut response.outputs[qi] {
                        RangeBatchOutput::Points(out) => {
                            let before = out.len();
                            out.extend(run.iter().filter(|p| p.x >= lo_x && p.x <= hi_x));
                            stats.results += (out.len() - before) as u64;
                        }
                        RangeBatchOutput::Count(count) => {
                            let mut matches = 0u64;
                            for p in run {
                                matches += u64::from(p.x >= lo_x && p.x <= hi_x);
                            }
                            *count += matches;
                            stats.results += matches;
                        }
                    }
                }
                scan_ns += scan_start.elapsed().as_nanos() as u64;
            }
            // Advance; the sweep ends naturally when every owned request's
            // interval is exhausted (the active set drains and no
            // admissions remain), which may be past the shard's own end.
            column += 1;
        }
        response
            .shared
            .charge_kernel(kernel_start.elapsed().as_nanos() as u64, scan_ns);
        response
    }

    /// Every column of a request's interval checked and fetched, with all
    /// its points: an upper bound on the y-runs the sweep actually scans.
    fn footprint(
        &self,
        _requests: &[RangeBatchRequest],
        projection: &BatchProjection,
    ) -> RangeBatchStats {
        RangeBatchStats::whole_intervals(&projection.intervals, |column| {
            self.columns[column as usize].len() as u64
        })
    }
}

/// Flood's fused point-probe kernel: the owning-page address is the grid
/// column (the same clamped binary search the sequential probe performs,
/// which charges nothing), so a column shared by several probes is fetched
/// once per batch while every probe still pays its own y-run scan.
impl PointBatchKernel for FloodIndex {
    fn locate_probes(&self, probes: &[Point], _per_query: &mut [ExecStats]) -> Vec<u64> {
        probes
            .iter()
            .map(|p| column_of(&self.boundaries, p.x) as u64)
            .collect()
    }

    fn probe_page(
        &self,
        address: u64,
        group: &[(usize, Point)],
        response: &mut PointBatchResponse,
    ) {
        let points = &self.columns[address as usize];
        for &(slot, p) in group {
            let stats = &mut response.per_query[slot];
            let from = points.partition_point(|q| q.y < p.y);
            let mut found = false;
            for q in &points[from..] {
                if q.y > p.y {
                    break;
                }
                stats.points_scanned += 1;
                if *q == p {
                    found = true;
                    break;
                }
            }
            if found {
                stats.results += 1;
                response.found[slot] = true;
            }
        }
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
