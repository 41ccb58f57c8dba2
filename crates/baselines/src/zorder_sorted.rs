//! A rank-space Z-order sorted-array index (the `ZM` / `Zpgm` family).
//!
//! Figure 4 of the paper compares WaZI against several indexes that apply a
//! Z-order curve *in rank space* and then index the resulting one-dimensional
//! keys (Zpgm, HRR, QUILTS, RSMI); all of them perform significantly worse
//! than the primary baselines and are dropped from the detailed experiments.
//! This module provides one representative of that family: points are mapped
//! onto a fixed grid, sorted by Morton code, and range queries scan the code
//! interval `[code(BL), code(TR)]`, using the BIGMIN successor computation to
//! jump over runs of codes outside the query rectangle.
//!
//! The index advertises no fused batch kernel. A flat code array has no
//! page fetch for co-batched queries to share, so a fused scan could only
//! reorder the same comparisons at extra coordination cost; every batch
//! strategy runs its plans through the per-query loop.

use wazi_core::{IndexError, SpatialIndex};
use wazi_geom::zorder::{bigmin, ZOrderMapper};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

/// Number of consecutive non-matching entries tolerated before the scan
/// consults BIGMIN to jump forward.
const BIGMIN_PATIENCE: usize = 16;

/// A sorted-array Z-order index in rank (grid) space.
#[derive(Debug, Clone)]
pub struct ZOrderSorted {
    /// `(code, point)` pairs sorted by Morton code.
    entries: Vec<(u64, Point)>,
    mapper: ZOrderMapper,
    /// Bounding box of the indexed points (grown by inserts).
    space: Rect,
}

impl ZOrderSorted {
    /// Builds the index with the given grid resolution (bits per dimension).
    pub fn build(points: Vec<Point>, bits: u32) -> Self {
        let space = if points.is_empty() {
            Rect::UNIT
        } else {
            Rect::bounding(&points)
        };
        let mapper = ZOrderMapper::new(space, bits);
        let mut entries: Vec<(u64, Point)> =
            points.into_iter().map(|p| (mapper.code(&p), p)).collect();
        entries.sort_unstable_by_key(|(code, _)| *code);
        Self {
            entries,
            mapper,
            space,
        }
    }

    /// Builds the index with the default 16-bit grid.
    pub fn with_default_bits(points: Vec<Point>) -> Self {
        Self::build(points, 16)
    }

    /// First array position whose code is `>= code`.
    fn lower_bound(&self, code: u64) -> usize {
        self.entries.partition_point(|(c, _)| *c < code)
    }

    /// The range-scan kernel shared by both range modes: scans the
    /// Morton-code interval `[code(BL), code(TR)]`, consulting BIGMIN to
    /// jump over runs of codes outside the query rectangle, and invokes
    /// `on_match` for every matching point.
    fn scan_range(&self, query: &Rect, stats: &mut ExecStats, mut on_match: impl FnMut(&Point)) {
        let projection_start = std::time::Instant::now();
        let (lo_code, hi_code) = self.mapper.query_interval(query);
        let start = self.lower_bound(lo_code);
        stats.add_projection(projection_start.elapsed());

        let scan_start = std::time::Instant::now();
        let mut i = start;
        let mut misses = 0usize;
        while i < self.entries.len() {
            let (code, point) = self.entries[i];
            if code > hi_code {
                break;
            }
            stats.points_scanned += 1;
            if query.contains(&point) {
                on_match(&point);
                misses = 0;
            } else {
                misses += 1;
                if misses >= BIGMIN_PATIENCE {
                    // Jump to the next Morton code that can lie inside the
                    // query rectangle.
                    match bigmin(code, lo_code, hi_code) {
                        Some(next_code) => {
                            let next = self.lower_bound(next_code);
                            stats.leaves_skipped += (next.saturating_sub(i + 1)) as u64;
                            i = next;
                            misses = 0;
                            continue;
                        }
                        None => break,
                    }
                }
            }
            i += 1;
        }
        stats.add_scan(scan_start.elapsed());
    }
}

impl SpatialIndex for ZOrderSorted {
    fn name(&self) -> &'static str {
        "Zpgm"
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn data_bounds(&self) -> Rect {
        self.space
    }

    fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
        let mut result = Vec::new();
        self.scan_range(query, stats, |p| result.push(*p));
        stats.results += result.len() as u64;
        result
    }

    fn range_count(&self, query: &Rect, stats: &mut ExecStats) -> u64 {
        let mut count = 0u64;
        self.scan_range(query, stats, |_| count += 1);
        stats.results += count;
        count
    }

    fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
        let start = std::time::Instant::now();
        let code = self.mapper.code(p);
        let mut i = self.lower_bound(code);
        let mut found = false;
        while i < self.entries.len() && self.entries[i].0 == code {
            stats.points_scanned += 1;
            if self.entries[i].1 == *p {
                found = true;
                break;
            }
            i += 1;
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
        let code = self.mapper.code(&p);
        let position = self.lower_bound(code);
        self.entries.insert(position, (code, p));
        self.space.expand(&p);
        Ok(())
    }

    fn size_bytes(&self) -> usize {
        // The sorted code array is the index structure itself.
        std::mem::size_of::<Self>() + self.entries.len() * std::mem::size_of::<u64>()
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
    fn range_queries_match_brute_force() {
        let points = dataset(5_000, 1);
        let index = ZOrderSorted::with_default_bits(points.clone());
        let mut stats = ExecStats::default();
        for query in [
            Rect::from_coords(0.1, 0.1, 0.2, 0.2),
            Rect::from_coords(0.4, 0.1, 0.9, 0.3),
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
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
    fn bigmin_skipping_reduces_scanned_points_for_elongated_queries() {
        let points = dataset(20_000, 2);
        let index = ZOrderSorted::with_default_bits(points.clone());
        // A tall, thin query forces the Z-curve to wander far outside the
        // rectangle; BIGMIN should avoid scanning the whole code interval.
        let query = Rect::from_coords(0.48, 0.05, 0.52, 0.95);
        let mut stats = ExecStats::default();
        let result = index.range_query(&query, &mut stats);
        let expected = points.iter().filter(|p| query.contains(p)).count();
        assert_eq!(result.len(), expected);
        assert!(
            (stats.points_scanned as usize) < points.len() / 2,
            "scanned {} of {} points despite BIGMIN",
            stats.points_scanned,
            points.len()
        );
        assert!(stats.leaves_skipped > 0, "BIGMIN never jumped");
    }

    #[test]
    fn point_queries_and_inserts() {
        let points = dataset(2_000, 3);
        let mut index = ZOrderSorted::with_default_bits(points.clone());
        let mut stats = ExecStats::default();
        assert!(index.point_query(&points[55], &mut stats));
        assert!(!index.point_query(&Point::new(0.555_123, 0.321_555), &mut stats));
        index.insert(Point::new(0.5, 0.5)).expect("insert");
        assert!(index.point_query(&Point::new(0.5, 0.5), &mut stats));
        assert_eq!(index.len(), 2_001);
    }

    #[test]
    fn empty_index() {
        let index = ZOrderSorted::with_default_bits(Vec::new());
        let mut stats = ExecStats::default();
        assert!(index.range_query(&Rect::UNIT, &mut stats).is_empty());
        assert!(!index.point_query(&Point::new(0.5, 0.5), &mut stats));
        assert_eq!(index.name(), "Zpgm");
    }

    /// The flat array advertises no batch kernel, empty or not: every
    /// batch strategy runs its plans through the per-query loop.
    #[test]
    fn zpgm_advertises_no_batch_kernels() {
        for index in [
            ZOrderSorted::with_default_bits(Vec::new()),
            ZOrderSorted::with_default_bits(dataset(100, 6)),
        ] {
            assert!(index.range_batch_kernel().is_none());
        }
    }
}
