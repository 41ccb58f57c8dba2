//! QUASII: QUery-Aware Spatial Incremental Index (Pavlovic et al., 2018).
//!
//! QUASII adapts to the workload through *database cracking*: every query
//! partitions ("cracks") the pieces of data it touches along the query
//! boundaries, one dimension per level of the index, until pieces reach a
//! minimum size. The WaZI evaluation uses a **converged** QUASII index — one
//! that has processed the entire training workload and no longer needs to
//! crack — so construction here replays the training queries and query
//! processing afterwards is read-only.
//!
//! The implementation is a two-level cracker matching the paper's 2-D
//! setting: level one cracks on `x`, level two cracks on `y` within each
//! x-piece.

use wazi_core::{
    solo_point_query, solo_range_query, RangeBatchKernel, RangeBatchOutput, RangeBatchRequest,
    SpatialIndex, WalkRecord,
};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

/// A contiguous run of points with a known y-interval inside an x-slice.
#[derive(Debug, Clone)]
struct YPiece {
    /// Points of the piece (unsorted within the piece).
    points: Vec<Point>,
    /// Lower y bound of the piece (inclusive).
    y_lo: f64,
    /// Upper y bound of the piece (exclusive, except for the last piece).
    y_hi: f64,
}

/// An x-slice of the cracked index holding its own y-cracked pieces.
#[derive(Debug, Clone)]
struct XSlice {
    x_lo: f64,
    x_hi: f64,
    pieces: Vec<YPiece>,
}

/// The converged QUASII index.
#[derive(Debug, Clone)]
pub struct Quasii {
    slices: Vec<XSlice>,
    len: usize,
    /// Bounding box of the indexed data (the initial uncracked piece).
    space: Rect,
    /// Pieces smaller than this are not cracked further (the piece-size
    /// threshold of the original algorithm).
    min_piece: usize,
    /// Slice `s`'s pieces are numbered from `piece_starts[s]` in the
    /// flattened piece order the range kernel scans in; one entry more than
    /// there are slices. Set once cracking has converged.
    piece_starts: Vec<u32>,
}

impl Quasii {
    /// Builds a converged QUASII index by replaying the training workload.
    pub fn build(points: Vec<Point>, training: &[Rect], min_piece: usize) -> Self {
        let min_piece = min_piece.max(1);
        let len = points.len();
        let space = if points.is_empty() {
            Rect::UNIT
        } else {
            Rect::bounding(&points)
        };
        let (x_lo, x_hi, y_lo, y_hi) = (space.lo.x, space.hi.x, space.lo.y, space.hi.y);
        let mut index = Self {
            slices: vec![XSlice {
                x_lo,
                x_hi,
                pieces: vec![YPiece { points, y_lo, y_hi }],
            }],
            len,
            space,
            min_piece,
            piece_starts: Vec::new(),
        };
        for query in training {
            index.crack(query);
        }
        let mut next = 0u32;
        index.piece_starts = std::iter::once(0)
            .chain(index.slices.iter().map(|slice| {
                next += slice.pieces.len() as u32;
                next
            }))
            .collect();
        index
    }

    /// Number of x-slices after convergence.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Total number of y-pieces after convergence (the "fractured data
    /// layout" the paper attributes QUASII's slow point queries to).
    pub fn piece_count(&self) -> usize {
        self.slices.iter().map(|s| s.pieces.len()).sum()
    }

    /// Cracks the index along the boundaries of one query.
    fn crack(&mut self, query: &Rect) {
        self.crack_x(query.lo.x);
        self.crack_x(query.hi.x);
        for slice in &mut self.slices {
            if slice.x_hi < query.lo.x || slice.x_lo > query.hi.x {
                continue;
            }
            crack_slice_y(slice, query.lo.y, self.min_piece);
            crack_slice_y(slice, query.hi.y, self.min_piece);
        }
    }

    /// Splits the x-slice containing `x` at `x` (when the slice is large
    /// enough to crack).
    fn crack_x(&mut self, x: f64) {
        let Some(position) = self.slices.iter().position(|s| x > s.x_lo && x < s.x_hi) else {
            return;
        };
        let slice_size: usize = self.slices[position]
            .pieces
            .iter()
            .map(|p| p.points.len())
            .sum();
        if slice_size <= self.min_piece {
            return;
        }
        let slice = self.slices.remove(position);
        let mut left_pieces = Vec::with_capacity(slice.pieces.len());
        let mut right_pieces = Vec::with_capacity(slice.pieces.len());
        for piece in slice.pieces {
            let (left, right): (Vec<Point>, Vec<Point>) =
                piece.points.into_iter().partition(|p| p.x <= x);
            if !left.is_empty() || right.is_empty() {
                left_pieces.push(YPiece {
                    points: left,
                    y_lo: piece.y_lo,
                    y_hi: piece.y_hi,
                });
            }
            if !right.is_empty() {
                right_pieces.push(YPiece {
                    points: right,
                    y_lo: piece.y_lo,
                    y_hi: piece.y_hi,
                });
            }
        }
        if right_pieces.is_empty() {
            right_pieces.push(YPiece {
                points: Vec::new(),
                y_lo: 0.0,
                y_hi: 0.0,
            });
        }
        if left_pieces.is_empty() {
            left_pieces.push(YPiece {
                points: Vec::new(),
                y_lo: 0.0,
                y_hi: 0.0,
            });
        }
        self.slices.insert(
            position,
            XSlice {
                x_lo: x,
                x_hi: slice.x_hi,
                pieces: right_pieces,
            },
        );
        self.slices.insert(
            position,
            XSlice {
                x_lo: slice.x_lo,
                x_hi: x,
                pieces: left_pieces,
            },
        );
    }
}

/// Splits every y-piece of the slice containing `y` at `y` (when larger than
/// the minimum piece size).
fn crack_slice_y(slice: &mut XSlice, y: f64, min_piece: usize) {
    let Some(position) = slice
        .pieces
        .iter()
        .position(|p| y > p.y_lo && y < p.y_hi && p.points.len() > min_piece)
    else {
        return;
    };
    let piece = slice.pieces.remove(position);
    let (low, high): (Vec<Point>, Vec<Point>) = piece.points.into_iter().partition(|p| p.y <= y);
    slice.pieces.insert(
        position,
        YPiece {
            points: high,
            y_lo: y,
            y_hi: piece.y_hi,
        },
    );
    slice.pieces.insert(
        position,
        YPiece {
            points: low,
            y_lo: piece.y_lo,
            y_hi: y,
        },
    );
}

impl SpatialIndex for Quasii {
    fn name(&self) -> &'static str {
        "QUASII"
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

    // `insert` / `delete` keep the trait's typed refusal: the evaluation
    // uses a converged (read-only) QUASII instance, and the typed error
    // lets the versioned writer fall back to a full rebuild.

    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slices.len() * std::mem::size_of::<XSlice>()
            + self.piece_count() * std::mem::size_of::<YPiece>()
            + self.piece_starts.len() * std::mem::size_of::<u32>()
    }

    fn range_batch_kernel(&self) -> Option<&dyn RangeBatchKernel> {
        Some(self)
    }
}

impl Quasii {
    /// The x-slices overlapping `[x0, x1]`. The slices partition the x axis
    /// contiguously in ascending order, so they are one contiguous run,
    /// located by two binary searches; empty when the query lies entirely
    /// outside the cracked x-range.
    fn slice_interval(&self, x0: f64, x1: f64) -> std::ops::Range<usize> {
        let lo = self.slices.partition_point(|s| s.x_hi < x0);
        let hi = self.slices.partition_point(|s| s.x_lo <= x1);
        lo..hi.max(lo)
    }

    /// The first piece the probe's walk reads for `p`, found by binary
    /// search without charging anything: the first piece holding `p.y` in
    /// the first slice holding `p.x` that has one.
    fn first_piece_holding(&self, p: &Point) -> Option<u32> {
        self.slice_interval(p.x, p.x).find_map(|s| {
            let pieces = &self.slices[s].pieces;
            let at = pieces
                .iter()
                .position(|piece| piece.y_lo <= p.y && p.y <= piece.y_hi)?;
            Some(self.piece_starts[s] + at as u32)
        })
    }

    /// The point probe's walk over the cracked layout: a tick for every
    /// slice until `p` is found, a check for every piece of a slice holding
    /// `p.x`, and every point of a piece holding `p.y` compared. Every
    /// piece read is charged its visit but `located`, whose visit the
    /// engine charges.
    fn probe_walk(&self, p: &Point, located: Option<u32>, stats: &mut ExecStats) -> bool {
        for (slice, &start) in self.slices.iter().zip(&self.piece_starts) {
            stats.nodes_visited += 1;
            if p.x < slice.x_lo || p.x > slice.x_hi {
                continue;
            }
            for (piece, id) in slice.pieces.iter().zip(start..) {
                stats.bbs_checked += 1;
                if p.y < piece.y_lo || p.y > piece.y_hi {
                    continue;
                }
                stats.pages_scanned += u64::from(located != Some(id));
                stats.points_scanned += piece.points.len() as u64;
                if piece.points.contains(p) {
                    return true;
                }
            }
        }
        false
    }
}

/// QUASII's kernel: a unit is a y-piece, numbered in flattened (slice,
/// piece) order, and a request's run lists the pieces it reads in that
/// order; a probe's unit is the first piece its walk reads. A piece read by
/// `k` requests or probes of a batch is fetched once instead of once per
/// request.
impl RangeBatchKernel for Quasii {
    /// Walks every request over the cracked layout: the tick for every
    /// slice (the cracked-layout walk the paper charges), one bounding-box
    /// check per piece of each x-overlapping slice (located by two binary
    /// searches), and the y-overlapping pieces join the run.
    fn walk(&self, requests: &[RangeBatchRequest]) -> WalkRecord {
        let mut record = WalkRecord::new(requests.len());
        for (qi, request) in requests.iter().enumerate() {
            let (rect, stats) = (&request.rect, &mut record.per_query[qi]);
            stats.nodes_visited += self.slices.len() as u64;
            for s in self.slice_interval(rect.lo.x, rect.hi.x) {
                for (at, piece) in self.slices[s].pieces.iter().enumerate() {
                    stats.bbs_checked += 1;
                    if piece.y_hi < rect.lo.y || piece.y_lo > rect.hi.y {
                        continue;
                    }
                    record.units.push(self.piece_starts[s] + at as u32);
                    record.points += piece.points.len() as u64;
                }
            }
            record.end_run();
        }
        record
    }

    fn scan(&self, piece: u32, rect: &Rect, output: &mut RangeBatchOutput, stats: &mut ExecStats) {
        let s = self.piece_starts.partition_point(|&start| start <= piece) - 1;
        let points = &self.slices[s].pieces[(piece - self.piece_starts[s]) as usize].points;
        // A local copy keeps the filter from reloading the rectangle
        // through a reference the optimiser cannot prove disjoint from the
        // output.
        let rect = *rect;
        output.scan_run(points, |p| rect.contains(p), stats);
    }

    /// A probe's unit is the first piece its walk reads. A probe no piece
    /// holds reads none and is charged its whole walk here.
    fn locate(&self, p: &Point, stats: &mut ExecStats) -> Option<u32> {
        let piece = self.first_piece_holding(p);
        if piece.is_none() {
            self.probe_walk(p, None, stats);
        }
        piece
    }

    /// Replays the whole walk, early exit included, charged as the solo
    /// probe charges it but for the located piece's visit.
    fn probe(&self, piece: u32, p: &Point, stats: &mut ExecStats) -> bool {
        self.probe_walk(p, Some(piece), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wazi_core::{IndexError, UpdateOp};

    fn dataset(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    fn workload(n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let c = Point::new(0.3 + rng.gen::<f64>() * 0.4, 0.3 + rng.gen::<f64>() * 0.4);
                Rect::query_box(&Rect::UNIT, c, 0.001, 1.0)
            })
            .collect()
    }

    #[test]
    fn converged_index_answers_training_and_unseen_queries_exactly() {
        let points = dataset(5_000, 1);
        let training = workload(200, 2);
        let index = Quasii::build(points.clone(), &training, 64);
        assert_eq!(index.len(), 5_000);
        let mut stats = ExecStats::default();
        let unseen = workload(20, 3);
        for query in training.iter().take(30).chain(unseen.iter()) {
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
    fn cracking_fractures_the_layout_around_the_workload() {
        let points = dataset(5_000, 4);
        let training = workload(200, 5);
        let index = Quasii::build(points.clone(), &training, 64);
        assert!(
            index.slice_count() > 10,
            "x cracks: {}",
            index.slice_count()
        );
        assert!(index.piece_count() > index.slice_count());

        // Cracking must not lose or duplicate points.
        let total: usize = index
            .slices
            .iter()
            .flat_map(|s| s.pieces.iter())
            .map(|p| p.points.len())
            .sum();
        assert_eq!(total, 5_000);
    }

    #[test]
    fn converged_index_scans_few_points_on_training_queries() {
        let points = dataset(10_000, 6);
        let training = workload(400, 7);
        let index = Quasii::build(points.clone(), &training, 64);
        let mut stats = ExecStats::default();
        for q in &training {
            index.range_query(q, &mut stats);
        }
        // Each training query touches only cracked pieces aligned with some
        // query boundary; on average that is far fewer points than a full
        // scan.
        let mean_scanned = stats.points_scanned as f64 / training.len() as f64;
        assert!(
            mean_scanned < points.len() as f64 * 0.05,
            "mean scanned {mean_scanned} is too large"
        );
    }

    #[test]
    fn point_queries_and_unsupported_insert() {
        let points = dataset(2_000, 8);
        let mut index = Quasii::build(points.clone(), &workload(100, 9), 64);
        let mut stats = ExecStats::default();
        assert!(index.point_query(&points[7], &mut stats));
        assert!(!index.point_query(&Point::new(2.0, 2.0), &mut stats));
        assert!(matches!(
            index.insert(Point::new(0.5, 0.5)),
            Err(IndexError::UpdateUnsupported {
                index,
                op: UpdateOp::Insert
            }) if index == "QUASII"
        ));
        assert_eq!(index.name(), "QUASII");
        assert!(index.size_bytes() > 0);
    }

    /// The fused piece scan must replicate every query's solo query — the
    /// full-slice-walk tick, per-piece bounding-box checks, comparisons and
    /// result order — while pieces relevant to several queries are scanned
    /// once per batch.
    #[test]
    fn fused_range_batch_matches_sequential_and_shares_pieces() {
        use wazi_core::{RangeBatchOutput, RangeBatchRequest};
        let points = dataset(6_000, 31);
        let training = workload(250, 32);
        let index = Quasii::build(points, &training, 64);
        let kernel = index
            .range_batch_kernel()
            .expect("QUASII fuses range batches now");
        // Training-shaped (aligned with cracks) plus unseen queries.
        let rects: Vec<Rect> = training
            .iter()
            .take(20)
            .chain(workload(10, 33).iter())
            .copied()
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
            assert_eq!(response.per_query[qi].nodes_visited, stats.nodes_visited);
            assert_eq!(response.per_query[qi].bbs_checked, stats.bbs_checked);
            assert_eq!(response.per_query[qi].points_scanned, stats.points_scanned);
            sequential_pages += stats.pages_scanned;
        }
        assert!(
            response.shared.pages_scanned < sequential_pages,
            "the concentrated workload must share piece scans ({} fused vs {} sequential)",
            response.shared.pages_scanned,
            sequential_pages
        );
    }

    /// A fused probe batch replays the sequential cracked-layout walk,
    /// early exit included: per probe, the same answer, slice ticks,
    /// checks and comparisons.
    #[test]
    fn fused_point_batch_replicates_the_sequential_walk() {
        use wazi_core::{BatchStrategy, Query, QueryEngine};
        let points = dataset(3_000, 34);
        let index = Quasii::build(points.clone(), &workload(150, 35), 64);
        let batch: Vec<Query> = [
            points[11],
            points[11],
            Point::new(0.987_6, 0.012_3),
            Point::new(5.0, 5.0),
        ]
        .map(Query::point)
        .to_vec();
        let engine = QueryEngine::new(&index);
        let fused = QueryEngine::new(&index)
            .with_strategy(BatchStrategy::Fused)
            .execute_batch(&batch)
            .unwrap();
        assert_eq!(fused.fused_points, batch.len());
        for (query, report) in batch.iter().zip(&fused.reports) {
            let solo = engine.execute(query).unwrap();
            assert_eq!(report.output, solo.output);
            assert_eq!(report.stats.nodes_visited, solo.stats.nodes_visited);
            assert_eq!(report.stats.bbs_checked, solo.stats.bbs_checked);
            assert_eq!(report.stats.points_scanned, solo.stats.points_scanned);
        }
    }

    #[test]
    fn empty_dataset_and_empty_workload() {
        let index = Quasii::build(Vec::new(), &[], 64);
        let mut stats = ExecStats::default();
        assert!(index.range_query(&Rect::UNIT, &mut stats).is_empty());

        let points = dataset(1_000, 10);
        let no_training = Quasii::build(points.clone(), &[], 64);
        let got = no_training.range_query(&Rect::UNIT, &mut stats);
        assert_eq!(got.len(), 1_000);
        assert_eq!(no_training.slice_count(), 1);
    }
}
