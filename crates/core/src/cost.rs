//! The retrieval-cost model of Section 4 (Eqs. 1, 2 and 5).
//!
//! The retrieval cost of a range query on a single-level Z-index is the
//! number of points compared against the query box during the scanning
//! phase: every point of a quadrant overlapped by the query is compared,
//! while quadrants that lie between the query's end quadrants in curve order
//! but do not overlap the query only contribute a fraction `α` of their
//! points (they are skipped after a bounding-box comparison, or nearly for
//! free when look-ahead pointers are enabled).
//!
//! The greedy construction (Algorithm 3) evaluates this cost for `κ`
//! candidate split points and both cell orderings, with quadrant
//! cardinalities either counted exactly or estimated by an RFDE model.

use wazi_density::Rfde;
use wazi_geom::{CellOrdering, Point, Quadrant, QueryCase, Rect};

/// Per-quadrant point cardinalities `n_A, n_B, n_C, n_D` for a candidate
/// split, indexed by [`Quadrant::label_index`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadrantCounts {
    counts: [f64; 4],
}

impl QuadrantCounts {
    /// Builds counts from explicit per-quadrant values (label order
    /// `A, B, C, D`).
    pub fn from_counts(counts: [f64; 4]) -> Self {
        Self { counts }
    }

    /// Counts the cell's points exactly against the candidate split.
    pub fn exact(points: &[Point], split: &Point) -> Self {
        // Counts are far below 2⁵³, so the conversions are exact.
        Self {
            counts: quadrant_sizes(points, split).map(|size| size as f64),
        }
    }

    /// Estimates the counts with an RFDE model fitted on the full dataset.
    /// `cell` is the region of the cell being split; quadrant regions are
    /// clipped to it so the estimates refer to the cell's own points.
    pub fn estimated(rfde: &Rfde, cell: &Rect, split: &Point) -> Self {
        let mut counts = [0.0f64; 4];
        for q in Quadrant::ALL {
            let region = q.region(cell, split);
            counts[q.label_index()] = rfde.estimate_count(&region).max(0.0);
        }
        Self { counts }
    }

    /// Cardinality of one quadrant.
    #[inline]
    pub fn get(&self, q: Quadrant) -> f64 {
        self.counts[q.label_index()]
    }

    /// Total cardinality across quadrants.
    #[inline]
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }
}

/// How many of `points` fall in each quadrant of `split` (label order
/// `A, B, C, D`): three branch-free sums of the comparison bits of
/// Algorithm 1 instead of a four-way bucket choice per point.
pub(crate) fn quadrant_sizes(points: &[Point], split: &Point) -> [usize; 4] {
    let (mut gx, mut gy, mut gxy) = (0usize, 0usize, 0usize);
    for p in points {
        let (bit_x, bit_y) = (p.x > split.x, p.y > split.y);
        gx += usize::from(bit_x);
        gy += usize::from(bit_y);
        gxy += usize::from(bit_x & bit_y);
    }
    // `gx + gy` may exceed `points.len()`: add before subtracting.
    [points.len() + gxy - gx - gy, gx - gxy, gy - gxy, gxy]
}

/// Retrieval cost of a single query under a candidate `(split, ordering)`
/// (one `cost_X(R | x, y; o)` term of Eqs. 1 and 2, with the lower levels
/// approximated by `n_X` as in Eq. 5).
pub fn query_cost(
    query: &Rect,
    split: &Point,
    ordering: CellOrdering,
    counts: &QuadrantCounts,
    alpha: f64,
) -> f64 {
    case_cost(QueryCase::classify(query, split), ordering, counts, alpha)
}

/// The cost of any query classified as `case`: given the counts, Eq. 5's
/// summand depends on the query only through the quadrants of its corners.
fn case_cost(case: QueryCase, ordering: CellOrdering, counts: &QuadrantCounts, alpha: f64) -> f64 {
    if case.is_contained() {
        // δ_{R ∈ XX} n_X: the greedy upper bound for the recursion into the
        // child that wholly contains the query.
        return counts.get(case.bl);
    }
    let curve = ordering.curve();
    let start = ordering.position(case.bl);
    let end = ordering.position(case.tr);
    debug_assert!(start <= end, "monotone orderings visit BL before TR");
    let overlapped = case.overlapped();
    let mut cost = 0.0;
    for &quadrant in &curve[start..=end] {
        let n = counts.get(quadrant);
        if overlapped.contains(&quadrant) {
            cost += n;
        } else {
            // A quadrant scanned over but not overlapping the query: its
            // leaves are skipped after bounding-box comparisons, modelled by
            // the skip-cost constant α (Section 4.2 / Section 5.2).
            cost += alpha * n;
        }
    }
    cost
}

/// Total retrieval cost `C_X(Q | x, y; o)` of a workload under a candidate
/// split and ordering (Eq. 5).
pub fn workload_cost(
    queries: &[Rect],
    split: &Point,
    ordering: CellOrdering,
    counts: &QuadrantCounts,
    alpha: f64,
) -> f64 {
    queries
        .iter()
        .map(|q| query_cost(q, split, ordering, counts, alpha))
        .sum()
}

/// Evaluates both orderings for a candidate split and returns the cheaper
/// one together with its cost (the inner minimisation of Line 3 of
/// Algorithm 3).
///
/// Equal, bit for bit, to taking the minimum of [`workload_cost`] over both
/// orderings, at one classification per query: the nine legal cases are
/// costed once per ordering through the same `case_cost` [`query_cost`]
/// uses, and each query adds its case's entry to both totals in workload
/// order — the same `f64`s added in the same order.
pub fn best_ordering(
    queries: &[Rect],
    split: &Point,
    counts: &QuadrantCounts,
    alpha: f64,
) -> (CellOrdering, f64) {
    // Indexed by ordering, then `QueryCase::index`; `None` for the seven
    // cases only a rectangle with unordered corners can produce, which are
    // costed on the spot like `query_cost` would.
    let mut table = [[None; 16]; 2];
    for (row, ordering) in table.iter_mut().zip(CellOrdering::ALL) {
        for case in QueryCase::LEGAL {
            row[case.index()] = Some(case_cost(case, ordering, counts, alpha));
        }
    }
    // `Iterator::sum`, which `workload_cost` totals with, starts from -0.0.
    let mut totals = [-0.0f64; 2];
    for query in queries {
        let case = QueryCase::classify(query, split);
        for ((total, row), ordering) in totals.iter_mut().zip(&table).zip(CellOrdering::ALL) {
            *total += row[case.index()].unwrap_or_else(|| case_cost(case, ordering, counts, alpha));
        }
    }
    let mut best = (CellOrdering::Abcd, f64::INFINITY);
    for (ordering, cost) in CellOrdering::ALL.into_iter().zip(totals) {
        if cost < best.1 {
            best = (ordering, cost);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPLIT: Point = Point::new(0.5, 0.5);

    fn counts() -> QuadrantCounts {
        // n_A = 10, n_B = 20, n_C = 30, n_D = 40
        QuadrantCounts::from_counts([10.0, 20.0, 30.0, 40.0])
    }

    #[test]
    fn exact_counts_match_partition() {
        let points = vec![
            Point::new(0.1, 0.1), // A
            Point::new(0.9, 0.1), // B
            Point::new(0.9, 0.2), // B
            Point::new(0.1, 0.9), // C
            Point::new(0.9, 0.9), // D
            Point::new(0.5, 0.5), // boundary -> A
        ];
        let c = QuadrantCounts::exact(&points, &SPLIT);
        assert_eq!(c.get(Quadrant::A), 2.0);
        assert_eq!(c.get(Quadrant::B), 2.0);
        assert_eq!(c.get(Quadrant::C), 1.0);
        assert_eq!(c.get(Quadrant::D), 1.0);
        assert_eq!(c.total(), 6.0);
    }

    #[test]
    fn contained_query_costs_its_quadrant() {
        // Query wholly inside D.
        let q = Rect::from_coords(0.6, 0.6, 0.9, 0.9);
        let cost = query_cost(&q, &SPLIT, CellOrdering::Abcd, &counts(), 0.1);
        assert_eq!(cost, 40.0);
        // Same under the alternative ordering: containment cost is
        // ordering-independent.
        let cost = query_cost(&q, &SPLIT, CellOrdering::Acbd, &counts(), 0.1);
        assert_eq!(cost, 40.0);
    }

    #[test]
    fn full_span_costs_everything_under_both_orderings() {
        // The δ_{R ∈ AD} case of Eqs. 1 and 2.
        let q = Rect::from_coords(0.1, 0.1, 0.9, 0.9);
        for ordering in CellOrdering::ALL {
            let cost = query_cost(&q, &SPLIT, ordering, &counts(), 0.1);
            assert_eq!(cost, 100.0);
        }
    }

    #[test]
    fn left_half_span_matches_equation_one_and_two() {
        // Query spanning A and C (the Figure 1b situation).
        let q = Rect::from_coords(0.1, 0.1, 0.4, 0.9);
        let alpha = 0.1;
        // abcd (Eq. 1): n_A + α n_B + n_C = 10 + 2 + 30 = 42.
        let abcd = query_cost(&q, &SPLIT, CellOrdering::Abcd, &counts(), alpha);
        assert!((abcd - 42.0).abs() < 1e-12);
        // acbd (Eq. 2): A and C adjacent, no skipped quadrant: 10 + 30 = 40.
        let acbd = query_cost(&q, &SPLIT, CellOrdering::Acbd, &counts(), alpha);
        assert!((acbd - 40.0).abs() < 1e-12);
    }

    #[test]
    fn bottom_half_span_swaps_between_orderings() {
        // Query spanning A and B.
        let q = Rect::from_coords(0.1, 0.1, 0.9, 0.4);
        let alpha = 0.5;
        // abcd: adjacent, 10 + 20 = 30.
        assert_eq!(
            query_cost(&q, &SPLIT, CellOrdering::Abcd, &counts(), alpha),
            30.0
        );
        // acbd: C sits between A and B in curve order: 10 + 0.5*30 + 20 = 45.
        assert_eq!(
            query_cost(&q, &SPLIT, CellOrdering::Acbd, &counts(), alpha),
            45.0
        );
    }

    #[test]
    fn right_half_and_top_half_spans() {
        let alpha = 0.0;
        // B to D (right half): abcd skips C, acbd is adjacent.
        let q = Rect::from_coords(0.6, 0.1, 0.9, 0.9);
        assert_eq!(
            query_cost(&q, &SPLIT, CellOrdering::Abcd, &counts(), alpha),
            60.0
        );
        assert_eq!(
            query_cost(&q, &SPLIT, CellOrdering::Acbd, &counts(), alpha),
            60.0
        );
        // C to D (top half): adjacent under abcd, skips B under acbd.
        let q = Rect::from_coords(0.1, 0.6, 0.9, 0.9);
        assert_eq!(
            query_cost(&q, &SPLIT, CellOrdering::Abcd, &counts(), alpha),
            70.0
        );
        assert_eq!(
            query_cost(&q, &SPLIT, CellOrdering::Acbd, &counts(), alpha),
            70.0
        );
    }

    #[test]
    fn alpha_scales_skipped_quadrants_only() {
        let q = Rect::from_coords(0.1, 0.1, 0.4, 0.9); // spans A, C under abcd
        let cheap = query_cost(&q, &SPLIT, CellOrdering::Abcd, &counts(), 1e-5);
        let expensive = query_cost(&q, &SPLIT, CellOrdering::Abcd, &counts(), 1.0);
        assert!(cheap < expensive);
        assert!((expensive - 60.0).abs() < 1e-12); // α=1: as if B were scanned fully
        assert!((cheap - 40.0).abs() < 0.01);
    }

    #[test]
    fn workload_cost_sums_and_best_ordering_picks_minimum() {
        // A workload dominated by left-half spans prefers acbd.
        let queries = vec![
            Rect::from_coords(0.1, 0.1, 0.4, 0.9),
            Rect::from_coords(0.05, 0.2, 0.45, 0.8),
            Rect::from_coords(0.2, 0.1, 0.3, 0.7),
        ];
        let alpha = 0.5;
        let total_abcd = workload_cost(&queries, &SPLIT, CellOrdering::Abcd, &counts(), alpha);
        let total_acbd = workload_cost(&queries, &SPLIT, CellOrdering::Acbd, &counts(), alpha);
        assert!(total_acbd < total_abcd);
        let (ordering, cost) = best_ordering(&queries, &SPLIT, &counts(), alpha);
        assert_eq!(ordering, CellOrdering::Acbd);
        assert_eq!(cost, total_acbd);

        // A workload of bottom-half spans prefers abcd.
        let queries = vec![Rect::from_coords(0.1, 0.1, 0.9, 0.4)];
        let (ordering, _) = best_ordering(&queries, &SPLIT, &counts(), alpha);
        assert_eq!(ordering, CellOrdering::Abcd);
    }

    /// The table-driven `best_ordering` against the definition it replaces:
    /// the first strict minimum of `workload_cost` over both orderings.
    /// Same ordering and the same cost bits, on coordinates drawn from a
    /// small lattice so query edges often lie exactly on the split.
    #[test]
    fn best_ordering_equals_the_minimum_of_workload_cost_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC057);
        let mut orderings_seen = [0usize; 2];
        for round in 0..2_000 {
            let lattice = |rng: &mut StdRng| f64::from(rng.gen_range(0u32..8)) / 8.0;
            let split = Point::new(lattice(&mut rng), lattice(&mut rng));
            let counts = if round % 2 == 0 {
                QuadrantCounts::from_counts([(); 4].map(|_| f64::from(rng.gen_range(0u32..5_000))))
            } else {
                // What an RFDE estimate looks like: non-negative fractions.
                QuadrantCounts::from_counts([(); 4].map(|_| rng.gen::<f64>() * 1e4))
            };
            let alpha = [0.0, 1e-5, 0.1, 1.0, rng.gen::<f64>()][round % 5];
            let queries: Vec<Rect> = (0..[0usize, 1, 2, 7, 60][(round / 5) % 5])
                .map(|_| {
                    let a = Point::new(lattice(&mut rng), lattice(&mut rng));
                    let b = Point::new(lattice(&mut rng), lattice(&mut rng));
                    Rect::from_corners(a, b)
                })
                .collect();

            let mut want = (CellOrdering::Abcd, f64::INFINITY);
            for ordering in CellOrdering::ALL {
                let cost = workload_cost(&queries, &split, ordering, &counts, alpha);
                if cost < want.1 {
                    want = (ordering, cost);
                }
            }
            let got = best_ordering(&queries, &split, &counts, alpha);
            assert_eq!(got.0, want.0, "round {round}: ordering");
            assert_eq!(
                got.1.to_bits(),
                want.1.to_bits(),
                "round {round}: cost {} vs {}",
                got.1,
                want.1
            );
            orderings_seen[got.0 as usize] += 1;
        }
        assert!(
            orderings_seen.iter().all(|&n| n > 100),
            "both orderings must win sometimes: {orderings_seen:?}"
        );
    }

    #[test]
    fn exact_counts_equal_a_per_point_classification() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for n in [0usize, 1, 5, 1_000] {
            let lattice = |rng: &mut StdRng| f64::from(rng.gen_range(0u32..6)) / 6.0;
            let points: Vec<Point> = (0..n)
                .map(|_| Point::new(lattice(&mut rng), lattice(&mut rng)))
                .collect();
            // Splits on the lattice, off it, and outside the data on either
            // side (every point in A, every point in D).
            for split in [
                Point::new(0.5, 0.5),
                Point::new(0.4, 0.6),
                Point::new(2.0, 2.0),
                Point::new(-1.0, -1.0),
                Point::new(-1.0, 2.0),
            ] {
                let mut want = [0.0f64; 4];
                for p in &points {
                    want[Quadrant::of(p, &split).label_index()] += 1.0;
                }
                let got = QuadrantCounts::exact(&points, &split);
                assert_eq!(
                    got,
                    QuadrantCounts::from_counts(want),
                    "n {n} split {split}"
                );
            }
        }
    }

    #[test]
    fn estimated_counts_are_close_to_exact_on_a_grid() {
        let mut points = Vec::new();
        for i in 0..40 {
            for j in 0..40 {
                points.push(Point::new((i as f64 + 0.5) / 40.0, (j as f64 + 0.5) / 40.0));
            }
        }
        let rfde = Rfde::fit(&points, wazi_density::RfdeConfig::default());
        let split = Point::new(0.25, 0.75);
        let exact = QuadrantCounts::exact(&points, &split);
        let estimated = QuadrantCounts::estimated(&rfde, &Rect::UNIT, &split);
        for q in Quadrant::ALL {
            let e = exact.get(q);
            let s = estimated.get(q);
            assert!(
                (e - s).abs() <= 0.1 * points.len() as f64,
                "estimate {s} too far from exact {e} for {q:?}"
            );
        }
    }
}
